//===- Triage.cpp - Pass bisection and bug clustering -----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "triage/Triage.h"

#include "device/Driver.h"
#include "exec/ExecBackend.h"
#include "minicl/AST.h"
#include "minicl/ASTQueries.h"
#include "minicl/Parser.h"
#include "minicl/Sema.h"
#include "oracle/Reducer.h"
#include "opt/Pass.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <map>
#include <memory>

using namespace clfuzz;

namespace {

/// The divergence predicate, identical to the differential oracle's
/// view: a probe "differs" when its outcome class changes or both
/// computed a result with different output fingerprints.
bool differs(const RunOutcome &O, const RunOutcome &Ref) {
  if (O.Status != Ref.Status)
    return true;
  return O.ok() && Ref.ok() && O.OutputHash != Ref.OutputHash;
}

/// The AST feature multiset the cluster signature is built from:
/// binary/unary operator spellings, builtin names and statement
/// kinds. Cheap, printer-independent and stable across structurally
/// different witnesses of the same defect.
std::map<std::string, int64_t> featureCounts(const ASTContext &Ctx) {
  std::map<std::string, int64_t> Counts;
  for (const FunctionDecl *F : Ctx.program().functions()) {
    if (!F->getBody())
      continue;
    forEachExpr(F->getBody(), [&](const Expr *E) {
      if (const auto *B = dyn_cast<BinaryExpr>(E))
        ++Counts[std::string("b:") + binOpSpelling(B->getOp())];
      else if (const auto *U = dyn_cast<UnaryExpr>(E))
        ++Counts[std::string("u:") + unOpSpelling(U->getOp())];
      else if (const auto *C = dyn_cast<BuiltinCallExpr>(E))
        ++Counts[std::string("c:") + builtinName(C->getBuiltin())];
    });
    forEachStmt(F->getBody(), [&](const Stmt *S) {
      ++Counts["s:" +
               std::to_string(static_cast<int>(S->getKind()))];
    });
  }
  return Counts;
}

/// Parses and checks \p Witness into \p Ctx; false on any diagnostic
/// (reduced witnesses always parse — this guards hand-fed input).
bool parseWitness(const TestCase &Witness, ASTContext &Ctx) {
  DiagEngine Diags;
  return parseProgram(Witness.Source, Ctx, Diags) &&
         checkProgram(Ctx, Diags);
}

/// One probe dispatcher over the reducer's exact backend idiom:
/// column-grouped, on the scheduler's backend when it shares one.
class ProbeRunner {
public:
  ProbeRunner(const ReducerOptions &Opts) {
    Backend = Opts.Backend;
    if (!Backend) {
      Owned = makeBackend(Opts.Exec);
      Backend = Owned.get();
    }
  }

  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) {
    return Backend->runColumns(groupIntoColumns(Jobs));
  }

private:
  ExecBackend *Backend = nullptr;
  std::unique_ptr<ExecBackend> Owned;
};

} // namespace

TriageResult clfuzz::triageWitness(const TestCase &Witness,
                                   const DeviceConfig &Config, bool Opt,
                                   const ReducerOptions &Opts) {
  TriageResult R;

  // Pipeline names come from the same derivation the driver compiles
  // with, so bit I of PassMask is pipeline position I on any backend.
  ASTContext Ctx;
  if (!parseWitness(Witness, Ctx)) {
    R.Error = "witness does not parse";
    bump(Counter::TriageWitnesses);
    return R;
  }
  PassOptions PO = passPipelineOptionsFor(Config, Opt, Witness);
  R.PipelinePasses = buildPipeline(PO, Ctx).passNames();
  const unsigned N = static_cast<unsigned>(R.PipelinePasses.size());

  ProbeRunner Runner(Opts);
  // Probe 1+2, one batch: the reference and the full pipeline. The
  // full-mask settings are the hunt's own (PassMask default), so this
  // probe's descriptor equals the campaign's original cell — a cache
  // hit on a warmed cache.
  std::vector<ExecJob> Initial;
  Initial.push_back(ExecJob::onReference(Witness, /*Opt=*/false, Opts.Run));
  Initial.push_back(ExecJob::onConfig(Witness, Config, Opt, Opts.Run));
  std::vector<RunOutcome> Outs = Runner.run(Initial);
  const RunOutcome Ref = Outs[0];
  const RunOutcome Full = Outs[1];

  // Memoized subset probes, keyed by logical mask. Probe counting is
  // over distinct masks (full mask and reference included), so the
  // reported count never depends on backend or cache state.
  std::map<uint64_t, RunOutcome> Memo;
  const uint64_t FullMask = N >= 64 ? ~uint64_t(0)
                                    : ((uint64_t(1) << N) - 1);
  Memo[FullMask] = Full;
  auto Probe = [&](uint64_t Mask) -> const RunOutcome & {
    auto It = Memo.find(Mask);
    if (It != Memo.end())
      return It->second;
    RunSettings S = Opts.Run;
    S.PassMask = Mask;
    std::vector<ExecJob> Jobs{ExecJob::onConfig(Witness, Config, Opt, S)};
    RunOutcome O = Runner.run(Jobs)[0];
    return Memo.emplace(Mask, O).first->second;
  };
  auto ChargeAndReturn = [&]() -> TriageResult & {
    R.Probes = static_cast<unsigned>(Memo.size()) + 1; // + the reference
    bump(Counter::TriageWitnesses);
    bump(Counter::TriageProbes, R.Probes);
    return R;
  };

  if (!differs(Full, Ref)) {
    R.Error = "witness does not reproduce on its configuration";
    return ChargeAndReturn();
  }
  R.Reproduced = true;

  // Attribution: if the divergence survives with every pass disabled,
  // the bug lives in the front end, codegen or runtime model, and the
  // cluster key is feature-only.
  if (N == 0 || differs(Probe(0), Ref)) {
    R.BugInPasses = false;
    Fnv64 H;
    for (const auto &KV : featureCounts(Ctx))
      H.addString(KV.first);
    R.Signature = H.value();
    R.ClusterKey = "nonpass/" + toHex(R.Signature);
    return ChargeAndReturn();
  }
  R.BugInPasses = true;

  // Greedy leave-one-out to a fixpoint: drop any pass whose removal
  // keeps the divergence, until no single removal does. The result is
  // 1-minimal — removing any member restores the reference output —
  // and deterministic (ascending position order, memoized probes).
  uint64_t Cur = FullMask;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 0; I != N; ++I) {
      uint64_t Bit = uint64_t(1) << I;
      if (!(Cur & Bit))
        continue;
      uint64_t Trial = Cur & ~Bit;
      if (differs(Probe(Trial), Ref)) {
        Cur = Trial;
        Changed = true;
      }
    }
  }
  for (unsigned I = 0; I != N; ++I)
    if (Cur & (uint64_t(1) << I))
      R.FaultyPasses.push_back(R.PipelinePasses[I]);

  // Pass-effect signature: the witness's AST feature multiset before
  // vs after running ONLY the minimal faulty set, reduced to
  // delta-signs so the same defect leaves the same footprint whatever
  // the witness's surroundings (e.g. break-on-shift is always
  // {safe_lshift down, safe_rshift up}).
  std::map<std::string, int64_t> Before = featureCounts(Ctx);
  ASTContext AfterCtx;
  std::map<std::string, int64_t> After;
  if (parseWitness(Witness, AfterCtx)) {
    PassManager PM = buildPipeline(PO, AfterCtx);
    PM.run(AfterCtx, Cur);
    After = featureCounts(AfterCtx);
  }
  std::map<std::string, int64_t> Delta = After;
  for (const auto &KV : Before)
    Delta[KV.first] -= KV.second;
  Fnv64 H;
  for (const auto &KV : Delta) {
    if (KV.second == 0)
      continue;
    H.addString(KV.first);
    H.addByte(KV.second > 0 ? 1 : 2);
  }
  R.Signature = H.value();
  R.ClusterKey = join(R.FaultyPasses, "+") + "/" + toHex(R.Signature);
  return ChargeAndReturn();
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

std::string clfuzz::renderTriageLine(const TriageResult &R) {
  if (!R.Error.empty())
    return "triage: " + R.Error + " (" + std::to_string(R.Probes) +
           " probes)";
  if (!R.BugInPasses)
    return "triage: fault outside the pass pipeline; cluster " +
           R.ClusterKey + " (" + std::to_string(R.Probes) + " probes)";
  return "triage: minimal faulty passes {" + join(R.FaultyPasses, ", ") +
         "} of " + std::to_string(R.PipelinePasses.size()) +
         "-pass pipeline; cluster " + R.ClusterKey + " (" +
         std::to_string(R.Probes) + " probes)";
}

namespace {

const char *triageStatus(const TriageResult &R) {
  if (!R.Error.empty())
    return "error";
  return R.BugInPasses ? "pass-bug" : "non-pass";
}

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  Out += '"';
}

} // namespace

std::string clfuzz::triageCsvHeader() {
  return "label,status,faulty_passes,pipeline_size,probes,signature,"
         "cluster\n";
}

std::string clfuzz::renderTriageCsvRow(const std::string &Label,
                                       const TriageResult &R) {
  std::string Row = Label;
  Row += ',';
  Row += triageStatus(R);
  Row += ',';
  Row += join(R.FaultyPasses, "+");
  Row += ',';
  Row += std::to_string(R.PipelinePasses.size());
  Row += ',';
  Row += std::to_string(R.Probes);
  Row += ',';
  Row += R.Error.empty() ? toHex(R.Signature) : std::string();
  Row += ',';
  Row += R.ClusterKey;
  Row += '\n';
  return Row;
}

std::string clfuzz::renderTriageJsonl(const std::string &Label,
                                      const TriageResult &R) {
  std::string L = "{\"label\":";
  appendJsonString(L, Label);
  L += ",\"status\":\"";
  L += triageStatus(R);
  L += "\"";
  if (!R.Error.empty()) {
    L += ",\"error\":";
    appendJsonString(L, R.Error);
  }
  L += ",\"faulty_passes\":[";
  for (size_t I = 0; I != R.FaultyPasses.size(); ++I) {
    if (I)
      L += ',';
    appendJsonString(L, R.FaultyPasses[I]);
  }
  L += "],\"pipeline_size\":" + std::to_string(R.PipelinePasses.size());
  L += ",\"probes\":" + std::to_string(R.Probes);
  if (R.Error.empty()) {
    L += ",\"signature\":";
    appendJsonString(L, toHex(R.Signature));
    L += ",\"cluster\":";
    appendJsonString(L, R.ClusterKey);
  }
  L += "}\n";
  return L;
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TriageCounters clfuzz::triageCounters() {
  return {counterValue(Counter::TriageWitnesses),
          counterValue(Counter::TriageProbes),
          counterValue(Counter::TriageClusters)};
}
