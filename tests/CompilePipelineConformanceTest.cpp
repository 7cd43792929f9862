//===- CompilePipelineConformanceTest.cpp - Clone-don't-reparse identity -----===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The parse-once/clone-per-cell front end (docs/compile-pipeline.md)
// is only admissible because it is observationally invisible: a cell
// compiled from a cloned AST must produce byte-for-byte the outcome a
// per-cell re-parse produces, for every backend, worker count, cache
// state and campaign shape. This suite pins that contract — clone
// structural identity via re-printing, column byte-identity across
// clone on/off × {inline, threads, procs} × {cache off, mem}, the
// Table 1/4/5 campaign drivers and the reducer under both modes — and
// the per-phase compile profiler's sanity (clone count equals the
// optimising-cell count, phase times sum exactly to the total).
//
//===----------------------------------------------------------------------===//

#include "device/CompileCounters.h"
#include "device/DeviceConfig.h"
#include "device/Driver.h"
#include "exec/ExecBackend.h"
#include "exec/OutcomeCache.h"
#include "gen/Generator.h"
#include "minicl/AST.h"
#include "minicl/ASTClone.h"
#include "minicl/Parser.h"
#include "minicl/Printer.h"
#include "minicl/Sema.h"
#include "oracle/Campaign.h"
#include "oracle/Reducer.h"
#include "support/Diag.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace clfuzz;

namespace {

/// Saves and restores the process-wide clone toggle so a failing
/// assertion cannot leak a mode into unrelated tests.
class CompilePipelineTest : public ::testing::Test {
protected:
  void SetUp() override { SavedClone = compileCloneEnabled(); }
  void TearDown() override { setCompileCloneEnabled(SavedClone); }

private:
  bool SavedClone = true;
};

GeneratedKernel generate(GenMode Mode, uint64_t Seed,
                         unsigned EmiBlocks = 0) {
  GenOptions GO;
  GO.Mode = Mode;
  GO.Seed = Seed;
  GO.NumEmiBlocks = EmiBlocks;
  return generateKernel(GO);
}

/// The column workload every identity test shares: per kernel, every
/// above-threshold configuration contributes the full Table-1 cell
/// set (shared reference run, configuration at both opt levels), and
/// EMI kernels add the InvertDead placement probe (§7.4).
struct Workload {
  std::vector<TestCase> Tests;
  std::vector<DeviceConfig> Columns;
  std::vector<ExecJob> Jobs;
};

Workload buildWorkload() {
  Workload W;
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  for (int Id : paperAboveThresholdIds())
    W.Columns.push_back(configById(Registry, Id));
  W.Tests.push_back(TestCase::fromGenerated(generate(GenMode::All, 7)));
  W.Tests.push_back(TestCase::fromGenerated(generate(GenMode::Barrier, 5)));
  W.Tests.push_back(
      TestCase::fromGenerated(generate(GenMode::All, 11, /*EmiBlocks=*/2)));
  for (size_t T = 0; T != W.Tests.size(); ++T)
    for (const DeviceConfig &C : W.Columns) {
      RunSettings S;
      W.Jobs.push_back(ExecJob::onReference(W.Tests[T], false, S));
      W.Jobs.push_back(ExecJob::onConfig(W.Tests[T], C, false, S));
      W.Jobs.push_back(ExecJob::onConfig(W.Tests[T], C, true, S));
      if (T == 2) {
        RunSettings Inv;
        Inv.InvertDead = true;
        W.Jobs.push_back(ExecJob::onReference(W.Tests[T], false, Inv));
        W.Jobs.push_back(ExecJob::onConfig(W.Tests[T], C, true, Inv));
      }
    }
  return W;
}

void expectSameOutcomes(const std::vector<RunOutcome> &A,
                        const std::vector<RunOutcome> &B,
                        const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Status, B[I].Status) << Ctx << " cell " << I;
    EXPECT_EQ(A[I].Message, B[I].Message) << Ctx << " cell " << I;
    EXPECT_EQ(A[I].OutputHash, B[I].OutputHash) << Ctx << " cell " << I;
    EXPECT_EQ(A[I].OutputHead, B[I].OutputHead) << Ctx << " cell " << I;
    EXPECT_EQ(A[I].Steps, B[I].Steps) << Ctx << " cell " << I;
    EXPECT_EQ(A[I].RaceFound, B[I].RaceFound) << Ctx << " cell " << I;
    EXPECT_EQ(A[I].RaceMessage, B[I].RaceMessage) << Ctx << " cell " << I;
  }
}

std::vector<RunOutcome> runWorkload(const Workload &W, BackendKind Kind,
                                    unsigned Threads, bool MemCache) {
  ExecOptions E = ExecOptions::withBackend(Kind, Threads);
  if (MemCache) {
    OutcomeCacheOptions CO;
    CO.Mode = CacheMode::Mem;
    E.Cache = makeOutcomeCache(CO);
  }
  std::unique_ptr<ExecBackend> Backend = makeBackend(E);
  return Backend->runColumns(groupIntoColumns(W.Jobs));
}

} // namespace

//===----------------------------------------------------------------------===//
// Admission rule
//===----------------------------------------------------------------------===//

TEST_F(CompilePipelineTest, AdmissionRuleMatchesToggle) {
  // Reference runs: the clean bug model's pipeline is empty exactly
  // when the optimiser is off.
  setCompileCloneEnabled(true);
  EXPECT_EQ(frontEndUseFor(nullptr, false), FrontEndUse::ReadShared);
  EXPECT_EQ(frontEndUseFor(nullptr, true), FrontEndUse::ClonePrivate);
  setCompileCloneEnabled(false);
  EXPECT_EQ(frontEndUseFor(nullptr, false), FrontEndUse::ReadShared);
  EXPECT_EQ(frontEndUseFor(nullptr, true), FrontEndUse::Reparse);

  // Across the zoo: the toggle only ever converts ClonePrivate cells
  // to Reparse — pass-free cells read the shared AST either way, so
  // turning the clone off never admits or evicts a shared reader.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  for (const DeviceConfig &C : Registry)
    for (bool Opt : {false, true}) {
      setCompileCloneEnabled(true);
      FrontEndUse On = frontEndUseFor(&C, Opt);
      EXPECT_NE(On, FrontEndUse::Reparse);
      setCompileCloneEnabled(false);
      FrontEndUse Off = frontEndUseFor(&C, Opt);
      if (On == FrontEndUse::ReadShared)
        EXPECT_EQ(Off, FrontEndUse::ReadShared) << C.Id;
      else
        EXPECT_EQ(Off, FrontEndUse::Reparse) << C.Id;
    }
}

//===----------------------------------------------------------------------===//
// Clone structural identity
//===----------------------------------------------------------------------===//

TEST_F(CompilePipelineTest, CloneReprintsIdentically) {
  // A clone is structurally identical to its source exactly when both
  // print to the same bytes — the printer covers every node kind,
  // type, qualifier and EMI annotation the generator can emit.
  struct Shape {
    GenMode Mode;
    uint64_t Seed;
    unsigned EmiBlocks;
  };
  const Shape Shapes[] = {{GenMode::All, 3, 0},
                          {GenMode::Basic, 17, 0},
                          {GenMode::Vector, 29, 0},
                          {GenMode::Barrier, 41, 0},
                          {GenMode::All, 53, 3}};
  for (const Shape &Sh : Shapes) {
    GeneratedKernel K = generate(Sh.Mode, Sh.Seed, Sh.EmiBlocks);
    auto Src = std::make_unique<ASTContext>();
    DiagEngine Diags;
    ASSERT_TRUE(parseProgram(K.Source, *Src, Diags)) << Diags.str();
    ASSERT_TRUE(checkProgram(*Src, Diags)) << Diags.str();
    std::string Original = printProgram(Src->program(), Src->types());

    std::unique_ptr<ASTContext> Copy = cloneContext(*Src);
    EXPECT_EQ(Original, printProgram(Copy->program(), Copy->types()))
        << K.Source;

    // Clone of a clone: catches state the first clone forgot to carry
    // (flags, EMI ids, record completeness) that only shows up when
    // the copy itself is used as a source.
    std::unique_ptr<ASTContext> Copy2 = cloneContext(*Copy);
    EXPECT_EQ(Original, printProgram(Copy2->program(), Copy2->types()));
  }
}

TEST_F(CompilePipelineTest, CloneIsIndependentOfItsSource) {
  // Running the optimiser over the clone must leave the source AST
  // untouched — the property that lets one shared front end feed every
  // cell of a column.
  GeneratedKernel K = generate(GenMode::All, 3);
  auto Src = std::make_unique<ASTContext>();
  DiagEngine Diags;
  ASSERT_TRUE(parseProgram(K.Source, *Src, Diags));
  ASSERT_TRUE(checkProgram(*Src, Diags));
  std::string Original = printProgram(Src->program(), Src->types());

  std::unique_ptr<ASTContext> Copy = cloneContext(*Src);
  TestCase T = TestCase::fromGenerated(K);
  // Optimised reference compile mutates the clone through the driver
  // path (clone enabled, shared front end reused by value here).
  setCompileCloneEnabled(true);
  TestFrontEnd FE(T);
  ASSERT_TRUE(FE.ok());
  RunOutcome O = runTestOnReference(T, /*Optimize=*/true, RunSettings(), &FE);
  EXPECT_EQ(O.Status, RunStatus::Ok);
  // The shared front end still prints as parsed.
  EXPECT_EQ(Original,
            printProgram(FE.context().program(), FE.context().types()));
  (void)Copy;
}

//===----------------------------------------------------------------------===//
// Column byte-identity: clone on/off × backend × cache
//===----------------------------------------------------------------------===//

TEST_F(CompilePipelineTest, ColumnsIdenticalAcrossCloneBackendAndCache) {
  Workload W = buildWorkload();

  setCompileCloneEnabled(true);
  std::vector<RunOutcome> Reference =
      runWorkload(W, BackendKind::Inline, 1, /*MemCache=*/false);

  struct Case {
    bool Clone;
    BackendKind Kind;
    unsigned Threads;
    bool MemCache;
    const char *Name;
  };
  const Case Cases[] = {
      {false, BackendKind::Inline, 1, false, "off/inline"},
      {true, BackendKind::Threads, 3, false, "on/threads3"},
      {false, BackendKind::Threads, 3, false, "off/threads3"},
      {true, BackendKind::Procs, 2, false, "on/procs2"},
      {false, BackendKind::Procs, 2, false, "off/procs2"},
      {true, BackendKind::Inline, 1, true, "on/inline/mem"},
      {false, BackendKind::Inline, 1, true, "off/inline/mem"},
      {true, BackendKind::Threads, 2, true, "on/threads2/mem"},
  };
  for (const Case &C : Cases) {
    setCompileCloneEnabled(C.Clone);
    expectSameOutcomes(Reference,
                       runWorkload(W, C.Kind, C.Threads, C.MemCache),
                       C.Name);
  }
}

//===----------------------------------------------------------------------===//
// Campaign drivers (Tables 1, 4, 5) and the reducer
//===----------------------------------------------------------------------===//

TEST_F(CompilePipelineTest, Table1ClassificationIdentical) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  CampaignSettings S;
  S.KernelsPerMode = 2;

  setCompileCloneEnabled(true);
  std::vector<ReliabilityRow> On = classifyConfigurations(Registry, S);
  setCompileCloneEnabled(false);
  std::vector<ReliabilityRow> Off = classifyConfigurations(Registry, S);

  ASSERT_EQ(On.size(), Off.size());
  for (size_t I = 0; I != On.size(); ++I) {
    EXPECT_EQ(On[I].ConfigId, Off[I].ConfigId);
    EXPECT_EQ(On[I].AboveThreshold, Off[I].AboveThreshold);
    EXPECT_EQ(On[I].Counts.W, Off[I].Counts.W);
    EXPECT_EQ(On[I].Counts.BF, Off[I].Counts.BF);
    EXPECT_EQ(On[I].Counts.C, Off[I].Counts.C);
    EXPECT_EQ(On[I].Counts.TO, Off[I].Counts.TO);
    EXPECT_EQ(On[I].Counts.Pass, Off[I].Counts.Pass);
  }
}

TEST_F(CompilePipelineTest, Table4DifferentialCampaignIdentical) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Above;
  for (int Id : paperAboveThresholdIds())
    Above.push_back(configById(Registry, Id));
  CampaignSettings S;
  S.KernelsPerMode = 3;
  std::vector<GenMode> Modes = {GenMode::Basic, GenMode::Barrier};

  auto Run = [&] { return runDifferentialCampaign(Above, Modes, S); };
  setCompileCloneEnabled(true);
  std::vector<ModeTable> On = Run();
  setCompileCloneEnabled(false);
  std::vector<ModeTable> Off = Run();

  ASSERT_EQ(On.size(), Off.size());
  for (size_t I = 0; I != On.size(); ++I) {
    EXPECT_EQ(On[I].Mode, Off[I].Mode);
    EXPECT_EQ(On[I].NumTests, Off[I].NumTests);
    ASSERT_EQ(On[I].Cells.size(), Off[I].Cells.size());
    auto A = On[I].Cells.begin();
    auto B = Off[I].Cells.begin();
    for (; A != On[I].Cells.end(); ++A, ++B) {
      EXPECT_EQ(A->first.ConfigId, B->first.ConfigId);
      EXPECT_EQ(A->first.Opt, B->first.Opt);
      EXPECT_EQ(A->second.W, B->second.W);
      EXPECT_EQ(A->second.BF, B->second.BF);
      EXPECT_EQ(A->second.C, B->second.C);
      EXPECT_EQ(A->second.TO, B->second.TO);
      EXPECT_EQ(A->second.Pass, B->second.Pass);
    }
  }
}

TEST_F(CompilePipelineTest, Table5EmiCampaignIdentical) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Above;
  for (int Id : paperAboveThresholdIds())
    Above.push_back(configById(Registry, Id));
  EmiCampaignSettings S;
  S.NumBases = 2;
  S.Base.KernelsPerMode = 2;

  unsigned UsableOn = 0, UsableOff = 0;
  setCompileCloneEnabled(true);
  std::vector<EmiCampaignColumn> On = runEmiCampaign(Above, S, UsableOn);
  setCompileCloneEnabled(false);
  std::vector<EmiCampaignColumn> Off = runEmiCampaign(Above, S, UsableOff);

  EXPECT_EQ(UsableOn, UsableOff);
  ASSERT_EQ(On.size(), Off.size());
  for (size_t I = 0; I != On.size(); ++I) {
    EXPECT_EQ(On[I].Key.ConfigId, Off[I].Key.ConfigId);
    EXPECT_EQ(On[I].Key.Opt, Off[I].Key.Opt);
    EXPECT_EQ(On[I].BaseFails, Off[I].BaseFails);
    EXPECT_EQ(On[I].Wrong, Off[I].Wrong);
    EXPECT_EQ(On[I].InducedBF, Off[I].InducedBF);
    EXPECT_EQ(On[I].InducedCrash, Off[I].InducedCrash);
    EXPECT_EQ(On[I].InducedTimeout, Off[I].InducedTimeout);
    EXPECT_EQ(On[I].Stable, Off[I].Stable);
  }
}

TEST_F(CompilePipelineTest, ReductionIdenticalAcrossCloneAndBackend) {
  // The Figure 2(f) comma bug buried in unrelated statements — the
  // same witness ReducerConformanceTest pins across backends.
  TestCase Witness;
  Witness.Name = "padded comma bug";
  Witness.Source = "int helper(int v) { return v * 3 + 1; }\n"
                   "kernel void k(global ulong *out) {\n"
                   "  int noise0 = 11;\n"
                   "  int noise1 = helper(noise0);\n"
                   "  for (int i = 0; i < 4; i++) noise1 += i;\n"
                   "  if (noise1 > 100) { noise0 = 2; } else { noise0 = 3; }\n"
                   "  short x = 1; uint y;\n"
                   "  for (y = -1; y >= 1; ++y) { if (x , 1) break; }\n"
                   "  int noise2 = noise0 + noise1;\n"
                   "  noise2 = noise2 * 2;\n"
                   "  out[get_global_id(0)] = y;\n"
                   "}\n";
  Witness.Range.Global[0] = 1;
  Witness.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  Witness.Buffers.push_back(Out);

  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19),
                                     /*Opt=*/false);

  struct Run {
    std::string Source;
    std::string Trace;
    unsigned Tried = 0;
    unsigned Rounds = 0;
  };
  auto Reduce = [&](BackendKind Kind, unsigned Threads) {
    Run R;
    ReducerOptions Opts;
    Opts.Exec = ExecOptions::withBackend(Kind, Threads);
    Opts.Trace = [&R](const ReduceTraceEvent &E) {
      R.Trace += renderReduceTraceJsonl(E);
    };
    ReduceStats Stats;
    R.Source = reduceTest(Witness, Oracle, Opts, &Stats).Source;
    R.Tried = Stats.CandidatesTried;
    R.Rounds = Stats.Rounds;
    return R;
  };

  setCompileCloneEnabled(true);
  Run Reference = Reduce(BackendKind::Inline, 1);
  for (bool Clone : {true, false}) {
    setCompileCloneEnabled(Clone);
    for (auto [Kind, Threads] :
         {std::pair{BackendKind::Inline, 1u},
          std::pair{BackendKind::Threads, 2u},
          std::pair{BackendKind::Procs, 2u}}) {
      Run R = Reduce(Kind, Threads);
      std::string Ctx = std::string(Clone ? "on/" : "off/") +
                        backendKindName(Kind);
      EXPECT_EQ(Reference.Source, R.Source) << Ctx;
      EXPECT_EQ(Reference.Trace, R.Trace) << Ctx;
      EXPECT_EQ(Reference.Tried, R.Tried) << Ctx;
      EXPECT_EQ(Reference.Rounds, R.Rounds) << Ctx;
    }
  }
}

//===----------------------------------------------------------------------===//
// The per-phase compile profiler
//===----------------------------------------------------------------------===//

TEST_F(CompilePipelineTest, CountersMatchAdmissionArithmetic) {
  Workload W = buildWorkload();

  // Expected phase counts from the admission rule alone: with the
  // clone on, each column parses once and every non-empty-pipeline
  // cell clones; with it off, those cells re-parse instead.
  size_t CloneCells = 0;
  setCompileCloneEnabled(true);
  for (const ExecJob &J : W.Jobs)
    if (frontEndUseFor(J.Config, J.Opt) == FrontEndUse::ClonePrivate)
      ++CloneCells;
  size_t Columns = groupIntoColumns(W.Jobs).size();

  CompileCounters Before = compileCounters();
  VmCounters VmBefore = vmCounters();
  runWorkload(W, BackendKind::Inline, 1, /*MemCache=*/false);
  CompileCounters After = compileCounters();
  VmCounters VmAfter = vmCounters();

  // Every cell that reaches a launch is timed as one Exec sample and
  // either runs the VM or is replayed by its column's launch memo.
  uint64_t MemoHits = VmAfter.MemoHits - VmBefore.MemoHits;
  EXPECT_EQ(VmAfter.Launches - VmBefore.Launches + MemoHits,
            After.Execs - Before.Execs);
  EXPECT_GT(MemoHits, 0u);

  EXPECT_EQ(After.Parses - Before.Parses, Columns);
  EXPECT_EQ(After.Semas - Before.Semas, Columns);
  EXPECT_EQ(After.Clones - Before.Clones, CloneCells);
  // A cell the configuration's front-end checks reject clones but
  // never reaches the optimiser, so Opts is bounded by — not equal
  // to — the clone count.
  uint64_t OptsOn = After.Opts - Before.Opts;
  EXPECT_LE(OptsOn, CloneCells);
  EXPECT_GT(OptsOn, 0u);

  setCompileCloneEnabled(false);
  Before = compileCounters();
  runWorkload(W, BackendKind::Inline, 1, /*MemCache=*/false);
  After = compileCounters();

  EXPECT_EQ(After.Clones - Before.Clones, 0u);
  EXPECT_EQ(After.Parses - Before.Parses, Columns + CloneCells);
  // The toggle must not change which cells run the optimiser.
  EXPECT_EQ(After.Opts - Before.Opts, OptsOn);
}

TEST_F(CompilePipelineTest, PhaseTimesSumToTotal) {
  setCompileCloneEnabled(true);
  Workload W = buildWorkload();
  runWorkload(W, BackendKind::Inline, 1, /*MemCache=*/false);
  CompileCounters C = compileCounters();
  EXPECT_EQ(C.totalNs(), C.ParseNs + C.SemaNs + C.CloneNs + C.OptNs +
                             C.CodegenNs + C.ExecNs);
  EXPECT_GT(C.Parses, 0u);
  EXPECT_GT(C.Execs, 0u);
}
