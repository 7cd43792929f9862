//===- CompilePipelineConformanceTest.cpp - Parse-once identity ----------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The parse-once/clone-per-cell front end (docs/compile-pipeline.md)
// is only admissible because it is observationally invisible: a cell
// compiled from a column's shared front end must produce byte for
// byte the outcome of the same cell run on its own (runExecJob), which
// parses and checks its source afresh — the path of every batch that
// is not a column (the generator prefilter, EMI base probes). This
// suite pins that contract over every registry configuration at both
// opt levels: clone structural identity via re-printing, the
// admission rule cell by cell, columns against fresh parses ×
// {inline, threads, procs} × {cache off, mem}, the Table 1/4/5
// campaign cubes and the reducer — and the per-phase compile
// profiler's arithmetic (one parse per column, one clone per
// optimising cell, phase times sum exactly to the total).
//
//===----------------------------------------------------------------------===//

#include "device/CompileCounters.h"
#include "device/DeviceConfig.h"
#include "device/Driver.h"
#include "exec/ExecBackend.h"
#include "exec/OutcomeCache.h"
#include "exec/Pipeline.h"
#include "exec/ResultSink.h"
#include "exec/TestSource.h"
#include "gen/Generator.h"
#include "minicl/AST.h"
#include "minicl/ASTClone.h"
#include "minicl/Parser.h"
#include "minicl/Printer.h"
#include "minicl/Sema.h"
#include "oracle/Campaign.h"
#include "oracle/Oracle.h"
#include "oracle/Reducer.h"
#include "support/Diag.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace clfuzz;

namespace {

/// Runs every cell on its own (InlineBackend::run, one runExecJob per
/// cell), so each one parses and checks its source: the reference the
/// shared front end must match. runColumns is the base class's
/// flatten-and-run().
class FreshParseBackend final : public ExecBackend {
public:
  BackendKind kind() const override { return BackendKind::Inline; }
  unsigned concurrency() const override { return 1; }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override {
    return InlineBackend().run(Jobs);
  }
};

GeneratedKernel generate(GenMode Mode, uint64_t Seed,
                         unsigned EmiBlocks = 0) {
  GenOptions GO;
  GO.Mode = Mode;
  GO.Seed = Seed;
  GO.NumEmiBlocks = EmiBlocks;
  return generateKernel(GO);
}

/// The column workload the identity and counter tests share: per
/// kernel, the reference run at both opt levels and every registry
/// configuration at both opt levels, and EMI kernels add the
/// InvertDead placement probe (§7.4).
struct Workload {
  std::vector<TestCase> Tests;
  std::vector<DeviceConfig> Configs = buildConfigRegistry();
  std::vector<ExecJob> Jobs;
};

Workload buildWorkload() {
  Workload W;
  W.Tests.push_back(TestCase::fromGenerated(generate(GenMode::All, 7)));
  W.Tests.push_back(TestCase::fromGenerated(generate(GenMode::Barrier, 5)));
  W.Tests.push_back(
      TestCase::fromGenerated(generate(GenMode::All, 11, /*EmiBlocks=*/2)));
  for (size_t T = 0; T != W.Tests.size(); ++T) {
    RunSettings S;
    W.Jobs.push_back(ExecJob::onReference(W.Tests[T], false, S));
    W.Jobs.push_back(ExecJob::onReference(W.Tests[T], true, S));
    for (const DeviceConfig &C : W.Configs) {
      W.Jobs.push_back(ExecJob::onConfig(W.Tests[T], C, false, S));
      W.Jobs.push_back(ExecJob::onConfig(W.Tests[T], C, true, S));
      if (T == 2) {
        RunSettings Inv;
        Inv.InvertDead = true;
        W.Jobs.push_back(ExecJob::onReference(W.Tests[T], false, Inv));
        W.Jobs.push_back(ExecJob::onConfig(W.Tests[T], C, true, Inv));
      }
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

std::vector<RunOutcome> runFreshParse(const std::vector<ExecJob> &Jobs) {
  return FreshParseBackend().runColumns(groupIntoColumns(Jobs));
}

/// Records every outcome of a campaign, test by test.
class RecordingSink final : public ResultSink {
public:
  void consumeTest(size_t, const TestCase &,
                   const std::vector<RunOutcome> &Outcomes) override {
    All.insert(All.end(), Outcomes.begin(), Outcomes.end());
  }
  std::vector<RunOutcome> All;
};

/// One mode of the differential cube over \p Configs, streamed the way
/// runDifferentialCampaign streams it, on \p Backend: every cell's
/// outcome, test by test in cellKeys() order.
std::vector<RunOutcome> cubeOutcomes(const std::vector<DeviceConfig> &Configs,
                                     GenMode Mode, const CampaignSettings &S,
                                     ExecBackend &Backend) {
  const DeviceConfig *Config1 = nullptr;
  for (const DeviceConfig &C : Configs)
    if (C.Id == 1)
      Config1 = &C;
  GeneratorSource Source(Mode, S.BaseGen,
                         S.SeedBase + static_cast<uint64_t>(Mode) * 1000003ULL,
                         S.KernelsPerMode, S.PrefilterOnConfig1, Config1,
                         S.Run, Backend);
  RecordingSink Sink;
  runShardedCampaign(Source, Backend, S.Exec.resolvedShardSize(),
                     cubeExpander(Configs, S.Run), Sink);
  return Sink.All;
}

/// Checks, mode by mode, that the shared front end and fresh parses
/// give every cube cell the same outcome, and that the driver's table
/// is the majority vote over the fresh-parse outcomes.
void expectCubeMatchesFreshParse(const std::vector<DeviceConfig> &Configs,
                                 const std::vector<GenMode> &Modes,
                                 const CampaignSettings &S) {
  std::vector<ModeTable> Driver = runDifferentialCampaign(Configs, Modes, S);
  ASSERT_EQ(Driver.size(), Modes.size());
  std::vector<ConfigKey> Keys = cellKeys(Configs);
  for (size_t M = 0; M != Modes.size(); ++M) {
    InlineBackend Inline;
    FreshParseBackend Fresh;
    std::vector<RunOutcome> Shared = cubeOutcomes(Configs, Modes[M], S, Inline);
    std::vector<RunOutcome> Parsed = cubeOutcomes(Configs, Modes[M], S, Fresh);
    std::string Ctx = genModeName(Modes[M]);
    expectSameOutcomes(Parsed, Shared, Ctx);

    ASSERT_EQ(Parsed.size(), Driver[M].NumTests * Keys.size()) << Ctx;
    std::map<ConfigKey, OutcomeCounts> Cells;
    for (size_t T = 0; T != Parsed.size(); T += Keys.size()) {
      std::vector<RunOutcome> Test(Parsed.begin() + T,
                                   Parsed.begin() + T + Keys.size());
      std::vector<Verdict> Verdicts = classifyAgainstMajority(Test);
      for (size_t I = 0; I != Keys.size(); ++I)
        Cells[Keys[I]].add(Verdicts[I]);
    }
    ASSERT_EQ(Driver[M].Cells.size(), Cells.size()) << Ctx;
    for (const auto &[Key, Got] : Driver[M].Cells) {
      const OutcomeCounts &Want = Cells[Key];
      std::string Cell = Ctx + " " + cellLabel(Key);
      EXPECT_EQ(Got.W, Want.W) << Cell;
      EXPECT_EQ(Got.BF, Want.BF) << Cell;
      EXPECT_EQ(Got.C, Want.C) << Cell;
      EXPECT_EQ(Got.TO, Want.TO) << Cell;
      EXPECT_EQ(Got.Pass, Want.Pass) << Cell;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Admission rule
//===----------------------------------------------------------------------===//

TEST(CompilePipelineTest, AdmissionRuleMatchesFreshParse) {
  // Reference runs: the clean bug model's pipeline is empty exactly
  // when the optimiser is off.
  EXPECT_EQ(frontEndUseFor(nullptr, false), FrontEndUse::ReadShared);
  EXPECT_EQ(frontEndUseFor(nullptr, true), FrontEndUse::ClonePrivate);

  // Cell by cell across the zoo: a two-cell column parses once and
  // clones for each cell exactly when the rule says so; a one-cell
  // column takes the fresh-parse path, as the same cell run on its own
  // does, so it parses once and never clones; all run the optimiser
  // alike per cell, and all give the same outcome.
  TestCase T = TestCase::fromGenerated(generate(GenMode::All, 7));
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  for (const DeviceConfig &C : Registry)
    for (bool Opt : {false, true}) {
      std::string Ctx = "config " + std::to_string(C.Id) +
                        (Opt ? "+" : "-");
      ExecJob J = ExecJob::onConfig(T, C, Opt, RunSettings());
      bool Clones = frontEndUseFor(&C, Opt) == FrontEndUse::ClonePrivate;

      CompileCounters Before = compileCounters();
      std::vector<RunOutcome> Shared = runExecColumn(ExecColumn{{J, J}});
      CompileCounters Pair = compileCounters();
      std::vector<RunOutcome> Lone = runExecColumn(ExecColumn{{J}});
      CompileCounters Mid = compileCounters();
      std::vector<RunOutcome> Parsed = {runExecJob(J)};
      CompileCounters After = compileCounters();

      expectSameOutcomes(Parsed, {Shared[0]}, Ctx);
      expectSameOutcomes(Parsed, {Shared[1]}, Ctx);
      expectSameOutcomes(Parsed, Lone, Ctx);
      EXPECT_EQ(Pair.Parses - Before.Parses, 1u) << Ctx;
      EXPECT_EQ(Pair.Clones - Before.Clones, Clones ? 2u : 0u) << Ctx;
      EXPECT_EQ(Mid.Parses - Pair.Parses, 1u) << Ctx;
      EXPECT_EQ(Mid.Clones - Pair.Clones, 0u) << Ctx;
      EXPECT_EQ(After.Parses - Mid.Parses, 1u) << Ctx;
      EXPECT_EQ(After.Clones - Mid.Clones, 0u) << Ctx;
      EXPECT_EQ(After.Opts - Mid.Opts, Mid.Opts - Pair.Opts) << Ctx;
      EXPECT_EQ(Pair.Opts - Before.Opts, 2 * (After.Opts - Mid.Opts)) << Ctx;
    }
}

//===----------------------------------------------------------------------===//
// Clone structural identity
//===----------------------------------------------------------------------===//

TEST(CompilePipelineTest, CloneReprintsIdentically) {
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

TEST(CompilePipelineTest, CloneIsIndependentOfItsSource) {
  // Running the optimiser over the clone must leave the source AST
  // untouched — the property that lets one shared front end feed every
  // cell of a column.
  GeneratedKernel K = generate(GenMode::All, 3);
  auto Src = std::make_unique<ASTContext>();
  DiagEngine Diags;
  ASSERT_TRUE(parseProgram(K.Source, *Src, Diags));
  ASSERT_TRUE(checkProgram(*Src, Diags));
  std::string Original = printProgram(Src->program(), Src->types());

  TestCase T = TestCase::fromGenerated(K);
  // The optimised reference compile clones the shared front end and
  // mutates only its private copy.
  TestFrontEnd FE(T);
  ASSERT_TRUE(FE.ok());
  RunOutcome O = runTestOnReference(T, /*Optimize=*/true, RunSettings(), &FE);
  EXPECT_EQ(O.Status, RunStatus::Ok);
  // The shared front end still prints as parsed.
  EXPECT_EQ(Original,
            printProgram(FE.context().program(), FE.context().types()));
}

//===----------------------------------------------------------------------===//
// Column byte-identity: shared front end against fresh parses ×
// backend × cache
//===----------------------------------------------------------------------===//

TEST(CompilePipelineTest, ColumnsIdenticalToFreshParseAcrossBackendAndCache) {
  Workload W = buildWorkload();
  std::vector<RunOutcome> Reference = runFreshParse(W.Jobs);

  struct Case {
    BackendKind Kind;
    unsigned Threads;
    bool MemCache;
    const char *Name;
  };
  const Case Cases[] = {
      {BackendKind::Inline, 1, false, "inline"},
      {BackendKind::Threads, 3, false, "threads3"},
      {BackendKind::Procs, 2, false, "procs2"},
      {BackendKind::Inline, 1, true, "inline/mem"},
      {BackendKind::Threads, 2, true, "threads2/mem"},
  };
  for (const Case &C : Cases)
    expectSameOutcomes(Reference,
                       runWorkload(W, C.Kind, C.Threads, C.MemCache),
                       C.Name);
}

//===----------------------------------------------------------------------===//
// Campaign cubes (Tables 1, 4, 5) and the reducer
//===----------------------------------------------------------------------===//

TEST(CompilePipelineTest, Table1ClassificationIdentical) {
  // Table 1's cube: every configuration, all six modes, unfiltered.
  CampaignSettings S;
  S.KernelsPerMode = 2;
  S.PrefilterOnConfig1 = false;
  expectCubeMatchesFreshParse(
      buildConfigRegistry(),
      {GenMode::Basic, GenMode::Vector, GenMode::Barrier,
       GenMode::AtomicSection, GenMode::AtomicReduction, GenMode::All},
      S);
}

TEST(CompilePipelineTest, Table4DifferentialCampaignIdentical) {
  // Table 4's cube, prefiltered on configuration 1, over every
  // configuration rather than only the above-threshold ones.
  CampaignSettings S;
  S.KernelsPerMode = 3;
  expectCubeMatchesFreshParse(buildConfigRegistry(),
                              {GenMode::Basic, GenMode::Barrier}, S);
}

TEST(CompilePipelineTest, Table5EmiCampaignIdentical) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  // One base's 40-variant sweep: the fresh-parse reference launches
  // every cell, with no launch memo.
  EmiCampaignSettings S;
  S.NumBases = 1;

  auto Run = [&](ExecBackend &Backend, unsigned &Usable) {
    EmiCampaignRun R(Registry, S, Backend, S.Base.Exec.resolvedShardSize());
    while (R.step())
      ;
    Usable = R.usableBases();
    return R.columns();
  };
  InlineBackend Columns;
  FreshParseBackend Fresh;
  unsigned UsableShared = 0, UsableParsed = 0;
  std::vector<EmiCampaignColumn> Shared = Run(Columns, UsableShared);
  std::vector<EmiCampaignColumn> Parsed = Run(Fresh, UsableParsed);

  EXPECT_EQ(UsableShared, UsableParsed);
  ASSERT_EQ(Shared.size(), 2 * Registry.size());
  ASSERT_EQ(Shared.size(), Parsed.size());
  for (size_t I = 0; I != Shared.size(); ++I) {
    EXPECT_EQ(Shared[I].Key.ConfigId, Parsed[I].Key.ConfigId);
    EXPECT_EQ(Shared[I].Key.Opt, Parsed[I].Key.Opt);
    EXPECT_EQ(Shared[I].BaseFails, Parsed[I].BaseFails);
    EXPECT_EQ(Shared[I].Wrong, Parsed[I].Wrong);
    EXPECT_EQ(Shared[I].InducedBF, Parsed[I].InducedBF);
    EXPECT_EQ(Shared[I].InducedCrash, Parsed[I].InducedCrash);
    EXPECT_EQ(Shared[I].InducedTimeout, Parsed[I].InducedTimeout);
    EXPECT_EQ(Shared[I].Stable, Parsed[I].Stable);
  }
}

TEST(CompilePipelineTest, ReductionIdenticalToFreshParseAcrossBackend) {
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
  auto Reduce = [&](ReducerOptions Opts) {
    Run R;
    Opts.Trace = [&R](const ReduceTraceEvent &E) {
      R.Trace += renderReduceTraceJsonl(E);
    };
    ReduceStats Stats;
    R.Source = reduceTest(Witness, Oracle, Opts, &Stats).Source;
    R.Tried = Stats.CandidatesTried;
    R.Rounds = Stats.Rounds;
    return R;
  };

  FreshParseBackend Fresh;
  ReducerOptions FreshOpts;
  FreshOpts.Backend = &Fresh;
  Run Reference = Reduce(FreshOpts);
  EXPECT_GT(Reference.Tried, 0u);
  for (auto [Kind, Threads] :
       {std::pair{BackendKind::Inline, 1u},
        std::pair{BackendKind::Threads, 2u},
        std::pair{BackendKind::Procs, 2u}}) {
    ReducerOptions Opts;
    Opts.Exec = ExecOptions::withBackend(Kind, Threads);
    Run R = Reduce(Opts);
    const char *Ctx = backendKindName(Kind);
    EXPECT_EQ(Reference.Source, R.Source) << Ctx;
    EXPECT_EQ(Reference.Trace, R.Trace) << Ctx;
    EXPECT_EQ(Reference.Tried, R.Tried) << Ctx;
    EXPECT_EQ(Reference.Rounds, R.Rounds) << Ctx;
  }
}

//===----------------------------------------------------------------------===//
// The per-phase compile profiler
//===----------------------------------------------------------------------===//

TEST(CompilePipelineTest, CountersMatchAdmissionArithmetic) {
  Workload W = buildWorkload();

  // Expected phase counts from the admission rule alone: in columns,
  // each column parses once and every non-empty-pipeline cell clones;
  // run on its own, every cell parses and none clones.
  size_t CloneCells = 0;
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
  uint64_t OptsShared = After.Opts - Before.Opts;
  EXPECT_LE(OptsShared, CloneCells);
  EXPECT_GT(OptsShared, 0u);
  uint64_t Launches = VmAfter.Launches - VmBefore.Launches;

  // Three columns on four lanes: idle lanes steal cells of the busy
  // columns. A stolen cell still reads its column's one front end and
  // launch memo, so every repeat counts exactly what inline counted.
  for (int Repeat = 0; Repeat != 5; ++Repeat) {
    std::string Ctx = "threads(4) repeat " + std::to_string(Repeat);
    CompileCounters T0 = compileCounters();
    VmCounters V0 = vmCounters();
    runWorkload(W, BackendKind::Threads, 4, /*MemCache=*/false);
    CompileCounters T1 = compileCounters();
    VmCounters V1 = vmCounters();
    EXPECT_EQ(T1.Parses - T0.Parses, Columns) << Ctx;
    EXPECT_EQ(T1.Semas - T0.Semas, Columns) << Ctx;
    EXPECT_EQ(T1.Clones - T0.Clones, CloneCells) << Ctx;
    EXPECT_EQ(T1.Opts - T0.Opts, OptsShared) << Ctx;
    EXPECT_EQ(V1.Launches - V0.Launches, Launches) << Ctx;
    EXPECT_EQ(V1.MemoHits - V0.MemoHits, MemoHits) << Ctx;
  }

  Before = compileCounters();
  VmBefore = vmCounters();
  runFreshParse(W.Jobs);
  After = compileCounters();
  VmAfter = vmCounters();

  EXPECT_EQ(After.Clones - Before.Clones, 0u);
  EXPECT_EQ(After.Parses - Before.Parses, W.Jobs.size());
  EXPECT_EQ(VmAfter.MemoHits - VmBefore.MemoHits, 0u);
  // Sharing the front end must not change which cells run the
  // optimiser.
  EXPECT_EQ(After.Opts - Before.Opts, OptsShared);
}

TEST(CompilePipelineTest, PhaseTimesSumToTotal) {
  Workload W = buildWorkload();
  runWorkload(W, BackendKind::Inline, 1, /*MemCache=*/false);
  CompileCounters C = compileCounters();
  EXPECT_EQ(C.totalNs(), C.ParseNs + C.SemaNs + C.CloneNs + C.OptNs +
                             C.CodegenNs + C.ExecNs);
  EXPECT_GT(C.Parses, 0u);
  EXPECT_GT(C.Execs, 0u);
}
