//===- ReducerConformanceTest.cpp - Reducer backend conformance --------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Reduction is a pipeline workload, so it inherits the pipeline's
// contract: the backend choice is unobservable in results. This suite
// pins that the reduced source, every stat, and the full JSONL trace
// are bit-identical across inline / threads(1,2,8) / procs at any
// worker count - plus the properties only
// the reducer provides: crashy-witness reduction to completion under
// process isolation, multi-mutation escalation when single steps
// stall, and the dead-work cache that skips duplicate candidates.
//
//===----------------------------------------------------------------------===//

#include "device/DeviceConfig.h"
#include "oracle/Reducer.h"
#include "oracle/ReductionQueue.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

using namespace clfuzz;

namespace {

/// Every backend configuration a reduction must be identical on.
std::vector<ExecOptions> reducerMatrix() {
  std::vector<ExecOptions> Matrix;
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Inline));
  for (unsigned Threads : {1u, 2u, 8u})
    Matrix.push_back(ExecOptions::withBackend(BackendKind::Threads, Threads));
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Procs, 2));
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Procs, 5));
  return Matrix;
}

std::string describe(const ExecOptions &O) {
  return std::string(backendKindName(O.Backend)) + "/" +
         std::to_string(O.Threads) + "w";
}

TestCase paddedCommaBugKernel() {
  // The Figure 2(f) comma bug buried in unrelated statements.
  TestCase T;
  T.Name = "padded comma bug";
  T.Source = "int helper(int v) { return v * 3 + 1; }\n"
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
  T.Range.Global[0] = 1;
  T.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);
  return T;
}

/// A small single-kernel test case over one 8-byte output buffer.
TestCase kernelFromSource(const char *Name, std::string Source) {
  TestCase T;
  T.Name = Name;
  T.Source = std::move(Source);
  T.Range.Global[0] = 1;
  T.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);
  return T;
}

struct ReductionRun {
  TestCase Reduced;
  ReduceStats Stats;
  std::string Trace;
};

ReductionRun runReduction(const TestCase &Witness,
                          const ReductionOracle &Oracle, ExecOptions Exec,
                          unsigned MaxCandidates = 400) {
  ReductionRun R;
  ReducerOptions Opts;
  Opts.Exec = Exec;
  Opts.MaxCandidates = MaxCandidates;
  Opts.Trace = [&R](const ReduceTraceEvent &E) {
    R.Trace += renderReduceTraceJsonl(E);
  };
  R.Reduced = reduceTest(Witness, Oracle, Opts, &R.Stats);
  return R;
}

void expectSameRun(const ReductionRun &A, const ReductionRun &B,
                   const std::string &Ctx) {
  EXPECT_EQ(A.Reduced.Source, B.Reduced.Source) << Ctx;
  EXPECT_EQ(A.Stats.CandidatesTried, B.Stats.CandidatesTried) << Ctx;
  EXPECT_EQ(A.Stats.CandidatesKept, B.Stats.CandidatesKept) << Ctx;
  EXPECT_EQ(A.Stats.CandidatesSkipped, B.Stats.CandidatesSkipped) << Ctx;
  EXPECT_EQ(A.Stats.Rounds, B.Stats.Rounds) << Ctx;
  EXPECT_EQ(A.Stats.Escalations, B.Stats.Escalations) << Ctx;
  EXPECT_EQ(A.Stats.InitialLines, B.Stats.InitialLines) << Ctx;
  EXPECT_EQ(A.Stats.FinalLines, B.Stats.FinalLines) << Ctx;
  EXPECT_EQ(A.Trace, B.Trace) << Ctx;
}

/// A search-layer test oracle over the candidate's source text. The
/// predicate runs when the candidate expands (on the calling thread)
/// and its verdict travels as the probe count: a rejected candidate
/// gets one reference probe, a kept one none, so the reducer's own §8
/// validation is the only run that decides anything else.
class SourceOracle final : public ReductionOracle {
public:
  explicit SourceOracle(std::function<bool(const std::string &)> Keep)
      : Keep(std::move(Keep)) {}

  void expandJobs(const TestCase &Candidate,
                  std::vector<ExecJob> &Jobs) const override {
    if (!Keep(Candidate.Source))
      Jobs.push_back(
          ExecJob::onReference(Candidate, /*Opt=*/false, RunSettings()));
  }
  bool judge(const std::vector<RunOutcome> &Outcomes) const override {
    return Outcomes.empty();
  }

private:
  std::function<bool(const std::string &)> Keep;
};

} // namespace

//===----------------------------------------------------------------------===//
// Bit-identity across backends and worker counts
//===----------------------------------------------------------------------===//

TEST(ReducerConformanceTest, ReductionIdenticalOnAllBackends) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19),
                                     /*Opt=*/false);
  TestCase Witness = paddedCommaBugKernel();

  ReductionRun Reference = runReduction(
      Witness, Oracle, ExecOptions::withBackend(BackendKind::Inline));
  EXPECT_TRUE(Reference.Stats.WitnessWasInteresting);
  EXPECT_LT(Reference.Stats.FinalLines, Reference.Stats.InitialLines);
  // The comma bug itself must survive the shrink.
  EXPECT_NE(Reference.Reduced.Source.find("x, 1"), std::string::npos)
      << Reference.Reduced.Source;

  for (const ExecOptions &Opts : reducerMatrix())
    expectSameRun(Reference, runReduction(Witness, Oracle, Opts),
                  describe(Opts));
}

TEST(ReducerConformanceTest, CandidateBudgetInvariantAcrossBackends) {
  // Cutting the budget mid-round must land on the same candidate on
  // every backend: speculative evaluations past the cut are discarded
  // unobserved, whatever the chunk width.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19),
                                     /*Opt=*/false);
  TestCase Witness = paddedCommaBugKernel();

  ReductionRun Reference =
      runReduction(Witness, Oracle,
                   ExecOptions::withBackend(BackendKind::Inline),
                   /*MaxCandidates=*/7);
  EXPECT_LE(Reference.Stats.CandidatesTried, 7u);

  for (const ExecOptions &Opts : reducerMatrix())
    expectSameRun(Reference,
                  runReduction(Witness, Oracle, Opts, /*MaxCandidates=*/7),
                  describe(Opts) + "/budget7");
}

//===----------------------------------------------------------------------===//
// Crashy-witness isolation under procs
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)
TEST(ReducerConformanceTest, CrashyWitnessReducesToCompletionUnderProcs) {
  // Every probe of this witness hard-aborts the executing process -
  // the model of a witness whose compile or run takes the VM down.
  // Under the procs backend each abort kills one disposable worker
  // and is judged from the isolated Crash outcome, so the reduction
  // runs to completion; any in-process backend would die with the
  // first candidate.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  RunSettings Aborting;
  Aborting.DebugHardAbort = true;
  StatusReductionOracle Oracle(configById(Registry, 12), /*Opt=*/true,
                               RunStatus::Crash, Aborting);

  TestCase Witness = kernelFromSource(
      "crashy witness", "kernel void k(global ulong *out) {\n"
                        "  int a = 1;\n"
                        "  int b = 2;\n"
                        "  int c = a + b;\n"
                        "  out[get_global_id(0)] = (ulong)c;\n"
                        "}\n");

  ReductionRun Procs2 = runReduction(
      Witness, Oracle, ExecOptions::withBackend(BackendKind::Procs, 2));
  EXPECT_TRUE(Procs2.Stats.WitnessWasInteresting);
  EXPECT_GT(Procs2.Stats.CandidatesKept, 0u);
  EXPECT_LT(Procs2.Stats.FinalLines, Procs2.Stats.InitialLines);

  // Different worker counts must still walk the identical sequence.
  expectSameRun(Procs2,
                runReduction(Witness, Oracle,
                             ExecOptions::withBackend(BackendKind::Procs, 4)),
                "procs/4w crashy");
}
#endif

//===----------------------------------------------------------------------===//
// Search-layer properties (backend-independent, pinned on inline and
// on a 4-thread pool, whose executors print each candidate window)
//===----------------------------------------------------------------------===//

TEST(ReducerConformanceTest, EscalatesToMultiMutationCandidates) {
  // noiseA and noiseB can only be deleted *together*: any candidate
  // with exactly one of them is uninteresting, so single-step rounds
  // stall and only the 2-mutation escalation can finish the job - the
  // classic ddmin situation.
  TestCase Witness = kernelFromSource(
      "escalation witness", "kernel void k(global ulong *out) {\n"
                            "  int noiseA = 1;\n"
                            "  int noiseB = 2;\n"
                            "  out[get_global_id(0)] = 7uL;\n"
                            "}\n");
  SourceOracle BothOrNeither([](const std::string &S) {
    bool HasA = S.find("noiseA") != std::string::npos;
    bool HasB = S.find("noiseB") != std::string::npos;
    return HasA == HasB;
  });

  ReductionRun Inline = runReduction(
      Witness, BothOrNeither, ExecOptions::withBackend(BackendKind::Inline));
  EXPECT_GE(Inline.Stats.Escalations, 1u);
  EXPECT_EQ(Inline.Reduced.Source.find("noiseA"), std::string::npos)
      << Inline.Reduced.Source;
  EXPECT_EQ(Inline.Reduced.Source.find("noiseB"), std::string::npos)
      << Inline.Reduced.Source;
  expectSameRun(Inline,
                runReduction(Witness, BothOrNeither,
                             ExecOptions::withBackend(BackendKind::Threads, 4)),
                "threads/4w escalation");

  // The same stall over two uncalled functions: the 2-mutation group
  // deletes both, the later one first, so the earlier removal cannot
  // shift its partner's index.
  TestCase Helpers = kernelFromSource(
      "paired helpers", "int helperA(int v) { return v + 1; }\n"
                        "int helperB(int v) { return v * 2; }\n"
                        "kernel void k(global ulong *out) {\n"
                        "  out[get_global_id(0)] = 7uL;\n"
                        "}\n");
  SourceOracle BothHelpersOrNeither([](const std::string &S) {
    return (S.find("helperA") != std::string::npos) ==
           (S.find("helperB") != std::string::npos);
  });
  ReductionRun HelpersInline =
      runReduction(Helpers, BothHelpersOrNeither,
                   ExecOptions::withBackend(BackendKind::Inline));
  EXPECT_NE(HelpersInline.Trace.find(
                "\"class\":\"delete-function\",\"combo\":2,\"lines\""),
            std::string::npos)
      << HelpersInline.Trace;
  EXPECT_EQ(HelpersInline.Reduced.Source.find("helper"), std::string::npos)
      << HelpersInline.Reduced.Source;
  expectSameRun(HelpersInline,
                runReduction(Helpers, BothHelpersOrNeither,
                             ExecOptions::withBackend(BackendKind::Threads, 4)),
                "threads/4w paired helpers");
}

TEST(ReducerConformanceTest, SkipsDuplicateCandidates) {
  // Deleting either copy of the duplicated statement prints the same
  // candidate program; the second must be skipped by the printed-form
  // cache without a second evaluation.
  TestCase Witness = kernelFromSource(
      "duplicate statements", "kernel void k(global ulong *out) {\n"
                              "  int x = 9;\n"
                              "  x = x + 0;\n"
                              "  x = x + 0;\n"
                              "  out[get_global_id(0)] = (ulong)x;\n"
                              "}\n");
  auto CountPads = [](const std::string &S) {
    unsigned N = 0;
    for (size_t At = S.find("x + 0"); At != std::string::npos;
         At = S.find("x + 0", At + 1))
      ++N;
    return N;
  };
  SourceOracle KeepsBothPads(
      [&](const std::string &S) { return CountPads(S) >= 2; });

  ReductionRun Inline = runReduction(
      Witness, KeepsBothPads, ExecOptions::withBackend(BackendKind::Inline));
  EXPECT_GE(Inline.Stats.CandidatesSkipped, 1u);
  EXPECT_GE(CountPads(Inline.Reduced.Source), 2u);
  expectSameRun(Inline,
                runReduction(Witness, KeepsBothPads,
                             ExecOptions::withBackend(BackendKind::Threads, 4)),
                "threads/4w duplicates");
}

TEST(ReducerConformanceTest, BackgroundQueueDrainsDeterministically) {
  // The hunt's background reduction path: however many workers run
  // the jobs and however they interleave, drain() must hand back the
  // identical result list in the identical order.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  ReducerOptions Opts;
  Opts.MaxCandidates = 60;

  auto RunQueue = [&](unsigned Workers) {
    ReductionQueue Queue(Opts, Workers, /*CaptureTrace=*/true);
    for (uint64_t Key : {30u, 10u, 20u}) {
      ReductionJob Job;
      Job.OrderKey = Key;
      Job.Label = "witness " + std::to_string(Key);
      Job.Witness = paddedCommaBugKernel();
      Job.Oracle = std::make_shared<DifferentialReductionOracle>(
          configById(Registry, 19), /*Opt=*/false);
      Queue.submit(std::move(Job));
    }
    return Queue.drain();
  };

  std::vector<ReductionResult> One = RunQueue(1);
  std::vector<ReductionResult> Three = RunQueue(3);
  ASSERT_EQ(One.size(), 3u);
  ASSERT_EQ(Three.size(), 3u);
  EXPECT_EQ(One[0].OrderKey, 10u);
  EXPECT_EQ(One[2].OrderKey, 30u);
  for (size_t I = 0; I != 3; ++I) {
    EXPECT_EQ(One[I].OrderKey, Three[I].OrderKey);
    EXPECT_EQ(One[I].Label, Three[I].Label);
    EXPECT_EQ(One[I].Reduced.Source, Three[I].Reduced.Source);
    EXPECT_EQ(One[I].Trace, Three[I].Trace);
    EXPECT_EQ(One[I].Stats.CandidatesTried, Three[I].Stats.CandidatesTried);
  }
}

TEST(ReducerConformanceTest, UninterestingWitnessIsReturnedUnchanged) {
  TestCase Witness = kernelFromSource(
      "boring witness", "kernel void k(global ulong *out) {\n"
                        "  out[get_global_id(0)] = 1uL;\n"
                        "}\n");
  SourceOracle Never([](const std::string &) { return false; });
  ReducerOptions Opts;
  ReduceStats Stats;
  TestCase Out = reduceTest(Witness, Never, Opts, &Stats);
  EXPECT_FALSE(Stats.WitnessWasInteresting);
  EXPECT_EQ(Stats.CandidatesTried, 0u);
  EXPECT_EQ(Stats.FinalLines, Stats.InitialLines);
  EXPECT_EQ(countCodeLines(Out.Source), Stats.FinalLines);
}
