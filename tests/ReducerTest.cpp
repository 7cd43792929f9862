//===- ReducerTest.cpp - Test-case reducer tests ------------------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "device/DeviceConfig.h"
#include "oracle/Reducer.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

using namespace clfuzz;

namespace {

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

/// Judges every candidate interesting, so the reducer's own §8
/// reference validation is the only thing that can reject one.
class AlwaysInteresting final : public ReductionOracle {
public:
  void expandJobs(const TestCase &, std::vector<ExecJob> &) const override {}
  bool judge(const std::vector<RunOutcome> &) const override { return true; }
};

} // namespace

TEST(ReducerTest, ShrinksCommaBugWitness) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  const DeviceConfig &Oclgrind = configById(Registry, 19);
  TestCase Input = paddedCommaBugKernel();

  // Sanity: the bug manifests on configuration 19.
  RunOutcome Ref = runTestOnReference(Input, false);
  RunOutcome Buggy = runTestOnConfig(Input, Oclgrind, false);
  ASSERT_TRUE(Ref.ok() && Buggy.ok());
  ASSERT_NE(Ref.OutputHash, Buggy.OutputHash);

  DifferentialReductionOracle Oracle(Oclgrind, /*Opt=*/false);
  ReducerOptions Opts;
  ReduceStats Stats;
  TestCase Reduced = reduceTest(Input, Oracle, Opts, &Stats);

  EXPECT_LT(Stats.FinalLines, Stats.InitialLines);
  EXPECT_GT(Stats.CandidatesKept, 0u);
  // The witness must still be interesting after reduction.
  RunOutcome R = runTestOnReference(Reduced, false);
  RunOutcome B = runTestOnConfig(Reduced, Oclgrind, false);
  EXPECT_TRUE(R.ok() && B.ok() && R.OutputHash != B.OutputHash)
      << Reduced.Source;
  // The noise should be gone; the comma must remain.
  EXPECT_EQ(Reduced.Source.find("helper"), std::string::npos)
      << Reduced.Source;
  EXPECT_EQ(Reduced.Source.find("noise2 * 2"), std::string::npos)
      << Reduced.Source;
  EXPECT_NE(Reduced.Source.find("x, 1"), std::string::npos)
      << Reduced.Source;
}

TEST(ReducerTest, RespectsCandidateBudget) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19),
                                     /*Opt=*/false);
  ReducerOptions Opts;
  Opts.MaxCandidates = 3;
  ReduceStats Stats;
  reduceTest(paddedCommaBugKernel(), Oracle, Opts, &Stats);
  EXPECT_LE(Stats.CandidatesTried, 3u);
}

TEST(ReducerTest, KeepsRaceFreedom) {
  // A reduction step that would introduce a race (deleting the barrier
  // between write and read of local memory) must be rejected by the
  // concurrency-aware validation even if the predicate would accept.
  TestCase T;
  T.Name = "barrier guard";
  T.Source = "kernel void k(global ulong *out) {\n"
             "  local uint A[4];\n"
             "  A[get_local_id(0)] = (uint)get_local_id(0);\n"
             "  barrier(CLK_LOCAL_MEM_FENCE);\n"
             "  out[get_global_id(0)] = A[3u - get_local_id(0)];\n"
             "}\n";
  T.Range.Global[0] = 4;
  T.Range.Local[0] = 4;
  BufferSpec Out;
  Out.InitBytes.assign(32, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);

  AlwaysInteresting Oracle;
  ReducerOptions Opts;
  TestCase Reduced = reduceTest(T, Oracle, Opts);
  // The barrier must survive if the local accesses do; deleting only
  // the barrier would race.
  bool HasLocalWrite =
      Reduced.Source.find("A[get_local_id(0)] =") != std::string::npos;
  bool HasLocalRead =
      Reduced.Source.find("A[3u - get_local_id(0)]") != std::string::npos;
  if (HasLocalWrite && HasLocalRead)
    EXPECT_NE(Reduced.Source.find("barrier"), std::string::npos)
        << Reduced.Source;
}
