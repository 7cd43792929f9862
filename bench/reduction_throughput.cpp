//===- reduction_throughput.cpp - Reduction speed per backend ------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// Measures the reduction pipeline on the Figure 2(f) comma-bug
/// witness padded with noise: the same reduction runs on the inline
/// backend (one candidate at a time, the next candidates printing
/// while it evaluates) and speculatively (thread/process backends at
/// several worker counts), reporting rounds/sec and candidates/sec.
/// Every row is checked bit-identical to the inline baseline - the
/// reducer's determinism contract; the sweep changes wall-clock time
/// only.
///
///   --kernels=N   pad the witness with N extra noise statements
///                 (default 24; more noise = longer reduction)
///   --threads=N   highest worker count to sweep (default 4)
///   --backend=B   extra backend to sweep at --threads workers
///                 (procs measures fork/pipe isolation overhead)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "device/DeviceConfig.h"
#include "oracle/Reducer.h"
#include "support/StringUtil.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace clfuzz;
using namespace clfuzz::bench;

namespace {

/// The ReducerTest comma bug, padded with a configurable amount of
/// deletable noise so the reduction has real work to do.
TestCase paddedWitness(unsigned NoiseStmts) {
  std::string Body;
  Body += "int helper(int v) { return v * 3 + 1; }\n"
          "kernel void k(global ulong *out) {\n"
          "  int noise1 = helper(11);\n";
  for (unsigned I = 0; I != NoiseStmts; ++I) {
    Body += "  int pad" + std::to_string(I) + " = " +
            std::to_string(I + 1) + ";\n";
    Body += "  for (int i" + std::to_string(I) + " = 0; i" +
            std::to_string(I) + " < 3; i" + std::to_string(I) +
            "++) pad" + std::to_string(I) + " += noise1;\n";
  }
  Body += "  short x = 1; uint y;\n"
          "  for (y = -1; y >= 1; ++y) { if (x , 1) break; }\n"
          "  out[get_global_id(0)] = y;\n"
          "}\n";

  TestCase T;
  T.Name = "padded comma bug";
  T.Source = std::move(Body);
  T.Range.Global[0] = 1;
  T.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);
  return T;
}

struct Row {
  std::string Name;
  ExecOptions Exec;
};

} // namespace

int main(int Argc, char **Argv) {
  HarnessArgs Args = parseArgs(Argc, Argv);
  unsigned Noise = Args.Kernels ? Args.Kernels : 24;
  unsigned MaxThreads = Args.Threads > 1 ? Args.Threads : 4;

  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19),
                                     /*Opt=*/false);
  TestCase Witness = paddedWitness(Noise);

  std::vector<Row> Sweep;
  Sweep.push_back({"inline", ExecOptions::withBackend(BackendKind::Inline)});
  for (unsigned T = 2; T <= MaxThreads; T *= 2)
    Sweep.push_back({"threads " + std::to_string(T),
                     ExecOptions::withBackend(BackendKind::Threads, T)});
  if (Args.Backend != BackendKind::Threads &&
      Args.Backend != BackendKind::Inline)
    Sweep.push_back({std::string(backendKindName(Args.Backend)) + " " +
                         std::to_string(MaxThreads),
                     ExecOptions::withBackend(Args.Backend, MaxThreads)});

  std::printf("reduction throughput: comma-bug witness + %u noise "
              "statements (%u code lines)\n\n",
              Noise, countCodeLines(Witness.Source));
  std::printf("%-18s %10s %10s %12s %14s %10s  %s\n", "mode", "rounds",
              "tried", "seconds", "cands/sec", "speedup", "result");
  printRule();

  double InlineSecs = 0.0;
  std::string InlineSource;
  ReduceStats InlineStats;
  for (size_t I = 0; I != Sweep.size(); ++I) {
    ReducerOptions Opts;
    Opts.MaxCandidates = 4000;
    Opts.Exec = Sweep[I].Exec;

    ReduceStats Stats;
    auto Start = std::chrono::steady_clock::now();
    TestCase Reduced = reduceTest(Witness, Oracle, Opts, &Stats);
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;

    if (I == 0) {
      InlineSecs = Elapsed.count();
      InlineSource = Reduced.Source;
      InlineStats = Stats;
    }
    bool Identical = Reduced.Source == InlineSource &&
                     Stats.CandidatesTried == InlineStats.CandidatesTried &&
                     Stats.CandidatesKept == InlineStats.CandidatesKept &&
                     Stats.Rounds == InlineStats.Rounds;
    std::printf("%-18s %10u %10u %12.3f %14.1f %9.2fx  %s\n",
                Sweep[I].Name.c_str(), Stats.Rounds,
                Stats.CandidatesTried, Elapsed.count(),
                Stats.CandidatesTried / Elapsed.count(),
                InlineSecs / Elapsed.count(),
                Identical ? "identical to inline"
                          : "MISMATCH vs inline");
    if (!Identical)
      return 1;
  }

  std::printf("\nreduction: %u -> %u lines over %u rounds (%u kept, "
              "%u skipped, %u escalations)\n",
              InlineStats.InitialLines, InlineStats.FinalLines,
              InlineStats.Rounds, InlineStats.CandidatesKept,
              InlineStats.CandidatesSkipped, InlineStats.Escalations);
  std::printf("(speedup tracks physical core count)\n");
  return 0;
}
