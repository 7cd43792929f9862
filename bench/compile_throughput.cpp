//===- compile_throughput.cpp - Uncached compile-pipeline throughput -----------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// Measures **uncached cells/sec on a compile-bound differential
/// campaign** — the number the parse-once/clone-per-cell front end
/// (docs/compile-pipeline.md) exists to move. The workload is N
/// kernels × the paper's above-threshold configuration columns (a
/// reference run plus an optimised configuration run per column),
/// executed with no outcome cache through
/// `runColumns(groupIntoColumns(...))`, but generated compile-heavy:
/// larger structure-size knobs and small launch
/// geometries, so the front end — not the VM — is the dominant cost,
/// as it is for the short-running kernels real campaigns burn most of
/// their wall-clock compiling.
///
/// Phases: {clone on, clone off} × {serial inline, thread pool}. Every
/// phase is checked outcome-identical to the first (the toggle must
/// change wall-clock only — the PR's hard invariant), and per-phase
/// compile counter deltas (parses, semas, clones, per-phase ns) are
/// reported.
///
/// Emits machine-readable `BENCH_compile.json`, including the frozen
/// clone-off baseline measured at this PR's commit on this same
/// workload — the committed copy lives at bench/BENCH_compile.json and
/// the CI `compile` job holds the clone-on serial number to >= 1.5x
/// the committed clone-off baseline.
///
///   --kernels=N   kernels in the campaign (default 8)
///   --threads=N   workers for the thread-pool phases (default 4)
///   --seed=N      campaign seed base (default 100000)
///   --json=PATH   where to write BENCH_compile.json (default: CWD)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "device/CompileCounters.h"
#include "device/DeviceConfig.h"
#include "gen/Generator.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace clfuzz;
using namespace clfuzz::bench;

namespace {

/// The clone-off numbers for this exact workload (8 kernels, seed
/// 100000, 240 cells), measured on the PR's reference host and kept in
/// the JSON so trend tooling and the CI acceptance check (clone-on
/// serial >= 1.5x the clone-off serial baseline) need no second
/// measurement.
constexpr double BaselineOffSerialCps = 920.0;
constexpr double BaselineOffThreadsCps = 975.0;

struct Phase {
  std::string Clone; ///< "on" | "off"
  std::string Sched; ///< "serial" | "threads"
  double Seconds = 0.0;
  double CellsPerSec = 0.0;
  CompileCounters Delta; ///< this process's compile counter movement
};

CompileCounters counterDelta(const CompileCounters &After,
                             const CompileCounters &Before) {
  CompileCounters D;
  D.Parses = After.Parses - Before.Parses;
  D.ParseNs = After.ParseNs - Before.ParseNs;
  D.Semas = After.Semas - Before.Semas;
  D.SemaNs = After.SemaNs - Before.SemaNs;
  D.Clones = After.Clones - Before.Clones;
  D.CloneNs = After.CloneNs - Before.CloneNs;
  D.Opts = After.Opts - Before.Opts;
  D.OptNs = After.OptNs - Before.OptNs;
  D.Codegens = After.Codegens - Before.Codegens;
  D.CodegenNs = After.CodegenNs - Before.CodegenNs;
  D.Execs = After.Execs - Before.Execs;
  D.ExecNs = After.ExecNs - Before.ExecNs;
  return D;
}

bool sameOutcomes(const std::vector<RunOutcome> &A,
                  const std::vector<RunOutcome> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Status != B[I].Status || A[I].OutputHash != B[I].OutputHash ||
        A[I].Message != B[I].Message || A[I].Steps != B[I].Steps ||
        A[I].OutputHead != B[I].OutputHead)
      return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Peel off --json= (harness-local) before the shared flag parser
  // sees it.
  std::string JsonPath = "BENCH_compile.json";
  std::vector<char *> Rest = {Argv[0]};
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else
      Rest.push_back(Argv[I]);
  }
  HarnessArgs Args = parseArgs(static_cast<int>(Rest.size()), Rest.data());
  unsigned Kernels = Args.Kernels ? Args.Kernels : 8;
  unsigned Threads = Args.Threads > 1 ? Args.Threads : 4;

  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Columns;
  for (int Id : paperAboveThresholdIds())
    Columns.push_back(configById(Registry, Id));

  // Compile-heavy kernels: more helper functions, deeper blocks and
  // expressions than the campaign default, launched over a handful of
  // work-items with short loops. Per cell, the front end then costs
  // more than the launch — the regime this bench exists to measure.
  std::vector<TestCase> Tests;
  for (unsigned K = 0; K != Kernels; ++K) {
    GenOptions GO;
    GO.Mode = GenMode::All;
    GO.Seed = Args.Seed + K;
    GO.MinThreads = 2;
    GO.MaxThreads = 8;
    GO.MaxGroupSize = 4;
    GO.NumFunctions = 24;
    GO.MaxBlockStmts = 10;
    GO.MaxBlockDepth = 5;
    GO.MaxExprDepth = 5;
    GO.MaxLoopIterations = 1;
    Tests.push_back(TestCase::fromGenerated(generateKernel(GO)));
  }
  // Full Table-1 column shape: the shared reference run plus the
  // configuration at both opt levels (real differential campaigns
  // compare both). Unoptimised cells whose bug model schedules an
  // AST-mutating pass re-parse under clone-off but run only that cheap
  // pass — exactly the cells the clone exists for.
  std::vector<ExecJob> Jobs;
  for (const TestCase &T : Tests)
    for (const DeviceConfig &C : Columns) {
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/false, RunSettings()));
      Jobs.push_back(ExecJob::onConfig(T, C, /*Opt=*/false, RunSettings()));
      Jobs.push_back(ExecJob::onConfig(T, C, /*Opt=*/true, RunSettings()));
    }

  std::printf("compile throughput: %u kernels x %zu columns = %zu cells, "
              "uncached, threads phase = %u workers\n\n",
              Kernels, Columns.size(), Jobs.size(), Threads);
  std::printf("%-6s %-8s %10s %14s %8s %8s %8s %12s  %s\n", "clone",
              "sched", "seconds", "cells/sec", "parses", "clones",
              "opts", "parse_ms", "result");
  printRule();

  bool SavedClone = compileCloneEnabled();
  std::vector<RunOutcome> First;
  std::vector<Phase> Phases;
  bool AllIdentical = true;

  for (bool CloneOn : {true, false}) {
    setCompileCloneEnabled(CloneOn);
    for (bool Parallel : {false, true}) {
      ExecOptions E = ExecOptions::withThreads(Parallel ? Threads : 1);
      E.Backend = Parallel ? BackendKind::Threads : BackendKind::Inline;
      E.Cache = nullptr; // uncached by definition
      std::unique_ptr<ExecBackend> Backend = makeBackend(E);

      CompileCounters Before = compileCounters();
      auto Start = std::chrono::steady_clock::now();
      std::vector<RunOutcome> Outs =
          Backend->runColumns(groupIntoColumns(Jobs));
      std::chrono::duration<double> Elapsed =
          std::chrono::steady_clock::now() - Start;

      Phase P;
      P.Clone = CloneOn ? "on" : "off";
      P.Sched = Parallel ? "threads" : "serial";
      P.Seconds = Elapsed.count();
      P.CellsPerSec = static_cast<double>(Jobs.size()) / P.Seconds;
      P.Delta = counterDelta(compileCounters(), Before);

      if (First.empty())
        First = std::move(Outs);
      else if (!sameOutcomes(First, Outs))
        AllIdentical = false;

      std::printf(
          "%-6s %-8s %10.3f %14.1f %8llu %8llu %8llu %12.2f  %s\n",
          P.Clone.c_str(), P.Sched.c_str(), P.Seconds, P.CellsPerSec,
          static_cast<unsigned long long>(P.Delta.Parses),
          static_cast<unsigned long long>(P.Delta.Clones),
          static_cast<unsigned long long>(P.Delta.Opts),
          static_cast<double>(P.Delta.ParseNs + P.Delta.SemaNs) / 1e6,
          Phases.empty() ? "baseline for identity"
                         : (AllIdentical ? "identical" : "MISMATCH"));
      Phases.push_back(std::move(P));
    }
  }
  setCompileCloneEnabled(SavedClone);

  // Best clone-on numbers per scheduler drive the headline speedups.
  double OnSerial = 0.0, OnThreads = 0.0, OffSerial = 0.0, OffThreads = 0.0;
  for (const Phase &P : Phases) {
    double &Slot = P.Clone == "on"
                       ? (P.Sched == "serial" ? OnSerial : OnThreads)
                       : (P.Sched == "serial" ? OffSerial : OffThreads);
    Slot = std::max(Slot, P.CellsPerSec);
  }
  double SerialSpeedup = OnSerial / BaselineOffSerialCps;
  double ThreadsSpeedup = OnThreads / BaselineOffThreadsCps;
  std::printf("\nclone-on vs committed clone-off baseline: serial %.1f -> "
              "%.1f cells/sec (%.2fx), threads %.1f -> %.1f (%.2fx)  "
              "(acceptance target: >= 1.5x serial)\n",
              BaselineOffSerialCps, OnSerial, SerialSpeedup,
              BaselineOffThreadsCps, OnThreads, ThreadsSpeedup);
  std::printf("this run, clone-on vs clone-off: serial %.2fx, "
              "threads %.2fx\n",
              OffSerial > 0 ? OnSerial / OffSerial : 0.0,
              OffThreads > 0 ? OnThreads / OffThreads : 0.0);

  std::FILE *J = std::fopen(JsonPath.c_str(), "w");
  if (!J) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  std::fprintf(J,
               "{\"bench\":\"compile_throughput\",\"kernels\":%u,"
               "\"columns\":%zu,\"cells\":%zu,\"threads\":%u,"
               "\"baseline\":{\"off_serial_cells_per_sec\":%.1f,"
               "\"off_threads_cells_per_sec\":%.1f},\"phases\":[",
               Kernels, Columns.size(), Jobs.size(), Threads,
               BaselineOffSerialCps, BaselineOffThreadsCps);
  for (size_t I = 0; I != Phases.size(); ++I) {
    const Phase &P = Phases[I];
    std::fprintf(
        J,
        "%s{\"clone\":\"%s\",\"sched\":\"%s\",\"seconds\":%.6f,"
        "\"cells_per_sec\":%.1f,\"parses\":%llu,\"parse_ns\":%llu,"
        "\"semas\":%llu,\"sema_ns\":%llu,\"clones\":%llu,"
        "\"clone_ns\":%llu,\"opts\":%llu,\"opt_ns\":%llu,"
        "\"codegens\":%llu,\"codegen_ns\":%llu,\"execs\":%llu,"
        "\"exec_ns\":%llu}",
        I ? "," : "", P.Clone.c_str(), P.Sched.c_str(), P.Seconds,
        P.CellsPerSec, static_cast<unsigned long long>(P.Delta.Parses),
        static_cast<unsigned long long>(P.Delta.ParseNs),
        static_cast<unsigned long long>(P.Delta.Semas),
        static_cast<unsigned long long>(P.Delta.SemaNs),
        static_cast<unsigned long long>(P.Delta.Clones),
        static_cast<unsigned long long>(P.Delta.CloneNs),
        static_cast<unsigned long long>(P.Delta.Opts),
        static_cast<unsigned long long>(P.Delta.OptNs),
        static_cast<unsigned long long>(P.Delta.Codegens),
        static_cast<unsigned long long>(P.Delta.CodegenNs),
        static_cast<unsigned long long>(P.Delta.Execs),
        static_cast<unsigned long long>(P.Delta.ExecNs));
  }
  std::fprintf(J,
               "],\"serial_speedup_vs_baseline\":%.2f,"
               "\"threads_speedup_vs_baseline\":%.2f,"
               "\"identical\":%s}\n",
               SerialSpeedup, ThreadsSpeedup,
               AllIdentical ? "true" : "false");
  std::fclose(J);
  std::printf("wrote %s\n", JsonPath.c_str());

  return AllIdentical ? 0 : 1;
}
