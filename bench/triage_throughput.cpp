//===- triage_throughput.cpp - Pass-bisection triage throughput ---------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// Measures the post-reduction triage stage (src/triage/) on its real
/// workload: N generated witnesses bisected over a fault-injected
/// pass pipeline, the bisection probes riding the same backend and
/// outcome cache campaigns use. The interesting costs are probe
/// *count* (the greedy leave-one-out search, memoized by mask) and
/// probe *execution*, which the warm cache absorbs — so the harness
/// times three phases over the same witnesses:
///
///   uncached  no cache; the correctness baseline
///   cold      fresh cache: every distinct probe executes once
///   warm      same cache again: probes are answered from the store
///
/// Every phase's full reports (line, CSV, JSONL, probe counts) are
/// byte-compared against the uncached baseline — triage is
/// deterministic across cache states, so any drift fails the gate —
/// and the run emits machine-readable `BENCH_triage.json` for trend
/// tracking (the committed copy lives at bench/BENCH_triage.json).
///
///   --triage-witnesses=N  witnesses to bisect (default 6)
///   --triage-opt          probe at the optimising level (default -O0)
///   --threads=N --backend=B --cache=M --cache-dir=D  as elsewhere
///   --json=PATH   where to write BENCH_triage.json (default: CWD)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "device/DeviceConfig.h"
#include "gen/Generator.h"
#include "oracle/Reducer.h"
#include "triage/Triage.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace clfuzz;
using namespace clfuzz::bench;

namespace {

/// A configuration carrying all four fault-injected test passes, so
/// every witness with shift or bitwise-and features exercises a real
/// multi-pass bisection (the same ground-truth construction as
/// tests/TriageConformanceTest.cpp).
DeviceConfig faultConfig() {
  DeviceConfig C;
  C.Id = 990;
  C.Device = "triage bench device";
  C.Driver = "bench";
  for (DeviceBugModel *B : {&C.BugsO0, &C.BugsO2}) {
    B->BreakOnShiftBug = true;
    B->BreakOnAndBug = true;
    B->ShiftMarkBug = true;
    B->MarkBreakBug = true;
  }
  return C;
}

/// Everything observable about one witness's verdict, for the
/// byte-identity gate across phases.
std::string describeResult(const std::string &Label,
                           const TriageResult &R) {
  return Label + ": " + renderTriageLine(R) + "\n" +
         renderTriageCsvRow(Label, R) + renderTriageJsonl(Label, R);
}

struct Phase {
  std::string Name;
  double Seconds = 0.0;
  uint64_t Probes = 0;
  OutcomeCacheStats Stats;
};

OutcomeCacheStats delta(const OutcomeCacheStats &After,
                        const OutcomeCacheStats &Before) {
  OutcomeCacheStats D;
  D.Hits = After.Hits - Before.Hits;
  D.Misses = After.Misses - Before.Misses;
  D.Coalesced = After.Coalesced - Before.Coalesced;
  D.DiskHits = After.DiskHits - Before.DiskHits;
  D.BadEntries = After.BadEntries - Before.BadEntries;
  return D;
}

} // namespace

int main(int Argc, char **Argv) {
  // Peel off --json= (harness-local) before the shared flag parser
  // sees it.
  std::string JsonPath = "BENCH_triage.json";
  std::vector<char *> Rest = {Argv[0]};
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else
      Rest.push_back(Argv[I]);
  }
  HarnessArgs Args =
      parseArgs(static_cast<int>(Rest.size()), Rest.data());
  unsigned Witnesses =
      Args.TriageWitnesses ? Args.TriageWitnesses : 6;

  DeviceConfig Config = faultConfig();
  std::vector<TestCase> Tests;
  std::vector<std::string> Labels;
  for (unsigned K = 0; K != Witnesses; ++K) {
    GenOptions GO;
    GO.Mode = GenMode::All;
    GO.Seed = Args.Seed + K;
    Tests.push_back(TestCase::fromGenerated(generateKernel(GO)));
    Labels.push_back("seed " + std::to_string(GO.Seed));
  }

  ExecOptions Plain = Args.execOptions();
  Plain.Cache = nullptr; // the baseline must not be cached

  OutcomeCacheOptions CO;
  CO.Mode = Args.Cache == CacheMode::Off ? CacheMode::Mem : Args.Cache;
  CO.Dir = Args.CacheDir;
  if (Args.CacheMemMb)
    CO.MemBudgetBytes = static_cast<size_t>(Args.CacheMemMb) << 20;
  CO.KeySalt = cacheKeySalt(Plain);
  std::shared_ptr<OutcomeCache> Cache = makeOutcomeCache(CO);
  ExecOptions Cached = Plain;
  Cached.Cache = Cache;

  std::printf("triage throughput: %u witnesses over a fault-injected "
              "pipeline at %s, cache=%s, backend=%s\n\n",
              Witnesses, Args.TriageOpt ? "O2" : "O0",
              cacheModeName(CO.Mode), backendKindName(Plain.Backend));
  std::printf("%-10s %10s %10s %14s %10s %10s %10s  %s\n", "phase",
              "seconds", "probes", "probes/sec", "hits", "misses",
              "speedup", "result");
  printRule();

  std::string Baseline;
  std::vector<Phase> Phases;
  uint64_t TriagedCount = 0;
  double ColdSecs = 0.0, WarmSecs = 0.0;
  bool AllIdentical = true;

  for (const char *Name : {"uncached", "cold", "warm"}) {
    bool Uncached = std::string(Name) == "uncached";
    ReducerOptions TO;
    TO.Exec = Uncached ? Plain : Cached;
    OutcomeCacheStats Before = Cache->stats();

    Phase P;
    P.Name = Name;
    std::string Report;
    uint64_t Triaged = 0;
    auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I != Tests.size(); ++I) {
      TriageResult R =
          triageWitness(Tests[I], Config, Args.TriageOpt, TO);
      Report += describeResult(Labels[I], R);
      P.Probes += R.Probes;
      if (R.Reproduced)
        ++Triaged;
    }
    std::chrono::duration<double> Elapsed =
        std::chrono::steady_clock::now() - Start;
    P.Seconds = Elapsed.count();
    P.Stats = delta(Cache->stats(), Before);

    if (Uncached) {
      Baseline = std::move(Report);
      TriagedCount = Triaged;
    } else if (Report != Baseline)
      AllIdentical = false;
    if (std::string(Name) == "cold")
      ColdSecs = P.Seconds;
    if (std::string(Name) == "warm")
      WarmSecs = P.Seconds;

    std::printf("%-10s %10.3f %10llu %14.1f %10llu %10llu %9.2fx  %s\n",
                P.Name.c_str(), P.Seconds,
                static_cast<unsigned long long>(P.Probes),
                P.Seconds > 0.0
                    ? static_cast<double>(P.Probes) / P.Seconds
                    : 0.0,
                static_cast<unsigned long long>(P.Stats.Hits),
                static_cast<unsigned long long>(P.Stats.Misses),
                ColdSecs > 0.0 ? ColdSecs / P.Seconds : 1.0,
                Uncached ? "baseline"
                         : (AllIdentical ? "identical to uncached"
                                         : "MISMATCH vs uncached"));
    Phases.push_back(std::move(P));
  }

  double ProbesPerWitness =
      Witnesses ? static_cast<double>(Phases[0].Probes) / Witnesses : 0.0;
  double WarmSpeedup = WarmSecs > 0.0 ? ColdSecs / WarmSecs : 0.0;
  std::printf("\n%llu/%u witnesses reproduced; %.1f probes/witness; "
              "warm vs cold wall-clock %.2fx\n",
              static_cast<unsigned long long>(TriagedCount), Witnesses,
              ProbesPerWitness, WarmSpeedup);

  std::FILE *J = std::fopen(JsonPath.c_str(), "w");
  if (!J) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  std::fprintf(J,
               "{\"bench\":\"triage_throughput\",\"backend\":\"%s\","
               "\"cache\":\"%s\",\"witnesses\":%u,\"reproduced\":%llu,"
               "\"probes\":%llu,\"probes_per_witness\":%.2f,",
               backendKindName(Plain.Backend), cacheModeName(CO.Mode),
               Witnesses,
               static_cast<unsigned long long>(TriagedCount),
               static_cast<unsigned long long>(Phases[0].Probes),
               ProbesPerWitness);
  for (const Phase &P : Phases)
    std::fprintf(J,
                 "\"%s\":{\"seconds\":%.6f,\"probes\":%llu,"
                 "\"hits\":%llu,\"misses\":%llu},",
                 P.Name.c_str(), P.Seconds,
                 static_cast<unsigned long long>(P.Probes),
                 static_cast<unsigned long long>(P.Stats.Hits),
                 static_cast<unsigned long long>(P.Stats.Misses));
  std::fprintf(J, "\"warm_speedup_vs_cold\":%.2f,\"identical\":%s}\n",
               WarmSpeedup, AllIdentical ? "true" : "false");
  std::fclose(J);
  std::printf("wrote %s\n", JsonPath.c_str());

  if (!AllIdentical)
    return 1;
  return 0;
}
