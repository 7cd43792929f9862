//===- MetricsTest.cpp - Tests for the counter registry -------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The registry behind every --stats counter (support/Metrics.h): its
// key table, snapshot arithmetic, the per-family views the rest of the
// code base reads, and exact sums under concurrent bumps (this suite
// also runs under ThreadSanitizer).
//
//===----------------------------------------------------------------------===//

#include "device/CompileCounters.h"
#include "exec/FleetRegistry.h"
#include "support/Metrics.h"
#include "triage/Triage.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace clfuzz;

namespace {

/// Every key of a family starts with its prefix, indexed by
/// CounterFamily.
const char *const FamilyPrefix[NumCounterFamilies] = {
    "cache_", "vm_", "compile_", "triage_", "fleet_"};

/// Bumps every counter by a distinct amount (its index + 1, times
/// \p Scale), so a view that reads the wrong slot reads a wrong value.
void bumpAll(uint64_t Scale) {
  for (size_t I = 0; I != NumCounters; ++I)
    bump(static_cast<Counter>(I), (I + 1) * Scale);
}

} // namespace

TEST(MetricsTest, KeysAreUniqueAndCarryTheirFamilyPrefix) {
  std::set<std::string> Keys;
  for (size_t I = 0; I != NumCounters; ++I) {
    const CounterInfo &Info = CounterTable[I];
    EXPECT_TRUE(Keys.insert(Info.Key).second) << Info.Key;
    // `coalesced` predates the family prefixes; --stats keeps it.
    if (std::string(Info.Key) == "coalesced") {
      EXPECT_EQ(Info.Family, CounterFamily::Cache);
      continue;
    }
    const char *Prefix = FamilyPrefix[static_cast<size_t>(Info.Family)];
    EXPECT_EQ(std::string(Info.Key).rfind(Prefix, 0), 0u) << Info.Key;
  }
}

TEST(MetricsTest, FamiliesAreContiguousInListOrder) {
  // --stats prints one line per family in family order; the list keeps
  // each family's counters together and the families in that order.
  for (size_t I = 1; I != NumCounters; ++I)
    EXPECT_LE(static_cast<unsigned>(CounterTable[I - 1].Family),
              static_cast<unsigned>(CounterTable[I].Family))
        << CounterTable[I].Key;
  EXPECT_EQ(static_cast<size_t>(CounterTable[NumCounters - 1].Family) + 1,
            NumCounterFamilies);
}

TEST(MetricsTest, SnapshotArithmeticIsElementWise) {
  MetricsSnapshot A, B;
  for (size_t I = 0; I != NumCounters; ++I) {
    A.Values[I] = 100 + 3 * I;
    B.Values[I] = I;
  }
  MetricsSnapshot D = A - B;
  for (size_t I = 0; I != NumCounters; ++I)
    EXPECT_EQ(D.Values[I], 100 + 2 * I);
  D += B;
  EXPECT_EQ(D.Values, A.Values);
  // Indexing by Counter reads the same slot.
  EXPECT_EQ(A[Counter::VmLaunches],
            A.Values[static_cast<size_t>(Counter::VmLaunches)]);
}

TEST(MetricsTest, SnapshotDeltaSeesExactlyTheBumps) {
  MetricsSnapshot Before = metricsSnapshot();
  bumpAll(1);
  MetricsSnapshot D = metricsSnapshot() - Before;
  for (size_t I = 0; I != NumCounters; ++I)
    EXPECT_EQ(D.Values[I], I + 1) << CounterTable[I].Key;
}

TEST(MetricsTest, ViewsReadTheRegistrySlots) {
  bumpAll(7);
  MetricsSnapshot S = metricsSnapshot();

  VmCounters V = vmCounters();
  EXPECT_EQ(V.Instructions, S[Counter::VmInstructions]);
  EXPECT_EQ(V.FusedExecuted, S[Counter::VmFused]);
  EXPECT_EQ(V.Launches, S[Counter::VmLaunches]);
  EXPECT_EQ(V.EngineReuses, S[Counter::VmEngineReuses]);
  EXPECT_EQ(V.MemoHits, S[Counter::VmMemoHits]);

  CompileCounters C = compileCounters();
  EXPECT_EQ(C.Parses, S[Counter::CompileParses]);
  EXPECT_EQ(C.ParseNs, S[Counter::CompileParseNs]);
  EXPECT_EQ(C.Semas, S[Counter::CompileSemas]);
  EXPECT_EQ(C.SemaNs, S[Counter::CompileSemaNs]);
  EXPECT_EQ(C.Clones, S[Counter::CompileClones]);
  EXPECT_EQ(C.CloneNs, S[Counter::CompileCloneNs]);
  EXPECT_EQ(C.Opts, S[Counter::CompileOpts]);
  EXPECT_EQ(C.OptNs, S[Counter::CompileOptNs]);
  EXPECT_EQ(C.Codegens, S[Counter::CompileCodegens]);
  EXPECT_EQ(C.CodegenNs, S[Counter::CompileCodegenNs]);
  EXPECT_EQ(C.Execs, S[Counter::CompileExecs]);
  EXPECT_EQ(C.ExecNs, S[Counter::CompileExecNs]);

  TriageCounters T = triageCounters();
  EXPECT_EQ(T.Witnesses, S[Counter::TriageWitnesses]);
  EXPECT_EQ(T.Probes, S[Counter::TriageProbes]);
  EXPECT_EQ(T.Clusters, S[Counter::TriageClusters]);

  FleetCounters F = fleetCounters();
  EXPECT_EQ(F.Joins, S[Counter::FleetJoins]);
  EXPECT_EQ(F.Leaves, S[Counter::FleetLeaves]);
  EXPECT_EQ(F.Evictions, S[Counter::FleetEvictions]);
  EXPECT_EQ(F.Redials, S[Counter::FleetRedials]);
  EXPECT_EQ(F.Requeues, S[Counter::FleetRequeues]);
}

TEST(MetricsTest, CompilePhaseSamplesChargeTheirPhasePair) {
  MetricsSnapshot Before = metricsSnapshot();
  addCompilePhaseSample(CompilePhase::Parse, 11);
  addCompilePhaseSample(CompilePhase::Exec, 13);
  MetricsSnapshot D = metricsSnapshot() - Before;
  EXPECT_EQ(D[Counter::CompileParses], 1u);
  EXPECT_EQ(D[Counter::CompileParseNs], 11u);
  EXPECT_EQ(D[Counter::CompileExecs], 1u);
  EXPECT_EQ(D[Counter::CompileExecNs], 13u);
  EXPECT_EQ(D[Counter::CompileSemas], 0u);
  EXPECT_EQ(D[Counter::VmLaunches], 0u);
}

TEST(MetricsTest, ConcurrentBumpsSumExactly) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 100000;
  MetricsSnapshot Before = metricsSnapshot();
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        bump(Counter::VmLaunches);
        bump(Counter::VmInstructions, 3);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  MetricsSnapshot D = metricsSnapshot() - Before;
  EXPECT_EQ(D[Counter::VmLaunches], Threads * PerThread);
  EXPECT_EQ(D[Counter::VmInstructions], 3 * Threads * PerThread);
}
