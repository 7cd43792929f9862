//===- Metrics.h - The process-wide counter registry ------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every counter `--stats` prints is one slot of one registry.
/// CLFUZZ_COUNTERS lists them, one line per counter: its enum name, its
/// `--stats` key and the family (the `--stats` line) it prints on, in
/// print order. Counting is one relaxed fetch_add (bump()) where the
/// work is accounted — once per launch, compile phase or fleet event,
/// never from an inner loop. Reading is a MetricsSnapshot with
/// element-wise `-` and `+=`, so attributing work to a campaign is one
/// subtraction of the snapshots taken around it
/// (sched/CampaignScheduler.cpp). The cache slots are never bumped:
/// the outcome cache counts per instance, and metricsSnapshot(const
/// OutcomeCache *) (exec/OutcomeCache.h) fills them in. Adding a
/// counter is one CLFUZZ_COUNTERS line plus its bump() site
/// (docs/architecture.md, "Counters").
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_SUPPORT_METRICS_H
#define CLFUZZ_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace clfuzz {

/// The `--stats` line a counter prints on.
enum class CounterFamily : uint8_t { Cache, Vm, Compile, Triage, Fleet };
constexpr size_t NumCounterFamilies = 5;

// X(enum name, --stats key, family). The compile phases are (count,
// nanoseconds) pairs in CompilePhase order (device/CompileCounters.h).
#define CLFUZZ_COUNTERS(X)                                                   \
  X(CacheHits, "cache_hits", Cache)                                          \
  X(CacheMisses, "cache_misses", Cache)                                      \
  X(CacheCoalesced, "coalesced", Cache)                                      \
  X(VmInstructions, "vm_instructions", Vm)                                   \
  X(VmFused, "vm_fused", Vm)                                                 \
  X(VmLaunches, "vm_launches", Vm)                                           \
  X(VmEngineReuses, "vm_engine_reuses", Vm)                                  \
  X(VmMemoHits, "vm_memo_hits", Vm)                                          \
  X(CompileParses, "compile_parses", Compile)                                \
  X(CompileParseNs, "compile_parse_ns", Compile)                             \
  X(CompileSemas, "compile_semas", Compile)                                  \
  X(CompileSemaNs, "compile_sema_ns", Compile)                               \
  X(CompileClones, "compile_clones", Compile)                                \
  X(CompileCloneNs, "compile_clone_ns", Compile)                             \
  X(CompileOpts, "compile_opts", Compile)                                    \
  X(CompileOptNs, "compile_opt_ns", Compile)                                 \
  X(CompileCodegens, "compile_codegens", Compile)                            \
  X(CompileCodegenNs, "compile_codegen_ns", Compile)                         \
  X(CompileExecs, "compile_execs", Compile)                                  \
  X(CompileExecNs, "compile_exec_ns", Compile)                               \
  X(TriageWitnesses, "triage_witnesses", Triage)                             \
  X(TriageProbes, "triage_probes", Triage)                                   \
  X(TriageClusters, "triage_clusters", Triage)                               \
  X(FleetJoins, "fleet_joins", Fleet)                                        \
  X(FleetLeaves, "fleet_leaves", Fleet)                                      \
  X(FleetEvictions, "fleet_evictions", Fleet)                                \
  X(FleetRedials, "fleet_redials", Fleet)                                    \
  X(FleetRequeues, "fleet_requeues", Fleet)

enum class Counter : uint8_t {
#define CLFUZZ_COUNTER_ENUM(Name, Key, Family) Name,
  CLFUZZ_COUNTERS(CLFUZZ_COUNTER_ENUM)
#undef CLFUZZ_COUNTER_ENUM
};

#define CLFUZZ_COUNTER_ONE(Name, Key, Family) +1
constexpr size_t NumCounters = 0 CLFUZZ_COUNTERS(CLFUZZ_COUNTER_ONE);
#undef CLFUZZ_COUNTER_ONE

/// A counter's `--stats` key and line family.
struct CounterInfo {
  const char *Key;
  CounterFamily Family;
};

inline constexpr CounterInfo CounterTable[NumCounters] = {
#define CLFUZZ_COUNTER_INFO(Name, Key, Family) {Key, CounterFamily::Family},
    CLFUZZ_COUNTERS(CLFUZZ_COUNTER_INFO)
#undef CLFUZZ_COUNTER_INFO
};

namespace detail {
/// The registry's slots, indexed by Counter. Use bump() and
/// metricsSnapshot(), never the array.
extern std::atomic<uint64_t> CounterSlots[NumCounters];
} // namespace detail

/// Adds \p N to \p C (relaxed; safe from any thread).
inline void bump(Counter C, uint64_t N = 1) {
  detail::CounterSlots[static_cast<size_t>(C)].fetch_add(
      N, std::memory_order_relaxed);
}

/// Reads one slot (relaxed).
inline uint64_t counterValue(Counter C) {
  return detail::CounterSlots[static_cast<size_t>(C)].load(
      std::memory_order_relaxed);
}

/// Every counter's value at one moment (or a difference of two such
/// moments), indexed by Counter.
struct MetricsSnapshot {
  std::array<uint64_t, NumCounters> Values{};

  uint64_t &operator[](Counter C) { return Values[static_cast<size_t>(C)]; }
  uint64_t operator[](Counter C) const {
    return Values[static_cast<size_t>(C)];
  }

  MetricsSnapshot &operator+=(const MetricsSnapshot &O) {
    for (size_t I = 0; I != NumCounters; ++I)
      Values[I] += O.Values[I];
    return *this;
  }

  friend MetricsSnapshot operator-(MetricsSnapshot A,
                                   const MetricsSnapshot &B) {
    for (size_t I = 0; I != NumCounters; ++I)
      A.Values[I] -= B.Values[I];
    return A;
  }
};

/// Reads every slot (relaxed; each slot is exact, the set is not one
/// atomic cut — callers that need exact deltas snapshot around work
/// nothing else runs concurrently with, as the scheduler does).
MetricsSnapshot metricsSnapshot();

} // namespace clfuzz

#endif // CLFUZZ_SUPPORT_METRICS_H
