//===- Metrics.cpp - The process-wide counter registry -------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

using namespace clfuzz;

std::atomic<uint64_t> clfuzz::detail::CounterSlots[NumCounters];

MetricsSnapshot clfuzz::metricsSnapshot() {
  MetricsSnapshot S;
  for (size_t I = 0; I != NumCounters; ++I)
    S.Values[I] = detail::CounterSlots[I].load(std::memory_order_relaxed);
  return S;
}
