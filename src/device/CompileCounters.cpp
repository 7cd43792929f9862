//===- CompileCounters.cpp - Per-phase compile profiler ----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "device/CompileCounters.h"

#include "support/Metrics.h"

using namespace clfuzz;

// Each phase owns two adjacent registry slots, its count then its
// nanoseconds, in CompilePhase order.
static_assert(static_cast<size_t>(Counter::CompileExecNs) ==
                  static_cast<size_t>(Counter::CompileParses) +
                      2 * static_cast<size_t>(CompilePhase::Exec) + 1,
              "compile counters must be (count, ns) pairs in phase order");

void clfuzz::addCompilePhaseSample(CompilePhase P, uint64_t Ns) {
  size_t Count = static_cast<size_t>(Counter::CompileParses) +
                 2 * static_cast<size_t>(P);
  bump(static_cast<Counter>(Count));
  bump(static_cast<Counter>(Count + 1), Ns);
}

CompileCounters clfuzz::compileCounters() {
  return {counterValue(Counter::CompileParses),
          counterValue(Counter::CompileParseNs),
          counterValue(Counter::CompileSemas),
          counterValue(Counter::CompileSemaNs),
          counterValue(Counter::CompileClones),
          counterValue(Counter::CompileCloneNs),
          counterValue(Counter::CompileOpts),
          counterValue(Counter::CompileOptNs),
          counterValue(Counter::CompileCodegens),
          counterValue(Counter::CompileCodegenNs),
          counterValue(Counter::CompileExecs),
          counterValue(Counter::CompileExecNs)};
}
