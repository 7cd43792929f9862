//===- CompileCounters.h - Per-phase compile profiler -----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cumulative per-process counters for the compile pipeline, the
/// VmCounters analogue for everything that happens before (and around)
/// a launch: parse, sema, front-end clone, pass pipeline, codegen and
/// kernel execution, each with an invocation count and total
/// wall-clock nanoseconds: the `compile` family of the counter
/// registry (support/Metrics.h). Updated once per phase per cell from
/// device/Driver.cpp — never from inner loops — and surfaced by
/// `--stats` (compile_* lines) and per campaign by the scheduler's
/// around-step snapshot/delta accounting. Worker processes
/// (procs/remote backends) accumulate their own, exactly like the VM
/// counters; the coordinator only sees cells it compiled in-process.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_DEVICE_COMPILECOUNTERS_H
#define CLFUZZ_DEVICE_COMPILECOUNTERS_H

#include <cstdint>

namespace clfuzz {

/// The instrumented pipeline phases, in pipeline order.
enum class CompilePhase : uint8_t {
  Parse,   ///< parseProgram over the kernel source
  Sema,    ///< checkProgram over the parsed unit
  Clone,   ///< cloneContext of a shared front end (minicl/ASTClone.h)
  Opt,     ///< PassManager build + run
  Codegen, ///< compileToBytecode
  Exec,    ///< launchKernel (VM wall-clock as seen by the driver)
};

/// Snapshot of the per-process compile counters (monotonic).
struct CompileCounters {
  uint64_t Parses = 0;
  uint64_t ParseNs = 0;
  uint64_t Semas = 0;
  uint64_t SemaNs = 0;
  uint64_t Clones = 0;
  uint64_t CloneNs = 0;
  uint64_t Opts = 0;
  uint64_t OptNs = 0;
  uint64_t Codegens = 0;
  uint64_t CodegenNs = 0;
  uint64_t Execs = 0;
  uint64_t ExecNs = 0;

  /// Total pipeline nanoseconds; by construction the per-phase lines
  /// sum exactly to this.
  uint64_t totalNs() const {
    return ParseNs + SemaNs + CloneNs + OptNs + CodegenNs + ExecNs;
  }
};

/// Reads the process-wide counters (a view of the registry's compile
/// slots; relaxed, safe from any thread).
CompileCounters compileCounters();

/// Charges one completed phase: +1 invocation, +Ns wall-clock. Called
/// by the driver; not a stable external API.
void addCompilePhaseSample(CompilePhase P, uint64_t Ns);

} // namespace clfuzz

#endif // CLFUZZ_DEVICE_COMPILECOUNTERS_H
