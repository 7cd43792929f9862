//===- VM.h - NDRange executor for MiniCL bytecode --------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated OpenCL device: executes a CompiledModule over an
/// NDRange of work-items organised into work-groups, with
///
///  * four address spaces (global/constant buffers, a per-group local
///    arena, a per-thread private arena),
///  * collective barriers with *divergence detection* (threads of a
///    group must reach the same syntactic barrier the same number of
///    times, §3.1 of the paper),
///  * atomic read-modify-write operations (atomicity is inherent to
///    the instruction-granular scheduler),
///  * a seeded preemptive scheduler so that scheduling-dependent code
///    (e.g. ATOMIC SECTION winners) genuinely varies with the seed
///    while the paper's determinism discipline keeps results stable,
///  * an optional happens-before data-race detector (used to reproduce
///    the paper's discovery of races in Parboil spmv and Rodinia
///    myocyte, §2.4), and
///  * step budgets producing Timeout outcomes, plus memory traps
///    producing Crash outcomes.
///
/// Work-groups execute sequentially; OpenCL 1.x provides no inter-group
/// synchronisation, so any program for which this is observable is by
/// definition racy (§4.2).
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_VM_VM_H
#define CLFUZZ_VM_VM_H

#include "vm/Bytecode.h"
#include "vm/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace clfuzz {

/// A host-visible memory buffer bound to a kernel argument.
struct Buffer {
  AddressSpace Space = AddressSpace::Global;
  std::vector<uint8_t> Bytes;

  /// Reads a little-endian scalar at byte \p Offset.
  uint64_t readScalar(uint64_t Offset, unsigned ByteWidth) const;
  /// Writes a little-endian scalar at byte \p Offset.
  void writeScalar(uint64_t Offset, unsigned ByteWidth, uint64_t Bits);
};

/// One kernel argument: either an index into the launch's buffer list
/// or an immediate scalar value.
struct KernelArg {
  bool IsBuffer = true;
  unsigned BufferIndex = 0;
  Value Scalar;

  static KernelArg buffer(unsigned Index) {
    KernelArg A;
    A.IsBuffer = true;
    A.BufferIndex = Index;
    return A;
  }
  static KernelArg scalar(Value V) {
    KernelArg A;
    A.IsBuffer = false;
    A.Scalar = V;
    return A;
  }
};

/// The grid geometry (always 3D; lower-dimensional launches use 1s).
struct NDRange {
  uint32_t Global[3] = {1, 1, 1};
  uint32_t Local[3] = {1, 1, 1};

  uint64_t globalLinear() const {
    return static_cast<uint64_t>(Global[0]) * Global[1] * Global[2];
  }
  uint64_t localLinear() const {
    return static_cast<uint64_t>(Local[0]) * Local[1] * Local[2];
  }
  uint32_t numGroups(unsigned Dim) const {
    return Global[Dim] / Local[Dim];
  }
  uint64_t numGroupsLinear() const {
    return static_cast<uint64_t>(numGroups(0)) * numGroups(1) *
           numGroups(2);
  }
  /// True if each local size divides the corresponding global size.
  bool valid() const {
    for (int I = 0; I != 3; ++I)
      if (Local[I] == 0 || Global[I] == 0 || Global[I] % Local[I] != 0)
        return false;
    return true;
  }
};

/// Launch tuning knobs.
struct LaunchOptions {
  NDRange Range;
  /// Total dynamic instruction budget; exhausting it yields Timeout
  /// (the stand-in for the paper's 60-second test timeout).
  uint64_t StepBudget = 400'000'000;
  /// Seed for the preemptive scheduler.
  uint64_t SchedulerSeed = 0;
  /// Enables the data-race detector (slower).
  bool DetectRaces = false;
  /// Private arena bytes per work-item. Reserved untouched and
  /// poisoned on first reach, so resident memory follows the frames a
  /// kernel touches (docs/vm.md §4).
  uint64_t PrivateArenaSize = 1 << 16;
  unsigned MaxCallDepth = 64;
};

/// Launch outcome classification.
enum class LaunchStatus : uint8_t {
  Success,
  Trap,              ///< runtime fault (maps to the paper's "crash")
  Timeout,           ///< step budget exhausted
  BarrierDivergence, ///< undefined behaviour per the OpenCL spec
  InvalidLaunch,     ///< bad geometry or argument mismatch
};

const char *launchStatusName(LaunchStatus S);

/// Result of one kernel launch.
struct LaunchResult {
  LaunchStatus Status = LaunchStatus::InvalidLaunch;
  std::string Message;
  uint64_t StepsExecuted = 0;
  bool RaceFound = false;
  std::string RaceMessage;

  bool ok() const { return Status == LaunchStatus::Success; }
};

//===----------------------------------------------------------------------===//
// Interpreter tuning (dispatch strategy, superinstruction fusion)
//===----------------------------------------------------------------------===//

/// Dispatch strategy for the interpreter hot loop. Both strategies
/// share one handler-body implementation and are bit-identical in
/// every observable output; only wall-clock speed differs.
enum class VmDispatch : uint8_t {
  Switch, ///< portable for(;;)/switch loop
  Goto,   ///< token-threaded computed-goto loop (GCC/Clang extension)
};

/// True when the binary was compiled with computed-goto support.
bool vmHasGotoDispatch();

/// The process-wide dispatch mode. Resolved once from
/// `CLFUZZ_VM_DISPATCH=switch|goto` (default: goto where compiled in),
/// unless overridden via setVmDispatchMode (the `--vm-dispatch=` flag,
/// conformance tests). Requests for Goto degrade to Switch when the
/// feature is not compiled in.
VmDispatch vmDispatchMode();
void setVmDispatchMode(VmDispatch D);
const char *vmDispatchName(VmDispatch D);
/// Parses "switch" / "goto"; returns false on anything else.
bool parseVmDispatch(const char *Name, VmDispatch &Out);

/// Process-wide superinstruction-fusion toggle, resolved once from
/// `CLFUZZ_VM_FUSE=0|1` (default on) unless overridden. Read at
/// codegen time; fused and unfused modules execute bit-identically.
bool vmFusionEnabled();
void setVmFusionEnabled(bool Enabled);

/// Cumulative per-process interpreter counters (monotonic, updated
/// once per launch — never from the hot loop). Worker processes
/// (procs/remote backends) accumulate their own; the coordinator only
/// sees launches it executed in-process. A view of the `vm` family of
/// the counter registry (support/Metrics.h).
struct VmCounters {
  uint64_t Instructions = 0;  ///< dynamic instructions (fused pair = 2)
  uint64_t FusedExecuted = 0; ///< superinstruction dispatches (pair = 1)
  uint64_t Launches = 0;      ///< kernel launches executed
  uint64_t EngineReuses = 0;  ///< launches served by a reused engine
  uint64_t MemoHits = 0;      ///< launches a LaunchMemo replayed
};
VmCounters vmCounters();

//===----------------------------------------------------------------------===//
// Launch API
//===----------------------------------------------------------------------===//

/// A reusable launch session. Successive launches reuse the engine's
/// thread contexts, operand stacks and arenas (re-poisoned to the
/// deterministic 0xab fill up to their previous high-water mark), so
/// the cells of a campaign column pay the allocation cost once. Reuse
/// is observationally identical to constructing a fresh engine per
/// launch — including after a Trap, Timeout or BarrierDivergence —
/// which VmDispatchConformanceTest pins. Not thread-safe; use one
/// instance per thread.
class VmInstance {
public:
  VmInstance();
  ~VmInstance();
  VmInstance(VmInstance &&) noexcept;
  VmInstance &operator=(VmInstance &&) noexcept;

  /// Executes \p Module over \p Opts.Range, binding \p Args (buffer
  /// arguments index into \p Buffers, which the kernel mutates in
  /// place).
  LaunchResult launch(const CompiledModule &Module,
                      std::vector<Buffer> &Buffers,
                      const std::vector<KernelArg> &Args,
                      const LaunchOptions &Opts);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Executes \p Module over \p Opts.Range, binding \p Args (buffer
/// arguments index into \p Buffers, which the kernel mutates in
/// place). Launches run on a per-thread VmInstance, so back-to-back
/// launches on one thread reuse engine state (zero-allocation fast
/// path); construct a VmInstance directly for explicit control.
LaunchResult launchKernel(const CompiledModule &Module,
                          std::vector<Buffer> &Buffers,
                          const std::vector<KernelArg> &Args,
                          const LaunchOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_VM_VM_H
