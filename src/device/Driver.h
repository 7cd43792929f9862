//===- Driver.h - Simulated OpenCL driver (compile + run) -------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated equivalent of clCreateProgramWithSource +
/// clBuildProgram + clEnqueueNDRangeKernel: takes a test case (source
/// text plus host launch plan), compiles it through a configuration's
/// front end / pass pipeline / code generator (each with that
/// configuration's bug models) and executes it on the VM. Outcomes
/// mirror the paper's classification: build failure (bf), runtime
/// crash (c), timeout (to) or a computed result whose comparison
/// across configurations or EMI variants is the oracle's job.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_DEVICE_DRIVER_H
#define CLFUZZ_DEVICE_DRIVER_H

#include "device/DeviceConfig.h"
#include "gen/Generator.h"
#include "opt/Pass.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace clfuzz {

class ASTContext;

/// One test program plus its host-side launch plan. The source text is
/// the canonical representation: drivers re-parse it per run,
/// mirroring OpenCL's online compilation.
struct TestCase {
  std::string Name;
  std::string Source;
  NDRange Range;
  std::vector<BufferSpec> Buffers;

  static TestCase fromGenerated(const GeneratedKernel &K);
};

/// Per-run host settings.
struct RunSettings {
  /// Baseline dynamic-instruction budget, scaled by the
  /// configuration's SpeedFactor (the stand-in for the paper's
  /// 60-second timeout; 300 s for Oclgrind is modelled by the
  /// per-config factor).
  uint64_t BaseStepBudget = 8'000'000;
  uint64_t SchedulerSeed = 1;
  /// Inverts the dead array (dead[j] = d-1-j) so EMI blocks become
  /// live; used to discard base programs whose EMI blocks were placed
  /// in already-dead code (§7.4).
  bool InvertDead = false;
  bool DetectRaces = false;

  /// Pass-pipeline subset selector: bit I set means the pass at
  /// pipeline position I runs (in pipeline order). The default ~0
  /// runs the full pipeline — the everyday case. The triage bisector
  /// (src/triage/) probes subsets by varying this, so a probe is an
  /// ordinary ExecJob: serialized on the wire, cached by descriptor,
  /// executed on any backend unchanged.
  uint64_t PassMask = ~uint64_t(0);

  /// Fault-injection hooks, honoured by runExecJob() before the driver
  /// is entered. They exist so tests can prove the process-pool
  /// backend isolates worker failures; no campaign path sets them.
  bool DebugHardAbort = false; ///< abort() the executing process
  uint32_t DebugSpinMs = 0;    ///< stall this long (runaway-job model)
};

/// Outcome classes, in the paper's vocabulary.
enum class RunStatus : uint8_t {
  BuildFailure, ///< bf
  Crash,        ///< c (compiler or runtime; the paper merges them)
  Timeout,      ///< to
  Ok,           ///< computed a result
};

const char *runStatusName(RunStatus S);

/// The result of one (test, configuration, opt level) run.
struct RunOutcome {
  RunStatus Status = RunStatus::BuildFailure;
  std::string Message;
  /// Fingerprint of the printed output (comma-separated out[] values);
  /// equal fingerprints mean equal outputs.
  uint64_t OutputHash = 0;
  /// The first few output words, for human-readable reports.
  std::vector<uint64_t> OutputHead;
  uint64_t Steps = 0;
  bool RaceFound = false;
  std::string RaceMessage;

  bool ok() const { return Status == RunStatus::Ok; }
};

/// A test case's parsed-and-checked front end, computed once and
/// shared across the cells of a campaign column (one kernel run
/// against many configurations). Parsing and semantic checking are
/// configuration-independent — bug models only act from the
/// configuration-specific front-end checks onwards — so every cell of
/// a column can start from this one AST: pass-free cells read it
/// directly, and cells whose pipeline mutates the AST deep-clone it
/// (minicl/ASTClone.h) instead of re-running parse + sema (see
/// frontEndUseFor).
///
/// Sharing is observationally identical to per-cell parsing: the
/// parser is deterministic, so every cell would reconstruct this exact
/// AST from the same source, and a clone is structurally identical to
/// the AST a re-parse would build.
///
/// Once built it is read-only shared state: the cells of a column may
/// run on several threads at once (the thread pool's cell stealing,
/// exec/ExecBackend.h), and every use only reads it — cloneContext,
/// the front-end defect checks and codegen all take a const
/// ASTContext. Whoever shares one must finish building it before any
/// cell reads it.
class TestFrontEnd {
public:
  explicit TestFrontEnd(const TestCase &Test);
  ~TestFrontEnd();
  TestFrontEnd(TestFrontEnd &&) noexcept;
  TestFrontEnd &operator=(TestFrontEnd &&) noexcept;

  /// False when the program failed to parse or check; every cell of
  /// the column then reports the same BuildFailure.
  bool ok() const { return ParseOk; }
  const std::string &diagnostics() const { return Diags; }
  const ASTContext &context() const { return *Ctx; }

private:
  std::unique_ptr<ASTContext> Ctx;
  bool ParseOk = false;
  std::string Diags;
};

/// How a cell consumes a shared TestFrontEnd: the admission rule of
/// the driver, stated once so tests can count what it admits.
enum class FrontEndUse : uint8_t {
  /// The cell's pass pipeline is empty: codegen and the front-end
  /// defect checks only read, so the cell uses the shared AST as-is.
  ReadShared,
  /// The pipeline mutates the AST: the cell deep-clones the shared
  /// front end and hands the private copy to the PassManager.
  ClonePrivate,
};

/// The admission rule for a run of \p Config (null = reference) at
/// \p OptEnabled against a shared TestFrontEnd.
FrontEndUse frontEndUseFor(const DeviceConfig *Config, bool OptEnabled);

/// Always true: every column shares one front end. Kept only because
/// e2ebench records it in its result line, as the `--stats` compile
/// line keeps its constant ` compile_clone=on` key for the
/// stats_format goldens; both go with the next benchmark revision.
bool compileCloneEnabled();

/// Runs each distinct kernel launch of one campaign column once. On a
/// given kernel most configurations' bug models never fire, so most
/// cells of a column hand the VM the same bytecode, inputs, NDRange
/// and scheduler seed; the memo replays the first such launch for the
/// rest.
///
/// The key is everything a launch's outcome depends on except the
/// step budget: the module (every function's name, return type,
/// parameter offsets and types, frame size and instructions, with
/// types written by structure so modules compiled from a cloned
/// ASTContext match), the kernel index, local arena size and barrier
/// site count; the buffers' spaces and bytes; the arguments; the
/// output index; and every LaunchOptions field but StepBudget. A hash
/// match is confirmed by comparing the full key.
///
/// A stored Success replays exactly under any budget of at least its
/// StepsExecuted (the VM checks the budget only at slice starts and
/// clips only the last slice); every other status replays only under
/// an equal budget. Otherwise the launch runs and its result is
/// stored too.
///
/// Owned by the executor of one column and dropped with it: no state
/// outlives the column. Thread-safe: the cells of one column may run
/// on several threads (exec/ExecBackend.h). Launches of one key run
/// one at a time — a cell that finds an equal launch in flight waits
/// for it, then applies the reuse rule to what it stored — so
/// Launches and MemoHits come out as a serial run of the same cells
/// counts them, in any order: under the reuse rule the launch count
/// of a key depends only on the set of budgets its cells ask for.
class LaunchMemo {
public:
  LaunchMemo();
  ~LaunchMemo();

  /// launchKernel, or a replay of an earlier launch of this memo. A
  /// replay writes only Buffers[OutIndex] (the stored output bytes;
  /// nothing when OutIndex is negative) and counts one
  /// VmCounters::MemoHits instead of one Launches. \p WaitedNs, when
  /// non-null, is increased by the time spent waiting for another
  /// thread's equal launch.
  LaunchResult launch(const CompiledModule &Module,
                      std::vector<Buffer> &Buffers,
                      const std::vector<KernelArg> &Args, int OutIndex,
                      const LaunchOptions &Opts,
                      uint64_t *WaitedNs = nullptr);

private:
  struct Outcome;
  struct Slot;
  std::mutex M;
  std::condition_variable Landed; ///< an in-flight launch finished
  std::vector<Slot> Slots;        ///< guarded by M
};

/// Compiles and runs \p Test on \p Config with optimisations
/// enabled/disabled. \p SharedFE, when non-null, supplies the parsed
/// front end, read or cloned per frontEndUseFor; otherwise the source
/// is re-parsed (byte-identical outcome either way). \p Memo, when
/// non-null, serves the launch if the column already ran an equal one
/// (byte-identical outcome either way).
RunOutcome runTestOnConfig(const TestCase &Test,
                           const DeviceConfig &Config, bool OptEnabled,
                           const RunSettings &Settings = RunSettings(),
                           const TestFrontEnd *SharedFE = nullptr,
                           LaunchMemo *Memo = nullptr);

/// Reference run: no bug models, optimisations optional. Used by
/// tests, the EMI machinery and the reducer as a well-tested baseline
/// (the analogue of a trusted Oclgrind build).
RunOutcome runTestOnReference(const TestCase &Test, bool Optimize,
                              const RunSettings &Settings = RunSettings(),
                              const TestFrontEnd *SharedFE = nullptr,
                              LaunchMemo *Memo = nullptr);

/// The exact PassOptions the driver would hand buildPipeline for a
/// run of \p Test on \p Config at \p OptEnabled — the single source
/// of truth for the pipeline a cell executes (compileAndRun uses the
/// same derivation). The triage bisector calls this to learn the
/// pipeline's pass names without re-running compilation.
PassOptions passPipelineOptionsFor(const DeviceConfig &Config,
                                   bool OptEnabled, const TestCase &Test);

} // namespace clfuzz

#endif // CLFUZZ_DEVICE_DRIVER_H
