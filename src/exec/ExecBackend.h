//===- ExecBackend.h - Pluggable campaign execution backends ----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution half of the streaming campaign pipeline
/// (TestSource -> ExecBackend -> ResultSink). An ExecBackend runs
/// batches of campaign cells; campaign drivers are written against
/// this interface and never against a concrete scheduler, so a run can
/// move from one core to a thread pool to isolated worker processes by
/// flipping ExecOptions::Backend.
///
/// The load-bearing contract, shared by every implementation and
/// pinned by tests/BackendConformanceTest.cpp:
///
///  * run() returns Results[I] == outcome of Jobs[I] — keyed by
///    submission index, never by completion order;
///  * for a fixed seed, every backend at every worker count produces
///    bit-identical campaign tables;
///  * jobs are pure functions of their descriptors: all randomness a
///    job needs is derived up front (Rng::forkForJob and the seeds in
///    the descriptor), so a job can be replayed by any worker — thread
///    or subprocess — with the same result.
///
/// Implementations:
///
///  * InlineBackend — serial, on the calling thread; the reference
///    semantics everything else must match.
///  * ThreadPoolBackend — persistent worker threads claiming indices
///    from a shared queue. Fast, but a job that crashes the process
///    takes the campaign with it.
///  * ProcessPoolBackend (exec/ProcessPool.h) — forked worker
///    subprocesses fed column frames over pipes; a VM crash or a
///    runaway timeout kills one worker, is recorded as that job's
///    outcome, and the campaign keeps going.
///  * RemoteBackend (exec/RemoteBackend.h) — the same column frames
///    over TCP to `clfuzz worker` processes on any number of machines;
///    worker death requeues its unanswered cells and results
///    reassemble by submission index.
///
/// The two out-of-process backends share one dispatch loop, one frame
/// codec and one failure rule (exec/Dispatch.h, exec/WireProtocol.h).
///
/// When ExecOptions::Cache is set, makeBackend() wraps the chosen
/// implementation in the content-addressed outcome cache
/// (exec/OutcomeCache.h): identical job descriptors are served from
/// cache or coalesced within a batch instead of re-executing, with
/// byte-identical campaign output either way.
///
/// docs/architecture.md walks the whole pipeline and the invariants.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_EXECBACKEND_H
#define CLFUZZ_EXEC_EXECBACKEND_H

#include "device/Driver.h"

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace clfuzz {

/// Which ExecBackend implementation a campaign schedules its cells on.
/// Every backend produces bit-identical tables for a fixed seed; they
/// differ only in wall-clock behaviour and fault isolation.
enum class BackendKind : uint8_t {
  Inline,  ///< serial, on the calling thread
  Threads, ///< ThreadPoolBackend (Threads == 1 is serial)
  Procs,   ///< forked process pool; crashes are isolated
  Remote,  ///< socket-fed `clfuzz worker` fleet (exec/RemoteBackend.h)
};

/// Printable name ("inline" / "threads" / "procs" / "remote").
const char *backendKindName(BackendKind K);
/// Parses a --backend= value; returns false on an unknown name.
bool parseBackendKind(const std::string &Name, BackendKind &Out);

/// Backend tuning, threaded through campaign / reducer settings.
struct ExecOptions {
  /// Worker count: 1 = serial inline execution, 0 = one worker per
  /// hardware thread, N = exactly N workers (clamped to MaxThreads —
  /// campaign results are thread-count-invariant, so clamping never
  /// changes output, only guards against absurd worker counts).
  unsigned Threads = 1;

  /// Which ExecBackend implementation makeBackend() builds. Threads is
  /// the default: with Threads == 1 it degrades to the serial inline
  /// path, so the historical ExecOptions{N} behaviour is unchanged.
  BackendKind Backend = BackendKind::Threads;

  /// Upper bound on the number of TestCases a campaign driver holds
  /// alive at once per mode: sources are pulled in shards of at most
  /// this many tests, and a shard is dropped before the next one is
  /// generated. Memory is O(ShardSize), not O(KernelsPerMode).
  unsigned ShardSize = 64;

  /// Wall-clock deadline per job in milliseconds, enforced only by the
  /// process-pool backend (the thread pool cannot safely kill a
  /// runaway job). 0 disables the deadline. The VM's step budget
  /// already bounds simulated runs, so this only matters for genuinely
  /// runaway executions.
  unsigned ProcTimeoutMs = 0;

  /// Remote backend only: the `clfuzz worker` endpoints ("host:port"
  /// each) the coordinator multiplexes jobs over. Required (and only
  /// meaningful) with Backend == BackendKind::Remote.
  std::vector<std::string> RemoteWorkers;

  /// Remote backend only: coordinator-side wall-clock deadline per
  /// dispatched job in milliseconds. A worker that blows it is
  /// disconnected and the job requeued once (second expiry = Timeout
  /// outcome). 0 disables. Distinct from ProcTimeoutMs, which the
  /// *worker's* local process pool enforces per job.
  unsigned RemoteTimeoutMs = 0;

  /// Remote backend only: idle interval (ms) after which a busy,
  /// silent worker is probed with a heartbeat frame; a probe
  /// unanswered for another interval counts as worker death. 0
  /// disables liveness probing (a wedged worker then hangs the
  /// campaign unless RemoteTimeoutMs is set).
  unsigned RemoteHeartbeatMs = 2000;

  /// Content-addressed outcome cache shared by whatever backends are
  /// built from these options (exec/OutcomeCache.h); null = no
  /// caching. makeBackend() wraps the concrete backend so identical
  /// job descriptors are served from cache (and coalesced within a
  /// batch) instead of re-executing. Cache hits are observationally
  /// invisible: campaign output is byte-identical with or without a
  /// cache — only wall-clock time and the --stats counters change.
  std::shared_ptr<class OutcomeCache> Cache;

  /// Remote backend only: the rendezvous registry rendering the fleet
  /// elastic (exec/FleetRegistry.h); null = static fleet. When set,
  /// the remote backend adopts workers the registry has admitted at
  /// every dispatch boundary, so the fleet grows mid-campaign; with a
  /// registry present RemoteWorkers may be empty (the fleet is then
  /// built entirely from joins). Share one registry with exactly one
  /// backend at a time — an adopted socket has a single owner.
  std::shared_ptr<class FleetRegistry> Fleet;

  /// Upper bound resolvedThreads() clamps to.
  static constexpr unsigned MaxThreads = 256;

  /// Threads with 0 resolved to the hardware concurrency.
  unsigned resolvedThreads() const;
  /// ShardSize with 0 clamped to 1.
  unsigned resolvedShardSize() const {
    return ShardSize == 0 ? 1 : ShardSize;
  }

  static ExecOptions serial() { return ExecOptions{1}; }
  static ExecOptions withThreads(unsigned N) { return ExecOptions{N}; }
  static ExecOptions withBackend(BackendKind K, unsigned N = 1) {
    ExecOptions O{N};
    O.Backend = K;
    return O;
  }
};

/// One campaign cell: a test to run on a configuration (or on the
/// clean reference when Config is null) at one opt level.
struct ExecJob {
  const TestCase *Test = nullptr;
  const DeviceConfig *Config = nullptr; ///< null = reference run
  bool Opt = false;
  RunSettings Settings;

  static ExecJob onConfig(const TestCase &T, const DeviceConfig &C,
                          bool Opt, const RunSettings &S) {
    return ExecJob{&T, &C, Opt, S};
  }
  static ExecJob onReference(const TestCase &T, bool Opt,
                             const RunSettings &S) {
    return ExecJob{&T, nullptr, Opt, S};
  }
};

/// Executes one job on the calling thread (pure; every in-process
/// backend's cells end here).
RunOutcome runExecJob(const ExecJob &Job);

/// A campaign column: the consecutive cells of one test — every job
/// references the same TestCase — in submission order. Executing a
/// column as a unit lets the executor parse and check the kernel
/// source once and reuse the front end for every cell (device/Driver.h's
/// TestFrontEnd): pass-free cells read it, optimising cells deep-clone
/// it (see frontEndUseFor) — instead of re-parsing per cell. Columns
/// are an execution-granularity choice only: outcomes are
/// byte-identical to running the same jobs cell-by-cell, and the
/// outcome cache keeps keying per cell.
struct ExecColumn {
  std::vector<ExecJob> Jobs;
};

/// Groups a flat job list into maximal columns of consecutive jobs
/// sharing one TestCase (pointer identity). Flattening the result
/// reproduces \p Jobs exactly, so per-index outcome keying is
/// unchanged.
std::vector<ExecColumn> groupIntoColumns(const std::vector<ExecJob> &Jobs);

/// Executes one column on the calling thread, sharing a lazily built
/// TestFrontEnd across its cells (each reads or clones it, see
/// frontEndUseFor) and a LaunchMemo, so each distinct launch runs once
/// (fault-injection cells and one-cell columns bypass both). Outcomes
/// are in job order and byte-identical to per-cell runExecJob calls,
/// which parse per cell. The thread pool runs the same per-column cell
/// runner, with the column's cells spread over its lanes.
std::vector<RunOutcome> runExecColumn(const ExecColumn &Column);


/// Abstract batch executor for campaign cells.
class ExecBackend {
public:
  virtual ~ExecBackend();

  /// "inline", "threads", "procs" or "remote".
  virtual BackendKind kind() const = 0;

  /// Number of cells the backend can run concurrently (>= 1).
  virtual unsigned concurrency() const = 0;

  /// Runs a batch of cells. Results[I] is Jobs[I]'s outcome, for every
  /// implementation — the bit-identity contract hangs off this.
  virtual std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) = 0;

  /// Runs a batch of campaign columns (ExecColumn above): the
  /// flattened outcome vector matches a run() over the flattened job
  /// list byte for byte. Backends override this to share one front end
  /// and launch memo among a column's cells; the default flattens and
  /// delegates to run(), which is what the caching wrapper does (cache
  /// keys stay per-cell).
  virtual std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns);

  /// Runs \p Body(I) for every I in [0, N) *in this process*. Sources
  /// use this for generation-side work (building TestCases, EMI
  /// variants) whose closures cannot cross a process boundary; only
  /// the thread-pool backend parallelises it. Iterations may run
  /// concurrently and MUST be independent: \p Body may only write
  /// state owned by its own index (e.g. its slot of a result vector).
  /// Exception contract on every backend: all N indices run; the
  /// first exception (in completion order) is rethrown after the
  /// batch drains. This base implementation is the serial loop.
  virtual void forEachIndex(size_t N,
                            const std::function<void(size_t)> &Body);

  const char *name() const { return backendKindName(kind()); }
};

/// Serial reference backend: every cell runs on the calling thread.
class InlineBackend final : public ExecBackend {
public:
  BackendKind kind() const override { return BackendKind::Inline; }
  unsigned concurrency() const override { return 1; }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override;
};

/// Thread-pool backend. Workers are spawned once in the constructor
/// and parked on a condition variable between batches, so per-batch
/// overhead is a couple of notifications rather than thread churn. N
/// threads means N-1 workers plus the submitting thread, which claims
/// indices alongside them. One-thread pools and one-index batches run
/// the base class's serial loop and wake no worker, so Threads == 1
/// doubles as the historical serial path.
///
/// runColumns keeps every lane busy in narrow and ragged batches:
/// lanes claim whole columns in order and work through them from the
/// front; once no column is left unclaimed, an idle lane steals the
/// last unstarted cell of the column with the most unstarted cells
/// and runs it against that column's front end and launch memo. Each
/// cell runs exactly once, so outcomes and the compile and VM
/// counters equal a serial run's: one parse per column, one clone per
/// optimising cell, and the same launches and memo hits.
class ThreadPoolBackend final : public ExecBackend {
public:
  explicit ThreadPoolBackend(const ExecOptions &Opts = ExecOptions());
  ~ThreadPoolBackend() override;

  ThreadPoolBackend(const ThreadPoolBackend &) = delete;
  ThreadPoolBackend &operator=(const ThreadPoolBackend &) = delete;

  BackendKind kind() const override { return BackendKind::Threads; }
  unsigned concurrency() const override { return NumThreads; }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override;
  /// Generation-side work: cheap and uniform, so it claims several
  /// indices at a time, scaled to the batch — N / (4 x threads),
  /// clamped to [1, CheapClaimChunk] — so a wide batch cuts lock
  /// traffic while a narrow one (a reduction round's window of one
  /// candidate per lane to print) still spreads over every lane.
  void forEachIndex(size_t N,
                    const std::function<void(size_t)> &Body) override;

  /// ExecBackend::forEachIndex with an explicit claim size: the number
  /// of indices a thread claims per queue lock acquisition. Cheap
  /// bodies claim up to CheapClaimChunk to cut lock traffic on wide
  /// machines; timeout-heavy bodies (campaign cells that can burn a
  /// whole step budget) claim 1 so a slow cell never strands cheap
  /// neighbours behind it. Results are keyed by index either way, so
  /// the claim size never changes output, only lock traffic.
  void forEachIndex(size_t N, const std::function<void(size_t)> &Body,
                    unsigned ClaimChunk);

  /// The largest claim of the generation-side overload.
  static constexpr unsigned CheapClaimChunk = 8;

private:
  /// Claims and runs index chunks of batch \p Batch until its queue is
  /// empty. Pool workers and the submitting thread both run it.
  void claimUntilDrained(uint64_t Batch);
  void workerLoop();
  /// Wakes every worker to exit and joins it.
  void stopWorkers();

  unsigned NumThreads = 1;

  // Batch state, guarded by M / CV (workers) and DoneCV (submitter).
  std::mutex M;
  std::condition_variable CV;
  std::condition_variable DoneCV;
  const std::function<void(size_t)> *Body = nullptr;
  size_t NextIndex = 0;
  size_t EndIndex = 0;
  size_t DoneCount = 0;
  unsigned BatchClaimChunk = 1;
  uint64_t BatchId = 0;
  std::exception_ptr FirstError;
  bool ShuttingDown = false;

  // Declared last: the workers use every member above.
  std::vector<std::thread> Workers;
};

/// Builds the backend ExecOptions asks for. The process pool falls
/// back to the inline backend on platforms without fork().
std::unique_ptr<ExecBackend> makeBackend(const ExecOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_EXECBACKEND_H
