//===- ReductionQueue.h - Background reduction job queue --------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A background job queue that shrinks wrong-code witnesses while the
/// campaign that found them keeps hunting at full speed - reduction is
/// just another scheduled workload over the shared backend machinery,
/// not a blocking epilogue. `clfuzz hunt --reduce` submits every
/// witness here and drains the queue after the campaign; each worker
/// thread runs reduceTest with its own ExecBackend (--reduce-backend),
/// so crashy witnesses can reduce under process isolation while the
/// campaign proper stays on a faster backend — and with
/// --reduce-backend=remote each background job dials its own
/// connections to the `clfuzz worker` fleet (exec/RemoteBackend.h),
/// farming candidate probes off-machine entirely. A backend failure
/// (the whole fleet unreachable, say) is contained: it surfaces as
/// that job's ReductionResult::Error, never as a dead campaign.
/// docs/reduction.md documents the full design.
///
/// Two execution modes:
///
///  * Threaded (Workers >= 1): the historical mode. A fixed pool of
///    background threads pops jobs FIFO, each reducing with its own
///    backend built from Opts.Exec.
///  * Scheduler-driven (Workers == 0): no threads are spawned; the
///    queue is a passive job store and the campaign scheduler
///    (src/sched/) pulls jobs one at a time via runNextPending() on
///    its own thread — the queue's priority lane. In this mode
///    ReducerOptions::Backend typically points at the scheduler's
///    shared backend, which is safe precisely because the scheduler
///    serializes steps.
///
/// Determinism: each job's reduction is bit-identical regardless of
/// which worker runs it or when (reduceTest's contract), and drain()
/// returns results sorted by (OrderKey, Label) - so a hunt's report is
/// byte-identical however the background work interleaves.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_ORACLE_REDUCTIONQUEUE_H
#define CLFUZZ_ORACLE_REDUCTIONQUEUE_H

#include "oracle/Reducer.h"
#include "triage/Triage.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

namespace clfuzz {

/// Asks the queue to triage the reduced witness after reduction
/// succeeds (src/triage/): bisection probes ride the job's own
/// scheduling — the job's backend, priority and run settings — so
/// triage works identically threaded and scheduler-driven.
struct TriageRequest {
  DeviceConfig Config; ///< the configuration the witness misbehaves on
  bool Opt = false;    ///< the misbehaving opt level
};

/// One witness awaiting reduction.
struct ReductionJob {
  /// Primary sort key for deterministic drain order (hunt uses the
  /// witness's test index).
  uint64_t OrderKey = 0;
  /// Human-readable witness tag ("seed 102 config 12+"); secondary
  /// sort key and the trace's "job" field.
  std::string Label;
  TestCase Witness;
  std::shared_ptr<const ReductionOracle> Oracle;
  /// When set, the reduced witness is triaged in the same job
  /// (`hunt --reduce --triage`, `clfuzz triage`).
  std::optional<TriageRequest> Triage;
};

/// A finished reduction.
struct ReductionResult {
  uint64_t OrderKey = 0;
  std::string Label;
  TestCase Reduced;
  ReduceStats Stats;
  /// The triage verdict, when the job requested one and reduction
  /// succeeded.
  std::optional<TriageResult> Triage;
  /// The job's JSONL trace (only when the queue captures traces).
  std::string Trace;
  /// Non-empty when the reduction aborted (e.g. its backend failed);
  /// Reduced is then the unreduced witness. A failed background job
  /// never takes the campaign down.
  std::string Error;
};

/// The one reduce-then-triage sequence, run by every queued job and by
/// the `reduce` and `triage` campaigns: shrinks \p Witness under
/// \p Oracle with \p Opts, then, when \p Triage is set, bisects the
/// reduced witness with probes riding the reduction's own scheduling —
/// the same ReducerOptions, so the same backend and run settings:
/// cache- and remote-transparent by construction. A witness the oracle rejects
/// outright is triaged as it stands (the verdict says it does not
/// reproduce) unless \p TriageUninteresting is false. Fills Reduced,
/// Stats and Triage; exceptions propagate to the caller.
ReductionResult reduceAndTriage(const TestCase &Witness,
                                const ReductionOracle &Oracle,
                                const ReducerOptions &Opts,
                                const std::optional<TriageRequest> &Triage,
                                bool TriageUninteresting = true);

/// Pool of reduction workers fed from a FIFO — or, with Workers == 0,
/// a passive store the campaign scheduler services.
class ReductionQueue {
public:
  /// \p Workers background threads reduce jobs with \p Opts; with
  /// Workers == 0 no threads are spawned and jobs only run when a
  /// driver calls runNextPending() (the scheduler-driven mode above).
  /// When \p CaptureTrace is set, each job's JSONL trace is buffered
  /// and returned with its result (any ReducerOptions::Trace in
  /// \p Opts is replaced).
  ReductionQueue(ReducerOptions Opts, unsigned Workers,
                 bool CaptureTrace = false);
  ~ReductionQueue();

  ReductionQueue(const ReductionQueue &) = delete;
  ReductionQueue &operator=(const ReductionQueue &) = delete;

  /// Enqueues a witness; returns immediately.
  void submit(ReductionJob Job);

  /// True while at least one submitted job has not been picked up yet.
  bool hasPending() const;

  /// True once every submitted job has finished (trivially true when
  /// nothing was submitted).
  bool allDone() const;

  /// Runs the oldest pending job to completion on the calling thread;
  /// returns false if nothing was pending. The scheduler's service
  /// entry point in Workers == 0 mode and each worker thread's step —
  /// the FIFO pop is atomic either way.
  bool runNextPending();

  /// Blocks until every submitted job finished. With Workers == 0 this
  /// only returns once some thread ran the jobs via runNextPending();
  /// a solo (threaded) driver uses it as its wait-for-quiet point.
  void waitAll();

  /// Blocks until every submitted job finished; returns all results
  /// accumulated since the last drain, sorted by (OrderKey, Label).
  std::vector<ReductionResult> drain();

private:
  void workerLoop();
  void runJob(ReductionJob Job);

  ReducerOptions Opts;
  bool CaptureTrace;
  std::vector<std::thread> Threads;

  mutable std::mutex M;
  std::condition_variable CV;     ///< workers: work available / stop
  std::condition_variable DoneCV; ///< drain(): all jobs finished
  std::deque<ReductionJob> Pending;
  std::vector<ReductionResult> Results;
  size_t Submitted = 0;
  size_t Finished = 0;
  bool Stopping = false;
};

} // namespace clfuzz

#endif // CLFUZZ_ORACLE_REDUCTIONQUEUE_H
