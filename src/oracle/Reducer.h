//===- Reducer.h - Backend-driven test-case reduction -----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A delta-debugging reducer for compiler-bug witnesses - the paper's
/// §8 notes that a reducer for OpenCL "would require a
/// concurrency-aware static analysis to avoid introducing data races";
/// ours revalidates every candidate dynamically instead: a reduction
/// step is kept only if the candidate (a) still parses and
/// sema-checks, (b) still runs cleanly on the reference configuration
/// with race detection and divergence checking enabled, and (c) is
/// still interesting per the caller's oracle (typically "this
/// configuration still miscompiles it").
///
/// Reduction is a first-class pipeline citizen: every candidate probe
/// is an ExecJob scheduled on an ExecBackend, so reducing a
/// crash-or-timeout witness under ExecOptions::Backend ==
/// BackendKind::Procs runs fork-isolated exactly like campaign cells
/// do - a candidate that kills the VM kills one disposable worker and
/// is judged from its Crash outcome. Each round's speculative
/// candidates stream through the same runShardedCampaign path as
/// campaigns (a ReductionCandidateSource / ReductionAcceptSink pair),
/// with deterministic first-accepted-in-submission-order acceptance:
/// the reduction sequence, the stats and the trace are bit-identical
/// on every backend at every worker count.
///
/// Search is priority-guided: mutation classes (statement deletion,
/// if-to-then, else-branch removal, loop unwrapping, dead-function
/// removal) are ordered by expected shrinkage learned from the
/// accepted-delta history, and when single-step rounds stall the
/// reducer escalates to multi-mutation candidates (2, then 4 joint
/// steps) before giving up - the classic ddmin move that unsticks
/// mutually-dependent statements.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_ORACLE_REDUCER_H
#define CLFUZZ_ORACLE_REDUCER_H

#include "device/Driver.h"
#include "exec/ExecBackend.h"

#include <cstdio>
#include <functional>

namespace clfuzz {

/// Declarative interestingness test, the only kind the reducer takes:
/// the oracle expands a candidate into probe jobs (which the reducer
/// runs on its ExecBackend, fork-isolated under procs) and judges the
/// outcomes.
/// judge() must be a pure function of the outcomes - it runs on the
/// reducer's calling thread and its verdict, not the probe execution,
/// is what the deterministic acceptance order hangs off.
class ReductionOracle {
public:
  virtual ~ReductionOracle();

  /// Appends the candidate's probe jobs. Called once per candidate on
  /// the calling thread; the jobs may execute on any worker.
  virtual void expandJobs(const TestCase &Candidate,
                          std::vector<ExecJob> &Jobs) const = 0;

  /// Classifies the probe outcomes (in expandJobs order): true = the
  /// candidate is still interesting.
  virtual bool judge(const std::vector<RunOutcome> &Outcomes) const = 0;

  /// True when the oracle's own probes already enforce the §8
  /// reference validation (clean, race-free reference run); the
  /// reducer then skips its separate validation job instead of
  /// running the reference twice per candidate.
  virtual bool selfValidates() const { return false; }
};

/// "Configuration \p Config at \p Opt still miscompiles it": the
/// candidate computes a value on both the reference and the
/// configuration, and the values disagree. The reference probe runs
/// with race detection and doubles as the §8 validation, so each
/// candidate costs exactly two jobs.
class DifferentialReductionOracle final : public ReductionOracle {
public:
  DifferentialReductionOracle(DeviceConfig Config, bool Opt,
                              RunSettings Run = RunSettings())
      : Config(std::move(Config)), Opt(Opt), Run(std::move(Run)) {}

  void expandJobs(const TestCase &Candidate,
                  std::vector<ExecJob> &Jobs) const override;
  bool judge(const std::vector<RunOutcome> &Outcomes) const override;
  bool selfValidates() const override { return true; }

private:
  DeviceConfig Config;
  bool Opt;
  RunSettings Run;
};

/// "Configuration \p Config at \p Opt still fails the same way": the
/// candidate's run still ends in \p Want (Crash, Timeout or
/// BuildFailure). Under the procs backend a candidate that kills its
/// worker is judged from the isolated Crash outcome, so crashy
/// witnesses reduce to completion without taking the reducer with
/// them.
class StatusReductionOracle final : public ReductionOracle {
public:
  StatusReductionOracle(DeviceConfig Config, bool Opt, RunStatus Want,
                        RunSettings Run = RunSettings())
      : Config(std::move(Config)), Opt(Opt), Want(Want),
        Run(std::move(Run)) {}

  void expandJobs(const TestCase &Candidate,
                  std::vector<ExecJob> &Jobs) const override;
  bool judge(const std::vector<RunOutcome> &Outcomes) const override;

private:
  DeviceConfig Config;
  bool Opt;
  RunStatus Want;
  RunSettings Run;
};

/// Statistics from one reduction.
struct ReduceStats {
  unsigned CandidatesTried = 0;   ///< evaluated through the backend
  unsigned CandidatesKept = 0;
  unsigned CandidatesSkipped = 0; ///< unprintable / duplicate / cached
  unsigned Rounds = 0;
  unsigned Escalations = 0;       ///< multi-mutation rounds entered
  unsigned InitialLines = 0;
  unsigned FinalLines = 0;
  /// False when the input itself failed its interestingness probe (the
  /// reduction returns the input unchanged).
  bool WitnessWasInteresting = true;
};

/// One observable reduction event, emitted in deterministic
/// (submission) order: trace streams are bit-identical across
/// backends and worker counts.
struct ReduceTraceEvent {
  enum class Kind : uint8_t {
    Witness, ///< the input's own interestingness probe
    Round,   ///< a round of speculative candidates begins
    Reject,  ///< a candidate was evaluated and judged uninteresting
    Accept,  ///< a candidate was kept; the round restarts on it
    Finish,  ///< reduction ended
  };
  Kind K = Kind::Round;
  unsigned Round = 0;
  unsigned Candidate = 0;          ///< 1-based tried-candidate number
  const char *MutationClass = ""; ///< Reject/Accept: first class in combo
  unsigned Combo = 1;              ///< mutations per candidate this round
  unsigned Enumerated = 0;         ///< Round: candidate groups this round
  unsigned Lines = 0;              ///< Witness/Round/Accept: best's lines
  bool Interesting = false;        ///< Witness: probe verdict
  ReduceStats Totals;              ///< Finish: the reduction's stats
};

using ReduceTraceFn = std::function<void(const ReduceTraceEvent &)>;

/// Renders one event as a JSONL object; \p Tag (when non-empty) is
/// prepended as a "job" field so multi-witness traces stay
/// attributable.
std::string renderReduceTraceJsonl(const ReduceTraceEvent &E,
                                   const std::string &Tag = {});

/// Trace sink streaming JSONL lines to \p Out.
ReduceTraceFn makeJsonlReduceTrace(std::FILE *Out, std::string Tag = {});

/// Reducer tuning: budget, settings and scheduling. The search itself
/// has no knobs: every candidate passes the §8 reference validation,
/// one stalled round escalates to 2- then 4-mutation candidates, and
/// each round's candidates print from one parse of the current best
/// kernel across the backend's executors (which changes wall-clock
/// time only).
struct ReducerOptions {
  /// Upper bound on candidate evaluations (probe-job rounds actually
  /// submitted; cache-skipped candidates are free).
  unsigned MaxCandidates = 400;
  RunSettings Run;
  /// Candidate evaluation scheduling: Exec.Backend picks the
  /// ExecBackend (inline / threads / fork-isolated procs) and
  /// Exec.Threads the worker count. With more than one worker,
  /// candidates are evaluated speculatively in batches of one
  /// candidate per executor (the backend's concurrency()) and the
  /// first-in-submission-order success is kept, so the reduction
  /// sequence (and the stats, and the trace) match a serial run
  /// exactly on every backend.
  ExecOptions Exec;
  /// When set, candidate probes run on this caller-owned backend and
  /// Exec only tunes shard size; when null (the default) the reducer
  /// builds its own backend from Exec. The campaign scheduler injects
  /// its shared backend here — safe because it serializes every step
  /// it grants, so no two reductions (or a reduction and a campaign
  /// shard) ever contend for the batch state. Threaded ReductionQueue
  /// workers must leave this null: concurrent jobs sharing one
  /// backend would race.
  ExecBackend *Backend = nullptr;
  /// Unused: every batch dispatches in submission order. Kept only
  /// because e2ebench/campaign_bench.cpp still writes it; delete it
  /// with that line.
  unsigned DispatchPriority = 0;
  /// Optional deterministic trace sink.
  ReduceTraceFn Trace;
};

/// Shrinks \p Input while \p Oracle keeps judging candidates
/// interesting and the candidate remains a valid deterministic kernel
/// (see file comment). Returns the smallest interesting test found.
/// The result, the stats and the trace are bit-identical for every
/// ExecOptions::Backend and worker count.
TestCase reduceTest(const TestCase &Input, const ReductionOracle &Oracle,
                    const ReducerOptions &Opts, ReduceStats *Stats = nullptr);

} // namespace clfuzz

#endif // CLFUZZ_ORACLE_REDUCER_H
