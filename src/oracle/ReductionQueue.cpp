//===- ReductionQueue.cpp - Background reduction job queue -------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "oracle/ReductionQueue.h"

#include <algorithm>

using namespace clfuzz;

ReductionQueue::ReductionQueue(ReducerOptions Opts, unsigned Workers,
                               bool CaptureTrace)
    : Opts(std::move(Opts)), CaptureTrace(CaptureTrace) {
  // Workers == 0 is the scheduler-driven mode: a passive store with no
  // threads, serviced by runNextPending().
  Threads.reserve(Workers);
  for (unsigned I = 0; I != Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ReductionQueue::~ReductionQueue() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  CV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ReductionQueue::submit(ReductionJob Job) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Pending.push_back(std::move(Job));
    ++Submitted;
  }
  CV.notify_one();
}

bool ReductionQueue::hasPending() const {
  std::lock_guard<std::mutex> Lock(M);
  return !Pending.empty();
}

bool ReductionQueue::allDone() const {
  std::lock_guard<std::mutex> Lock(M);
  return Finished == Submitted;
}

bool ReductionQueue::runNextPending() {
  ReductionJob Job;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Pending.empty())
      return false;
    Job = std::move(Pending.front());
    Pending.pop_front();
  }
  runJob(std::move(Job));
  return true;
}

void ReductionQueue::waitAll() {
  std::unique_lock<std::mutex> Lock(M);
  DoneCV.wait(Lock, [this] { return Finished == Submitted; });
}

std::vector<ReductionResult> ReductionQueue::drain() {
  std::unique_lock<std::mutex> Lock(M);
  DoneCV.wait(Lock, [this] { return Finished == Submitted; });
  std::vector<ReductionResult> Out = std::move(Results);
  Results.clear();
  std::sort(Out.begin(), Out.end(),
            [](const ReductionResult &A, const ReductionResult &B) {
              return A.OrderKey != B.OrderKey ? A.OrderKey < B.OrderKey
                                              : A.Label < B.Label;
            });
  return Out;
}

ReductionResult clfuzz::reduceAndTriage(
    const TestCase &Witness, const ReductionOracle &Oracle,
    const ReducerOptions &Opts, const std::optional<TriageRequest> &Triage,
    bool TriageUninteresting) {
  ReductionResult R;
  R.Reduced = reduceTest(Witness, Oracle, Opts, &R.Stats);
  if (Triage && (R.Stats.WitnessWasInteresting || TriageUninteresting))
    R.Triage = triageWitness(R.Reduced, Triage->Config, Triage->Opt, Opts);
  return R;
}

void ReductionQueue::runJob(ReductionJob Job) {
  // Each job reduces with its own backend (reduceTest builds one from
  // Opts.Exec) unless Opts.Backend injects a shared one — the
  // scheduler does that, and serializes jobs so the share is safe.
  ReducerOptions JobOpts = Opts;
  std::string Trace;
  if (CaptureTrace)
    JobOpts.Trace = [&Trace, &Job](const ReduceTraceEvent &E) {
      Trace += renderReduceTraceJsonl(E, Job.Label);
    };
  ReductionResult R;
  try {
    R = reduceAndTriage(Job.Witness, *Job.Oracle, JobOpts, Job.Triage);
  } catch (const std::exception &E) {
    // A reduction that dies (its backend failing to fork, or the
    // whole remote fleet unreachable) is one failed result, not a
    // std::terminate for the whole hunt.
    R.Reduced = std::move(Job.Witness);
    R.Error = E.what();
  } catch (...) {
    // Anything escaping a worker thread would terminate the
    // process; record it instead.
    R.Reduced = std::move(Job.Witness);
    R.Error = "unknown reduction failure";
  }
  R.OrderKey = Job.OrderKey;
  R.Label = std::move(Job.Label);
  R.Trace = std::move(Trace);

  {
    std::lock_guard<std::mutex> Lock(M);
    Results.push_back(std::move(R));
    ++Finished;
  }
  DoneCV.notify_all();
}

void ReductionQueue::workerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [this] { return Stopping || !Pending.empty(); });
      if (Pending.empty())
        return; // Stopping, nothing left to do
    }
    // Another worker may take the job first; then wait again.
    runNextPending();
  }
}
