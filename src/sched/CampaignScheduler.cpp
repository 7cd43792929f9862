//===- CampaignScheduler.cpp - N campaigns over one shared backend -----------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "sched/CampaignScheduler.h"

#include <stdexcept>

using namespace clfuzz;

CampaignTask::~CampaignTask() = default;

void clfuzz::runCampaignTask(CampaignTask &Task) {
  while (!Task.done()) {
    if (Task.ready())
      Task.step();
    else
      Task.waitReady();
  }
}

CampaignScheduler::CampaignScheduler(ExecBackend &Backend, SchedOptions Opts)
    : Backend(Backend), Opts(Opts), Policy(Opts.Policy) {}

ScheduledCampaign &CampaignScheduler::add(std::string Name,
                                          CampaignTask &Task) {
  ScheduledCampaign C;
  C.Name = std::move(Name);
  C.Task = &Task;
  Campaigns.push_back(std::move(C));
  return Campaigns.back();
}

unsigned CampaignScheduler::weightOf(const ScheduledCampaign &C) const {
  // Weight floor of 1 keeps barren campaigns scheduled (no absolute
  // starvation); recent distinct witnesses boost the share.
  size_t WindowSum = 0;
  for (size_t D : C.RecentYields)
    WindowSum += D;
  return static_cast<unsigned>(1 + Opts.YieldBoost * WindowSum);
}

bool CampaignScheduler::stepOnce() {
  // Ready set, with the Reduction lane preempting: whenever any
  // reduction-lane campaign is ready, only lane campaigns are
  // candidates this grant — queued reductions can't starve behind a
  // busy foreground campaign.
  std::vector<size_t> Candidates;
  bool LaneReady = false;
  bool AllDone = true;
  for (size_t I = 0; I != Campaigns.size(); ++I) {
    CampaignTask &T = *Campaigns[I].Task;
    if (T.done())
      continue;
    AllDone = false;
    if (!T.ready())
      continue;
    if (T.lane() == SchedLane::Reduction && !LaneReady) {
      LaneReady = true;
      Candidates.clear();
    }
    if (T.lane() == SchedLane::Reduction || !LaneReady)
      Candidates.push_back(I);
  }
  if (AllDone)
    return false;
  if (Candidates.empty()) {
    // Every live campaign is waiting on work only another *thread*
    // can produce. Under the scheduler's single-threaded grant loop
    // with scheduler-driven queues this is unreachable (a hunt waits
    // only on its reduction lane, which is ready whenever the queue
    // has jobs); a threaded queue can briefly park us here, so wait
    // on the first waiter rather than spinning.
    for (ScheduledCampaign &C : Campaigns)
      if (!C.Task->done()) {
        C.Task->waitReady();
        return true;
      }
    throw std::logic_error("scheduler stalled: no campaign ready or done");
  }

  std::vector<unsigned> Weights;
  Weights.reserve(Candidates.size());
  for (size_t I : Candidates)
    Weights.push_back(weightOf(Campaigns[I]));
  size_t Picked = Policy.pick(Candidates, Weights);
  ScheduledCampaign &C = Campaigns[Picked];

  // Serialized steps make attribution exact: every cache lookup,
  // compile phase, VM launch, triage probe and fleet event between the
  // snapshots belongs to this campaign's step.
  MetricsSnapshot Before = metricsSnapshot(Opts.Cache.get());
  size_t Witness0 = C.Task->distinctWitnesses();

  C.Task->step();

  C.Stats.Counters += metricsSnapshot(Opts.Cache.get()) - Before;

  ++C.Stats.Steps;
  C.Stats.Tests = C.Task->testsDone();
  C.Stats.Jobs = C.Task->jobsDone();
  C.Stats.Witnesses = C.Task->distinctWitnesses();
  C.RecentYields.push_back(C.Stats.Witnesses - Witness0);
  while (C.RecentYields.size() > Opts.YieldWindow)
    C.RecentYields.pop_front();
  Trace.push_back(Picked);
  return true;
}

void CampaignScheduler::runToCompletion() {
  while (stepOnce())
    ;
}
