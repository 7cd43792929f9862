//===- Pipeline.cpp - Streaming campaign pipeline runner ---------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/Pipeline.h"

#include <algorithm>

using namespace clfuzz;

ShardedCampaignRun::ShardedCampaignRun(
    TestSource &Source, ExecBackend &Backend, unsigned ShardSize,
    std::function<void(size_t TestIndex, const TestCase &Test,
                       std::vector<ExecJob> &Jobs)>
        ExpandJobs,
    ResultSink &Sink, std::function<void(size_t TestsDone)> Progress)
    : Source(Source), Backend(Backend),
      ShardSize(std::max(ShardSize, 1u)), ExpandJobs(std::move(ExpandJobs)),
      Sink(Sink), Progress(std::move(Progress)) {}

bool ShardedCampaignRun::step() {
  if (Done)
    return false;

  // The previous shard was destroyed before this pull: memory is
  // bounded by one shard of TestCases per pipeline.
  std::vector<TestCase> Shard = Source.next(ShardSize);
  if (Shard.empty()) {
    Done = true;
    Sink.finish();
    return false;
  }
  ++Stats.Shards;
  Stats.PeakResidentTests = std::max(Stats.PeakResidentTests, Shard.size());

  std::vector<ExecJob> Jobs;
  std::vector<size_t> JobStart(Shard.size() + 1);
  for (size_t T = 0; T != Shard.size(); ++T) {
    JobStart[T] = Jobs.size();
    ExpandJobs(Stats.Tests + T, Shard[T], Jobs);
  }
  JobStart[Shard.size()] = Jobs.size();

  // A shard's jobs are contiguous per test by construction (one
  // ExpandJobs call per test), so the whole configuration column of
  // each kernel reaches the backend as one unit: backends that can
  // parse the kernel once per column do, and the outcome vector is
  // byte-identical to a per-cell run() either way.
  std::vector<RunOutcome> Outcomes =
      Backend.runColumns(groupIntoColumns(Jobs));
  Stats.Jobs += Jobs.size();

  // Consumption and progress both run on the calling thread — never
  // on a worker (thread or subprocess). Progress fires once per
  // test, preserving the historical serial cadence.
  for (size_t T = 0; T != Shard.size(); ++T) {
    std::vector<RunOutcome> TestOutcomes(
        std::make_move_iterator(Outcomes.begin() + JobStart[T]),
        std::make_move_iterator(Outcomes.begin() + JobStart[T + 1]));
    Sink.consumeTest(Stats.Tests + T, Shard[T], TestOutcomes);
    if (Progress)
      Progress(Stats.Tests + T + 1);
  }
  Stats.Tests += Shard.size();
  return true;
}

PipelineStats clfuzz::runShardedCampaign(
    TestSource &Source, ExecBackend &Backend, unsigned ShardSize,
    const std::function<void(size_t TestIndex, const TestCase &Test,
                             std::vector<ExecJob> &Jobs)> &ExpandJobs,
    ResultSink &Sink,
    const std::function<void(size_t TestsDone)> &Progress) {
  ShardedCampaignRun Run(Source, Backend, ShardSize, ExpandJobs, Sink,
                         Progress);
  while (Run.step())
    ;
  return Run.stats();
}
