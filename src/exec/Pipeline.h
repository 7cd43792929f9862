//===- Pipeline.h - Streaming campaign pipeline runner ----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes the three campaign pipeline interfaces: pull a bounded
/// shard of tests from a TestSource, expand each test into its
/// campaign cells, run the shard's cells on an ExecBackend, and feed
/// every test's outcomes to a ResultSink in submission order. At most
/// one shard of TestCases is alive at any moment — a 10x-scale
/// campaign streams through in O(ShardSize) memory — and the sink
/// sees identical data for every backend, worker count and shard
/// size.
///
/// The campaign drivers (src/oracle/Campaign.cpp), `clfuzz hunt` and
/// the bench harnesses are thin compositions over this runner.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_PIPELINE_H
#define CLFUZZ_EXEC_PIPELINE_H

#include "exec/ResultSink.h"
#include "exec/TestSource.h"

namespace clfuzz {

/// What a pipeline run did (for logs and the bounded-memory tests).
struct PipelineStats {
  size_t Tests = 0;
  size_t Shards = 0;
  size_t Jobs = 0;
  /// Largest number of TestCases alive at once (== largest shard).
  size_t PeakResidentTests = 0;
};

/// Stepwise form of the sharded campaign runner: each step() pulls one
/// shard from the source, runs it on the backend, and feeds the sink —
/// exactly one backend batch per step. The campaign scheduler
/// (src/sched/) interleaves many of these over one shared backend at
/// shard granularity; because each step is a self-contained
/// pull-run-consume cycle in the campaign's own submission order, an
/// interleaved campaign's source pulls, backend batches and sink
/// calls are byte-for-byte the same sequence as its solo run. This is
/// also the scheduler's preemption point: a campaign can only lose the
/// backend between steps (drain-then-reassign at shard boundaries,
/// never mid-job).
///
/// Sink.finish() fires exactly once, on the step() that exhausts the
/// source. runShardedCampaign() below is a loop over this class.
class ShardedCampaignRun {
public:
  /// See runShardedCampaign for the ExpandJobs / Progress contracts.
  ShardedCampaignRun(
      TestSource &Source, ExecBackend &Backend, unsigned ShardSize,
      std::function<void(size_t TestIndex, const TestCase &Test,
                         std::vector<ExecJob> &Jobs)>
          ExpandJobs,
      ResultSink &Sink, std::function<void(size_t TestsDone)> Progress = {});

  /// Runs one shard; returns false once the source is exhausted (the
  /// exhausting call finishes the sink and returns false; later calls
  /// are no-ops returning false).
  bool step();

  bool done() const { return Done; }
  const PipelineStats &stats() const { return Stats; }

private:
  TestSource &Source;
  ExecBackend &Backend;
  unsigned ShardSize;
  std::function<void(size_t TestIndex, const TestCase &Test,
                     std::vector<ExecJob> &Jobs)>
      ExpandJobs;
  ResultSink &Sink;
  std::function<void(size_t TestsDone)> Progress;
  PipelineStats Stats;
  bool Done = false;
};

/// Runs the pipeline until \p Source is exhausted.
///
/// \p ExpandJobs appends the jobs of one test (in a fixed cell order
/// of its choosing) to the shard's job list; it runs on the calling
/// thread. \p Sink.consumeTest receives each test's outcomes in
/// expansion order, keyed by the test's global index.
///
/// \p Progress, when set, fires on the *calling thread* once per test
/// with the number of tests completed so far — this is where
/// CampaignSettings::Progress's "always invoked from the campaign's
/// calling thread" guarantee is enforced, regardless of which backend
/// runs the cells. Workers (threads or subprocesses) never invoke it;
/// completions are relayed to the submitter as it drains each shard.
PipelineStats runShardedCampaign(
    TestSource &Source, ExecBackend &Backend, unsigned ShardSize,
    const std::function<void(size_t TestIndex, const TestCase &Test,
                             std::vector<ExecJob> &Jobs)> &ExpandJobs,
    ResultSink &Sink,
    const std::function<void(size_t TestsDone)> &Progress = {});

} // namespace clfuzz

#endif // CLFUZZ_EXEC_PIPELINE_H
