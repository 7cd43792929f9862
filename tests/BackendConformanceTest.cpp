//===- BackendConformanceTest.cpp - ExecBackend conformance suite ------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The pipeline's contract is that the backend choice is unobservable
// in campaign output: every ExecBackend implementation — inline,
// thread pool at any worker count, and the fork-isolated process pool
// — must produce results bit-identical to the serial reference, for
// raw batches and for all three campaign drivers. This suite runs the
// same conformance checks against every implementation, plus the
// properties only one backend can provide: crash/timeout isolation
// (procs), bounded-memory sharded streaming, and the guarantee that
// CampaignSettings::Progress fires on the campaign's calling thread.
//
//===----------------------------------------------------------------------===//

#include "exec/Pipeline.h"
#include "exec/JobSerialize.h"
#include "device/DeviceConfig.h"
#include "oracle/Campaign.h"

#include <gtest/gtest.h>

#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <unistd.h>
#endif

using namespace clfuzz;

namespace {

/// Every backend configuration under test.
std::vector<ExecOptions> conformanceMatrix() {
  std::vector<ExecOptions> Matrix;
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Inline));
  for (unsigned Threads : {1u, 2u, 8u})
    Matrix.push_back(ExecOptions::withBackend(BackendKind::Threads, Threads));
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Procs, 2));
  return Matrix;
}

std::string describe(const ExecOptions &O) {
  return std::string(backendKindName(O.Backend)) + "/" +
         std::to_string(O.Threads) + "w/shard" +
         std::to_string(O.resolvedShardSize());
}

std::vector<DeviceConfig> smallZoo() {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo;
  for (int Id : {1, 12, 14, 19})
    Zoo.push_back(configById(Registry, Id));
  return Zoo;
}

std::vector<ExecJob> smallBatch(const TestCase &T,
                                const std::vector<DeviceConfig> &Zoo) {
  std::vector<ExecJob> Jobs;
  for (const DeviceConfig &C : Zoo)
    for (bool Opt : {false, true})
      Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
  Jobs.push_back(ExecJob::onReference(T, true, RunSettings()));
  return Jobs;
}

void expectSameOutcomes(const std::vector<RunOutcome> &A,
                        const std::vector<RunOutcome> &B,
                        const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Status, B[I].Status) << Ctx << " job " << I;
    EXPECT_EQ(A[I].OutputHash, B[I].OutputHash) << Ctx << " job " << I;
    EXPECT_EQ(A[I].Message, B[I].Message) << Ctx << " job " << I;
    EXPECT_EQ(A[I].Steps, B[I].Steps) << Ctx << " job " << I;
    EXPECT_EQ(A[I].OutputHead, B[I].OutputHead) << Ctx << " job " << I;
  }
}

CampaignSettings smallCampaign(const ExecOptions &Exec) {
  CampaignSettings S;
  S.KernelsPerMode = 4;
  S.Exec = Exec;
  S.BaseGen.MinThreads = 48;
  S.BaseGen.MaxThreads = 128;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Raw batch conformance
//===----------------------------------------------------------------------===//

TEST(BackendConformanceTest, BatchesMatchSerialReference) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Mode = GenMode::All;
  GO.Seed = 20257;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = smallBatch(T, Zoo);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  for (const ExecOptions &Opts : conformanceMatrix()) {
    std::unique_ptr<ExecBackend> Backend = makeBackend(Opts);
    expectSameOutcomes(Expected, Backend->run(Jobs), describe(Opts));
  }
}

TEST(BackendConformanceTest, EmptyAndSingleJobBatches) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 99;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  for (const ExecOptions &Opts : conformanceMatrix()) {
    std::unique_ptr<ExecBackend> Backend = makeBackend(Opts);
    EXPECT_TRUE(Backend->run({}).empty()) << describe(Opts);

    std::vector<ExecJob> One = {
        ExecJob::onConfig(T, Zoo[0], true, RunSettings())};
    std::vector<RunOutcome> Got = Backend->run(One);
    ASSERT_EQ(Got.size(), 1u) << describe(Opts);
    EXPECT_EQ(Got[0].Status, runExecJob(One[0]).Status) << describe(Opts);

    // A backend must survive an empty batch *between* real batches.
    EXPECT_TRUE(Backend->run({}).empty()) << describe(Opts);
    EXPECT_EQ(Backend->run(One).size(), 1u) << describe(Opts);
  }
}

TEST(BackendConformanceTest, ForEachIndexPropagatesExceptions) {
  for (const ExecOptions &Opts : conformanceMatrix()) {
    std::unique_ptr<ExecBackend> Backend = makeBackend(Opts);
    // The exception contract is part of backend interchangeability:
    // every index runs (a caller that catches and continues sees the
    // same side-effect state on every backend), and the first error
    // is rethrown after the batch drains.
    std::vector<unsigned> Ran(32, 0);
    EXPECT_THROW(
        Backend->forEachIndex(32,
                              [&](size_t I) {
                                Ran[I] = 1;
                                if (I == 7)
                                  throw std::runtime_error("boom");
                              }),
        std::runtime_error)
        << describe(Opts);
    for (size_t I = 0; I != Ran.size(); ++I)
      EXPECT_EQ(Ran[I], 1u)
          << describe(Opts) << ": index " << I
          << " skipped after an earlier throw";
    // Usable afterwards.
    std::vector<unsigned> Hits(8, 0);
    Backend->forEachIndex(8, [&](size_t I) { Hits[I] = 1; });
    for (unsigned H : Hits)
      EXPECT_EQ(H, 1u) << describe(Opts);
  }
}

//===----------------------------------------------------------------------===//
// Campaign-level bit-identity (Tables 1/4/5)
//===----------------------------------------------------------------------===//

TEST(BackendConformanceTest, DifferentialCampaignIdenticalOnAllBackends) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<GenMode> Modes = {GenMode::Barrier, GenMode::All};

  std::vector<ModeTable> Reference = runDifferentialCampaign(
      Zoo, Modes,
      smallCampaign(ExecOptions::withBackend(BackendKind::Inline)));
  ASSERT_FALSE(Reference.empty());

  for (const ExecOptions &Opts : conformanceMatrix()) {
    std::vector<ModeTable> Got =
        runDifferentialCampaign(Zoo, Modes, smallCampaign(Opts));
    ASSERT_EQ(Reference.size(), Got.size()) << describe(Opts);
    for (size_t I = 0; I != Reference.size(); ++I) {
      EXPECT_EQ(Reference[I].Mode, Got[I].Mode) << describe(Opts);
      EXPECT_EQ(Reference[I].NumTests, Got[I].NumTests) << describe(Opts);
      ASSERT_EQ(Reference[I].Cells.size(), Got[I].Cells.size())
          << describe(Opts);
      auto ItA = Reference[I].Cells.begin();
      auto ItB = Got[I].Cells.begin();
      for (; ItA != Reference[I].Cells.end(); ++ItA, ++ItB) {
        EXPECT_EQ(ItA->first.ConfigId, ItB->first.ConfigId);
        EXPECT_EQ(ItA->first.Opt, ItB->first.Opt);
        EXPECT_EQ(ItA->second.W, ItB->second.W) << describe(Opts);
        EXPECT_EQ(ItA->second.BF, ItB->second.BF) << describe(Opts);
        EXPECT_EQ(ItA->second.C, ItB->second.C) << describe(Opts);
        EXPECT_EQ(ItA->second.TO, ItB->second.TO) << describe(Opts);
        EXPECT_EQ(ItA->second.Pass, ItB->second.Pass) << describe(Opts);
      }
    }
  }
}

TEST(BackendConformanceTest, ShardSizeNeverChangesTables) {
  // Slicing the stream differently must not change any table cell:
  // shard sizes 1, 3 and 1000 against the default.
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<GenMode> Modes = {GenMode::Barrier};

  std::vector<ModeTable> Reference = runDifferentialCampaign(
      Zoo, Modes,
      smallCampaign(ExecOptions::withBackend(BackendKind::Inline)));

  for (unsigned Shard : {1u, 3u, 1000u}) {
    ExecOptions Opts = ExecOptions::withBackend(BackendKind::Threads, 2);
    Opts.ShardSize = Shard;
    std::vector<ModeTable> Got =
        runDifferentialCampaign(Zoo, Modes, smallCampaign(Opts));
    ASSERT_EQ(Reference.size(), Got.size());
    EXPECT_EQ(Reference[0].NumTests, Got[0].NumTests)
        << "shard " << Shard;
    auto ItA = Reference[0].Cells.begin();
    auto ItB = Got[0].Cells.begin();
    for (; ItA != Reference[0].Cells.end(); ++ItA, ++ItB) {
      EXPECT_EQ(ItA->second.W, ItB->second.W) << "shard " << Shard;
      EXPECT_EQ(ItA->second.Pass, ItB->second.Pass) << "shard " << Shard;
    }
  }
}

TEST(BackendConformanceTest, EmiCampaignIdenticalOnAllBackends) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo = {configById(Registry, 12),
                                   configById(Registry, 19)};
  EmiCampaignSettings S;
  S.NumBases = 2;
  S.Base.BaseGen.MinThreads = 48;
  S.Base.BaseGen.MaxThreads = 96;

  S.Base.Exec = ExecOptions::withBackend(BackendKind::Inline);
  unsigned ReferenceUsable = 0;
  std::vector<EmiCampaignColumn> Reference =
      runEmiCampaign(Zoo, S, ReferenceUsable);

  for (const ExecOptions &Opts : conformanceMatrix()) {
    S.Base.Exec = Opts;
    unsigned Usable = 0;
    std::vector<EmiCampaignColumn> Got = runEmiCampaign(Zoo, S, Usable);
    EXPECT_EQ(ReferenceUsable, Usable) << describe(Opts);
    ASSERT_EQ(Reference.size(), Got.size()) << describe(Opts);
    for (size_t I = 0; I != Reference.size(); ++I) {
      EXPECT_EQ(Reference[I].Key.ConfigId, Got[I].Key.ConfigId);
      EXPECT_EQ(Reference[I].Key.Opt, Got[I].Key.Opt);
      EXPECT_EQ(Reference[I].BaseFails, Got[I].BaseFails) << describe(Opts);
      EXPECT_EQ(Reference[I].Wrong, Got[I].Wrong) << describe(Opts);
      EXPECT_EQ(Reference[I].InducedBF, Got[I].InducedBF) << describe(Opts);
      EXPECT_EQ(Reference[I].InducedCrash, Got[I].InducedCrash)
          << describe(Opts);
      EXPECT_EQ(Reference[I].InducedTimeout, Got[I].InducedTimeout)
          << describe(Opts);
      EXPECT_EQ(Reference[I].Stable, Got[I].Stable) << describe(Opts);
    }
  }
}

//===----------------------------------------------------------------------===//
// Process-pool fault isolation
//===----------------------------------------------------------------------===//

TEST(BackendConformanceTest, ProcsIsolatesACrashingJob) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 4242;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  // Job 1 of 4 hard-aborts its worker process; the campaign must
  // survive, record a crash outcome for exactly that job, and compute
  // the neighbours normally.
  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 4; ++I)
    Jobs.push_back(ExecJob::onConfig(T, Zoo[0], true, RunSettings()));
  Jobs[1].Settings.DebugHardAbort = true;

  std::unique_ptr<ExecBackend> Backend =
      makeBackend(ExecOptions::withBackend(BackendKind::Procs, 2));
  std::vector<RunOutcome> Got = Backend->run(Jobs);
  ASSERT_EQ(Got.size(), 4u);

  RunOutcome Clean = runExecJob(Jobs[0]);
  EXPECT_EQ(Got[1].Status, RunStatus::Crash);
  EXPECT_NE(Got[1].Message.find("isolated by process pool"),
            std::string::npos)
      << Got[1].Message;
  for (size_t I : {size_t(0), size_t(2), size_t(3)}) {
    EXPECT_EQ(Got[I].Status, Clean.Status) << "job " << I;
    EXPECT_EQ(Got[I].OutputHash, Clean.OutputHash) << "job " << I;
  }

  // The pool must still be usable for the next batch.
  std::vector<RunOutcome> Again = Backend->run(
      {ExecJob::onConfig(T, Zoo[0], true, RunSettings())});
  ASSERT_EQ(Again.size(), 1u);
  EXPECT_EQ(Again[0].Status, Clean.Status);
}

TEST(BackendConformanceTest, ProcsBatchedFramesMatchSerialReference) {
  // A large cheap batch streams through both children; results must
  // still be keyed by submission index and identical to the serial
  // reference, and a crash must fail only its own job - a neighbour
  // stranded by it retries alone and lands on its true result.
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 60001;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 40; ++I)
    Jobs.push_back(
        ExecJob::onConfig(T, Zoo[I % Zoo.size()], I % 2 == 0, RunSettings()));
  Jobs[7].Settings.DebugHardAbort = true;
  Jobs[23].Settings.DebugHardAbort = true;

  std::unique_ptr<ExecBackend> Backend =
      makeBackend(ExecOptions::withBackend(BackendKind::Procs, 2));
  std::vector<RunOutcome> Got = Backend->run(Jobs);
  ASSERT_EQ(Got.size(), Jobs.size());

  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (I == 7 || I == 23) {
      EXPECT_EQ(Got[I].Status, RunStatus::Crash) << "job " << I;
      EXPECT_NE(Got[I].Message.find("isolated by process pool"),
                std::string::npos)
          << Got[I].Message;
      continue;
    }
    RunOutcome Clean = runExecJob(Jobs[I]);
    EXPECT_EQ(Got[I].Status, Clean.Status) << "job " << I;
    EXPECT_EQ(Got[I].OutputHash, Clean.OutputHash) << "job " << I;
    EXPECT_EQ(Got[I].Message, Clean.Message) << "job " << I;
  }
}

TEST(BackendConformanceTest, ProcsKillsARunawayJob) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 777;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  ExecOptions Opts = ExecOptions::withBackend(BackendKind::Procs, 2);
  Opts.ProcTimeoutMs = 200;
  std::unique_ptr<ExecBackend> Backend = makeBackend(Opts);

  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 3; ++I)
    Jobs.push_back(ExecJob::onConfig(T, Zoo[0], true, RunSettings()));
  Jobs[0].Settings.DebugSpinMs = 60000; // far past the deadline

  std::vector<RunOutcome> Got = Backend->run(Jobs);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].Status, RunStatus::Timeout);
  EXPECT_NE(Got[0].Message.find("wall-clock deadline"), std::string::npos)
      << Got[0].Message;
  RunOutcome Clean = runExecJob(Jobs[1]);
  EXPECT_EQ(Got[1].OutputHash, Clean.OutputHash);
  EXPECT_EQ(Got[2].OutputHash, Clean.OutputHash);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(BackendConformanceTest, ProcsWorkersHoldNoInheritedDescriptors) {
  // The pipe stands in for another pool's, caught between pipe() and
  // fork() on another thread when this pool forks its workers (remote
  // worker slots each own a pool). Once our write end closes, the read
  // end must see EOF: a worker still holding the write end would hide
  // the other pool's dead worker forever.
  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 4242;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::unique_ptr<ExecBackend> Backend =
      makeBackend(ExecOptions::withBackend(BackendKind::Procs, 2));
  std::vector<RunOutcome> Got = Backend->run(
      {ExecJob::onConfig(T, Zoo[0], true, RunSettings())});
  ASSERT_EQ(Got.size(), 1u);

  ::close(Pipe[1]);
  pollfd P = {Pipe[0], POLLIN, 0};
  ASSERT_EQ(::poll(&P, 1, 2000), 1) << "a pool worker holds the write end";
  char Byte;
  EXPECT_EQ(::read(Pipe[0], &Byte, 1), 0);
  ::close(Pipe[0]);
}
#endif

TEST(BackendConformanceTest, CrashingCellBecomesACampaignVerdict) {
  // End to end: a deliberately crashing cell inside a differential
  // campaign on the procs backend lands in the crash column instead of
  // terminating the campaign.
  std::vector<DeviceConfig> Zoo = smallZoo();
  CampaignSettings S =
      smallCampaign(ExecOptions::withBackend(BackendKind::Procs, 2));
  S.KernelsPerMode = 2;
  S.Run.DebugHardAbort = true; // every cell's worker dies

  std::vector<ModeTable> Tables =
      runDifferentialCampaign(Zoo, {GenMode::Basic}, S);
  ASSERT_EQ(Tables.size(), 1u);
  EXPECT_EQ(Tables[0].NumTests, 2u);
  for (const auto &[Key, Counts] : Tables[0].Cells) {
    EXPECT_EQ(Counts.C, Tables[0].NumTests)
        << "config " << Key.ConfigId << (Key.Opt ? "+" : "-");
    EXPECT_EQ(Counts.total(), Tables[0].NumTests);
  }
}

//===----------------------------------------------------------------------===//
// Job serialization round trip
//===----------------------------------------------------------------------===//

TEST(BackendConformanceTest, JobDescriptorRoundTripsExactly) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  GenOptions GO;
  GO.Mode = GenMode::All;
  GO.Seed = 31415;
  GO.NumEmiBlocks = 3;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  RunSettings RS;
  RS.SchedulerSeed = 99;
  RS.InvertDead = true;
  ExecJob Job = ExecJob::onConfig(T, configById(Registry, 14), true, RS);

  WireWriter W;
  serializeExecJob(W, Job);
  WireReader R(W.buffer().data(), W.buffer().size());
  OwnedExecJob Round = deserializeExecJob(R);
  EXPECT_TRUE(R.atEnd());

  EXPECT_EQ(Round.Test.Name, T.Name);
  EXPECT_EQ(Round.Test.Source, T.Source);
  EXPECT_EQ(Round.Test.Buffers.size(), T.Buffers.size());
  ASSERT_TRUE(Round.Config.has_value());
  EXPECT_EQ(Round.Config->Id, 14);
  EXPECT_EQ(Round.Config->Salt, configById(Registry, 14).Salt);
  EXPECT_TRUE(Round.Settings.InvertDead);

  // The round-tripped job must execute identically — this is the
  // "forkForJob streams survive the subprocess boundary" guarantee:
  // every seed a run consumes is part of the descriptor.
  RunOutcome A = runExecJob(Job);
  RunOutcome B = runExecJob(Round.view());
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.OutputHash, B.OutputHash);
  EXPECT_EQ(A.Steps, B.Steps);
}

//===----------------------------------------------------------------------===//
// Bounded-memory sharded streaming
//===----------------------------------------------------------------------===//

namespace {

/// Source that checks the pipeline never holds two shards: every pull
/// must come after all previously delivered tests were consumed.
class StreamingAuditSource final : public TestSource {
public:
  StreamingAuditSource(unsigned Total, unsigned *ConsumedSoFar)
      : Total(Total), ConsumedSoFar(ConsumedSoFar) {}

  std::vector<TestCase> next(unsigned MaxShard) override {
    // All tests handed out before this pull must already be consumed —
    // i.e. at most one shard is ever in flight.
    EXPECT_EQ(*ConsumedSoFar, Delivered)
        << "pipeline pulled a new shard before draining the previous one";
    unsigned N = std::min(MaxShard, Total - Delivered);
    std::vector<TestCase> Shard(N);
    for (unsigned I = 0; I != N; ++I) {
      GenOptions GO;
      GO.Seed = 9000 + Delivered + I;
      Shard[I] = TestCase::fromGenerated(generateKernel(GO));
    }
    Delivered += N;
    MaxShardSeen = std::max(MaxShardSeen, N);
    return Shard;
  }

  unsigned Total;
  unsigned *ConsumedSoFar;
  unsigned Delivered = 0;
  unsigned MaxShardSeen = 0;
};

class CountingSink final : public ResultSink {
public:
  explicit CountingSink(unsigned *Consumed) : Consumed(Consumed) {}
  void consumeTest(size_t, const TestCase &,
                   const std::vector<RunOutcome> &) override {
    ++*Consumed;
  }
  unsigned *Consumed;
};

} // namespace

TEST(BackendConformanceTest, PipelineHoldsAtMostOneShard) {
  // Stream 10x a typical per-mode count through a small shard bound
  // and verify the pipeline's peak residency is the shard size.
  const unsigned Total = 320;
  const unsigned ShardSize = 32;
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  const DeviceConfig &C = configById(Registry, 19);

  unsigned Consumed = 0;
  StreamingAuditSource Source(Total, &Consumed);
  CountingSink Sink(&Consumed);
  std::unique_ptr<ExecBackend> Backend =
      makeBackend(ExecOptions::withBackend(BackendKind::Threads, 2));

  PipelineStats Stats = runShardedCampaign(
      Source, *Backend, ShardSize,
      [&](size_t, const TestCase &T, std::vector<ExecJob> &Jobs) {
        Jobs.push_back(ExecJob::onConfig(T, C, true, RunSettings()));
      },
      Sink);

  EXPECT_EQ(Stats.Tests, Total);
  EXPECT_EQ(Stats.Shards, Total / ShardSize);
  EXPECT_LE(Stats.PeakResidentTests, ShardSize);
  EXPECT_EQ(Source.MaxShardSeen, ShardSize);
  EXPECT_EQ(Consumed, Total);
}

TEST(BackendConformanceTest, GeneratorSourceRespectsShardBoundUnderWideBackends) {
  // More workers than the shard has room: generation waves must be
  // capped at the shard capacity, so a --shard-size=1 --threads=8 run
  // really does hold one TestCase at a time — and still produces the
  // identical sequence.
  ThreadPoolBackend Wide(ExecOptions::withThreads(8));
  InlineBackend Narrow;
  GenOptions BaseGen;
  BaseGen.MinThreads = 48;
  BaseGen.MaxThreads = 128;

  auto Collect = [&](ExecBackend &Backend, unsigned ShardSize) {
    GeneratorSource Source(GenMode::Basic, BaseGen, 321, 6,
                           /*Prefilter=*/false, nullptr, RunSettings(),
                           Backend);
    std::vector<std::string> Sources;
    for (;;) {
      std::vector<TestCase> Shard = Source.next(ShardSize);
      if (Shard.empty())
        break;
      EXPECT_LE(Shard.size(), ShardSize);
      for (TestCase &T : Shard)
        Sources.push_back(T.Source);
    }
    return Sources;
  };

  std::vector<std::string> Reference = Collect(Narrow, 1000);
  EXPECT_EQ(Reference.size(), 6u);
  EXPECT_EQ(Collect(Wide, 1), Reference);
  EXPECT_EQ(Collect(Wide, 2), Reference);
}

TEST(BackendConformanceTest, GeneratorSourceIsShardSliceInvariant) {
  // The accepted test sequence must not depend on how it is pulled.
  InlineBackend Backend;
  GenOptions BaseGen;
  BaseGen.MinThreads = 48;
  BaseGen.MaxThreads = 128;

  auto Collect = [&](unsigned ShardSize) {
    GeneratorSource Source(GenMode::Barrier, BaseGen, 555, 10,
                           /*Prefilter=*/false, nullptr, RunSettings(),
                           Backend);
    std::vector<std::string> Names;
    for (;;) {
      std::vector<TestCase> Shard = Source.next(ShardSize);
      if (Shard.empty())
        break;
      for (TestCase &T : Shard)
        Names.push_back(T.Source);
    }
    return Names;
  };

  std::vector<std::string> Whole = Collect(1000);
  EXPECT_EQ(Whole.size(), 10u);
  for (unsigned Shard : {1u, 3u, 7u})
    EXPECT_EQ(Collect(Shard), Whole) << "shard size " << Shard;
}

//===----------------------------------------------------------------------===//
// Progress threading guarantee
//===----------------------------------------------------------------------===//

TEST(BackendConformanceTest, ProgressFiresOnCallingThreadOnly) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  const std::thread::id Caller = std::this_thread::get_id();

  for (const ExecOptions &Opts : conformanceMatrix()) {
    CampaignSettings S = smallCampaign(Opts);
    S.KernelsPerMode = 3;
    unsigned Calls = 0;
    unsigned LastDone = 0;
    bool WrongThread = false;
    S.Progress = [&](unsigned Done, unsigned Total) {
      if (std::this_thread::get_id() != Caller)
        WrongThread = true;
      ++Calls;
      EXPECT_GE(Done, LastDone) << describe(Opts);
      EXPECT_LE(Done, Total) << describe(Opts);
      LastDone = Done;
    };
    runDifferentialCampaign(Zoo, {GenMode::Basic}, S);
    EXPECT_FALSE(WrongThread)
        << describe(Opts) << ": Progress fired off the calling thread";
    EXPECT_EQ(Calls, 3u) << describe(Opts);
  }
}
