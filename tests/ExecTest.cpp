//===- ExecTest.cpp - Thread-pool backend tests --------------------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The thread pool's contract is that parallel execution is unobservable:
// every campaign result must be bit-identical to the serial path for
// any worker count, because results aggregate by submission index and
// jobs share no mutable state. These tests pin that contract for the
// raw pool, for all three campaign drivers (Table 1/4/5 cells), and
// for the reducer's speculative candidate evaluation.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecBackend.h"
#include "device/DeviceConfig.h"
#include "oracle/Campaign.h"
#include "oracle/Reducer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

using namespace clfuzz;

namespace {

std::vector<DeviceConfig> smallZoo() {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo;
  for (int Id : {1, 12, 14, 19})
    Zoo.push_back(configById(Registry, Id));
  return Zoo;
}

CampaignSettings smallCampaign(unsigned Threads) {
  CampaignSettings S;
  S.KernelsPerMode = 4;
  S.Exec.Threads = Threads;
  S.BaseGen.MinThreads = 48;
  S.BaseGen.MaxThreads = 128;
  return S;
}

bool sameTables(const std::vector<ModeTable> &A,
                const std::vector<ModeTable> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].Mode != B[I].Mode || A[I].NumTests != B[I].NumTests)
      return false;
    if (A[I].Cells.size() != B[I].Cells.size())
      return false;
    auto ItA = A[I].Cells.begin(), ItB = B[I].Cells.begin();
    for (; ItA != A[I].Cells.end(); ++ItA, ++ItB) {
      if (ItA->first.ConfigId != ItB->first.ConfigId ||
          ItA->first.Opt != ItB->first.Opt)
        return false;
      const OutcomeCounts &CA = ItA->second, &CB = ItB->second;
      if (CA.W != CB.W || CA.BF != CB.BF || CA.C != CB.C ||
          CA.TO != CB.TO || CA.Pass != CB.Pass)
        return false;
    }
  }
  return true;
}

} // namespace

TEST(ExecOptionsTest, Resolution) {
  EXPECT_EQ(ExecOptions::serial().resolvedThreads(), 1u);
  EXPECT_EQ(ExecOptions::withThreads(8).resolvedThreads(), 8u);
  // 0 = auto; must resolve to something usable.
  EXPECT_GE(ExecOptions::withThreads(0).resolvedThreads(), 1u);
}

TEST(ThreadPoolTest, ForEachIndexCoversEveryIndexOnce) {
  // Stress: far more jobs than workers, over repeated batches, at
  // single-index claiming (the claim size of campaign cells).
  ThreadPoolBackend Pool(ExecOptions::withThreads(8));
  EXPECT_EQ(Pool.concurrency(), 8u);
  for (int Round = 0; Round != 3; ++Round) {
    const size_t N = 500;
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.forEachIndex(N, [&](size_t I) { Hits[I].fetch_add(1); }, 1);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
  }
}

TEST(ThreadPoolTest, ChunkedClaimingCoversEveryIndexOnce) {
  // Cheap batches claim several indices per lock acquisition; coverage
  // and results must be identical to single-index claiming. The
  // two-argument overload is the generation-side path and claims up
  // to CheapClaimChunk at a time.
  ThreadPoolBackend Pool(ExecOptions::withThreads(4));
  const size_t N = 333; // deliberately not a multiple of any chunk
  for (unsigned Chunk : {1u, 2u, 8u, 64u}) {
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.forEachIndex(N, [&](size_t I) { Hits[I].fetch_add(1); }, Chunk);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Hits[I].load(), 1u)
          << "chunk " << Chunk << " index " << I;
  }
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.forEachIndex(N, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "generation-side index " << I;
}

TEST(ThreadPoolTest, SmallGenerationBatchesUseEveryLane) {
  // A reduction round prints its window of one candidate per lane
  // through the generation-side overload; a claim as wide as the batch
  // would hand it all to one thread. Each body waits, until one shared
  // deadline, for a second thread to enter, so a one-lane claim fails here
  // instead of hanging.
  ThreadPoolBackend Pool(ExecOptions::withThreads(4));
  std::mutex M;
  std::condition_variable CV;
  std::set<std::thread::id> Seen;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  Pool.forEachIndex(8, [&](size_t) {
    std::unique_lock<std::mutex> Lock(M);
    Seen.insert(std::this_thread::get_id());
    CV.notify_all();
    CV.wait_until(Lock, Deadline, [&] { return Seen.size() > 1; });
  });
  EXPECT_GT(Seen.size(), 1u);
}

TEST(ThreadPoolTest, NarrowColumnBatchesUseEveryLane) {
  // Two columns of four cells on four lanes: two lanes own the
  // columns, the other two must steal cells from their tails. Every
  // cell first stalls for StallMs, so on at most two lanes the batch
  // cannot finish before the shared deadline of 4 x StallMs (two
  // lanes, four stalls each), while four lanes need about half that;
  // a pool that claimed only whole columns fails here instead of
  // hanging. Outcomes must still equal inline's.
  std::vector<DeviceConfig> Zoo = smallZoo();
  const uint32_t StallMs = 200;
  RunSettings Stall;
  Stall.DebugSpinMs = StallMs;
  std::vector<TestCase> Tests;
  for (uint64_t Seed : {31, 32}) {
    GenOptions GO;
    GO.Mode = GenMode::Basic;
    GO.Seed = Seed;
    GO.MinThreads = 16;
    GO.MaxThreads = 32;
    Tests.push_back(TestCase::fromGenerated(generateKernel(GO)));
  }
  std::vector<ExecColumn> Columns(Tests.size());
  for (size_t T = 0; T != Tests.size(); ++T)
    for (const DeviceConfig &C : Zoo)
      Columns[T].Jobs.push_back(
          ExecJob::onConfig(Tests[T], C, /*Opt=*/T == 1, Stall));

  ThreadPoolBackend Pool(ExecOptions::withThreads(4));
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(4 * StallMs);
  std::vector<RunOutcome> Got = Pool.runColumns(Columns);
  EXPECT_LT(std::chrono::steady_clock::now(), Deadline)
      << "the cells ran on at most two lanes";

  std::vector<RunOutcome> Want = InlineBackend().runColumns(Columns);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Status, Want[I].Status) << "cell " << I;
    EXPECT_EQ(Got[I].Message, Want[I].Message) << "cell " << I;
    EXPECT_EQ(Got[I].OutputHash, Want[I].OutputHash) << "cell " << I;
    EXPECT_EQ(Got[I].OutputHead, Want[I].OutputHead) << "cell " << I;
    EXPECT_EQ(Got[I].Steps, Want[I].Steps) << "cell " << I;
  }
}

TEST(ThreadPoolTest, ResultsKeyedBySubmissionIndex) {
  ThreadPoolBackend Pool(ExecOptions::withThreads(4));
  const size_t N = 300;
  std::vector<uint64_t> Out(N);
  Pool.forEachIndex(N, [&](size_t I) { Out[I] = I * I + 7; });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Out[I], I * I + 7);
}

TEST(ThreadPoolTest, PropagatesExceptionsAtEveryClaimSize) {
  ThreadPoolBackend Pool(ExecOptions::withThreads(4));
  for (unsigned Chunk : {1u, ThreadPoolBackend::CheapClaimChunk}) {
    // Every index still runs; the throw surfaces after the drain.
    std::vector<std::atomic<unsigned>> Hits(100);
    EXPECT_THROW(Pool.forEachIndex(
                     Hits.size(),
                     [&](size_t I) {
                       Hits[I].fetch_add(1);
                       if (I == 13 || I == 41)
                         throw std::runtime_error("boom");
                     },
                     Chunk),
                 std::runtime_error)
        << "chunk " << Chunk;
    for (size_t I = 0; I != Hits.size(); ++I)
      EXPECT_EQ(Hits[I].load(), 1u) << "chunk " << Chunk << " index " << I;
    // The pool must still be usable after a throwing batch.
    std::atomic<size_t> Sum{0};
    Pool.forEachIndex(10, [&](size_t I) { Sum += I; }, Chunk);
    EXPECT_EQ(Sum.load(), 45u) << "chunk " << Chunk;
  }
}

TEST(ThreadPoolTest, RunMatchesDirectDriverCalls) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Mode = GenMode::Barrier;
  GO.Seed = 4242;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));

  std::vector<ExecJob> Jobs;
  std::vector<RunOutcome> Expected;
  for (const DeviceConfig &C : Zoo)
    for (bool Opt : {false, true}) {
      Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
      Expected.push_back(runTestOnConfig(T, C, Opt));
    }
  Jobs.push_back(ExecJob::onReference(T, true, RunSettings()));
  Expected.push_back(runTestOnReference(T, true));

  ThreadPoolBackend Pool(ExecOptions::withThreads(3));
  std::vector<RunOutcome> Got = Pool.run(Jobs);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    EXPECT_EQ(Got[I].Status, Expected[I].Status) << "job " << I;
    EXPECT_EQ(Got[I].OutputHash, Expected[I].OutputHash) << "job " << I;
  }
}

TEST(ExecDeterminismTest, DifferentialCampaignThreadCountInvariant) {
  // Same seed => identical Table 4 cells for 1, 2 and 8 workers.
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<GenMode> Modes = {GenMode::Barrier, GenMode::All};

  std::vector<ModeTable> Serial =
      runDifferentialCampaign(Zoo, Modes, smallCampaign(1));
  ASSERT_FALSE(Serial.empty());
  for (unsigned Threads : {2u, 8u}) {
    std::vector<ModeTable> Parallel =
        runDifferentialCampaign(Zoo, Modes, smallCampaign(Threads));
    EXPECT_TRUE(sameTables(Serial, Parallel))
        << "thread count " << Threads
        << " changed the campaign result";
  }
}

TEST(ExecDeterminismTest, ClassificationThreadCountInvariant) {
  // Same seed => identical Table 1 rows for 1, 2 and 8 workers.
  std::vector<DeviceConfig> Zoo = smallZoo();
  CampaignSettings S = smallCampaign(1);
  S.KernelsPerMode = 2;
  std::vector<ReliabilityRow> Serial = classifyConfigurations(Zoo, S);
  for (unsigned Threads : {2u, 8u}) {
    S.Exec.Threads = Threads;
    std::vector<ReliabilityRow> Parallel = classifyConfigurations(Zoo, S);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_EQ(Serial[I].ConfigId, Parallel[I].ConfigId);
      EXPECT_EQ(Serial[I].AboveThreshold, Parallel[I].AboveThreshold);
      EXPECT_EQ(Serial[I].Counts.W, Parallel[I].Counts.W);
      EXPECT_EQ(Serial[I].Counts.BF, Parallel[I].Counts.BF);
      EXPECT_EQ(Serial[I].Counts.C, Parallel[I].Counts.C);
      EXPECT_EQ(Serial[I].Counts.TO, Parallel[I].Counts.TO);
      EXPECT_EQ(Serial[I].Counts.Pass, Parallel[I].Counts.Pass);
    }
  }
}

TEST(ExecDeterminismTest, EmiCampaignThreadCountInvariant) {
  // Same seed => identical Table 5 columns for 1, 2 and 8 workers.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo = {configById(Registry, 12),
                                   configById(Registry, 19)};
  EmiCampaignSettings S;
  S.NumBases = 2;
  S.Base.BaseGen.MinThreads = 48;
  S.Base.BaseGen.MaxThreads = 96;

  S.Base.Exec.Threads = 1;
  unsigned SerialUsable = 0;
  std::vector<EmiCampaignColumn> Serial =
      runEmiCampaign(Zoo, S, SerialUsable);

  for (unsigned Threads : {2u, 8u}) {
    S.Base.Exec.Threads = Threads;
    unsigned Usable = 0;
    std::vector<EmiCampaignColumn> Parallel =
        runEmiCampaign(Zoo, S, Usable);
    EXPECT_EQ(SerialUsable, Usable);
    ASSERT_EQ(Serial.size(), Parallel.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_EQ(Serial[I].Key.ConfigId, Parallel[I].Key.ConfigId);
      EXPECT_EQ(Serial[I].Key.Opt, Parallel[I].Key.Opt);
      EXPECT_EQ(Serial[I].BaseFails, Parallel[I].BaseFails);
      EXPECT_EQ(Serial[I].Wrong, Parallel[I].Wrong);
      EXPECT_EQ(Serial[I].InducedBF, Parallel[I].InducedBF);
      EXPECT_EQ(Serial[I].InducedCrash, Parallel[I].InducedCrash);
      EXPECT_EQ(Serial[I].InducedTimeout, Parallel[I].InducedTimeout);
      EXPECT_EQ(Serial[I].Stable, Parallel[I].Stable);
    }
  }
}

TEST(ExecDeterminismTest, ReducerThreadCountInvariant) {
  // The reducer's speculative parallel evaluation must replay the
  // serial acceptance sequence exactly: same final witness, same stats.
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  const DeviceConfig &Oclgrind = configById(Registry, 19);

  TestCase T;
  T.Name = "padded comma bug";
  T.Source = "int helper(int v) { return v * 3 + 1; }\n"
             "kernel void k(global ulong *out) {\n"
             "  int noise0 = 11;\n"
             "  int noise1 = helper(noise0);\n"
             "  for (int i = 0; i < 4; i++) noise1 += i;\n"
             "  short x = 1; uint y;\n"
             "  for (y = -1; y >= 1; ++y) { if (x , 1) break; }\n"
             "  out[get_global_id(0)] = y;\n"
             "}\n";
  T.Range.Global[0] = 1;
  T.Range.Local[0] = 1;
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);

  DifferentialReductionOracle Oracle(Oclgrind, /*Opt=*/false);
  ReducerOptions Opts;
  Opts.Exec.Threads = 1;
  ReduceStats SerialStats;
  TestCase SerialBest = reduceTest(T, Oracle, Opts, &SerialStats);

  for (unsigned Threads : {2u, 8u}) {
    Opts.Exec.Threads = Threads;
    ReduceStats Stats;
    TestCase Best = reduceTest(T, Oracle, Opts, &Stats);
    EXPECT_EQ(Best.Source, SerialBest.Source)
        << "thread count " << Threads;
    EXPECT_EQ(Stats.CandidatesTried, SerialStats.CandidatesTried);
    EXPECT_EQ(Stats.CandidatesKept, SerialStats.CandidatesKept);
    EXPECT_EQ(Stats.FinalLines, SerialStats.FinalLines);
  }
}

TEST(RngForkForJobTest, IndexedStreamsAreStableAndIndependent) {
  Rng Parent(123);
  Rng A = Parent.forkForJob(5);
  Rng B = Parent.forkForJob(5);
  // Same parent state + same index => same stream (forkForJob is
  // const and does not advance the parent).
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());

  // Adjacent indices must diverge.
  Rng C = Parent.forkForJob(6);
  Rng D = Parent.forkForJob(5);
  unsigned Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += C.next() == D.next();
  EXPECT_LT(Same, 5u);

  // The parent stream is untouched by forking.
  Rng Fresh(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Parent.next(), Fresh.next());
}
