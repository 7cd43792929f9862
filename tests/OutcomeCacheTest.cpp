//===- OutcomeCacheTest.cpp - Content-addressed outcome cache suite ----------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Pins the outcome cache's contract (exec/OutcomeCache.h,
// docs/caching.md): cache hits are observationally invisible —
// campaign cells, crash/timeout outcomes, whole reductions and
// campaign tables are byte-identical with the cache off, in memory or
// on disk, on every backend — while identical descriptors coalesce in
// flight, disk entries from another format version or torn writes are
// rejected in favour of re-execution, remote workers answer repeated
// descriptors from their own cache, and a coordinator announcing a
// new cache generation drops a worker's stale entries. The
// concurrency tests run TSan-clean (the cache is shared by
// reduction-queue workers and remote executor slots).
//
//===----------------------------------------------------------------------===//

#include "exec/JobSerialize.h"
#include "exec/OutcomeCache.h"
#include "exec/Pipeline.h"
#include "device/DeviceConfig.h"
#include "oracle/Campaign.h"
#include "oracle/Reducer.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>

using namespace clfuzz;

namespace {

/// A fresh private directory under the system temp dir, removed on
/// destruction.
struct TempDir {
  std::filesystem::path Path;

  TempDir() {
    static int Counter = 0;
    Path = std::filesystem::temp_directory_path() /
           ("clfuzz-octest-" + std::to_string(::testing::UnitTest::GetInstance()
                                                  ->random_seed()) +
            "-" + std::to_string(Counter++));
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

TestCase kernelFor(uint64_t Seed) {
  GenOptions GO;
  GO.Mode = GenMode::All;
  GO.Seed = Seed;
  return TestCase::fromGenerated(generateKernel(GO));
}

std::vector<DeviceConfig> smallZoo() {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo;
  for (int Id : {1, 12, 14, 19})
    Zoo.push_back(configById(Registry, Id));
  return Zoo;
}

/// The dedupe-heavy shape campaigns produce: per configuration column
/// the same reference run plus the column's own run.
std::vector<ExecJob> columnBatch(const TestCase &T,
                                 const std::vector<DeviceConfig> &Zoo) {
  std::vector<ExecJob> Jobs;
  for (const DeviceConfig &C : Zoo) {
    Jobs.push_back(ExecJob::onReference(T, false, RunSettings()));
    Jobs.push_back(ExecJob::onConfig(T, C, true, RunSettings()));
  }
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

std::shared_ptr<OutcomeCache> memCache(size_t BudgetBytes = 64u << 20,
                                       uint64_t Salt = 0) {
  OutcomeCacheOptions CO;
  CO.Mode = CacheMode::Mem;
  CO.MemBudgetBytes = BudgetBytes;
  CO.KeySalt = Salt;
  return makeOutcomeCache(CO);
}

std::shared_ptr<OutcomeCache> diskCache(const std::string &Dir,
                                        uint64_t Salt = 0) {
  OutcomeCacheOptions CO;
  CO.Mode = CacheMode::Disk;
  CO.Dir = Dir;
  CO.KeySalt = Salt;
  return makeOutcomeCache(CO);
}

} // namespace

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

TEST(OutcomeCacheTest, HashDescriptorIsTheFnv64OfCanonicalBytes) {
  TestCase T = kernelFor(4242);
  std::vector<DeviceConfig> Zoo = smallZoo();
  ExecJob Job = ExecJob::onConfig(T, Zoo[1], true, RunSettings());

  std::vector<uint8_t> Bytes = descriptorBytes(Job);
  EXPECT_FALSE(Bytes.empty());
  EXPECT_EQ(hashDescriptor(Job), fnv64(Bytes.data(), Bytes.size()));

  // The fingerprint is a pure function of the descriptor: stable
  // across calls, different for a different cell.
  EXPECT_EQ(hashDescriptor(Job), hashDescriptor(Job));
  ExecJob OtherOpt = ExecJob::onConfig(T, Zoo[1], false, RunSettings());
  EXPECT_NE(hashDescriptor(Job), hashDescriptor(OtherOpt));
  ExecJob Ref = ExecJob::onReference(T, true, RunSettings());
  EXPECT_NE(hashDescriptor(Job), hashDescriptor(Ref));

  // An unsalted cache keys by the canonical fingerprint itself; a
  // salted one (a deadline configured) must not share its key space.
  auto Unsalted = memCache();
  auto Salted = memCache((64u << 20), /*Salt=*/0xfeed);
  EXPECT_EQ(Unsalted->keyOf(Job).Hash, hashDescriptor(Job));
  EXPECT_NE(Salted->keyOf(Job).Hash, Unsalted->keyOf(Job).Hash);
  EXPECT_EQ(Salted->keyOf(Job).bytes(), Bytes);
}

TEST(OutcomeCacheTest, ColumnKeysEqualPerCellKeys) {
  // keysOf serializes and hashes a column's test segment once and
  // continues the FNV state over each cell's own bytes. Every key must
  // still be its cell's own: the same hash (hashDescriptor when
  // unsalted), the same descriptor bytes. A column's keys share one
  // copy of the test bytes; a test that reappears after another
  // column starts a column of its own.
  TestCase A = kernelFor(31), B = kernelFor(32);
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> Jobs = columnBatch(A, Zoo);
  for (const ExecJob &J : columnBatch(B, Zoo))
    Jobs.push_back(J);
  Jobs.push_back(ExecJob::onReference(A, true, RunSettings()));
  ASSERT_EQ(Jobs.size(), 17u);

  for (uint64_t Salt : {uint64_t(0), uint64_t(0xfeed)}) {
    auto Cache = memCache((64u << 20), Salt);
    std::vector<OutcomeCache::Key> Keys = Cache->keysOf(Jobs);
    ASSERT_EQ(Keys.size(), Jobs.size());
    for (size_t I = 0; I != Jobs.size(); ++I) {
      OutcomeCache::Key One = Cache->keyOf(Jobs[I]);
      EXPECT_EQ(Keys[I].Hash, One.Hash) << "salt " << Salt << " job " << I;
      EXPECT_EQ(Keys[I].bytes(), descriptorBytes(Jobs[I]))
          << "salt " << Salt << " job " << I;
      EXPECT_TRUE(Keys[I].sameDescriptor(One))
          << "salt " << Salt << " job " << I;
      if (Salt == 0)
        EXPECT_EQ(Keys[I].Hash, hashDescriptor(Jobs[I])) << "job " << I;
    }
    EXPECT_EQ(Keys[0].Test, Keys[7].Test);
    EXPECT_NE(Keys[7].Test, Keys[8].Test);
    EXPECT_EQ(Keys[8].Test, Keys[15].Test);
    EXPECT_NE(Keys[15].Test, Keys[16].Test);
    EXPECT_TRUE(Keys[16].Test != Keys[0].Test &&
                *Keys[16].Test == *Keys[0].Test);
    EXPECT_TRUE(Keys[0].sameDescriptor(Keys[2])); // the same reference run
    EXPECT_FALSE(Keys[0].sameDescriptor(Keys[1]));
  }
}

//===----------------------------------------------------------------------===//
// In-memory LRU behaviour
//===----------------------------------------------------------------------===//

TEST(OutcomeCacheTest, MemCacheStoresLooksUpAndCountsStats) {
  auto Cache = memCache();
  TestCase T = kernelFor(7);
  ExecJob Job = ExecJob::onReference(T, false, RunSettings());
  OutcomeCache::Key K = Cache->keyOf(Job);

  RunOutcome Out;
  EXPECT_FALSE(Cache->lookup(K, Out));
  RunOutcome O;
  O.Status = RunStatus::Ok;
  O.OutputHash = 0xabcdef;
  O.Steps = 123;
  Cache->store(K, O);
  ASSERT_TRUE(Cache->lookup(K, Out));
  EXPECT_EQ(Out.OutputHash, 0xabcdefu);
  EXPECT_EQ(Out.Steps, 123u);

  OutcomeCacheStats S = Cache->stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Coalesced, 0u);

  Cache->clear();
  EXPECT_FALSE(Cache->lookup(K, Out));
}

TEST(OutcomeCacheTest, MemCacheEvictsLeastRecentlyUsedUnderBudget) {
  // A budget of 1 MiB split over 16 shards: a few hundred small
  // entries overflow it comfortably.
  auto Cache = memCache(1u << 20);
  TestCase T = kernelFor(11);
  RunOutcome O;
  O.Status = RunStatus::Ok;

  std::vector<OutcomeCache::Key> Keys;
  std::vector<RunSettings> Settings(4096);
  for (size_t I = 0; I != Settings.size(); ++I) {
    Settings[I].SchedulerSeed = I + 1; // distinct descriptors
    Keys.push_back(
        Cache->keyOf(ExecJob::onReference(T, false, Settings[I])));
    O.OutputHash = I;
    Cache->store(Keys.back(), O);
  }
  // The most recent entry must still be resident; the very first must
  // have been evicted (each entry costs > 1 KiB of descriptor bytes,
  // and 4096 of them cannot fit in 1 MiB).
  RunOutcome Out;
  EXPECT_TRUE(Cache->lookup(Keys.back(), Out));
  EXPECT_EQ(Out.OutputHash, Settings.size() - 1);
  EXPECT_FALSE(Cache->lookup(Keys.front(), Out));
}

TEST(OutcomeCacheTest, ColumnKeysKeepHitsMissesAndEvictions) {
  // Entries are charged their whole descriptor although a column's
  // keys share one test segment, so a 1 MiB budget evicts what it
  // evicted when every key held its own copy of the test. The pinned
  // counts and the fingerprint of the surviving entries are those of
  // per-cell keys: 24 columns of 8 cells, stored then probed oldest
  // first.
  auto Cache = memCache(1u << 20);
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<TestCase> Tests;
  for (uint64_t Seed = 500; Seed != 524; ++Seed)
    Tests.push_back(kernelFor(Seed));
  std::vector<OutcomeCache::Key> All;
  for (const TestCase &T : Tests) {
    std::vector<ExecJob> Column;
    for (const DeviceConfig &C : Zoo)
      for (bool Opt : {false, true})
        Column.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
    for (OutcomeCache::Key &K : Cache->keysOf(Column)) {
      RunOutcome Out;
      EXPECT_FALSE(Cache->lookup(K, Out));
      RunOutcome O;
      O.Status = RunStatus::Ok;
      O.OutputHash = All.size();
      Cache->store(K, O);
      All.push_back(std::move(K));
    }
  }
  Fnv64 Survivors;
  for (size_t I = 0; I != All.size(); ++I) {
    RunOutcome Out;
    if (Cache->lookup(All[I], Out)) {
      EXPECT_EQ(Out.OutputHash, I);
      Survivors.addU64(I);
    }
  }
  OutcomeCacheStats S = Cache->stats();
  EXPECT_EQ(S.Hits, 91u);
  EXPECT_EQ(S.Misses, 293u);
  EXPECT_EQ(Survivors.value(), 11530386444764578817u);
}

//===----------------------------------------------------------------------===//
// Byte-identity: cache off / mem / disk, on every backend
//===----------------------------------------------------------------------===//

TEST(OutcomeCacheTest, BatchesAreByteIdenticalWithCacheOffMemAndDisk) {
  TestCase T = kernelFor(20257);
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> Jobs = columnBatch(T, Zoo);

  std::vector<ExecOptions> Matrix;
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Inline));
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Threads, 2));
  Matrix.push_back(ExecOptions::withBackend(BackendKind::Procs, 2));

  std::vector<RunOutcome> Expected =
      makeBackend(ExecOptions::withBackend(BackendKind::Inline))->run(Jobs);

  for (ExecOptions Opts : Matrix) {
    std::string Ctx = backendKindName(Opts.Backend);

    Opts.Cache = memCache();
    expectSameOutcomes(Expected, makeBackend(Opts)->run(Jobs),
                       Ctx + "/mem cold");
    // Warm: the same cache serves the whole batch.
    expectSameOutcomes(Expected, makeBackend(Opts)->run(Jobs),
                       Ctx + "/mem warm");
    EXPECT_GT(Opts.Cache->stats().Hits, 0u) << Ctx;

    TempDir Dir;
    Opts.Cache = diskCache(Dir.str());
    expectSameOutcomes(Expected, makeBackend(Opts)->run(Jobs),
                       Ctx + "/disk cold");
    // A *fresh* cache over the same directory: entries must come off
    // disk, not process memory.
    Opts.Cache = diskCache(Dir.str());
    expectSameOutcomes(Expected, makeBackend(Opts)->run(Jobs),
                       Ctx + "/disk reopen");
    EXPECT_GT(Opts.Cache->stats().DiskHits, 0u) << Ctx;
  }
}

TEST(OutcomeCacheTest, CampaignTablesAreIdenticalWithAndWithoutCache) {
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<GenMode> Modes = {GenMode::Basic, GenMode::Barrier};

  auto Run = [&](std::shared_ptr<OutcomeCache> Cache) {
    CampaignSettings S;
    S.KernelsPerMode = 3;
    S.Exec = ExecOptions::withBackend(BackendKind::Threads, 2);
    S.Exec.Cache = std::move(Cache);
    S.BaseGen.MinThreads = 48;
    S.BaseGen.MaxThreads = 128;
    return runDifferentialCampaign(Zoo, Modes, S);
  };

  std::vector<ModeTable> Plain = Run(nullptr);
  auto Cache = memCache();
  std::vector<ModeTable> Cached = Run(Cache);
  std::vector<ModeTable> Warm = Run(Cache); // full replay, all hits

  auto ExpectSameTables = [](const std::vector<ModeTable> &A,
                             const std::vector<ModeTable> &B) {
    ASSERT_EQ(A.size(), B.size());
    for (size_t M = 0; M != A.size(); ++M) {
      EXPECT_EQ(A[M].Mode, B[M].Mode);
      EXPECT_EQ(A[M].NumTests, B[M].NumTests);
      ASSERT_EQ(A[M].Cells.size(), B[M].Cells.size());
      auto IA = A[M].Cells.begin();
      auto IB = B[M].Cells.begin();
      for (; IA != A[M].Cells.end(); ++IA, ++IB) {
        EXPECT_EQ(IA->first.ConfigId, IB->first.ConfigId);
        EXPECT_EQ(IA->first.Opt, IB->first.Opt);
        EXPECT_EQ(IA->second.W, IB->second.W);
        EXPECT_EQ(IA->second.BF, IB->second.BF);
        EXPECT_EQ(IA->second.C, IB->second.C);
        EXPECT_EQ(IA->second.TO, IB->second.TO);
        EXPECT_EQ(IA->second.Pass, IB->second.Pass);
      }
    }
  };
  ExpectSameTables(Plain, Cached);
  ExpectSameTables(Plain, Warm);
  EXPECT_GT(Cache->stats().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Crash and timeout outcomes are cacheable
//===----------------------------------------------------------------------===//

TEST(OutcomeCacheTest, CrashOutcomesAreServedFromCacheWithoutAFork) {
  TestCase T = kernelFor(5);
  RunSettings Aborting;
  Aborting.DebugHardAbort = true;
  std::vector<ExecJob> Jobs = {ExecJob::onReference(T, false, Aborting)};

  ExecOptions Opts = ExecOptions::withBackend(BackendKind::Procs, 1);
  Opts.Cache = memCache();
  std::unique_ptr<ExecBackend> Backend = makeBackend(Opts);

  std::vector<RunOutcome> First = Backend->run(Jobs);
  ASSERT_EQ(First[0].Status, RunStatus::Crash);
  std::vector<RunOutcome> Second = Backend->run(Jobs);
  expectSameOutcomes(First, Second, "cached crash");
  OutcomeCacheStats S = Opts.Cache->stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(OutcomeCacheTest, TimeoutOutcomesAreServedFromCacheUnderTheirSalt) {
  TestCase T = kernelFor(6);
  RunSettings Spinning;
  Spinning.DebugSpinMs = 2000;
  std::vector<ExecJob> Jobs = {ExecJob::onReference(T, false, Spinning)};

  ExecOptions Opts = ExecOptions::withBackend(BackendKind::Procs, 1);
  Opts.ProcTimeoutMs = 100;
  // The deadline lives outside the descriptor, so it participates in
  // the key as the salt.
  ASSERT_NE(cacheKeySalt(Opts), 0u);
  Opts.Cache = memCache((64u << 20), cacheKeySalt(Opts));
  std::unique_ptr<ExecBackend> Backend = makeBackend(Opts);

  std::vector<RunOutcome> First = Backend->run(Jobs);
  ASSERT_EQ(First[0].Status, RunStatus::Timeout);
  std::vector<RunOutcome> Second = Backend->run(Jobs);
  expectSameOutcomes(First, Second, "cached timeout");
  EXPECT_EQ(Opts.Cache->stats().Hits, 1u);
}

//===----------------------------------------------------------------------===//
// In-flight coalescing
//===----------------------------------------------------------------------===//

TEST(OutcomeCacheTest, IdenticalDescriptorsInOneBatchDispatchOnce) {
  TestCase T = kernelFor(77);
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 8; ++I)
    Jobs.push_back(ExecJob::onReference(T, false, RunSettings()));
  Jobs.push_back(ExecJob::onConfig(T, Zoo[0], true, RunSettings()));

  std::vector<RunOutcome> Expected = InlineBackend().run(Jobs);

  ExecOptions Opts = ExecOptions::withBackend(BackendKind::Threads, 4);
  Opts.Cache = memCache();
  std::vector<RunOutcome> Got = makeBackend(Opts)->run(Jobs);
  expectSameOutcomes(Expected, Got, "coalesced batch");

  OutcomeCacheStats S = Opts.Cache->stats();
  EXPECT_EQ(S.Misses, 2u);    // one reference leader + the config cell
  EXPECT_EQ(S.Coalesced, 7u); // the other seven references folded
  EXPECT_EQ(S.Hits, 0u);
}

TEST(OutcomeCacheTest, ConcurrentSharedCacheIsCoherent) {
  // The sharing pattern of reduction-queue jobs and worker slots:
  // many threads, one cache, overlapping key ranges, with a clear()
  // in the middle. TSan-clean; lookups that succeed must return the
  // outcome stored for exactly that descriptor.
  auto Cache = memCache(1u << 20);
  TestCase T = kernelFor(99);

  auto Hammer = [&](unsigned Tid) {
    for (unsigned I = 0; I != 200; ++I) {
      RunSettings S;
      S.SchedulerSeed = (I % 37) + 1; // overlap across threads
      ExecJob Job = ExecJob::onReference(T, (I + Tid) % 2 != 0, S);
      OutcomeCache::Key K = Cache->keyOf(Job);
      RunOutcome Out;
      if (Cache->lookup(K, Out)) {
        EXPECT_EQ(Out.OutputHash, K.Hash); // stored below, per key
      } else {
        RunOutcome O;
        O.Status = RunStatus::Ok;
        O.OutputHash = K.Hash;
        Cache->store(K, O);
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned Tid = 0; Tid != 4; ++Tid)
    Threads.emplace_back(Hammer, Tid);
  Cache->clear();
  for (std::thread &Th : Threads)
    Th.join();
}

//===----------------------------------------------------------------------===//
// Disk store: versioning, corruption, crash-safety
//===----------------------------------------------------------------------===//

namespace {

/// The single entry file in \p Dir (the tests below store exactly one).
std::filesystem::path soleEntry(const TempDir &Dir) {
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    if (E.path().extension() == ".oc")
      return E.path();
  return {};
}

} // namespace

TEST(OutcomeCacheTest, DiskEntryFromAnotherFormatVersionIsRejected) {
  TempDir Dir;
  TestCase T = kernelFor(123);
  ExecJob Job = ExecJob::onReference(T, false, RunSettings());

  {
    auto Cache = diskCache(Dir.str());
    RunOutcome O;
    O.Status = RunStatus::Ok;
    O.OutputHash = 42;
    Cache->store(Cache->keyOf(Job), O);
  }
  std::filesystem::path Entry = soleEntry(Dir);
  ASSERT_FALSE(Entry.empty());

  // Bump the version field in place (u32 at offset 4, little-endian).
  {
    std::FILE *F = std::fopen(Entry.string().c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fseek(F, 4, SEEK_SET), 0);
    uint8_t NewVersion = OutcomeCache::FormatVersion + 1;
    ASSERT_EQ(std::fwrite(&NewVersion, 1, 1, F), 1u);
    std::fclose(F);
  }

  auto Cache = diskCache(Dir.str());
  RunOutcome Out;
  EXPECT_FALSE(Cache->lookup(Cache->keyOf(Job), Out));
  EXPECT_EQ(Cache->stats().BadEntries, 1u);

  // Re-execution through the wrapper repairs the entry.
  ExecOptions Opts = ExecOptions::withBackend(BackendKind::Inline);
  Opts.Cache = Cache;
  makeBackend(Opts)->run({Job});
  auto Fresh = diskCache(Dir.str());
  EXPECT_TRUE(Fresh->lookup(Fresh->keyOf(Job), Out));
}

TEST(OutcomeCacheTest, DiskEntryKeepsTheFormatVersion2Layout) {
  // A key held as a shared test segment plus the cell's bytes must
  // write the entry a whole-descriptor key wrote: magic, version,
  // salt, the full descriptor, the outcome and the checksum, under the
  // salted hash's file name. The pinned fingerprint is that of the
  // entry written with whole-descriptor keys.
  TempDir Dir;
  TestCase T = kernelFor(200001);
  std::vector<DeviceConfig> Zoo = smallZoo();
  ExecJob Job = ExecJob::onConfig(T, Zoo[1], true, RunSettings());
  RunOutcome O;
  O.Status = RunStatus::Ok;
  O.OutputHash = 0x1234;
  O.Steps = 99;
  O.Message = "pinned";
  O.OutputHead = {1, 2, 3};
  uint64_t Salt = 0x5a17;
  {
    auto Cache = diskCache(Dir.str(), Salt);
    Cache->store(Cache->keyOf(Job), O);
  }
  std::filesystem::path Entry = soleEntry(Dir);
  ASSERT_FALSE(Entry.empty());
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.oc",
                static_cast<unsigned long long>(
                    Fnv64().addU64(hashDescriptor(Job)).addU64(Salt).value()));
  EXPECT_EQ(Entry.filename().string(), Name);

  std::vector<uint8_t> File;
  {
    std::FILE *F = std::fopen(Entry.string().c_str(), "rb");
    ASSERT_NE(F, nullptr);
    int C;
    while ((C = std::fgetc(F)) != EOF)
      File.push_back(static_cast<uint8_t>(C));
    std::fclose(F);
  }
  WireWriter W;
  W.u32(0x434F4C43); // "CLOC"
  W.u32(2);
  W.u64(Salt);
  W.bytes(descriptorBytes(Job));
  serializeRunOutcome(W, O);
  W.u64(fnv64(W.buffer().data(), W.buffer().size()));
  EXPECT_EQ(File, W.buffer());
  EXPECT_EQ(fnv64(File.data(), File.size()), 17009015262244734502u);
}

TEST(OutcomeCacheTest, CorruptedDiskEntriesFallBackToExecution) {
  TempDir Dir;
  TestCase T = kernelFor(321);
  ExecJob Job = ExecJob::onReference(T, true, RunSettings());

  std::vector<RunOutcome> Expected = InlineBackend().run({Job});

  {
    auto Cache = diskCache(Dir.str());
    ExecOptions Opts = ExecOptions::withBackend(BackendKind::Inline);
    Opts.Cache = Cache;
    makeBackend(Opts)->run({Job});
  }
  std::filesystem::path Entry = soleEntry(Dir);
  ASSERT_FALSE(Entry.empty());

  // Flip a byte in the middle: the checksum must catch it.
  {
    auto Size = std::filesystem::file_size(Entry);
    std::FILE *F = std::fopen(Entry.string().c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fseek(F, static_cast<long>(Size / 2), SEEK_SET), 0);
    int C = std::fgetc(F);
    ASSERT_NE(C, EOF);
    ASSERT_EQ(std::fseek(F, static_cast<long>(Size / 2), SEEK_SET), 0);
    uint8_t Flipped = static_cast<uint8_t>(C) ^ 0xff;
    ASSERT_EQ(std::fwrite(&Flipped, 1, 1, F), 1u);
    std::fclose(F);
  }

  auto Cache = diskCache(Dir.str());
  ExecOptions Opts = ExecOptions::withBackend(BackendKind::Inline);
  Opts.Cache = Cache;
  std::vector<RunOutcome> Got = makeBackend(Opts)->run({Job});
  expectSameOutcomes(Expected, Got, "corrupt entry re-executes");
  EXPECT_EQ(Cache->stats().BadEntries, 1u);
  EXPECT_EQ(Cache->stats().Misses, 1u);

  // Truncated-to-garbage entry (a torn write that bypassed the
  // temp-then-rename discipline) is also just a miss.
  {
    std::FILE *F = std::fopen(Entry.string().c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("zz", F);
    std::fclose(F);
  }
  auto Cache2 = diskCache(Dir.str());
  RunOutcome Out;
  EXPECT_FALSE(Cache2->lookup(Cache2->keyOf(Job), Out));
  EXPECT_EQ(Cache2->stats().BadEntries, 1u);
}

//===----------------------------------------------------------------------===//
// Reduction byte-identity
//===----------------------------------------------------------------------===//

namespace {

/// A small differential witness with deletable noise (the
/// reduction_throughput shape, scaled down).
TestCase noisyWitness() {
  TestCase T;
  T.Name = "noisy comma bug";
  T.Source = "int helper(int v) { return v * 3 + 1; }\n"
             "kernel void k(global ulong *out) {\n"
             "  int noise1 = helper(11);\n"
             "  int pad0 = 1;\n"
             "  for (int i0 = 0; i0 < 3; i0++) pad0 += noise1;\n"
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
  return T;
}

struct ReductionRun {
  std::string Source;
  std::string Trace;
  ReduceStats Stats;
};

ReductionRun reduceWith(std::shared_ptr<OutcomeCache> Cache) {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19), false);

  ReductionRun R;
  ReducerOptions Opts;
  Opts.MaxCandidates = 300;
  Opts.Exec = ExecOptions::withBackend(BackendKind::Threads, 2);
  Opts.Exec.Cache = std::move(Cache);
  Opts.Trace = [&R](const ReduceTraceEvent &E) {
    R.Trace += renderReduceTraceJsonl(E);
  };
  R.Source = reduceTest(noisyWitness(), Oracle, Opts, &R.Stats).Source;
  return R;
}

} // namespace

TEST(OutcomeCacheTest, ReductionsAreByteIdenticalWithCacheOnAndOff) {
  ReductionRun Plain = reduceWith(nullptr);
  ASSERT_TRUE(Plain.Stats.WitnessWasInteresting);

  auto Cache = memCache();
  ReductionRun Cold = reduceWith(Cache);
  // A second reduction of the same witness replays cached probes —
  // the descriptor-level subsumption of the printed-form cache.
  ReductionRun Warm = reduceWith(Cache);

  for (const ReductionRun *R : {&Cold, &Warm}) {
    EXPECT_EQ(Plain.Source, R->Source);
    EXPECT_EQ(Plain.Trace, R->Trace);
    EXPECT_EQ(Plain.Stats.CandidatesTried, R->Stats.CandidatesTried);
    EXPECT_EQ(Plain.Stats.CandidatesKept, R->Stats.CandidatesKept);
    EXPECT_EQ(Plain.Stats.CandidatesSkipped, R->Stats.CandidatesSkipped);
    EXPECT_EQ(Plain.Stats.Rounds, R->Stats.Rounds);
    EXPECT_EQ(Plain.Stats.Escalations, R->Stats.Escalations);
    EXPECT_EQ(Plain.Stats.FinalLines, R->Stats.FinalLines);
  }
  EXPECT_GT(Cache->stats().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Remote workers: per-worker cache and the hello cache generation
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

#include "exec/RemoteBackend.h"
#include "exec/WireProtocol.h"
#include "exec/WorkerLoop.h"

#include <unistd.h>

namespace {

ExecOptions remoteOpts(const WorkerServer &Server) {
  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.RemoteWorkers.push_back("127.0.0.1:" + std::to_string(Server.port()));
  return O;
}

} // namespace

TEST(OutcomeCacheTest, WorkerCacheServesRepeatedDescriptorsWithoutRerun) {
  WorkerOptions WO;
  WO.Jobs = 1; // one slot: executed-vs-served counts are deterministic
  WO.Cache = CacheMode::Mem;
  WorkerServer Server(WO);
  ASSERT_TRUE(Server.start());

  TestCase T = kernelFor(31415);
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> Jobs = columnBatch(T, Zoo);
  const size_t Unique = 1 + Zoo.size(); // one reference + each column

  std::vector<RunOutcome> Expected = InlineBackend().run(Jobs);

  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(remoteOpts(Server));
  expectSameOutcomes(Expected, Remote->run(Jobs), "worker cache cold");
  EXPECT_EQ(Server.jobsExecuted(), Unique);
  EXPECT_EQ(Server.jobsServedFromCache(), Jobs.size() - Unique);

  // A second campaign (fresh coordinator, same fleet): everything is
  // answered from the worker's cache; nothing re-executes.
  std::unique_ptr<ExecBackend> Again = makeRemoteBackend(remoteOpts(Server));
  expectSameOutcomes(Expected, Again->run(Jobs), "worker cache warm");
  EXPECT_EQ(Server.jobsExecuted(), Unique);
  EXPECT_EQ(Server.jobsServedFromCache(), 2 * Jobs.size() - Unique);

  Server.stop();
}

TEST(OutcomeCacheTest, HelloWithNewCacheGenerationDropsWorkerCache) {
  WorkerOptions WO;
  WO.Jobs = 1;
  WO.Cache = CacheMode::Mem;
  WorkerServer Server(WO);
  ASSERT_TRUE(Server.start());

  TestCase T = kernelFor(2718);
  std::vector<ExecJob> Jobs = {
      ExecJob::onReference(T, false, RunSettings())};

  std::vector<RunOutcome> First =
      makeRemoteBackend(remoteOpts(Server))->run(Jobs);
  EXPECT_EQ(Server.jobsExecuted(), 1u);
  std::vector<RunOutcome> Cached =
      makeRemoteBackend(remoteOpts(Server))->run(Jobs);
  EXPECT_EQ(Server.jobsExecuted(), 1u); // served from cache

  // A coordinator from "another build" announces a different cache
  // generation; the worker must drop its stale entries.
  {
    int Fd = wire::connectTcp("127.0.0.1", Server.port(), 2000);
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(wire::writeFrame(Fd, wire::FrameType::Hello,
                                 wire::encodeHello(wire::CacheGeneration + 7)));
    wire::Frame F;
    ASSERT_EQ(wire::readFrame(Fd, F), wire::ReadStatus::Ok);
    ASSERT_EQ(F.Type, wire::FrameType::HelloAck);
    wire::writeFrame(Fd, wire::FrameType::Shutdown, {});
    ::close(Fd);
  }

  std::vector<RunOutcome> AfterClear =
      makeRemoteBackend(remoteOpts(Server))->run(Jobs);
  EXPECT_EQ(Server.jobsExecuted(), 2u); // the cleared cache re-executed
  expectSameOutcomes(First, Cached, "pre-clear");
  expectSameOutcomes(First, AfterClear, "post-clear");

  Server.stop();
}

#endif // sockets
