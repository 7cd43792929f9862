//===- OutcomeCache.cpp - Content-addressed job outcome cache ----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/OutcomeCache.h"
#include "exec/JobSerialize.h"
#include "exec/WireProtocol.h"
#include "support/Hash.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace clfuzz;

// The wire announces the disk/descriptor format as the hello frame's
// cache generation; the two constants must move together.
static_assert(wire::CacheGeneration == OutcomeCache::FormatVersion,
              "hello cache generation must track the cache format version");

bool clfuzz::parseCacheMode(const std::string &Name, CacheMode &Out) {
  if (Name == "off")
    Out = CacheMode::Off;
  else if (Name == "mem")
    Out = CacheMode::Mem;
  else if (Name == "disk")
    Out = CacheMode::Disk;
  else
    return false;
  return true;
}

uint64_t clfuzz::cacheKeySalt(const ExecOptions &Opts) {
  // Deadlines are the only execution knobs that change an outcome yet
  // live outside the descriptor (a run that would blow a 100 ms
  // deadline completes fine without one). Salting them keeps a
  // Timeout entry from one configuration out of another's lookups.
  // Zero when no deadline is set, so every deadline-free front end
  // shares the common key space.
  if (Opts.ProcTimeoutMs == 0 && Opts.RemoteTimeoutMs == 0)
    return 0;
  return Fnv64()
      .addU64(Opts.ProcTimeoutMs)
      .addU64(Opts.RemoteTimeoutMs)
      .value();
}

namespace {

/// Disk entry magic: "CLOC" little-endian ('C' first on disk).
constexpr uint32_t EntryMagic = 0x434F4C43;

/// 16-digit zero-padded hex, used for stable entry file names.
std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Approximate resident cost of one entry, for the LRU budget. It
/// charges the whole descriptor although a column's entries share one
/// test segment, so eviction does not depend on which keys share.
size_t entryCost(const OutcomeCache::Key &K, const RunOutcome &O) {
  return K.size() + O.Message.size() + O.RaceMessage.size() +
         O.OutputHead.size() * sizeof(uint64_t) + 160;
}

} // namespace

OutcomeCache::OutcomeCache(OutcomeCacheOptions O) : Opts(std::move(O)) {
  if (Opts.Mode == CacheMode::Disk) {
    if (Opts.Dir.empty())
      throw std::runtime_error("outcome cache: disk mode needs a directory");
    std::error_code EC;
    std::filesystem::create_directories(Opts.Dir, EC);
    if (EC)
      throw std::runtime_error("outcome cache: cannot create '" + Opts.Dir +
                               "': " + EC.message());
  }
}

std::vector<uint8_t> OutcomeCache::Key::bytes() const {
  std::vector<uint8_t> B;
  B.reserve(size());
  B.insert(B.end(), Test->begin(), Test->end());
  B.insert(B.end(), Cell.begin(), Cell.end());
  return B;
}

std::vector<OutcomeCache::Key>
OutcomeCache::keysOf(const std::vector<ExecJob> &Jobs) const {
  std::vector<Key> Keys(Jobs.size());
  std::shared_ptr<const std::vector<uint8_t>> Test;
  Fnv64 TestHash;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (I == 0 || Jobs[I].Test != Jobs[I - 1].Test) {
      WireWriter W;
      serializeTestSegment(W, *Jobs[I].Test);
      Test = std::make_shared<const std::vector<uint8_t>>(W.take());
      TestHash = Fnv64().addBytes(Test->data(), Test->size());
    }
    Key &K = Keys[I];
    WireWriter W;
    serializeCellSegment(W, Jobs[I]);
    K.Test = Test;
    K.Cell = W.take();
    // FNV-1a is a running state, so continuing the test segment's
    // state over the cell's bytes gives hashDescriptor(Jobs[I]).
    uint64_t Canonical =
        Fnv64(TestHash).addBytes(K.Cell.data(), K.Cell.size()).value();
    K.Hash = Opts.KeySalt
                 ? Fnv64().addU64(Canonical).addU64(Opts.KeySalt).value()
                 : Canonical;
  }
  return Keys;
}

OutcomeCache::Key OutcomeCache::keyOf(const ExecJob &Job) const {
  return std::move(keysOf({Job}).front());
}

size_t OutcomeCache::shardBudget() const {
  return std::max<size_t>(Opts.MemBudgetBytes, 1u << 20) / NumShards;
}

bool OutcomeCache::lookupMem(const Key &K, RunOutcome &Out) {
  Shard &S = shardFor(K.Hash);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Index.find(K.Hash);
  if (It == S.Index.end() || !It->second->K.sameDescriptor(K))
    return false;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Out = It->second->Outcome;
  return true;
}

void OutcomeCache::insertMem(const Key &K, const RunOutcome &O) {
  Shard &S = shardFor(K.Hash);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Index.find(K.Hash);
  if (It != S.Index.end()) {
    // Same descriptor: refresh recency. Different descriptor with the
    // same fingerprint (a collision): replace — one entry per hash,
    // and the byte comparison keeps the loser a miss, never a lie.
    S.Bytes -= It->second->Cost;
    S.Lru.erase(It->second);
    S.Index.erase(It);
  }
  Entry E;
  E.K = K;
  E.Outcome = O;
  E.Cost = entryCost(K, O);
  S.Bytes += E.Cost;
  S.Lru.push_front(std::move(E));
  S.Index.emplace(K.Hash, S.Lru.begin());
  // Evict least-recently-used; a single oversized entry is kept (the
  // alternative is caching nothing at all under a tiny budget).
  while (S.Bytes > shardBudget() && S.Lru.size() > 1) {
    Entry &Victim = S.Lru.back();
    S.Bytes -= Victim.Cost;
    S.Index.erase(Victim.K.Hash);
    S.Lru.pop_back();
  }
}

std::string OutcomeCache::entryPath(uint64_t Hash) const {
  return Opts.Dir + "/" + hex16(Hash) + ".oc";
}

bool OutcomeCache::lookupDisk(const Key &K, RunOutcome &Out) {
  std::FILE *F = std::fopen(entryPath(K.Hash).c_str(), "rb");
  if (!F)
    return false; // absent is an ordinary miss, not a bad entry
  std::vector<uint8_t> Blob;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Blob.insert(Blob.end(), Buf, Buf + N);
  std::fclose(F);

  // Validate everything before trusting anything: magic, version,
  // salt, the full descriptor bytes and the trailing checksum. Any
  // failure means the entry is from another format or torn — reject
  // it and let the job re-execute (which overwrites the entry).
  try {
    if (Blob.size() < sizeof(uint64_t))
      throw std::runtime_error("truncated");
    size_t BodyLen = Blob.size() - sizeof(uint64_t);
    WireReader R(Blob.data(), Blob.size());
    if (R.u32() != EntryMagic)
      throw std::runtime_error("bad magic");
    if (R.u32() != FormatVersion)
      throw std::runtime_error("version mismatch");
    if (R.u64() != Opts.KeySalt)
      throw std::runtime_error("salt mismatch");
    std::vector<uint8_t> Desc = R.bytes();
    RunOutcome O = deserializeRunOutcome(R);
    uint64_t Sum = R.u64();
    if (!R.atEnd())
      throw std::runtime_error("trailing bytes");
    if (Sum != fnv64(Blob.data(), BodyLen))
      throw std::runtime_error("checksum mismatch");
    if (Desc != K.bytes())
      throw std::runtime_error("descriptor mismatch");
    Out = std::move(O);
  } catch (const std::exception &) {
    BadEntries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  insertMem(K, Out);
  DiskHits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void OutcomeCache::storeDisk(const Key &K, const RunOutcome &O) {
  WireWriter W;
  W.u32(EntryMagic);
  W.u32(FormatVersion);
  W.u64(Opts.KeySalt);
  W.bytes(K.bytes());
  serializeRunOutcome(W, O);
  uint64_t Sum = fnv64(W.buffer().data(), W.buffer().size());
  W.u64(Sum);

  // Crash-safe publish: write a private temp file, then rename it
  // into place. A reader either sees the old entry, the new entry, or
  // nothing — never a torn write. Failures are silently dropped; the
  // disk layer is an accelerator, not a correctness dependency.
#if defined(__unix__) || defined(__APPLE__)
  long Pid = static_cast<long>(::getpid());
#else
  long Pid = 0;
#endif
  std::string Final = entryPath(K.Hash);
  std::string Tmp =
      Final + ".tmp." + std::to_string(Pid);
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return;
  size_t Written =
      std::fwrite(W.buffer().data(), 1, W.buffer().size(), F);
  bool Ok = std::fclose(F) == 0 && Written == W.buffer().size();
  if (!Ok) {
    std::remove(Tmp.c_str());
    return;
  }
  if (std::rename(Tmp.c_str(), Final.c_str()) != 0)
    std::remove(Tmp.c_str());
}

bool OutcomeCache::lookup(const Key &K, RunOutcome &Out) {
  if (lookupMem(K, Out) ||
      (Opts.Mode == CacheMode::Disk && lookupDisk(K, Out))) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void OutcomeCache::store(const Key &K, const RunOutcome &O) {
  insertMem(K, O);
  if (Opts.Mode == CacheMode::Disk)
    storeDisk(K, O);
}

void OutcomeCache::countCoalesced(uint64_t N) {
  if (N)
    Coalesced.fetch_add(N, std::memory_order_relaxed);
}

void OutcomeCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Lru.clear();
    S.Index.clear();
    S.Bytes = 0;
  }
}

OutcomeCacheStats OutcomeCache::stats() const {
  OutcomeCacheStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Coalesced = Coalesced.load(std::memory_order_relaxed);
  S.DiskHits = DiskHits.load(std::memory_order_relaxed);
  S.BadEntries = BadEntries.load(std::memory_order_relaxed);
  return S;
}

MetricsSnapshot clfuzz::metricsSnapshot(const OutcomeCache *Cache) {
  MetricsSnapshot S = metricsSnapshot();
  if (Cache) {
    OutcomeCacheStats C = Cache->stats();
    S[Counter::CacheHits] = C.Hits;
    S[Counter::CacheMisses] = C.Misses;
    S[Counter::CacheCoalesced] = C.Coalesced;
  }
  return S;
}

std::shared_ptr<OutcomeCache>
clfuzz::makeOutcomeCache(const OutcomeCacheOptions &Opts) {
  if (Opts.Mode == CacheMode::Off)
    return nullptr;
  return std::make_shared<OutcomeCache>(Opts);
}

//===----------------------------------------------------------------------===//
// The coalescing backend wrapper
//===----------------------------------------------------------------------===//

namespace {

/// Serves a batch content-addressed: hit / coalesce / dispatch, then
/// fan executed outcomes back out. Results stay keyed by submission
/// index, so the wrapper upholds the ExecBackend contract verbatim.
class CachingBackend final : public ExecBackend {
public:
  CachingBackend(std::unique_ptr<ExecBackend> Inner,
                 std::shared_ptr<OutcomeCache> Cache)
      : Inner(std::move(Inner)), Cache(std::move(Cache)) {}

  // The wrapper is transparent: campaigns report the wrapped
  // backend's kind and width.
  BackendKind kind() const override { return Inner->kind(); }
  unsigned concurrency() const override { return Inner->concurrency(); }
  void forEachIndex(size_t N,
                    const std::function<void(size_t)> &Body) override {
    Inner->forEachIndex(N, Body);
  }

  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override {
    std::vector<RunOutcome> Results(Jobs.size());
    if (Jobs.empty())
      return Results;

    std::vector<OutcomeCache::Key> Keys = Cache->keysOf(Jobs);
    std::vector<ExecJob> Dispatch;          ///< one leader per unique miss
    std::vector<size_t> LeaderJob;          ///< leader's submission index
    std::vector<std::vector<size_t>> Followers; ///< coalesced indices
    /// Salted hash -> positions in Dispatch (a vector so a fingerprint
    /// collision inside one batch still dispatches both descriptors).
    std::unordered_map<uint64_t, std::vector<size_t>> Pending;
    uint64_t CoalescedHere = 0;

    for (size_t I = 0; I != Jobs.size(); ++I) {
      // Identical descriptor already dispatching in this batch? Fold
      // onto it: one execution, N submission indices.
      bool Folded = false;
      auto It = Pending.find(Keys[I].Hash);
      if (It != Pending.end()) {
        for (size_t Pos : It->second) {
          if (Keys[LeaderJob[Pos]].sameDescriptor(Keys[I])) {
            Followers[Pos].push_back(I);
            Folded = true;
            ++CoalescedHere;
            break;
          }
        }
      }
      if (Folded)
        continue;
      if (Cache->lookup(Keys[I], Results[I]))
        continue;
      Pending[Keys[I].Hash].push_back(Dispatch.size());
      LeaderJob.push_back(I);
      Followers.emplace_back();
      Dispatch.push_back(Jobs[I]);
    }
    Cache->countCoalesced(CoalescedHere);

    if (!Dispatch.empty()) {
      // Misses keep their submission order, so consecutive misses of
      // one test still form columns: a cold cache pays the parse once
      // per surviving column, not once per cell. Cache keys were
      // derived per cell above, from one test segment per column.
      std::vector<RunOutcome> Outs =
          Inner->runColumns(groupIntoColumns(Dispatch));
      for (size_t D = 0; D != Dispatch.size(); ++D) {
        size_t Leader = LeaderJob[D];
        Cache->store(Keys[Leader], Outs[D]);
        for (size_t F : Followers[D])
          Results[F] = Outs[D];
        Results[Leader] = std::move(Outs[D]);
      }
    }
    return Results;
  }

private:
  std::unique_ptr<ExecBackend> Inner;
  std::shared_ptr<OutcomeCache> Cache;
};

} // namespace

std::unique_ptr<ExecBackend>
clfuzz::wrapWithOutcomeCache(std::unique_ptr<ExecBackend> Inner,
                             std::shared_ptr<OutcomeCache> Cache) {
  if (!Cache)
    return Inner;
  return std::make_unique<CachingBackend>(std::move(Inner),
                                          std::move(Cache));
}
