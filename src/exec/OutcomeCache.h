//===- OutcomeCache.h - Content-addressed job outcome cache -----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of job outcomes, keyed by the FNV-1a
/// fingerprint of the canonical JobSerialize descriptor bytes. The
/// ExecBackend contract guarantees jobs are pure functions of their
/// serialized descriptors (pinned by tests/BackendConformanceTest.cpp),
/// so an identical descriptor is identical work: campaigns re-dispatch
/// the same reference run once per configuration column, and reduction
/// fixpoints re-probe candidates earlier rounds already executed. The
/// cache turns all of that into lookups.
///
/// Three layers, all optional and all observationally invisible —
/// campaign tables, hunt/reduce output, JSONL traces and stats are
/// byte-identical with the cache on or off; only wall-clock time and
/// the `--stats` cache counters change:
///
///  * a sharded in-memory LRU (OutcomeCache), safe for concurrent use
///    from reduction-queue workers and remote-worker executor slots;
///  * in-flight coalescing (wrapWithOutcomeCache): N identical
///    descriptors in one batch dispatch once and the outcome fans out
///    to all N submission indices;
///  * an optional on-disk store (`--cache-dir=`): one file per entry,
///    magic-tagged, versioned, carrying the full descriptor bytes and
///    a checksum, written temp-then-rename so a crash never leaves a
///    torn entry. A version mismatch or any corruption rejects the
///    entry and the job simply re-executes.
///
/// Keys include a caller-supplied salt for execution knobs that live
/// outside the descriptor (wall-clock deadlines): a Timeout outcome
/// recorded under one deadline is never served to a run with another.
///
/// docs/caching.md specifies the key derivation, the coalescing
/// semantics, the disk format and the invalidation story.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_OUTCOMECACHE_H
#define CLFUZZ_EXEC_OUTCOMECACHE_H

#include "exec/ExecBackend.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace clfuzz {

/// Where cached outcomes live (`--cache=`).
enum class CacheMode : uint8_t {
  Off,  ///< no caching; every job executes
  Mem,  ///< in-memory LRU only; dies with the process
  Disk, ///< memory LRU backed by a persistent per-entry file store
};

/// Parses a --cache= value; returns false on an unknown name.
bool parseCacheMode(const std::string &Name, CacheMode &Out);

/// Cache construction options (CLI flags map 1:1).
struct OutcomeCacheOptions {
  CacheMode Mode = CacheMode::Off;

  /// Disk store root (`--cache-dir=`); required when Mode == Disk.
  /// Created on construction; shared across campaigns and processes.
  std::string Dir;

  /// In-memory budget in bytes (`--cache-mem-mb=`), enforced per
  /// shard with LRU eviction. Values below 1 MiB are clamped up.
  size_t MemBudgetBytes = 64u << 20;

  /// Fingerprint of the execution knobs that change outcomes but live
  /// outside the descriptor — wall-clock deadlines, today (see
  /// cacheKeySalt). Entries recorded under one salt never satisfy
  /// lookups under another.
  uint64_t KeySalt = 0;
};

/// The salt for ExecOptions' outside-the-descriptor knobs: the
/// process-pool and remote per-job deadlines. Everything else that
/// affects an outcome is in the descriptor bytes.
uint64_t cacheKeySalt(const ExecOptions &Opts);

/// Counters, all monotonically increasing over the cache's lifetime.
/// Every job consulting the cache is exactly one of hit / miss /
/// coalesced.
struct OutcomeCacheStats {
  uint64_t Hits = 0;       ///< served from memory or disk
  uint64_t Misses = 0;     ///< not found; the job executed
  uint64_t Coalesced = 0;  ///< folded onto an identical in-batch dispatch
  uint64_t DiskHits = 0;   ///< subset of Hits satisfied from disk
  uint64_t BadEntries = 0; ///< disk entries rejected (version/corruption)
};

/// The cache proper. Thread-safe: lookups and stores take one shard
/// mutex each, stats are atomics — reduction-queue jobs and remote
/// worker slots share one instance freely.
class OutcomeCache {
public:
  /// Bumped on any incompatible change to the disk entry layout *or*
  /// to the descriptor serialization it embeds; old entries are then
  /// rejected (never reinterpreted). Mirrored on the wire as the hello
  /// frame's cache generation so coordinators drop stale worker
  /// caches (exec/WireProtocol.h).
  static constexpr uint32_t FormatVersion = 2;

  explicit OutcomeCache(OutcomeCacheOptions Opts);

  OutcomeCache(const OutcomeCache &) = delete;
  OutcomeCache &operator=(const OutcomeCache &) = delete;

  /// A computed cache key: the salted fingerprint plus the full
  /// canonical descriptor bytes, held as the test segment — one copy
  /// shared by every key of a column — followed by the cell's own
  /// segment (exec/JobSerialize.h), so Test + Cell ==
  /// descriptorBytes(job). The bytes travel with the key so a 64-bit
  /// fingerprint collision degrades to a miss, never to a wrong
  /// outcome — cache hits must be unobservable.
  struct Key {
    uint64_t Hash = 0;
    std::shared_ptr<const std::vector<uint8_t>> Test;
    std::vector<uint8_t> Cell;

    /// The descriptor's length in bytes.
    size_t size() const { return Test->size() + Cell.size(); }
    /// The descriptor bytes, both segments concatenated.
    std::vector<uint8_t> bytes() const;
    /// Every descriptor byte equal (a shared test segment is equal by
    /// identity).
    bool sameDescriptor(const Key &O) const {
      return Cell == O.Cell && (Test == O.Test || *Test == *O.Test);
    }
  };

  /// Derives the keys of \p Jobs under this cache's salt, in order.
  /// Each run of consecutive jobs sharing one TestCase (a column)
  /// serializes and FNV-hashes its test segment once; each cell's key
  /// continues that hash state over the cell's own segment, so
  /// Key::Hash still equals hashDescriptor(job) (salted).
  std::vector<Key> keysOf(const std::vector<ExecJob> &Jobs) const;
  /// keysOf for a single job.
  Key keyOf(const ExecJob &Job) const;

  /// Consults memory, then disk. True = \p Out is the cached outcome
  /// (counted as a hit); false = the caller must execute the job
  /// (counted as a miss).
  bool lookup(const Key &K, RunOutcome &Out);

  /// Records an executed job's outcome (memory, and disk when
  /// enabled). Idempotent; best-effort on disk — an unwritable store
  /// degrades to caching in memory only, never to an error.
  void store(const Key &K, const RunOutcome &O);

  /// Counts batch-level dedupe performed by the coalescing wrapper.
  void countCoalesced(uint64_t N);

  /// Drops every in-memory entry (disk entries survive; they are
  /// version-checked on read). Used when a coordinator announces a
  /// different cache generation.
  void clear();

  OutcomeCacheStats stats() const;
  const OutcomeCacheOptions &options() const { return Opts; }

private:
  struct Entry {
    Key K;
    RunOutcome Outcome;
    size_t Cost = 0;
  };
  /// One LRU shard: list front = most recently used, index keyed by
  /// the salted hash (one entry per hash; colliding descriptors
  /// overwrite, which is safe — the byte comparison turns a stale
  /// colliding entry into a miss).
  struct Shard {
    std::mutex Mu;
    std::list<Entry> Lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
    size_t Bytes = 0;
  };
  static constexpr size_t NumShards = 16;

  Shard &shardFor(uint64_t Hash) {
    return Shards[(Hash >> 58) % NumShards];
  }
  size_t shardBudget() const;
  void insertMem(const Key &K, const RunOutcome &O);
  bool lookupMem(const Key &K, RunOutcome &Out);
  bool lookupDisk(const Key &K, RunOutcome &Out);
  void storeDisk(const Key &K, const RunOutcome &O);
  std::string entryPath(uint64_t Hash) const;

  OutcomeCacheOptions Opts;
  Shard Shards[NumShards];
  std::atomic<uint64_t> Hits{0}, Misses{0}, Coalesced{0}, DiskHits{0},
      BadEntries{0};
};

/// Builds a cache for \p Opts, or null when Mode == Off. Throws
/// std::runtime_error when Mode == Disk and the directory cannot be
/// created.
std::shared_ptr<OutcomeCache> makeOutcomeCache(const OutcomeCacheOptions &Opts);

/// The counter registry's snapshot (support/Metrics.h) with its cache
/// slots set from \p Cache's stats — zero when \p Cache is null. The
/// cache counts per instance, so this is the one place its counters
/// join the registry's.
MetricsSnapshot metricsSnapshot(const OutcomeCache *Cache);

/// Wraps \p Inner so every run() consults \p Cache before dispatch:
/// hits are served without touching the backend, identical descriptors
/// in one batch dispatch once (in-flight coalescing) and fan the
/// outcome out to every submission index, and executed outcomes are
/// stored on the way back. kind()/concurrency()/forEachIndex delegate,
/// so the wrapper is invisible to everything but the stats counters.
/// makeBackend() applies this automatically when ExecOptions::Cache is
/// set.
std::unique_ptr<ExecBackend>
wrapWithOutcomeCache(std::unique_ptr<ExecBackend> Inner,
                     std::shared_ptr<OutcomeCache> Cache);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_OUTCOMECACHE_H
