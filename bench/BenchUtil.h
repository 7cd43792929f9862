//===- BenchUtil.h - Shared helpers for the table harnesses -----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small shared utilities for the bench binaries that regenerate the
/// paper's tables. Every harness accepts:
///
///   --full        paper-scale test counts (slow)
///   --kernels=N   explicit override of the per-mode test count
///   --seed=N      campaign seed base
///   --threads=N   execution workers (1 = serial, 0 = all cores)
///   --backend=B   inline | threads | procs (crash-isolated workers)
///                 | remote (a `clfuzz worker` fleet over TCP)
///   --workers=host:port,...  the remote fleet (--backend=remote)
///   --shard-size=N  kernels held alive per shard (streaming bound)
///   --format=F    text | csv | json table output
///   --cache=M     off | mem | disk content-addressed outcome cache
///   --cache-dir=D disk store root (implies --cache=disk)
///   --cache-mem-mb=N  in-memory cache budget
///   --triage-witnesses=N  witnesses the triage harness bisects
///   --triage-opt  triage at the optimising level (default -O0)
///
/// Tables are bit-identical for every backend, worker count, shard
/// size and cache mode; only wall-clock time and fault isolation
/// change.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_BENCH_BENCHUTIL_H
#define CLFUZZ_BENCH_BENCHUTIL_H

#include "exec/ExecBackend.h"
#include "exec/OutcomeCache.h"
#include "exec/RemoteBackend.h"
#include "exec/ResultSink.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

namespace clfuzz::bench {

struct HarnessArgs {
  bool Full = false;
  unsigned Kernels = 0; ///< 0 = harness default
  uint64_t Seed = 100000;
  /// Worker count (campaign tables are identical for any value; this
  /// only changes wall-clock time).
  unsigned Threads = 1;
  /// Which ExecBackend runs the campaign cells.
  BackendKind Backend = BackendKind::Threads;
  /// Streaming shard bound (0 = ExecOptions default).
  unsigned ShardSize = 0;
  /// Output rendering; Text keeps each harness's native layout.
  TableFormat Format = TableFormat::Text;
  /// Remote fleet endpoints ("host:port" each; --backend=remote).
  std::vector<std::string> Workers;
  /// Content-addressed outcome cache (--cache / --cache-dir /
  /// --cache-mem-mb); tables are byte-identical with or without it.
  CacheMode Cache = CacheMode::Off;
  std::string CacheDir;
  unsigned CacheMemMb = 0;
  /// Witness count for the triage harness (0 = harness default).
  unsigned TriageWitnesses = 0;
  /// Triage probes run at the optimising level instead of -O0.
  bool TriageOpt = false;

  /// The ExecOptions a campaign settings struct should use.
  ExecOptions execOptions() const {
    ExecOptions E = ExecOptions::withThreads(Threads);
    E.Backend = Backend;
    if (ShardSize)
      E.ShardSize = ShardSize;
    E.RemoteWorkers = Workers;
    if (Backend == BackendKind::Remote && Workers.empty()) {
      std::fprintf(stderr,
                   "--backend=remote needs --workers=host:port,...\n");
      std::exit(2);
    }
    if (Cache != CacheMode::Off) {
      OutcomeCacheOptions CO;
      CO.Mode = Cache;
      CO.Dir = CacheDir;
      if (CacheMemMb)
        CO.MemBudgetBytes = static_cast<size_t>(CacheMemMb) << 20;
      CO.KeySalt = cacheKeySalt(E);
      try {
        E.Cache = makeOutcomeCache(CO);
      } catch (const std::exception &Ex) {
        std::fprintf(stderr, "%s\n", Ex.what());
        std::exit(2);
      }
    }
    return E;
  }
};

inline HarnessArgs parseArgs(int Argc, char **Argv) {
  HarnessArgs A;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--full") == 0)
      A.Full = true;
    else if (std::strncmp(Argv[I], "--kernels=", 10) == 0)
      A.Kernels = static_cast<unsigned>(std::atoi(Argv[I] + 10));
    else if (std::strncmp(Argv[I], "--seed=", 7) == 0)
      A.Seed = static_cast<uint64_t>(std::atoll(Argv[I] + 7));
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      A.Threads = static_cast<unsigned>(std::atoi(Argv[I] + 10));
    else if (std::strncmp(Argv[I], "--shard-size=", 13) == 0)
      A.ShardSize = static_cast<unsigned>(std::atoi(Argv[I] + 13));
    else if (std::strncmp(Argv[I], "--backend=", 10) == 0) {
      if (!parseBackendKind(Argv[I] + 10, A.Backend)) {
        std::fprintf(
            stderr,
            "unknown backend '%s' (inline, threads, procs, remote)\n",
            Argv[I] + 10);
        std::exit(2);
      }
    } else if (std::strncmp(Argv[I], "--workers=", 10) == 0) {
      A.Workers = splitWorkerList(Argv[I] + 10);
    } else if (std::strncmp(Argv[I], "--cache=", 8) == 0) {
      if (!parseCacheMode(Argv[I] + 8, A.Cache)) {
        std::fprintf(stderr, "unknown cache mode '%s' (off, mem, disk)\n",
                     Argv[I] + 8);
        std::exit(2);
      }
    } else if (std::strncmp(Argv[I], "--cache-dir=", 12) == 0) {
      A.CacheDir = Argv[I] + 12;
      if (A.Cache == CacheMode::Off)
        A.Cache = CacheMode::Disk;
    } else if (std::strncmp(Argv[I], "--cache-mem-mb=", 15) == 0) {
      A.CacheMemMb = static_cast<unsigned>(std::atoi(Argv[I] + 15));
    } else if (std::strncmp(Argv[I], "--triage-witnesses=", 19) == 0) {
      A.TriageWitnesses = static_cast<unsigned>(std::atoi(Argv[I] + 19));
    } else if (std::strcmp(Argv[I], "--triage-opt") == 0) {
      A.TriageOpt = true;
    } else if (std::strncmp(Argv[I], "--format=", 9) == 0) {
      if (!parseTableFormat(Argv[I] + 9, A.Format)) {
        std::fprintf(stderr, "unknown format '%s' (text, csv, json)\n",
                     Argv[I] + 9);
        std::exit(2);
      }
    } else
      std::fprintf(stderr, "warning: unknown argument '%s'\n", Argv[I]);
  }
  return A;
}

inline void printRule(unsigned Width = 78) {
  for (unsigned I = 0; I != Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

} // namespace clfuzz::bench

#endif // CLFUZZ_BENCH_BENCHUTIL_H
