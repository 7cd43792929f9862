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
///
/// An unknown flag, or a numeric value that is not a whole
/// non-negative decimal integer, exits 2 naming the flag.
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

#include <charconv>
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
  const char *Slash = std::strrchr(Argv[0], '/');
  const char *Harness = Slash ? Slash + 1 : Argv[0];
  HarnessArgs A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const size_t Eq = Arg.find('=');
    const std::string Key = Arg.substr(0, Eq);
    const std::string V = Eq == std::string::npos ? "" : Arg.substr(Eq + 1);
    auto Fail = [&](const std::string &Message) {
      std::fprintf(stderr, "%s: %s\n", Harness, Message.c_str());
      std::exit(2);
    };
    // The whole value must be a decimal integer no larger than Max, so
    // the default Max lets every count narrow to unsigned.
    auto Number = [&](uint64_t Max = UINT32_MAX) {
      uint64_t N = 0;
      auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), N);
      if (V.empty() || Ec != std::errc() || End != V.data() + V.size() ||
          N > Max)
        Fail("invalid value '" + V + "' for " + Key +
             " (expected a non-negative integer)");
      return N;
    };
    if (Arg == "--full") {
      A.Full = true;
    } else if (Key == "--kernels") {
      A.Kernels = Number();
    } else if (Key == "--seed") {
      A.Seed = Number(UINT64_MAX);
    } else if (Key == "--threads") {
      A.Threads = Number();
    } else if (Key == "--shard-size") {
      A.ShardSize = Number();
    } else if (Key == "--backend") {
      if (!parseBackendKind(V, A.Backend))
        Fail("unknown backend '" + V + "' (inline, threads, procs, remote)");
    } else if (Key == "--workers") {
      A.Workers = splitWorkerList(V);
    } else if (Key == "--cache") {
      if (!parseCacheMode(V, A.Cache))
        Fail("unknown cache mode '" + V + "' (off, mem, disk)");
    } else if (Key == "--cache-dir") {
      A.CacheDir = V;
      if (A.Cache == CacheMode::Off)
        A.Cache = CacheMode::Disk;
    } else if (Key == "--cache-mem-mb") {
      A.CacheMemMb = Number();
    } else if (Key == "--format") {
      if (!parseTableFormat(V, A.Format))
        Fail("unknown format '" + V + "' (text, csv, json)");
    } else {
      Fail("unknown flag '" + Arg + "'");
    }
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
