//===- ProcessPool.h - Fork-isolated execution backend ----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-pool ExecBackend: campaign cells execute in forked
/// worker subprocesses, so a cell that crashes the VM or runs away past
/// its wall-clock deadline kills one disposable worker — recorded as
/// that cell's Crash/Timeout outcome — instead of the whole campaign.
/// This is the isolation model real many-core fuzzing needs: the
/// paper's campaigns brought down drivers and whole machines, and a
/// scheduler that dies with its victim cannot hunt at scale.
///
/// The pool is the pipe lane kind of the shared dispatch loop
/// (exec/Dispatch.h): each lane is a child forked from this process
/// that reads wire `column` frames on one pipe and answers every cell
/// with a tagged `outcome` frame on the other (exec/WireProtocol.h) —
/// the same frames a remote worker speaks. Windows, reassembly and the
/// failure rule are the loop's; this file only forks, reaps and words
/// the outcome of a twice-lost cell.
///
/// Determinism: a job descriptor carries the test case, the device
/// configuration and the run settings by value (exec/JobSerialize.h),
/// so the worker re-derives exactly the deterministic streams —
/// generator seeds, scheduler seeds, lottery salts, Rng::forkForJob
/// children baked into the descriptor — that the in-process backends
/// use. Same seed => byte-identical tables on every backend.
///
/// Workers are forked lazily on the first batch and reused across
/// batches; a dead worker is reaped and replaced without disturbing
/// the rest of the pool. One frame is in flight per worker — a column
/// (or a slice of one) from runColumns(), one cell from run() — so the
/// parent only ever writes to an idle child and the pipes cannot
/// deadlock. With a wall-clock deadline set, every frame is one cell,
/// so the SIGKILL stays per cell — and each cell parses its kernel
/// itself, without the column's shared front end or launch memo.
///
/// A cell whose worker dies or misses its deadline gets one retry,
/// alone, on a fresh worker. An innocent cell stranded by a column
/// neighbour's crash (or by an externally killed worker: OOM, an
/// operator) re-runs to its true result. A genuinely crashing or
/// runaway cell is deterministic like every cell, so it fails the
/// retry too and is recorded as a Crash or Timeout.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_PROCESSPOOL_H
#define CLFUZZ_EXEC_PROCESSPOOL_H

#include "exec/ExecBackend.h"

namespace clfuzz {

/// Builds the process-pool backend: ExecOptions::Threads workers
/// (0 = one per core), ExecOptions::ProcTimeoutMs wall-clock deadline
/// per cell (0 = none). On platforms without fork() this returns the
/// serial InlineBackend instead — same results, no isolation.
///
/// The outcome cache layers *above* this pool, never inside it: the
/// coordinator-side caching wrapper (makeBackend with
/// ExecOptions::Cache) and the worker-side cache in
/// WorkerLoop's executor slots both answer repeated descriptors
/// before a frame is ever written to a child, so a cache hit —
/// including a remembered Crash or Timeout outcome — costs no fork.
std::unique_ptr<ExecBackend> makeProcessPoolBackend(const ExecOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_PROCESSPOOL_H
