//===- RemoteBackend.h - Socket-fed multi-host execution backend -*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator half of multi-host campaign execution: an
/// ExecBackend that multiplexes a batch of campaign cells over N
/// `clfuzz worker` connections (exec/WorkerLoop.h), speaking the
/// framed protocol of exec/WireProtocol.h (docs/wire-protocol.md).
/// It is the TCP lane kind of the shared dispatch loop
/// (exec/Dispatch.h): the process pool's pipe lanes and these links
/// run the same loop over the same frames, so crossing a machine
/// boundary changes scheduling and failure handling, never results.
///
/// Scheduling: each worker advertises its slot count in the
/// handshake; the loop keeps two units — columns, or single cells in
/// run() — per slot in flight on each connection (enough to hide one
/// round trip, small enough that a dying worker strands little).
/// Outcomes arrive tagged with their cell's submission index, in
/// whatever order workers finish, and reassemble into Results[I] ==
/// outcome of Jobs[I] — the bit-identity contract survives the network
/// because descriptors are pure (exec/JobSerialize.h) and reassembly
/// is index-keyed, so `--backend=remote` output is byte-identical to
/// `--backend=inline` at any worker count.
///
/// Failure handling is the loop's one rule: the unanswered cells of a
/// worker that dies (EOF, reset, garbage frame), misses a heartbeat
/// (ExecOptions::RemoteHeartbeatMs; how a wedged-but-connected worker
/// is told from a slow one) or lets a cell blow ExecOptions::
/// RemoteTimeoutMs are requeued once, alone, and recorded as Crash or
/// Timeout on a second loss — never silently dropped. What this lane
/// kind adds: dead endpoints are re-dialled at every batch boundary
/// (and immediately when no worker is left), so a restarted worker
/// rejoins without coordinator restart; rendezvous workers are adopted
/// from a FleetRegistry mid-batch; a leaving worker drains its window.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_REMOTEBACKEND_H
#define CLFUZZ_EXEC_REMOTEBACKEND_H

#include "exec/ExecBackend.h"

#include <string>
#include <vector>

namespace clfuzz {

/// Splits a `--workers=host:port,host:port,...` value. Entries are
/// not validated here (makeRemoteBackend rejects malformed ones).
std::vector<std::string> splitWorkerList(const std::string &List);

/// Builds the remote backend from ExecOptions::RemoteWorkers
/// ("host:port" each), RemoteTimeoutMs and RemoteHeartbeatMs. Throws
/// std::runtime_error when the worker list is empty or malformed, or
/// when this platform has no socket support; workers themselves are
/// dialled lazily (first run()), so a not-yet-started worker fleet is
/// an execution-time error, not a construction-time one.
std::unique_ptr<ExecBackend> makeRemoteBackend(const ExecOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_REMOTEBACKEND_H
