//===- FleetRegistry.h - Rendezvous point for elastic fleets ----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator side of rendezvous mode (docs/fleet.md): where a
/// statically-listed worker waits for the coordinator to dial *it*, a
/// rendezvous worker (`clfuzz worker --connect=host:port`) dials the
/// coordinator's FleetRegistry, registers with a wire-v3 join frame,
/// and is handed to the remote backend as a live link — so a fleet
/// can grow mid-campaign instead of being fixed at `--workers=` parse
/// time.
///
/// The registry owns exactly the handshake: accept, read one join,
/// check the cache generation, answer a join-ack, park the socket.
/// RemoteBackend drains the parked sockets (takeJoined()) at its
/// dispatch boundaries — every join is adopted between shards, never
/// mid-poll, which is what keeps adoption free of locking in the job
/// path. A worker joining with a stale cache generation is refused
/// (accepted=0 in the ack, so it clears its cache and redials with
/// backoff) — the same invariant the v2 hello enforces, at the only
/// point a rendezvous worker learns the coordinator's generation.
///
/// This header also hosts the fleet-wide observability shared by the
/// registry, the remote backend and the worker: the view of the
/// fleet_* counters --stats reports (the `fleet` family of the counter
/// registry, support/Metrics.h, attributed per campaign by the
/// scheduler like every family) and the structured one-line drop log
/// every connection teardown emits.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_FLEETREGISTRY_H
#define CLFUZZ_EXEC_FLEETREGISTRY_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace clfuzz {

//===----------------------------------------------------------------------===//
// Fleet counters (--stats `fleet_*` line)
//===----------------------------------------------------------------------===//

/// A snapshot of the process-wide fleet counters. All counting happens
/// inside RemoteBackend::run() — i.e. inside a serialized scheduler
/// step for sched campaigns — so per-campaign deltas sum exactly to
/// the global totals.
struct FleetCounters {
  uint64_t Joins = 0;     ///< rendezvous workers adopted as live links
  uint64_t Leaves = 0;    ///< graceful drains completed (zero requeues)
  uint64_t Evictions = 0; ///< live links dropped (death, wedge, garbage)
  uint64_t Redials = 0;   ///< reconnect attempts to known-dead endpoints
  uint64_t Requeues = 0;  ///< in-flight jobs requeued off a dropped link
};

/// Reads the current totals (relaxed; exact under the scheduler's
/// serialized stepping).
FleetCounters fleetCounters();

//===----------------------------------------------------------------------===//
// Structured drop log
//===----------------------------------------------------------------------===//

/// Emits the one-line structured record every connection teardown in
/// the fleet layer produces, greppable in CI chaos logs:
///
///   clfuzz fleet: drop side=<worker|coordinator|registry>
///                 peer=<addr> reason=<kebab-slug>
///
/// Always stderr — campaign stdout is byte-compared against inline
/// runs and must not depend on fleet weather.
void logFleetDrop(const char *Side, const std::string &Peer,
                  const std::string &Reason);

/// "host:port" of the socket's peer, or "?" when the fd is gone.
std::string peerName(int Fd);

//===----------------------------------------------------------------------===//
// FleetRegistry
//===----------------------------------------------------------------------===//

/// A worker that completed the join handshake and is parked waiting
/// for the remote backend to adopt it. The fd is live, recv timeout
/// cleared, join-ack already sent; ownership transfers wholesale via
/// takeJoined().
struct JoinedWorker {
  int Fd = -1;
  uint32_t Concurrency = 1;
  std::string Peer; ///< "host:port" for logs and --stats
};

/// The rendezvous listener. One per coordinator process; carried in
/// ExecOptions::Fleet (a shared_ptr, like the outcome cache) so the
/// tool layer can create it once, print its ephemeral port, and every
/// remote backend sharing those options polls the same registry.
class FleetRegistry {
public:
  FleetRegistry() = default;
  ~FleetRegistry();

  FleetRegistry(const FleetRegistry &) = delete;
  FleetRegistry &operator=(const FleetRegistry &) = delete;

  /// Binds host:port (0 = ephemeral) and starts the accept thread;
  /// false if the bind failed.
  bool start(const std::string &Host, unsigned Port);

  /// The actually bound port (after start()).
  unsigned port() const { return BoundPort; }

  /// Closes the listen socket, joins the accept thread, and closes
  /// any parked-but-unadopted worker sockets. Idempotent.
  void stop();

  /// Drains the parked workers (handshake done, fds live). Ownership
  /// of the fds moves to the caller — the remote backend wraps each
  /// in a Link. Cheap when nothing joined (one mutex, empty swap).
  std::vector<JoinedWorker> takeJoined();

  /// Joins the accept thread has admitted / refused so far. Rejected
  /// joins are stale-cache-generation workers told to clear and
  /// redial; they are registry weather, not campaign work, so they
  /// are not part of the fleet_* counter family.
  uint64_t joinsAccepted() const { return Accepted.load(); }
  uint64_t joinsRejected() const { return Rejected.load(); }

private:
  void acceptLoop();

  unsigned BoundPort = 0;
  std::atomic<int> ListenFd{-1};
  std::thread Acceptor;
  std::atomic<bool> Stopping{false};
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Rejected{0};

  std::mutex Mu;
  std::vector<JoinedWorker> Pending;
};

/// Creates and starts a registry; throws std::runtime_error when the
/// bind fails (mirrors makeRemoteBackend's fail-fast contract).
std::shared_ptr<FleetRegistry> makeFleetRegistry(const std::string &Host,
                                                 unsigned Port);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_FLEETREGISTRY_H
