//===- WorkerLoop.h - clfuzz worker: socket-fed job executor ----*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker half of multi-host campaign execution: a TCP server
/// that accepts coordinator connections, speaks the framed protocol
/// of exec/WireProtocol.h (specified in docs/wire-protocol.md), and
/// runs each received column through a *local, fork-isolated*
/// process-pool slot — so a cell that crashes the VM or blows its
/// wall-clock deadline kills one disposable subprocess on the worker
/// machine, is reported back as that cell's Crash/Timeout outcome, and
/// the worker keeps serving. A `clfuzz worker` on another machine is
/// the paper's "many cores" knob turned past one host.
///
/// Shape: one service thread per accepted connection (a campaign
/// coordinator and several background reduction jobs can all be
/// clients of the same worker at once) decodes `column` frames into a
/// queue; per connection, `Jobs` executor slots each take one column
/// at a time, answer the cells the worker-side outcome cache knows,
/// and run the rest as one column through a single-child
/// ProcessPoolBackend (exec/ProcessPool.h) — one parse, one launch
/// memo, but only while ProcTimeoutMs is 0: with a deadline set the
/// pool runs one cell per frame, so each cell parses alone and no
/// launch is shared. Outcomes go back one frame per cell, tagged base tag + k, in
/// whatever order the slots finish. Determinism is inherited
/// wholesale: a cell descriptor is a pure function of its bytes
/// (exec/JobSerialize.h), so where it runs is unobservable in
/// campaign output.
///
/// Two ways onto a fleet (docs/fleet.md): listen mode (the worker
/// binds a port and coordinators dial it — the static `--workers=`
/// flow) and rendezvous mode (`--connect=host:port`: the worker dials
/// the coordinator's FleetRegistry, registers with a wire-v3 join
/// frame, and redials on a jittered exponential backoff whenever the
/// connection drops — so the fleet grows mid-campaign and a bounced
/// worker rejoins by itself).
///
/// WorkerServer is embeddable (tests/RemoteBackendTest.cpp runs
/// loopback workers in-process); `clfuzz worker` wraps it in
/// runWorkerCommand. The fault-injection options model the failure
/// modes the coordinator must survive: DieAfterJobs hard-closes the
/// server before the Nth outcome is sent (worker death with cells in
/// flight), IgnoreJobs swallows columns and heartbeats (wedged worker),
/// DrainAfterJobs leaves gracefully, FlapAfterJobs kills and redials
/// the connection in a loop, StaleJoins rehearses the
/// stale-cache-generation rejection. Every connection teardown emits
/// the structured drop line of exec/FleetRegistry.h.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_WORKERLOOP_H
#define CLFUZZ_EXEC_WORKERLOOP_H

#include "exec/OutcomeCache.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace clfuzz {

/// Configuration for a worker server (`clfuzz worker` flags map 1:1).
struct WorkerOptions {
  /// Interface to bind ("127.0.0.1" for loopback-only workers;
  /// "0.0.0.0" to serve a real fleet).
  std::string Host = "127.0.0.1";

  /// Listen port; 0 binds an ephemeral port (the bound port is
  /// reported by WorkerServer::port() and printed by `clfuzz worker`).
  unsigned Port = 0;

  /// Rendezvous mode (`--connect=host:port`): dial this coordinator's
  /// fleet registry and register instead of listening. Host/Port are
  /// ignored when set; the worker redials with jittered exponential
  /// backoff whenever the connection drops or a join is refused.
  std::string Connect;

  /// Executor slots per connection (0 = one per hardware thread), each
  /// running one column at a time. Advertised to the coordinator in
  /// the hello-ack so it can size its in-flight window.
  unsigned Jobs = 1;

  /// Wall-clock deadline per cell, enforced by each slot's local
  /// process pool (0 = none): a runaway is killed, retried once and
  /// then answered as Timeout. Outcome messages match --backend=procs
  /// with the same ProcTimeoutMs, keeping remote output bit-identical.
  unsigned ProcTimeoutMs = 0;

  /// Fault injection: after executing this many cells (across all
  /// connections), hard-close every socket *before* sending the Nth
  /// outcome — a worker dying with cells in flight, possibly in the
  /// middle of a column. 0 disables.
  unsigned DieAfterJobs = 0;

  /// Fault injection: complete the handshake, then silently discard
  /// every job and heartbeat — a wedged worker the coordinator can
  /// only detect by timeout. Off by default, obviously.
  bool IgnoreJobs = false;

  /// Fault injection / operations: after executing this many jobs
  /// (across all connections), send a wire-v3 leave frame — the
  /// coordinator finishes this worker's in-flight window, dispatches
  /// nothing new, and closes gracefully with zero requeues. The
  /// worker process then exits (runWorkerCommand) or reports
  /// drained(). 0 disables.
  unsigned DrainAfterJobs = 0;

  /// Fault injection: a flapping worker — after executing this many
  /// jobs *on one connection*, suppress that outcome and hard-close
  /// the connection, then (in rendezvous mode) redial with backoff
  /// and do it again. Models the die/redial loop of a machine cycling
  /// under an unstable supply of anything. 0 disables. Keep it above
  /// the in-flight window, counted in cells (2 x Jobs for per-cell
  /// batches, 2 x Jobs x a column's cells for column batches), so every
  /// killed cell completes on its retry before the next flap — the
  /// byte-identity chaos tests rely on that.
  unsigned FlapAfterJobs = 0;

  /// Fault injection, rendezvous mode only: announce a wrong cache
  /// generation in the first N join frames. The registry must refuse
  /// each (join-ack accepted=0), the worker must clear its cache and
  /// redial with backoff, and join N+1 succeeds. 0 disables.
  unsigned StaleJoins = 0;

  /// Worker-side outcome cache (`--cache=off|mem|disk`): repeated
  /// descriptors — the reference runs campaigns re-dispatch per
  /// configuration column, reduction re-probes — are served without a
  /// fork. Shared by every executor slot of every connection. Cleared
  /// when a coordinator's hello announces a different cache
  /// generation (exec/WireProtocol.h).
  CacheMode Cache = CacheMode::Off;
  /// Disk store root (`--cache-dir=`); survives worker restarts.
  std::string CacheDir;
  /// In-memory cache budget in MiB (`--cache-mem-mb=`; 0 = default).
  unsigned CacheMemMb = 0;
};

/// A running worker server. start() binds and begins accepting;
/// stop() (or the destructor) closes everything and joins all
/// threads, waiting for in-flight jobs to finish or die.
class WorkerServer {
public:
  explicit WorkerServer(WorkerOptions Opts = WorkerOptions());
  ~WorkerServer();

  WorkerServer(const WorkerServer &) = delete;
  WorkerServer &operator=(const WorkerServer &) = delete;

  /// Binds and starts the accept loop; false if the bind failed (port
  /// in use, no socket support on this platform).
  bool start();

  /// The actually bound port (after start(); resolves Port == 0).
  unsigned port() const { return BoundPort; }

  /// Executor slots per connection (Opts.Jobs with 0 resolved to the
  /// hardware concurrency) — the value advertised in every hello-ack.
  unsigned jobsPerConnection() const { return ResolvedJobs; }

  /// Closes the listen socket and every connection, then joins all
  /// service threads. Idempotent.
  void stop();

  /// Jobs fully executed so far (outcomes sent or suppressed by
  /// DieAfterJobs). Cache-served jobs are not executions and are not
  /// counted here — fault injection triggers on real work.
  size_t jobsExecuted() const { return Executed.load(); }

  /// Jobs answered from the worker-side outcome cache (0 without one).
  size_t jobsServedFromCache() const { return CacheServed.load(); }

  /// Outcome-cache counters (all zero when caching is off).
  OutcomeCacheStats cacheStats() const {
    return Cache ? Cache->stats() : OutcomeCacheStats();
  }

  /// True once DieAfterJobs tripped and the server self-destructed.
  bool died() const { return Died.load(); }

  /// True once a DrainAfterJobs leave completed (the draining
  /// connection was closed by the coordinator with its window empty).
  bool drained() const { return Drained.load(); }

  /// Rendezvous mode: joins accepted by the registry so far (a
  /// flapping worker accumulates one per redial cycle).
  size_t joinsCompleted() const { return Joins.load(); }

private:
  struct Connection;

  /// Handshake hook: a coordinator announcing a cache generation
  /// different from the one the cache was filled under drops every
  /// in-memory entry (disk entries are version-checked on read).
  void noteCacheGeneration(uint64_t Gen);

  void acceptLoop();
  /// Rendezvous mode: dial-join-serve-redial, on the worker-side
  /// backoff schedule, until stopped, died, or drained.
  void dialerLoop();
  /// Backoff/retry sleep that stop() and die/drain can interrupt.
  void sleepInterruptible(unsigned Ms);
  void serveConnection(Connection &Conn);
  void runnerLoop(Connection &Conn);
  /// Abrupt self-destruction (DieAfterJobs): closes every fd so all
  /// peers see EOF; threads wind down on their own and are joined by
  /// stop(). Safe to call from a runner thread.
  void closeAllSockets();

  WorkerOptions Opts;
  unsigned ResolvedJobs = 1;
  unsigned BoundPort = 0;
  std::atomic<int> ListenFd{-1};
  std::thread Acceptor;
  std::string DialHost; ///< parsed from Opts.Connect
  unsigned DialPort = 0;
  std::thread Dialer;
  std::mutex StopMu;
  std::condition_variable StopCV;
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Died{false};
  std::atomic<bool> Drained{false};
  std::atomic<bool> DrainRequested{false};
  std::atomic<size_t> Joins{0};
  std::atomic<unsigned> StaleLeft{0};
  std::atomic<size_t> Executed{0};
  std::atomic<size_t> CacheServed{0};
  std::shared_ptr<OutcomeCache> Cache; ///< null when caching is off
  std::atomic<uint64_t> CacheGen{0};   ///< generation the cache holds

  std::mutex ConnsMu;
  std::vector<std::unique_ptr<Connection>> Conns;
};

/// Blocking entry point for `clfuzz worker`: starts a WorkerServer,
/// prints the "listening on host:port" line (stdout, flushed — the CI
/// scripts parse it to learn an ephemeral port), and serves until
/// SIGINT/SIGTERM. Returns a process exit code.
int runWorkerCommand(const WorkerOptions &Opts);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_WORKERLOOP_H
