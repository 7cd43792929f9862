//===- WorkerLoop.cpp - clfuzz worker: socket-fed job executor ---------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/WorkerLoop.h"

#include "exec/FleetRegistry.h"
#include "exec/ProcessPool.h"
#include "exec/WireProtocol.h"
#include "support/Backoff.h"
#include "support/Hash.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace clfuzz;

/// Per-connection state. The service thread reads frames and feeds
/// the queue; runner threads drain it and write outcome frames (the
/// write mutex serializes outcomes and heartbeat acks on the socket).
struct WorkerServer::Connection {
  /// Written once at accept time, closed by ~Connection (which runs
  /// only after the service thread was joined) — so every other
  /// thread may read it freely and shutdown() it to force EOF, with
  /// no close/reuse race.
  int Fd = -1;
  std::thread Service;
  std::atomic<bool> Done{false};

  ~Connection() {
#if defined(__unix__) || defined(__APPLE__)
    if (Fd >= 0)
      ::close(Fd);
#endif
  }

  std::mutex WriteMu;
  std::mutex QueueMu;
  std::condition_variable QueueCV;
  std::deque<wire::DecodedColumn> Queue;
  bool Closing = false;

  /// Rendezvous connections arrive with the join handshake already
  /// done by the dialer; serveConnection skips straight to frames.
  bool PreAccepted = false;
  /// Executions on this connection only — the FlapAfterJobs trigger
  /// (flapping is per die/redial cycle, unlike DieAfterJobs).
  std::atomic<size_t> SessionExecuted{0};
};

#if defined(__unix__) || defined(__APPLE__)

#include <cerrno>
#include <csignal>
#include <sys/socket.h>

WorkerServer::WorkerServer(WorkerOptions O) : Opts(std::move(O)) {
  ExecOptions E;
  E.Threads = Opts.Jobs;
  ResolvedJobs = E.resolvedThreads();

  // One cache for the whole server: every slot of every connection
  // consults it, so a reference run dispatched by one coordinator
  // serves every later coordinator too. Salted by this worker's
  // per-job deadline, exactly like a coordinator-side cache.
  OutcomeCacheOptions CO;
  CO.Mode = Opts.Cache;
  CO.Dir = Opts.CacheDir;
  if (Opts.CacheMemMb)
    CO.MemBudgetBytes = static_cast<size_t>(Opts.CacheMemMb) << 20;
  ExecOptions SaltSource;
  SaltSource.ProcTimeoutMs = Opts.ProcTimeoutMs;
  CO.KeySalt = cacheKeySalt(SaltSource);
  Cache = makeOutcomeCache(CO);
  StaleLeft.store(Opts.StaleJoins);
}

void WorkerServer::noteCacheGeneration(uint64_t Gen) {
  uint64_t Prev = CacheGen.exchange(Gen);
  if (Cache && Prev != 0 && Prev != Gen)
    Cache->clear();
}

WorkerServer::~WorkerServer() { stop(); }

bool WorkerServer::start() {
  if (!Opts.Connect.empty()) {
    // Rendezvous mode: no listener — the dialer owns the (single)
    // coordinator connection and its redial schedule.
    size_t Colon = Opts.Connect.rfind(':');
    if (Colon == std::string::npos || Colon == 0 ||
        Colon + 1 == Opts.Connect.size())
      return false;
    long Port = std::atol(Opts.Connect.c_str() + Colon + 1);
    if (Port <= 0 || Port > 65535)
      return false;
    DialHost = Opts.Connect.substr(0, Colon);
    DialPort = static_cast<unsigned>(Port);
    Dialer = std::thread([this] { dialerLoop(); });
    return true;
  }
  ListenFd = wire::listenTcp(Opts.Host, Opts.Port, BoundPort);
  if (ListenFd < 0)
    return false;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void WorkerServer::stop() {
  // shutdown() (not close()) wakes threads blocked in accept/read;
  // fds are closed only after every thread that could touch them was
  // joined, so there is no close/reuse race.
  if (!Stopping.exchange(true) && ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  StopCV.notify_all(); // wake a dialer parked in its backoff sleep
  if (Acceptor.joinable())
    Acceptor.join();
  // The acceptor is gone and the dialer (below) will find Stopping
  // set under ConnsMu before registering anything new, so after
  // closeAllSockets the connection set only shrinks; wake every
  // service and runner thread, then join and destroy them all
  // (~Connection closes each fd).
  closeAllSockets();
  if (Dialer.joinable())
    Dialer.join();
  std::vector<std::unique_ptr<Connection>> Doomed;
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Doomed.swap(Conns);
  }
  for (auto &Conn : Doomed)
    if (Conn->Service.joinable())
      Conn->Service.join();
  // A DieAfterJobs runner thread may call closeAllSockets() — which
  // shutdown()s the listen fd — right up until the joins above, so
  // only now may its number be closed and released for reuse.
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0)
    ::close(Fd);
}

void WorkerServer::closeAllSockets() {
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    for (auto &Conn : Conns) {
      if (Conn->Fd >= 0)
        ::shutdown(Conn->Fd, SHUT_RDWR);
      std::lock_guard<std::mutex> QLock(Conn->QueueMu);
      Conn->Closing = true;
      Conn->QueueCV.notify_all();
    }
    if (ListenFd >= 0)
      ::shutdown(ListenFd, SHUT_RDWR);
  }
  StopCV.notify_all(); // a dialer parked in backoff must re-check Died
}

void WorkerServer::sleepInterruptible(unsigned Ms) {
  std::unique_lock<std::mutex> Lock(StopMu);
  StopCV.wait_for(Lock, std::chrono::milliseconds(Ms),
                  [this] { return Stopping.load() || Died.load(); });
}

// How long a fresh connection may dawdle before its hello (listen
// mode) or the coordinator before its join-ack (rendezvous mode).
static constexpr unsigned HandshakeTimeoutMs = 10000;

// Redial schedule of a rendezvous worker: quick first retry, settle
// at a few seconds. Jitter is seeded per endpoint so a bounced fleet
// does not thunder back in lockstep, yet each worker's schedule is
// reproducible.
static BackoffPolicy workerRedialPolicy() {
  BackoffPolicy P;
  P.InitialMs = 100;
  P.MaxMs = 5000;
  P.Multiplier = 2;
  P.Jitter = 0.2;
  return P;
}

void WorkerServer::dialerLoop() {
  Backoff Redial(workerRedialPolicy(), fnv64(Opts.Connect) ^ fnv64(Opts.Host));
  while (!Stopping.load() && !Died.load() && !Drained.load()) {
    int Fd = wire::connectTcp(DialHost, DialPort, 2000);
    if (Fd < 0) {
      sleepInterruptible(Redial.nextDelayMs());
      continue;
    }

    // Join handshake: announce our cache generation and concurrency,
    // wait for the verdict. StaleJoins rehearses the stale-generation
    // path by lying for the first N attempts.
    wire::setRecvTimeout(Fd, HandshakeTimeoutMs);
    uint64_t Gen = wire::CacheGeneration;
    bool LieAboutGen = StaleLeft.load() > 0;
    if (LieAboutGen)
      Gen += 1;
    bool Ok = wire::writeFrame(Fd, wire::FrameType::Join,
                               wire::encodeJoin(Gen, ResolvedJobs));
    wire::Frame F;
    std::string Why;
    if (Ok) {
      wire::ReadStatus RS = wire::readFrame(Fd, F, &Why);
      Ok = RS == wire::ReadStatus::Ok && F.Type == wire::FrameType::JoinAck;
      if (!Ok)
        logFleetDrop("worker", Opts.Connect,
                     RS == wire::ReadStatus::Malformed
                         ? (Why == "version mismatch"
                                ? "handshake-version-mismatch"
                                : "handshake-garbage")
                         : "peer-reset");
    } else {
      logFleetDrop("worker", Opts.Connect, "peer-reset");
    }
    wire::DecodedJoinAck Ack;
    if (Ok) {
      try {
        Ack = wire::decodeJoinAck(F);
      } catch (const std::exception &) {
        logFleetDrop("worker", Opts.Connect, "malformed-payload");
        Ok = false;
      }
    }
    if (Ok && !Ack.Accepted) {
      // Refused — almost always a stale cache generation. Adopt the
      // coordinator's generation (clearing a mismatched cache) and
      // redial; the next join announces the right one.
      logFleetDrop("worker", Opts.Connect, "stale-cache-generation");
      noteCacheGeneration(Ack.CacheGen);
      if (LieAboutGen)
        StaleLeft.fetch_sub(1);
      Ok = false;
    }
    if (!Ok) {
      ::close(Fd);
      sleepInterruptible(Redial.nextDelayMs());
      continue;
    }

    noteCacheGeneration(Ack.CacheGen);
    wire::setRecvTimeout(Fd, 0);
    Redial.reset();

    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Conn->PreAccepted = true;
    Connection *C = Conn.get();
    {
      std::lock_guard<std::mutex> Lock(ConnsMu);
      if (Stopping.load())
        break; // ~Connection closes the fd
      Conns.push_back(std::move(Conn));
    }
    Joins.fetch_add(1);
    // Serve inline: the dialer owns exactly one connection at a time,
    // and a connection ending is precisely the redial trigger.
    serveConnection(*C);
  }
}

void WorkerServer::acceptLoop() {
  for (;;) {
    // Reap finished connections so a long-lived worker doesn't
    // accumulate dead thread objects.
    {
      std::lock_guard<std::mutex> Lock(ConnsMu);
      for (auto It = Conns.begin(); It != Conns.end();) {
        if ((*It)->Done.load()) {
          if ((*It)->Service.joinable())
            (*It)->Service.join();
          It = Conns.erase(It);
        } else {
          ++It;
        }
      }
    }

    int Fd = wire::acceptTcp(ListenFd);
    if (Stopping.load()) {
      if (Fd >= 0)
        ::close(Fd);
      break;
    }
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listen socket gone
    }

    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Connection *C = Conn.get();
    {
      // accept() may return a coordinator's redial while a dying
      // server's closeAllSockets() holds ConnsMu. Registered after that
      // sweep, the connection would answer hello and heartbeats while
      // its runners, seeing Died, never run a cell: the coordinator
      // would wait forever. Died is set before the sweep, so checking
      // it here under ConnsMu closes that window.
      std::lock_guard<std::mutex> Lock(ConnsMu);
      if (Died.load() || Stopping.load())
        continue; // ~Connection closes the fd
      Conns.push_back(std::move(Conn));
    }
    C->Service = std::thread([this, C] { serveConnection(*C); });
  }
  // ListenFd stays valid until stop() closes it (after this thread is
  // joined); closing it here would race the shutdown() calls.
}

void WorkerServer::serveConnection(Connection &Conn) {
  // Keepalive is the backstop against a coordinator machine vanishing
  // without a FIN. DropReason feeds the structured teardown log: every
  // connection end names its cause on stderr, greppable in chaos CI.
  int KeepAlive = 1;
  ::setsockopt(Conn.Fd, SOL_SOCKET, SO_KEEPALIVE, &KeepAlive,
               sizeof(KeepAlive));
  std::string Peer = peerName(Conn.Fd);
  std::string DropReason = "peer-reset";
  wire::Frame F;
  bool Accepted = Conn.PreAccepted;
  if (!Accepted) {
    // Handshake: the first frame must be a well-formed hello of our
    // protocol version, and it must arrive promptly — a client that
    // connects and says nothing (port scanner, load-balancer health
    // probe) must not pin this thread and fd forever. After the
    // handshake the timeout is lifted: an idle coordinator between
    // shards is healthy.
    wire::setRecvTimeout(Conn.Fd, HandshakeTimeoutMs);
    std::string Why;
    wire::ReadStatus RS = wire::readFrame(Conn.Fd, F, &Why);
    if (RS == wire::ReadStatus::Ok && F.Type == wire::FrameType::Hello) {
      try {
        noteCacheGeneration(wire::decodeHello(F));
        Accepted = wire::writeFrame(Conn.Fd, wire::FrameType::HelloAck,
                                    wire::encodeHelloAck(ResolvedJobs));
      } catch (const std::exception &) {
        DropReason = "malformed-payload";
      }
    } else if (RS == wire::ReadStatus::Malformed) {
      DropReason = Why == "version mismatch" ? "handshake-version-mismatch"
                                             : "handshake-garbage";
    } else if (RS == wire::ReadStatus::Ok) {
      DropReason = "handshake-garbage"; // well-formed, but not a hello
    }
    if (Accepted)
      wire::setRecvTimeout(Conn.Fd, 0);
  }

  std::vector<std::thread> Runners;
  if (Accepted && !Opts.IgnoreJobs)
    for (unsigned I = 0; I != ResolvedJobs; ++I)
      Runners.emplace_back([this, &Conn] { runnerLoop(Conn); });

  while (Accepted) {
    std::string Why;
    wire::ReadStatus RS = wire::readFrame(Conn.Fd, F, &Why);
    if (RS != wire::ReadStatus::Ok) {
      DropReason =
          RS == wire::ReadStatus::Malformed ? "garbage-frame" : "peer-reset";
      break;
    }
    if (F.Type == wire::FrameType::Shutdown) {
      DropReason = "shutdown";
      break;
    }
    try {
      if (F.Type == wire::FrameType::Column) {
        wire::DecodedColumn Col = wire::decodeColumn(F);
        if (Opts.IgnoreJobs)
          continue; // the wedged-worker model: swallow it
        std::lock_guard<std::mutex> Lock(Conn.QueueMu);
        Conn.Queue.push_back(std::move(Col));
        Conn.QueueCV.notify_one();
      } else if (F.Type == wire::FrameType::Heartbeat) {
        if (Opts.IgnoreJobs)
          continue;
        std::lock_guard<std::mutex> Lock(Conn.WriteMu);
        if (!wire::writeFrame(Conn.Fd, wire::FrameType::HeartbeatAck,
                              F.Payload)) {
          DropReason = "peer-reset";
          break;
        }
      }
      // Other valid-but-unexpected types (hello twice, outcome from a
      // coordinator) are ignored: the header said they are from our
      // protocol version, so skipping keeps the stream in sync.
    } catch (const std::exception &) {
      DropReason = "malformed-payload";
      break; // the stream is poisoned
    }
  }

  {
    std::lock_guard<std::mutex> Lock(Conn.QueueMu);
    Conn.Closing = true;
    Conn.QueueCV.notify_all();
  }
  for (std::thread &T : Runners)
    T.join();
  // A graceful drain ends with the coordinator's shutdown frame once
  // our window emptied — only then is the drain complete.
  if (DrainRequested.load() && DropReason == "shutdown") {
    DropReason = "drained";
    Drained.store(true);
  }
  logFleetDrop("worker", Peer, DropReason);
  // Mark reapable but leave the fd to ~Connection: writing Fd here
  // would race closeAllSockets() reading it to shutdown().
  ::shutdown(Conn.Fd, SHUT_RDWR);
  Conn.Done.store(true);
}

void WorkerServer::runnerLoop(Connection &Conn) {
  // Each slot owns a single-subprocess process pool: the fork
  // isolation, per-cell wall-clock kill and crash-retry semantics (and
  // therefore the outcome *messages*) are exactly --backend=procs'.
  ExecOptions E;
  E.Threads = 1;
  E.Backend = BackendKind::Procs;
  E.ProcTimeoutMs = Opts.ProcTimeoutMs;
  std::unique_ptr<ExecBackend> Local = makeProcessPoolBackend(E);

  for (;;) {
    wire::DecodedColumn Work;
    {
      std::unique_lock<std::mutex> Lock(Conn.QueueMu);
      Conn.QueueCV.wait(Lock,
                        [&] { return Conn.Closing || !Conn.Queue.empty(); });
      // A server that died (DieAfterJobs) takes no more work: its
      // queued columns are the coordinator's to requeue.
      if (Conn.Queue.empty() || Died.load())
        return;
      Work = std::move(Conn.Queue.front());
      Conn.Queue.pop_front();
    }
    ExecColumn Col = Work.Column.view();
    size_t N = Col.Jobs.size();

    // Consult the worker-side outcome cache first, cell by cell: a
    // repeated descriptor (the reference run every configuration
    // column re-dispatches, a reduction re-probe) is answered without
    // a fork. Descriptors are pure (exec/JobSerialize.h), so a cached
    // outcome is byte-identical to a fresh execution. The misses run
    // as one column: parsed once, launches memoized.
    std::vector<RunOutcome> Outs(N);
    std::vector<OutcomeCache::Key> Keys;
    if (Cache)
      Keys = Cache->keysOf(Col.Jobs);
    std::vector<bool> FromCache(N, false);
    ExecColumn Miss;
    for (size_t K = 0; K != N; ++K) {
      if (Cache)
        FromCache[K] = Cache->lookup(Keys[K], Outs[K]);
      if (!FromCache[K])
        Miss.Jobs.push_back(Col.Jobs[K]);
    }
    if (!Miss.Jobs.empty()) {
      std::vector<RunOutcome> Ran;
      bool ExecutorFailed = false;
      try {
        Ran = Local->runColumns({Miss});
      } catch (const std::exception &Ex) {
        RunOutcome O;
        O.Status = RunStatus::Crash;
        O.Message = std::string("worker: ") + Ex.what();
        Ran.assign(Miss.Jobs.size(), O);
        ExecutorFailed = true;
      }
      for (size_t K = 0, M = 0; K != N; ++K) {
        if (FromCache[K])
          continue;
        Outs[K] = std::move(Ran[M++]);
        // Only genuine cell outcomes are cacheable. A synthesized Crash
        // from a failing *executor* (fork failure, fd exhaustion) is
        // this worker's transient trouble, not a property of the
        // descriptor — memoizing it would serve the failure forever.
        if (Cache && !ExecutorFailed)
          Cache->store(Keys[K], Outs[K]);
      }
    }

    for (size_t K = 0; K != N; ++K) {
      bool RequestDrain = false;
      if (FromCache[K]) {
        CacheServed.fetch_add(1);
      } else {
        size_t Count = Executed.fetch_add(1) + 1;
        if (Opts.DieAfterJobs && Count >= Opts.DieAfterJobs) {
          // Die *before* sending this outcome: the coordinator sees the
          // connection drop with the cell (and its window-mates) still
          // in flight — the failure mode the requeue/reassembly logic
          // must survive.
          if (Count == Opts.DieAfterJobs) {
            logFleetDrop("worker", peerName(Conn.Fd), "die-injected");
            Died.store(true);
            closeAllSockets();
          }
          continue;
        }
        size_t Session = Conn.SessionExecuted.fetch_add(1) + 1;
        if (Opts.FlapAfterJobs && Session >= Opts.FlapAfterJobs) {
          // Flap: suppress this outcome and kill just this connection —
          // the dialer (rendezvous) or the coordinator (static list)
          // redials, and the cycle repeats. Unlike DieAfterJobs the
          // server survives.
          if (Session == Opts.FlapAfterJobs) {
            logFleetDrop("worker", peerName(Conn.Fd), "flap-injected");
            ::shutdown(Conn.Fd, SHUT_RDWR);
          }
          continue;
        }
        // Drain *after* this outcome goes out: the leave frame follows
        // the last executed cell under the same write lock, so the
        // coordinator's view is "outcome, then leave" — never a lost
        // cell.
        if (Opts.DrainAfterJobs && Count == Opts.DrainAfterJobs)
          RequestDrain = true;
      }

      std::lock_guard<std::mutex> Lock(Conn.WriteMu);
      wire::writeFrame(Conn.Fd, wire::FrameType::Outcome,
                       wire::encodeOutcome(Work.BaseTag + K, Outs[K]));
      if (RequestDrain && !DrainRequested.exchange(true))
        wire::writeFrame(Conn.Fd, wire::FrameType::Leave,
                         wire::encodeLeave());
    }
  }
}

namespace {
volatile std::sig_atomic_t GWorkerStop = 0;
void workerSignal(int) { GWorkerStop = 1; }
} // namespace

int clfuzz::runWorkerCommand(const WorkerOptions &Opts) {
  WorkerServer Server(Opts);
  if (!Server.start()) {
    if (!Opts.Connect.empty())
      std::fprintf(stderr, "clfuzz worker: bad --connect endpoint '%s'\n",
                   Opts.Connect.c_str());
    else
      std::fprintf(stderr, "clfuzz worker: cannot listen on %s:%u\n",
                   Opts.Host.c_str(), Opts.Port);
    return 1;
  }
  // The CI scripts parse these lines (ephemeral port in listen mode,
  // liveness in rendezvous mode); keep the formats stable. jobs= is
  // the count actually advertised in hello-acks / joins, not the raw
  // flag.
  if (!Opts.Connect.empty())
    std::printf("clfuzz worker dialing %s (jobs=%u, proc-timeout-ms=%u)\n",
                Opts.Connect.c_str(), Server.jobsPerConnection(),
                Opts.ProcTimeoutMs);
  else
    std::printf("clfuzz worker listening on %s:%u (jobs=%u, "
                "proc-timeout-ms=%u)\n",
                Opts.Host.c_str(), Server.port(),
                Server.jobsPerConnection(), Opts.ProcTimeoutMs);
  std::fflush(stdout);

  std::signal(SIGINT, workerSignal);
  std::signal(SIGTERM, workerSignal);
  while (!GWorkerStop && !Server.died() && !Server.drained())
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Server.stop();
  if (Opts.Cache != CacheMode::Off) {
    // CI greps this line to assert a warm fleet actually served from
    // cache; keep the format stable.
    OutcomeCacheStats CS = Server.cacheStats();
    std::printf("clfuzz worker cache: hits=%llu misses=%llu\n",
                static_cast<unsigned long long>(CS.Hits),
                static_cast<unsigned long long>(CS.Misses));
    std::fflush(stdout);
  }
  return 0;
}

#else // no sockets on this platform

WorkerServer::WorkerServer(WorkerOptions O) : Opts(std::move(O)) {}
WorkerServer::~WorkerServer() = default;
void WorkerServer::noteCacheGeneration(uint64_t) {}
bool WorkerServer::start() { return false; }
void WorkerServer::stop() {}
void WorkerServer::closeAllSockets() {}
void WorkerServer::acceptLoop() {}
void WorkerServer::dialerLoop() {}
void WorkerServer::sleepInterruptible(unsigned) {}
void WorkerServer::serveConnection(Connection &) {}
void WorkerServer::runnerLoop(Connection &) {}

int clfuzz::runWorkerCommand(const WorkerOptions &) {
  std::fprintf(stderr,
               "clfuzz worker: POSIX sockets are unavailable on this "
               "platform\n");
  return 1;
}

#endif
