//===- RemoteBackend.cpp - Socket-fed multi-host execution backend -----------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/RemoteBackend.h"

#include "exec/FleetRegistry.h"

#include <stdexcept>

using namespace clfuzz;

std::vector<std::string> clfuzz::splitWorkerList(const std::string &List) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= List.size()) {
    size_t Comma = List.find(',', Start);
    if (Comma == std::string::npos)
      Comma = List.size();
    std::string Entry = List.substr(Start, Comma - Start);
    // Trim surrounding whitespace.
    size_t B = Entry.find_first_not_of(" \t");
    size_t E = Entry.find_last_not_of(" \t");
    if (B != std::string::npos)
      Out.push_back(Entry.substr(B, E - B + 1));
    Start = Comma + 1;
  }
  return Out;
}

#if defined(__unix__) || defined(__APPLE__)

#include "exec/Dispatch.h"
#include "exec/WireProtocol.h"
#include "support/Backoff.h"
#include "support/Hash.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;

/// A TCP lane: a link to one `clfuzz worker`.
struct Link : Lane {
  std::string Host;
  unsigned Port = 0;
  /// "host:port" of an adopted rendezvous worker (getpeername);
  /// static links derive their name from Host:Port instead.
  std::string Peer;
  /// Joined via the fleet registry: the worker dialled us, so when
  /// the link drops the *worker* redials — this side never does.
  bool Dynamic = false;
  /// Slot count from the hello-ack (or join).
  unsigned Advertised = 1;
  /// A failed dial parks the endpoint until this instant; the delay
  /// comes from the jittered exponential Dial schedule, so a down
  /// machine costs one connect timeout per widening window, not one
  /// per batch. Desperate reconnects (no live worker at all) ignore
  /// the park but still advance the schedule.
  Clock::time_point NextDialAfter{};
  Backoff Dial;
  /// The endpoint has answered a handshake at least once — later
  /// dials are *re*dials and count as fleet_redials.
  bool EverConnected = false;

  std::string name() const {
    return Dynamic ? Peer : Host + ":" + std::to_string(Port);
  }
};

class RemoteBackendImpl final : public DispatchBackend {
public:
  explicit RemoteBackendImpl(const ExecOptions &Opts)
      : DispatchBackend(Opts.RemoteTimeoutMs, Opts.RemoteHeartbeatMs),
        Fleet(Opts.Fleet) {
    // With a registry, wake periodically even with nothing scheduled
    // so fresh joins are adopted promptly mid-batch.
    IdleWakeMs = Fleet ? 200 : -1;
    if (Opts.RemoteWorkers.empty() && !Fleet)
      throw std::runtime_error(
          "remote backend: no workers configured (--workers=host:port,...)");
    for (const std::string &Spec : Opts.RemoteWorkers) {
      size_t Colon = Spec.rfind(':');
      if (Colon == std::string::npos || Colon == 0 ||
          Colon + 1 == Spec.size())
        throw std::runtime_error("remote backend: malformed worker '" +
                                 Spec + "' (expected host:port)");
      long Port = std::atol(Spec.c_str() + Colon + 1);
      if (Port <= 0 || Port > 65535)
        throw std::runtime_error("remote backend: bad port in worker '" +
                                 Spec + "'");
      Link L;
      L.Host = Spec.substr(0, Colon);
      L.Port = static_cast<unsigned>(Port);
      // Deterministic per-endpoint jitter seed: the schedule of a
      // given fleet spec is reproducible run to run, yet distinct
      // endpoints never re-dial in lockstep.
      L.Dial = Backoff(redialPolicy(), fnv64(Spec));
      Links.push_back(std::move(L));
    }
  }

  ~RemoteBackendImpl() override {
    for (Link &L : Links)
      if (L.alive()) {
        wire::writeFrame(L.Fd, wire::FrameType::Shutdown, {});
        ::close(L.Fd);
        L.Fd = -1;
      }
  }

  BackendKind kind() const override { return BackendKind::Remote; }

  unsigned concurrency() const override {
    // Lazy-dials like run() so sources sizing their generation waves
    // see the real fleet width; never throws (a disconnected fleet is
    // an execution-time error, and 1 is a safe width).
    auto *Self = const_cast<RemoteBackendImpl *>(this);
    Self->adoptJoined();
    Self->ensureLinks(/*Require=*/false);
    unsigned Sum = 0;
    for (const Link &L : Links)
      if (L.alive() && !L.Draining)
        Sum += L.Advertised;
    return Sum ? Sum : 1;
  }

private:
  bool refresh(bool Require) override {
    bool Any = adoptJoined();
    if (Require)
      ensureLinks(/*Require=*/true);
    return Any;
  }

  std::vector<Lane *> lanes() override {
    std::vector<Lane *> Out;
    for (Link &L : Links)
      Out.push_back(&L);
    return Out;
  }

  /// Two units per advertised slot: one running, one queued behind
  /// it — enough to hide a round trip, little stranded if it dies.
  size_t window(const Lane &L, size_t Cells) const override {
    return 2 * size_t(static_cast<const Link &>(L).Advertised) * Cells;
  }

  std::string lose(Lane &Base, const char *Slug,
                   const std::string &Why) override {
    auto &L = static_cast<Link &>(Base);
    logFleetDrop("coordinator", L.name(), Slug);
    bump(Counter::FleetEvictions);
    dropLink(L);
    // How lands verbatim in outcome messages (byte-compared campaign
    // output — never reword).
    if (std::strcmp(Slug, "deadline") == 0)
      return "a job missed the " + std::to_string(TimeoutMs) +
             " ms remote deadline";
    return Why;
  }

  RunOutcome lostOutcome(const std::string &How,
                         bool Deadline) const override {
    RunOutcome O;
    if (Deadline) {
      O.Status = RunStatus::Timeout;
      O.Message = "exceeded the remote job deadline (" +
                  std::to_string(TimeoutMs) +
                  " ms); worker disconnected by remote backend";
    } else {
      O.Status = RunStatus::Crash;
      O.Message = "remote worker connection lost (" + How +
                  "); isolated by remote backend";
    }
    return O;
  }

  void requeued() override { bump(Counter::FleetRequeues); }

  void retire(Lane &Base) override {
    auto &L = static_cast<Link &>(Base);
    wire::writeFrame(L.Fd, wire::FrameType::Shutdown, {});
    logFleetDrop("coordinator", L.name(), "drained");
    bump(Counter::FleetLeaves);
    dropLink(L);
  }

  static BackoffPolicy redialPolicy() {
    BackoffPolicy P;
    P.InitialMs = 200;
    P.MaxMs = 5000;
    P.Multiplier = 2;
    P.Jitter = 0.2;
    return P;
  }

  void armSteadyTimeout(int Fd) const;
  bool dialLink(Link &L, bool IgnorePark);
  void ensureLinks(bool Require);
  bool adoptJoined();
  void dropLink(Link &L);

  std::vector<Link> Links;
  std::shared_ptr<FleetRegistry> Fleet;

  static constexpr unsigned ConnectTimeoutMs = 2000;
  static constexpr unsigned HandshakeTimeoutMs = 5000;
  /// Total wall-clock budget of the no-worker-left reconnect loop
  /// before run() gives up loudly.
  static constexpr unsigned ReconnectBudgetMs = 3000;
};

// Steady state: the event loop poll()s before every read, so this
// receive timeout can only fire on a worker that stalled *mid-frame*
// — the one wedge neither the deadline sweep nor the heartbeat can
// see, because both are scheduled by the (blocked) event loop.
void RemoteBackendImpl::armSteadyTimeout(int Fd) const {
  unsigned Steady = 30000;
  if (HeartbeatMs)
    Steady = std::min(Steady, std::max(2 * HeartbeatMs, 1000u));
  if (TimeoutMs)
    Steady = std::min(Steady, std::max(TimeoutMs + 1000, 1000u));
  wire::setRecvTimeout(Fd, Steady);
}

bool RemoteBackendImpl::dialLink(Link &L, bool IgnorePark) {
  if (L.Dynamic)
    return false; // the worker dials us, never the reverse
  if (!IgnorePark && Clock::now() < L.NextDialAfter)
    return false;
  if (L.EverConnected)
    bump(Counter::FleetRedials);
  int Fd = wire::connectTcp(L.Host, L.Port, ConnectTimeoutMs);
  bool Ok = Fd >= 0;
  if (Ok) {
    wire::setRecvTimeout(Fd, HandshakeTimeoutMs);
    Ok = wire::writeFrame(Fd, wire::FrameType::Hello,
                          wire::encodeHello(wire::CacheGeneration));
  }
  wire::Frame F;
  if (Ok)
    Ok = wire::readFrame(Fd, F) == wire::ReadStatus::Ok &&
         F.Type == wire::FrameType::HelloAck;
  if (Ok) {
    try {
      L.Advertised = std::max(wire::decodeHelloAck(F), 1u);
    } catch (const std::exception &) {
      Ok = false;
    }
  }
  if (!Ok) {
    if (Fd >= 0)
      ::close(Fd);
    L.NextDialAfter =
        Clock::now() + std::chrono::milliseconds(L.Dial.nextDelayMs());
    return false;
  }
  armSteadyTimeout(Fd);
  L.Fd = L.SendFd = Fd;
  L.InFlight.clear();
  L.LastRecv = Clock::now();
  L.PingOutstanding = false;
  L.Draining = false;
  L.NextDialAfter = {};
  L.Dial.reset();
  L.EverConnected = true;
  return true;
}

void RemoteBackendImpl::dropLink(Link &L) {
  if (L.Fd >= 0)
    ::close(L.Fd);
  L.Fd = L.SendFd = -1;
  L.InFlight.clear();
  L.PingOutstanding = false;
  L.Draining = false;
}

/// Adopts every worker the registry has admitted since the last call,
/// and prunes dead dynamic links (their worker redials through the
/// registry, producing a fresh link — keeping the corpse would leak a
/// Links slot per flap). Callers must hold no Link pointers across
/// this call: the vector reshapes.
bool RemoteBackendImpl::adoptJoined() {
  if (!Fleet)
    return false;
  Links.erase(std::remove_if(Links.begin(), Links.end(),
                             [](const Link &L) {
                               return L.Dynamic && !L.alive();
                             }),
              Links.end());
  bool Any = false;
  for (JoinedWorker &W : Fleet->takeJoined()) {
    armSteadyTimeout(W.Fd);
    Link L;
    L.Peer = W.Peer;
    L.Fd = L.SendFd = W.Fd;
    L.Dynamic = true;
    L.Advertised = std::max(W.Concurrency, 1u);
    L.LastRecv = Clock::now();
    Links.push_back(std::move(L));
    bump(Counter::FleetJoins);
    Any = true;
  }
  return Any;
}

void RemoteBackendImpl::ensureLinks(bool Require) {
  auto TryAll = [&](bool IgnorePark) {
    unsigned Live = 0;
    for (Link &L : Links) {
      if (!L.alive())
        dialLink(L, IgnorePark);
      if (L.alive() && !L.Draining)
        ++Live;
    }
    return Live;
  };
  if (TryAll(/*IgnorePark=*/false) || !Require)
    return;
  // Nothing reachable and the caller cannot proceed without a worker:
  // keep re-dialling (and adopting rendezvous joins) on the jittered
  // backoff schedule for a bounded budget — a worker may be
  // restarting — then give up loudly; a campaign must never hang
  // silently on a dead fleet.
  Backoff Desperate(BackoffPolicy{50, 500, 2, 0.2},
                    fnv64("desperate-reconnect"));
  auto GiveUpAt = Clock::now() + std::chrono::milliseconds(ReconnectBudgetMs);
  while (Clock::now() < GiveUpAt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Desperate.nextDelayMs()));
    adoptJoined(); // a rendezvous worker may have joined meanwhile
    if (TryAll(/*IgnorePark=*/true))
      return;
  }
  std::string Tried;
  for (const Link &L : Links)
    Tried += (Tried.empty() ? "" : ", ") + L.name();
  if (Fleet)
    Tried += (Tried.empty() ? "" : "; ") + std::string("fleet registry :") +
             std::to_string(Fleet->port()) + " with no joined worker";
  throw std::runtime_error("remote backend: no reachable worker (tried " +
                           Tried + ")");
}

} // namespace

std::unique_ptr<ExecBackend>
clfuzz::makeRemoteBackend(const ExecOptions &Opts) {
  return std::make_unique<RemoteBackendImpl>(Opts);
}

#else // no POSIX sockets

std::unique_ptr<clfuzz::ExecBackend>
clfuzz::makeRemoteBackend(const clfuzz::ExecOptions &) {
  throw std::runtime_error(
      "remote backend: POSIX sockets are unavailable on this platform");
}

#endif
