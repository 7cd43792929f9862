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

#include "exec/WireProtocol.h"
#include "support/Backoff.h"
#include "support/Hash.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <map>
#include <poll.h>
#include <thread>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;

class RemoteBackendImpl final : public ExecBackend {
public:
  explicit RemoteBackendImpl(const ExecOptions &Opts)
      : TimeoutMs(Opts.RemoteTimeoutMs), HeartbeatMs(Opts.RemoteHeartbeatMs),
        Fleet(Opts.Fleet) {
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

  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;

private:
  struct Link {
    std::string Host;
    unsigned Port = 0;
    /// "host:port" of an adopted rendezvous worker (getpeername);
    /// static links derive their name from Host:Port instead.
    std::string Peer;
    int Fd = -1;
    /// Joined via the fleet registry: the worker dialled us, so when
    /// the link drops the *worker* redials — this side never does.
    bool Dynamic = false;
    /// The worker sent a leave frame: let the in-flight window
    /// finish, dispatch nothing new, then close gracefully.
    bool Draining = false;
    /// Slot count from the hello-ack; the in-flight window is twice
    /// this (one round trip of pipelining).
    unsigned Advertised = 1;
    /// Tag (== submission index) -> dispatch deadline
    /// (time_point::max() when no deadline is armed).
    std::map<uint64_t, Clock::time_point> InFlight;
    Clock::time_point LastRecv{};
    bool PingOutstanding = false;
    Clock::time_point PingSent{};
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

    bool alive() const { return Fd >= 0; }
    bool busy() const { return alive() && !InFlight.empty(); }
    size_t window() const { return size_t(Advertised) * 2; }
    std::string name() const {
      return Dynamic ? Peer : Host + ":" + std::to_string(Port);
    }
  };

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
  unsigned TimeoutMs;
  unsigned HeartbeatMs;
  std::shared_ptr<FleetRegistry> Fleet;
  uint64_t NextNonce = 1;

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
  L.Fd = Fd;
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
  L.Fd = -1;
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
    L.Fd = W.Fd;
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

std::vector<RunOutcome>
RemoteBackendImpl::run(const std::vector<ExecJob> &Jobs) {
  std::vector<RunOutcome> Results(Jobs.size());
  if (Jobs.empty())
    return Results;

  adoptJoined();
  ensureLinks(/*Require=*/true);

  size_t NextJob = 0, Done = 0;
  std::vector<uint8_t> FailCount(Jobs.size(), 0);
  std::deque<size_t> RetryQueue;

  // A worker failure is ambiguous, exactly like a process-pool worker
  // death: the job may be the killer, or the worker may have died
  // under it (machine loss, operator, OOM). One requeue onto another
  // worker resolves it: an innocent job lands on its true result
  // (preserving bit-identity), a genuinely fatal job fails its second
  // worker too and is recorded — never silently dropped.
  auto RecordFailure = [&](uint64_t Tag, const std::string &How,
                           bool Deadline) {
    size_t Index = static_cast<size_t>(Tag);
    if (++FailCount[Index] <= 1) {
      RetryQueue.push_back(Index);
      bump(Counter::FleetRequeues);
      return;
    }
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
    Results[Index] = std::move(O);
    ++Done;
  };

  /// Tears a link down and requeues everything it had in flight.
  /// DeadlineTag (when HasDeadlineTag) is the job whose deadline
  /// expired — it fails as a deadline; window-mates fail as ordinary
  /// worker-death casualties. How lands verbatim in outcome messages
  /// (byte-compared campaign output — never reword); Slug is the
  /// kebab-case reason of the structured drop log.
  auto DropAndRequeue = [&](Link &L, const std::string &How,
                            const char *Slug, uint64_t DeadlineTag,
                            bool HasDeadlineTag) {
    std::map<uint64_t, Clock::time_point> Lost = std::move(L.InFlight);
    logFleetDrop("coordinator", L.name(), Slug);
    bump(Counter::FleetEvictions);
    dropLink(L);
    for (const auto &Entry : Lost)
      RecordFailure(Entry.first, How,
                    HasDeadlineTag && Entry.first == DeadlineTag);
  };

  auto Dispatch = [&] {
    for (Link &L : Links) {
      if (!L.alive() || L.Draining)
        continue;
      while (L.InFlight.size() < L.window()) {
        size_t Index;
        if (!RetryQueue.empty()) {
          Index = RetryQueue.front();
          RetryQueue.pop_front();
        } else if (NextJob < Jobs.size()) {
          Index = NextJob++;
        } else {
          break;
        }
        if (!wire::writeFrame(L.Fd, wire::FrameType::Job,
                              wire::encodeJob(Index, Jobs[Index]))) {
          // Died under the write: this job plus the window requeue.
          L.InFlight.emplace(Index, Clock::time_point::max());
          DropAndRequeue(L, "send failed", "send-failed", 0, false);
          break;
        }
        L.InFlight.emplace(
            Index, TimeoutMs ? Clock::now() + std::chrono::milliseconds(
                                                  TimeoutMs)
                             : Clock::time_point::max());
      }
    }
  };

  Dispatch();

  std::vector<pollfd> Fds;
  std::vector<Link *> FdOwner;
  while (Done < Jobs.size()) {
    // Shard boundaries are where the fleet breathes: adopt whatever
    // joined since the last iteration (reshapes Links — FdOwner is
    // rebuilt below), then make sure someone can still run jobs.
    if (adoptJoined())
      Dispatch();
    bool AnyBusy = false;
    for (Link &L : Links)
      AnyBusy = AnyBusy || L.busy();
    if (!AnyBusy) {
      // Jobs remain but nothing is in flight: every worker is dead or
      // drained. Re-dial the fleet (throws if nothing comes back) and
      // retry.
      ensureLinks(/*Require=*/true);
      Dispatch();
      continue;
    }

    // Poll every live link, not just the busy ones: an idle link is
    // exactly where a leave frame or an unannounced death shows up,
    // and both must be noticed before the next dispatch would trust
    // the link with jobs.
    Fds.clear();
    FdOwner.clear();
    for (Link &L : Links)
      if (L.alive()) {
        Fds.push_back({L.Fd, POLLIN, 0});
        FdOwner.push_back(&L);
      }

    // Poll until the next scheduled event: the earliest job deadline
    // or the earliest heartbeat action (probe due / probe overdue).
    auto Earliest = Clock::time_point::max();
    for (Link *L : FdOwner) {
      if (!L->busy())
        continue;
      if (TimeoutMs)
        for (const auto &Entry : L->InFlight)
          Earliest = std::min(Earliest, Entry.second);
      if (HeartbeatMs) {
        auto Hb = (L->PingOutstanding ? L->PingSent : L->LastRecv) +
                  std::chrono::milliseconds(HeartbeatMs);
        Earliest = std::min(Earliest, Hb);
      }
    }
    // With a registry, wake periodically even with no scheduled event
    // so fresh joins are adopted promptly mid-shard.
    int PollTimeout = Fleet ? 200 : -1;
    if (Earliest != Clock::time_point::max()) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Earliest - Clock::now())
                      .count();
      int Ms = Left < 0 ? 0 : static_cast<int>(Left) + 1;
      PollTimeout = PollTimeout < 0 ? Ms : std::min(PollTimeout, Ms);
    }

    int Ready = ::poll(Fds.data(), Fds.size(), PollTimeout);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      throw std::runtime_error("remote backend: poll failed");
    }

    for (size_t I = 0; I != Fds.size(); ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Link &L = *FdOwner[I];
      if (!L.alive())
        continue; // torn down earlier in this sweep
      wire::Frame F;
      wire::ReadStatus RS = wire::readFrame(L.Fd, F);
      if (RS != wire::ReadStatus::Ok) {
        DropAndRequeue(L,
                       RS == wire::ReadStatus::Eof ? "connection closed"
                                                   : "garbage frame",
                       RS == wire::ReadStatus::Eof ? "peer-closed"
                                                   : "garbage-frame",
                       0, false);
        continue;
      }
      try {
        if (F.Type == wire::FrameType::Outcome) {
          wire::DecodedOutcome D = wire::decodeOutcome(F);
          auto It = L.InFlight.find(D.Tag);
          if (It != L.InFlight.end()) {
            Results[static_cast<size_t>(D.Tag)] = std::move(D.Outcome);
            ++Done;
            L.InFlight.erase(It);
          }
          L.LastRecv = Clock::now();
          L.PingOutstanding = false;
        } else if (F.Type == wire::FrameType::HeartbeatAck) {
          wire::decodeHeartbeat(F);
          L.LastRecv = Clock::now();
          L.PingOutstanding = false;
        } else if (F.Type == wire::FrameType::Leave) {
          // Graceful drain: nothing new to this link; its in-flight
          // window completes normally (zero requeues), then the
          // finalize sweep below closes it.
          L.Draining = true;
          L.LastRecv = Clock::now();
        } else {
          throw std::runtime_error("unexpected " +
                                   std::string(wire::frameTypeName(F.Type)) +
                                   " frame");
        }
      } catch (const std::exception &E) {
        DropAndRequeue(L, E.what(), "protocol-error", 0, false);
      }
    }

    auto Now = Clock::now();

    if (TimeoutMs)
      for (Link &L : Links) {
        if (!L.busy())
          continue;
        uint64_t Expired = 0;
        bool HasExpired = false;
        for (const auto &Entry : L.InFlight)
          if (Entry.second <= Now) {
            Expired = Entry.first;
            HasExpired = true;
            break;
          }
        if (HasExpired)
          DropAndRequeue(L,
                         "a job missed the " + std::to_string(TimeoutMs) +
                             " ms remote deadline",
                         "deadline", Expired, true);
      }

    if (HeartbeatMs)
      for (Link &L : Links) {
        if (!L.busy())
          continue;
        auto Interval = std::chrono::milliseconds(HeartbeatMs);
        if (L.PingOutstanding) {
          if (Now >= L.PingSent + Interval)
            DropAndRequeue(L, "heartbeat unanswered", "heartbeat-miss", 0,
                           false);
        } else if (Now >= L.LastRecv + Interval) {
          if (wire::writeFrame(L.Fd, wire::FrameType::Heartbeat,
                               wire::encodeHeartbeat(NextNonce++))) {
            L.PingOutstanding = true;
            L.PingSent = Now;
          } else {
            DropAndRequeue(L, "send failed", "send-failed", 0, false);
          }
        }
      }

    // Finalize drains: a draining link whose window has emptied is
    // done — it handed every in-flight job back as a normal outcome.
    for (Link &L : Links)
      if (L.alive() && L.Draining && L.InFlight.empty()) {
        wire::writeFrame(L.Fd, wire::FrameType::Shutdown, {});
        logFleetDrop("coordinator", L.name(), "drained");
        bump(Counter::FleetLeaves);
        dropLink(L);
      }

    Dispatch();
  }
  return Results;
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
