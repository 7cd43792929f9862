//===- FleetRegistry.cpp - Rendezvous point for elastic fleets ---------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/FleetRegistry.h"

#include "exec/WireProtocol.h"
#include "support/Metrics.h"

#include <cstdio>
#include <stdexcept>

using namespace clfuzz;

//===----------------------------------------------------------------------===//
// Fleet counters
//===----------------------------------------------------------------------===//

FleetCounters clfuzz::fleetCounters() {
  return {counterValue(Counter::FleetJoins), counterValue(Counter::FleetLeaves),
          counterValue(Counter::FleetEvictions),
          counterValue(Counter::FleetRedials),
          counterValue(Counter::FleetRequeues)};
}

//===----------------------------------------------------------------------===//
// Structured drop log
//===----------------------------------------------------------------------===//

void clfuzz::logFleetDrop(const char *Side, const std::string &Peer,
                          const std::string &Reason) {
  // One line, one write: chaos CI greps these out of interleaved
  // multi-process stderr, so the record must never tear.
  std::string Line = "clfuzz fleet: drop side=";
  Line += Side;
  Line += " peer=";
  Line += Peer.empty() ? "?" : Peer;
  Line += " reason=";
  Line += Reason;
  Line += "\n";
  std::fwrite(Line.data(), 1, Line.size(), stderr);
  std::fflush(stderr);
}

//===----------------------------------------------------------------------===//
// POSIX implementation
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

std::string clfuzz::peerName(int Fd) {
  struct sockaddr_storage Addr = {};
  socklen_t Len = sizeof(Addr);
  if (Fd < 0 || ::getpeername(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                              &Len) != 0)
    return "?";
  char Host[INET6_ADDRSTRLEN] = {0};
  unsigned Port = 0;
  if (Addr.ss_family == AF_INET) {
    auto *A4 = reinterpret_cast<struct sockaddr_in *>(&Addr);
    ::inet_ntop(AF_INET, &A4->sin_addr, Host, sizeof(Host));
    Port = ntohs(A4->sin_port);
  } else if (Addr.ss_family == AF_INET6) {
    auto *A6 = reinterpret_cast<struct sockaddr_in6 *>(&Addr);
    ::inet_ntop(AF_INET6, &A6->sin6_addr, Host, sizeof(Host));
    Port = ntohs(A6->sin6_port);
  } else {
    return "?";
  }
  return std::string(Host) + ":" + std::to_string(Port);
}

FleetRegistry::~FleetRegistry() { stop(); }

bool FleetRegistry::start(const std::string &Host, unsigned Port) {
  ListenFd = wire::listenTcp(Host, Port, BoundPort);
  if (ListenFd < 0)
    return false;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void FleetRegistry::stop() {
  // Same fd discipline as WorkerServer::stop(): shutdown() wakes the
  // blocked accept, fds are closed only after the thread that could
  // touch them is joined.
  if (!Stopping.exchange(true) && ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  int Fd = ListenFd.exchange(-1);
  if (Fd >= 0)
    ::close(Fd);
  std::vector<JoinedWorker> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Orphans.swap(Pending);
  }
  for (JoinedWorker &W : Orphans)
    if (W.Fd >= 0)
      ::close(W.Fd);
}

std::vector<JoinedWorker> FleetRegistry::takeJoined() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<JoinedWorker> Out;
  Out.swap(Pending);
  return Out;
}

// How long a dialler may take to produce its join frame. Generous for
// a LAN, small enough that a port scanner can't pin the accept thread
// — the handshake runs inline on it, so a stalled join delays (never
// deadlocks) later joiners.
static constexpr unsigned JoinHandshakeTimeoutMs = 2000;

void FleetRegistry::acceptLoop() {
  for (;;) {
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

    std::string Peer = peerName(Fd);
    wire::setRecvTimeout(Fd, JoinHandshakeTimeoutMs);

    wire::Frame F;
    std::string Why;
    wire::ReadStatus RS = wire::readFrame(Fd, F, &Why);
    if (RS != wire::ReadStatus::Ok || F.Type != wire::FrameType::Join) {
      logFleetDrop("registry", Peer,
                   RS == wire::ReadStatus::Malformed
                       ? (Why == "version mismatch"
                              ? "handshake-version-mismatch"
                              : "handshake-garbage")
                       : RS == wire::ReadStatus::Eof ? "peer-reset"
                                                    : "handshake-garbage");
      ::close(Fd);
      continue;
    }

    wire::DecodedJoin Join;
    try {
      Join = wire::decodeJoin(F);
    } catch (const std::exception &) {
      logFleetDrop("registry", Peer, "malformed-payload");
      ::close(Fd);
      continue;
    }

    if (Join.CacheGen != wire::CacheGeneration) {
      // Stale generation: tell the worker ours so it clears its cache
      // and redials — the rendezvous twin of the v2 hello's
      // generation check.
      wire::writeFrame(Fd, wire::FrameType::JoinAck,
                       wire::encodeJoinAck(false, wire::CacheGeneration));
      logFleetDrop("registry", Peer, "stale-cache-generation");
      ::close(Fd);
      Rejected.fetch_add(1);
      continue;
    }

    if (!wire::writeFrame(Fd, wire::FrameType::JoinAck,
                          wire::encodeJoinAck(true, wire::CacheGeneration))) {
      logFleetDrop("registry", Peer, "peer-reset");
      ::close(Fd);
      continue;
    }

    wire::setRecvTimeout(Fd, 0);
    JoinedWorker W;
    W.Fd = Fd;
    W.Concurrency = Join.Concurrency ? Join.Concurrency : 1;
    W.Peer = Peer;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Pending.push_back(W);
    }
    Accepted.fetch_add(1);
  }
}

#else // no sockets on this platform

std::string clfuzz::peerName(int) { return "?"; }
FleetRegistry::~FleetRegistry() = default;
bool FleetRegistry::start(const std::string &, unsigned) { return false; }
void FleetRegistry::stop() {}
std::vector<JoinedWorker> FleetRegistry::takeJoined() { return {}; }
void FleetRegistry::acceptLoop() {}

#endif

std::shared_ptr<FleetRegistry> clfuzz::makeFleetRegistry(
    const std::string &Host, unsigned Port) {
  auto R = std::make_shared<FleetRegistry>();
  if (!R->start(Host, Port))
    throw std::runtime_error("fleet registry: cannot listen on " + Host + ":" +
                             std::to_string(Port));
  return R;
}
