//===- WireProtocol.cpp - Remote campaign frame protocol ---------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/WireProtocol.h"

#include <stdexcept>

using namespace clfuzz;
using namespace clfuzz::wire;

const char *clfuzz::wire::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::Hello:
    return "hello";
  case FrameType::HelloAck:
    return "hello-ack";
  case FrameType::Outcome:
    return "outcome";
  case FrameType::Heartbeat:
    return "heartbeat";
  case FrameType::HeartbeatAck:
    return "heartbeat-ack";
  case FrameType::Shutdown:
    return "shutdown";
  case FrameType::Join:
    return "join";
  case FrameType::JoinAck:
    return "join-ack";
  case FrameType::Leave:
    return "leave";
  case FrameType::Column:
    return "column";
  }
  return "?";
}

namespace {

/// Type 3 (the retired v3 job frame) is reserved, not known.
bool knownFrameType(uint8_t T) {
  return T >= static_cast<uint8_t>(FrameType::Hello) &&
         T <= static_cast<uint8_t>(FrameType::Column) && T != 3;
}

} // namespace

//===----------------------------------------------------------------------===//
// Payload encoders / decoders (platform-independent)
//===----------------------------------------------------------------------===//

std::vector<uint8_t> clfuzz::wire::encodeHello(uint64_t CacheGen) {
  WireWriter W;
  W.u64(CacheGen);
  return W.buffer();
}

uint64_t clfuzz::wire::decodeHello(const Frame &F) {
  WireReader R(F.Payload.data(), F.Payload.size());
  uint64_t CacheGen = R.u64();
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in hello frame");
  return CacheGen;
}

std::vector<uint8_t> clfuzz::wire::encodeHelloAck(uint32_t Concurrency) {
  WireWriter W;
  W.u32(Concurrency);
  return W.buffer();
}

uint32_t clfuzz::wire::decodeHelloAck(const Frame &F) {
  WireReader R(F.Payload.data(), F.Payload.size());
  uint32_t Concurrency = R.u32();
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in hello-ack frame");
  return Concurrency;
}

std::vector<uint8_t> clfuzz::wire::encodeColumn(uint64_t BaseTag,
                                                const ExecColumn &Col) {
  WireWriter W;
  W.u64(BaseTag);
  serializeExecColumn(W, Col);
  return W.buffer();
}

DecodedColumn clfuzz::wire::decodeColumn(const Frame &F) {
  DecodedColumn D;
  WireReader R(F.Payload.data(), F.Payload.size());
  D.BaseTag = R.u64();
  D.Column = deserializeExecColumn(R);
  if (D.Column.Cells.empty())
    throw std::runtime_error("column frame without cells");
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in column frame");
  return D;
}

std::vector<uint8_t> clfuzz::wire::encodeOutcome(uint64_t Tag,
                                                 const RunOutcome &O) {
  WireWriter W;
  W.u64(Tag);
  serializeRunOutcome(W, O);
  return W.buffer();
}

DecodedOutcome clfuzz::wire::decodeOutcome(const Frame &F) {
  WireReader R(F.Payload.data(), F.Payload.size());
  DecodedOutcome D;
  D.Tag = R.u64();
  D.Outcome = deserializeRunOutcome(R);
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in outcome frame");
  return D;
}

std::vector<uint8_t> clfuzz::wire::encodeHeartbeat(uint64_t Nonce) {
  WireWriter W;
  W.u64(Nonce);
  return W.buffer();
}

uint64_t clfuzz::wire::decodeHeartbeat(const Frame &F) {
  WireReader R(F.Payload.data(), F.Payload.size());
  uint64_t Nonce = R.u64();
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in heartbeat frame");
  return Nonce;
}

std::vector<uint8_t> clfuzz::wire::encodeJoin(uint64_t CacheGen,
                                              uint32_t Concurrency) {
  WireWriter W;
  W.u64(CacheGen);
  W.u32(Concurrency);
  return W.buffer();
}

DecodedJoin clfuzz::wire::decodeJoin(const Frame &F) {
  WireReader R(F.Payload.data(), F.Payload.size());
  DecodedJoin D;
  D.CacheGen = R.u64();
  D.Concurrency = R.u32();
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in join frame");
  return D;
}

std::vector<uint8_t> clfuzz::wire::encodeJoinAck(bool Accepted,
                                                 uint64_t CacheGen) {
  WireWriter W;
  W.u8(Accepted ? 1 : 0);
  W.u64(CacheGen);
  return W.buffer();
}

DecodedJoinAck clfuzz::wire::decodeJoinAck(const Frame &F) {
  WireReader R(F.Payload.data(), F.Payload.size());
  DecodedJoinAck D;
  D.Accepted = R.u8() != 0;
  D.CacheGen = R.u64();
  if (!R.atEnd())
    throw std::runtime_error("trailing bytes in join-ack frame");
  return D;
}

std::vector<uint8_t> clfuzz::wire::encodeLeave() { return {}; }

//===----------------------------------------------------------------------===//
// Fd primitives and frame I/O (POSIX)
//===----------------------------------------------------------------------===//

#if defined(__unix__) || defined(__APPLE__)

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

bool clfuzz::wire::readFull(int Fd, void *Buf, size_t N) {
  auto *P = static_cast<uint8_t *>(Buf);
  while (N) {
    ssize_t R = ::read(Fd, P, N);
    if (R > 0) {
      P += R;
      N -= static_cast<size_t>(R);
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

bool clfuzz::wire::writeFull(int Fd, const void *Buf, size_t N) {
  auto *P = static_cast<const uint8_t *>(Buf);
  while (N) {
    ssize_t W = ::write(Fd, P, N);
    if (W > 0) {
      P += W;
      N -= static_cast<size_t>(W);
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

bool clfuzz::wire::writeFullNoSigpipe(int Fd, const void *Buf, size_t N) {
  sigset_t Pipe, Old;
  sigemptyset(&Pipe);
  sigaddset(&Pipe, SIGPIPE);
  ::pthread_sigmask(SIG_BLOCK, &Pipe, &Old);
  bool Ok = writeFull(Fd, Buf, N);
  if (!Ok) {
    struct timespec Zero = {0, 0};
    while (::sigtimedwait(&Pipe, nullptr, &Zero) == SIGPIPE) {
    }
  }
  ::pthread_sigmask(SIG_SETMASK, &Old, nullptr);
  return Ok;
}

ReadStatus clfuzz::wire::readFrame(int Fd, Frame &Out, std::string *Why) {
  uint8_t Header[FrameHeaderSize];
  if (!readFull(Fd, Header, sizeof(Header)))
    return ReadStatus::Eof;

  WireReader R(Header, sizeof(Header));
  uint32_t Magic = R.u32();
  uint8_t Version = R.u8();
  uint8_t Type = R.u8();
  uint8_t Reserved0 = R.u8();
  uint8_t Reserved1 = R.u8();
  uint32_t Len = R.u32();

  const char *Bad = nullptr;
  if (Magic != FrameMagic)
    Bad = "bad magic";
  else if (Version != ProtocolVersion)
    Bad = "version mismatch";
  else if (!knownFrameType(Type))
    Bad = "unknown frame type";
  else if (Reserved0 != 0 || Reserved1 != 0)
    Bad = "nonzero reserved bytes";
  else if (Len > MaxFramePayload)
    Bad = "oversized payload";
  if (Bad) {
    if (Why)
      *Why = Bad;
    return ReadStatus::Malformed;
  }

  Out.Type = static_cast<FrameType>(Type);
  Out.Payload.resize(Len);
  if (Len && !readFull(Fd, Out.Payload.data(), Len))
    return ReadStatus::Eof;
  return ReadStatus::Ok;
}

bool clfuzz::wire::writeFrame(int Fd, FrameType Type,
                              const std::vector<uint8_t> &Payload) {
  WireWriter W;
  W.u32(FrameMagic);
  W.u8(ProtocolVersion);
  W.u8(static_cast<uint8_t>(Type));
  W.u8(0);
  W.u8(0);
  W.u32(static_cast<uint32_t>(Payload.size()));
  std::vector<uint8_t> Buf = W.buffer();
  Buf.insert(Buf.end(), Payload.begin(), Payload.end());
  return writeFullNoSigpipe(Fd, Buf.data(), Buf.size());
}

/// Every fleet stream has Nagle off on both ends (see acceptTcp).
static void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

int clfuzz::wire::connectTcp(const std::string &Host, unsigned Port,
                             unsigned TimeoutMs) {
  struct addrinfo Hints = {};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  struct addrinfo *Res = nullptr;
  std::string PortStr = std::to_string(Port);
  if (::getaddrinfo(Host.c_str(), PortStr.c_str(), &Hints, &Res) != 0)
    return -1;

  int Fd = -1;
  for (struct addrinfo *AI = Res; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0)
      continue;

    // Bounded connect: non-blocking connect, poll for writability,
    // then check SO_ERROR — a dropped host must cost TimeoutMs, not a
    // kernel-default multi-minute SYN retry.
    int Flags = ::fcntl(Fd, F_GETFL, 0);
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
    int RC = ::connect(Fd, AI->ai_addr, AI->ai_addrlen);
    if (RC != 0 && errno == EINPROGRESS) {
      struct pollfd P = {Fd, POLLOUT, 0};
      int Ready = ::poll(&P, 1, static_cast<int>(TimeoutMs));
      int Err = 0;
      socklen_t ErrLen = sizeof(Err);
      if (Ready == 1 &&
          ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &ErrLen) == 0 &&
          Err == 0)
        RC = 0;
      else
        RC = -1;
    }
    if (RC == 0) {
      ::fcntl(Fd, F_SETFL, Flags);
      setNoDelay(Fd);
      break;
    }
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  return Fd;
}

int clfuzz::wire::acceptTcp(int ListenFd) {
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  if (Fd >= 0)
    setNoDelay(Fd);
  return Fd;
}

void clfuzz::wire::setRecvTimeout(int Fd, unsigned Ms) {
  struct timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = static_cast<long>(Ms % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

int clfuzz::wire::listenTcp(const std::string &Host, unsigned Port,
                            unsigned &BoundPort) {
  struct addrinfo Hints = {};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_PASSIVE;
  struct addrinfo *Res = nullptr;
  std::string PortStr = std::to_string(Port);
  if (::getaddrinfo(Host.empty() ? nullptr : Host.c_str(), PortStr.c_str(),
                    &Hints, &Res) != 0)
    return -1;

  int Fd = -1;
  for (struct addrinfo *AI = Res; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0)
      continue;
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, AI->ai_addr, AI->ai_addrlen) == 0 &&
        ::listen(Fd, 16) == 0) {
      struct sockaddr_storage Addr = {};
      socklen_t AddrLen = sizeof(Addr);
      if (::getsockname(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                        &AddrLen) == 0) {
        if (Addr.ss_family == AF_INET)
          BoundPort = ntohs(
              reinterpret_cast<struct sockaddr_in *>(&Addr)->sin_port);
        else if (Addr.ss_family == AF_INET6)
          BoundPort = ntohs(
              reinterpret_cast<struct sockaddr_in6 *>(&Addr)->sin6_port);
        else
          BoundPort = Port;
        break;
      }
    }
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  return Fd;
}

#else // no POSIX sockets: the remote backend and worker are disabled.

bool clfuzz::wire::readFull(int, void *, size_t) { return false; }
bool clfuzz::wire::writeFull(int, const void *, size_t) { return false; }
bool clfuzz::wire::writeFullNoSigpipe(int, const void *, size_t) {
  return false;
}
ReadStatus clfuzz::wire::readFrame(int, Frame &, std::string *) {
  return ReadStatus::Eof;
}
bool clfuzz::wire::writeFrame(int, FrameType, const std::vector<uint8_t> &) {
  return false;
}
int clfuzz::wire::connectTcp(const std::string &, unsigned, unsigned) {
  return -1;
}
int clfuzz::wire::acceptTcp(int) { return -1; }
void clfuzz::wire::setRecvTimeout(int, unsigned) {}
int clfuzz::wire::listenTcp(const std::string &, unsigned, unsigned &) {
  return -1;
}

#endif
