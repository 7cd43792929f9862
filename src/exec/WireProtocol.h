//===- WireProtocol.h - Remote campaign frame protocol ----------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one framed protocol of out-of-process execution: the dispatch
/// loop (exec/Dispatch.h) speaks it to both of its lane kinds — a
/// forked process-pool child on two pipes (exec/ProcessPool.h) and a
/// `clfuzz worker` across TCP (exec/RemoteBackend.h,
/// exec/WorkerLoop.h) — carrying the ExecJob / RunOutcome descriptors
/// of exec/JobSerialize.h. Because the TCP peer may be another build on
/// another machine, the framing is versioned, magic-tagged and
/// paranoid about garbage; a pipe child simply speaks the same frames.
///
/// The format is specified in docs/wire-protocol.md; coordinator and
/// worker can evolve independently as long as both honour that
/// document. Summary: every frame is a fixed 12-byte little-endian
/// header (magic "CLFZ", protocol version, frame type, payload
/// length) followed by a bounded payload serialized with the
/// WireWriter primitives. A reader that sees a bad magic, an unknown
/// version, an unknown type or an oversized length treats the
/// connection as dead — frames are never resynchronized mid-stream.
///
/// This header also hosts the small POSIX fd/socket helpers shared by
/// the worker, the remote backend and the process pool.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_WIREPROTOCOL_H
#define CLFUZZ_EXEC_WIREPROTOCOL_H

#include "exec/JobSerialize.h"

#include <cstdint>
#include <string>
#include <vector>

namespace clfuzz {
namespace wire {

/// "CLFZ" as a little-endian u32 ('C' is the first byte on the wire).
constexpr uint32_t FrameMagic = 0x5A464C43;

/// Bumped on any incompatible change to the header or a payload
/// layout; both ends reject frames from a different major version.
/// v2: the hello payload gained the coordinator's u64 cache
/// generation (was empty).
/// v3: join / join-ack / leave frames for rendezvous workers
/// (exec/FleetRegistry.h). The v2 flows are untouched — a
/// statically-listed worker speaks exactly the v2 hello/hello-ack
/// sequence, just with the new version byte.
/// v4: the column frame (one test, many cells, one outcome per cell);
/// every lane of the dispatch loop, pipe or TCP, takes work as columns.
constexpr uint8_t ProtocolVersion = 4;

/// The cache generation a coordinator announces in every hello: the
/// outcome-cache format version (OutcomeCache::FormatVersion; the two
/// are static_assert-locked together). A worker whose outcome cache
/// was filled under a different generation drops it on handshake, so
/// stale cached outcomes never cross a format change.
constexpr uint64_t CacheGeneration = 2;

/// Upper bound on a frame payload. Real job descriptors are a few KiB
/// (kernel source + buffers + config); anything near this bound is a
/// corrupt or hostile length field, not a job.
constexpr uint32_t MaxFramePayload = 64u << 20;

/// Size of the fixed frame header on the wire.
constexpr size_t FrameHeaderSize = 12;

/// Frame types. Values are wire-visible; never renumber, only append.
enum class FrameType : uint8_t {
  Hello = 1,        ///< coordinator -> worker, first frame on a connection
  HelloAck = 2,     ///< worker -> coordinator: accepts, advertises slots
  // 3 was the v3 job frame (tag + one ExecJob), superseded by Column;
  // the number stays reserved and a v4 reader rejects it as unknown.
  Outcome = 4,      ///< worker -> coordinator: tag + RunOutcome
  Heartbeat = 5,    ///< coordinator -> worker: liveness probe (nonce)
  HeartbeatAck = 6, ///< worker -> coordinator: echoes the nonce
  Shutdown = 7,     ///< either direction: polite connection close
  Join = 8,         ///< worker -> registry: rendezvous registration
  JoinAck = 9,      ///< registry -> worker: accept/reject + cache gen
  Leave = 10,       ///< worker -> coordinator: drain request — finish
                    ///< my in-flight jobs, send me nothing new
  Column = 11,      ///< coordinator -> worker: base tag + ExecColumn
};

/// Printable name ("column", "outcome", ...), for diagnostics.
const char *frameTypeName(FrameType T);

/// A parsed frame: validated header, raw payload bytes.
struct Frame {
  FrameType Type = FrameType::Shutdown;
  std::vector<uint8_t> Payload;
};

/// What readFrame saw on the stream.
enum class ReadStatus : uint8_t {
  Ok,        ///< a well-formed frame was read into the out-param
  Eof,       ///< orderly close (or fd error) before a header arrived
  Malformed, ///< bad magic / version / type / length — connection is
             ///< unrecoverable, the stream cannot be resynchronized
};

//===----------------------------------------------------------------------===//
// Fd primitives
//===----------------------------------------------------------------------===//

/// Reads exactly N bytes; false on EOF or unrecoverable error.
bool readFull(int Fd, void *Buf, size_t N);

/// Writes exactly N bytes; false on EPIPE (dead peer) or error.
bool writeFull(int Fd, const void *Buf, size_t N);

/// writeFull with SIGPIPE suppressed for this write only: the signal
/// is blocked on the calling thread, any SIGPIPE our write raised is
/// drained, and the old mask is restored — so a peer dying mid-send
/// surfaces as EPIPE without altering the program's process-wide
/// signal disposition (a campaign piped into `head` must still die of
/// SIGPIPE on stdout like any other process).
bool writeFullNoSigpipe(int Fd, const void *Buf, size_t N);

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

/// Reads one frame. Blocks until the whole frame arrived (callers
/// poll() for readability first; a peer writes frames contiguously, so
/// the residual blocking window is one partial frame). On Malformed,
/// \p Why (when non-null) names the header check that failed
/// ("bad magic", "version mismatch", "unknown frame type",
/// "nonzero reserved bytes", "oversized payload") — feeding the
/// structured drop-reason logs the fleet layer emits.
ReadStatus readFrame(int Fd, Frame &Out, std::string *Why = nullptr);

/// Writes one frame (header + payload) in a single writeFullNoSigpipe.
/// False when the peer is gone.
bool writeFrame(int Fd, FrameType Type, const std::vector<uint8_t> &Payload);

//===----------------------------------------------------------------------===//
// Payload encoders / decoders
//===----------------------------------------------------------------------===//
//
// Decoders throw std::runtime_error on truncated or trailing bytes
// (via WireReader); callers treat that exactly like a Malformed frame.

/// Hello: u64 cache generation (CacheGeneration for this build). A
/// worker compares it against the generation its outcome cache was
/// filled under and clears the cache on mismatch (exec/WorkerLoop.h).
std::vector<uint8_t> encodeHello(uint64_t CacheGen);
uint64_t decodeHello(const Frame &F);

/// HelloAck: u32 concurrency — the number of jobs the worker is
/// willing to run at once on this connection. The coordinator sizes
/// its in-flight window from it.
std::vector<uint8_t> encodeHelloAck(uint32_t Concurrency);
uint32_t decodeHelloAck(const Frame &F);

/// Column: u64 base tag + serialized ExecColumn (the test case once,
/// then each cell's config, opt level and settings). Cell K is
/// answered by one outcome frame tagged BaseTag + K. Tags are opaque
/// to the worker and echoed verbatim; the coordinator uses the cell's
/// index in its batch, so consecutive cells of a column have
/// consecutive tags and results reassemble in submission order
/// whatever the completion order across workers.
std::vector<uint8_t> encodeColumn(uint64_t BaseTag, const ExecColumn &Col);
struct DecodedColumn {
  uint64_t BaseTag = 0;
  OwnedExecColumn Column;
};
DecodedColumn decodeColumn(const Frame &F);

/// Outcome: u64 tag + serialized RunOutcome.
std::vector<uint8_t> encodeOutcome(uint64_t Tag, const RunOutcome &O);
struct DecodedOutcome {
  uint64_t Tag = 0;
  RunOutcome Outcome;
};
DecodedOutcome decodeOutcome(const Frame &F);

/// Heartbeat / HeartbeatAck: u64 nonce, echoed back.
std::vector<uint8_t> encodeHeartbeat(uint64_t Nonce);
uint64_t decodeHeartbeat(const Frame &F);

/// Join: the first frame a rendezvous worker sends after dialling a
/// coordinator's fleet registry — the cache generation its outcome
/// cache was filled under plus the concurrency it advertises. The
/// registry rejects a stale generation (JoinAck accepted=0) so a
/// worker never serves outcomes cached under another format.
std::vector<uint8_t> encodeJoin(uint64_t CacheGen, uint32_t Concurrency);
struct DecodedJoin {
  uint64_t CacheGen = 0;
  uint32_t Concurrency = 1;
};
DecodedJoin decodeJoin(const Frame &F);

/// JoinAck: u8 accepted (0/1) + the coordinator's u64 cache
/// generation. On rejection the worker clears its cache and redials
/// with backoff; on acceptance the connection proceeds straight to
/// the v2 job/outcome flow (no hello exchange — join subsumes it).
std::vector<uint8_t> encodeJoinAck(bool Accepted, uint64_t CacheGen);
struct DecodedJoinAck {
  bool Accepted = false;
  uint64_t CacheGen = 0;
};
DecodedJoinAck decodeJoinAck(const Frame &F);

/// Leave: empty payload. A draining worker announces it after its
/// last wanted job; the coordinator stops dispatching to the link,
/// lets the in-flight window finish, then closes — zero requeues.
std::vector<uint8_t> encodeLeave();

//===----------------------------------------------------------------------===//
// Socket helpers
//===----------------------------------------------------------------------===//

/// Connects to host:port with a bounded wait (non-blocking connect +
/// poll). Returns the fd, or -1. TCP_NODELAY is set, as on every
/// fleet stream (see acceptTcp).
int connectTcp(const std::string &Host, unsigned Port, unsigned TimeoutMs);

/// Accepts one connection on a listenTcp socket. Returns the fd, or -1
/// with errno from accept(). TCP_NODELAY is set: a unit is answered by
/// one small frame per cell, and with Nagle on, each frame after the
/// first would wait for the peer's delayed ACK (~40 ms). Every fleet
/// stream is opened by connectTcp or acceptTcp, so both ends have it.
int acceptTcp(int ListenFd);

/// Arms (Ms > 0) or clears (Ms == 0) a receive timeout on the socket.
/// A read that stalls past it fails like EOF, so a peer that dies
/// mid-frame (partial header on the wire, then silence) cannot pin
/// the reader forever — readers poll() before reading, so the
/// timeout only ever fires on a genuine mid-frame stall, never on an
/// idle-but-healthy connection.
void setRecvTimeout(int Fd, unsigned Ms);

/// Binds and listens on host:port (port 0 = ephemeral); reports the
/// actually bound port. Returns the listen fd, or -1.
int listenTcp(const std::string &Host, unsigned Port, unsigned &BoundPort);

} // namespace wire
} // namespace clfuzz

#endif // CLFUZZ_EXEC_WIREPROTOCOL_H
