//===- JobSerialize.h - Wire format for cross-process jobs ------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of ExecJob descriptors and RunOutcomes for the
/// out-of-process backends. A job descriptor is fully self-contained:
/// the test case by value, the device configuration by value (bug
/// models and all) and the run settings — so a worker subprocess or a
/// remote worker re-derives exactly the same deterministic streams
/// (generator seeds, scheduler seeds, lottery salts) the in-process
/// backends use, and every backend produces bit-identical tables.
///
/// These payloads carry no version of their own: they travel inside
/// the versioned frames of exec/WireProtocol.h, and must never be
/// written to disk bare. The outcome cache (exec/OutcomeCache.h) does
/// persist descriptor bytes,
/// but only inside its own magic-tagged, versioned, checksummed
/// envelope — a format change there bumps OutcomeCache::FormatVersion
/// and invalidates every stored entry.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_JOBSERIALIZE_H
#define CLFUZZ_EXEC_JOBSERIALIZE_H

#include "exec/ExecBackend.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clfuzz {

/// Append-only byte sink used by the serializers.
class WireWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  void f64(double V);
  void str(const std::string &S);
  void bytes(const std::vector<uint8_t> &B);

  const std::vector<uint8_t> &buffer() const { return Buf; }
  /// Moves the bytes written so far out, leaving the writer empty.
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  std::vector<uint8_t> Buf;
};

/// Cursor over a received frame. Truncated frames throw
/// std::runtime_error (a malformed frame means a torn-down worker, and
/// the pool treats it as a worker crash).
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  double f64();
  std::string str();
  std::vector<uint8_t> bytes();
  /// A u32 element count, checked against the bytes left (every
  /// element takes at least one), so a hostile count throws instead
  /// of reserving memory the frame cannot fill.
  uint32_t count();
  bool atEnd() const { return P == End; }

private:
  void need(size_t N) const;
  const uint8_t *P;
  const uint8_t *End;
};

/// An ExecJob reconstructed from the wire: owns its test case and
/// configuration storage (ExecJob itself only holds pointers).
struct OwnedExecJob {
  TestCase Test;
  std::optional<DeviceConfig> Config; ///< nullopt = reference run
  bool Opt = false;
  RunSettings Settings;

  /// A view into this object's storage; valid while it lives.
  ExecJob view() const;
};

/// A job descriptor is two segments: the test case, then the cell's
/// own (config, opt, settings) record. serializeExecJob writes both;
/// a column frame writes the test segment once and one cell segment
/// per job, and the outcome cache keys a column the same way
/// (exec/OutcomeCache.h). The test segment is self-delimiting, so two
/// descriptors are equal exactly when both segments are.
void serializeTestSegment(WireWriter &W, const TestCase &Test);
void serializeCellSegment(WireWriter &W, const ExecJob &Job);

void serializeExecJob(WireWriter &W, const ExecJob &Job);
OwnedExecJob deserializeExecJob(WireReader &R);

/// An ExecColumn reconstructed from the wire: the shared test case is
/// stored once, each cell keeps only its own (config, opt, settings)
/// triple. view() materialises ExecJobs pointing into this storage.
struct OwnedExecColumn {
  struct Cell {
    std::optional<DeviceConfig> Config; ///< nullopt = reference run
    bool Opt = false;
    RunSettings Settings;
  };

  TestCase Test;
  std::vector<Cell> Cells;

  /// A view into this object's storage; valid while it lives.
  ExecColumn view() const;
};

/// Payload of the wire `column` frame: the test case once,
/// then one (config, opt, settings) record per cell — the whole point
/// of shipping a column instead of N jobs. This is transport framing
/// only; descriptor identity (descriptorBytes / hashDescriptor) stays
/// per-job, so outcome-cache keys are unaffected.
void serializeExecColumn(WireWriter &W, const ExecColumn &Column);
OwnedExecColumn deserializeExecColumn(WireReader &R);

/// The canonical byte string of a job descriptor: exactly the
/// serializeExecJob stream. Two jobs with equal descriptor bytes are
/// the same pure function and must produce the same RunOutcome on
/// every backend — the content-addressing contract the outcome cache
/// (exec/OutcomeCache.h) hangs off.
std::vector<uint8_t> descriptorBytes(const ExecJob &Job);

/// The canonical 64-bit fingerprint of a job descriptor: FNV-1a
/// (support/Hash.h) over descriptorBytes(). This is the single
/// descriptor-fingerprint path in the code base — the outcome cache's
/// key derivation and every other descriptor identity check go
/// through here, the same Fnv64 that fingerprints kernel outputs
/// (RunOutcome::OutputHash), so there is exactly one hashing
/// implementation to audit.
uint64_t hashDescriptor(const ExecJob &Job);

void serializeRunOutcome(WireWriter &W, const RunOutcome &O);
RunOutcome deserializeRunOutcome(WireReader &R);

} // namespace clfuzz

#endif // CLFUZZ_EXEC_JOBSERIALIZE_H
