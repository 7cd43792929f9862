//===- JobSerialize.cpp - Wire format for cross-process jobs -----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/JobSerialize.h"
#include "device/DeviceConfig.h"
#include "support/Hash.h"

#include <cstring>
#include <stdexcept>

using namespace clfuzz;

void WireWriter::u32(uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void WireWriter::u64(uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void WireWriter::f64(double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void WireWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.insert(Buf.end(), S.begin(), S.end());
}

void WireWriter::bytes(const std::vector<uint8_t> &B) {
  u32(static_cast<uint32_t>(B.size()));
  Buf.insert(Buf.end(), B.begin(), B.end());
}

void WireReader::need(size_t N) const {
  if (static_cast<size_t>(End - P) < N)
    throw std::runtime_error("truncated payload");
}

uint8_t WireReader::u8() {
  need(1);
  return *P++;
}

uint32_t WireReader::u32() {
  need(4);
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(*P++) << (8 * I);
  return V;
}

uint64_t WireReader::u64() {
  need(8);
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(*P++) << (8 * I);
  return V;
}

double WireReader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

uint32_t WireReader::count() {
  uint32_t N = u32();
  if (static_cast<size_t>(End - P) < N)
    throw std::runtime_error("element count overruns its frame");
  return N;
}

std::string WireReader::str() {
  uint32_t N = u32();
  need(N);
  std::string S(reinterpret_cast<const char *>(P), N);
  P += N;
  return S;
}

std::vector<uint8_t> WireReader::bytes() {
  uint32_t N = u32();
  need(N);
  std::vector<uint8_t> B(P, P + N);
  P += N;
  return B;
}

namespace {

void writeLayout(WireWriter &W, const LayoutOptions &L) {
  W.u8(L.CharStructInitBug);
  W.u8(L.UnionInitBug);
}

LayoutOptions readLayout(WireReader &R) {
  LayoutOptions L;
  L.CharStructInitBug = R.u8();
  L.UnionInitBug = R.u8();
  return L;
}

void writeBugModel(WireWriter &W, const DeviceBugModel &B) {
  W.u8(B.RejectSizeTMix);
  W.u8(B.RejectVectorLogicalOps);
  W.u8(B.RejectVectorsInStructs);
  W.u8(B.CompileHangOnInfiniteLoop);
  W.u8(B.SlowStructBarrierCompile);
  W.f64(B.BuildFailLottery);
  writeLayout(W, B.Layout);
  W.u8(B.CommaDropsRhsBug);
  W.u8(B.SwizzleHighLaneBug);
  W.u8(B.VolatileStructCopyBug);
  W.u8(B.RotateFoldBug);
  W.u8(B.ShiftSafeFoldBug);
  W.u8(B.CmpMinusOneBug);
  W.u8(B.BarrierCallRetvalBug);
  W.f64(B.EmiDceBugRate);
  W.u8(B.BreakOnShiftBug);
  W.u8(B.BreakOnAndBug);
  W.u8(B.ShiftMarkBug);
  W.u8(B.MarkBreakBug);
  W.u8(B.BarrierInFunctionCrash);
  W.f64(B.CrashLottery);
  W.f64(B.SpeedFactor);
}

DeviceBugModel readBugModel(WireReader &R) {
  DeviceBugModel B;
  B.RejectSizeTMix = R.u8();
  B.RejectVectorLogicalOps = R.u8();
  B.RejectVectorsInStructs = R.u8();
  B.CompileHangOnInfiniteLoop = R.u8();
  B.SlowStructBarrierCompile = R.u8();
  B.BuildFailLottery = R.f64();
  B.Layout = readLayout(R);
  B.CommaDropsRhsBug = R.u8();
  B.SwizzleHighLaneBug = R.u8();
  B.VolatileStructCopyBug = R.u8();
  B.RotateFoldBug = R.u8();
  B.ShiftSafeFoldBug = R.u8();
  B.CmpMinusOneBug = R.u8();
  B.BarrierCallRetvalBug = R.u8();
  B.EmiDceBugRate = R.f64();
  B.BreakOnShiftBug = R.u8();
  B.BreakOnAndBug = R.u8();
  B.ShiftMarkBug = R.u8();
  B.MarkBreakBug = R.u8();
  B.BarrierInFunctionCrash = R.u8();
  B.CrashLottery = R.f64();
  B.SpeedFactor = R.f64();
  return B;
}

void writeConfig(WireWriter &W, const DeviceConfig &C) {
  W.u32(static_cast<uint32_t>(C.Id));
  W.str(C.Sdk);
  W.str(C.Device);
  W.str(C.Driver);
  W.str(C.OpenClVersion);
  W.str(C.Os);
  W.u8(static_cast<uint8_t>(C.Type));
  writeBugModel(W, C.BugsO0);
  writeBugModel(W, C.BugsO2);
  W.u8(C.NoOptimizer);
  W.u64(C.Salt);
  W.u32(static_cast<uint32_t>(C.IceMessages.size()));
  for (const std::string &S : C.IceMessages)
    W.str(S);
  W.u8(C.PaperAboveThreshold);
}

DeviceConfig readConfig(WireReader &R) {
  DeviceConfig C;
  C.Id = static_cast<int>(R.u32());
  C.Sdk = R.str();
  C.Device = R.str();
  C.Driver = R.str();
  C.OpenClVersion = R.str();
  C.Os = R.str();
  C.Type = static_cast<DeviceConfig::Kind>(R.u8());
  C.BugsO0 = readBugModel(R);
  C.BugsO2 = readBugModel(R);
  C.NoOptimizer = R.u8();
  C.Salt = R.u64();
  uint32_t NumIce = R.count();
  C.IceMessages.reserve(NumIce);
  for (uint32_t I = 0; I != NumIce; ++I)
    C.IceMessages.push_back(R.str());
  C.PaperAboveThreshold = R.u8();
  return C;
}

void writeTest(WireWriter &W, const TestCase &T) {
  W.str(T.Name);
  W.str(T.Source);
  for (int D = 0; D != 3; ++D)
    W.u32(T.Range.Global[D]);
  for (int D = 0; D != 3; ++D)
    W.u32(T.Range.Local[D]);
  W.u32(static_cast<uint32_t>(T.Buffers.size()));
  for (const BufferSpec &B : T.Buffers) {
    W.u8(static_cast<uint8_t>(B.Space));
    W.bytes(B.InitBytes);
    W.u8(B.IsDeadArray);
    W.u8(B.IsOutput);
  }
}

TestCase readTest(WireReader &R) {
  TestCase T;
  T.Name = R.str();
  T.Source = R.str();
  for (int D = 0; D != 3; ++D)
    T.Range.Global[D] = R.u32();
  for (int D = 0; D != 3; ++D)
    T.Range.Local[D] = R.u32();
  uint32_t NumBuffers = R.count();
  T.Buffers.reserve(NumBuffers);
  for (uint32_t I = 0; I != NumBuffers; ++I) {
    BufferSpec B;
    B.Space = static_cast<AddressSpace>(R.u8());
    B.InitBytes = R.bytes();
    B.IsDeadArray = R.u8();
    B.IsOutput = R.u8();
    T.Buffers.push_back(std::move(B));
  }
  return T;
}

void writeSettings(WireWriter &W, const RunSettings &S) {
  W.u64(S.BaseStepBudget);
  W.u64(S.SchedulerSeed);
  W.u8(S.InvertDead);
  W.u8(S.DetectRaces);
  W.u8(S.DebugHardAbort);
  W.u32(S.DebugSpinMs);
  W.u64(S.PassMask);
}

RunSettings readSettings(WireReader &R) {
  RunSettings S;
  S.BaseStepBudget = R.u64();
  S.SchedulerSeed = R.u64();
  S.InvertDead = R.u8();
  S.DetectRaces = R.u8();
  S.DebugHardAbort = R.u8();
  S.DebugSpinMs = R.u32();
  S.PassMask = R.u64();
  return S;
}

} // namespace

ExecJob OwnedExecJob::view() const {
  ExecJob J;
  J.Test = &Test;
  J.Config = Config ? &*Config : nullptr;
  J.Opt = Opt;
  J.Settings = Settings;
  return J;
}

void clfuzz::serializeTestSegment(WireWriter &W, const TestCase &Test) {
  writeTest(W, Test);
}

void clfuzz::serializeCellSegment(WireWriter &W, const ExecJob &Job) {
  W.u8(Job.Config != nullptr);
  if (Job.Config)
    writeConfig(W, *Job.Config);
  W.u8(Job.Opt);
  writeSettings(W, Job.Settings);
}

void clfuzz::serializeExecJob(WireWriter &W, const ExecJob &Job) {
  serializeTestSegment(W, *Job.Test);
  serializeCellSegment(W, Job);
}

OwnedExecJob clfuzz::deserializeExecJob(WireReader &R) {
  OwnedExecJob J;
  J.Test = readTest(R);
  if (R.u8())
    J.Config = readConfig(R);
  J.Opt = R.u8();
  J.Settings = readSettings(R);
  return J;
}

ExecColumn OwnedExecColumn::view() const {
  ExecColumn Col;
  Col.Jobs.reserve(Cells.size());
  for (const Cell &C : Cells) {
    ExecJob J;
    J.Test = &Test;
    J.Config = C.Config ? &*C.Config : nullptr;
    J.Opt = C.Opt;
    J.Settings = C.Settings;
    Col.Jobs.push_back(J);
  }
  return Col;
}

void clfuzz::serializeExecColumn(WireWriter &W, const ExecColumn &Column) {
  serializeTestSegment(W, *Column.Jobs.front().Test);
  W.u32(static_cast<uint32_t>(Column.Jobs.size()));
  for (const ExecJob &Job : Column.Jobs)
    serializeCellSegment(W, Job);
}

OwnedExecColumn clfuzz::deserializeExecColumn(WireReader &R) {
  OwnedExecColumn Col;
  Col.Test = readTest(R);
  uint32_t N = R.count();
  Col.Cells.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    OwnedExecColumn::Cell C;
    if (R.u8())
      C.Config = readConfig(R);
    C.Opt = R.u8();
    C.Settings = readSettings(R);
    Col.Cells.push_back(std::move(C));
  }
  return Col;
}

std::vector<uint8_t> clfuzz::descriptorBytes(const ExecJob &Job) {
  WireWriter W;
  serializeExecJob(W, Job);
  return W.take();
}

uint64_t clfuzz::hashDescriptor(const ExecJob &Job) {
  WireWriter W;
  serializeExecJob(W, Job);
  return fnv64(W.buffer().data(), W.buffer().size());
}

void clfuzz::serializeRunOutcome(WireWriter &W, const RunOutcome &O) {
  W.u8(static_cast<uint8_t>(O.Status));
  W.str(O.Message);
  W.u64(O.OutputHash);
  W.u32(static_cast<uint32_t>(O.OutputHead.size()));
  for (uint64_t V : O.OutputHead)
    W.u64(V);
  W.u64(O.Steps);
  W.u8(O.RaceFound);
  W.str(O.RaceMessage);
}

RunOutcome clfuzz::deserializeRunOutcome(WireReader &R) {
  RunOutcome O;
  O.Status = static_cast<RunStatus>(R.u8());
  O.Message = R.str();
  O.OutputHash = R.u64();
  uint32_t HeadLen = R.count();
  O.OutputHead.reserve(HeadLen);
  for (uint32_t I = 0; I != HeadLen; ++I)
    O.OutputHead.push_back(R.u64());
  O.Steps = R.u64();
  O.RaceFound = R.u8();
  O.RaceMessage = R.str();
  return O;
}
