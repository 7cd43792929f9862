//===- VM.cpp - NDRange executor for MiniCL bytecode ------------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The interpreter hot path lives in VMInterp.inc, which this file
// expands twice: once as a portable switch loop and once (on GCC and
// Clang) as a token-threaded computed-goto loop. See docs/vm.md for
// the dispatch, superinstruction and launch-reuse design.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"
#include "minicl/IntOps.h"
#include "support/Metrics.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <unordered_map>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

using namespace clfuzz;

#if defined(__GNUC__) || defined(__clang__)
#define CLFUZZ_VM_HAVE_GOTO 1
#else
#define CLFUZZ_VM_HAVE_GOTO 0
#endif

//===----------------------------------------------------------------------===//
// Buffer helpers
//===----------------------------------------------------------------------===//

uint64_t Buffer::readScalar(uint64_t Offset, unsigned ByteWidth) const {
  assert(Offset + ByteWidth <= Bytes.size() && "host read out of bounds");
  uint64_t V = 0;
  for (unsigned I = 0; I != ByteWidth; ++I)
    V |= static_cast<uint64_t>(Bytes[Offset + I]) << (8 * I);
  return V;
}

void Buffer::writeScalar(uint64_t Offset, unsigned ByteWidth,
                         uint64_t Bits) {
  assert(Offset + ByteWidth <= Bytes.size() && "host write out of bounds");
  for (unsigned I = 0; I != ByteWidth; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(Bits >> (8 * I));
}

const char *clfuzz::launchStatusName(LaunchStatus S) {
  switch (S) {
  case LaunchStatus::Success:
    return "success";
  case LaunchStatus::Trap:
    return "trap";
  case LaunchStatus::Timeout:
    return "timeout";
  case LaunchStatus::BarrierDivergence:
    return "barrier divergence";
  case LaunchStatus::InvalidLaunch:
    return "invalid launch";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Interpreter tuning state and counters
//===----------------------------------------------------------------------===//

namespace {

std::atomic<int> GDispatchMode{-1}; // -1 unresolved, else VmDispatch
std::atomic<int> GFusionMode{-1};   // -1 unresolved, else 0/1

} // namespace

bool clfuzz::vmHasGotoDispatch() { return CLFUZZ_VM_HAVE_GOTO != 0; }

const char *clfuzz::vmDispatchName(VmDispatch D) {
  return D == VmDispatch::Goto ? "goto" : "switch";
}

bool clfuzz::parseVmDispatch(const char *Name, VmDispatch &Out) {
  if (!Name)
    return false;
  if (std::strcmp(Name, "switch") == 0) {
    Out = VmDispatch::Switch;
    return true;
  }
  if (std::strcmp(Name, "goto") == 0) {
    Out = VmDispatch::Goto;
    return true;
  }
  return false;
}

void clfuzz::setVmDispatchMode(VmDispatch D) {
  if (D == VmDispatch::Goto && !vmHasGotoDispatch())
    D = VmDispatch::Switch;
  GDispatchMode.store(static_cast<int>(D), std::memory_order_relaxed);
}

VmDispatch clfuzz::vmDispatchMode() {
  int Mode = GDispatchMode.load(std::memory_order_relaxed);
  if (Mode >= 0)
    return static_cast<VmDispatch>(Mode);
  VmDispatch D =
      vmHasGotoDispatch() ? VmDispatch::Goto : VmDispatch::Switch;
  if (const char *Env = std::getenv("CLFUZZ_VM_DISPATCH")) {
    VmDispatch Parsed;
    if (parseVmDispatch(Env, Parsed))
      D = Parsed;
  }
  if (D == VmDispatch::Goto && !vmHasGotoDispatch())
    D = VmDispatch::Switch;
  GDispatchMode.store(static_cast<int>(D), std::memory_order_relaxed);
  return D;
}

void clfuzz::setVmFusionEnabled(bool Enabled) {
  GFusionMode.store(Enabled ? 1 : 0, std::memory_order_relaxed);
}

bool clfuzz::vmFusionEnabled() {
  int Mode = GFusionMode.load(std::memory_order_relaxed);
  if (Mode >= 0)
    return Mode != 0;
  bool On = true;
  if (const char *Env = std::getenv("CLFUZZ_VM_FUSE"))
    On = !(std::strcmp(Env, "0") == 0 || std::strcmp(Env, "off") == 0 ||
           std::strcmp(Env, "false") == 0);
  GFusionMode.store(On ? 1 : 0, std::memory_order_relaxed);
  return On;
}

VmCounters clfuzz::vmCounters() {
  return {counterValue(Counter::VmInstructions),
          counterValue(Counter::VmFused), counterValue(Counter::VmLaunches),
          counterValue(Counter::VmEngineReuses),
          counterValue(Counter::VmMemoHits)};
}

namespace {

//===----------------------------------------------------------------------===//
// Race detection
//===----------------------------------------------------------------------===//

/// Happens-before data-race detector following the paper's definition
/// (§3.1): conflicting accesses race unless both are atomic, or the
/// threads share a group and a barrier (with the right fence) separates
/// the accesses.
class RaceDetector {
public:
  struct Access {
    uint32_t Thread;
    uint32_t Group;
    uint32_t Epoch;
    bool Atomic;
    bool Write;
  };

  bool Found = false;
  std::string Message;

  void onAccess(bool IsLocalSpace, unsigned Buf, uint64_t Offset,
                uint64_t Size, Access A) {
    if (Found)
      return;
    auto &Map = IsLocalSpace ? LocalBytes : GlobalBytes[Buf];
    for (uint64_t I = 0; I != Size; ++I) {
      ByteState &BS = Map[Offset + I];
      if (A.Write) {
        if (BS.HasWrite && conflicts(BS.Write, A)) {
          report(IsLocalSpace, Buf, Offset + I, BS.Write, A);
          return;
        }
        for (const Access &R : BS.Reads)
          if (conflicts(R, A)) {
            report(IsLocalSpace, Buf, Offset + I, R, A);
            return;
          }
        BS.Write = A;
        BS.HasWrite = true;
        BS.Reads.clear();
      } else {
        if (BS.HasWrite && conflicts(BS.Write, A)) {
          report(IsLocalSpace, Buf, Offset + I, BS.Write, A);
          return;
        }
        if (BS.Reads.size() < 4)
          BS.Reads.push_back(A);
      }
    }
  }

  /// Local memory is re-used between groups; forget its history.
  void resetLocal() { LocalBytes.clear(); }

  /// Forgets everything (launch-session reuse).
  void reset() {
    Found = false;
    Message.clear();
    LocalBytes.clear();
    GlobalBytes.clear();
  }

private:
  struct ByteState {
    Access Write = {};
    bool HasWrite = false;
    std::vector<Access> Reads;
  };

  static bool conflicts(const Access &A, const Access &B) {
    if (A.Thread == B.Thread)
      return false;
    if (!A.Write && !B.Write)
      return false;
    if (A.Atomic && B.Atomic)
      return false;
    if (A.Group != B.Group)
      return true; // no inter-group ordering exists in OpenCL 1.x
    return A.Epoch == B.Epoch; // same barrier interval
  }

  void report(bool IsLocal, unsigned Buf, uint64_t Offset, const Access &A,
              const Access &B) {
    Found = true;
    std::ostringstream OS;
    OS << "data race on " << (IsLocal ? "local" : "global") << " memory";
    if (!IsLocal)
      OS << " (buffer " << Buf << ")";
    OS << " at byte " << Offset << " between threads " << A.Thread
       << (A.Write ? " (write" : " (read")
       << (A.Atomic ? ", atomic)" : ")") << " and " << B.Thread
       << (B.Write ? " (write" : " (read")
       << (B.Atomic ? ", atomic)" : ")");
    Message = OS.str();
  }

  std::unordered_map<uint64_t, ByteState> LocalBytes;
  std::unordered_map<unsigned, std::unordered_map<uint64_t, ByteState>>
      GlobalBytes;
};

//===----------------------------------------------------------------------===//
// Thread state
//===----------------------------------------------------------------------===//

enum class TState : uint8_t { Runnable, AtBarrier, Finished };

struct Frame {
  unsigned Func;
  size_t PC;
  uint64_t Base;
};

/// A work-item's private arena: size() logical bytes whose pages stay
/// untouched until used, of which only the prefix [0, poisoned()) has
/// been filled with the deterministic 0xab poison. Bytes are poisoned
/// on first reach, so a context pays resident memory for the frames
/// its kernel touches, not for the whole arena. Every byte below
/// poisoned() is valid to read and write; nothing above it is read.
class PrivateArena {
public:
  PrivateArena() = default;
  PrivateArena(PrivateArena &&O) noexcept { swap(O); }
  PrivateArena &operator=(PrivateArena &&O) noexcept {
    swap(O);
    return *this;
  }
  ~PrivateArena() { release(); }

  /// Reserves \p N fresh bytes with nothing poisoned.
  void reserve(uint64_t N) {
    release();
    Data = N ? mapPages(N) : nullptr;
    Size = N;
    Poisoned = 0;
  }
  uint64_t size() const { return Size; }
  uint64_t poisoned() const { return Poisoned; }
  uint8_t *data() { return Data; }
  /// Extends the poisoned prefix over [0, \p End); End <= size().
  void reach(uint64_t End) {
    if (End > Poisoned)
      poisonTo(End);
  }

private:
  /// Poison advances in whole grains, so a frame walking up the arena
  /// costs one memset per grain rather than one per access.
  static constexpr uint64_t PoisonGrain = 256;

  void poisonTo(uint64_t End) {
    uint64_t To = std::min(Size, (End + PoisonGrain - 1) & ~(PoisonGrain - 1));
    std::memset(Data + Poisoned, 0xab, static_cast<size_t>(To - Poisoned));
    Poisoned = To;
  }

  // An anonymous mapping starts on a fresh page; a heap block may
  // share pages with, or reuse, memory that is already resident.
  static uint8_t *mapPages(uint64_t N) {
#if defined(__unix__) || defined(__APPLE__)
    void *P = ::mmap(nullptr, static_cast<size_t>(N), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    return static_cast<uint8_t *>(P);
#else
    return new uint8_t[N];
#endif
  }
  void release() {
    if (!Data)
      return;
#if defined(__unix__) || defined(__APPLE__)
    ::munmap(Data, static_cast<size_t>(Size));
#else
    delete[] Data;
#endif
    Data = nullptr;
  }
  void swap(PrivateArena &O) noexcept {
    std::swap(Data, O.Data);
    std::swap(Size, O.Size);
    std::swap(Poisoned, O.Poisoned);
  }

  uint8_t *Data = nullptr;
  uint64_t Size = 0;
  uint64_t Poisoned = 0;
};

/// Zeroes lanes [From, V.NumLanes). Every slot keeps the lane
/// invariant (lanes at index >= NumLanes are zero), so afterwards all
/// of [From, 16) is zero. Call before NumLanes changes.
inline void clearLanesFrom(Value &V, unsigned From) {
  for (unsigned L = From; L < V.NumLanes; ++L)
    V.Lanes[L] = 0;
}

/// The operand stack. A popped slot is not destroyed and keeps the
/// lane invariant like a live one, so a push clears only the lanes its
/// slot last held instead of zero-filling all sixteen, as constructing
/// a fresh Value did. VecShuffle and BuiltinEval read beyond an
/// operand's lane count and rely on those zeros.
class OperandStack {
public:
  OperandStack() = default;
  OperandStack(const OperandStack &) = delete;
  OperandStack &operator=(const OperandStack &) = delete;
  // Moving a vector keeps its buffer, so Top and Limit stay valid.
  OperandStack(OperandStack &&) noexcept = default;
  OperandStack &operator=(OperandStack &&) noexcept = default;

  size_t size() const { return static_cast<size_t>(Top - Slots.data()); }
  Value &back() { return Top[-1]; }
  Value &operator[](size_t I) { return Slots.data()[I]; }
  void pop_back() { --Top; }
  /// Drops every slot above the bottom \p N (never grows the stack).
  void shrink(size_t N) { Top = Slots.data() + N; }
  void clear() { Top = Slots.data(); }

  /// Pushes a slot equal to a default-constructed Value.
  Value &push() {
    Value &V = pushRaw();
    clearLanesFrom(V, 0);
    V.Ty = nullptr;
    V.NumLanes = 1;
    return V;
  }
  /// Pushes a one-lane value holding \p Bits (already masked).
  Value &pushLane0(const Type *Ty, uint64_t Bits) {
    Value &V = pushRaw();
    clearLanesFrom(V, 1);
    V.Ty = Ty;
    V.NumLanes = 1;
    V.Lanes[0] = Bits;
    return V;
  }
  /// Pushes a copy of the top slot.
  void dupTop() {
    Value &V = pushRaw();
    V = (&V)[-1];
  }

private:
  Value &pushRaw() {
    if (Top == Limit)
      grow();
    assert(std::all_of(Top->Lanes.begin() + Top->NumLanes, Top->Lanes.end(),
                       [](uint64_t L) { return L == 0; }) &&
           "dead operand slot holds stale lanes");
    return *Top++;
  }
  void grow() {
    size_t N = size();
    // New slots are default-constructed: all lanes zero. A work-group
    // holds one stack per work-item, so start small.
    Slots.resize(std::max<size_t>(4, 2 * Slots.size()));
    Top = Slots.data() + N;
    Limit = Slots.data() + Slots.size();
  }

  std::vector<Value> Slots;
  Value *Top = nullptr;   // one past the live top
  Value *Limit = nullptr; // end of Slots
};

struct ThreadCtx {
  TState State = TState::Runnable;
  std::vector<Frame> Stack;
  OperandStack Operands;
  PrivateArena Arena;
  uint64_t ArenaTop = 8;
  uint32_t GlobalId[3] = {0, 0, 0};
  uint32_t LocalId[3] = {0, 0, 0};
  uint32_t GroupId[3] = {0, 0, 0};
  uint32_t GlobalLinear = 0;
  uint32_t LocalLinear = 0;
  uint32_t BarrierSite = 0;
  uint32_t BarrierCount = 0;
  uint8_t PendingFence = 0;
  /// High-water mark of arena bytes written this launch, never above
  /// Arena.poisoned(). On engine reuse only [0, ArenaDirtyHigh) needs
  /// re-poisoning to 0xab — the poisoned bytes above it were never
  /// written.
  uint64_t ArenaDirtyHigh = 0;
  /// Engine launch id this thread's arena poison is valid for.
  uint64_t LaunchStamp = 0;
};

enum class StepResult : uint8_t { Continue, Blocked, Done, Trapped };

//===----------------------------------------------------------------------===//
// In-place Value helpers
//===----------------------------------------------------------------------===//
//
// Handlers mutate operand-stack slots in place instead of round-
// tripping Values (144 bytes on LP64 hosts) through locals. Every
// producer must keep the lane invariant (see OperandStack).

static_assert(sizeof(Value) == 144 || sizeof(void *) != 8,
              "update the Value size quoted above");

/// \p Bits masked to the width of \p I's type when that is a scalar
/// (Value::scalar semantics).
inline uint64_t maskToScalar(const Insn &I, uint64_t Bits) {
  return I.Shape == TyShape::Scalar ? maskToWidth(Bits, I.LaneBits) : Bits;
}

/// laneTypeOf(I.Ty), from \p I's decoded facts.
inline LaneType insnLaneType(const Insn &I) {
  return {I.LaneBits, I.LaneSigned};
}

/// The lane type an operator evaluates \p V in: that of V's type, or of
/// \p I's when V is untyped — from I's decoded facts whenever V has
/// I's type, which is the common case.
inline LaneType operandLaneType(const Value &V, const Insn &I) {
  if (!V.Ty || V.Ty == I.Ty)
    return insnLaneType(I);
  return laneTypeOf(V.Ty);
}

/// Rewrites an existing slot to a scalar of \p I's type, clearing
/// stale upper lanes.
inline void setScalarInPlace(Value &V, const Insn &I, uint64_t Bits) {
  clearLanesFrom(V, 1);
  V.NumLanes = 1;
  V.Ty = I.Ty;
  V.Lanes[0] = maskToScalar(I, Bits);
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define CLFUZZ_VM_LE_HOST 1
#else
#define CLFUZZ_VM_LE_HOST 0
#endif

/// Reads a little-endian scalar of 1/2/4/8 bytes. On little-endian
/// hosts the memcpy compiles to a single load; the portable loop is
/// the fallback (and the non-power-of-two path).
inline uint64_t readLE(const uint8_t *P, unsigned Bytes) {
#if CLFUZZ_VM_LE_HOST
  switch (Bytes) {
  case 1:
    return P[0];
  case 2: {
    uint16_t V;
    std::memcpy(&V, P, 2);
    return V;
  }
  case 4: {
    uint32_t V;
    std::memcpy(&V, P, 4);
    return V;
  }
  case 8: {
    uint64_t V;
    std::memcpy(&V, P, 8);
    return V;
  }
  default:
    break;
  }
#endif
  uint64_t V = 0;
  for (unsigned I = 0; I != Bytes; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

/// Writes a little-endian scalar of 1/2/4/8 bytes (single store on
/// little-endian hosts).
inline void writeLE(uint8_t *P, unsigned Bytes, uint64_t Bits) {
#if CLFUZZ_VM_LE_HOST
  switch (Bytes) {
  case 1:
    P[0] = static_cast<uint8_t>(Bits);
    return;
  case 2: {
    uint16_t V = static_cast<uint16_t>(Bits);
    std::memcpy(P, &V, 2);
    return;
  }
  case 4: {
    uint32_t V = static_cast<uint32_t>(Bits);
    std::memcpy(P, &V, 4);
    return;
  }
  case 8: {
    std::memcpy(P, &Bits, 8);
    return;
  }
  default:
    break;
  }
#endif
  for (unsigned I = 0; I != Bytes; ++I)
    P[I] = static_cast<uint8_t>(Bits >> (8 * I));
}

/// Op::Convert semantics applied to a slot in place (no trap paths).
/// Shared by the plain handler and FusedLoadConvert.
inline void convertInPlace(Value &V, const Insn &I) {
  if (I.Shape == TyShape::Vector) {
    const auto *SrcVT = cast<VectorType>(V.Ty);
    bool SrcSigned = SrcVT->getElementType()->isSigned();
    unsigned SrcW = SrcVT->getElementType()->bitWidth();
    unsigned DstW = I.LaneBits;
    unsigned N = I.Lanes;
    for (unsigned L = 0; L != N; ++L) {
      uint64_t Bits =
          SrcSigned ? static_cast<uint64_t>(signExtend(V.Lanes[L], SrcW))
                    : V.Lanes[L];
      V.Lanes[L] = maskToWidth(Bits, DstW);
    }
    clearLanesFrom(V, N);
    V.NumLanes = N;
    V.Ty = I.Ty;
    return;
  }
  if (I.Shape == TyShape::Pointer) {
    clearLanesFrom(V, 1);
    V.NumLanes = 1;
    V.Ty = I.Ty;
    return;
  }
  assert(I.Shape == TyShape::Scalar && "converting to a non-scalar type");
  uint64_t Bits = V.Lanes[0];
  if (const auto *SrcST = dyn_cast_if_present<ScalarType>(V.Ty))
    if (SrcST->isSigned())
      Bits = static_cast<uint64_t>(signExtend(Bits, SrcST->bitWidth()));
  clearLanesFrom(V, 1);
  V.Lanes[0] = maskToWidth(Bits, I.LaneBits);
  V.NumLanes = 1;
  V.Ty = I.Ty;
}

/// The private-arena bytes \p Ptr addresses when it is a private
/// pointer with \p Size bytes inside the poisoned prefix, else null.
/// Private accesses are never race-checked, so this one bounds check
/// is all a scalar load or store through such a pointer needs; any
/// other pointer takes the general resolve path, which also poisons
/// bytes on first reach and reports the traps.
inline uint8_t *privateBytes(ThreadCtx &T, uint64_t Ptr, uint64_t Size) {
  if (Ptr == 0 || vmptr::space(Ptr) != AddressSpace::Private)
    return nullptr;
  uint64_t Off = vmptr::offset(Ptr);
  if (Off + Size > T.Arena.poisoned())
    return nullptr;
  return T.Arena.data() + Off;
}

/// True when Op::Bin \p I applied to the left operand \p L computes in
/// I's own scalar lane type, which its decoded facts give.
inline bool isScalarBin(const Value &L, const Insn &I) {
  return I.Shape == TyShape::Scalar && (!L.Ty || L.Ty == I.Ty);
}

//===----------------------------------------------------------------------===//
// The execution engine
//===----------------------------------------------------------------------===//

/// The execution engine. Default-constructed once and reusable: run()
/// re-binds the module/buffers/options and resets all per-launch state,
/// while thread contexts, operand stacks and arenas keep their
/// capacity (and their 0xab poison above the previous launch's
/// high-water mark) across launches — the zero-allocation fast path.
class Engine {
public:
  Engine() : Sched(0) {}

  LaunchResult run(const CompiledModule &Mod, std::vector<Buffer> &Bufs,
                   const std::vector<KernelArg> &ArgList,
                   const LaunchOptions &OptsIn);

private:
  StepResult runSliceSwitch(ThreadCtx &T, uint64_t MaxSteps,
                            uint64_t &ExecutedOut);
#if CLFUZZ_VM_HAVE_GOTO
  StepResult runSliceGoto(ThreadCtx &T, uint64_t MaxSteps,
                          uint64_t &ExecutedOut);
#endif
  bool runGroup(uint32_t GX, uint32_t GY, uint32_t GZ);

  uint8_t *resolve(ThreadCtx &T, uint64_t Ptr, uint64_t Size,
                   bool ForWrite, TrapCode &TC);
  void recordAccess(ThreadCtx &T, uint64_t Ptr, uint64_t Size, bool Write,
                    bool Atomic);

  /// Resolves, race-checks and loads through \p PtrBits into \p Slot
  /// (fully overwriting it, stale lanes included). False on trap.
  bool loadIntoSlot(ThreadCtx &T, Value &Slot, uint64_t PtrBits,
                    const Insn &I);
  /// Op::Bin semantics: L op= R in place. False on division by zero
  /// (trap already reported). Shared by Bin and the fused handlers.
  bool binInPlace(ThreadCtx &T, const Insn &I, Value &L, const Value &R);
  /// Op::Bin on a non-vector: L = L op \p RBits in lane type \p LT,
  /// masked to I's type. Inline, so the scalar fast path of the Bin
  /// handlers (isScalarBin) costs no call.
  bool binScalar(ThreadCtx &T, const Insn &I, LaneType LT, Value &L,
                 uint64_t RBits) {
    uint64_t Out;
    if (!evalBinLane(static_cast<BinOp>(I.A), LT, L.Lanes[0], RBits, false,
                     32, Out)) {
      trap(T, TrapCode::DivByZero);
      return false;
    }
    clearLanesFrom(L, 1);
    L.Lanes[0] = maskToScalar(I, Out);
    L.NumLanes = 1;
    L.Ty = I.Ty;
    return true;
  }

  static void loadInto(Value &Out, const uint8_t *P, const Insn &I);
  static void storeValue(uint8_t *P, const Value &V);

  void trap(ThreadCtx &T, TrapCode TC, const std::string &Extra = "");

  const CompiledModule *M = nullptr;
  std::vector<Buffer> *Buffers = nullptr;
  const std::vector<KernelArg> *Args = nullptr;
  LaunchOptions Opts;
  Rng Sched;

  std::vector<ThreadCtx> Threads; // high-water sized; use [0, W) only
  std::vector<uint8_t> LocalArena;
  RaceDetector Races;
  uint32_t LocalEpoch = 0;
  uint32_t GlobalEpoch = 0;
  uint32_t CurGroupLinear = 0;

  uint64_t Steps = 0;
  LaunchResult Result;
  bool Aborted = false;
  bool UseGoto = false;
  uint64_t LaunchId = 0;      // monotonically increasing, 1-based
  uint64_t FusedInLaunch = 0; // superinstruction dispatches this launch
};

} // namespace

//===----------------------------------------------------------------------===//
// Memory plumbing
//===----------------------------------------------------------------------===//

uint8_t *Engine::resolve(ThreadCtx &T, uint64_t Ptr, uint64_t Size,
                         bool ForWrite, TrapCode &TC) {
  if (Ptr == 0) {
    TC = TrapCode::NullDeref;
    return nullptr;
  }
  AddressSpace Space = vmptr::space(Ptr);
  uint64_t Off = vmptr::offset(Ptr);
  switch (Space) {
  case AddressSpace::Private:
    if (Off + Size > T.Arena.size()) {
      TC = TrapCode::OutOfBounds;
      return nullptr;
    }
    T.Arena.reach(Off + Size);
    if (ForWrite && Off + Size > T.ArenaDirtyHigh)
      T.ArenaDirtyHigh = Off + Size;
    return T.Arena.data() + Off;
  case AddressSpace::Local:
    if (Off + Size > LocalArena.size()) {
      TC = TrapCode::OutOfBounds;
      return nullptr;
    }
    return LocalArena.data() + Off;
  case AddressSpace::Global:
  case AddressSpace::Constant: {
    unsigned Buf = vmptr::buffer(Ptr);
    if (Buf >= Buffers->size()) {
      TC = TrapCode::BadPointer;
      return nullptr;
    }
    Buffer &B = (*Buffers)[Buf];
    if (ForWrite && B.Space == AddressSpace::Constant) {
      TC = TrapCode::BadPointer;
      return nullptr;
    }
    if (Off + Size > B.Bytes.size()) {
      TC = TrapCode::OutOfBounds;
      return nullptr;
    }
    return B.Bytes.data() + Off;
  }
  }
  TC = TrapCode::BadPointer;
  return nullptr;
}

void Engine::recordAccess(ThreadCtx &T, uint64_t Ptr, uint64_t Size,
                          bool Write, bool Atomic) {
  if (!Opts.DetectRaces)
    return;
  AddressSpace Space = vmptr::space(Ptr);
  if (Space == AddressSpace::Private || Space == AddressSpace::Constant)
    return;
  bool IsLocal = Space == AddressSpace::Local;
  RaceDetector::Access A;
  A.Thread = T.GlobalLinear;
  A.Group = CurGroupLinear;
  A.Epoch = IsLocal ? LocalEpoch : GlobalEpoch;
  A.Atomic = Atomic;
  A.Write = Write;
  Races.onAccess(IsLocal, IsLocal ? 0 : vmptr::buffer(Ptr),
                 vmptr::offset(Ptr), Size, A);
}

void Engine::loadInto(Value &Out, const uint8_t *P, const Insn &I) {
  // \p Out satisfies the lane invariant on entry, so only lanes
  // [N, Out.NumLanes) can hold stale data. The common case — loading a
  // scalar over the pointer that addressed it — clears nothing.
  if (I.Shape == TyShape::Vector) {
    unsigned N = I.Lanes;
    unsigned EB = I.AccessBytes / N;
    for (unsigned L = 0; L != N; ++L)
      Out.Lanes[L] = maskToWidth(readLE(P + L * EB, EB), I.LaneBits);
    clearLanesFrom(Out, N);
    Out.Ty = I.Ty;
    Out.NumLanes = N;
    return;
  }
  assert((I.Shape == TyShape::Scalar || I.Shape == TyShape::Pointer) &&
         "loading a non-loadable type");
  clearLanesFrom(Out, 1);
  Out.NumLanes = 1;
  Out.Ty = I.Ty;
  // A pointer reads 8 bytes into a 64-bit lane: the mask is a no-op.
  Out.Lanes[0] = maskToWidth(readLE(P, I.AccessBytes), I.LaneBits);
}

void Engine::storeValue(uint8_t *P, const Value &V) {
  if (const auto *VT = dyn_cast<VectorType>(V.Ty)) {
    unsigned EB = VT->getElementType()->byteWidth();
    for (unsigned L = 0; L != VT->getNumLanes(); ++L)
      writeLE(P + L * EB, EB, V.Lanes[L]);
    return;
  }
  if (const auto *ST = dyn_cast<ScalarType>(V.Ty)) {
    writeLE(P, ST->byteWidth(), V.Lanes[0]);
    return;
  }
  writeLE(P, 8, V.Lanes[0]);
}


void Engine::trap(ThreadCtx &T, TrapCode TC, const std::string &Extra) {
  Aborted = true;
  Result.Status = LaunchStatus::Trap;
  std::ostringstream OS;
  OS << "thread " << T.GlobalLinear << ": " << trapCodeName(TC);
  if (!Extra.empty())
    OS << " (" << Extra << ")";
  Result.Message = OS.str();
}

bool Engine::loadIntoSlot(ThreadCtx &T, Value &Slot, uint64_t PtrBits,
                          const Insn &I) {
  uint64_t Size = I.AccessBytes;
  TrapCode TC;
  uint8_t *P = resolve(T, PtrBits, Size, /*ForWrite=*/false, TC);
  if (!P) {
    trap(T, TC, "load");
    return false;
  }
  if (Opts.DetectRaces)
    recordAccess(T, PtrBits, Size, /*Write=*/false, /*Atomic=*/false);
  loadInto(Slot, P, I);
  return true;
}

bool Engine::binInPlace(ThreadCtx &T, const Insn &I, Value &L,
                        const Value &R) {
  LaneType LT = operandLaneType(L, I);
  if (I.Shape != TyShape::Vector)
    return binScalar(T, I, LT, L, R.Lanes[0]);
  BinOp BO = static_cast<BinOp>(I.A);
  unsigned N = I.Lanes;
  unsigned RW = I.LaneBits;
  bool VecCmp = isComparisonOp(BO) || isLogicalOp(BO);
  for (unsigned Lane = 0; Lane != N; ++Lane) {
    // evalBinLane takes the inputs by value, so the output may alias
    // lane storage; each lane depends only on its own inputs.
    if (!evalBinLane(BO, LT, L.Lanes[Lane], R.Lanes[Lane], VecCmp, RW,
                     L.Lanes[Lane])) {
      trap(T, TrapCode::DivByZero);
      return false;
    }
  }
  clearLanesFrom(L, N);
  L.NumLanes = N;
  L.Ty = I.Ty;
  return true;
}

//===----------------------------------------------------------------------===//
// Instruction interpretation (two expansions of one implementation)
//===----------------------------------------------------------------------===//

#define VMI_FN_NAME runSliceSwitch
#define VMI_USE_GOTO 0
#include "vm/VMInterp.inc"

#if CLFUZZ_VM_HAVE_GOTO
#define VMI_FN_NAME runSliceGoto
#define VMI_USE_GOTO 1
#include "vm/VMInterp.inc"
#endif

//===----------------------------------------------------------------------===//
// Group execution and scheduling
//===----------------------------------------------------------------------===//

bool Engine::runGroup(uint32_t GX, uint32_t GY, uint32_t GZ) {
  const NDRange &R = Opts.Range;
  uint32_t W = static_cast<uint32_t>(R.localLinear());
  CurGroupLinear = static_cast<uint32_t>(
      (static_cast<uint64_t>(GZ) * R.numGroups(1) + GY) * R.numGroups(0) +
      GX);
  LocalEpoch = 0;
  GlobalEpoch = 0;
  Races.resetLocal();
  std::fill(LocalArena.begin(), LocalArena.end(), 0xab);

  const CompiledFunction &Kernel = M->kernel();

  // Never shrink: a later launch with fewer work-items must not free
  // the arenas a bigger one allocated. Only [0, W) is live.
  if (Threads.size() < W)
    Threads.resize(W);
  uint32_t TIdx = 0;
  for (uint32_t LZ = 0; LZ != R.Local[2]; ++LZ) {
    for (uint32_t LY = 0; LY != R.Local[1]; ++LY) {
      for (uint32_t LX = 0; LX != R.Local[0]; ++LX, ++TIdx) {
        ThreadCtx &T = Threads[TIdx];
        T.State = TState::Runnable;
        T.Stack.clear();
        T.Operands.clear();
        if (T.Arena.size() != Opts.PrivateArenaSize) {
          T.Arena.reserve(Opts.PrivateArenaSize);
          T.ArenaDirtyHigh = 0;
        } else if (T.LaunchStamp != LaunchId) {
          // Engine reuse: re-poison only what the previous launch
          // dirtied; the poisoned bytes above it still hold 0xab.
          std::memset(T.Arena.data(), 0xab,
                      static_cast<size_t>(T.ArenaDirtyHigh));
          T.ArenaDirtyHigh = 0;
        }
        T.LaunchStamp = LaunchId;
        T.ArenaTop = 8;
        T.LocalId[0] = LX;
        T.LocalId[1] = LY;
        T.LocalId[2] = LZ;
        T.GroupId[0] = GX;
        T.GroupId[1] = GY;
        T.GroupId[2] = GZ;
        T.GlobalId[0] = GX * R.Local[0] + LX;
        T.GlobalId[1] = GY * R.Local[1] + LY;
        T.GlobalId[2] = GZ * R.Local[2] + LZ;
        T.GlobalLinear = static_cast<uint32_t>(
            (static_cast<uint64_t>(T.GlobalId[2]) * R.Global[1] +
             T.GlobalId[1]) *
                R.Global[0] +
            T.GlobalId[0]);
        T.LocalLinear = (LZ * R.Local[1] + LY) * R.Local[0] + LX;
        T.BarrierSite = 0;
        T.BarrierCount = 0;
        T.PendingFence = 0;

        uint64_t Base = (T.ArenaTop + 7) & ~7ULL;
        if (Base + Kernel.FrameSize > T.Arena.size()) {
          trap(T, TrapCode::StackOverflow);
          return false;
        }
        T.Arena.reach(Base + Kernel.FrameSize);
        std::memset(T.Arena.data() + Base, 0xab, Kernel.FrameSize);
        if (Base + Kernel.FrameSize > T.ArenaDirtyHigh)
          T.ArenaDirtyHigh = Base + Kernel.FrameSize;
        // Bind kernel arguments into the entry frame.
        for (size_t AI = 0; AI != Args->size(); ++AI) {
          const CompiledParam &P = Kernel.Params[AI];
          Value V;
          if ((*Args)[AI].IsBuffer) {
            const Buffer &B = (*Buffers)[(*Args)[AI].BufferIndex];
            V = Value::scalar(
                P.Ty, vmptr::make(B.Space, (*Args)[AI].BufferIndex, 0));
          } else {
            V = (*Args)[AI].Scalar;
            V.Ty = P.Ty;
          }
          storeValue(T.Arena.data() + Base + P.FrameOffset, V);
        }
        T.ArenaTop = Base + Kernel.FrameSize;
        T.Stack.push_back(Frame{M->KernelIndex, 0, Base});
      }
    }
  }

  // The runnable set, kept sorted by thread index and maintained
  // incrementally: only the picked thread can leave it (quantum expiry
  // keeps it runnable; a barrier or return removes it), and a barrier
  // release re-admits every thread. Indexing the sorted list with the
  // scheduler draw is therefore byte-identical to the historical
  // rebuild-and-scan loop while costing O(1) per slice instead of
  // O(work-group size).
  std::vector<uint32_t> Runnable(W);
  for (uint32_t K = 0; K != W; ++K)
    Runnable[K] = K;
  for (;;) {
    if (Runnable.empty()) {
      uint32_t Blocked = 0, Finished = 0;
      for (uint32_t K = 0; K != W; ++K) {
        Blocked += Threads[K].State == TState::AtBarrier;
        Finished += Threads[K].State == TState::Finished;
      }
      if (Blocked == 0)
        return true; // group complete
      if (Finished != 0) {
        Result.Status = LaunchStatus::BarrierDivergence;
        Result.Message =
            "some work-items finished while others wait at a barrier";
        Aborted = true;
        return false;
      }
      // All blocked: sites and arrival counts must agree.
      uint32_t Site = Threads[0].BarrierSite;
      uint32_t Count = Threads[0].BarrierCount;
      for (uint32_t K = 0; K != W; ++K) {
        const ThreadCtx &T = Threads[K];
        if (T.BarrierSite != Site || T.BarrierCount != Count) {
          Result.Status = LaunchStatus::BarrierDivergence;
          std::ostringstream OS;
          OS << "work-items reached different barriers (site " << Site
             << " count " << Count << " vs site " << T.BarrierSite
             << " count " << T.BarrierCount << ")";
          Result.Message = OS.str();
          Aborted = true;
          return false;
        }
      }
      // Release and apply fences as epoch increments.
      uint8_t Fence = Threads[0].PendingFence;
      if (Fence & BarrierStmt::LocalFence)
        ++LocalEpoch;
      if (Fence & BarrierStmt::GlobalFence)
        ++GlobalEpoch;
      Runnable.resize(W);
      for (uint32_t K = 0; K != W; ++K) {
        Threads[K].State = TState::Runnable;
        Runnable[K] = K;
      }
      continue;
    }

    uint32_t Slot = static_cast<uint32_t>(Sched.below(Runnable.size()));
    uint32_t Pick = Runnable[Slot];
    uint64_t Slice = 64 + Sched.below(448);
    // The scheduler draws happen before the budget check, exactly as
    // the old per-instruction loop ordered them.
    uint64_t BudgetLeft = Opts.StepBudget - Steps;
    if (BudgetLeft == 0) {
      ++Steps; // the step that would have exceeded the budget
      Result.Status = LaunchStatus::Timeout;
      Result.Message = "step budget exhausted";
      Aborted = true;
      return false;
    }
    ThreadCtx &T = Threads[Pick];
    uint64_t Max = std::min(Slice, BudgetLeft);
    uint64_t Executed = 0;
#if CLFUZZ_VM_HAVE_GOTO
    StepResult SR = UseGoto ? runSliceGoto(T, Max, Executed)
                            : runSliceSwitch(T, Max, Executed);
#else
    StepResult SR = runSliceSwitch(T, Max, Executed);
#endif
    Steps += Executed;
    if (SR == StepResult::Trapped)
      return false;
    if (T.State != TState::Runnable)
      Runnable.erase(Runnable.begin() + Slot);
  }
}

LaunchResult Engine::run(const CompiledModule &Mod,
                         std::vector<Buffer> &Bufs,
                         const std::vector<KernelArg> &ArgList,
                         const LaunchOptions &OptsIn) {
  M = &Mod;
  Buffers = &Bufs;
  Args = &ArgList;
  Opts = OptsIn;
  // Per-launch reset: identical state to a freshly constructed engine,
  // minus the allocations.
  Sched.reseed(Opts.SchedulerSeed ^ 0x9e3779b97f4a7c15ULL);
  Steps = 0;
  Result = LaunchResult();
  Aborted = false;
  Races.reset();
  LocalEpoch = 0;
  GlobalEpoch = 0;
  CurGroupLinear = 0;
  FusedInLaunch = 0;
  UseGoto = vmDispatchMode() == VmDispatch::Goto;
  bool Reused = LaunchId != 0;
  ++LaunchId;

  auto Finish = [&]() -> LaunchResult {
    bump(Counter::VmInstructions, Steps);
    bump(Counter::VmFused, FusedInLaunch);
    bump(Counter::VmLaunches);
    if (Reused)
      bump(Counter::VmEngineReuses);
    return Result;
  };

  const NDRange &R = Opts.Range;
  if (!R.valid()) {
    Result.Status = LaunchStatus::InvalidLaunch;
    Result.Message = "work-group sizes must divide the global sizes";
    return Finish();
  }
  const CompiledFunction &Kernel = M->kernel();
  if (Args->size() != Kernel.Params.size()) {
    Result.Status = LaunchStatus::InvalidLaunch;
    Result.Message = "kernel argument count mismatch";
    return Finish();
  }
  for (const KernelArg &A : *Args) {
    if (A.IsBuffer && A.BufferIndex >= Buffers->size()) {
      Result.Status = LaunchStatus::InvalidLaunch;
      Result.Message = "kernel argument names a missing buffer";
      return Finish();
    }
  }

  // runGroup poisons the local arena before each group, so reuse only
  // needs the size to match.
  uint64_t LASize = std::max<uint64_t>(M->LocalArenaSize, 1);
  if (LocalArena.size() != LASize)
    LocalArena.resize(LASize);

  for (uint32_t GZ = 0; GZ != R.numGroups(2) && !Aborted; ++GZ)
    for (uint32_t GY = 0; GY != R.numGroups(1) && !Aborted; ++GY)
      for (uint32_t GX = 0; GX != R.numGroups(0) && !Aborted; ++GX)
        if (!runGroup(GX, GY, GZ))
          break;

  Result.StepsExecuted = Steps;
  if (!Aborted)
    Result.Status = LaunchStatus::Success;
  if (Races.Found) {
    Result.RaceFound = true;
    Result.RaceMessage = Races.Message;
  }
  return Finish();
}

//===----------------------------------------------------------------------===//
// Launch API
//===----------------------------------------------------------------------===//

struct VmInstance::Impl {
  Engine E;
};

VmInstance::VmInstance() : P(std::make_unique<Impl>()) {}
VmInstance::~VmInstance() = default;
VmInstance::VmInstance(VmInstance &&) noexcept = default;
VmInstance &VmInstance::operator=(VmInstance &&) noexcept = default;

LaunchResult VmInstance::launch(const CompiledModule &Module,
                                std::vector<Buffer> &Buffers,
                                const std::vector<KernelArg> &Args,
                                const LaunchOptions &Opts) {
  return P->E.run(Module, Buffers, Args, Opts);
}

LaunchResult clfuzz::launchKernel(const CompiledModule &Module,
                                  std::vector<Buffer> &Buffers,
                                  const std::vector<KernelArg> &Args,
                                  const LaunchOptions &Opts) {
  // One engine per thread: back-to-back launches (campaign cells,
  // reduction probes) hit the zero-allocation reuse path.
  thread_local VmInstance PerThreadVm;
  return PerThreadVm.launch(Module, Buffers, Args, Opts);
}
