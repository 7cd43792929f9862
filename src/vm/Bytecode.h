//===- Bytecode.h - Stack bytecode for the MiniCL VM ------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of a MiniCL kernel: a stack-machine instruction
/// set plus per-function frames. This is the "device binary" our
/// simulated OpenCL drivers produce; each simulated configuration runs
/// the same VM but compiles through a different pass pipeline and
/// layout/codegen bug set, so result differences between
/// configurations are genuine miscompilations.
///
/// Pointers are boxed as 64-bit words:
///   [63:62] address space  [61:54] buffer index  [53:0] byte offset
/// Private pointers are relative to the owning thread's arena and
/// local pointers to the owning group's arena, matching OpenCL's
/// address-space isolation.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_VM_BYTECODE_H
#define CLFUZZ_VM_BYTECODE_H

#include "minicl/AST.h"

#include <cstdint>
#include <string>
#include <vector>

namespace clfuzz {

/// VM opcode set.
enum class Op : uint8_t {
  PushConst,   ///< push Imm as a value of type Ty
  FrameAddr,   ///< push private pointer to (frame base + Imm)
  GroupAddr,   ///< push local pointer to group arena offset Imm
  Load,        ///< pop ptr; push *ptr of type Ty
  Store,       ///< pop value, pop ptr; *ptr = value
  StoreKeep,   ///< like Store but pushes the value back
  MemCopy,     ///< pop src ptr, pop dst ptr; copy Imm bytes
  MemSet,      ///< pop dst ptr; fill Imm bytes with byte A
  GepConst,    ///< pop ptr; push ptr + Imm
  GepScaled,   ///< pop index, pop ptr; push ptr + index * Imm
  Bin,         ///< pop rhs, lhs; apply BinOp A; result type Ty
  Un,          ///< pop operand; apply UnOp A; result type Ty
  Convert,     ///< pop value; convert to Ty
  Splat,       ///< pop scalar; broadcast to vector Ty
  VecBuild,    ///< pop A elements (scalars/vectors); build vector Ty
  VecExtract,  ///< pop vector; push lane A as scalar Ty
  VecShuffle,  ///< pop vector; select A lanes packed 4-bit in Imm -> Ty
  VecInsert,   ///< pop scalar, pop vector; replace lane A
  Call,        ///< call function A
  Ret,         ///< return with value
  RetVoid,     ///< return without value
  Jump,        ///< jump to pc A
  JumpIfFalse, ///< pop scalar; jump to pc A when zero
  Pop,         ///< discard top of stack
  Dup,         ///< duplicate top of stack
  Rot3,        ///< rotate top three: [x y z] -> [z x y]
  Barrier,     ///< work-group barrier; A = site id, B = fence flags
  AtomicRMW,   ///< pop [operand,] ptr; builtin A; B!=0 => no operand
  AtomicCas,   ///< pop new, cmp, ptr; push old
  BuiltinEval, ///< pop B args; evaluate builtin A; result type Ty
  WorkItem,    ///< pop dim; push work-item query A (size_t)
  Trap,        ///< abort execution with trap code A

  // Superinstructions. A post-codegen peephole (fuseSuperinstructions)
  // rewrites the FIRST opcode of a hot adjacent pair to one of these;
  // the second instruction stays in place, unmodified, immediately
  // after it. The fused handler executes both halves in one dispatch
  // (reading the second half's operands at pc+1 and finishing with
  // pc += 2), charging two steps so scheduler slices, step budgets and
  // timeout points are bit-identical to the unfused program. Because
  // the second slot keeps its original instruction, a jump into the
  // middle of a pair simply executes the plain second half — no jump
  // remapping is ever needed — and a slice or budget boundary between
  // the halves materialises the unfused intermediate value on the
  // operand stack and resumes at the intact second instruction.
  FusedFrameAddrLoad,   ///< FrameAddr ; Load   (local variable read)
  FusedGepConstLoad,    ///< GepConst  ; Load   (field / element read)
  FusedPushConstBin,    ///< PushConst ; Bin    (arith with constant rhs)
  FusedLoadConvert,     ///< Load      ; Convert (load + implicit cast)
  FusedBinJumpIfFalse,  ///< Bin       ; JumpIfFalse (compare + branch)
};

/// Number of distinct opcodes (dispatch-table size).
constexpr unsigned NumOpcodes =
    static_cast<unsigned>(Op::FusedBinJumpIfFalse) + 1;

/// True for the superinstruction opcodes introduced by the fusion
/// peephole (never emitted directly by codegen).
inline bool isFusedOp(Op O) {
  return static_cast<uint8_t>(O) >=
         static_cast<uint8_t>(Op::FusedFrameAddrLoad);
}

/// Trap codes carried by Op::Trap and runtime faults.
enum class TrapCode : uint8_t {
  Unreachable,
  NullDeref,
  OutOfBounds,
  DivByZero,
  StackOverflow,
  CallDepth,
  BadPointer,
  CompilerInjected, ///< used by crash bug models
};

const char *trapCodeName(TrapCode C);

/// The shape of an instruction's Ty, as decodeTypeFacts records it.
enum class TyShape : uint8_t {
  None,    ///< no type (Ty is null)
  Scalar,  ///< ScalarType
  Vector,  ///< VectorType
  Pointer, ///< PointerType
  Other,   ///< any other type (never loaded, stored or computed on)
};

/// One VM instruction (fixed-width form, operands by role).
///
/// The bytes between Opcode and Imm that alignment would leave as
/// padding carry facts about Ty, decoded once by decodeTypeFacts so
/// the interpreter's handlers need not walk the Type on every
/// execution. They are derived data: the instruction's identity (and
/// the launch-memo key) is Opcode, A, B, Imm and Ty alone, and code
/// that edits Ty must call decodeTypeFacts again.
struct Insn {
  Op Opcode;
  TyShape Shape = TyShape::None;
  uint8_t LaneBits = 0;    ///< laneTypeOf(Ty).Width
  bool LaneSigned = false; ///< laneTypeOf(Ty).Signed
  uint32_t A = 0;
  uint32_t B = 0;
  uint8_t Lanes = 0;       ///< vector lane count; 1 for other types
  uint8_t AccessBytes = 0; ///< bytes a Load or Store of Ty touches
  uint64_t Imm = 0;
  const Type *Ty = nullptr;
};
static_assert(sizeof(Insn) == 32 || sizeof(void *) != 8,
              "the type facts must fit Insn's padding");

/// Bytes touched by a Load or Store of \p Ty: a scalar's width, a
/// vector's lanes, and 8 for a pointer.
inline uint64_t accessSize(const Type *Ty) {
  if (const auto *ST = dyn_cast<ScalarType>(Ty))
    return ST->byteWidth();
  if (const auto *VT = dyn_cast<VectorType>(Ty))
    return static_cast<uint64_t>(VT->getElementType()->byteWidth()) *
           VT->getNumLanes();
  return 8;
}

/// Pointer boxing helpers.
namespace vmptr {

constexpr uint64_t OffsetBits = 54;
constexpr uint64_t OffsetMask = (1ULL << OffsetBits) - 1;

inline uint64_t make(AddressSpace Space, unsigned Buf, uint64_t Offset) {
  return (static_cast<uint64_t>(Space) << 62) |
         (static_cast<uint64_t>(Buf & 0xff) << OffsetBits) |
         (Offset & OffsetMask);
}

inline AddressSpace space(uint64_t P) {
  return static_cast<AddressSpace>(P >> 62);
}
inline unsigned buffer(uint64_t P) {
  return static_cast<unsigned>((P >> OffsetBits) & 0xff);
}
inline uint64_t offset(uint64_t P) { return P & OffsetMask; }

} // namespace vmptr

/// A kernel parameter's slot in the entry frame.
struct CompiledParam {
  uint64_t FrameOffset;
  const Type *Ty;
};

/// One compiled function.
struct CompiledFunction {
  std::string Name;
  const Type *ReturnTy = nullptr;
  std::vector<CompiledParam> Params;
  uint64_t FrameSize = 0;
  std::vector<Insn> Code;
};

/// A compiled translation unit plus launch metadata.
struct CompiledModule {
  std::vector<CompiledFunction> Functions;
  unsigned KernelIndex = 0;
  /// Bytes of group-local memory required by kernel-scope local
  /// declarations.
  uint64_t LocalArenaSize = 0;
  /// Number of distinct barrier sites (for divergence diagnostics).
  unsigned NumBarrierSites = 0;

  const CompiledFunction &kernel() const {
    return Functions[KernelIndex];
  }
};

/// Renders a human-readable disassembly (used in tests and debugging).
std::string disassemble(const CompiledModule &M);

/// The superinstruction peephole: greedily rewrites the first opcode
/// of each hot adjacent pair to its fused form (see the enum above).
/// Greedy left-to-right with a skip over the consumed second slot, so
/// a second half is never itself re-fused and always keeps its original
/// opcode. Returns the number of pairs fused.
uint64_t fuseSuperinstructions(CompiledModule &M);

/// Fills every instruction's type facts (Shape, LaneBits, LaneSigned,
/// Lanes, AccessBytes) from its Ty. Codegen runs it last; the VM reads
/// the facts instead of Ty wherever they apply.
void decodeTypeFacts(CompiledModule &M);

} // namespace clfuzz

#endif // CLFUZZ_VM_BYTECODE_H
