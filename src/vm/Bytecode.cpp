//===- Bytecode.cpp - Stack bytecode for the MiniCL VM ---------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"
#include "minicl/IntOps.h"

#include <sstream>

using namespace clfuzz;

const char *clfuzz::trapCodeName(TrapCode C) {
  switch (C) {
  case TrapCode::Unreachable:
    return "unreachable";
  case TrapCode::NullDeref:
    return "null dereference";
  case TrapCode::OutOfBounds:
    return "out-of-bounds access";
  case TrapCode::DivByZero:
    return "division by zero";
  case TrapCode::StackOverflow:
    return "private memory exhausted";
  case TrapCode::CallDepth:
    return "call depth exceeded";
  case TrapCode::BadPointer:
    return "malformed pointer";
  case TrapCode::CompilerInjected:
    return "compiler-injected fault";
  }
  return "unknown trap";
}

static const char *opName(Op O) {
  switch (O) {
  case Op::PushConst:
    return "push_const";
  case Op::FrameAddr:
    return "frame_addr";
  case Op::GroupAddr:
    return "group_addr";
  case Op::Load:
    return "load";
  case Op::Store:
    return "store";
  case Op::StoreKeep:
    return "store_keep";
  case Op::MemCopy:
    return "memcopy";
  case Op::MemSet:
    return "memset";
  case Op::GepConst:
    return "gep_const";
  case Op::GepScaled:
    return "gep_scaled";
  case Op::Bin:
    return "bin";
  case Op::Un:
    return "un";
  case Op::Convert:
    return "convert";
  case Op::Splat:
    return "splat";
  case Op::VecBuild:
    return "vec_build";
  case Op::VecExtract:
    return "vec_extract";
  case Op::VecShuffle:
    return "vec_shuffle";
  case Op::VecInsert:
    return "vec_insert";
  case Op::Call:
    return "call";
  case Op::Ret:
    return "ret";
  case Op::RetVoid:
    return "ret_void";
  case Op::Jump:
    return "jump";
  case Op::JumpIfFalse:
    return "jump_if_false";
  case Op::Pop:
    return "pop";
  case Op::Dup:
    return "dup";
  case Op::Rot3:
    return "rot3";
  case Op::Barrier:
    return "barrier";
  case Op::AtomicRMW:
    return "atomic_rmw";
  case Op::AtomicCas:
    return "atomic_cas";
  case Op::BuiltinEval:
    return "builtin";
  case Op::WorkItem:
    return "work_item";
  case Op::Trap:
    return "trap";
  case Op::FusedFrameAddrLoad:
    return "frame_addr+load";
  case Op::FusedGepConstLoad:
    return "gep_const+load";
  case Op::FusedPushConstBin:
    return "push_const+bin";
  case Op::FusedLoadConvert:
    return "load+convert";
  case Op::FusedBinJumpIfFalse:
    return "bin+jump_if_false";
  }
  return "?";
}

std::string clfuzz::disassemble(const CompiledModule &M) {
  std::ostringstream OS;
  for (size_t FI = 0, FE = M.Functions.size(); FI != FE; ++FI) {
    const CompiledFunction &F = M.Functions[FI];
    OS << "function " << FI << " '" << F.Name << "' frame=" << F.FrameSize
       << (FI == M.KernelIndex ? " [kernel]" : "") << "\n";
    for (size_t PC = 0, E = F.Code.size(); PC != E; ++PC) {
      const Insn &I = F.Code[PC];
      OS << "  " << PC << ": " << opName(I.Opcode);
      switch (I.Opcode) {
      case Op::Bin:
        OS << ' ' << binOpSpelling(static_cast<BinOp>(I.A));
        break;
      case Op::Un:
        OS << ' ' << unOpSpelling(static_cast<UnOp>(I.A));
        break;
      case Op::BuiltinEval:
      case Op::AtomicRMW:
        OS << ' ' << builtinName(static_cast<Builtin>(I.A));
        break;
      case Op::WorkItem:
        OS << ' ' << builtinName(static_cast<Builtin>(I.A));
        break;
      case Op::Trap:
        OS << ' ' << trapCodeName(static_cast<TrapCode>(I.A));
        break;
      default:
        if (I.A)
          OS << " A=" << I.A;
        break;
      }
      if (I.B)
        OS << " B=" << I.B;
      if (I.Imm)
        OS << " imm=" << I.Imm;
      if (I.Ty)
        OS << " : " << I.Ty->str();
      OS << '\n';
    }
  }
  if (M.LocalArenaSize)
    OS << "local_arena " << M.LocalArenaSize << " bytes\n";
  return OS.str();
}

uint64_t clfuzz::fuseSuperinstructions(CompiledModule &M) {
  uint64_t Fused = 0;
  for (CompiledFunction &F : M.Functions) {
    std::vector<Insn> &C = F.Code;
    for (size_t I = 0; I + 1 < C.size(); ++I) {
      Op A = C[I].Opcode, B = C[I + 1].Opcode;
      Op FusedOp;
      if (A == Op::FrameAddr && B == Op::Load)
        FusedOp = Op::FusedFrameAddrLoad;
      else if (A == Op::GepConst && B == Op::Load)
        FusedOp = Op::FusedGepConstLoad;
      else if (A == Op::PushConst && B == Op::Bin)
        FusedOp = Op::FusedPushConstBin;
      else if (A == Op::Load && B == Op::Convert)
        FusedOp = Op::FusedLoadConvert;
      else if (A == Op::Bin && B == Op::JumpIfFalse)
        FusedOp = Op::FusedBinJumpIfFalse;
      else
        continue;
      C[I].Opcode = FusedOp;
      ++Fused;
      ++I; // the consumed second slot must never become a first half
    }
  }
  return Fused;
}

void clfuzz::decodeTypeFacts(CompiledModule &M) {
  for (CompiledFunction &F : M.Functions) {
    for (Insn &I : F.Code) {
      I.Shape = TyShape::None;
      I.LaneBits = 0;
      I.LaneSigned = false;
      I.Lanes = 0;
      I.AccessBytes = 0;
      if (!I.Ty)
        continue;
      if (isa<ScalarType>(I.Ty))
        I.Shape = TyShape::Scalar;
      else if (isa<VectorType>(I.Ty))
        I.Shape = TyShape::Vector;
      else if (isa<PointerType>(I.Ty))
        I.Shape = TyShape::Pointer;
      else
        I.Shape = TyShape::Other;
      LaneType LT = laneTypeOf(I.Ty);
      I.LaneBits = static_cast<uint8_t>(LT.Width);
      I.LaneSigned = LT.Signed;
      const auto *VT = dyn_cast<VectorType>(I.Ty);
      I.Lanes = static_cast<uint8_t>(VT ? VT->getNumLanes() : 1);
      I.AccessBytes = static_cast<uint8_t>(accessSize(I.Ty));
    }
  }
}
