//===- TypeRules.cpp - MiniCL conversion and operator typing ---------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "minicl/TypeRules.h"

using namespace clfuzz;

const ScalarType *clfuzz::promote(const TypeContext &Types,
                                  const ScalarType *T) {
  if (T->rank() < Types.intTy()->rank() || T->isBool())
    return Types.intTy();
  return T;
}

const ScalarType *
clfuzz::usualArithmeticConversions(const TypeContext &Types,
                                   const ScalarType *A,
                                   const ScalarType *B) {
  const ScalarType *PA = promote(Types, A);
  const ScalarType *PB = promote(Types, B);
  if (PA == PB)
    return PA;
  // size_t acts as ulong for conversion purposes.
  auto Canon = [&Types](const ScalarType *T) {
    return T->isSizeT() ? Types.ulongTy() : T;
  };
  PA = Canon(PA);
  PB = Canon(PB);
  if (PA == PB)
    return PA;
  if (PA->isSigned() == PB->isSigned())
    return PA->rank() >= PB->rank() ? PA : PB;
  const ScalarType *U = PA->isSigned() ? PB : PA;
  const ScalarType *S = PA->isSigned() ? PA : PB;
  // Unsigned wins at equal or greater rank; at 32 vs 64 the wider
  // signed type can represent all narrower unsigned values.
  if (U->rank() >= S->rank())
    return U;
  return S;
}

bool clfuzz::isScalarConvertible(const Type *From, const Type *To) {
  return isa<ScalarType>(From) && isa<ScalarType>(To);
}

const VectorType *clfuzz::comparisonResultVector(TypeContext &Types,
                                                 const VectorType *VT) {
  const ScalarType *Elem = VT->getElementType();
  ScalarKind SK;
  switch (Elem->bitWidth()) {
  case 8:
    SK = ScalarKind::Char;
    break;
  case 16:
    SK = ScalarKind::Short;
    break;
  case 32:
    SK = ScalarKind::Int;
    break;
  default:
    SK = ScalarKind::Long;
    break;
  }
  return Types.vector(Types.scalar(SK), VT->getNumLanes());
}

bool clfuzz::isLValue(const Expr *E) {
  switch (E->getKind()) {
  case Expr::ExprKind::DeclRef:
    return true;
  case Expr::ExprKind::Unary:
    return cast<UnaryExpr>(E)->getOp() == UnOp::Deref;
  case Expr::ExprKind::Index: {
    const Expr *Base = cast<IndexExpr>(E)->getBase();
    return isa<PointerType>(Base->getType()) || isLValue(Base);
  }
  case Expr::ExprKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    return M->isArrow() || isLValue(M->getBase());
  }
  case Expr::ExprKind::Swizzle:
    return cast<SwizzleExpr>(E)->indices().size() == 1 &&
           isLValue(cast<SwizzleExpr>(E)->getBase());
  default:
    return false;
  }
}

Expr *clfuzz::convertTo(ASTContext &Ctx, Expr *E, const Type *To) {
  const Type *From = E->getType();
  if (From == To)
    return E;
  // Scalar to scalar (includes bool).
  if (isa<ScalarType>(From) && isa<ScalarType>(To)) {
    auto CK = cast<ScalarType>(From)->isBool()
                  ? ImplicitCastExpr::CastKind::BoolToInt
                  : ImplicitCastExpr::CastKind::IntegralConvert;
    return Ctx.makeExpr<ImplicitCastExpr>(CK, E, To);
  }
  // The null pointer constant: literal 0 converts to any pointer type.
  if (isa<PointerType>(To)) {
    if (const auto *Lit = dyn_cast<IntLiteral>(E))
      if (Lit->getValue() == 0)
        return Ctx.makeExpr<ImplicitCastExpr>(
            ImplicitCastExpr::CastKind::IntegralConvert, E, To);
    return nullptr;
  }
  // Scalar splat into a vector.
  if (const auto *VT = dyn_cast<VectorType>(To)) {
    if (!isa<ScalarType>(From))
      return nullptr;
    Expr *AsElem = convertTo(Ctx, E, VT->getElementType());
    if (!AsElem)
      return nullptr;
    return Ctx.makeExpr<ImplicitCastExpr>(
        ImplicitCastExpr::CastKind::VectorSplat, AsElem, VT);
  }
  return nullptr;
}

/// True for operators whose operands must be integers (no pointers).
static bool isArithOrBitwise(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
  case BinOp::Shl:
  case BinOp::Shr:
  case BinOp::BitAnd:
  case BinOp::BitOr:
  case BinOp::BitXor:
    return true;
  default:
    return false;
  }
}

TypedResult clfuzz::buildBinary(ASTContext &Ctx, BinOp Op, Expr *LHS,
                                Expr *RHS) {
  TypeContext &Types = Ctx.types();
  const Type *LT = LHS->getType();
  const Type *RT = RHS->getType();

  if (Op == BinOp::Comma)
    return TypedResult::ok(Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, RT));

  // Pointer equality.
  if (isa<PointerType>(LT) || isa<PointerType>(RT)) {
    if (Op != BinOp::Eq && Op != BinOp::Ne)
      return TypedResult::fail("invalid operands to binary expression (" +
                               LT->str() + " and " + RT->str() + ")");
    if (isa<PointerType>(LT) && !isa<PointerType>(RT)) {
      RHS = convertTo(Ctx, RHS, LT);
      if (!RHS)
        return TypedResult::fail("comparison between pointer and integer");
    } else if (!isa<PointerType>(LT) && isa<PointerType>(RT)) {
      LHS = convertTo(Ctx, LHS, RT);
      if (!LHS)
        return TypedResult::fail("comparison between integer and pointer");
    } else if (LT != RT) {
      return TypedResult::fail("comparison of distinct pointer types");
    }
    return TypedResult::ok(
        Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, Types.boolTy()));
  }

  const auto *LV = dyn_cast<VectorType>(LT);
  const auto *RV = dyn_cast<VectorType>(RT);

  // Vector / vector.
  if (LV && RV) {
    if (LV != RV)
      return TypedResult::fail(
          "implicit conversion between vector types (" + LT->str() +
          " and " + RT->str() + ") is disallowed");
    const Type *ResTy;
    if (isComparisonOp(Op) || isLogicalOp(Op))
      ResTy = comparisonResultVector(Types, LV);
    else
      ResTy = LV;
    return TypedResult::ok(Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, ResTy));
  }

  // Mixed scalar / vector: splat the scalar side.
  if (LV || RV) {
    const VectorType *VT = LV ? LV : RV;
    Expr *&ScalarSide = LV ? RHS : LHS;
    Expr *Conv = convertTo(Ctx, ScalarSide, VT);
    if (!Conv)
      return TypedResult::fail("cannot broadcast operand of type " +
                               ScalarSide->getType()->str() + " to " +
                               VT->str());
    ScalarSide = Conv;
    const Type *ResTy = (isComparisonOp(Op) || isLogicalOp(Op))
                            ? static_cast<const Type *>(
                                  comparisonResultVector(Types, VT))
                            : VT;
    return TypedResult::ok(Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, ResTy));
  }

  // Scalar / scalar.
  const auto *LS = dyn_cast<ScalarType>(LT);
  const auto *RS = dyn_cast<ScalarType>(RT);
  if (!LS || !RS)
    return TypedResult::fail("invalid operands to binary expression (" +
                             LT->str() + " and " + RT->str() + ")");

  if (isLogicalOp(Op) || isComparisonOp(Op)) {
    if (isComparisonOp(Op)) {
      const ScalarType *Common = usualArithmeticConversions(Types, LS, RS);
      LHS = convertTo(Ctx, LHS, Common);
      RHS = convertTo(Ctx, RHS, Common);
      assert(LHS && RHS && "scalar conversion cannot fail");
    }
    return TypedResult::ok(
        Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, Types.boolTy()));
  }

  assert(isArithOrBitwise(Op) && "unhandled scalar operator family");
  if (Op == BinOp::Shl || Op == BinOp::Shr) {
    // Shifts promote each operand independently; result is the
    // promoted LHS type.
    const ScalarType *ResTy = promote(Types, LS);
    LHS = convertTo(Ctx, LHS, ResTy);
    RHS = convertTo(Ctx, RHS, promote(Types, RS));
    assert(LHS && RHS && "scalar conversion cannot fail");
    return TypedResult::ok(Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, ResTy));
  }

  const ScalarType *Common = usualArithmeticConversions(Types, LS, RS);
  LHS = convertTo(Ctx, LHS, Common);
  RHS = convertTo(Ctx, RHS, Common);
  assert(LHS && RHS && "scalar conversion cannot fail");
  return TypedResult::ok(Ctx.makeExpr<BinaryExpr>(Op, LHS, RHS, Common));
}

TypedResult clfuzz::buildUnary(ASTContext &Ctx, UnOp Op, Expr *Sub) {
  TypeContext &Types = Ctx.types();
  const Type *T = Sub->getType();
  switch (Op) {
  case UnOp::Plus:
  case UnOp::Minus:
  case UnOp::BitNot: {
    if (const auto *VT = dyn_cast<VectorType>(T))
      return TypedResult::ok(Ctx.makeExpr<UnaryExpr>(Op, Sub, VT));
    const auto *ST = dyn_cast<ScalarType>(T);
    if (!ST)
      return TypedResult::fail("invalid operand to unary " +
                               std::string(unOpSpelling(Op)));
    const ScalarType *ResTy = promote(Types, ST);
    Sub = convertTo(Ctx, Sub, ResTy);
    return TypedResult::ok(Ctx.makeExpr<UnaryExpr>(Op, Sub, ResTy));
  }
  case UnOp::Not:
    if (!isa<ScalarType>(T) && !isa<PointerType>(T))
      return TypedResult::fail("invalid operand to unary !");
    return TypedResult::ok(
        Ctx.makeExpr<UnaryExpr>(Op, Sub, Types.boolTy()));
  case UnOp::PreInc:
  case UnOp::PreDec:
  case UnOp::PostInc:
  case UnOp::PostDec:
    if (!isLValue(Sub))
      return TypedResult::fail("operand of ++/-- is not assignable");
    if (!isa<ScalarType>(T))
      return TypedResult::fail("++/-- requires a scalar operand");
    return TypedResult::ok(Ctx.makeExpr<UnaryExpr>(Op, Sub, T));
  case UnOp::Deref: {
    const auto *PT = dyn_cast<PointerType>(T);
    if (!PT)
      return TypedResult::fail("dereference of non-pointer type " +
                               T->str());
    return TypedResult::ok(
        Ctx.makeExpr<UnaryExpr>(Op, Sub, PT->getPointeeType()));
  }
  case UnOp::AddrOf: {
    if (!isLValue(Sub))
      return TypedResult::fail("cannot take the address of an rvalue");
    // The resulting address space is resolved by codegen from the
    // object's declaration; the static type uses the declared space
    // when known, else private.
    AddressSpace AS = AddressSpace::Private;
    const Expr *Obj = Sub;
    while (true) {
      if (const auto *M = dyn_cast<MemberExpr>(Obj)) {
        if (M->isArrow()) {
          AS = cast<PointerType>(M->getBase()->getType())
                   ->getAddressSpace();
          break;
        }
        Obj = M->getBase();
        continue;
      }
      if (const auto *Ix = dyn_cast<IndexExpr>(Obj)) {
        if (const auto *PT =
                dyn_cast<PointerType>(Ix->getBase()->getType())) {
          AS = PT->getAddressSpace();
          break;
        }
        Obj = Ix->getBase();
        continue;
      }
      if (const auto *U = dyn_cast<UnaryExpr>(Obj)) {
        if (U->getOp() == UnOp::Deref) {
          AS = cast<PointerType>(U->getSubExpr()->getType())
                   ->getAddressSpace();
          break;
        }
      }
      if (const auto *DR = dyn_cast<DeclRef>(Obj)) {
        AS = DR->getDecl()->getAddressSpace();
        break;
      }
      break;
    }
    return TypedResult::ok(
        Ctx.makeExpr<UnaryExpr>(Op, Sub, Ctx.types().pointer(T, AS)));
  }
  }
  assert(false && "unknown unary operator");
  return TypedResult::fail("unknown unary operator");
}

TypedResult clfuzz::buildAssign(ASTContext &Ctx, AssignOp Op, Expr *LHS,
                                Expr *RHS) {
  if (!isLValue(LHS))
    return TypedResult::fail("expression is not assignable");
  const Type *LT = LHS->getType();

  if (Op == AssignOp::Assign) {
    Expr *Conv = convertTo(Ctx, RHS, LT);
    if (!Conv) {
      // Identical record types assign whole; anything else is an error.
      if (LT == RHS->getType())
        Conv = RHS;
      else
        return TypedResult::fail("assigning to " + LT->str() + " from " +
                                 RHS->getType()->str());
    }
    return TypedResult::ok(
        Ctx.makeExpr<AssignExpr>(Op, LHS, Conv, LT));
  }

  // Compound assignment requires arithmetic operands.
  if (!LT->isArithmetic())
    return TypedResult::fail("compound assignment to non-arithmetic type");
  if (const auto *VT = dyn_cast<VectorType>(LT)) {
    if (RHS->getType() != VT) {
      Expr *Conv = convertTo(Ctx, RHS, VT);
      if (!Conv)
        return TypedResult::fail("invalid compound assignment operand");
      RHS = Conv;
    }
    return TypedResult::ok(Ctx.makeExpr<AssignExpr>(Op, LHS, RHS, VT));
  }
  if (!isa<ScalarType>(RHS->getType()))
    return TypedResult::fail("invalid compound assignment operand");
  return TypedResult::ok(Ctx.makeExpr<AssignExpr>(Op, LHS, RHS, LT));
}

TypedResult clfuzz::buildConditional(ASTContext &Ctx, Expr *Cond,
                                     Expr *TrueE, Expr *FalseE) {
  if (!isa<ScalarType>(Cond->getType()) &&
      !isa<PointerType>(Cond->getType()))
    return TypedResult::fail("condition must have scalar type");
  const Type *TT = TrueE->getType();
  const Type *FT = FalseE->getType();
  TypeContext &Types = Ctx.types();
  if (TT == FT)
    return TypedResult::ok(
        Ctx.makeExpr<ConditionalExpr>(Cond, TrueE, FalseE, TT));
  const auto *TS = dyn_cast<ScalarType>(TT);
  const auto *FS = dyn_cast<ScalarType>(FT);
  if (TS && FS) {
    const ScalarType *Common = usualArithmeticConversions(Types, TS, FS);
    TrueE = convertTo(Ctx, TrueE, Common);
    FalseE = convertTo(Ctx, FalseE, Common);
    return TypedResult::ok(
        Ctx.makeExpr<ConditionalExpr>(Cond, TrueE, FalseE, Common));
  }
  return TypedResult::fail("incompatible conditional operand types " +
                           TT->str() + " and " + FT->str());
}

TypedResult clfuzz::buildIndex(ASTContext &Ctx, Expr *Base, Expr *Index) {
  if (!isa<ScalarType>(Index->getType()))
    return TypedResult::fail("array subscript is not an integer");
  const Type *BT = Base->getType();
  if (const auto *AT = dyn_cast<ArrayType>(BT))
    return TypedResult::ok(
        Ctx.makeExpr<IndexExpr>(Base, Index, AT->getElementType()));
  if (const auto *PT = dyn_cast<PointerType>(BT))
    return TypedResult::ok(
        Ctx.makeExpr<IndexExpr>(Base, Index, PT->getPointeeType()));
  return TypedResult::fail("subscripted value is not an array or pointer");
}

/// Checks that an atomic builtin's pointer argument points at a 32-bit
/// integer in global or local memory.
static bool isAtomicPointer(const Type *T) {
  const auto *PT = dyn_cast<PointerType>(T);
  if (!PT)
    return false;
  if (PT->getAddressSpace() != AddressSpace::Global &&
      PT->getAddressSpace() != AddressSpace::Local)
    return false;
  const auto *Pointee = dyn_cast<ScalarType>(PT->getPointeeType());
  return Pointee && Pointee->bitWidth() == 32 && !Pointee->isBool();
}

TypedResult clfuzz::buildBuiltinCall(ASTContext &Ctx, Builtin B,
                                     std::vector<Expr *> Args,
                                     const Type *ConvertTarget) {
  TypeContext &Types = Ctx.types();
  auto Arity = [&Args](unsigned N) { return Args.size() == N; };

  if (isWorkItemBuiltin(B)) {
    if (!Arity(1) || !isa<ScalarType>(Args[0]->getType()))
      return TypedResult::fail(std::string(builtinName(B)) +
                               " expects one integer dimension argument");
    Args[0] = convertTo(Ctx, Args[0], Types.uintTy());
    return TypedResult::ok(Ctx.makeExpr<BuiltinCallExpr>(
        B, std::move(Args), Types.sizeTy()));
  }

  switch (B) {
  case Builtin::Clamp:
  case Builtin::SafeClamp: {
    if (!Arity(3))
      return TypedResult::fail("clamp expects three arguments");
    const Type *T0 = Args[0]->getType();
    if (const auto *VT = dyn_cast<VectorType>(T0)) {
      for (int I = 1; I <= 2; ++I) {
        if (Args[I]->getType() == VT)
          continue;
        Expr *Conv = convertTo(Ctx, Args[I], VT);
        if (!Conv)
          return TypedResult::fail("clamp bound type mismatch");
        Args[I] = Conv;
      }
      return TypedResult::ok(
          Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), VT));
    }
    const auto *ST = dyn_cast<ScalarType>(T0);
    if (!ST)
      return TypedResult::fail("clamp operand is not arithmetic");
    for (auto *&A : Args) {
      A = convertTo(Ctx, A, ST);
      if (!A)
        return TypedResult::fail("clamp bound type mismatch");
    }
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), ST));
  }
  case Builtin::Rotate:
  case Builtin::SafeRotate:
  case Builtin::Min:
  case Builtin::Max:
  case Builtin::AddSat:
  case Builtin::SubSat:
  case Builtin::Hadd:
  case Builtin::MulHi:
  case Builtin::SafeAdd:
  case Builtin::SafeSub:
  case Builtin::SafeMul:
  case Builtin::SafeDiv:
  case Builtin::SafeMod:
  case Builtin::SafeShl:
  case Builtin::SafeShr: {
    if (!Arity(2))
      return TypedResult::fail(std::string(builtinName(B)) +
                               " expects two arguments");
    const Type *T0 = Args[0]->getType();
    if (const auto *VT = dyn_cast<VectorType>(T0)) {
      if (Args[1]->getType() != VT) {
        Expr *Conv = convertTo(Ctx, Args[1], VT);
        if (!Conv)
          return TypedResult::fail("vector builtin operand mismatch");
        Args[1] = Conv;
      }
      return TypedResult::ok(
          Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), VT));
    }
    const auto *ST = dyn_cast<ScalarType>(T0);
    if (!ST)
      return TypedResult::fail("builtin operand is not arithmetic");
    const ScalarType *Res = ST->isBool() ? Types.intTy() : ST;
    for (auto *&A : Args) {
      A = convertTo(Ctx, A, Res);
      if (!A)
        return TypedResult::fail("builtin operand mismatch");
    }
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), Res));
  }
  case Builtin::SafeNeg:
  case Builtin::Abs: {
    if (!Arity(1))
      return TypedResult::fail(std::string(builtinName(B)) +
                               " expects one argument");
    const Type *T0 = Args[0]->getType();
    if (!T0->isArithmetic())
      return TypedResult::fail("builtin operand is not arithmetic");
    const Type *Res = T0;
    if (B == Builtin::Abs) {
      // abs() returns the unsigned counterpart (OpenCL §6.12.3).
      auto Unsign = [&Types](const ScalarType *ST) -> const ScalarType * {
        switch (ST->bitWidth()) {
        case 8:
          return Types.ucharTy();
        case 16:
          return Types.ushortTy();
        case 32:
          return Types.uintTy();
        default:
          return Types.ulongTy();
        }
      };
      if (const auto *VT = dyn_cast<VectorType>(T0))
        Res = Types.vector(Unsign(VT->getElementType()),
                           VT->getNumLanes());
      else
        Res = Unsign(cast<ScalarType>(T0));
    }
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), Res));
  }
  case Builtin::ConvertVector: {
    if (!Arity(1) || !ConvertTarget || !isa<VectorType>(ConvertTarget))
      return TypedResult::fail("convert_T expects one vector argument");
    const auto *FromVT = dyn_cast<VectorType>(Args[0]->getType());
    const auto *ToVT = cast<VectorType>(ConvertTarget);
    if (!FromVT || FromVT->getNumLanes() != ToVT->getNumLanes())
      return TypedResult::fail("convert_T lane count mismatch");
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), ToVT));
  }
  case Builtin::AtomicInc:
  case Builtin::AtomicDec: {
    if (!Arity(1) || !isAtomicPointer(Args[0]->getType()))
      return TypedResult::fail(
          std::string(builtinName(B)) +
          " expects a global/local int or uint pointer");
    const Type *Pointee =
        cast<PointerType>(Args[0]->getType())->getPointeeType();
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), Pointee));
  }
  case Builtin::AtomicAdd:
  case Builtin::AtomicSub:
  case Builtin::AtomicMin:
  case Builtin::AtomicMax:
  case Builtin::AtomicAnd:
  case Builtin::AtomicOr:
  case Builtin::AtomicXor:
  case Builtin::AtomicXchg: {
    if (!Arity(2) || !isAtomicPointer(Args[0]->getType()))
      return TypedResult::fail(
          std::string(builtinName(B)) +
          " expects a global/local int or uint pointer");
    const Type *Pointee =
        cast<PointerType>(Args[0]->getType())->getPointeeType();
    Args[1] = convertTo(Ctx, Args[1], Pointee);
    if (!Args[1])
      return TypedResult::fail("atomic operand type mismatch");
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), Pointee));
  }
  case Builtin::AtomicCmpxchg: {
    if (!Arity(3) || !isAtomicPointer(Args[0]->getType()))
      return TypedResult::fail(
          "atomic_cmpxchg expects a global/local int or uint pointer");
    const Type *Pointee =
        cast<PointerType>(Args[0]->getType())->getPointeeType();
    for (int I = 1; I <= 2; ++I) {
      Args[I] = convertTo(Ctx, Args[I], Pointee);
      if (!Args[I])
        return TypedResult::fail("atomic operand type mismatch");
    }
    return TypedResult::ok(
        Ctx.makeExpr<BuiltinCallExpr>(B, std::move(Args), Pointee));
  }
  default:
    break;
  }
  assert(false && "unhandled builtin in buildBuiltinCall");
  return TypedResult::fail("unhandled builtin");
}
