//===- Codegen.cpp - MiniCL AST to bytecode compiler -----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "vm/Codegen.h"
#include "minicl/TypeRules.h"
#include "vm/VM.h"

#include <map>

using namespace clfuzz;

namespace {

/// Per-module code generator.
class Codegen {
public:
  Codegen(const ASTContext &Ctx, const CodegenOptions &Opts)
      : Ctx(Ctx), Types(Ctx.types()), Opts(Opts), Layout(Opts.Layout) {}

  CodegenResult run();

private:
  // --- module-level state
  const ASTContext &Ctx;
  const TypeContext &Types;
  CodegenOptions Opts;
  LayoutEngine Layout;
  CompiledModule Module;
  std::map<const FunctionDecl *, unsigned> FuncIndex;
  std::map<const VarDecl *, uint64_t> GroupLocalOffsets;
  unsigned BarrierSites = 0;
  std::string Error;

  // --- per-function state
  CompiledFunction *CurFunc = nullptr;
  std::map<const VarDecl *, uint64_t> FrameOffsets;
  uint64_t FrameTop = 0;
  std::vector<std::vector<size_t>> BreakPatches;
  std::vector<std::vector<size_t>> ContinuePatches;

  bool failed() const { return !Error.empty(); }
  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }

  // --- emission helpers
  size_t emit(Op O, uint32_t A = 0, uint32_t B = 0, uint64_t Imm = 0,
              const Type *Ty = nullptr) {
    Insn In;
    In.Opcode = O;
    In.A = A;
    In.B = B;
    In.Imm = Imm;
    In.Ty = Ty;
    CurFunc->Code.push_back(In);
    return CurFunc->Code.size() - 1;
  }
  size_t here() const { return CurFunc->Code.size(); }
  void patch(size_t InsnIdx, size_t Target) {
    CurFunc->Code[InsnIdx].A = static_cast<uint32_t>(Target);
  }

  uint64_t allocFrameSlot(const Type *Ty) {
    uint64_t Align = Layout.alignOf(Ty);
    FrameTop = (FrameTop + Align - 1) & ~(Align - 1);
    uint64_t Off = FrameTop;
    FrameTop += Layout.sizeOf(Ty);
    return Off;
  }

  void collectFrameVars(const Stmt *S);
  void planGroupLocals(const FunctionDecl *Kernel);

  // --- statement / expression emission
  void emitFunction(const FunctionDecl *F);
  void emitStmt(const Stmt *S);
  void emitVarDeclInit(const VarDecl *D);
  /// Emits initialisation of the object whose address is on top of the
  /// stack; pops the address.
  void emitInitInto(const Type *Ty, const Expr *Init);
  void emitVarAddr(const VarDecl *D);
  void emitAddr(const Expr *E);
  /// Emits \p E; returns false if nothing was pushed (void call or
  /// record assignment).
  bool emitExpr(const Expr *E);
  void emitAssign(const AssignExpr *A);
  void emitShortCircuit(const BinaryExpr *B);
  void emitIncDec(const UnaryExpr *U);
};

} // namespace

//===----------------------------------------------------------------------===//
// Frame planning
//===----------------------------------------------------------------------===//

void Codegen::collectFrameVars(const Stmt *S) {
  switch (S->getKind()) {
  case Stmt::StmtKind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      collectFrameVars(Child);
    break;
  case Stmt::StmtKind::Decl: {
    const VarDecl *D = cast<DeclStmt>(S)->getDecl();
    if (GroupLocalOffsets.count(D))
      break;
    if (!FrameOffsets.count(D))
      FrameOffsets[D] = allocFrameSlot(D->getType());
    break;
  }
  case Stmt::StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    collectFrameVars(If->getThen());
    if (If->getElse())
      collectFrameVars(If->getElse());
    break;
  }
  case Stmt::StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    if (For->getInit())
      collectFrameVars(For->getInit());
    collectFrameVars(For->getBody());
    break;
  }
  case Stmt::StmtKind::While:
    collectFrameVars(cast<WhileStmt>(S)->getBody());
    break;
  case Stmt::StmtKind::Do:
    collectFrameVars(cast<DoStmt>(S)->getBody());
    break;
  default:
    break;
  }
}

void Codegen::planGroupLocals(const FunctionDecl *Kernel) {
  // Kernel-scope `local` declarations live in the per-group arena.
  if (!Kernel->getBody())
    return;
  uint64_t Top = 0;
  for (const Stmt *S : Kernel->getBody()->body()) {
    const auto *DS = dyn_cast<DeclStmt>(S);
    if (!DS)
      continue;
    const VarDecl *D = DS->getDecl();
    if (D->getAddressSpace() != AddressSpace::Local)
      continue;
    uint64_t Align = Layout.alignOf(D->getType());
    Top = (Top + Align - 1) & ~(Align - 1);
    GroupLocalOffsets[D] = Top;
    Top += Layout.sizeOf(D->getType());
  }
  Module.LocalArenaSize = Top;
}

//===----------------------------------------------------------------------===//
// Addressing
//===----------------------------------------------------------------------===//

void Codegen::emitVarAddr(const VarDecl *D) {
  auto GL = GroupLocalOffsets.find(D);
  if (GL != GroupLocalOffsets.end()) {
    emit(Op::GroupAddr, 0, 0, GL->second);
    return;
  }
  auto It = FrameOffsets.find(D);
  if (It == FrameOffsets.end()) {
    fail("codegen: variable '" + D->getName() + "' has no frame slot");
    emit(Op::Trap, static_cast<uint32_t>(TrapCode::Unreachable));
    return;
  }
  emit(Op::FrameAddr, 0, 0, It->second);
}

void Codegen::emitAddr(const Expr *E) {
  switch (E->getKind()) {
  case Expr::ExprKind::DeclRef:
    emitVarAddr(cast<DeclRef>(E)->getDecl());
    return;
  case Expr::ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->getOp() == UnOp::Deref) {
      emitExpr(U->getSubExpr()); // pointer value
      return;
    }
    break;
  }
  case Expr::ExprKind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    const Type *BaseTy = Ix->getBase()->getType();
    if (isa<PointerType>(BaseTy))
      emitExpr(Ix->getBase());
    else
      emitAddr(Ix->getBase());
    emitExpr(Ix->getIndex());
    emit(Op::GepScaled, 0, 0, Layout.sizeOf(E->getType()));
    return;
  }
  case Expr::ExprKind::Member: {
    const auto *M = cast<MemberExpr>(E);
    if (M->isArrow())
      emitExpr(M->getBase());
    else
      emitAddr(M->getBase());
    uint64_t Off = Layout.fieldOffset(M->getRecordType(),
                                      M->getFieldIndex());
    if (Off != 0)
      emit(Op::GepConst, 0, 0, Off);
    return;
  }
  case Expr::ExprKind::ImplicitCast:
    // Lvalue-preserving implicit casts do not occur; fall through.
    break;
  default:
    break;
  }
  fail("codegen: expression is not addressable");
  emit(Op::Trap, static_cast<uint32_t>(TrapCode::Unreachable));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

void Codegen::emitShortCircuit(const BinaryExpr *B) {
  // Scalar && / || with branch-based evaluation producing an int 0/1.
  bool IsAnd = B->getOp() == BinOp::LAnd;
  emitExpr(B->getLHS());
  if (IsAnd) {
    size_t ToFalse = emit(Op::JumpIfFalse);
    emitExpr(B->getRHS());
    size_t ToFalse2 = emit(Op::JumpIfFalse);
    emit(Op::PushConst, 0, 0, 1, B->getType());
    size_t ToEnd = emit(Op::Jump);
    patch(ToFalse, here());
    patch(ToFalse2, here());
    emit(Op::PushConst, 0, 0, 0, B->getType());
    patch(ToEnd, here());
  } else {
    size_t ToRhs = emit(Op::JumpIfFalse);
    emit(Op::PushConst, 0, 0, 1, B->getType());
    size_t ToEnd = emit(Op::Jump);
    patch(ToRhs, here());
    emitExpr(B->getRHS());
    size_t ToFalse = emit(Op::JumpIfFalse);
    emit(Op::PushConst, 0, 0, 1, B->getType());
    size_t ToEnd2 = emit(Op::Jump);
    patch(ToFalse, here());
    emit(Op::PushConst, 0, 0, 0, B->getType());
    patch(ToEnd, here());
    patch(ToEnd2, here());
  }
}

void Codegen::emitIncDec(const UnaryExpr *U) {
  const Expr *LV = U->getSubExpr();
  const Type *T = LV->getType();
  bool IsInc = U->getOp() == UnOp::PreInc || U->getOp() == UnOp::PostInc;
  bool IsPre = U->getOp() == UnOp::PreInc || U->getOp() == UnOp::PreDec;
  BinOp Delta = IsInc ? BinOp::Add : BinOp::Sub;
  emitAddr(LV);
  emit(Op::Dup);
  emit(Op::Load, 0, 0, 0, T);
  if (IsPre) {
    emit(Op::PushConst, 0, 0, 1, T);
    emit(Op::Bin, static_cast<uint32_t>(Delta), 0, 0, T);
    emit(Op::StoreKeep, 0, 0, 0, T);
  } else {
    // [addr old] -> keep old as the result, store old +/- 1.
    emit(Op::Dup);                       // [addr old old]
    emit(Op::Rot3);                      // [old addr old]
    emit(Op::PushConst, 0, 0, 1, T);     // [old addr old 1]
    emit(Op::Bin, static_cast<uint32_t>(Delta), 0, 0, T);
    emit(Op::Store, 0, 0, 0, T);         // [old]
  }
}

bool Codegen::emitExpr(const Expr *E) {
  if (failed())
    return true;
  switch (E->getKind()) {
  case Expr::ExprKind::IntLiteral: {
    const auto *Lit = cast<IntLiteral>(E);
    emit(Op::PushConst, 0, 0, Lit->getValue(), Lit->getType());
    return true;
  }
  case Expr::ExprKind::DeclRef: {
    const Type *T = E->getType();
    if (isa<ArrayType>(T) || isa<RecordType>(T)) {
      fail("codegen: aggregate used as a value");
      return true;
    }
    emitAddr(E);
    emit(Op::Load, 0, 0, 0, T);
    return true;
  }
  case Expr::ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->getOp()) {
    case UnOp::Plus:
      emitExpr(U->getSubExpr());
      // The promotion, if any, was materialised by TypeRules.
      if (U->getSubExpr()->getType() != U->getType())
        emit(Op::Convert, 0, 0, 0, U->getType());
      return true;
    case UnOp::Minus:
    case UnOp::BitNot:
    case UnOp::Not:
      emitExpr(U->getSubExpr());
      emit(Op::Un, static_cast<uint32_t>(U->getOp()), 0, 0, U->getType());
      return true;
    case UnOp::PreInc:
    case UnOp::PreDec:
    case UnOp::PostInc:
    case UnOp::PostDec:
      emitIncDec(U);
      return true;
    case UnOp::Deref:
      emitExpr(U->getSubExpr());
      emit(Op::Load, 0, 0, 0, U->getType());
      return true;
    case UnOp::AddrOf:
      emitAddr(U->getSubExpr());
      return true;
    }
    return true;
  }
  case Expr::ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->getOp() == BinOp::Comma) {
      bool Pushed = emitExpr(B->getLHS());
      if (Pushed)
        emit(Op::Pop);
      if (Opts.CommaDropsRhsBug && isa<ScalarType>(B->getType()) &&
          isa<IntLiteral>(B->getRHS()) &&
          isa<DeclRef, IntLiteral>(B->getLHS())) {
        // Figure 2(f) bug model: a comma whose right operand is a
        // constant is "optimised" to zero (the Oclgrind defect folded
        // `(x, 1)` wrongly; commas with computed right operands are
        // unaffected, keeping the rate near the paper's w%).
        emit(Op::PushConst, 0, 0, 0, B->getType());
        return true;
      }
      return emitExpr(B->getRHS());
    }
    if (isLogicalOp(B->getOp()) && isa<ScalarType>(B->getType())) {
      emitShortCircuit(B);
      return true;
    }
    emitExpr(B->getLHS());
    emitExpr(B->getRHS());
    emit(Op::Bin, static_cast<uint32_t>(B->getOp()), 0, 0, B->getType());
    return true;
  }
  case Expr::ExprKind::Assign:
    emitAssign(cast<AssignExpr>(E));
    return !isa<RecordType>(E->getType());
  case Expr::ExprKind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    emitExpr(C->getCond());
    size_t ToElse = emit(Op::JumpIfFalse);
    emitExpr(C->getTrueExpr());
    size_t ToEnd = emit(Op::Jump);
    patch(ToElse, here());
    emitExpr(C->getFalseExpr());
    patch(ToEnd, here());
    return true;
  }
  case Expr::ExprKind::Call: {
    const auto *C = cast<CallExpr>(E);
    for (const Expr *A : C->args())
      emitExpr(A);
    auto It = FuncIndex.find(C->getCallee());
    if (It == FuncIndex.end()) {
      fail("codegen: call to unknown function '" +
           C->getCallee()->getName() + "'");
      return true;
    }
    emit(Op::Call, It->second);
    return !C->getType()->isVoid();
  }
  case Expr::ExprKind::BuiltinCall: {
    const auto *C = cast<BuiltinCallExpr>(E);
    Builtin B = C->getBuiltin();
    if (isWorkItemBuiltin(B)) {
      emitExpr(C->getArg(0));
      emit(Op::WorkItem, static_cast<uint32_t>(B), 0, 0, E->getType());
      return true;
    }
    if (B == Builtin::AtomicCmpxchg) {
      emitExpr(C->getArg(0));
      emitExpr(C->getArg(1));
      emitExpr(C->getArg(2));
      emit(Op::AtomicCas, 0, 0, 0, E->getType());
      return true;
    }
    if (isAtomicBuiltin(B)) {
      bool NoOperand =
          B == Builtin::AtomicInc || B == Builtin::AtomicDec;
      emitExpr(C->getArg(0));
      if (!NoOperand)
        emitExpr(C->getArg(1));
      emit(Op::AtomicRMW, static_cast<uint32_t>(B), NoOperand ? 1 : 0, 0,
           E->getType());
      return true;
    }
    if (B == Builtin::ConvertVector) {
      emitExpr(C->getArg(0));
      emit(Op::Convert, 0, 0, 0, E->getType());
      return true;
    }
    for (const Expr *A : C->args())
      emitExpr(A);
    emit(Op::BuiltinEval, static_cast<uint32_t>(B),
         static_cast<uint32_t>(C->getNumArgs()), 0, E->getType());
    return true;
  }
  case Expr::ExprKind::Index:
  case Expr::ExprKind::Member:
    emitAddr(E);
    emit(Op::Load, 0, 0, 0, E->getType());
    return true;
  case Expr::ExprKind::Swizzle: {
    const auto *Sw = cast<SwizzleExpr>(E);
    emitExpr(Sw->getBase());
    // Bug model: high-lane selectors slip one lane down.
    auto MapLane = [this](unsigned L) {
      return Opts.SwizzleHighLaneBug && L >= 8 ? L - 1 : L;
    };
    const auto &Idx = Sw->indices();
    if (Idx.size() == 1) {
      emit(Op::VecExtract, MapLane(Idx[0]), 0, 0, E->getType());
      return true;
    }
    uint64_t Packed = 0;
    for (size_t I = 0; I != Idx.size(); ++I)
      Packed |= static_cast<uint64_t>(MapLane(Idx[I]) & 0xf) << (4 * I);
    emit(Op::VecShuffle, static_cast<uint32_t>(Idx.size()), 0, Packed,
         E->getType());
    return true;
  }
  case Expr::ExprKind::Cast:
    emitExpr(cast<CastExpr>(E)->getSubExpr());
    emit(Op::Convert, 0, 0, 0, E->getType());
    return true;
  case Expr::ExprKind::ImplicitCast: {
    const auto *C = cast<ImplicitCastExpr>(E);
    emitExpr(C->getSubExpr());
    if (C->getCastKind() == ImplicitCastExpr::CastKind::VectorSplat)
      emit(Op::Splat, 0, 0, 0, E->getType());
    else if (C->getSubExpr()->getType() != E->getType())
      emit(Op::Convert, 0, 0, 0, E->getType());
    return true;
  }
  case Expr::ExprKind::VectorConstruct: {
    const auto *V = cast<VectorConstructExpr>(E);
    for (const Expr *Elem : V->elements())
      emitExpr(Elem);
    emit(Op::VecBuild, static_cast<uint32_t>(V->elements().size()), 0, 0,
         E->getType());
    return true;
  }
  case Expr::ExprKind::InitList:
    fail("codegen: initialiser list outside a declaration");
    return true;
  }
  return true;
}

/// Bytes actually copied for a whole-record copy of \p RT; the Figure
/// 1(b) bug model truncates after the first volatile field.
static uint64_t recordCopySize(const LayoutEngine &Layout,
                               const RecordType *RT,
                               bool VolatileCopyBug) {
  uint64_t Full = Layout.sizeOf(RT);
  if (!VolatileCopyBug || RT->isUnion())
    return Full;
  for (unsigned I = 0, E = RT->getNumFields(); I != E; ++I)
    if (RT->getField(I).IsVolatile)
      return Layout.fieldOffset(RT, I) +
             Layout.sizeOf(RT->getField(I).Ty);
  return Full;
}

void Codegen::emitAssign(const AssignExpr *A) {
  const Expr *LHS = A->getLHS();
  const Type *LT = LHS->getType();

  // Whole-record assignment: memcpy between lvalues.
  if (const auto *RT = dyn_cast<RecordType>(LT)) {
    emitAddr(LHS);
    emitAddr(A->getRHS());
    emit(Op::MemCopy, 0, 0,
         recordCopySize(Layout, RT, Opts.VolatileStructCopyBug));
    return;
  }

  // Single-lane vector component store: v.x = e.
  if (const auto *Sw = dyn_cast<SwizzleExpr>(LHS)) {
    assert(Sw->indices().size() == 1 && "multi-lane swizzle store");
    assert(A->getOp() == AssignOp::Assign &&
           "compound swizzle assignment unsupported");
    const Type *VecTy = Sw->getBase()->getType();
    emitAddr(Sw->getBase());
    emit(Op::Dup);
    emit(Op::Load, 0, 0, 0, VecTy);
    emitExpr(A->getRHS());
    emit(Op::VecInsert, Sw->indices()[0]);
    emit(Op::StoreKeep, 0, 0, 0, VecTy);
    emit(Op::VecExtract, Sw->indices()[0], 0, 0, A->getType());
    return;
  }

  if (A->getOp() == AssignOp::Assign) {
    emitAddr(LHS);
    emitExpr(A->getRHS());
    emit(Op::StoreKeep, 0, 0, 0, LT);
    return;
  }

  // Compound assignment: load, widen, operate, narrow, store.
  static const std::map<AssignOp, BinOp> OpMap = {
      {AssignOp::Add, BinOp::Add},   {AssignOp::Sub, BinOp::Sub},
      {AssignOp::Mul, BinOp::Mul},   {AssignOp::Div, BinOp::Div},
      {AssignOp::Mod, BinOp::Mod},   {AssignOp::Shl, BinOp::Shl},
      {AssignOp::Shr, BinOp::Shr},   {AssignOp::And, BinOp::BitAnd},
      {AssignOp::Or, BinOp::BitOr},  {AssignOp::Xor, BinOp::BitXor},
  };
  BinOp BO = OpMap.at(A->getOp());

  emitAddr(LHS);
  emit(Op::Dup);
  emit(Op::Load, 0, 0, 0, LT);

  if (const auto *VT = dyn_cast<VectorType>(LT)) {
    // TypeRules normalised the RHS to the same vector type.
    emitExpr(A->getRHS());
    emit(Op::Bin, static_cast<uint32_t>(BO), 0, 0, VT);
    emit(Op::StoreKeep, 0, 0, 0, VT);
    return;
  }

  const auto *LS = cast<ScalarType>(LT);
  const auto *RS = cast<ScalarType>(A->getRHS()->getType());
  const ScalarType *Common;
  if (BO == BinOp::Shl || BO == BinOp::Shr)
    Common = promote(Types, LS);
  else
    Common = usualArithmeticConversions(Types, LS, RS);
  if (Common != LS)
    emit(Op::Convert, 0, 0, 0, Common);
  emitExpr(A->getRHS());
  const ScalarType *RhsTarget =
      (BO == BinOp::Shl || BO == BinOp::Shr) ? promote(Types, RS) : Common;
  if (RS != RhsTarget)
    emit(Op::Convert, 0, 0, 0, RhsTarget);
  emit(Op::Bin, static_cast<uint32_t>(BO), 0, 0, Common);
  if (Common != LS)
    emit(Op::Convert, 0, 0, 0, LS);
  emit(Op::StoreKeep, 0, 0, 0, LS);
}

//===----------------------------------------------------------------------===//
// Declarations and initialisation
//===----------------------------------------------------------------------===//

void Codegen::emitInitInto(const Type *Ty, const Expr *Init) {
  const auto *IL = dyn_cast<InitListExpr>(Init);
  if (!IL) {
    if (const auto *RT = dyn_cast<RecordType>(Ty)) {
      // Whole-record copy initialisation from an lvalue.
      emitAddr(Init);
      emit(Op::MemCopy, 0, 0,
           recordCopySize(Layout, RT, Opts.VolatileStructCopyBug));
      return;
    }
    emitExpr(Init);
    emit(Op::Store, 0, 0, 0, Ty);
    return;
  }

  if (const auto *RT = dyn_cast<RecordType>(Ty)) {
    uint64_t Size = Layout.sizeOf(RT);
    uint64_t CorruptBytes = 0;
    if (RT->isUnion() && Layout.unionInitBugTriggers(RT, CorruptBytes) &&
        IL->inits().size() == 1 &&
        isa<ScalarType>(RT->getField(0).Ty)) {
      // Figure 2(a) bug model: garbage-fill, then write only the
      // leading CorruptBytes of the first member's value.
      emit(Op::Dup);
      emit(Op::MemSet, 0xff, 0, Size);
      const ScalarType *TruncTy =
          CorruptBytes == 1
              ? Types.ucharTy()
              : (CorruptBytes == 2 ? Types.ushortTy() : Types.uintTy());
      const Expr *FieldInit = IL->inits()[0];
      // Descend through nested single-entry brace lists.
      while (const auto *Nested = dyn_cast<InitListExpr>(FieldInit))
        FieldInit = Nested->inits()[0];
      emitExpr(FieldInit);
      emit(Op::Convert, 0, 0, 0, TruncTy);
      emit(Op::Store, 0, 0, 0, TruncTy);
      return;
    }
    emit(Op::Dup);
    emit(Op::MemSet, 0, 0, Size);
    for (size_t I = 0; I != IL->inits().size(); ++I) {
      emit(Op::Dup);
      uint64_t Off = Layout.initFieldOffset(RT, static_cast<unsigned>(I));
      if (Off != 0)
        emit(Op::GepConst, 0, 0, Off);
      emitInitInto(RT->getField(I).Ty, IL->inits()[I]);
    }
    emit(Op::Pop);
    return;
  }

  if (const auto *AT = dyn_cast<ArrayType>(Ty)) {
    uint64_t ElemSize = Layout.sizeOf(AT->getElementType());
    emit(Op::Dup);
    emit(Op::MemSet, 0, 0, Layout.sizeOf(AT));
    for (size_t I = 0; I != IL->inits().size(); ++I) {
      emit(Op::Dup);
      if (I != 0)
        emit(Op::GepConst, 0, 0, ElemSize * I);
      emitInitInto(AT->getElementType(), IL->inits()[I]);
    }
    emit(Op::Pop);
    return;
  }

  fail("codegen: brace initialiser for scalar type");
}

void Codegen::emitVarDeclInit(const VarDecl *D) {
  if (GroupLocalOffsets.count(D)) {
    if (D->getInit())
      fail("codegen: local-memory variable cannot have an initialiser");
    return;
  }
  if (!D->getInit())
    return;
  emitVarAddr(D);
  emitInitInto(D->getType(), D->getInit());
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Codegen::emitStmt(const Stmt *S) {
  if (failed())
    return;
  switch (S->getKind()) {
  case Stmt::StmtKind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      emitStmt(Child);
    return;
  case Stmt::StmtKind::Decl:
    emitVarDeclInit(cast<DeclStmt>(S)->getDecl());
    return;
  case Stmt::StmtKind::Expr: {
    bool Pushed = emitExpr(cast<ExprStmt>(S)->getExpr());
    if (Pushed)
      emit(Op::Pop);
    return;
  }
  case Stmt::StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    emitExpr(If->getCond());
    size_t ToElse = emit(Op::JumpIfFalse);
    emitStmt(If->getThen());
    if (If->getElse()) {
      size_t ToEnd = emit(Op::Jump);
      patch(ToElse, here());
      emitStmt(If->getElse());
      patch(ToEnd, here());
    } else {
      patch(ToElse, here());
    }
    return;
  }
  case Stmt::StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    if (For->getInit())
      emitStmt(For->getInit());
    size_t LoopTop = here();
    size_t ToEnd = SIZE_MAX;
    if (For->getCond()) {
      emitExpr(For->getCond());
      ToEnd = emit(Op::JumpIfFalse);
    }
    BreakPatches.emplace_back();
    ContinuePatches.emplace_back();
    emitStmt(For->getBody());
    size_t StepPC = here();
    if (For->getStep()) {
      bool Pushed = emitExpr(For->getStep());
      if (Pushed)
        emit(Op::Pop);
    }
    emit(Op::Jump, static_cast<uint32_t>(LoopTop));
    size_t End = here();
    if (ToEnd != SIZE_MAX)
      patch(ToEnd, End);
    for (size_t P : BreakPatches.back())
      patch(P, End);
    for (size_t P : ContinuePatches.back())
      patch(P, StepPC);
    BreakPatches.pop_back();
    ContinuePatches.pop_back();
    return;
  }
  case Stmt::StmtKind::While: {
    const auto *W = cast<WhileStmt>(S);
    size_t LoopTop = here();
    emitExpr(W->getCond());
    size_t ToEnd = emit(Op::JumpIfFalse);
    BreakPatches.emplace_back();
    ContinuePatches.emplace_back();
    emitStmt(W->getBody());
    emit(Op::Jump, static_cast<uint32_t>(LoopTop));
    size_t End = here();
    patch(ToEnd, End);
    for (size_t P : BreakPatches.back())
      patch(P, End);
    for (size_t P : ContinuePatches.back())
      patch(P, LoopTop);
    BreakPatches.pop_back();
    ContinuePatches.pop_back();
    return;
  }
  case Stmt::StmtKind::Do: {
    const auto *D = cast<DoStmt>(S);
    size_t LoopTop = here();
    BreakPatches.emplace_back();
    ContinuePatches.emplace_back();
    emitStmt(D->getBody());
    size_t CondPC = here();
    emitExpr(D->getCond());
    emit(Op::Un, static_cast<uint32_t>(UnOp::Not), 0, 0,
         Types.boolTy());
    size_t ToEnd = emit(Op::JumpIfFalse); // loop back when cond true
    // JumpIfFalse pops; "false" of the negation means cond true.
    patch(ToEnd, LoopTop);
    size_t End = here();
    for (size_t P : BreakPatches.back())
      patch(P, End);
    for (size_t P : ContinuePatches.back())
      patch(P, CondPC);
    BreakPatches.pop_back();
    ContinuePatches.pop_back();
    return;
  }
  case Stmt::StmtKind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (R->getValue()) {
      emitExpr(R->getValue());
      emit(Op::Ret);
    } else {
      emit(Op::RetVoid);
    }
    return;
  }
  case Stmt::StmtKind::Break:
    BreakPatches.back().push_back(emit(Op::Jump));
    return;
  case Stmt::StmtKind::Continue:
    ContinuePatches.back().push_back(emit(Op::Jump));
    return;
  case Stmt::StmtKind::Barrier: {
    const auto *B = cast<BarrierStmt>(S);
    emit(Op::Barrier, BarrierSites++, B->getFenceFlags());
    return;
  }
  case Stmt::StmtKind::Null:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Functions and module
//===----------------------------------------------------------------------===//

void Codegen::emitFunction(const FunctionDecl *F) {
  CurFunc = &Module.Functions[FuncIndex[F]];
  FrameOffsets.clear();
  FrameTop = 8; // offset 0 is reserved so null != first local
  BreakPatches.clear();
  ContinuePatches.clear();

  for (const VarDecl *P : F->params()) {
    uint64_t Off = allocFrameSlot(P->getType());
    FrameOffsets[P] = Off;
    CurFunc->Params.push_back(CompiledParam{Off, P->getType()});
  }
  if (F->getBody())
    collectFrameVars(F->getBody());
  CurFunc->FrameSize = (FrameTop + 7) & ~7ULL;

  if (!F->getBody()) {
    fail("codegen: function '" + F->getName() + "' has no body");
    return;
  }
  emitStmt(F->getBody());
  // Implicit return at the end of the body.
  if (F->getReturnType()->isVoid())
    emit(Op::RetVoid);
  else
    emit(Op::Trap, static_cast<uint32_t>(TrapCode::Unreachable));
}

CodegenResult Codegen::run() {
  const Program &Prog = Ctx.program();
  const FunctionDecl *Kernel = Prog.kernel();
  if (!Kernel) {
    CodegenResult R;
    R.Error = "codegen: program has no kernel";
    return R;
  }
  planGroupLocals(Kernel);

  for (const FunctionDecl *F : Prog.functions()) {
    FuncIndex[F] = static_cast<unsigned>(Module.Functions.size());
    CompiledFunction CF;
    CF.Name = F->getName();
    CF.ReturnTy = F->getReturnType();
    Module.Functions.push_back(std::move(CF));
    if (F->isKernel())
      Module.KernelIndex = FuncIndex[F];
  }
  for (const FunctionDecl *F : Prog.functions()) {
    emitFunction(F);
    if (failed())
      break;
  }
  Module.NumBarrierSites = BarrierSites;

  CodegenResult R;
  if (failed()) {
    R.Error = Error;
    return R;
  }
  R.Ok = true;
  R.Module = std::move(Module);
  // Superinstruction peephole: fuse hot adjacent pairs for the
  // interpreter. Purely a dispatch-count optimisation — fused and
  // unfused modules execute bit-identically (see docs/vm.md).
  if (vmFusionEnabled())
    fuseSuperinstructions(R.Module);
  decodeTypeFacts(R.Module);
  return R;
}

CodegenResult clfuzz::compileToBytecode(const ASTContext &Ctx,
                                        const CodegenOptions &Opts) {
  return Codegen(Ctx, Opts).run();
}
