//===- TypeRules.h - MiniCL conversion and operator typing ------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typing rules of MiniCL, shared by the parser (which types
/// expressions as it builds them), Sema (which re-validates whole
/// programs, including generator output) and the CLsmith-style
/// generator (which must produce well-typed trees by construction).
///
/// The vector rules follow OpenCL C: there are *no* implicit
/// conversions between distinct vector types (the paper stresses that
/// an int4 cannot be cast even to uint4; only convert_T() builtins
/// change vector types), scalars broadcast into vector operations, and
/// vector comparisons yield the signed integer vector of equal width
/// with lanes set to -1 (true) or 0 (false).
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_MINICL_TYPERULES_H
#define CLFUZZ_MINICL_TYPERULES_H

#include "minicl/AST.h"

namespace clfuzz {

/// C99 integer promotion: ranks below int promote to int (bool also
/// promotes to int).
const ScalarType *promote(const TypeContext &Types, const ScalarType *T);

/// C99 usual arithmetic conversions over two scalar types. size_t
/// behaves as a 64-bit unsigned integer.
const ScalarType *usualArithmeticConversions(const TypeContext &Types,
                                             const ScalarType *A,
                                             const ScalarType *B);

/// True if a value of scalar/bool type \p From implicitly converts to
/// scalar type \p To (MiniCL allows all integral conversions, like C).
bool isScalarConvertible(const Type *From, const Type *To);

/// The signed integer vector type produced by comparing two vectors of
/// type \p VT.
const VectorType *comparisonResultVector(TypeContext &Types,
                                         const VectorType *VT);

/// True if \p E denotes an assignable object (declared variable,
/// dereference, array element, struct member, single-lane swizzle).
bool isLValue(const Expr *E);

/// Wraps \p E in implicit conversions so its type becomes \p To.
/// Handles integral conversions, bool-to-int, the null pointer
/// constant, and scalar-to-vector splat. Returns null if no implicit
/// conversion exists.
Expr *convertTo(ASTContext &Ctx, Expr *E, const Type *To);

/// Result of typing an operator application.
struct TypedResult {
  Expr *E = nullptr;          ///< Typed node, or null on error.
  std::string Error;          ///< Diagnostic text when E is null.

  static TypedResult ok(Expr *E) { return TypedResult{E, {}}; }
  static TypedResult fail(std::string Msg) {
    return TypedResult{nullptr, std::move(Msg)};
  }
};

/// Builds a typed binary operation, inserting implicit conversions on
/// both operands (usual arithmetic conversions; splat for
/// scalar-vector mixing; pointer equality for ==/!=).
TypedResult buildBinary(ASTContext &Ctx, BinOp Op, Expr *LHS, Expr *RHS);

/// Builds a typed unary operation.
TypedResult buildUnary(ASTContext &Ctx, UnOp Op, Expr *Sub);

/// Builds a typed assignment (plain or compound). The result type is
/// the LHS type; the RHS is implicitly converted.
TypedResult buildAssign(ASTContext &Ctx, AssignOp Op, Expr *LHS,
                        Expr *RHS);

/// Builds a typed conditional expression (scalar condition only).
TypedResult buildConditional(ASTContext &Ctx, Expr *Cond, Expr *TrueE,
                             Expr *FalseE);

/// Builds a typed builtin call, checking arity and argument types and
/// inserting conversions. For ConvertVector, \p ConvertTarget names the
/// target vector type.
TypedResult buildBuiltinCall(ASTContext &Ctx, Builtin B,
                             std::vector<Expr *> Args,
                             const Type *ConvertTarget = nullptr);

/// Builds a typed subscript over an array lvalue or pointer rvalue.
TypedResult buildIndex(ASTContext &Ctx, Expr *Base, Expr *Index);

} // namespace clfuzz

#endif // CLFUZZ_MINICL_TYPERULES_H
