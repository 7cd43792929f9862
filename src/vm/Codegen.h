//===- Codegen.h - MiniCL AST to bytecode compiler --------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The back end of the simulated OpenCL driver stack: lowers typed
/// MiniCL ASTs to the stack bytecode of src/vm/Bytecode.h. Codegen
/// consults a LayoutEngine for aggregate layout (through which the
/// Figure 1(a)/2(a) layout bug models act) and implements the Figure
/// 2(f) comma-operator bug model directly.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_VM_CODEGEN_H
#define CLFUZZ_VM_CODEGEN_H

#include "layout/Layout.h"
#include "minicl/AST.h"
#include "vm/Bytecode.h"

namespace clfuzz {

/// Codegen configuration, including back-end bug models.
struct CodegenOptions {
  LayoutOptions Layout;
  /// Figure 2(f): the comma operator discards its right operand and
  /// yields zero when its result feeds a branch condition.
  bool CommaDropsRhsBug = false;
  /// Oclgrind-style vector defect (§7.3 notes a vector-related wrong
  /// code source for configuration 19): swizzle selectors for lanes
  /// >= 8 read the preceding lane.
  bool SwizzleHighLaneBug = false;
  /// Figure 1(b) (anonymous GPU configurations 10-/11-): whole-record
  /// copies of structs containing a volatile field stop copying after
  /// that field, leaving the tail of the destination unwritten.
  bool VolatileStructCopyBug = false;
};

/// Result of compiling a program to bytecode.
struct CodegenResult {
  bool Ok = false;
  std::string Error;
  CompiledModule Module;
};

/// Compiles the (sema-checked) program in \p Ctx. Only reads it, so
/// several threads may compile one shared context at once.
CodegenResult compileToBytecode(const ASTContext &Ctx,
                                const CodegenOptions &Opts = {});

} // namespace clfuzz

#endif // CLFUZZ_VM_CODEGEN_H
