//===- VmTest.cpp - Bytecode VM execution semantics tests ------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// End-to-end semantics tests: parse -> sema -> codegen -> launch, then
/// read the `out` buffer. Also validates the genuine (not faked)
/// behaviour of the layout/comma bug models on the paper's Figure 1/2
/// kernels.
///
//===----------------------------------------------------------------------===//

#include "device/Driver.h"
#include "exec/ExecBackend.h"
#include "gen/Generator.h"
#include "minicl/IntOps.h"
#include "minicl/Parser.h"
#include "minicl/Sema.h"
#include "opt/Pass.h"
#include "vm/Codegen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace clfuzz;

namespace {

struct KernelRun {
  LaunchResult LR;
  std::vector<uint64_t> Out;
};

/// Compiles and runs a kernel whose first parameter is
/// `global ulong *out`; extra integer buffers may be appended.
KernelRun runKernel(const std::string &Source, NDRange Range,
                    const CodegenOptions &CG = {},
                    std::vector<Buffer> ExtraBuffers = {},
                    LaunchOptions *CustomOpts = nullptr) {
  ASTContext Ctx;
  DiagEngine Diags;
  EXPECT_TRUE(parseProgram(Source, Ctx, Diags)) << Diags.str();
  EXPECT_TRUE(checkProgram(Ctx, Diags)) << Diags.str();
  CodegenResult CR = compileToBytecode(Ctx, CG);
  EXPECT_TRUE(CR.Ok) << CR.Error;

  KernelRun R;
  if (!CR.Ok)
    return R;

  std::vector<Buffer> Buffers;
  Buffer Out;
  Out.Space = AddressSpace::Global;
  Out.Bytes.assign(Range.globalLinear() * 8, 0);
  Buffers.push_back(std::move(Out));
  for (Buffer &B : ExtraBuffers)
    Buffers.push_back(std::move(B));

  std::vector<KernelArg> Args;
  for (unsigned I = 0; I != Buffers.size(); ++I)
    Args.push_back(KernelArg::buffer(I));
  // Drop surplus args if the kernel takes fewer.

  LaunchOptions Opts;
  if (CustomOpts)
    Opts = *CustomOpts;
  Opts.Range = Range;
  Args.resize(CR.Module.kernel().Params.size(), KernelArg::buffer(0));

  R.LR = launchKernel(CR.Module, Buffers, Args, Opts);
  for (uint64_t I = 0; I != Range.globalLinear(); ++I)
    R.Out.push_back(Buffers[0].readScalar(I * 8, 8));
  return R;
}

NDRange single() {
  NDRange R;
  R.Global[0] = 1;
  R.Local[0] = 1;
  return R;
}

NDRange groupOf(uint32_t N) {
  NDRange R;
  R.Global[0] = N;
  R.Local[0] = N;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Decoded type facts
//===----------------------------------------------------------------------===//

TEST(VmTest, DecodedTypeFactsMatchTheirTypes) {
  // Every instruction of a generated kernel, in every generator mode
  // at both opt levels, carries the facts its Ty gives: the handlers
  // read them instead of the Type.
  uint64_t Typed = 0, Vectors = 0;
  for (unsigned Mode = 0; Mode != NumGenModes; ++Mode)
    for (bool Opt : {false, true}) {
      GenOptions GO;
      GO.Mode = static_cast<GenMode>(Mode);
      GO.Seed = 11 + Mode;
      GeneratedKernel G = generateKernel(GO);
      std::string Ctx = std::string(genModeName(GO.Mode)) +
                        (Opt ? "+" : "-");
      ASTContext AST;
      DiagEngine Diags;
      ASSERT_TRUE(parseProgram(G.Source, AST, Diags)) << Diags.str();
      ASSERT_TRUE(checkProgram(AST, Diags)) << Diags.str();
      if (Opt)
        buildPipeline(PassOptions::o2(), AST).run(AST);
      CodegenResult CR = compileToBytecode(AST);
      ASSERT_TRUE(CR.Ok) << CR.Error;
      for (const CompiledFunction &F : CR.Module.Functions)
        for (size_t PC = 0; PC != F.Code.size(); ++PC) {
          const Insn &I = F.Code[PC];
          std::string At = Ctx + " " + F.Name + ":" + std::to_string(PC);
          if (!I.Ty) {
            EXPECT_EQ(I.Shape, TyShape::None) << At;
            EXPECT_EQ(I.LaneBits, 0u) << At;
            EXPECT_FALSE(I.LaneSigned) << At;
            EXPECT_EQ(I.Lanes, 0u) << At;
            EXPECT_EQ(I.AccessBytes, 0u) << At;
            continue;
          }
          ++Typed;
          TyShape Shape = isa<ScalarType>(I.Ty)    ? TyShape::Scalar
                          : isa<VectorType>(I.Ty)  ? TyShape::Vector
                          : isa<PointerType>(I.Ty) ? TyShape::Pointer
                                                   : TyShape::Other;
          const auto *VT = dyn_cast<VectorType>(I.Ty);
          Vectors += VT != nullptr;
          LaneType LT = laneTypeOf(I.Ty);
          EXPECT_EQ(I.Shape, Shape) << At;
          EXPECT_EQ(I.LaneBits, LT.Width) << At;
          EXPECT_EQ(I.LaneSigned, LT.Signed) << At;
          EXPECT_EQ(I.Lanes, VT ? VT->getNumLanes() : 1u) << At;
          EXPECT_EQ(I.AccessBytes, accessSize(I.Ty)) << At;
        }
    }
  EXPECT_GT(Typed, 0u);
  EXPECT_GT(Vectors, 0u);
}

//===----------------------------------------------------------------------===//
// Basic semantics
//===----------------------------------------------------------------------===//

TEST(VmTest, WritesThreadIds) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  out[get_global_id(0)] = get_global_id(0) * 3;\n"
                     "}\n",
                     groupOf(8));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  for (uint64_t I = 0; I != 8; ++I)
    EXPECT_EQ(R.Out[I], I * 3);
}

TEST(VmTest, ArithmeticAndPrecedence) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int a = 7, b = 3;\n"
                     "  out[0] = a * b + a / b - a % b + (a << 2) + (a >> 1);\n"
                     "}\n",
                     single());
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 7ull * 3 + 2 - 1 + 28 + 3);
}

TEST(VmTest, SignedNarrowingAndWidening) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  char c = -1;\n"
                     "  int i = c;\n"
                     "  uint u = c;\n"
                     "  out[0] = i == -1;\n"
                     "  out[1] = u;\n"
                     "  out[2] = (char)(300);\n"
                     "}\n",
                     groupOf(4));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 1u);
  EXPECT_EQ(R.Out[1], 0xffffffffull);
  EXPECT_EQ(R.Out[2], 300 & 0xff); // 44
}

TEST(VmTest, UnsignedWraparound) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  uint x = 0;\n"
                     "  x = x - 1;\n"
                     "  out[0] = x;\n"
                     "}\n",
                     single());
  ASSERT_TRUE(R.LR.ok());
  EXPECT_EQ(R.Out[0], 0xffffffffull);
}

TEST(VmTest, ShortCircuitEvaluation) {
  auto R = runKernel("int bump(int *p) { *p = *p + 1; return 1; }\n"
                     "kernel void k(global ulong *out) {\n"
                     "  int n = 0;\n"
                     "  int a = 0 && bump(&n);\n"
                     "  int b = 1 || bump(&n);\n"
                     "  out[0] = n;\n"
                     "  out[1] = a;\n"
                     "  out[2] = b;\n"
                     "}\n",
                     groupOf(4));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 0u); // bump never called
  EXPECT_EQ(R.Out[1], 0u);
  EXPECT_EQ(R.Out[2], 1u);
}

TEST(VmTest, LoopsAndBreakContinue) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int sum = 0;\n"
                     "  for (int i = 0; i < 10; i++) {\n"
                     "    if (i == 3) continue;\n"
                     "    if (i == 7) break;\n"
                     "    sum += i;\n"
                     "  }\n"
                     "  int w = 0;\n"
                     "  while (w < 5) w++;\n"
                     "  int d = 0;\n"
                     "  do { d++; } while (d < 3);\n"
                     "  out[0] = sum; out[1] = w; out[2] = d;\n"
                     "}\n",
                     groupOf(4));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 0u + 1 + 2 + 4 + 5 + 6);
  EXPECT_EQ(R.Out[1], 5u);
  EXPECT_EQ(R.Out[2], 3u);
}

TEST(VmTest, IncrementDecrementSemantics) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int x = 5;\n"
                     "  out[0] = x++;\n"
                     "  out[1] = x;\n"
                     "  out[2] = ++x;\n"
                     "  out[3] = x--;\n"
                     "  out[4] = --x;\n"
                     "}\n",
                     groupOf(8));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 5u);
  EXPECT_EQ(R.Out[1], 6u);
  EXPECT_EQ(R.Out[2], 7u);
  EXPECT_EQ(R.Out[3], 7u);
  EXPECT_EQ(R.Out[4], 5u);
}

TEST(VmTest, CompoundAssignmentWidening) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  char c = 100;\n"
                     "  c += 100;\n" // operates in int, narrows back
                     "  out[0] = (uint)(int)c;\n"
                     "}\n",
                     single());
  ASSERT_TRUE(R.LR.ok());
  EXPECT_EQ(R.Out[0], maskToWidth(static_cast<uint64_t>(int64_t{-56}), 32));
}

TEST(VmTest, TernaryAndComma) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int x = 4;\n"
                     "  out[0] = x > 2 ? 10 : 20;\n"
                     "  out[1] = (x = 7, x + 1);\n"
                     "}\n",
                     groupOf(2));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 10u);
  EXPECT_EQ(R.Out[1], 8u);
}

TEST(VmTest, FunctionsAndPointers) {
  auto R = runKernel("void add3(int *p) { *p += 3; }\n"
                     "int twice(int v) { return v * 2; }\n"
                     "kernel void k(global ulong *out) {\n"
                     "  int x = 10;\n"
                     "  add3(&x);\n"
                     "  out[0] = twice(x);\n"
                     "}\n",
                     single());
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 26u);
}

TEST(VmTest, ArraysAndNestedStructs) {
  auto R = runKernel("typedef struct { int a; int arr[4]; } Inner;\n"
                     "typedef struct { Inner in; long tail; } Outer;\n"
                     "kernel void k(global ulong *out) {\n"
                     "  Outer o = { { 5, { 1, 2, 3, 4 } }, 100 };\n"
                     "  Outer copy;\n"
                     "  copy = o;\n"
                     "  copy.in.arr[2] = 30;\n"
                     "  out[0] = o.in.arr[2];\n"
                     "  out[1] = copy.in.a + copy.in.arr[2] + copy.tail;\n"
                     "}\n",
                     groupOf(2));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 3u);
  EXPECT_EQ(R.Out[1], 5u + 30 + 100);
}

TEST(VmTest, PartialInitialisationZeroFills) {
  auto R = runKernel("typedef struct { int a; int b; int c[3]; } S;\n"
                     "kernel void k(global ulong *out) {\n"
                     "  S s = { 9 };\n"
                     "  out[0] = s.a; out[1] = s.b; out[2] = s.c[2];\n"
                     "}\n",
                     groupOf(4));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 9u);
  EXPECT_EQ(R.Out[1], 0u);
  EXPECT_EQ(R.Out[2], 0u);
}

//===----------------------------------------------------------------------===//
// Vectors
//===----------------------------------------------------------------------===//

TEST(VmTest, VectorConstructSwizzleArithmetic) {
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  int4 v = (int4)((int2)(1, 2), 3, 4);\n"
      "  int4 w = v + 10;\n"
      "  int4 x = w * v;\n"
      "  out[0] = x.x; out[1] = x.y; out[2] = x.z; out[3] = x.w;\n"
      "  int2 sw = v.wy;\n"
      "  out[4] = sw.x; out[5] = sw.y;\n"
      "}\n",
      groupOf(8));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 11u);
  EXPECT_EQ(R.Out[1], 24u);
  EXPECT_EQ(R.Out[2], 39u);
  EXPECT_EQ(R.Out[3], 56u);
  EXPECT_EQ(R.Out[4], 4u);
  EXPECT_EQ(R.Out[5], 2u);
}

TEST(VmTest, VectorComparisonsYieldMasks) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int4 a = (int4)(1, 5, 3, 7);\n"
                     "  int4 b = (int4)(4, 2, 3, 9);\n"
                     "  int4 c = a < b;\n"
                     "  out[0] = (uint)c.x; out[1] = (uint)c.y;\n"
                     "  out[2] = (uint)c.z; out[3] = (uint)c.w;\n"
                     "}\n",
                     groupOf(4));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 0xffffffffull);
  EXPECT_EQ(R.Out[1], 0u);
  EXPECT_EQ(R.Out[2], 0u);
  EXPECT_EQ(R.Out[3], 0xffffffffull);
}

TEST(VmTest, VectorConvertAndComponentStore) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  uchar4 u = (uchar4)(200, 100, 50, 25);\n"
                     "  int4 i = convert_int4(u);\n"
                     "  i.x = 1000;\n"
                     "  out[0] = i.x; out[1] = i.y;\n"
                     "  short8 s = (short8)(1,2,3,4,5,6,7,8);\n"
                     "  out[2] = s.s7;\n"
                     "}\n",
                     groupOf(4));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 1000u);
  EXPECT_EQ(R.Out[1], 100u);
  EXPECT_EQ(R.Out[2], 8u);
}

TEST(VmTest, RotateIsCorrectWithoutBugModel) {
  // Figure 2(b): rotate((uint2)(1,1),(uint2)(0,0)).x must be 1.
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  out[get_global_id(0)] = rotate((uint2)(1, 1), (uint2)(0, 0)).x;\n"
      "}\n",
      single());
  ASSERT_TRUE(R.LR.ok());
  EXPECT_EQ(R.Out[0], 1u);
}

TEST(VmTest, IntegerBuiltins) {
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  out[0] = clamp(5, 1, 3);\n"
      "  out[1] = rotate(0x80000001u, 1u);\n"
      "  out[2] = min(-3, 2);\n"
      "  out[3] = max(7u, 9u);\n"
      "  out[4] = abs(-5);\n"
      "  out[5] = add_sat((char)120, (char)100);\n"
      "  out[6] = hadd(7, 8);\n"
      "  out[7] = mul_hi(0x10000, 0x10000);\n"
      "}\n",
      groupOf(8));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 3u);
  EXPECT_EQ(R.Out[1], 3u);
  // min(-3, 2) is int -3; int -> ulong assignment sign-extends.
  EXPECT_EQ(R.Out[2], static_cast<uint64_t>(int64_t{-3}));
  EXPECT_EQ(R.Out[3], 9u);
  EXPECT_EQ(R.Out[4], 5u);
  EXPECT_EQ(R.Out[5], 127u);
  EXPECT_EQ(R.Out[6], 7u);
  EXPECT_EQ(R.Out[7], 1u);
}

TEST(VmTest, SafeMathGuards) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  out[0] = safe_div(7, 0);\n"
                     "  out[1] = safe_mod(9, 0);\n"
                     "  out[2] = safe_lshift(1, 33);\n"
                     "  out[3] = safe_unary_minus(5);\n"
                     "  out[4] = safe_clamp(5, 9, 1);\n"
                     "}\n",
                     groupOf(8));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 7u);
  EXPECT_EQ(R.Out[1], 9u);
  EXPECT_EQ(R.Out[2], 2u); // shift amount masked to 1
  EXPECT_EQ(R.Out[3], static_cast<uint64_t>(int64_t{-5}));
  EXPECT_EQ(R.Out[4], 5u); // min > max falls back to x
}

//===----------------------------------------------------------------------===//
// Traps, timeouts, divergence
//===----------------------------------------------------------------------===//

TEST(VmTest, DivisionByZeroTraps) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int z = 0;\n"
                     "  out[0] = 5 / z;\n"
                     "}\n",
                     single());
  EXPECT_EQ(R.LR.Status, LaunchStatus::Trap);
}

TEST(VmTest, OutOfBoundsTraps) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  out[1000000] = 1;\n"
                     "}\n",
                     single());
  EXPECT_EQ(R.LR.Status, LaunchStatus::Trap);
}

TEST(VmTest, NullDereferenceTraps) {
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  int *p = 0;\n"
                     "  out[0] = *p;\n"
                     "}\n",
                     single());
  EXPECT_EQ(R.LR.Status, LaunchStatus::Trap);
}

TEST(VmTest, InfiniteLoopTimesOut) {
  LaunchOptions Opts;
  Opts.StepBudget = 100000;
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  for (;;) { out[0] = out[0] + 1; }\n"
                     "}\n",
                     single(), CodegenOptions(), {}, &Opts);
  EXPECT_EQ(R.LR.Status, LaunchStatus::Timeout);
}

TEST(VmTest, BarrierDivergenceDetected) {
  // Half the group executes an extra barrier: undefined behaviour, and
  // our device flags it rather than hanging.
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  if (get_local_id(0) < 2) barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = 1;\n"
      "}\n",
      groupOf(4));
  EXPECT_EQ(R.LR.Status, LaunchStatus::BarrierDivergence);
}

TEST(VmTest, BarrierLoopTripCountDivergence) {
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  for (uint i = 0; i < get_local_id(0) + 1u; i++)\n"
      "    barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = 1;\n"
      "}\n",
      groupOf(2));
  EXPECT_EQ(R.LR.Status, LaunchStatus::BarrierDivergence);
}

//===----------------------------------------------------------------------===//
// Communication: barriers, local memory, atomics
//===----------------------------------------------------------------------===//

TEST(VmTest, LocalMemoryNeighbourExchange) {
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  local uint A[8];\n"
      "  uint lid = (uint)get_local_id(0);\n"
      "  A[lid] = lid * 10u;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = A[(lid + 1u) % 8u];\n"
      "}\n",
      groupOf(8));
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  for (uint32_t I = 0; I != 8; ++I)
    EXPECT_EQ(R.Out[I], ((I + 1) % 8) * 10);
}

TEST(VmTest, AtomicReductionIsScheduleInvariant) {
  const std::string Src =
      "kernel void k(global ulong *out) {\n"
      "  local uint r[1];\n"
      "  if (get_local_id(0) == 0u) r[0] = 0u;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  atomic_add(&r[0], (uint)get_local_id(0) + 1u);\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = r[0];\n"
      "}\n";
  std::vector<uint64_t> First;
  for (uint64_t Seed = 0; Seed != 5; ++Seed) {
    LaunchOptions Opts;
    Opts.SchedulerSeed = Seed * 7919 + 1;
    auto R = runKernel(Src, groupOf(16), CodegenOptions(), {}, &Opts);
    ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
    if (Seed == 0)
      First = R.Out;
    else
      EXPECT_EQ(R.Out, First) << "seed " << Seed;
  }
  EXPECT_EQ(First[0], (16u * 17u) / 2);
}

TEST(VmTest, AtomicSectionWinnerVariesButSumIsStable) {
  // One thread (scheduling-dependent) enters the section; the special
  // value accumulates deterministically.
  const std::string Src =
      "kernel void k(global ulong *out) {\n"
      "  local uint c[1];\n"
      "  local uint s[1];\n"
      "  if (get_local_id(0) == 0u) { c[0] = 0u; s[0] = 0u; }\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  if (atomic_inc(&c[0]) == 3u) {\n"
      "    int v = 17;\n"
      "    atomic_add(&s[0], (uint)v);\n"
      "  }\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = s[0];\n"
      "}\n";
  for (uint64_t Seed = 0; Seed != 4; ++Seed) {
    LaunchOptions Opts;
    Opts.SchedulerSeed = Seed;
    auto R = runKernel(Src, groupOf(8), CodegenOptions(), {}, &Opts);
    ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
    for (uint64_t V : R.Out)
      EXPECT_EQ(V, 17u);
  }
}

TEST(VmTest, AtomicCmpxchg) {
  // One work-group of one thread, but a 4-slot out buffer via the
  // global size trick: launch 1 thread, index out[] directly.
  NDRange R1;
  R1.Global[0] = 4;
  R1.Local[0] = 4;
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  local uint c[1];\n"
                     "  if (get_local_id(0) == 0u) {\n"
                     "    c[0] = 5u;\n"
                     "    out[0] = atomic_cmpxchg(&c[0], 5u, 9u);\n"
                     "    out[1] = c[0];\n"
                     "    out[2] = atomic_cmpxchg(&c[0], 5u, 11u);\n"
                     "    out[3] = c[0];\n"
                     "  }\n"
                     "}\n",
                     R1);
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 5u);
  EXPECT_EQ(R.Out[1], 9u);
  EXPECT_EQ(R.Out[2], 9u);
  EXPECT_EQ(R.Out[3], 9u); // second exchange fails, value unchanged
}

TEST(VmTest, MultiGroupIsolation) {
  NDRange R3;
  R3.Global[0] = 12;
  R3.Local[0] = 4;
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  local uint acc[1];\n"
      "  if (get_local_id(0) == 0u) acc[0] = (uint)get_group_id(0);\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = acc[0];\n"
      "}\n",
      R3);
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  for (uint32_t I = 0; I != 12; ++I)
    EXPECT_EQ(R.Out[I], I / 4);
}

//===----------------------------------------------------------------------===//
// The private arena: poisoned on first reach, bounded like before
//===----------------------------------------------------------------------===//

namespace {

/// A compiled kernel together with the AST context its bytecode's
/// types live in.
struct CompiledKernel {
  std::unique_ptr<ASTContext> Ctx = std::make_unique<ASTContext>();
  CompiledModule Module;
};

CompiledKernel compileKernel(const std::string &Source) {
  CompiledKernel K;
  DiagEngine Diags;
  EXPECT_TRUE(parseProgram(Source, *K.Ctx, Diags)) << Diags.str();
  EXPECT_TRUE(checkProgram(*K.Ctx, Diags)) << Diags.str();
  CodegenResult CR = compileToBytecode(*K.Ctx);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  K.Module = std::move(CR.Module);
  return K;
}

/// Launches \p K (one `global ulong *out` parameter, \p Words words
/// per work-item) on \p Vm, returning the result and the out words.
KernelRun launchOn(VmInstance &Vm, const CompiledKernel &K, NDRange Range,
                   unsigned Words) {
  std::vector<Buffer> Buffers(1);
  Buffers[0].Bytes.assign(Range.globalLinear() * Words * 8, 0);
  LaunchOptions Opts;
  Opts.Range = Range;
  KernelRun R;
  R.LR = Vm.launch(K.Module, Buffers, {KernelArg::buffer(0)}, Opts);
  for (uint64_t I = 0; I != Range.globalLinear() * Words; ++I)
    R.Out.push_back(Buffers[0].readScalar(I * 8, 8));
  return R;
}

/// Reads two private words above its frame — one 256 bytes up, one
/// 16 KB up — then writes both. The reads are uint loads into uint
/// locals, so they take the scalar fast path (privateBytes).
const char *AboveFrameKernel =
    "kernel void k(global ulong *out) {\n"
    "  uint x = 1u;\n"
    "  uint *p = &x;\n"
    "  uint near = p[64];\n"
    "  uint far = p[4000];\n"
    "  out[2u * get_global_id(0)] = near;\n"
    "  out[2u * get_global_id(0) + 1u] = far;\n"
    "  p[64] = 7u;\n"
    "  p[4000] = 9u;\n"
    "}\n";

} // namespace

TEST(VmTest, PrivateBytesAboveAFrameReadPoisonFreshAndAfterReuse) {
  CompiledKernel K = compileKernel(AboveFrameKernel);
  VmInstance Vm;
  // The second launch runs behind one that wrote both words.
  for (int Launch = 0; Launch != 2; ++Launch) {
    KernelRun R = launchOn(Vm, K, groupOf(4), 2);
    ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
    for (uint64_t W : R.Out)
      EXPECT_EQ(W, 0xababababu) << "launch " << Launch;
  }
}

TEST(VmTest, WideThenNarrowLaunchOnOneInstanceMatchesFreshEngines) {
  CompiledKernel K = compileKernel(AboveFrameKernel);
  VmInstance Reused;
  for (uint32_t N : {256u, 1u}) {
    KernelRun OnReused = launchOn(Reused, K, groupOf(N), 2);
    VmInstance Fresh;
    KernelRun OnFresh = launchOn(Fresh, K, groupOf(N), 2);
    ASSERT_TRUE(OnReused.LR.ok()) << OnReused.LR.Message;
    EXPECT_EQ(OnReused.LR.Status, OnFresh.LR.Status) << N;
    EXPECT_EQ(OnReused.LR.StepsExecuted, OnFresh.LR.StepsExecuted) << N;
    EXPECT_EQ(OnReused.Out, OnFresh.Out) << N;
  }
}

TEST(VmTest, OutOfArenaAccessesTrapAtTheSameStep) {
  // The step counts are those of the eagerly poisoned arena: poisoning
  // on first reach must not move where an access past the arena's
  // 64 KiB traps, on a load or on a store.
  struct Case {
    const char *Access;
    const char *Message;
    uint64_t Steps;
  };
  for (const Case &C :
       {Case{"out[1] = p[20000];", "thread 0: out-of-bounds access (load)",
             27},
        Case{"p[20000] = 3u;", "thread 0: out-of-bounds access (store)",
             24}}) {
    CompiledKernel K =
        compileKernel(std::string("kernel void k(global ulong *out) {\n"
                                  "  uint x = 1u;\n"
                                  "  uint *p = &x;\n"
                                  "  out[0] = p[8];\n  ") +
                      C.Access + "\n}\n");
    VmInstance Vm;
    KernelRun R = launchOn(Vm, K, single(), 2);
    EXPECT_EQ(R.LR.Status, LaunchStatus::Trap) << C.Access;
    EXPECT_EQ(R.LR.Message, C.Message) << C.Access;
    EXPECT_EQ(R.LR.StepsExecuted, C.Steps) << C.Access;
  }
}

TEST(VmTest, EntryFrameLargerThanTheArenaTrapsOnEveryBackend) {
  // An 80 KB kernel frame cannot fit a 64 KiB private arena: the launch
  // traps as a Call whose frame does not fit does, never writes past
  // the arena, and every backend reports the same Crash.
  TestCase T;
  T.Name = "oversized frame";
  T.Source = "kernel void k(global ulong *out) {\n"
             "  int big[20000];\n"
             "  big[19999] = 1;\n"
             "  out[0] = big[19999];\n"
             "}\n";
  BufferSpec Out;
  Out.InitBytes.assign(8, 0);
  Out.IsOutput = true;
  T.Buffers.push_back(Out);
  std::vector<ExecJob> Jobs = {ExecJob::onReference(T, false, RunSettings())};
  for (BackendKind Kind :
       {BackendKind::Inline, BackendKind::Threads, BackendKind::Procs}) {
    std::vector<RunOutcome> Got =
        makeBackend(ExecOptions::withBackend(Kind, 2))->run(Jobs);
    ASSERT_EQ(Got.size(), 1u);
    EXPECT_EQ(Got[0].Status, RunStatus::Crash) << backendKindName(Kind);
    EXPECT_EQ(Got[0].Message, "thread 0: private memory exhausted")
        << backendKindName(Kind);
  }
}

//===----------------------------------------------------------------------===//
// Race detection
//===----------------------------------------------------------------------===//

TEST(VmTest, RaceDetectorFlagsUnsyncLocalWrite) {
  LaunchOptions Opts;
  Opts.DetectRaces = true;
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  local uint A[1];\n"
                     "  A[0] = (uint)get_local_id(0);\n" // racy write
                     "  out[get_global_id(0)] = A[0];\n"
                     "}\n",
                     groupOf(4), CodegenOptions(), {}, &Opts);
  EXPECT_TRUE(R.LR.RaceFound) << "expected a data race report";
}

TEST(VmTest, RaceDetectorAcceptsBarrierSeparation) {
  LaunchOptions Opts;
  Opts.DetectRaces = true;
  auto R = runKernel(
      "kernel void k(global ulong *out) {\n"
      "  local uint A[4];\n"
      "  A[get_local_id(0)] = 1u;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  out[get_global_id(0)] = A[(get_local_id(0) + 1u) % 4u];\n"
      "}\n",
      groupOf(4), CodegenOptions(), {}, &Opts);
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_FALSE(R.LR.RaceFound) << R.LR.RaceMessage;
}

TEST(VmTest, RaceDetectorAcceptsAtomics) {
  LaunchOptions Opts;
  Opts.DetectRaces = true;
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  local uint c[1];\n"
                     "  if (get_local_id(0) == 0u) c[0] = 0u;\n"
                     "  barrier(CLK_LOCAL_MEM_FENCE);\n"
                     "  atomic_inc(&c[0]);\n"
                     "  barrier(CLK_LOCAL_MEM_FENCE);\n"
                     "  out[get_global_id(0)] = c[0];\n"
                     "}\n",
                     groupOf(4), CodegenOptions(), {}, &Opts);
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_FALSE(R.LR.RaceFound) << R.LR.RaceMessage;
}

TEST(VmTest, RaceDetectorFlagsCrossGroupConflict) {
  NDRange R2;
  R2.Global[0] = 8;
  R2.Local[0] = 4;
  LaunchOptions Opts;
  Opts.DetectRaces = true;
  auto R = runKernel("kernel void k(global ulong *out) {\n"
                     "  out[0] = get_global_id(0);\n" // all threads write
                     "}\n",
                     R2, CodegenOptions(), {}, &Opts);
  EXPECT_TRUE(R.LR.RaceFound);
}

//===----------------------------------------------------------------------===//
// Bug models behave as the paper reports
//===----------------------------------------------------------------------===//

namespace {

const char *Fig1aSource =
    "struct S { char a; short b; };\n"
    "kernel void k(global ulong *out) {\n"
    "  struct S s = { 1, 1 };\n"
    "  out[get_global_id(0)] = s.a + s.b;\n"
    "}\n";

const char *Fig2aSource =
    "struct S { short c; long d; };\n"
    "union U { uint a; struct S b; };\n"
    "struct T { union U u[1]; ulong x; ulong y; };\n"
    "kernel void k(global ulong *out, global int *in) {\n"
    "  struct T c;\n"
    "  struct T t = { {{1}}, in[get_global_id(0)], in[get_global_id(1)] };\n"
    "  c = t;\n"
    "  ulong total = 0;\n"
    "  for (int i = 0; i < 1; i++) total += c.u[i].a;\n"
    "  out[get_global_id(0)] = total;\n"
    "}\n";

const char *Fig2fSource =
    "kernel void k(global ulong *out) {\n"
    "  short x = 1; uint y;\n"
    "  for (y = -1; y >= 1; ++y) { if (x , 1) break; }\n"
    "  out[get_global_id(0)] = y;\n"
    "}\n";

} // namespace

TEST(BugModelTest, Figure1aCorrectWithoutBug) {
  auto R = runKernel(Fig1aSource, single());
  ASSERT_TRUE(R.LR.ok());
  EXPECT_EQ(R.Out[0], 2u);
}

TEST(BugModelTest, Figure1aWrongWithCharStructBug) {
  CodegenOptions CG;
  CG.Layout.CharStructInitBug = true;
  auto R = runKernel(Fig1aSource, single(), CG);
  ASSERT_TRUE(R.LR.ok());
  // The paper reports result 1 (expected 2) for configurations 5+, 6+,
  // 16+.
  EXPECT_EQ(R.Out[0], 1u);
}

TEST(BugModelTest, Figure2aCorrectWithoutBug) {
  Buffer In;
  In.Space = AddressSpace::Global;
  In.Bytes.assign(8, 0);
  auto R = runKernel(Fig2aSource, single(), CodegenOptions(), {In});
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  EXPECT_EQ(R.Out[0], 1u);
}

TEST(BugModelTest, Figure2aWrongWithUnionInitBug) {
  CodegenOptions CG;
  CG.Layout.UnionInitBug = true;
  Buffer In;
  In.Space = AddressSpace::Global;
  In.Bytes.assign(8, 0);
  auto R = runKernel(Fig2aSource, single(), CG, {In});
  ASSERT_TRUE(R.LR.ok()) << R.LR.Message;
  // The paper reports 0xffff0001 (expected 1) for 1-, 2-, 3-, 4-.
  EXPECT_EQ(R.Out[0], 0xffff0001ull);
}

TEST(BugModelTest, Figure2fCorrectWithoutBug) {
  auto R = runKernel(Fig2fSource, single());
  ASSERT_TRUE(R.LR.ok());
  EXPECT_EQ(R.Out[0], 0xffffffffull);
}

TEST(BugModelTest, Figure2fWrongWithCommaBug) {
  CodegenOptions CG;
  CG.CommaDropsRhsBug = true;
  auto R = runKernel(Fig2fSource, single(), CG);
  ASSERT_TRUE(R.LR.ok());
  // The paper reports 0 (expected 0xffffffff) for configuration 19.
  EXPECT_EQ(R.Out[0], 0u);
}

TEST(BugModelTest, CharStructBugLeavesOtherStructsAlone) {
  CodegenOptions CG;
  CG.Layout.CharStructInitBug = true;
  auto R = runKernel("struct S { int a; short b; };\n"
                     "kernel void k(global ulong *out) {\n"
                     "  struct S s = { 1, 1 };\n"
                     "  out[get_global_id(0)] = s.a + s.b;\n"
                     "}\n",
                     single(), CG);
  ASSERT_TRUE(R.LR.ok());
  EXPECT_EQ(R.Out[0], 2u);
}

//===----------------------------------------------------------------------===//
// Layout engine
//===----------------------------------------------------------------------===//

TEST(LayoutTest, StandardStructLayout) {
  TypeContext T;
  RecordType *S = T.createRecord("S", false);
  S->addField({"a", T.charTy(), false});
  S->addField({"b", T.shortTy(), false});
  S->setComplete();
  LayoutEngine L;
  EXPECT_EQ(L.fieldOffset(S, 0), 0u);
  EXPECT_EQ(L.fieldOffset(S, 1), 2u);
  EXPECT_EQ(L.sizeOf(S), 4u);
  EXPECT_EQ(L.alignOf(S), 2u);
}

TEST(LayoutTest, UnionLayout) {
  TypeContext T;
  RecordType *U = T.createRecord("U", true);
  U->addField({"a", T.uintTy(), false});
  U->addField({"b", T.ulongTy(), false});
  U->setComplete();
  LayoutEngine L;
  EXPECT_EQ(L.sizeOf(U), 8u);
  EXPECT_EQ(L.fieldOffset(U, 0), 0u);
  EXPECT_EQ(L.fieldOffset(U, 1), 0u);
}

TEST(LayoutTest, VectorAlignment) {
  TypeContext T;
  LayoutEngine L;
  const Type *I4 = T.vector(T.intTy(), 4);
  EXPECT_EQ(L.sizeOf(I4), 16u);
  EXPECT_EQ(L.alignOf(I4), 16u);
  RecordType *S = T.createRecord("VS", false);
  S->addField({"c", T.charTy(), false});
  S->addField({"v", I4, false});
  S->setComplete();
  EXPECT_EQ(L.fieldOffset(S, 1), 16u);
  EXPECT_EQ(L.sizeOf(S), 32u);
}

TEST(LayoutTest, BuggedInitOffsetsArePacked) {
  TypeContext T;
  RecordType *S = T.createRecord("S", false);
  S->addField({"a", T.charTy(), false});
  S->addField({"b", T.shortTy(), false});
  S->setComplete();
  LayoutOptions LO;
  LO.CharStructInitBug = true;
  LayoutEngine L(LO);
  EXPECT_TRUE(L.charStructBugTriggers(S));
  EXPECT_EQ(L.initFieldOffset(S, 1), 1u);
  EXPECT_EQ(L.fieldOffset(S, 1), 2u); // reads stay padded
}
