//===- VmDispatchConformanceTest.cpp - Interpreter fast-path identity ------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// The interpreter's performance machinery — computed-goto dispatch,
/// superinstruction fusion, engine reuse across launches — is only
/// admissible because it is observationally invisible: every
/// combination must produce bit-identical launch results (status,
/// message, step count, race report, final buffer bytes). These tests
/// pin that contract directly at the VM layer, including the awkward
/// corners: a step budget expiring on the seam inside a fused pair,
/// and engine reuse immediately after a Trap or Timeout abandoned a
/// launch mid-flight with live operand stacks and dirty arenas.
///
//===----------------------------------------------------------------------===//

#include "minicl/Parser.h"
#include "minicl/Sema.h"
#include "vm/Codegen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>

using namespace clfuzz;

namespace {

/// Everything observable about one launch.
struct Snapshot {
  LaunchStatus Status = LaunchStatus::InvalidLaunch;
  std::string Message;
  uint64_t Steps = 0;
  bool RaceFound = false;
  std::string RaceMessage;
  std::vector<std::vector<uint8_t>> Buffers;

  bool operator==(const Snapshot &O) const {
    return Status == O.Status && Message == O.Message && Steps == O.Steps &&
           RaceFound == O.RaceFound && RaceMessage == O.RaceMessage &&
           Buffers == O.Buffers;
  }
};

/// Saves and restores the process-wide interpreter tuning so a failing
/// assertion cannot leak a mode into unrelated tests.
class VmConformanceTest : public ::testing::Test {
protected:
  void SetUp() override {
    SavedDispatch = vmDispatchMode();
    SavedFusion = vmFusionEnabled();
  }
  void TearDown() override {
    setVmDispatchMode(SavedDispatch);
    setVmFusionEnabled(SavedFusion);
  }

private:
  VmDispatch SavedDispatch = VmDispatch::Switch;
  bool SavedFusion = true;
};

/// A compiled module plus the ASTContext that owns the Type objects
/// its instructions reference — the context must outlive every launch.
struct Compiled {
  std::unique_ptr<ASTContext> Ctx;
  CompiledModule Module;
};

Compiled compile(const std::string &Source, bool Fused) {
  Compiled C;
  C.Ctx = std::make_unique<ASTContext>();
  DiagEngine Diags;
  EXPECT_TRUE(parseProgram(Source, *C.Ctx, Diags)) << Diags.str();
  EXPECT_TRUE(checkProgram(*C.Ctx, Diags)) << Diags.str();
  bool Prev = vmFusionEnabled();
  setVmFusionEnabled(Fused);
  CodegenResult CR = compileToBytecode(*C.Ctx);
  setVmFusionEnabled(Prev);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  C.Module = std::move(CR.Module);
  return C;
}

std::vector<Buffer> makeBuffers(const CompiledModule &M, uint64_t OutWords) {
  std::vector<Buffer> Buffers;
  Buffer Out;
  Out.Space = AddressSpace::Global;
  Out.Bytes.assign(OutWords * 8, 0);
  Buffers.push_back(std::move(Out));
  return Buffers;
}

/// Launches \p M on \p Inst (or a per-call fresh instance when null)
/// and snapshots everything observable.
Snapshot launchAndSnapshot(const CompiledModule &M, const NDRange &Range,
                           const LaunchOptions &Base,
                           VmInstance *Inst = nullptr) {
  std::vector<Buffer> Buffers = makeBuffers(M, Range.globalLinear());
  std::vector<KernelArg> Args;
  Args.resize(M.kernel().Params.size(), KernelArg::buffer(0));
  LaunchOptions Opts = Base;
  Opts.Range = Range;

  LaunchResult LR;
  if (Inst) {
    LR = Inst->launch(M, Buffers, Args, Opts);
  } else {
    VmInstance Fresh;
    LR = Fresh.launch(M, Buffers, Args, Opts);
  }

  Snapshot S;
  S.Status = LR.Status;
  S.Message = LR.Message;
  S.Steps = LR.StepsExecuted;
  S.RaceFound = LR.RaceFound;
  S.RaceMessage = LR.RaceMessage;
  for (const Buffer &B : Buffers)
    S.Buffers.push_back(B.Bytes);
  return S;
}

NDRange grid(uint32_t Global, uint32_t Local) {
  NDRange R;
  R.Global[0] = Global;
  R.Local[0] = Local;
  return R;
}

/// Kernels chosen to cover every fused pair (frame loads, constant
/// operands, comparison-into-branch, memory loads feeding converts)
/// plus the scheduler-visible features (barriers, atomics) and both
/// abnormal exits.
const char *ArithKernel =
    "kernel void k(global ulong *out) {\n"
    "  ulong acc = 1u;\n"
    "  int i = 0;\n"
    "  for (i = 0; i < 153; i = i + 1) {\n"
    "    acc = acc * 3u + (ulong)i;\n"
    "    if (acc > 1000000u) acc = acc % 97u;\n"
    "  }\n"
    "  out[get_global_id(0)] = acc + get_global_id(0);\n"
    "}\n";

const char *VectorKernel =
    "kernel void k(global ulong *out) {\n"
    "  int4 v = (int4)(1, 2, 3, 4);\n"
    "  int4 w = v * v + 7;\n"
    "  uint4 u = convert_uint4(w);\n"
    "  out[get_global_id(0)] =\n"
    "      (ulong)(u.x + u.y + u.z + u.w) + get_global_id(0);\n"
    "}\n";

const char *AtomicBarrierKernel =
    "kernel void k(global ulong *out) {\n"
    "  local uint r[1];\n"
    "  if (get_local_id(0) == 0u) r[0] = 0u;\n"
    "  barrier(CLK_LOCAL_MEM_FENCE);\n"
    "  atomic_add(&r[0], (uint)get_local_id(0) * 2u + 1u);\n"
    "  barrier(CLK_LOCAL_MEM_FENCE);\n"
    "  out[get_global_id(0)] = r[0] + get_global_id(0);\n"
    "}\n";

const char *TrapKernel =
    "kernel void k(global ulong *out) {\n"
    "  int i = 0;\n"
    "  int acc = 1;\n"
    "  for (i = 0; i < 40; i = i + 1) acc = acc + i * i;\n"
    "  out[1000000] = (ulong)acc;\n"
    "}\n";

const char *SpinKernel =
    "kernel void k(global ulong *out) {\n"
    "  uint i = 0u;\n"
    "  while (i < 400000000u) i = i + 1u;\n"
    "  out[0] = i;\n"
    "}\n";

struct Workload {
  const char *Name;
  const char *Source;
  NDRange Range;
  uint64_t SchedulerSeed;
};

std::vector<Workload> workloads() {
  return {
      {"arith", ArithKernel, grid(8, 4), 11},
      {"vector", VectorKernel, grid(4, 4), 23},
      {"atomic", AtomicBarrierKernel, grid(16, 8), 5},
      {"trap", TrapKernel, grid(2, 2), 3},
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Dispatch strategies
//===----------------------------------------------------------------------===//

TEST_F(VmConformanceTest, SwitchAndGotoAreBitIdentical) {
  if (!vmHasGotoDispatch())
    GTEST_SKIP() << "computed-goto dispatch not compiled in";
  for (const Workload &W : workloads()) {
    Compiled M = compile(W.Source, /*Fused=*/true);
    LaunchOptions Opts;
    Opts.SchedulerSeed = W.SchedulerSeed;
    setVmDispatchMode(VmDispatch::Switch);
    Snapshot SwitchSnap = launchAndSnapshot(M.Module, W.Range, Opts);
    setVmDispatchMode(VmDispatch::Goto);
    Snapshot GotoSnap = launchAndSnapshot(M.Module, W.Range, Opts);
    EXPECT_TRUE(SwitchSnap == GotoSnap) << W.Name;
  }
}

TEST_F(VmConformanceTest, GotoRequestDegradesToSwitchWhenUnavailable) {
  setVmDispatchMode(VmDispatch::Goto);
  if (vmHasGotoDispatch())
    EXPECT_EQ(vmDispatchMode(), VmDispatch::Goto);
  else
    EXPECT_EQ(vmDispatchMode(), VmDispatch::Switch);
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

TEST_F(VmConformanceTest, FusedAndUnfusedAreBitIdentical) {
  for (const Workload &W : workloads()) {
    Compiled Fused = compile(W.Source, /*Fused=*/true);
    Compiled Plain = compile(W.Source, /*Fused=*/false);
    LaunchOptions Opts;
    Opts.SchedulerSeed = W.SchedulerSeed;
    Snapshot A = launchAndSnapshot(Fused.Module, W.Range, Opts);
    Snapshot B = launchAndSnapshot(Plain.Module, W.Range, Opts);
    EXPECT_TRUE(A == B) << W.Name;
  }
}

TEST_F(VmConformanceTest, PeepholeActuallyFusesTheHotKernel) {
  // The identity tests above would pass vacuously if the peephole
  // never fired; pin that the arithmetic kernel genuinely fuses.
  Compiled M = compile(ArithKernel, /*Fused=*/false);
  EXPECT_GT(fuseSuperinstructions(M.Module), 0u);
}

TEST_F(VmConformanceTest, StepBudgetSeamSweep) {
  // Exhaust the budget at every possible point of the kernel,
  // including mid-superinstruction: a fused pair interrupted after its
  // first half must leave exactly the state the unfused program would
  // (same steps, same buffer bytes), or the Timeout outcome and any
  // later resumed launch would diverge between fused and plain code.
  Compiled Fused = compile(ArithKernel, /*Fused=*/true);
  Compiled Plain = compile(ArithKernel, /*Fused=*/false);
  NDRange Range = grid(2, 2);
  for (uint64_t Budget = 1; Budget <= 600; Budget += 7) {
    LaunchOptions Opts;
    Opts.StepBudget = Budget;
    Snapshot A = launchAndSnapshot(Fused.Module, Range, Opts);
    Snapshot B = launchAndSnapshot(Plain.Module, Range, Opts);
    EXPECT_TRUE(A == B) << "budget " << Budget;
  }
}

//===----------------------------------------------------------------------===//
// Engine reuse
//===----------------------------------------------------------------------===//

TEST_F(VmConformanceTest, ReusedEngineMatchesFreshEngines) {
  VmInstance Reused;
  for (int Round = 0; Round != 3; ++Round) {
    for (const Workload &W : workloads()) {
      Compiled M = compile(W.Source, /*Fused=*/true);
      LaunchOptions Opts;
      Opts.SchedulerSeed = W.SchedulerSeed + Round;
      Snapshot OnReused = launchAndSnapshot(M.Module, W.Range, Opts, &Reused);
      Snapshot OnFresh = launchAndSnapshot(M.Module, W.Range, Opts);
      EXPECT_TRUE(OnReused == OnFresh) << W.Name << " round " << Round;
    }
  }
}

TEST_F(VmConformanceTest, ReuseAfterTrapIsClean) {
  // A trap abandons the launch with operand stacks, frames and arenas
  // mid-flight; the next launch on the same engine must behave as if
  // the engine were fresh.
  VmInstance Reused;
  Compiled Trap = compile(TrapKernel, /*Fused=*/true);
  Snapshot T =
      launchAndSnapshot(Trap.Module, grid(2, 2), LaunchOptions(), &Reused);
  ASSERT_EQ(T.Status, LaunchStatus::Trap);

  Compiled M = compile(ArithKernel, /*Fused=*/true);
  LaunchOptions Opts;
  Opts.SchedulerSeed = 11;
  Snapshot After = launchAndSnapshot(M.Module, grid(8, 4), Opts, &Reused);
  Snapshot Fresh = launchAndSnapshot(M.Module, grid(8, 4), Opts);
  EXPECT_TRUE(After == Fresh);
}

TEST_F(VmConformanceTest, ReuseAfterTimeoutIsClean) {
  VmInstance Reused;
  Compiled Spin = compile(SpinKernel, /*Fused=*/true);
  LaunchOptions Tight;
  Tight.StepBudget = 1000;
  Snapshot T = launchAndSnapshot(Spin.Module, grid(4, 4), Tight, &Reused);
  ASSERT_EQ(T.Status, LaunchStatus::Timeout);

  Compiled M = compile(AtomicBarrierKernel, /*Fused=*/true);
  LaunchOptions Opts;
  Opts.SchedulerSeed = 5;
  Snapshot After = launchAndSnapshot(M.Module, grid(16, 8), Opts, &Reused);
  Snapshot Fresh = launchAndSnapshot(M.Module, grid(16, 8), Opts);
  EXPECT_TRUE(After == Fresh);
}

//===----------------------------------------------------------------------===//
// Operand-slot reuse
//===----------------------------------------------------------------------===//

namespace {

/// A kernel no MiniCL source compiles to: it leaves 16-lane vectors in
/// dead operand slots, then pushes scalars into those slots and feeds
/// them to the two handlers that read past an operand's lane count —
/// VecShuffle on a scalar, BuiltinEval with a vector first and a scalar
/// second operand. A pushed scalar's lanes above 0 must read as zero,
/// so the kernel writes out[0] = 0 and out[1] = 4.
Compiled deadSlotKernel(bool Fused) {
  Compiled C = compile("kernel void k(global ulong *out) { out[0] = 0u; }",
                       /*Fused=*/false);
  TypeContext &Types = C.Ctx->types();
  const ScalarType *ULong = Types.ulongTy();
  CompiledFunction &K = C.Module.Functions[C.Module.KernelIndex];
  std::vector<Insn> &Code = K.Code;
  Code.clear();
  auto Emit = [&Code](Op O, uint32_t A, uint32_t B, uint64_t Imm,
                      const Type *Ty) {
    Insn I;
    I.Opcode = O;
    I.A = A;
    I.B = B;
    I.Imm = Imm;
    I.Ty = Ty;
    Code.push_back(I);
  };
  // Two 16-lane vectors built above [out, out] and popped again.
  auto DirtyTwoSlots = [&] {
    for (uint64_t Base : {1, 101}) {
      for (uint64_t L = 0; L != 16; ++L)
        Emit(Op::PushConst, 0, 0, Base + L, ULong);
      Emit(Op::VecBuild, 16, 0, 0, Types.vector(ULong, 16));
    }
    Emit(Op::Pop, 0, 0, 0, nullptr);
    Emit(Op::Pop, 0, 0, 0, nullptr);
  };
  Emit(Op::FrameAddr, 0, 0, K.Params[0].FrameOffset, nullptr);
  Emit(Op::Load, 0, 0, 0, K.Params[0].Ty); // [out]
  // out[0] = ((ulong2)(7, lane 9 of the scalar 7)).s1
  Emit(Op::Dup, 0, 0, 0, nullptr);
  DirtyTwoSlots();
  Emit(Op::PushConst, 0, 0, 7, ULong);
  Emit(Op::VecShuffle, 2, 0, (9u << 4) | 0u, Types.vector(ULong, 2));
  Emit(Op::VecExtract, 1, 0, 0, ULong);
  Emit(Op::Store, 0, 0, 0, ULong);
  // out[1] = max((ulong4)(1, 2, 3, 4), a scalar 0 taken lane-wise).s3
  Emit(Op::Dup, 0, 0, 0, nullptr);
  Emit(Op::GepConst, 0, 0, 8, nullptr);
  DirtyTwoSlots();
  for (uint64_t L = 1; L <= 4; ++L)
    Emit(Op::PushConst, 0, 0, L, ULong);
  Emit(Op::VecBuild, 4, 0, 0, Types.vector(ULong, 4));
  Emit(Op::PushConst, 0, 0, 0, ULong);
  Emit(Op::BuiltinEval, static_cast<uint32_t>(Builtin::Max), 2, 0,
       Types.vector(ULong, 4));
  Emit(Op::VecExtract, 3, 0, 0, ULong);
  Emit(Op::Store, 0, 0, 0, ULong);
  Emit(Op::Pop, 0, 0, 0, nullptr);
  Emit(Op::RetVoid, 0, 0, 0, nullptr);
  if (Fused) {
    EXPECT_GT(fuseSuperinstructions(C.Module), 0u);
  }
  decodeTypeFacts(C.Module);
  return C;
}

const char *Vector16Kernel =
    "kernel void k(global ulong *out) {\n"
    "  ulong16 v = (ulong16)(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,\n"
    "                        9u, 10u, 11u, 12u, 13u, 14u, 15u, 16u);\n"
    "  ulong16 w = v * v + v;\n"
    "  out[get_global_id(0)] = w.sf + w.s7;\n"
    "}\n";

} // namespace

TEST_F(VmConformanceTest, DeadOperandSlotsReadAsZero) {
  // One engine runs a vector-heavy kernel and then the dead-slot
  // kernel twice; every run must equal a fresh engine's and hold the
  // known answer, under every dispatch x fusion setting.
  std::vector<VmDispatch> Dispatches = {VmDispatch::Switch};
  if (vmHasGotoDispatch())
    Dispatches.push_back(VmDispatch::Goto);
  NDRange Range = grid(2, 2);
  for (VmDispatch D : Dispatches)
    for (bool Fused : {false, true}) {
      std::string Ctx = std::string(vmDispatchName(D)) +
                        (Fused ? " fused" : " unfused");
      setVmDispatchMode(D);
      Compiled Wide = compile(Vector16Kernel, Fused);
      Compiled Dead = deadSlotKernel(Fused);
      VmInstance Reused;
      LaunchOptions Opts;
      launchAndSnapshot(Wide.Module, Range, Opts, &Reused);
      for (int Round = 0; Round != 2; ++Round) {
        Snapshot OnReused = launchAndSnapshot(Dead.Module, Range, Opts,
                                              &Reused);
        Snapshot OnFresh = launchAndSnapshot(Dead.Module, Range, Opts);
        EXPECT_TRUE(OnReused == OnFresh) << Ctx << " round " << Round;
        ASSERT_EQ(OnReused.Status, LaunchStatus::Success) << Ctx;
        std::vector<uint8_t> Want(16, 0);
        Want[8] = 4;
        EXPECT_EQ(OnReused.Buffers[0], Want) << Ctx << " round " << Round;
        EXPECT_EQ(OnFresh.Buffers[0], Want) << Ctx << " round " << Round;
      }
    }
}

TEST_F(VmConformanceTest, ReuseCountersAdvance) {
  VmInstance Reused;
  Compiled M = compile(ArithKernel, /*Fused=*/true);
  VmCounters Before = vmCounters();
  LaunchOptions Opts;
  launchAndSnapshot(M.Module, grid(4, 4), Opts, &Reused);
  launchAndSnapshot(M.Module, grid(4, 4), Opts, &Reused);
  VmCounters After = vmCounters();
  EXPECT_EQ(After.Launches, Before.Launches + 2);
  EXPECT_GE(After.EngineReuses, Before.EngineReuses + 1);
  EXPECT_GT(After.Instructions, Before.Instructions);
  EXPECT_GT(After.FusedExecuted, Before.FusedExecuted);
}
