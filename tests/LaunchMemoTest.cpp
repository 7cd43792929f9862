//===- LaunchMemoTest.cpp - Column-scoped launch memo ----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The launch memo (device/Driver.h, docs/vm.md) replays a column's
// earlier launch instead of running the VM again. It is admissible only
// because a replay is indistinguishable from a fresh launch. This suite
// pins the reuse rule at the budget seams (a Success serves any budget
// covering its steps; Timeout and Trap only their own budget), that
// every key component separates launches, that keys are structural
// (a cloned context's module hits), that fault-injection cells bypass
// the memo, and that whole-zoo columns equal per-cell execution.
//
//===----------------------------------------------------------------------===//

#include "device/DeviceConfig.h"
#include "device/Driver.h"
#include "exec/ExecBackend.h"
#include "gen/Generator.h"
#include "minicl/ASTClone.h"
#include "minicl/Parser.h"
#include "minicl/Sema.h"
#include "vm/Codegen.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace clfuzz;

namespace {

/// A summing kernel with a data-dependent loop: enough steps that the
/// budget seams below are far from the first slice.
const char *SumSource =
    "kernel void k(global ulong *out, global int *in) {\n"
    "  size_t g = get_global_id(0);\n"
    "  int acc = 0;\n"
    "  for (int i = 0; i < 24; i++)\n"
    "    acc += in[i % 4] * i;\n"
    "  out[g] = acc + (int)g;\n"
    "}\n";

struct Compiled {
  std::unique_ptr<ASTContext> Ctx;
  CompiledModule Module;
};

Compiled compile(const std::string &Source) {
  Compiled C;
  C.Ctx = std::make_unique<ASTContext>();
  DiagEngine Diags;
  EXPECT_TRUE(parseProgram(Source, *C.Ctx, Diags)) << Diags.str();
  EXPECT_TRUE(checkProgram(*C.Ctx, Diags)) << Diags.str();
  CodegenResult CR = compileToBytecode(*C.Ctx);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  C.Module = std::move(CR.Module);
  return C;
}

/// One launch's inputs: the output buffer first, then an int buffer.
struct Launch {
  std::vector<Buffer> Buffers;
  std::vector<KernelArg> Args;
  int OutIndex = 0;
  LaunchOptions Opts;
};

Launch sumLaunch() {
  Launch L;
  L.Opts.Range.Global[0] = 16;
  L.Opts.Range.Local[0] = 4;
  L.Opts.SchedulerSeed = 7;
  Buffer Out;
  Out.Bytes.assign(16 * 8, 0);
  Buffer In;
  for (int32_t V : {3, -1, 4, 1})
    for (int B = 0; B != 4; ++B)
      In.Bytes.push_back(static_cast<uint8_t>(V >> (8 * B)));
  L.Buffers = {Out, In};
  L.Args = {KernelArg::buffer(0), KernelArg::buffer(1)};
  return L;
}

struct Result {
  LaunchResult LR;
  std::vector<uint8_t> Out;
  bool Hit = false;
};

/// A launch through \p Memo on a private copy of \p L's buffers.
Result viaMemo(LaunchMemo &Memo, const CompiledModule &M, Launch L) {
  uint64_t Hits0 = vmCounters().MemoHits;
  uint64_t Launches0 = vmCounters().Launches;
  Result R;
  R.LR = Memo.launch(M, L.Buffers, L.Args, L.OutIndex, L.Opts);
  R.Out = L.Buffers[L.OutIndex].Bytes;
  R.Hit = vmCounters().MemoHits - Hits0 == 1;
  // Exactly one of the two counters moves per launch.
  EXPECT_EQ(vmCounters().Launches - Launches0, R.Hit ? 0u : 1u);
  return R;
}

/// The same launch without a memo.
Result fresh(const CompiledModule &M, Launch L) {
  Result R;
  R.LR = launchKernel(M, L.Buffers, L.Args, L.Opts);
  R.Out = L.Buffers[L.OutIndex].Bytes;
  return R;
}

void expectSame(const Result &A, const Result &B, const std::string &What) {
  EXPECT_EQ(A.LR.Status, B.LR.Status) << What;
  EXPECT_EQ(A.LR.Message, B.LR.Message) << What;
  EXPECT_EQ(A.LR.StepsExecuted, B.LR.StepsExecuted) << What;
  EXPECT_EQ(A.LR.RaceFound, B.LR.RaceFound) << What;
  EXPECT_EQ(A.LR.RaceMessage, B.LR.RaceMessage) << What;
  EXPECT_EQ(A.Out, B.Out) << What;
}

Launch withBudget(uint64_t Budget) {
  Launch L = sumLaunch();
  L.Opts.StepBudget = Budget;
  return L;
}

void expectSameOutcome(const RunOutcome &A, const RunOutcome &B,
                       const std::string &What) {
  EXPECT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(A.Message, B.Message) << What;
  EXPECT_EQ(A.OutputHash, B.OutputHash) << What;
  EXPECT_EQ(A.OutputHead, B.OutputHead) << What;
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.RaceFound, B.RaceFound) << What;
  EXPECT_EQ(A.RaceMessage, B.RaceMessage) << What;
}

} // namespace

TEST(LaunchMemoTest, SuccessServesEveryBudgetCoveringItsSteps) {
  Compiled C = compile(SumSource);
  Result Full = fresh(C.Module, sumLaunch());
  ASSERT_EQ(Full.LR.Status, LaunchStatus::Success);
  uint64_t S = Full.LR.StepsExecuted;
  ASSERT_GT(S, 1000u);

  LaunchMemo Memo;
  Result First = viaMemo(Memo, C.Module, withBudget(S));
  EXPECT_FALSE(First.Hit);
  expectSame(First, fresh(C.Module, withBudget(S)), "budget S, miss");
  for (uint64_t Budget : {S, S + 1, 4 * S}) {
    Result R = viaMemo(Memo, C.Module, withBudget(Budget));
    EXPECT_TRUE(R.Hit) << "budget " << Budget;
    expectSame(R, fresh(C.Module, withBudget(Budget)),
               "budget " + std::to_string(Budget));
  }

  // One step short of the Success: the memo must not replay it.
  Result Short = viaMemo(Memo, C.Module, withBudget(S - 1));
  EXPECT_FALSE(Short.Hit);
  EXPECT_EQ(Short.LR.Status, LaunchStatus::Timeout);
  expectSame(Short, fresh(C.Module, withBudget(S - 1)), "budget S-1");
}

TEST(LaunchMemoTest, TimeoutServesOnlyItsOwnBudget) {
  Compiled C = compile(SumSource);
  uint64_t S = fresh(C.Module, sumLaunch()).LR.StepsExecuted;
  uint64_t B = S / 2;

  LaunchMemo Memo;
  Result First = viaMemo(Memo, C.Module, withBudget(B));
  ASSERT_EQ(First.LR.Status, LaunchStatus::Timeout);
  EXPECT_FALSE(First.Hit);
  Result Again = viaMemo(Memo, C.Module, withBudget(B));
  EXPECT_TRUE(Again.Hit);
  expectSame(Again, fresh(C.Module, withBudget(B)), "equal budget");
  for (uint64_t Other : {B - 1, B + 1}) {
    Result R = viaMemo(Memo, C.Module, withBudget(Other));
    EXPECT_FALSE(R.Hit) << "budget " << Other;
    expectSame(R, fresh(C.Module, withBudget(Other)),
               "budget " + std::to_string(Other));
  }
}

TEST(LaunchMemoTest, TrapServesOnlyItsOwnBudget) {
  Compiled C = compile("kernel void k(global ulong *out, global int *in) {\n"
                       "  int z = in[1] + 1;\n"
                       "  out[get_global_id(0)] = 5 / z;\n"
                       "}\n");
  Launch L = sumLaunch(); // in[1] == -1: the division traps
  L.Opts.StepBudget = 100000;
  LaunchMemo Memo;
  Result First = viaMemo(Memo, C.Module, L);
  ASSERT_EQ(First.LR.Status, LaunchStatus::Trap);
  EXPECT_FALSE(First.Hit);
  Result Again = viaMemo(Memo, C.Module, L);
  EXPECT_TRUE(Again.Hit);
  expectSame(Again, fresh(C.Module, L), "equal budget");
  L.Opts.StepBudget += 1;
  Result Larger = viaMemo(Memo, C.Module, L);
  EXPECT_FALSE(Larger.Hit);
  expectSame(Larger, fresh(C.Module, L), "larger budget");
}

TEST(LaunchMemoTest, EveryKeyComponentSeparatesLaunches) {
  Compiled C = compile(SumSource);
  const TypeContext &Types = C.Ctx->types();

  // Each variant differs from the base launch in exactly one key
  // component; each gets a fresh memo that has seen the base launch.
  struct Variant {
    const char *What;
    CompiledModule Module;
    Launch L;
  };
  std::vector<Variant> Variants;
  auto Add = [&](const char *What) -> Variant & {
    Variants.push_back(Variant{What, C.Module, sumLaunch()});
    return Variants.back();
  };

  {
    Variant &V = Add("Insn::Ty int -> uint");
    bool Flipped = false;
    for (Insn &I : V.Module.Functions[V.Module.KernelIndex].Code)
      if (I.Ty == Types.intTy()) {
        I.Ty = Types.uintTy();
        Flipped = true;
        break;
      }
    EXPECT_TRUE(Flipped);
    decodeTypeFacts(V.Module); // the VM reads the facts, not Ty
  }
  {
    Variant &V = Add("param frame offset");
    V.Module.Functions[V.Module.KernelIndex].Params[1].FrameOffset += 8;
  }
  Add("NumBarrierSites").Module.NumBarrierSites += 1;
  Add("LocalArenaSize").Module.LocalArenaSize += 16;
  Add("one input byte").L.Buffers[1].Bytes[0] ^= 1;
  Add("local size").L.Opts.Range.Local[0] = 8;
  Add("scheduler seed").L.Opts.SchedulerSeed += 1;
  Add("DetectRaces").L.Opts.DetectRaces = true;

  for (Variant &V : Variants) {
    LaunchMemo Memo;
    EXPECT_FALSE(viaMemo(Memo, C.Module, sumLaunch()).Hit) << V.What;
    Result R = viaMemo(Memo, V.Module, V.L);
    EXPECT_FALSE(R.Hit) << V.What;
    expectSame(R, fresh(V.Module, V.L), V.What);
  }
}

TEST(LaunchMemoTest, InvertDeadSeparatesLaunches) {
  TestCase T;
  T.Name = "dead array";
  T.Source = "kernel void k(global ulong *out, global int *dead) {\n"
             "  size_t g = get_global_id(0);\n"
             "  if (dead[1] > dead[2]) out[g] = 1; else out[g] = 2;\n"
             "}\n";
  T.Range.Global[0] = 4;
  T.Range.Local[0] = 2;
  BufferSpec Out;
  Out.InitBytes.assign(4 * 8, 0);
  Out.IsOutput = true;
  BufferSpec Dead;
  for (int32_t J = 0; J != 4; ++J)
    for (int B = 0; B != 4; ++B)
      Dead.InitBytes.push_back(static_cast<uint8_t>(J >> (8 * B)));
  Dead.IsDeadArray = true;
  T.Buffers = {Out, Dead};

  RunSettings Plain, Inverted;
  Inverted.InvertDead = true;
  LaunchMemo Memo;
  uint64_t Hits0 = vmCounters().MemoHits;
  RunOutcome A = runTestOnReference(T, false, Plain, nullptr, &Memo);
  RunOutcome B = runTestOnReference(T, false, Inverted, nullptr, &Memo);
  EXPECT_EQ(vmCounters().MemoHits, Hits0);
  expectSameOutcome(B, runTestOnReference(T, false, Inverted), "inverted");
  EXPECT_NE(A.OutputHash, B.OutputHash);
  // The same settings again are replays.
  RunOutcome A2 = runTestOnReference(T, false, Plain, nullptr, &Memo);
  RunOutcome B2 = runTestOnReference(T, false, Inverted, nullptr, &Memo);
  EXPECT_EQ(vmCounters().MemoHits, Hits0 + 2);
  expectSameOutcome(A2, A, "plain replay");
  expectSameOutcome(B2, B, "inverted replay");
}

TEST(LaunchMemoTest, ModuleFromClonedContextHits) {
  Compiled C = compile(SumSource);
  std::unique_ptr<ASTContext> Clone = cloneContext(*C.Ctx);
  CodegenResult CR = compileToBytecode(*Clone);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  // Different type objects, same structure.
  ASSERT_NE(C.Module.kernel().Params[0].Ty, CR.Module.kernel().Params[0].Ty);

  LaunchMemo Memo;
  EXPECT_FALSE(viaMemo(Memo, C.Module, sumLaunch()).Hit);
  Result R = viaMemo(Memo, CR.Module, sumLaunch());
  EXPECT_TRUE(R.Hit);
  expectSame(R, fresh(CR.Module, sumLaunch()), "cloned context");
}

TEST(LaunchMemoTest, FaultInjectionCellBypassesTheMemo) {
  GenOptions GO;
  GO.Seed = 11;
  GO.MinThreads = 16;
  GO.MaxThreads = 32;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  RunSettings Spin;
  Spin.DebugSpinMs = 1;

  ExecColumn Plain, WithSpin;
  Plain.Jobs = {ExecJob::onReference(T, false, RunSettings()),
                ExecJob::onReference(T, false, RunSettings())};
  WithSpin.Jobs = {ExecJob::onReference(T, false, RunSettings()),
                   ExecJob::onReference(T, false, Spin)};

  VmCounters V0 = vmCounters();
  std::vector<RunOutcome> P = runExecColumn(Plain);
  VmCounters V1 = vmCounters();
  EXPECT_EQ(V1.Launches - V0.Launches, 1u);
  EXPECT_EQ(V1.MemoHits - V0.MemoHits, 1u);

  std::vector<RunOutcome> S = runExecColumn(WithSpin);
  VmCounters V2 = vmCounters();
  EXPECT_EQ(V2.Launches - V1.Launches, 2u);
  EXPECT_EQ(V2.MemoHits - V1.MemoHits, 0u);
  for (size_t I = 0; I != 2; ++I)
    expectSameOutcome(S[I], P[I], "cell " + std::to_string(I));
}

TEST(LaunchMemoTest, ZooColumnsEqualPerCellExecution) {
  std::vector<DeviceConfig> Zoo = buildConfigRegistry();
  uint64_t Hits0 = vmCounters().MemoHits;
  for (uint64_t K = 0; K != 8; ++K) {
    GenOptions GO;
    GO.Mode = static_cast<GenMode>(K % NumGenModes);
    GO.Seed = 900 + K;
    GO.MinThreads = 32;
    GO.MaxThreads = 96;
    TestCase T = TestCase::fromGenerated(generateKernel(GO));
    ExecColumn Col;
    for (bool Opt : {false, true}) {
      for (const DeviceConfig &C : Zoo)
        Col.Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
      Col.Jobs.push_back(ExecJob::onReference(T, Opt, RunSettings()));
    }
    std::vector<RunOutcome> Got = runExecColumn(Col);
    ASSERT_EQ(Got.size(), Col.Jobs.size());
    for (size_t I = 0; I != Got.size(); ++I)
      expectSameOutcome(Got[I], runExecJob(Col.Jobs[I]),
                        "kernel " + std::to_string(K) + " cell " +
                            std::to_string(I));
  }
  EXPECT_GT(vmCounters().MemoHits, Hits0);
}
