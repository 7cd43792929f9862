//===- Driver.cpp - Simulated OpenCL driver (compile + run) -----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "device/Driver.h"
#include "device/CompileCounters.h"
#include "minicl/ASTClone.h"
#include "minicl/ASTQueries.h"
#include "minicl/Parser.h"
#include "minicl/Sema.h"
#include "opt/ConstEval.h"
#include "opt/Pass.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "vm/Codegen.h"
#include "vm/VM.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <memory>
#include <unordered_map>

using namespace clfuzz;

const char *clfuzz::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::BuildFailure:
    return "bf";
  case RunStatus::Crash:
    return "c";
  case RunStatus::Timeout:
    return "to";
  case RunStatus::Ok:
    return "ok";
  }
  return "?";
}

TestCase TestCase::fromGenerated(const GeneratedKernel &K) {
  TestCase T;
  T.Name = std::string(genModeName(K.Mode)) + " seed " +
           std::to_string(K.Seed);
  T.Source = K.Source;
  T.Range = K.Range;
  T.Buffers = K.Buffers;
  return T;
}

namespace {

/// Phase-timing scope: charges elapsed wall-clock to one CompilePhase
/// counter on destruction.
class PhaseTimer {
public:
  explicit PhaseTimer(CompilePhase P)
      : P(P), Start(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    uint64_t Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    addCompilePhaseSample(P, Ns > ExcludedNs ? Ns - ExcludedNs : 0);
  }

  /// Leaves \p Ns of the timed span out of the sample.
  void exclude(uint64_t Ns) { ExcludedNs += Ns; }

private:
  CompilePhase P;
  std::chrono::steady_clock::time_point Start;
  uint64_t ExcludedNs = 0;
};

/// Strips implicit casts for pattern checks against the pre-conversion
/// operand types.
const Expr *stripImplicit(const Expr *E) {
  while (const auto *ICE = dyn_cast<ImplicitCastExpr>(E))
    E = ICE->getSubExpr();
  return E;
}

/// True if the expression subtree contains a size_t-typed node (a
/// work-item query or arithmetic over one).
bool mentionsSizeT(const Expr *E) {
  if (const auto *ST = dyn_cast_if_present<ScalarType>(E->getType()))
    if (ST->isSizeT())
      return true;
  bool Found = false;
  // Cheap recursion through the few child kinds that matter.
  switch (E->getKind()) {
  case Expr::ExprKind::Unary:
    Found = mentionsSizeT(cast<UnaryExpr>(E)->getSubExpr());
    break;
  case Expr::ExprKind::Binary:
    Found = mentionsSizeT(cast<BinaryExpr>(E)->getLHS()) ||
            mentionsSizeT(cast<BinaryExpr>(E)->getRHS());
    break;
  case Expr::ExprKind::ImplicitCast:
    Found = mentionsSizeT(cast<ImplicitCastExpr>(E)->getSubExpr());
    break;
  default:
    break;
  }
  return Found;
}

/// Front-end defect checks of the configuration bug models. Returns a
/// non-empty message when the program is rejected.
std::string frontEndChecks(const ASTContext &Ctx,
                           const DeviceBugModel &Bugs) {
  std::string Error;

  if (Bugs.RejectVectorsInStructs) {
    for (const RecordType *RT : Ctx.types().records())
      for (const RecordField &F : RT->fields())
        if (F.Ty->isVector())
          return "internal error: LLVM IR generation failed for vector "
                 "member '" +
                 F.Name + "'";
  }

  for (const FunctionDecl *F : Ctx.program().functions()) {
    if (!F->getBody() || !Error.empty())
      break;
    forEachExprUntil(F->getBody(), [&](const Expr *E) -> bool {
      if (Bugs.RejectSizeTMix) {
        // Compound assignments mixing int with size_t (`x |= gx`, §6).
        if (const auto *A = dyn_cast<AssignExpr>(E)) {
          if (A->getOp() != AssignOp::Assign) {
            const auto *LS = dyn_cast_if_present<ScalarType>(
                A->getLHS()->getType());
            if (LS && LS->isSigned() && !LS->isSizeT() &&
                mentionsSizeT(stripImplicit(A->getRHS()))) {
              Error = "error: invalid operands to binary expression "
                      "('int' and 'size_t')";
              return true;
            }
          }
        }
      }
      if (const auto *B = dyn_cast<BinaryExpr>(E)) {
        if (Bugs.RejectVectorLogicalOps && isLogicalOp(B->getOp()) &&
            B->getLHS()->getType()->isVector()) {
          Error = "error: logical operation on vector operands is not "
                  "supported";
          return true;
        }
        if (Bugs.RejectSizeTMix && !isComparisonOp(B->getOp()) &&
            !isLogicalOp(B->getOp()) && B->getOp() != BinOp::Comma) {
          const Expr *L = stripImplicit(B->getLHS());
          const Expr *R = stripImplicit(B->getRHS());
          const auto *LS = dyn_cast_if_present<ScalarType>(L->getType());
          const auto *RS = dyn_cast_if_present<ScalarType>(R->getType());
          if (LS && RS) {
            bool Mixes = (mentionsSizeT(L) && RS->isSigned() &&
                          !RS->isSizeT()) ||
                         (mentionsSizeT(R) && LS->isSigned() &&
                          !LS->isSizeT());
            if (Mixes) {
              Error = "error: invalid operands to binary expression "
                      "('int' and 'size_t')";
              return true;
            }
          }
        }
      }
      return false;
    });
    if (Bugs.CompileHangOnInfiniteLoop && Error.empty()) {
      forEachStmtUntil(F->getBody(), [&](const Stmt *S) -> bool {
        const Expr *Cond = nullptr;
        if (const auto *W = dyn_cast<WhileStmt>(S))
          Cond = W->getCond();
        else if (const auto *Fo = dyn_cast<ForStmt>(S))
          Cond = Fo->getCond();
        if (!Cond) {
          if (isa<ForStmt>(S) && !cast<ForStmt>(S)->getCond()) {
            Error = "<compile hang>"; // for(;;)
            return true;
          }
          return false;
        }
        if (auto V = evalConstExpr(Cond))
          if (V->Lanes[0] != 0) {
            Error = "<compile hang>";
            return true;
          }
        return false;
      });
    }
  }
  return Error;
}

/// True when the Figure 1(f) slow-compilation model triggers: a large
/// record together with any barrier.
bool slowStructBarrierTriggers(const ASTContext &Ctx) {
  LayoutEngine L;
  bool BigStruct = false;
  for (const RecordType *RT : Ctx.types().records())
    if (RT->isComplete() && !RT->isUnion() && L.sizeOf(RT) >= 64)
      BigStruct = true;
  if (!BigStruct)
    return false;
  for (const FunctionDecl *F : Ctx.program().functions())
    if (functionContainsBarrier(F))
      return true;
  return false;
}

/// Deterministic lottery draw in [0,1) keyed on (source, salt, opt).
double lotteryDraw(uint64_t SourceHash, uint64_t Salt, bool Opt,
                   uint64_t Stream) {
  Fnv64 H;
  H.addU64(SourceHash);
  H.addU64(Salt);
  H.addU64(Opt ? 0x5eed : 0xdead);
  H.addU64(Stream);
  return static_cast<double>(H.value() >> 11) * 0x1.0p-53;
}

/// True when compilation with \p Bugs at \p RunOptimizer schedules no
/// pass at all, i.e. the AST that leaves the front end is the AST the
/// code generator sees. Mirrors buildPipeline: passes are added for
/// the four o2 stages, BarrierCallRetvalBug, EmiDceBugRate, and the
/// RotateFoldBug-forced constant folder.
bool pipelineIsEmpty(const DeviceBugModel &Bugs, bool RunOptimizer) {
  return !RunOptimizer && !Bugs.RotateFoldBug &&
         !Bugs.BarrierCallRetvalBug && Bugs.EmiDceBugRate == 0.0 &&
         !Bugs.BreakOnShiftBug && !Bugs.BreakOnAndBug &&
         !Bugs.ShiftMarkBug && !Bugs.MarkBreakBug;
}

/// The PassOptions the pipeline stage runs with — shared between
/// compileAndRun and the exported passPipelineOptionsFor so the
/// triage bisector names exactly the passes a cell executed.
PassOptions passPipelineOptions(const DeviceBugModel &Bugs,
                                bool RunOptimizer, uint64_t Salt,
                                uint64_t SourceHash) {
  PassOptions PO = RunOptimizer ? PassOptions::o2() : PassOptions::o0();
  if (!RunOptimizer && Bugs.RotateFoldBug) {
    // Mandatory constant-folding stage (see configuration 14).
    PO.EnableConstFold = true;
  }
  PO.RotateFoldBug = Bugs.RotateFoldBug;
  PO.ShiftSafeFoldBug = Bugs.ShiftSafeFoldBug;
  PO.CmpMinusOneBug = Bugs.CmpMinusOneBug;
  PO.BarrierCallRetvalBug = Bugs.BarrierCallRetvalBug;
  PO.EmiDceBugRate = Bugs.EmiDceBugRate;
  PO.BreakOnShiftBug = Bugs.BreakOnShiftBug;
  PO.BreakOnAndBug = Bugs.BreakOnAndBug;
  PO.ShiftMarkBug = Bugs.ShiftMarkBug;
  PO.MarkBreakBug = Bugs.MarkBreakBug;
  // Mix the variant's source into the salt: the defect depends on the
  // exact surrounding code, which is what makes it EMI-sensitive.
  PO.BugSalt = Salt ^ SourceHash;
  return PO;
}

RunOutcome compileAndRun(const TestCase &Test, const DeviceBugModel &Bugs,
                         bool RunOptimizer, bool OptFlagForLottery,
                         uint64_t Salt,
                         const std::vector<std::string> &IceMessages,
                         const RunSettings &Settings,
                         const TestFrontEnd *SharedFE, LaunchMemo *Memo) {
  RunOutcome Out;
  uint64_t SourceHash = fnv64(Test.Source);
  // Geometry hash: identical across EMI variants of one base. Crash
  // and ICE lotteries draw a base-level susceptibility from it and a
  // per-variant coin from the source, so flaky failures cluster per
  // base (as real driver instability does) while the marginal rate in
  // differential campaigns stays at the configured value.
  Fnv64 GH;
  for (int I = 0; I != 3; ++I) {
    GH.addU64(Test.Range.Global[I]);
    GH.addU64(Test.Range.Local[I]);
  }
  for (const BufferSpec &B : Test.Buffers)
    GH.addU64(B.InitBytes.size());
  uint64_t GeomHash = GH.value();
  auto SplitLottery = [&](double Rate, uint64_t Stream) {
    if (Rate <= 0.0)
      return false;
    double BaseDraw = lotteryDraw(GeomHash, Salt, OptFlagForLottery,
                                  Stream);
    double VariantDraw = lotteryDraw(SourceHash, Salt,
                                     OptFlagForLottery, Stream + 100);
    return BaseDraw < 2.0 * Rate && VariantDraw < 0.5;
  };

  // --- 1. front end (parse + sema). A shared front end replaces the
  // per-cell re-parse. Pass-free cells read it directly: codegen and
  // the front-end defect checks take a const ASTContext, so several
  // cells of a column may read it at once. Cells whose pipeline
  // mutates the AST deep-clone it instead — structurally identical to
  // what a re-parse would build, so outputs are byte-identical — and
  // hand the private copy to the PassManager, leaving the shared AST
  // pristine for the other cells of the column. A cell run on its own
  // (runExecJob) parses and checks its source here.
  bool PipelineEmpty = pipelineIsEmpty(Bugs, RunOptimizer);
  ASTContext OwnCtx;
  std::unique_ptr<ASTContext> ClonedCtx;
  const ASTContext *CtxPtr = nullptr;
  ASTContext *PrivateCtx = nullptr; ///< the one the pipeline may mutate
  if (SharedFE) {
    if (!SharedFE->ok()) {
      Out.Status = RunStatus::BuildFailure;
      Out.Message = SharedFE->diagnostics();
      return Out;
    }
    if (PipelineEmpty) {
      CtxPtr = &SharedFE->context();
    } else {
      PhaseTimer T(CompilePhase::Clone);
      ClonedCtx = cloneContext(SharedFE->context());
      CtxPtr = PrivateCtx = ClonedCtx.get();
    }
  } else {
    DiagEngine Diags;
    bool FeOk;
    {
      PhaseTimer T(CompilePhase::Parse);
      FeOk = parseProgram(Test.Source, OwnCtx, Diags);
    }
    if (FeOk) {
      PhaseTimer T(CompilePhase::Sema);
      FeOk = checkProgram(OwnCtx, Diags);
    }
    if (!FeOk) {
      Out.Status = RunStatus::BuildFailure;
      Out.Message = Diags.str();
      return Out;
    }
    CtxPtr = PrivateCtx = &OwnCtx;
  }
  const ASTContext &Ctx = *CtxPtr;

  // --- 2. configuration-specific front-end defects
  std::string FeError = frontEndChecks(Ctx, Bugs);
  if (FeError == "<compile hang>") {
    Out.Status = RunStatus::Timeout;
    Out.Message = "compiler did not terminate";
    return Out;
  }
  if (!FeError.empty()) {
    Out.Status = RunStatus::BuildFailure;
    Out.Message = FeError;
    return Out;
  }
  if (Bugs.SlowStructBarrierCompile && slowStructBarrierTriggers(Ctx)) {
    Out.Status = RunStatus::Timeout;
    Out.Message = "compilation exceeded the time limit (large struct "
                  "with barrier)";
    return Out;
  }
  if (SplitLottery(Bugs.BuildFailLottery, 1)) {
    Out.Status = RunStatus::BuildFailure;
    Out.Message = IceMessages.empty()
                      ? "internal compiler error"
                      : IceMessages[fnv64(Test.Source) %
                                    IceMessages.size()];
    return Out;
  }

  // --- 3. pass pipeline (skipped outright when pipelineIsEmpty
  // guarantees buildPipeline would schedule nothing; running an empty
  // PassManager is a no-op, so skipping changes nothing).
  if (!PipelineEmpty) {
    PhaseTimer T(CompilePhase::Opt);
    PassOptions PO =
        passPipelineOptions(Bugs, RunOptimizer, Salt, SourceHash);
    PassManager PM = buildPipeline(PO, *PrivateCtx);
    // The triage bisector's subset probes select pipeline positions
    // via Settings.PassMask; the default mask runs everything.
    PM.run(*PrivateCtx, Settings.PassMask);
  }

  // --- 4. code generation
  CodegenOptions CG;
  CG.Layout = Bugs.Layout;
  CG.CommaDropsRhsBug = Bugs.CommaDropsRhsBug;
  CG.SwizzleHighLaneBug = Bugs.SwizzleHighLaneBug;
  CG.VolatileStructCopyBug = Bugs.VolatileStructCopyBug;
  CodegenResult CR = [&] {
    PhaseTimer T(CompilePhase::Codegen);
    return compileToBytecode(Ctx, CG);
  }();
  if (!CR.Ok) {
    Out.Status = RunStatus::BuildFailure;
    Out.Message = CR.Error;
    return Out;
  }

  // --- 5. runtime defect models
  if (Bugs.BarrierInFunctionCrash) {
    for (const FunctionDecl *F : Ctx.program().functions())
      if (!F->isKernel() && functionContainsBarrier(F)) {
        Out.Status = RunStatus::Crash;
        Out.Message = "segmentation fault (barrier inside function)";
        return Out;
      }
  }
  if (SplitLottery(Bugs.CrashLottery, 2)) {
    Out.Status = RunStatus::Crash;
    Out.Message = "runtime crash (driver instability model)";
    return Out;
  }

  // --- 6. host setup and launch (or, with a column's memo, a replay
  // of an equal earlier launch: the same result and output bytes)
  std::vector<Buffer> Buffers;
  int OutIndex = -1;
  for (const BufferSpec &Spec : Test.Buffers) {
    Buffer B;
    B.Space = Spec.Space;
    B.Bytes = Spec.InitBytes;
    if (Spec.IsDeadArray && Settings.InvertDead) {
      // dead[j] = d-1-j makes every EMI guard true.
      size_t N = B.Bytes.size() / 4;
      for (size_t J = 0; J != N; ++J) {
        int32_t V = static_cast<int32_t>(N - 1 - J);
        std::memcpy(&B.Bytes[J * 4], &V, 4);
      }
    }
    if (Spec.IsOutput)
      OutIndex = static_cast<int>(Buffers.size());
    Buffers.push_back(std::move(B));
  }
  std::vector<KernelArg> Args;
  for (unsigned I = 0; I != Buffers.size(); ++I)
    Args.push_back(KernelArg::buffer(I));

  LaunchOptions LO;
  LO.Range = Test.Range;
  LO.SchedulerSeed = Settings.SchedulerSeed;
  LO.DetectRaces = Settings.DetectRaces;
  LO.StepBudget = static_cast<uint64_t>(
      static_cast<double>(Settings.BaseStepBudget) * Bugs.SpeedFactor);
  if (LO.StepBudget == 0)
    LO.StepBudget = 1;

  LaunchResult LR = [&] {
    // A wait for another cell's equal launch is idle time, not VM time.
    PhaseTimer T(CompilePhase::Exec);
    if (!Memo)
      return launchKernel(CR.Module, Buffers, Args, LO);
    uint64_t WaitedNs = 0;
    LaunchResult R = Memo->launch(CR.Module, Buffers, Args, OutIndex, LO,
                                  &WaitedNs);
    T.exclude(WaitedNs);
    return R;
  }();
  Out.Steps = LR.StepsExecuted;
  Out.RaceFound = LR.RaceFound;
  Out.RaceMessage = LR.RaceMessage;
  switch (LR.Status) {
  case LaunchStatus::Success:
    break;
  case LaunchStatus::Timeout:
    Out.Status = RunStatus::Timeout;
    Out.Message = LR.Message;
    return Out;
  case LaunchStatus::Trap:
  case LaunchStatus::BarrierDivergence:
  case LaunchStatus::InvalidLaunch:
    Out.Status = RunStatus::Crash;
    Out.Message = LR.Message;
    return Out;
  }

  // --- 7. read back the printed result
  Out.Status = RunStatus::Ok;
  if (OutIndex >= 0) {
    const Buffer &OB = Buffers[OutIndex];
    Out.OutputHash = fnv64(OB.Bytes.data(), OB.Bytes.size());
    size_t Words = OB.Bytes.size() / 8;
    for (size_t I = 0; I != std::min<size_t>(Words, 8); ++I)
      Out.OutputHead.push_back(OB.readScalar(I * 8, 8));
  }
  return Out;
}

} // namespace

TestFrontEnd::TestFrontEnd(const TestCase &Test)
    : Ctx(std::make_unique<ASTContext>()) {
  DiagEngine Diags;
  {
    PhaseTimer T(CompilePhase::Parse);
    ParseOk = parseProgram(Test.Source, *Ctx, Diags);
  }
  if (ParseOk) {
    PhaseTimer T(CompilePhase::Sema);
    ParseOk = checkProgram(*Ctx, Diags);
  }
  if (!ParseOk)
    this->Diags = Diags.str();
}

TestFrontEnd::~TestFrontEnd() = default;
TestFrontEnd::TestFrontEnd(TestFrontEnd &&) noexcept = default;
TestFrontEnd &TestFrontEnd::operator=(TestFrontEnd &&) noexcept = default;

bool clfuzz::compileCloneEnabled() { return true; }

FrontEndUse clfuzz::frontEndUseFor(const DeviceConfig *Config,
                                   bool OptEnabled) {
  bool Empty;
  if (!Config) {
    // Reference runs use the clean bug model: its pipeline is empty
    // exactly when the optimiser is off.
    Empty = !OptEnabled;
  } else {
    bool RunOptimizer = OptEnabled && !Config->NoOptimizer;
    Empty = pipelineIsEmpty(Config->bugs(OptEnabled), RunOptimizer);
  }
  return Empty ? FrontEndUse::ReadShared : FrontEndUse::ClonePrivate;
}

RunOutcome clfuzz::runTestOnConfig(const TestCase &Test,
                                   const DeviceConfig &Config,
                                   bool OptEnabled,
                                   const RunSettings &Settings,
                                   const TestFrontEnd *SharedFE,
                                   LaunchMemo *Memo) {
  const DeviceBugModel &Bugs = Config.bugs(OptEnabled);
  bool RunOptimizer = OptEnabled && !Config.NoOptimizer;
  return compileAndRun(Test, Bugs, RunOptimizer, OptEnabled, Config.Salt,
                       Config.IceMessages, Settings, SharedFE, Memo);
}

PassOptions clfuzz::passPipelineOptionsFor(const DeviceConfig &Config,
                                           bool OptEnabled,
                                           const TestCase &Test) {
  const DeviceBugModel &Bugs = Config.bugs(OptEnabled);
  bool RunOptimizer = OptEnabled && !Config.NoOptimizer;
  return passPipelineOptions(Bugs, RunOptimizer, Config.Salt,
                             fnv64(Test.Source));
}

RunOutcome clfuzz::runTestOnReference(const TestCase &Test, bool Optimize,
                                      const RunSettings &Settings,
                                      const TestFrontEnd *SharedFE,
                                      LaunchMemo *Memo) {
  DeviceBugModel Clean;
  Clean.SpeedFactor = 16.0; // a fast, reliable host
  return compileAndRun(Test, Clean, Optimize, Optimize,
                       /*Salt=*/0, {}, Settings, SharedFE, Memo);
}

//===----------------------------------------------------------------------===//
// Launch memo
//===----------------------------------------------------------------------===//

namespace {

/// Writes a launch key as flat bytes. A type's first occurrence writes
/// its shape, later ones a back reference by first-occurrence number,
/// so the key depends on type structure only, never on which
/// ASTContext owns the types (and self-referential records end).
class LaunchKeyWriter {
public:
  explicit LaunchKeyWriter(size_t SizeHint) : Buf(SizeHint, '\0') {}

  /// The key written so far; the writer is spent afterwards.
  std::string take() {
    Buf.resize(Pos);
    return std::move(Buf);
  }

  void u8(uint8_t V) { put(&V, 1); }
  void u32(uint32_t V) { put(&V, 4); }
  void u64(uint64_t V) { put(&V, 8); }
  void bytes(const void *P, size_t N) {
    u64(N);
    put(P, N);
  }
  void str(const std::string &S) { bytes(S.data(), S.size()); }

  void type(const Type *T) {
    if (!T) {
      u8(0);
      return;
    }
    auto [It, New] = Seen.try_emplace(T, static_cast<uint32_t>(Seen.size()));
    if (!New) {
      u8(1);
      u32(It->second);
      return;
    }
    u8(2);
    u8(static_cast<uint8_t>(T->getKind()));
    switch (T->getKind()) {
    case Type::TypeKind::Void:
      break;
    case Type::TypeKind::Scalar:
      u8(static_cast<uint8_t>(cast<ScalarType>(T)->getScalarKind()));
      break;
    case Type::TypeKind::Vector: {
      const auto *VT = cast<VectorType>(T);
      type(VT->getElementType());
      u32(VT->getNumLanes());
      break;
    }
    case Type::TypeKind::Array: {
      const auto *AT = cast<ArrayType>(T);
      type(AT->getElementType());
      u64(AT->getNumElements());
      break;
    }
    case Type::TypeKind::Pointer: {
      const auto *PT = cast<PointerType>(T);
      type(PT->getPointeeType());
      u8(static_cast<uint8_t>(PT->getAddressSpace()));
      u8(PT->isPointeeVolatile());
      break;
    }
    case Type::TypeKind::Record: {
      const auto *RT = cast<RecordType>(T);
      str(RT->getName());
      u8(RT->isUnion());
      u8(RT->isComplete());
      u32(RT->getNumFields());
      for (const RecordField &F : RT->fields()) {
        str(F.Name);
        type(F.Ty);
        u8(F.IsVolatile);
      }
      break;
    }
    }
  }

private:
  void put(const void *P, size_t N) {
    if (Buf.size() - Pos < N)
      Buf.resize(std::max(2 * Buf.size(), Pos + N));
    std::memcpy(&Buf[Pos], P, N);
    Pos += N;
  }

  std::string Buf;
  size_t Pos = 0;
  std::unordered_map<const Type *, uint32_t> Seen;
};

/// The launch key: every input of launchKernel but Opts.StepBudget,
/// plus the output buffer's index.
std::string launchKey(const CompiledModule &M,
                      const std::vector<Buffer> &Buffers,
                      const std::vector<KernelArg> &Args, int OutIndex,
                      const LaunchOptions &Opts) {
  // Sized for the common case up front (an instruction takes 22 bytes
  // at most once its type has been seen); the writer grows if needed.
  size_t Size = 256 + Args.size() * 150;
  for (const CompiledFunction &F : M.Functions)
    Size += 64 + F.Name.size() + F.Params.size() * 13 + F.Code.size() * 22;
  for (const Buffer &B : Buffers)
    Size += 9 + B.Bytes.size();
  LaunchKeyWriter W(Size);
  W.u32(M.KernelIndex);
  W.u64(M.LocalArenaSize);
  W.u32(M.NumBarrierSites);
  W.u32(static_cast<uint32_t>(M.Functions.size()));
  for (const CompiledFunction &F : M.Functions) {
    W.str(F.Name);
    W.type(F.ReturnTy);
    W.u32(static_cast<uint32_t>(F.Params.size()));
    for (const CompiledParam &P : F.Params) {
      W.u64(P.FrameOffset);
      W.type(P.Ty);
    }
    W.u64(F.FrameSize);
    W.u64(F.Code.size());
    for (const Insn &I : F.Code) {
      W.u8(static_cast<uint8_t>(I.Opcode));
      W.u32(I.A);
      W.u32(I.B);
      W.u64(I.Imm);
      W.type(I.Ty);
    }
  }
  W.u32(static_cast<uint32_t>(Buffers.size()));
  for (const Buffer &B : Buffers) {
    W.u8(static_cast<uint8_t>(B.Space));
    W.bytes(B.Bytes.data(), B.Bytes.size());
  }
  W.u32(static_cast<uint32_t>(Args.size()));
  for (const KernelArg &A : Args) {
    W.u8(A.IsBuffer);
    W.u32(A.BufferIndex);
    W.type(A.Scalar.Ty);
    W.u32(A.Scalar.NumLanes);
    for (uint64_t Lane : A.Scalar.Lanes)
      W.u64(Lane);
  }
  W.u32(static_cast<uint32_t>(OutIndex));
  for (int I = 0; I != 3; ++I) {
    W.u32(Opts.Range.Global[I]);
    W.u32(Opts.Range.Local[I]);
  }
  W.u64(Opts.SchedulerSeed);
  W.u8(Opts.DetectRaces);
  W.u64(Opts.PrivateArenaSize);
  W.u32(Opts.MaxCallDepth);
  return W.take();
}

/// A word-at-a-time hash of the key bytes; cheaper than byte-wise
/// FNV-1a on keys of tens of kilobytes. Collisions only cost a full
/// key comparison.
uint64_t hashLaunchKey(const std::string &Key) {
  uint64_t H = 0x9e3779b97f4a7c15ULL ^ Key.size();
  size_t I = 0;
  auto Mix = [&](uint64_t W) {
    H = (H ^ W) * 0xff51afd7ed558ccdULL;
    H ^= H >> 32;
  };
  for (; I + 8 <= Key.size(); I += 8) {
    uint64_t W;
    std::memcpy(&W, Key.data() + I, 8);
    Mix(W);
  }
  uint64_t Tail = 0;
  std::memcpy(&Tail, Key.data() + I, Key.size() - I);
  Mix(Tail);
  return H;
}

} // namespace

struct LaunchMemo::Outcome {
  uint64_t Budget;
  LaunchResult Result;
  std::vector<uint8_t> Output;

  /// The reuse rule: a Success replays under any budget that covers
  /// its steps; anything else only under the budget it ran with.
  bool servesBudget(uint64_t StepBudget) const {
    if (Result.Status == LaunchStatus::Success)
      return StepBudget >= Result.StepsExecuted;
    return StepBudget == Budget;
  }
};

struct LaunchMemo::Slot {
  uint64_t Hash;
  std::string Key;
  std::vector<Outcome> Outcomes;
  /// A cell is running this key's launch; equal launches wait for it.
  bool InFlight = false;
};

LaunchMemo::LaunchMemo() = default;
LaunchMemo::~LaunchMemo() = default;

LaunchResult LaunchMemo::launch(const CompiledModule &Module,
                                std::vector<Buffer> &Buffers,
                                const std::vector<KernelArg> &Args,
                                int OutIndex, const LaunchOptions &Opts,
                                uint64_t *WaitedNs) {
  assert(OutIndex < static_cast<int>(Buffers.size()) &&
         "output index names a missing buffer");
  std::string Key = launchKey(Module, Buffers, Args, OutIndex, Opts);
  uint64_t Hash = hashLaunchKey(Key);
  std::unique_lock<std::mutex> Lock(M);
  // A column holds a few dozen cells at most; a linear scan is enough.
  // Slots are named by index: the vector may grow while a cell waits.
  size_t Idx = 0;
  while (Idx != Slots.size() &&
         !(Slots[Idx].Hash == Hash && Slots[Idx].Key == Key))
    ++Idx;
  if (Idx == Slots.size())
    Slots.push_back(Slot{Hash, std::move(Key), {}});
  // One launch of a key runs at a time, so every cell sees the
  // outcomes of all earlier launches of its key, as in a serial run.
  // The launch count is then a function of the budgets alone: one per
  // distinct budget below the Success's steps, plus one Success.
  for (;;) {
    for (const Outcome &O : Slots[Idx].Outcomes)
      if (O.servesBudget(Opts.StepBudget)) {
        bump(Counter::VmMemoHits);
        if (OutIndex >= 0)
          Buffers[OutIndex].Bytes = O.Output;
        return O.Result;
      }
    if (!Slots[Idx].InFlight)
      break;
    auto T0 = std::chrono::steady_clock::now();
    Landed.wait(Lock);
    if (WaitedNs)
      *WaitedNs += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
  }
  Slots[Idx].InFlight = true;
  Lock.unlock();
  LaunchResult R;
  try {
    R = launchKernel(Module, Buffers, Args, Opts);
  } catch (...) {
    Lock.lock();
    Slots[Idx].InFlight = false;
    Landed.notify_all();
    throw;
  }
  Lock.lock();
  Slots[Idx].Outcomes.push_back(
      Outcome{Opts.StepBudget, R,
              OutIndex >= 0 ? Buffers[OutIndex].Bytes
                            : std::vector<uint8_t>()});
  Slots[Idx].InFlight = false;
  Landed.notify_all();
  return R;
}
