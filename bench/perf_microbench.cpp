//===- perf_microbench.cpp - google-benchmark microbenchmarks ------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// Throughput microbenchmarks for the pipeline stages: kernel
/// generation per mode, parsing, the optimisation pipeline, bytecode
/// codegen, VM execution, and the end-to-end driver path. These bound
/// how large a campaign a given time budget affords (the paper ran
/// ~58,000 tests per configuration pair).
///
//===----------------------------------------------------------------------===//

#include "device/DeviceConfig.h"
#include "device/Driver.h"
#include "exec/JobSerialize.h"
#include "gen/Generator.h"
#include "minicl/ASTClone.h"
#include "minicl/Parser.h"
#include "minicl/Printer.h"
#include "minicl/Sema.h"
#include "opt/Pass.h"
#include "support/Arena.h"
#include "vm/Codegen.h"
#include "vm/VM.h"

#include <benchmark/benchmark.h>

using namespace clfuzz;

static void BM_GenerateKernel(benchmark::State &State) {
  GenMode Mode = static_cast<GenMode>(State.range(0));
  uint64_t Seed = 1;
  for (auto _ : State) {
    GenOptions GO;
    GO.Mode = Mode;
    GO.Seed = Seed++;
    GeneratedKernel K = generateKernel(GO);
    benchmark::DoNotOptimize(K.Source.data());
  }
  State.SetLabel(genModeName(Mode));
}
BENCHMARK(BM_GenerateKernel)->DenseRange(0, 5);

namespace {

GeneratedKernel &sampleKernel() {
  static GeneratedKernel K = [] {
    GenOptions GO;
    GO.Mode = GenMode::All;
    GO.Seed = 12345;
    return generateKernel(GO);
  }();
  return K;
}

} // namespace

static void BM_ParseAndSema(benchmark::State &State) {
  const std::string &Source = sampleKernel().Source;
  for (auto _ : State) {
    ASTContext Ctx;
    DiagEngine Diags;
    bool Ok = parseProgram(Source, Ctx, Diags);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
}
BENCHMARK(BM_ParseAndSema);

/// Parsing alone (no sema), the irreducible cost of admitting one
/// kernel source — what every cell of a column used to pay and the
/// shared front end now pays once.
static void BM_ParseOnly(benchmark::State &State) {
  const std::string &Source = sampleKernel().Source;
  for (auto _ : State) {
    ASTContext Ctx;
    DiagEngine Diags;
    bool Ok = parseProgram(Source, Ctx, Diags);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetBytesProcessed(State.iterations() * Source.size());
  State.SetLabel("parse, no sema");
}
BENCHMARK(BM_ParseOnly);

/// The clone-vs-reparse race the column fast path is built on: arg 0
/// re-runs parse + sema from source (the pre-clone per-cell cost), arg
/// 1 deep-clones a checked front end (minicl/ASTClone.h). Both produce
/// a structurally identical private AST ready for the PassManager.
static void BM_CloneVsReparse(benchmark::State &State) {
  bool Clone = State.range(0) != 0;
  const std::string &Source = sampleKernel().Source;
  ASTContext Src;
  DiagEngine Diags;
  parseProgram(Source, Src, Diags);
  checkProgram(Src, Diags);
  for (auto _ : State) {
    if (Clone) {
      std::unique_ptr<ASTContext> Copy = cloneContext(Src);
      benchmark::DoNotOptimize(&Copy->program());
    } else {
      ASTContext Ctx;
      DiagEngine D2;
      bool Ok = parseProgram(Source, Ctx, D2) && checkProgram(Ctx, D2);
      benchmark::DoNotOptimize(Ok);
    }
  }
  State.SetLabel(Clone ? "cloneContext" : "parse+sema");
}
BENCHMARK(BM_CloneVsReparse)->DenseRange(0, 1);

/// Raw allocation throughput: the AST arena's bump allocator (arg 1)
/// against individual heap allocations of the same sizes (arg 0) —
/// the reason AST node construction and O(1) context teardown got
/// cheap. 4096 allocations of 32/48/64-byte nodes per iteration.
static void BM_ArenaAllocVsHeap(benchmark::State &State) {
  bool UseArena = State.range(0) != 0;
  constexpr size_t N = 4096;
  constexpr size_t Sizes[3] = {32, 48, 64};
  if (UseArena) {
    for (auto _ : State) {
      BumpArena A;
      for (size_t I = 0; I != N; ++I) {
        void *P = A.allocate(Sizes[I % 3], alignof(std::max_align_t));
        benchmark::DoNotOptimize(P);
      }
    }
  } else {
    std::vector<void *> Ptrs(N);
    for (auto _ : State) {
      for (size_t I = 0; I != N; ++I) {
        Ptrs[I] = ::operator new(Sizes[I % 3]);
        benchmark::DoNotOptimize(Ptrs[I]);
      }
      for (size_t I = 0; I != N; ++I)
        ::operator delete(Ptrs[I]);
    }
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(N));
  State.SetLabel(UseArena ? "bump arena" : "operator new/delete");
}
BENCHMARK(BM_ArenaAllocVsHeap)->DenseRange(0, 1);

static void BM_OptimisePipeline(benchmark::State &State) {
  const std::string &Source = sampleKernel().Source;
  for (auto _ : State) {
    ASTContext Ctx;
    DiagEngine Diags;
    parseProgram(Source, Ctx, Diags);
    PassManager PM = buildPipeline(PassOptions::o2(), Ctx);
    PM.run(Ctx);
    benchmark::DoNotOptimize(&Ctx);
  }
}
BENCHMARK(BM_OptimisePipeline);

static void BM_Codegen(benchmark::State &State) {
  const std::string &Source = sampleKernel().Source;
  ASTContext Ctx;
  DiagEngine Diags;
  parseProgram(Source, Ctx, Diags);
  for (auto _ : State) {
    CodegenResult CR = compileToBytecode(Ctx, {});
    benchmark::DoNotOptimize(CR.Module.Functions.data());
  }
}
BENCHMARK(BM_Codegen);

static void BM_VmExecution(benchmark::State &State) {
  GeneratedKernel &K = sampleKernel();
  ASTContext Ctx;
  DiagEngine Diags;
  parseProgram(K.Source, Ctx, Diags);
  CodegenResult CR = compileToBytecode(Ctx, {});
  uint64_t Steps = 0;
  for (auto _ : State) {
    std::vector<Buffer> Buffers;
    for (const BufferSpec &Spec : K.Buffers) {
      Buffer B;
      B.Space = Spec.Space;
      B.Bytes = Spec.InitBytes;
      Buffers.push_back(std::move(B));
    }
    std::vector<KernelArg> Args;
    for (unsigned I = 0; I != Buffers.size(); ++I)
      Args.push_back(KernelArg::buffer(I));
    LaunchOptions LO;
    LO.Range = K.Range;
    LaunchResult LR = launchKernel(CR.Module, Buffers, Args, LO);
    Steps += LR.StepsExecuted;
    benchmark::DoNotOptimize(LR.Status);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
  State.SetLabel("items = VM instructions");
}
BENCHMARK(BM_VmExecution);

/// The same workload under each dispatch strategy: isolates what
/// token-threaded (computed-goto) dispatch buys over the portable
/// switch loop, with fusion and engine reuse held constant. arg 0 =
/// switch, 1 = goto (docs/vm.md).
static void BM_DispatchHotLoop(benchmark::State &State) {
  bool WantGoto = State.range(0) != 0;
  if (WantGoto && !vmHasGotoDispatch()) {
    State.SkipWithError("computed-goto dispatch not compiled in");
    return;
  }
  GeneratedKernel &K = sampleKernel();
  ASTContext Ctx;
  DiagEngine Diags;
  parseProgram(K.Source, Ctx, Diags);
  CodegenResult CR = compileToBytecode(Ctx, {});
  VmDispatch Saved = vmDispatchMode();
  setVmDispatchMode(WantGoto ? VmDispatch::Goto : VmDispatch::Switch);
  uint64_t Steps = 0;
  for (auto _ : State) {
    std::vector<Buffer> Buffers;
    for (const BufferSpec &Spec : K.Buffers) {
      Buffer B;
      B.Space = Spec.Space;
      B.Bytes = Spec.InitBytes;
      Buffers.push_back(std::move(B));
    }
    std::vector<KernelArg> Args;
    for (unsigned I = 0; I != Buffers.size(); ++I)
      Args.push_back(KernelArg::buffer(I));
    LaunchOptions LO;
    LO.Range = K.Range;
    LaunchResult LR = launchKernel(CR.Module, Buffers, Args, LO);
    Steps += LR.StepsExecuted;
    benchmark::DoNotOptimize(LR.Status);
  }
  setVmDispatchMode(Saved);
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
  State.SetLabel(WantGoto ? "goto" : "switch");
}
BENCHMARK(BM_DispatchHotLoop)->DenseRange(0, 1);

/// The same workload with and without superinstruction fusion: the
/// module is compiled once per variant, execution is bit-identical,
/// only dispatch count differs. arg 0 = unfused, 1 = fused.
static void BM_FusedVsUnfused(benchmark::State &State) {
  bool Fused = State.range(0) != 0;
  GeneratedKernel &K = sampleKernel();
  ASTContext Ctx;
  DiagEngine Diags;
  parseProgram(K.Source, Ctx, Diags);
  bool SavedFusion = vmFusionEnabled();
  setVmFusionEnabled(Fused);
  CodegenResult CR = compileToBytecode(Ctx, {});
  setVmFusionEnabled(SavedFusion);
  uint64_t Steps = 0;
  for (auto _ : State) {
    std::vector<Buffer> Buffers;
    for (const BufferSpec &Spec : K.Buffers) {
      Buffer B;
      B.Space = Spec.Space;
      B.Bytes = Spec.InitBytes;
      Buffers.push_back(std::move(B));
    }
    std::vector<KernelArg> Args;
    for (unsigned I = 0; I != Buffers.size(); ++I)
      Args.push_back(KernelArg::buffer(I));
    LaunchOptions LO;
    LO.Range = K.Range;
    LaunchResult LR = launchKernel(CR.Module, Buffers, Args, LO);
    Steps += LR.StepsExecuted;
    benchmark::DoNotOptimize(LR.Status);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
  State.SetLabel(Fused ? "fused" : "unfused");
}
BENCHMARK(BM_FusedVsUnfused)->DenseRange(0, 1);

/// The outcome cache's key derivation (exec/OutcomeCache.h): one
/// canonical serialization of the job descriptor plus an FNV-1a pass
/// over the bytes. This sits on the hot dispatch path of every cached
/// campaign cell, so its cost bounds how cheap a cache hit can be.
static void BM_SerializeAndHashDescriptor(benchmark::State &State) {
  TestCase T = TestCase::fromGenerated(sampleKernel());
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  ExecJob Job =
      ExecJob::onConfig(T, configById(Registry, 12), true, RunSettings());
  size_t Bytes = descriptorBytes(Job).size();
  for (auto _ : State) {
    uint64_t H = hashDescriptor(Job);
    benchmark::DoNotOptimize(H);
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Bytes));
  State.SetLabel("cache-key cost per dispatched cell");
}
BENCHMARK(BM_SerializeAndHashDescriptor);

static void BM_EndToEndDriver(benchmark::State &State) {
  TestCase T = TestCase::fromGenerated(sampleKernel());
  for (auto _ : State) {
    RunOutcome O = runTestOnReference(T, /*Optimize=*/true);
    benchmark::DoNotOptimize(O.OutputHash);
  }
}
BENCHMARK(BM_EndToEndDriver);

BENCHMARK_MAIN();
