//===- campaign_bench.cpp - End-to-end campaign benchmark ----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's end-to-end benchmark: paper-shaped campaigns run
/// through the library's public entry points (makeHuntCampaign /
/// makeEmiTask under a CampaignScheduler, makeBackend-style backends,
/// in-process WorkerServers, wrapWithOutcomeCache), timed for a fixed
/// number of seconds, with every campaign report checked against a
/// reference. README.md in this directory explains the workloads and
/// the metrics; run.py builds this file and runs it.
///
///   campaign_bench --workload=W --seed=N --seconds=S --trace=0|1
///                  [--digests=FILE] [--result=FILE]
///                  [--git-commit=C] [--source-digest=D]
///   campaign_bench --write-digests=FILE
///   campaign_bench --self-test --digests=FILE
///
/// The last line of standard output is one JSON object:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
///
//===----------------------------------------------------------------------===//

#include "device/CompileCounters.h"
#include "device/DeviceConfig.h"
#include "device/Driver.h"
#include "exec/ExecBackend.h"
#include "exec/FleetRegistry.h"
#include "exec/JobSerialize.h"
#include "exec/OutcomeCache.h"
#include "exec/RemoteBackend.h"
#include "exec/WorkerLoop.h"
#include "gen/Generator.h"
#include "sched/CampaignScheduler.h"
#include "sched/Campaigns.h"
#include "triage/Triage.h"
#include "vm/VM.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef CLFUZZ_BENCH_BUILD_TYPE
#define CLFUZZ_BENCH_BUILD_TYPE "unknown"
#endif

using namespace clfuzz;

namespace {

//===----------------------------------------------------------------------===//
// Workload shape
//===----------------------------------------------------------------------===//

/// The workloads draw their samples from two fixed corpora, in an
/// order --seed chooses (a seeded draw; a run covers a large share of
/// its corpus, so runs at different seeds measure comparable work).
/// Hunt samples: 24 kernels each.
constexpr unsigned HuntKernels = 24;
constexpr size_t HuntCorpus = 32;
/// Reduction samples: a 16-kernel hunt with reduce + triage, plus an
/// EMI campaign over one base.
constexpr unsigned ReduceKernels = 16;
constexpr size_t ReduceCorpus = 4;
constexpr unsigned EmiBases = 1;
/// The diff workloads' turnaround probe: the first 8 kernels of
/// reduction sample 0, reduced and triaged.
constexpr unsigned ProbeKernels = 8;
/// Candidate budget per witness reduction (`reduce-max`).
constexpr unsigned ReduceBudget = 50;
/// reduce_tail_s is this percentile of the run's witness times. It is
/// fixed, not derived from the witness count: that count follows the
/// host's speed, and a percentile that moved with it would move the
/// metric too. A reduce_triage pass (79 witnesses) leaves 16 beyond it.
constexpr unsigned TailPercentile = 80;
/// Independent set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 9;
/// diff_fleet hunts re-run live on the threads backend for comparison.
constexpr size_t FleetRefHunts = 4;
/// Codec replay and generation replay caps (traced runs only).
constexpr size_t CaptureJobs = 600;
constexpr size_t ReplayKernels = 120;

enum class Workload { DiffThreads, DiffFleet, ReduceTriage };

bool parseWorkload(const std::string &S, Workload &W) {
  if (S == "diff_threads")
    W = Workload::DiffThreads;
  else if (S == "diff_fleet")
    W = Workload::DiffFleet;
  else if (S == "reduce_triage")
    W = Workload::ReduceTriage;
  else
    return false;
  return true;
}

/// Seeded Fisher-Yates order of \p N corpus items. The splitmix64
/// steps are spelled out so the order is the same on every platform.
std::vector<size_t> drawOrder(uint64_t Seed, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  uint64_t X = Seed;
  for (size_t I = N; I > 1; --I) {
    X += 0x9e3779b97f4a7c15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Z ^= Z >> 31;
    std::swap(Order[I - 1], Order[Z % I]);
  }
  return Order;
}

unsigned hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

//===----------------------------------------------------------------------===//
// Clock, statistics, hashing
//===----------------------------------------------------------------------===//

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile \p P (0..100) of \p V.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, does not inherit the high-water mark of the process that
/// exec'd us (the Python launcher).
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // KiB on Linux
}

//===----------------------------------------------------------------------===//
// Spans: recorded in memory around calls into the library, written out
// when the run ends. A layer's self time is its spans' durations minus
// the time their child spans cover.
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  int64_t Start = 0;
  int64_t End = 0;
  int Parent = -1;
};

class Tracer {
public:
  bool On = false;

  int open(const std::string &Name) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> L(Mu);
    Spans.push_back({Name, nowNs(), 0, Current});
    Current = static_cast<int>(Spans.size()) - 1;
    return Current;
  }

  void close(int Id, const char *Rename = nullptr) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> L(Mu);
    Spans[Id].End = nowNs();
    if (Rename)
      Spans[Id].Name = Rename;
    Current = Spans[Id].Parent;
  }

  /// Self nanoseconds per span name.
  std::map<std::string, int64_t> selfNs() const {
    std::vector<int64_t> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.End - S.Start;
    std::map<std::string, int64_t> Self;
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[Spans[I].Name] += Spans[I].End - Spans[I].Start - Child[I];
    return Self;
  }

  std::vector<int64_t> durations(const std::string &Name) const {
    std::vector<int64_t> D;
    for (const Span &S : Spans)
      if (S.Name == Name)
        D.push_back(S.End - S.Start);
    return D;
  }

  void write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return;
    std::fprintf(F, "[\n");
    for (size_t I = 0; I != Spans.size(); ++I)
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d}%s\n",
                   I, Spans[I].Name.c_str(),
                   static_cast<long long>(Spans[I].Start),
                   static_cast<long long>(Spans[I].End), Spans[I].Parent,
                   I + 1 == Spans.size() ? "" : ",");
    std::fprintf(F, "]\n");
    std::fclose(F);
  }

private:
  std::mutex Mu;
  std::vector<Span> Spans;
  /// The innermost open span of the calling thread.
  static thread_local int Current;
};

thread_local int Tracer::Current = -1;

Tracer GTrace;

class ScopedSpan {
public:
  explicit ScopedSpan(const std::string &Name) : Id(GTrace.open(Name)) {}
  ~ScopedSpan() { GTrace.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Id;
};

//===----------------------------------------------------------------------===//
// The exec decorator: forwards every call unchanged and counts batches,
// cells and busy time on the calling thread.
//===----------------------------------------------------------------------===//

/// Job descriptors and outcomes kept for the codec replay.
struct CaptureStore {
  std::vector<std::vector<uint8_t>> Jobs;
  std::vector<RunOutcome> Outcomes;
};
CaptureStore GCapture;

CompileCounters operator-(const CompileCounters &A, const CompileCounters &B) {
  CompileCounters D;
  D.Parses = A.Parses - B.Parses;
  D.ParseNs = A.ParseNs - B.ParseNs;
  D.Semas = A.Semas - B.Semas;
  D.SemaNs = A.SemaNs - B.SemaNs;
  D.Clones = A.Clones - B.Clones;
  D.CloneNs = A.CloneNs - B.CloneNs;
  D.Opts = A.Opts - B.Opts;
  D.OptNs = A.OptNs - B.OptNs;
  D.Codegens = A.Codegens - B.Codegens;
  D.CodegenNs = A.CodegenNs - B.CodegenNs;
  D.Execs = A.Execs - B.Execs;
  D.ExecNs = A.ExecNs - B.ExecNs;
  return D;
}

CompileCounters operator+(const CompileCounters &A, const CompileCounters &B) {
  CompileCounters D;
  D.Parses = A.Parses + B.Parses;
  D.ParseNs = A.ParseNs + B.ParseNs;
  D.Semas = A.Semas + B.Semas;
  D.SemaNs = A.SemaNs + B.SemaNs;
  D.Clones = A.Clones + B.Clones;
  D.CloneNs = A.CloneNs + B.CloneNs;
  D.Opts = A.Opts + B.Opts;
  D.OptNs = A.OptNs + B.OptNs;
  D.Codegens = A.Codegens + B.Codegens;
  D.CodegenNs = A.CodegenNs + B.CodegenNs;
  D.Execs = A.Execs + B.Execs;
  D.ExecNs = A.ExecNs + B.ExecNs;
  return D;
}

struct ExecTally {
  uint64_t Batches = 0;
  uint64_t Cells = 0;
  uint64_t Columns = 0;
  int64_t BusyNs = 0;
  std::vector<double> BatchCells;
  /// Compile-profiler deltas inside this decorator's batches (traced
  /// runs, executor-facing decorator only).
  CompileCounters InBatch;
};

class TracedBackend final : public ExecBackend {
public:
  /// \p SpanName names the batch spans; \p GenSpan names forEachIndex
  /// spans ("" = none — the generation side is recorded once, at the
  /// outermost decorator).
  TracedBackend(ExecBackend &Inner, std::string SpanName, std::string GenSpan)
      : Inner(Inner), SpanName(std::move(SpanName)),
        GenSpan(std::move(GenSpan)) {}

  BackendKind kind() const override { return Inner.kind(); }
  unsigned concurrency() const override { return Inner.concurrency(); }

  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override {
    int64_t T0 = nowNs();
    int Id = GTrace.open(SpanName);
    CompileCounters C0 = CountCompile ? compileCounters() : CompileCounters();
    std::vector<RunOutcome> Out = Inner.run(Jobs);
    if (CountCompile)
      Tally.InBatch = Tally.InBatch + (compileCounters() - C0);
    GTrace.close(Id);
    note(T0, Jobs.size(), 0);
    capture(Jobs, Out);
    return Out;
  }

  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override {
    int64_t T0 = nowNs();
    int Id = GTrace.open(SpanName);
    CompileCounters C0 = CountCompile ? compileCounters() : CompileCounters();
    std::vector<RunOutcome> Out = Inner.runColumns(Columns);
    if (CountCompile)
      Tally.InBatch = Tally.InBatch + (compileCounters() - C0);
    GTrace.close(Id);
    note(T0, Out.size(), Columns.size());
    if (Capture && GCapture.Jobs.size() < CaptureJobs) {
      std::vector<ExecJob> Flat;
      for (const ExecColumn &C : Columns)
        Flat.insert(Flat.end(), C.Jobs.begin(), C.Jobs.end());
      capture(Flat, Out);
    }
    return Out;
  }

  void forEachIndex(size_t N,
                    const std::function<void(size_t)> &Body) override {
    int Id = GenSpan.empty() ? -1 : GTrace.open(GenSpan);
    Inner.forEachIndex(N, Body);
    GTrace.close(Id);
  }

  ExecTally Tally;
  /// Traced runs keep the first CaptureJobs descriptors and outcomes
  /// the outermost decorator sees, for the codec replay; the copy is its
  /// own span, charged to tracing.
  bool Capture = false;
  /// Traced runs snapshot the compile profiler around each batch.
  bool CountCompile = false;

private:
  void note(int64_t T0, size_t Cells, size_t Columns) {
    Tally.BusyNs += nowNs() - T0;
    ++Tally.Batches;
    Tally.Cells += Cells;
    Tally.Columns += Columns;
    Tally.BatchCells.push_back(static_cast<double>(Cells));
  }

  void capture(const std::vector<ExecJob> &Jobs,
               const std::vector<RunOutcome> &Out) {
    if (!Capture || GCapture.Jobs.size() >= CaptureJobs)
      return;
    ScopedSpan S("trace.capture");
    for (size_t I = 0;
         I != Jobs.size() && GCapture.Jobs.size() < CaptureJobs; ++I) {
      GCapture.Jobs.push_back(descriptorBytes(Jobs[I]));
      GCapture.Outcomes.push_back(Out[I]);
    }
  }

  ExecBackend &Inner;
  std::string SpanName;
  std::string GenSpan;
};

//===----------------------------------------------------------------------===//
// Set-up: backend construction, worker start, handshakes, subprocess
// spawn, ending when the executors have answered a warm-up batch.
//===----------------------------------------------------------------------===//

struct Rig {
  std::vector<std::unique_ptr<WorkerServer>> Servers;
  std::unique_ptr<ExecBackend> Backend;
};

/// Loopback fleet shape: two in-process workers of at most two slots
/// each, never more slots than the host has cores.
constexpr unsigned FleetWorkers = 2;
constexpr unsigned FleetSlotsPerWorker = 2;

const TestCase &warmUpKernel() {
  static const TestCase T = [] {
    GenOptions GO;
    GO.Mode = GenMode::Basic;
    GO.Seed = 7;
    return TestCase::fromGenerated(generateKernel(GO));
  }();
  return T;
}

/// Builds the workload's backend for a host of \p Threads cores: that
/// many pool threads, or the loopback fleet. Set-up ends when the
/// executors have answered a warm-up batch.
Rig buildRig(bool Fleet, unsigned Threads) {
  Rig R;
  if (!Fleet) {
    R.Backend = std::make_unique<ThreadPoolBackend>(
        ExecOptions::withThreads(Threads));
  } else {
    WorkerOptions WO;
    WO.Jobs =
        std::max(1u, std::min(FleetSlotsPerWorker, Threads / FleetWorkers));
    ExecOptions O;
    O.Backend = BackendKind::Remote;
    unsigned Workers = Threads >= FleetWorkers ? FleetWorkers : 1;
    for (unsigned I = 0; I != Workers; ++I) {
      R.Servers.push_back(std::make_unique<WorkerServer>(WO));
      if (!R.Servers.back()->start())
        throw std::runtime_error("cannot start a loopback worker");
      O.RemoteWorkers.push_back("127.0.0.1:" +
                                std::to_string(R.Servers.back()->port()));
    }
    R.Backend = makeRemoteBackend(O);
  }
  std::vector<ExecJob> Warm(
      4 * static_cast<size_t>(R.Backend->concurrency()),
      ExecJob::onReference(warmUpKernel(), false, RunSettings()));
  std::vector<RunOutcome> Out = R.Backend->run(Warm);
  for (const RunOutcome &O : Out)
    if (O.OutputHash != Out[0].OutputHash || O.Status != Out[0].Status)
      throw std::runtime_error("warm-up outcomes disagree");
  return R;
}

//===----------------------------------------------------------------------===//
// Campaign samples
//===----------------------------------------------------------------------===//

/// What one sample runs. Item I of a corpus hunts kernel seeds
/// [KernelBase + I * Kernels, + Kernels).
struct SampleShape {
  const char *Kind = "hunt"; ///< names its reference digests
  unsigned Kernels = HuntKernels;
  uint64_t KernelBase = 100001;
  bool Reduce = false; ///< hunt(reduce, triage) with the reduction lane
  bool Emi = false;    ///< an EMI campaign beside the hunt
  bool Cache = false;  ///< a fresh in-memory outcome cache per sample
};

SampleShape huntShape() { return SampleShape(); }

SampleShape reduceShape() {
  SampleShape S;
  S.Kind = "reduce";
  S.Kernels = ReduceKernels;
  S.KernelBase = 200001;
  S.Reduce = S.Emi = S.Cache = true;
  return S;
}

SampleShape probeShape() {
  SampleShape S = reduceShape();
  S.Kind = "probe";
  S.Kernels = ProbeKernels;
  S.Emi = S.Cache = false;
  return S;
}

struct Sample {
  SampleShape Shape;
  size_t Item = 0; ///< corpus item
  double WallS = 0;
  uint64_t Cells = 0; ///< campaign cells, at the outermost decorator
  std::string HuntDigest;
  std::string EmiDigest;
  std::vector<double> WitnessS; ///< one reduction-lane step each
  std::vector<double> LaneBatchCells;
  std::vector<double> FgStepNs;
  uint64_t Clusters = 0;
  uint64_t EmiCells = 0;
  int64_t EmiStepNs = 0;
  uint64_t Grants = 0;
  ExecTally Outer; ///< campaign-facing decorator
  ExecTally Inner; ///< executor-facing decorator
  OutcomeCacheStats Cache;
  bool Ok = true;
  std::string Error;
};

/// A report stream in memory, so a run writes no files of its own.
class MemStream {
public:
  MemStream() : F(open_memstream(&Buf, &Len)) {
    if (!F)
      throw std::runtime_error("cannot open a report stream");
  }
  ~MemStream() {
    std::fclose(F);
    std::free(Buf);
  }
  MemStream(const MemStream &) = delete;
  MemStream &operator=(const MemStream &) = delete;

  std::FILE *get() { return F; }
  std::string str() {
    std::fflush(F);
    return std::string(Buf, Len);
  }

private:
  char *Buf = nullptr;
  size_t Len = 0;
  std::FILE *F;
};

/// The hunt summary names the backend it ran on; that name is the only
/// backend-dependent byte in a report, so digests mask it.
std::string maskBackendName(std::string R) {
  const std::string Pre = " kernels on the ", Post = " backend;";
  for (size_t P = R.find(Pre); P != std::string::npos;
       P = R.find(Pre, P + Pre.size())) {
    size_t Q = R.find(Post, P + Pre.size());
    if (Q == std::string::npos)
      break;
    R.replace(P + Pre.size(), Q - P - Pre.size(), "*");
  }
  return R;
}

/// One sample's campaigns, built and ready to step. Everything a sample
/// builds — cache, decorators, report streams, campaigns, scheduler — is
/// its own, so samples are independent and a repeated sample repeats its
/// report.
class SampleRun {
public:
  SampleRun(ExecBackend &Exec, const SampleShape &Shape, size_t Item);
  SampleRun(const SampleRun &) = delete;
  SampleRun &operator=(const SampleRun &) = delete;

  /// Grants one scheduler step; false once every campaign is done.
  bool step();
  /// The finished sample; its wall time is the time spent in this
  /// object, however its steps were spread out.
  Sample finish();

private:
  void fail(const std::exception &E);

  Sample S;
  int64_t SpentNs = 0;
  bool Done = false;
  TriageCounters T0 = triageCounters();
  // Campaign-facing decorator -> [outcome cache -> executor-facing
  // decorator] -> the rig's backend. Declared before the campaigns and
  // the scheduler, which refer to them and so must go first.
  std::shared_ptr<OutcomeCache> OC;
  std::unique_ptr<ExecBackend> CacheLayer;
  std::unique_ptr<TracedBackend> Outer;
  TracedBackend *Inner = nullptr;
  MemStream HuntOut, EmiOut;
  HuntCampaign Hunt;
  std::unique_ptr<CampaignTask> Emi;
  std::unique_ptr<CampaignScheduler> Sched;
};

SampleRun::SampleRun(ExecBackend &Exec, const SampleShape &Shape,
                     size_t Item) {
  int64_t W0 = nowNs();
  ScopedSpan Build("campaign");
  S.Shape = Shape;
  S.Item = Item;
  if (Shape.Cache) {
    OutcomeCacheOptions CO;
    CO.Mode = CacheMode::Mem;
    OC = makeOutcomeCache(CO);
    auto In = std::make_unique<TracedBackend>(Exec, "exec.batch", "");
    Inner = In.get();
    CacheLayer = wrapWithOutcomeCache(std::move(In), OC);
    Outer = std::make_unique<TracedBackend>(*CacheLayer, "exec.cache", "gen");
  } else {
    Outer = std::make_unique<TracedBackend>(Exec, "exec.batch", "gen");
    Inner = Outer.get();
  }
  Outer->Capture = GTrace.On;
  Inner->CountCompile = GTrace.On;
  try {
    HuntSpec HS;
    HS.Seed = Shape.KernelBase + Item * Shape.Kernels;
    HS.Count = Shape.Kernels;
    if (Shape.Reduce) {
      HS.Reduce = HS.Triage = true;
      HS.ReduceOpts.Backend = Outer.get();
      HS.ReduceOpts.DispatchPriority = 1;
      HS.ReduceOpts.Exec.Threads = 1;
      HS.ReduceWorkers = 0;
      HS.ReduceOpts.MaxCandidates = ReduceBudget;
    }
    unsigned ShardSize = ExecOptions().resolvedShardSize();
    SchedOptions SO;
    SO.Cache = OC;
    Sched = std::make_unique<CampaignScheduler>(*Outer, SO);
    Hunt = makeHuntCampaign(HS, ShardSize, *Outer, HuntOut.get());
    Sched->add("hunt", *Hunt.Main);
    if (Hunt.Lane)
      Sched->add("hunt/reduce", *Hunt.Lane);
    if (Shape.Emi) {
      EmiSpec ES;
      ES.Bases = EmiBases;
      ES.SeedBase = 300001 + Item * 100;
      Emi = makeEmiTask(ES, ShardSize, *Outer, EmiOut.get());
      Sched->add("emi", *Emi);
    }
  } catch (const std::exception &E) {
    fail(E);
  }
  SpentNs += nowNs() - W0;
}

void SampleRun::fail(const std::exception &E) {
  S.Ok = false;
  S.Error = E.what();
  Done = true;
}

/// Each grant is a span named after its lane; each reduction-lane step
/// reduces and triages one witness.
bool SampleRun::step() {
  if (Done)
    return false;
  int64_t T0 = nowNs();
  size_t Batches0 = Outer->Tally.BatchCells.size();
  uint64_t Cells0 = Outer->Tally.Cells;
  int Id = GTrace.open("sched.step");
  try {
    Done = !Sched->stepOnce();
  } catch (const std::exception &E) {
    fail(E);
  }
  int64_t Dt = nowNs() - T0;
  SpentNs += Dt;
  if (Done) {
    GTrace.close(Id, "sched.idle");
    return false;
  }
  ++S.Grants;
  const ScheduledCampaign &C =
      Sched->campaigns()[Sched->allocationTrace().back()];
  bool Lane = C.Task->lane() == SchedLane::Reduction;
  GTrace.close(Id, Lane ? "sched.reduce_step" : "sched.fg_step");
  if (Lane) {
    S.WitnessS.push_back(Dt / 1e9);
    S.LaneBatchCells.insert(S.LaneBatchCells.end(),
                            Outer->Tally.BatchCells.begin() + Batches0,
                            Outer->Tally.BatchCells.end());
    return true;
  }
  S.FgStepNs.push_back(static_cast<double>(Dt));
  if (C.Name == "emi") {
    S.EmiCells += Outer->Tally.Cells - Cells0;
    S.EmiStepNs += Dt;
  }
  return true;
}

Sample SampleRun::finish() {
  int64_t W0 = nowNs();
  ScopedSpan Digest("campaign");
  S.Clusters = triageCounters().Clusters - T0.Clusters;
  S.HuntDigest = hex64(fnv1a(maskBackendName(HuntOut.str())));
  S.EmiDigest = S.Shape.Emi ? hex64(fnv1a(EmiOut.str())) : "";
  S.Outer = Outer->Tally;
  S.Inner = Inner->Tally;
  if (OC)
    S.Cache = OC->stats();
  S.Cells = S.Outer.Cells;
  S.WallS = (SpentNs + nowNs() - W0) / 1e9;
  return S;
}

/// Runs corpus item \p Item of \p Shape on \p Exec to completion.
Sample runSample(ExecBackend &Exec, const SampleShape &Shape, size_t Item) {
  SampleRun R(Exec, Shape, Item);
  while (R.step()) {
  }
  return R.finish();
}

//===----------------------------------------------------------------------===//
// Reference digests
//===----------------------------------------------------------------------===//

/// "<kind> <item> <digest>" lines; kind is hunt, probe or reduce (the
/// sample's hunt report) or emi (a reduction sample's EMI report).
using DigestKey = std::string;
DigestKey digestKey(const std::string &Kind, size_t Item) {
  return Kind + " " + std::to_string(Item);
}

bool loadDigests(const std::string &Path,
                 std::map<DigestKey, std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    std::string Kind, Digest;
    size_t Item;
    if (L >> Kind >> Item >> Digest)
      Out[digestKey(Kind, Item)] = Digest;
  }
  return true;
}

/// Checks \p S against the committed digests and \p Also (the same
/// sample on the reference backend, when given). Every report must have
/// a committed digest. Returns the number of mismatching reports and
/// prints each.
unsigned checkSample(const Sample &S,
                     const std::map<DigestKey, std::string> &Committed,
                     const Sample *Also, unsigned &Checked) {
  unsigned Bad = 0;
  auto Check = [&](const char *Kind, const std::string &Got,
                   const std::string &Want, const char *Against) {
    ++Checked;
    if (Got == Want)
      return;
    ++Bad;
    std::printf("MISMATCH %s %zu: %s, %s has %s\n", Kind, S.Item,
                Got.c_str(), Against, Want.c_str());
  };
  auto Committed1 = [&](const char *Kind, const std::string &Got) {
    auto It = Committed.find(digestKey(Kind, S.Item));
    Check(Kind, Got, It == Committed.end() ? "(none)" : It->second,
          "the committed reference");
  };
  Committed1(S.Shape.Kind, S.HuntDigest);
  if (S.Shape.Emi)
    Committed1("emi", S.EmiDigest);
  if (Also)
    Check(S.Shape.Kind, S.HuntDigest, Also->HuntDigest,
          "the reference backend");
  return Bad;
}

//===----------------------------------------------------------------------===//
// Workload runs
//===----------------------------------------------------------------------===//

/// The samples of one measurement window.
struct Window {
  std::vector<Sample> Hunts;   ///< diff workloads: the Table-4 hunt
  std::vector<Sample> Reduces; ///< reduction samples (witness turnaround)
  double WallS = 0;
};

bool isDiff(Workload W) { return W != Workload::ReduceTriage; }

/// Runs \p W's samples for \p Seconds, or exactly the samples of
/// \p Repeat when given. A diff workload runs hunt samples, starting a
/// new one while half of the previous round still fits, and runs its
/// turnaround probe in a closed loop beside them: after each hunt
/// sample the probe is stepped until its time catches up with the
/// hunts' (a finished probe is replaced by a fresh one), and the open
/// probe is run to the end after the window. So half of a diff window
/// goes to witnesses, a burst of host load slows a few of them rather
/// than all, and the run holds tens of witnesses, not one probe's eight.
/// reduce_triage runs whole passes over its (small) reduction corpus,
/// as many as fit, at least one: a partial pass would make its witness
/// set, and so its tail, depend on timing. Samples are taken from the
/// corpus in the order \p Seed draws.
Window runWindow(ExecBackend &B, Workload W, uint64_t Seed, double Seconds,
                 const Window *Repeat = nullptr) {
  Window Out;
  int64_t Start = nowNs();
  auto Elapsed = [&] { return (nowNs() - Start) / 1e9; };
  if (isDiff(W)) {
    std::vector<size_t> Order = drawOrder(Seed, HuntCorpus);
    std::unique_ptr<SampleRun> Probe;
    double HuntS = 0, ProbeS = 0, RoundS = 0;
    auto ProbesLeft = [&] {
      return !Repeat || Out.Reduces.size() < Repeat->Reduces.size();
    };
    auto StepProbe = [&] {
      int64_t T0 = nowNs();
      if (!Probe)
        Probe = std::make_unique<SampleRun>(B, probeShape(), 0);
      if (!Probe->step()) {
        Out.Reduces.push_back(Probe->finish());
        Probe.reset();
      }
      ProbeS += (nowNs() - T0) / 1e9;
    };
    for (size_t J = 0;; ++J) {
      bool Stop = Repeat ? J == Repeat->Hunts.size()
                         : J && Elapsed() + RoundS / 2 >= Seconds;
      if (Stop)
        break;
      int64_t T0 = nowNs();
      Out.Hunts.push_back(runSample(B, huntShape(), Order[J % HuntCorpus]));
      HuntS += Out.Hunts.back().WallS;
      while (ProbeS < HuntS && (Probe || ProbesLeft()))
        StepProbe();
      RoundS = (nowNs() - T0) / 1e9;
    }
    while (Probe || (Repeat && ProbesLeft()))
      StepProbe();
  } else {
    std::vector<size_t> Order = drawOrder(Seed, ReduceCorpus);
    for (size_t J = 0;; ++J) {
      double Now = Elapsed();
      bool Stop = Repeat ? J == Repeat->Reduces.size()
                  : J == 0 ? false
                           : J % ReduceCorpus == 0 &&
                                 Now + Now / (J / ReduceCorpus) > Seconds;
      if (Stop)
        break;
      Out.Reduces.push_back(
          runSample(B, reduceShape(), Order[J % ReduceCorpus]));
    }
  }
  Out.WallS = Elapsed();
  return Out;
}

/// The samples whose cells_per_s the workload reports.
const std::vector<Sample> &rateSamples(Workload W, const Window &Win) {
  return isDiff(W) ? Win.Hunts : Win.Reduces;
}

/// Campaign cells per second over \p Samples: the median of per-sample
/// rates when the samples are many and alike (diff hunts), the pooled
/// rate when they are few and mixed (reduction samples).
double cellsPerSecond(const std::vector<Sample> &Samples, bool Pooled) {
  std::vector<double> R;
  uint64_t Cells = 0;
  double Wall = 0;
  for (const Sample &S : Samples) {
    R.push_back(S.Cells / S.WallS);
    Cells += S.Cells;
    Wall += S.WallS;
  }
  return Pooled ? (Wall > 0 ? Cells / Wall : 0.0) : median(R);
}

std::vector<double> witnessTimes(const Window &Win) {
  std::vector<double> T;
  for (const Sample &S : Win.Reduces)
    T.insert(T.end(), S.WitnessS.begin(), S.WitnessS.end());
  return T;
}

double clustersPerMinute(const Window &Win) {
  uint64_t Clusters = 0;
  double Wall = 0;
  for (const Sample &S : Win.Reduces) {
    Clusters += S.Clusters;
    Wall += S.WallS;
  }
  return Wall > 0 ? Clusters / (Wall / 60.0) : 0.0;
}

/// Correctness of one window: committed digests, the reference
/// backend's reports (\p Ref: the same hunts, in order) and sample
/// errors. Returns the failed-cell count.
uint64_t checkWindow(const Window &Win,
                     const std::map<DigestKey, std::string> &Committed,
                     const std::vector<Sample> &Ref, unsigned &Checked) {
  uint64_t Failed = 0;
  auto One = [&](const Sample &S, const Sample *Also) {
    if (!S.Ok)
      std::printf("FAILED %s %zu: %s\n", S.Shape.Kind, S.Item,
                  S.Error.c_str());
    if (!S.Ok || checkSample(S, Committed, Also, Checked))
      Failed += std::max<uint64_t>(S.Cells, 1);
  };
  for (size_t I = 0; I != Win.Hunts.size(); ++I)
    One(Win.Hunts[I], I < Ref.size() ? &Ref[I] : nullptr);
  for (const Sample &S : Win.Reduces)
    One(S, nullptr);
  return Failed;
}

uint64_t windowCells(const Window &Win) {
  uint64_t N = 0;
  for (const Sample &S : Win.Hunts)
    N += S.Cells;
  for (const Sample &S : Win.Reduces)
    N += S.Cells;
  return N;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  size_t Samples; ///< how many measurements the value summarises
};

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O;
}

struct HostRecord {
  std::string Workload;
  uint64_t Seed = 0;
  std::string GitCommit;
  std::string SourceDigest;
  bool Traced = false;
};

std::string hostJson(const HostRecord &H) {
#if defined(__clang__)
  const char *Compiler = "clang";
#elif defined(__GNUC__)
  const char *Compiler = "gcc";
#else
  const char *Compiler = "unknown";
#endif
  std::ostringstream O;
  O << "{\"nproc\":" << hostThreads() << ",\"compiler\":\"" << Compiler
    << "\",\"compiler_version\":\"" << jsonEscape(__VERSION__)
    << "\",\"build_type\":\"" << CLFUZZ_BENCH_BUILD_TYPE
    << "\",\"vm_dispatch\":\"" << vmDispatchName(vmDispatchMode())
    << "\",\"vm_fusion\":" << (vmFusionEnabled() ? "true" : "false")
    << ",\"compile_clone\":" << (compileCloneEnabled() ? "true" : "false")
    << ",\"workload\":\"" << H.Workload << "\",\"seed\":" << H.Seed
    << ",\"traced\":" << (H.Traced ? "true" : "false")
    << ",\"git_commit\":\"" << jsonEscape(H.GitCommit)
    << "\",\"source_digest\":\"" << jsonEscape(H.SourceDigest) << "\"}";
  return O.str();
}

std::string metricsJson(const std::vector<Metric> &Ms, bool WithSamples) {
  std::ostringstream O;
  O << "{";
  for (size_t I = 0; I != Ms.size(); ++I) {
    O << (I ? "," : "") << "\"" << Ms[I].Name << "\":{\"value\":"
      << fmt(Ms[I].Value) << ",\"unit\":\"" << Ms[I].Unit << "\"";
    if (WithSamples)
      O << ",\"samples\":" << Ms[I].Samples;
    O << "}";
  }
  O << "}";
  return O.str();
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("metric %-30s %16s %-6s (n=%zu)\n", M.Name.c_str(),
                fmt(M.Value).c_str(), M.Unit.c_str(), M.Samples);
}

//===----------------------------------------------------------------------===//
// The traced run's layer metrics
//===----------------------------------------------------------------------===//

struct LayerReport {
  std::vector<Metric> Metrics;
  /// Metrics whose layer this workload cannot see -> why. The result
  /// line still carries them, as the coordinator reads them.
  std::map<std::string, std::string> Absent;
  std::vector<std::pair<std::string, int64_t>> Layers; ///< self ns
  int64_t WallNs = 0;
  int64_t ResidualNs = 0;
};

/// Replays generateKernel over the traced samples' kernel seeds.
double genNsPerKernel(const Window &Win) {
  std::vector<uint64_t> Seeds;
  for (const std::vector<Sample> *Ss : {&Win.Hunts, &Win.Reduces})
    for (const Sample &S : *Ss)
      for (unsigned K = 0;
           K != S.Shape.Kernels && Seeds.size() < ReplayKernels; ++K)
        Seeds.push_back(S.Shape.KernelBase + S.Item * S.Shape.Kernels + K);
  int64_t T0 = nowNs();
  for (uint64_t S : Seeds) {
    GenOptions GO;
    GO.Mode = GenMode::All;
    GO.Seed = S;
    generateKernel(GO);
  }
  int64_t Dt = nowNs() - T0;
  return Seeds.empty() ? 0.0 : static_cast<double>(Dt) / Seeds.size();
}

/// Replays the public job and outcome codecs over the captured jobs.
void wireReplay(std::vector<Metric> &Out) {
  size_t N = GCapture.Jobs.size();
  if (!N)
    return;
  int64_t Decode = 0, Encode = 0, Hash = 0, Outcome = 0;
  size_t Bytes = 0;
  for (size_t I = 0; I != N; ++I) {
    const std::vector<uint8_t> &B = GCapture.Jobs[I];
    Bytes += B.size();
    int64_t T0 = nowNs();
    WireReader R(B.data(), B.size());
    OwnedExecJob J = deserializeExecJob(R);
    int64_t T1 = nowNs();
    WireWriter Wr;
    serializeExecJob(Wr, J.view());
    int64_t T2 = nowNs();
    hashDescriptor(J.view());
    int64_t T3 = nowNs();
    WireWriter Ow;
    serializeRunOutcome(Ow, GCapture.Outcomes[I]);
    WireReader Or(Ow.buffer().data(), Ow.buffer().size());
    deserializeRunOutcome(Or);
    int64_t T4 = nowNs();
    if (Wr.buffer() != B)
      throw std::runtime_error("job codec replay is not byte-exact");
    Decode += T1 - T0;
    Encode += T2 - T1;
    Hash += T3 - T2;
    Outcome += T4 - T3;
  }
  double D = static_cast<double>(N);
  Out.push_back({"wire.job_encode_ns", Encode / D, "ns", N});
  Out.push_back({"wire.job_decode_ns", Decode / D, "ns", N});
  Out.push_back({"wire.outcome_codec_ns", Outcome / D, "ns", N});
  Out.push_back({"wire.descriptor_hash_ns", Hash / D, "ns", N});
  Out.push_back({"wire.bytes_per_job", Bytes / D, "bytes", N});
}

struct TraceInputs {
  Workload W;
  unsigned Concurrency;
  double SetupS;
  const Window *Untraced;
  const Window *Traced;
  int64_t PassNs;
  CompileCounters Compile;
  VmCounters Vm;
  TriageCounters Triage;
  FleetCounters Fleet;
  double SerialWallS;
  double ParallelWallS;
  /// Left 0 under diff_fleet: the coordinator runs no VM code.
  int64_t SwitchExecNs = 0;
  int64_t GotoExecNs = 0;
  /// diff_fleet: the same hunts on the threads backend.
  const std::vector<Sample> *ThreadsRef = nullptr;
};

LayerReport layerReport(const TraceInputs &In) {
  LayerReport R;
  const Window &Win = *In.Traced;
  bool Fleet = In.W == Workload::DiffFleet;
  bool Cache = In.W == Workload::ReduceTriage;
  auto Put = [&](const std::string &Name, double V, const char *Unit,
                 size_t N) { R.Metrics.push_back({Name, V, Unit, N}); };
  auto Gap = [&](const std::string &Name, const char *Why) {
    R.Absent[Name] = Why;
  };

  std::vector<const Sample *> All;
  for (const Sample &S : Win.Hunts)
    All.push_back(&S);
  for (const Sample &S : Win.Reduces)
    All.push_back(&S);

  // gen
  Put("gen.ns_per_kernel", genNsPerKernel(Win), "ns",
      ReplayKernels);

  // minicl / opt / vm: process-wide profiler deltas over the traced pass.
  // Under diff_fleet they hold the coordinator's own reading only.
  const CompileCounters &C = In.Compile;
  const VmCounters &V = In.Vm;
  Put("compile.parses", C.Parses, "count", 1);
  Put("compile.parse_ns", C.ParseNs, "ns", 1);
  Put("compile.sema_ns", C.SemaNs, "ns", 1);
  Put("compile.clones", C.Clones, "count", 1);
  Put("compile.clone_ns", C.CloneNs, "ns", 1);
  Put("opt.runs", C.Opts, "count", 1);
  Put("opt.ns", C.OptNs, "ns", 1);
  Put("vm.codegen_ns", C.CodegenNs, "ns", 1);
  Put("vm.exec_ns", C.ExecNs, "ns", 1);
  Put("vm.launches", V.Launches, "count", 1);
  Put("vm.instructions", V.Instructions, "count", 1);
  Put("vm.fused", V.FusedExecuted, "count", 1);
  Put("vm.ns_per_instruction",
      V.Instructions ? static_cast<double>(C.ExecNs) / V.Instructions : 0,
      "ns", 1);
  Put("vm.dispatch_switch_exec_ns", In.SwitchExecNs, "ns", 1);
  Put("vm.dispatch_goto_exec_ns", In.GotoExecNs, "ns", 1);
  if (Fleet)
    for (const char *N :
         {"compile.parses", "compile.parse_ns", "compile.sema_ns",
          "compile.clones", "compile.clone_ns", "opt.runs", "opt.ns",
          "vm.codegen_ns", "vm.exec_ns", "vm.launches", "vm.instructions",
          "vm.fused", "vm.ns_per_instruction", "exec.utilization",
          "vm.dispatch_switch_exec_ns", "vm.dispatch_goto_exec_ns"})
      Gap(N, "worker-side counter, invisible to the coordinator");

  // exec: the executor-facing decorator.
  ExecTally E;
  std::vector<double> Widths;
  for (const Sample *S : All) {
    E.Batches += S->Inner.Batches;
    E.Cells += S->Inner.Cells;
    E.Columns += S->Inner.Columns;
    E.BusyNs += S->Inner.BusyNs;
    E.InBatch = E.InBatch + S->Inner.InBatch;
    Widths.insert(Widths.end(), S->Inner.BatchCells.begin(),
                  S->Inner.BatchCells.end());
  }
  Put("exec.batches", E.Batches, "count", 1);
  Put("exec.cells", E.Cells, "count", 1);
  Put("exec.columns", E.Columns, "count", 1);
  Put("exec.cells_per_batch_p50", median(Widths), "count", Widths.size());
  Put("exec.busy_ns", E.BusyNs, "ns", 1);
  Put("exec.caller_ns", In.PassNs - E.BusyNs, "ns", 1);
  Put("exec.utilization",
      E.BusyNs ? E.InBatch.totalNs() /
                     (static_cast<double>(E.BusyNs) * In.Concurrency)
               : 0,
      "ratio", 1);
  Put("exec.speedup_vs_serial", In.SerialWallS / In.ParallelWallS, "ratio",
      1);

  // cache
  std::map<std::string, int64_t> Self = GTrace.selfNs();
  OutcomeCacheStats CS;
  for (const Sample *S : All) {
    CS.Hits += S->Cache.Hits;
    CS.Misses += S->Cache.Misses;
    CS.Coalesced += S->Cache.Coalesced;
  }
  uint64_t Lookups = CS.Hits + CS.Misses + CS.Coalesced;
  Put("cache.hits", CS.Hits, "count", 1);
  Put("cache.misses", CS.Misses, "count", 1);
  Put("cache.coalesced", CS.Coalesced, "count", 1);
  Put("cache.hit_ratio", Lookups ? double(CS.Hits) / Lookups : 0, "ratio", 1);
  Put("cache.self_ns", Self["exec.cache"], "ns", 1);
  if (!Cache)
    for (const char *N : {"cache.hits", "cache.misses", "cache.coalesced",
                          "cache.hit_ratio", "cache.self_ns"})
      Gap(N, "the outcome cache is off in this workload");

  // wire and fleet
  wireReplay(R.Metrics);
  double DispatchNs = 0;
  size_t K = Fleet ? In.ThreadsRef->size() : 0;
  if (Fleet) {
    // Over the hunts that also ran on the threads backend.
    auto BusyPerCell = [K](const std::vector<Sample> &Ss) {
      int64_t Busy = 0;
      uint64_t Cells = 0;
      for (size_t I = 0; I != K; ++I) {
        Busy += Ss[I].Inner.BusyNs;
        Cells += Ss[I].Inner.Cells;
      }
      return Cells ? static_cast<double>(Busy) / Cells : 0.0;
    };
    DispatchNs = BusyPerCell(Win.Hunts) - BusyPerCell(*In.ThreadsRef);
  }
  Put("fleet.dispatch_ns_per_cell", DispatchNs, "ns", K);
  Put("fleet.requeues", In.Fleet.Requeues, "count", 1);
  Put("fleet.evictions", In.Fleet.Evictions, "count", 1);
  Put("fleet.redials", In.Fleet.Redials, "count", 1);
  if (!Fleet)
    for (const char *N : {"fleet.dispatch_ns_per_cell", "fleet.requeues",
                          "fleet.evictions", "fleet.redials"})
      Gap(N, "no remote fleet in this workload");

  // reduction, triage, EMI, scheduler
  std::vector<double> LaneWidths, FgSteps;
  uint64_t Witnesses = 0, LaneCells = 0, EmiCells = 0, Grants = 0;
  int64_t EmiNs = 0;
  for (const Sample *S : All) {
    Witnesses += S->WitnessS.size();
    for (double W : S->LaneBatchCells)
      LaneCells += static_cast<uint64_t>(W);
    LaneWidths.insert(LaneWidths.end(), S->LaneBatchCells.begin(),
                      S->LaneBatchCells.end());
    FgSteps.insert(FgSteps.end(), S->FgStepNs.begin(), S->FgStepNs.end());
    EmiCells += S->EmiCells;
    EmiNs += S->EmiStepNs;
    Grants += S->Grants;
  }
  Put("reduce.witnesses", Witnesses, "count", 1);
  Put("reduce.cells_per_witness", Witnesses ? double(LaneCells) / Witnesses : 0,
      "count", Witnesses);
  Put("reduce.batch_cells_p50", median(LaneWidths), "count",
      LaneWidths.size());
  Put("triage.probes", In.Triage.Probes, "count", 1);
  Put("triage.probes_per_witness",
      In.Triage.Witnesses ? double(In.Triage.Probes) / In.Triage.Witnesses
                          : 0,
      "count", In.Triage.Witnesses);
  Put("triage.clusters", In.Triage.Clusters, "count", 1);
  Put("emi.cells", EmiCells, "count", 1);
  Put("emi.step_ns", EmiNs, "ns", 1);
  if (In.W != Workload::ReduceTriage) {
    Gap("emi.cells", "no EMI campaign in this workload");
    Gap("emi.step_ns", "no EMI campaign in this workload");
  }
  std::vector<int64_t> RedSteps = GTrace.durations("sched.reduce_step");
  Put("sched.grants", Grants, "count", 1);
  Put("sched.self_ns",
      Self["sched.fg_step"] + Self["sched.reduce_step"] + Self["sched.idle"],
      "ns", 1);
  Put("sched.reduce_step_ns",
      median(std::vector<double>(RedSteps.begin(), RedSteps.end())), "ns",
      RedSteps.size());
  Put("sched.fg_step_ns", median(FgSteps), "ns", FgSteps.size());

  // The layer table: setup + span self times (+ the executor-facing
  // batch time split by the compile profiler) + residual = wall.
  R.WallNs = static_cast<int64_t>(In.SetupS * 1e9) + In.PassNs;
  R.Layers.push_back({"setup", static_cast<int64_t>(In.SetupS * 1e9)});
  int64_t Covered = 0;
  for (const auto &[Name, Ns] : Self) {
    Covered += Ns;
    if (Name != "exec.batch" || Fleet) {
      R.Layers.push_back({Name == "exec.batch" ? "exec.remote" : Name, Ns});
      continue;
    }
    // In-batch CPU time of one phase, as wall time of the whole pool.
    auto Wall = [&](uint64_t CpuNs) {
      return static_cast<int64_t>(CpuNs / In.Concurrency);
    };
    const CompileCounters &B = E.InBatch;
    int64_t Minicl = Wall(B.ParseNs + B.SemaNs + B.CloneNs);
    int64_t Opt = Wall(B.OptNs);
    int64_t Codegen = Wall(B.CodegenNs);
    int64_t Exec = Wall(B.ExecNs);
    R.Layers.push_back({"exec.batch:minicl", Minicl});
    R.Layers.push_back({"exec.batch:opt", Opt});
    R.Layers.push_back({"exec.batch:vm.codegen", Codegen});
    R.Layers.push_back({"exec.batch:vm.exec", Exec});
    R.Layers.push_back(
        {"exec.batch:other", Ns - Minicl - Opt - Codegen - Exec});
  }
  R.ResidualNs = In.PassNs - Covered;

  bool Pooled = !isDiff(In.W);
  double Untraced = cellsPerSecond(rateSamples(In.W, *In.Untraced), Pooled);
  double Traced = cellsPerSecond(rateSamples(In.W, Win), Pooled);
  Put("trace.wall_ns", R.WallNs, "ns", 1);
  Put("trace.residual_ns", R.ResidualNs, "ns", 1);
  Put("trace.overhead", Traced > 0 ? Untraced / Traced - 1.0 : 0, "ratio",
      rateSamples(In.W, Win).size());
  return R;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string WorkloadName;
  Workload W = Workload::DiffThreads;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Digests;
  std::string Result;
  std::string SpansOut;
  std::string GitCommit = "unknown";
  std::string SourceDigest = "unknown";
  std::string WriteDigests;
  bool SelfTest = false;
};

/// Accepts both "--key value" and "--key=value".
bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I], Key = A, Val;
    size_t Eq = A.find('=');
    if (Eq != std::string::npos) {
      Key = A.substr(0, Eq);
      Val = A.substr(Eq + 1);
    } else if (A != "--self-test") {
      if (I + 1 >= Argc)
        return false;
      Val = Argv[++I];
    }
    if (Key == "--workload")
      O.WorkloadName = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--digests")
      O.Digests = Val;
    else if (Key == "--result")
      O.Result = Val;
    else if (Key == "--spans")
      O.SpansOut = Val;
    else if (Key == "--git-commit")
      O.GitCommit = Val;
    else if (Key == "--source-digest")
      O.SourceDigest = Val;
    else if (Key == "--write-digests")
      O.WriteDigests = Val;
    else if (Key == "--self-test")
      O.SelfTest = true;
    else
      return false;
  }
  return O.SelfTest || !O.WriteDigests.empty() ||
         (parseWorkload(O.WorkloadName, O.W) && O.Seconds > 0);
}

/// Regenerates the committed reference digests (every corpus item) on
/// the threads backend.
int writeDigests(const Options &O) {
  Rig R = buildRig(false, hostThreads());
  std::FILE *F = std::fopen(O.WriteDigests.c_str(), "w");
  if (!F)
    return 1;
  std::fprintf(F, "# kind item fnv1a64-of-report (see README.md)\n");
  auto Put = [&](const char *Kind, size_t Item, const std::string &D) {
    std::fprintf(F, "%s %zu %s\n", Kind, Item, D.c_str());
  };
  for (size_t I = 0; I != HuntCorpus; ++I)
    Put("hunt", I, runSample(*R.Backend, huntShape(), I).HuntDigest);
  Put("probe", 0, runSample(*R.Backend, probeShape(), 0).HuntDigest);
  for (size_t I = 0; I != ReduceCorpus; ++I) {
    Sample S = runSample(*R.Backend, reduceShape(), I);
    Put("reduce", I, S.HuntDigest);
    Put("emi", I, S.EmiDigest);
  }
  std::fclose(F);
  return 0;
}

/// Shows that the reference check catches a perturbed digest: hunt item
/// 0 must pass against the committed digests, and fail against a copy
/// with its digest altered and against an altered reference report.
int selfTest(const Options &O) {
  std::map<DigestKey, std::string> Committed;
  if (!loadDigests(O.Digests, Committed)) {
    std::printf("self-test: cannot read %s\n", O.Digests.c_str());
    return 1;
  }
  Rig R = buildRig(false, hostThreads());
  Sample S = runSample(*R.Backend, huntShape(), 0);
  unsigned Checked = 0;
  bool CleanPasses =
      checkSample(S, Committed, nullptr, Checked) == 0 && Checked == 1;
  std::map<DigestKey, std::string> Perturbed = Committed;
  std::string &D = Perturbed[digestKey("hunt", 0)];
  D.back() = D.back() == '0' ? '1' : '0';
  bool DigestCaught = checkSample(S, Perturbed, nullptr, Checked) == 1;
  Sample Ref = S;
  Ref.HuntDigest.back() = Ref.HuntDigest.back() == '0' ? '1' : '0';
  bool RefCaught = checkSample(S, Committed, &Ref, Checked) == 1;
  std::printf("self-test: committed digest %s, perturbed digest %s, "
              "perturbed threads reference %s\n",
              CleanPasses ? "matches" : "DOES NOT MATCH",
              DigestCaught ? "caught" : "MISSED",
              RefCaught ? "caught" : "MISSED");
  return CleanPasses && DigestCaught && RefCaught ? 0 : 1;
}

int runBenchmark(const Options &O) {
  bool Fleet = O.W == Workload::DiffFleet;
  unsigned Threads = hostThreads();
  std::map<DigestKey, std::string> Committed;
  if (!loadDigests(O.Digests, Committed)) {
    std::fprintf(stderr, "cannot read reference digests '%s'\n",
                 O.Digests.c_str());
    return 1;
  }

  // Set-up, several times; the last rig runs the workload.
  std::vector<double> SetupS;
  std::unique_ptr<Rig> R;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    R.reset();
    int64_t T0 = nowNs();
    R = std::make_unique<Rig>(buildRig(Fleet, Threads));
    SetupS.push_back((nowNs() - T0) / 1e9);
  }
  double SetupMedian = median(SetupS);
  ExecBackend &B = *R->Backend;

  // The timed window, untraced.
  FleetCounters F0 = fleetCounters();
  Window Win = runWindow(B, O.W, O.Seed, O.Seconds);
  FleetCounters F1 = fleetCounters();
  double Rss = peakRssMb();

  // The traced pass repeats the window's samples with spans on.
  Window Traced;
  TraceInputs TI{};
  if (O.Trace) {
    CompileCounters C0 = compileCounters();
    VmCounters V0 = vmCounters();
    TriageCounters Tr0 = triageCounters();
    FleetCounters Fl0 = fleetCounters();
    GTrace.On = true;
    int64_t P0 = nowNs();
    Traced = runWindow(B, O.W, O.Seed, 0, &Win);
    TI.PassNs = nowNs() - P0;
    GTrace.On = false;
    TI.Compile = compileCounters() - C0;
    VmCounters V1 = vmCounters();
    TI.Vm.Instructions = V1.Instructions - V0.Instructions;
    TI.Vm.FusedExecuted = V1.FusedExecuted - V0.FusedExecuted;
    TI.Vm.Launches = V1.Launches - V0.Launches;
    TriageCounters Tr1 = triageCounters();
    TI.Triage.Witnesses = Tr1.Witnesses - Tr0.Witnesses;
    TI.Triage.Probes = Tr1.Probes - Tr0.Probes;
    TI.Triage.Clusters = Tr1.Clusters - Tr0.Clusters;
    FleetCounters Fl1 = fleetCounters();
    TI.Fleet.Requeues = Fl1.Requeues - Fl0.Requeues;
    TI.Fleet.Evictions = Fl1.Evictions - Fl0.Evictions;
    TI.Fleet.Redials = Fl1.Redials - Fl0.Redials;
  }

  // diff_fleet's first hunts re-run on the threads backend: their
  // reports must match byte for byte. (Every hunt is also checked
  // against the committed digests, which the threads backend wrote.)
  std::vector<Sample> RefHunts;
  if (Fleet) {
    Rig Ref = buildRig(false, Threads);
    for (size_t I = 0; I != std::min<size_t>(FleetRefHunts, Win.Hunts.size());
         ++I)
      RefHunts.push_back(
          runSample(*Ref.Backend, huntShape(), Win.Hunts[I].Item));
  }

  unsigned Checked = 0;
  uint64_t Failed = checkWindow(Win, Committed, RefHunts, Checked);
  Failed += F1.Requeues - F0.Requeues;
  uint64_t Attempted = windowCells(Win);
  if (O.Trace) {
    Failed += checkWindow(Traced, Committed, RefHunts, Checked);
    Failed += TI.Fleet.Requeues;
    Attempted += windowCells(Traced);
  }
  Attempted = std::max<uint64_t>(Attempted, 1);

  // End-to-end metrics.
  const std::vector<Sample> &Rated = rateSamples(O.W, Win);
  std::vector<double> Wit = witnessTimes(Win);
  double Tail = percentile(Wit, TailPercentile);
  std::vector<Metric> E2E = {
      {"cells_per_s", cellsPerSecond(Rated, !isDiff(O.W)), "1/s", Rated.size()},
      {"setup_s", SetupMedian, "s", SetupS.size()},
      {"peak_rss_mb", Rss, "MB", 1},
      {"reduce_p50_s", median(Wit), "s", Wit.size()},
      {"reduce_tail_s", Tail, "s", Wit.size()},
      {"clusters_per_min", clustersPerMinute(Win), "1/min", Win.Reduces.size()},
  };
  double FailRatio = static_cast<double>(Failed) / Attempted;

  HostRecord H{O.WorkloadName, O.Seed, O.GitCommit, O.SourceDigest, O.Trace};
  std::string Host = hostJson(H);
  std::printf("host %s\n", Host.c_str());
  std::printf("window: %zu hunt samples, %zu reduction samples, %.3f s; "
              "reduce_tail_s is p%u of %zu witnesses\n",
              Win.Hunts.size(), Win.Reduces.size(), Win.WallS, TailPercentile,
              Wit.size());
  printMetrics(E2E);
  std::printf("metric %-30s %16s %-6s (%llu of %llu cells; %u reports "
              "checked)\n",
              "fail_ratio", fmt(FailRatio).c_str(), "ratio",
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted), Checked);

  LayerReport L;
  if (O.Trace) {
    // Extras, tracing off: the first rated samples again, alternately on
    // the workload's backend and on a one-executor one, and the VM's two
    // dispatch loops on the first.
    size_t N = std::min<size_t>(isDiff(O.W) ? 4 : 1, Rated.size());
    SampleShape Primary = isDiff(O.W) ? huntShape() : reduceShape();
    {
      Rig Serial = buildRig(Fleet, 1);
      for (size_t J = 0; J != N; ++J) {
        TI.ParallelWallS += runSample(B, Primary, Rated[J].Item).WallS;
        TI.SerialWallS +=
            runSample(*Serial.Backend, Primary, Rated[J].Item).WallS;
      }
    }
    if (!Fleet) {
      VmDispatch Orig = vmDispatchMode();
      for (VmDispatch D : {VmDispatch::Switch, VmDispatch::Goto}) {
        setVmDispatchMode(D);
        uint64_t X0 = compileCounters().ExecNs;
        runSample(B, Primary, Rated[0].Item);
        (D == VmDispatch::Switch ? TI.SwitchExecNs : TI.GotoExecNs) =
            static_cast<int64_t>(compileCounters().ExecNs - X0);
      }
      setVmDispatchMode(Orig);
    }
    TI.W = O.W;
    TI.Concurrency = B.concurrency();
    TI.SetupS = SetupMedian;
    TI.Untraced = &Win;
    TI.Traced = &Traced;
    TI.ThreadsRef = &RefHunts;
    L = layerReport(TI);
    std::printf("layer table (traced pass, wall = setup + self times + "
                "residual):\n");
    for (const auto &[Name, Ns] : L.Layers)
      std::printf("layer %-24s %14lld ns %6.2f%%\n", Name.c_str(),
                  static_cast<long long>(Ns), 100.0 * Ns / L.WallNs);
    std::printf("layer %-24s %14lld ns %6.2f%%\n", "residual",
                static_cast<long long>(L.ResidualNs),
                100.0 * L.ResidualNs / L.WallNs);
    std::printf("layer %-24s %14lld ns\n", "wall",
                static_cast<long long>(L.WallNs));
    printMetrics(L.Metrics);
    for (const auto &[Name, Why] : L.Absent)
      std::printf("absent %s: %s (the result line carries the "
                  "coordinator's reading)\n",
                  Name.c_str(), Why.c_str());
    if (!O.SpansOut.empty())
      GTrace.write(O.SpansOut);
  }

  const std::vector<Metric> &Reported = O.Trace ? L.Metrics : E2E;
  if (!O.Result.empty()) {
    if (std::FILE *F = std::fopen(O.Result.c_str(), "w")) {
      std::fprintf(F, "{\"host\":%s,\"correct\":%s,\"attempted\":%llu,"
                      "\"failed\":%llu,\"fail_ratio\":%s,",
                   Host.c_str(), Failed ? "false" : "true",
                   static_cast<unsigned long long>(Attempted),
                   static_cast<unsigned long long>(Failed),
                   fmt(FailRatio).c_str());
      std::fprintf(F, "\"end_to_end\":%s,\"reduce_tail_percentile\":%u,",
                   metricsJson(E2E, true).c_str(), TailPercentile);
      std::fprintf(F, "\"per_layer\":%s,\"absent\":{",
                   metricsJson(L.Metrics, true).c_str());
      size_t I = 0;
      for (const auto &[Name, Why] : L.Absent)
        std::fprintf(F, "%s\"%s\":\"%s\"", I++ ? "," : "", Name.c_str(),
                     Why.c_str());
      std::fprintf(F, "},\"layers\":{");
      I = 0;
      for (const auto &[Name, Ns] : L.Layers)
        std::fprintf(F, "%s\"%s\":%lld", I++ ? "," : "", Name.c_str(),
                     static_cast<long long>(Ns));
      std::fprintf(F, "},\"residual_ns\":%lld,\"wall_ns\":%lld}\n",
                   static_cast<long long>(L.ResidualNs),
                   static_cast<long long>(L.WallNs));
      std::fclose(F);
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              Failed ? "false" : "true",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              metricsJson(Reported, false).c_str());
  return Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload diff_threads|diff_fleet|"
                 "reduce_triage --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    if (O.SelfTest)
      return selfTest(O);
    if (!O.WriteDigests.empty())
      return writeDigests(O);
    return runBenchmark(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "campaign_bench: %s\n", E.what());
    return 1;
  }
}
