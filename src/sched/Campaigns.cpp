//===- Campaigns.cpp - Schedulable campaign task builders --------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
// The report-formatting code here IS the solo commands' output path
// (`clfuzz hunt/diff/reduce` construct these tasks), so every printf
// format below is load-bearing for byte-identity between solo and
// scheduled runs — and for the CI jobs that diff the two.
//
//===----------------------------------------------------------------------===//

#include "sched/Campaigns.h"

#include "device/DeviceConfig.h"
#include "exec/JobSerialize.h"
#include "exec/Pipeline.h"
#include "oracle/Campaign.h"
#include "oracle/Oracle.h"
#include "support/Metrics.h"
#include "support/StringUtil.h"
#include "triage/Triage.h"

#include <set>

using namespace clfuzz;

namespace {

/// The paper's above-threshold configurations (Table 1), in id order:
/// the cells hunt and EMI campaigns test.
std::vector<DeviceConfig> aboveThresholdConfigs() {
  std::vector<DeviceConfig> Zoo = buildConfigRegistry();
  std::vector<DeviceConfig> Targets;
  for (int Id : paperAboveThresholdIds())
    Targets.push_back(configById(Zoo, Id));
  return Targets;
}

/// Opens a report side file ("-" = stderr); says so on stderr and
/// returns null when \p Path cannot be opened.
std::FILE *openSideFile(const std::string &Path, const char *What) {
  std::FILE *F = Path == "-" ? stderr : std::fopen(Path.c_str(), "w");
  if (!F)
    std::fprintf(stderr, "cannot open %s '%s'\n", What, Path.c_str());
  return F;
}

void closeSideFile(std::FILE *F) {
  if (F && F != stderr)
    std::fclose(F);
}

//===----------------------------------------------------------------------===//
// diff
//===----------------------------------------------------------------------===//

/// One kernel across the whole zoo: a single backend batch, then the
/// report — one step.
class DiffTask final : public CampaignTask {
public:
  DiffTask(DiffSpec Spec, ExecBackend &Backend, std::FILE *Out)
      : Spec(std::move(Spec)), Backend(Backend), Out(Out) {}

  bool done() const override { return Finished; }

  void step() override {
    TestCase T = TestCase::fromGenerated(generateKernel(Spec.Gen));
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    std::vector<ExecJob> Jobs;
    cubeExpander(Zoo, RunSettings())(0, T, Jobs);
    std::vector<std::string> Labels;
    for (const ConfigKey &K : cellKeys(Zoo))
      Labels.push_back(cellLabel(K));
    // The whole zoo runs one kernel: a single column, parsed once per
    // worker instead of once per cell.
    std::vector<RunOutcome> Outs =
        Backend.runColumns(groupIntoColumns(Jobs));
    JobsRun = Jobs.size();

    if (Spec.Format == "csv" || Spec.Format == "jsonl") {
      std::unique_ptr<ResultSink> Sink;
      if (Spec.Format == "csv")
        Sink = std::make_unique<CsvOutcomeSink>(Out, Labels);
      else
        Sink = std::make_unique<JsonlOutcomeSink>(Out, Labels);
      Sink->consumeTest(0, T, Outs);
      Sink->finish();
      Finished = true;
      return;
    }
    std::vector<Verdict> Vs = classifyAgainstMajority(Outs);
    unsigned Wrong = 0;
    for (size_t I = 0; I != Vs.size(); ++I) {
      std::fprintf(Out, "%-5s %-4s", Labels[I].c_str(),
                   verdictName(Vs[I]));
      if (Outs[I].ok())
        std::fprintf(Out, " %s", toHex(Outs[I].OutputHash).c_str());
      else
        std::fprintf(Out, " %s", Outs[I].Message.c_str());
      std::fprintf(Out, "\n");
      if (Vs[I] == Verdict::Wrong) {
        ++Wrong;
        Fingerprints.insert(hashDescriptor(Jobs[I]));
      }
    }
    std::fprintf(Out, "\n%u wrong-code verdicts\n", Wrong);
    Finished = true;
  }

  size_t distinctWitnesses() const override { return Fingerprints.size(); }
  size_t testsDone() const override { return Finished ? 1 : 0; }
  size_t jobsDone() const override { return JobsRun; }

private:
  DiffSpec Spec;
  ExecBackend &Backend;
  std::FILE *Out;
  std::set<uint64_t> Fingerprints;
  size_t JobsRun = 0;
  bool Finished = false;
};

//===----------------------------------------------------------------------===//
// hunt
//===----------------------------------------------------------------------===//

/// Streams hunt findings: votes per kernel as its cells arrive and
/// prints wrong-code witnesses immediately, in seed order; with a
/// reduction queue attached, every witness is also submitted for
/// background shrinking while the hunt keeps going. Memory is one
/// kernel's outcomes, regardless of the count.
class HuntSink final : public ResultSink {
public:
  HuntSink(uint64_t SeedBase, std::vector<std::string> Labels,
           const std::vector<DeviceConfig> &Targets,
           ReductionQueue *Reductions, bool Triage, std::FILE *Out)
      : SeedBase(SeedBase), Labels(std::move(Labels)), Targets(Targets),
        Reductions(Reductions), Triage(Triage), Out(Out) {}

  void consumeTest(size_t TestIndex, const TestCase &T,
                   const std::vector<RunOutcome> &Outs) override {
    std::vector<Verdict> Vs = classifyAgainstMajority(Outs);
    for (size_t I = 0; I != Vs.size(); ++I) {
      if (Vs[I] != Verdict::Wrong)
        continue;
      ++Findings;
      // The witness cell's job descriptor is the distinctness
      // fingerprint: the same (kernel, config, opt) witness found
      // twice counts once for the yield-weighted policy.
      Fingerprints.insert(hashDescriptor(ExecJob::onConfig(
          T, Targets[I / 2], /*Opt=*/I % 2 != 0, RunSettings())));
      std::fprintf(Out, "seed %llu: wrong code on config %s\n",
                   static_cast<unsigned long long>(SeedBase + TestIndex),
                   Labels[I].c_str());
      if (Reductions) {
        ReductionJob Job;
        Job.OrderKey = TestIndex * Labels.size() + I;
        Job.Label = "seed " +
                    std::to_string(SeedBase + TestIndex) + " config " +
                    Labels[I];
        Job.Witness = T;
        Job.Oracle = std::make_shared<DifferentialReductionOracle>(
            Targets[I / 2], /*Opt=*/I % 2 != 0);
        if (Triage)
          Job.Triage = TriageRequest{Targets[I / 2], /*Opt=*/I % 2 != 0};
        Reductions->submit(std::move(Job));
      }
    }
  }

  uint64_t SeedBase;
  std::vector<std::string> Labels;
  const std::vector<DeviceConfig> &Targets;
  ReductionQueue *Reductions;
  bool Triage;
  std::FILE *Out;
  unsigned Findings = 0;
  std::set<uint64_t> Fingerprints;
};

class HuntTask final : public CampaignTask {
public:
  HuntTask(HuntSpec Spec, unsigned ShardSize, ExecBackend &Backend,
           ReductionQueue *Queue, std::FILE *Out)
      : Spec(std::move(Spec)), Backend(Backend), Queue(Queue), Out(Out),
        Targets(aboveThresholdConfigs()) {
    for (const ConfigKey &K : cellKeys(Targets))
      Labels.push_back(cellLabel(K));

    Source = std::make_unique<GeneratorSource>(
        this->Spec.Mode, GenOptions(), this->Spec.Seed, this->Spec.Count,
        /*Prefilter=*/false, /*Config1=*/nullptr, RunSettings(), Backend);

    if (this->Spec.Format == "csv")
      Sink = std::make_unique<CsvOutcomeSink>(Out, Labels);
    else if (this->Spec.Format == "jsonl")
      Sink = std::make_unique<JsonlOutcomeSink>(Out, Labels);
    else {
      auto HS = std::make_unique<HuntSink>(this->Spec.Seed, Labels,
                                           Targets, Queue,
                                           this->Spec.Triage, Out);
      Findings = HS.get();
      Sink = std::move(HS);
    }

    Run = std::make_unique<ShardedCampaignRun>(
        *Source, Backend, ShardSize, cubeExpander(Targets, RunSettings()),
        *Sink);
  }

  bool done() const override { return Phase == PhaseKind::Done; }

  /// True while the campaign proper is still running (the reduction
  /// lane closes when this goes false: no further submissions).
  bool mainPhaseActive() const { return Phase == PhaseKind::Main; }

  bool ready() const override {
    // Waiting for background/lane reductions to finish is the only
    // not-ready state; under the scheduler the reduction lane is
    // ready exactly while jobs are queued, so one of the two always
    // progresses.
    if (Phase == PhaseKind::WaitReductions)
      return Queue->allDone();
    return Phase != PhaseKind::Done;
  }

  void waitReady() override {
    // Solo driver over a *threaded* queue: block until the
    // background workers finish instead of spinning.
    if (Phase == PhaseKind::WaitReductions)
      Queue->waitAll();
  }

  void step() override {
    switch (Phase) {
    case PhaseKind::Main:
      if (!Run->step()) {
        if (Findings)
          std::fprintf(
              Out,
              "%u findings over %zu kernels on the %s backend; rerun "
              "`clfuzz gen --mode=%s --seed=<seed>` to inspect a "
              "witness\n",
              Findings->Findings, Run->stats().Tests, Backend.name(),
              Spec.ModeName.c_str());
        Phase = (Queue && Findings) ? PhaseKind::WaitReductions
                                    : PhaseKind::Done;
      }
      return;
    case PhaseKind::WaitReductions:
      printReductions();
      Phase = PhaseKind::Done;
      return;
    case PhaseKind::Done:
      return;
    }
  }

  size_t distinctWitnesses() const override {
    return Findings ? Findings->Fingerprints.size() : 0;
  }
  size_t testsDone() const override { return Run->stats().Tests; }
  size_t jobsDone() const override { return Run->stats().Jobs; }
  int exitCode() const override { return ExitCodeV; }

private:
  enum class PhaseKind { Main, WaitReductions, Done };

  void printReductions() {
    std::vector<ReductionResult> Reduced = Queue->drain();
    if (!Reduced.empty())
      std::fprintf(Out, "\n%zu witnesses reduced in the background:\n",
                   Reduced.size());
    for (const ReductionResult &R : Reduced) {
      if (!R.Error.empty()) {
        std::fprintf(Out,
                     "\n%s: reduction failed (%s); witness kept as-is\n",
                     R.Label.c_str(), R.Error.c_str());
        continue;
      }
      std::fprintf(Out,
                   "\n%s: %u -> %u lines (%u candidates tried, %u kept)\n",
                   R.Label.c_str(), R.Stats.InitialLines,
                   R.Stats.FinalLines, R.Stats.CandidatesTried,
                   R.Stats.CandidatesKept);
      std::fprintf(Out, "%s", R.Reduced.Source.c_str());
      if (R.Triage)
        std::fprintf(Out, "%s: %s\n", R.Label.c_str(),
                     renderTriageLine(*R.Triage).c_str());
    }
    if (Spec.Triage)
      printTriageSummary(Reduced);
    if (!Spec.ReduceTracePath.empty()) {
      std::FILE *F = openSideFile(Spec.ReduceTracePath, "trace file");
      if (!F) {
        ExitCodeV = 1;
        return;
      }
      // Traces were buffered per witness; emitting them in drain
      // order keeps the file byte-identical however the background
      // jobs interleaved.
      for (const ReductionResult &R : Reduced)
        std::fwrite(R.Trace.data(), 1, R.Trace.size(), F);
      closeSideFile(F);
    }
  }

  /// The distinct-bug epilogue for `hunt --reduce --triage`: one
  /// summary line on the report stream, plus the optional csv/jsonl
  /// sink file. Drain order is deterministic, so both are
  /// byte-identical however the background jobs interleaved.
  void printTriageSummary(const std::vector<ReductionResult> &Reduced) {
    std::set<std::string> Keys;
    size_t Triaged = 0;
    for (const ReductionResult &R : Reduced)
      if (R.Triage) {
        ++Triaged;
        if (!R.Triage->ClusterKey.empty())
          Keys.insert(R.Triage->ClusterKey);
      }
    // Charged here (not in triageWitness) so the increment lands
    // inside this campaign's own step under the scheduler: the
    // per-campaign stats delta attributes it exactly.
    bump(Counter::TriageClusters, Keys.size());
    if (Triaged)
      std::fprintf(Out,
                   "\ntriage: %zu distinct bug cluster(s) across %zu "
                   "triaged witness(es)\n",
                   Keys.size(), Triaged);
    if (Spec.TriageOut.empty())
      return;
    std::FILE *F = openSideFile(Spec.TriageOut, "triage report file");
    if (!F) {
      ExitCodeV = 1;
      return;
    }
    std::string Report;
    if (Spec.TriageFormat == "csv")
      Report += triageCsvHeader();
    for (const ReductionResult &R : Reduced) {
      if (!R.Triage)
        continue;
      Report += Spec.TriageFormat == "csv"
                    ? renderTriageCsvRow(R.Label, *R.Triage)
                    : renderTriageJsonl(R.Label, *R.Triage);
    }
    std::fwrite(Report.data(), 1, Report.size(), F);
    closeSideFile(F);
  }

  HuntSpec Spec;
  ExecBackend &Backend;
  ReductionQueue *Queue;
  std::FILE *Out;
  std::vector<DeviceConfig> Targets;
  std::vector<std::string> Labels;
  std::unique_ptr<GeneratorSource> Source;
  std::unique_ptr<ResultSink> Sink;
  HuntSink *Findings = nullptr; ///< null for csv/jsonl
  std::unique_ptr<ShardedCampaignRun> Run;
  PhaseKind Phase = PhaseKind::Main;
  int ExitCodeV = 0;
};

//===----------------------------------------------------------------------===//
// EMI
//===----------------------------------------------------------------------===//

/// The §7.4 campaign as a schedulable task over the above-threshold
/// configurations: one EmiCampaignRun step per scheduler step, a line
/// when base collection ends, and one table row per (config, opt)
/// cell once every base is voted.
class EmiTask final : public CampaignTask {
public:
  EmiTask(const EmiSpec &Spec, unsigned ShardSize, ExecBackend &Backend,
          std::FILE *Out)
      : Spec(Spec), Out(Out),
        Run(aboveThresholdConfigs(), settingsFor(Spec), Backend,
            ShardSize) {}

  bool done() const override { return Run.done(); }

  void step() override {
    if (Run.done())
      return;
    bool WasCollecting = Run.collecting();
    Run.step();
    if (WasCollecting && !Run.collecting())
      std::fprintf(Out,
                   "emi: %u usable bases (seed %llu, %u-%u dead blocks, "
                   "%zu cells)\n",
                   Run.usableBases(),
                   static_cast<unsigned long long>(Spec.SeedBase),
                   Spec.MinBlocks, Spec.MaxBlocks, Run.columns().size());
    if (Run.done())
      printTable();
  }

  /// Every wrong (base, cell) pair is its own witness: the bases are
  /// distinct kernels, so the wrong-cell total needs no deduplication.
  size_t distinctWitnesses() const override {
    size_t Wrong = 0;
    for (const EmiCampaignColumn &C : Run.columns())
      Wrong += C.Wrong;
    return Wrong;
  }
  size_t testsDone() const override { return Run.testsDone(); }
  size_t jobsDone() const override { return Run.jobsDone(); }

private:
  static EmiCampaignSettings settingsFor(const EmiSpec &Spec) {
    EmiCampaignSettings S;
    S.NumBases = Spec.Bases;
    S.MinEmiBlocks = Spec.MinBlocks;
    S.MaxEmiBlocks = Spec.MaxBlocks;
    S.Base.SeedBase = Spec.SeedBase;
    return S;
  }

  void printTable() {
    std::fprintf(Out,
                 "cell  base-fail wrong induced-bf induced-crash "
                 "induced-timeout stable\n");
    for (const EmiCampaignColumn &C : Run.columns())
      std::fprintf(Out, "%-5s %9u %5u %10u %13u %15u %6u\n",
                   cellLabel(C.Key).c_str(), C.BaseFails, C.Wrong,
                   C.InducedBF, C.InducedCrash, C.InducedTimeout,
                   C.Stable);
  }

  EmiSpec Spec;
  std::FILE *Out;
  EmiCampaignRun Run;
};

//===----------------------------------------------------------------------===//
// reduce and triage
//===----------------------------------------------------------------------===//

/// One witness reduced (and, for triage, then bisected) as a campaign.
/// The whole job runs in a single step: reduction rounds and bisection
/// probes are internally sharded over the backend, but neither loop is
/// re-entrant, so the scheduler treats the campaign as one coarse grant
/// (queued hunt reductions behave the same way through the lane).
class WitnessTask : public CampaignTask {
public:
  bool done() const override { return Finished; }
  size_t distinctWitnesses() const override { return Interesting ? 1 : 0; }
  size_t testsDone() const override { return Finished ? 1 : 0; }
  size_t jobsDone() const override { return JobsRun; }
  int exitCode() const override { return ExitCodeV; }

protected:
  /// Generates the witness of \p Gen and runs reduceAndTriage on it.
  /// A witness \p Oracle rejects outright is neither reduced nor
  /// triaged: that is reported on stderr ("does not \p Fails on config
  /// \p Cell"), the exit code becomes 1 and the result is empty.
  std::optional<ReductionResult>
  reduceWitness(const GenOptions &Gen, const ReductionOracle &Oracle,
                const ReducerOptions &Opts,
                const std::optional<TriageRequest> &Triage,
                const std::string &Cell, const char *Fails) {
    ReductionResult R =
        reduceAndTriage(TestCase::fromGenerated(generateKernel(Gen)),
                        Oracle, Opts, Triage, /*TriageUninteresting=*/false);
    JobsRun = R.Stats.CandidatesTried;
    if (!R.Stats.WitnessWasInteresting) {
      std::fprintf(stderr,
                   "witness is not interesting: seed %llu does not %s on "
                   "config %s\n",
                   static_cast<unsigned long long>(Gen.Seed), Fails,
                   Cell.c_str());
      ExitCodeV = 1;
      return std::nullopt;
    }
    Interesting = true;
    if (R.Triage)
      JobsRun += R.Triage->Probes;
    return R;
  }

  static std::string cellName(const DeviceConfig &Config, bool Opt) {
    return std::to_string(Config.Id) + (Opt ? "+" : "-");
  }

  bool Finished = false;
  bool Interesting = false;
  size_t JobsRun = 0;
  int ExitCodeV = 0;
};

class ReduceTask final : public WitnessTask {
public:
  ReduceTask(ReduceSpec Spec, std::FILE *Out)
      : Spec(std::move(Spec)), Out(Out) {}

  void step() override {
    Finished = true;
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    const DeviceConfig &Config = configById(Zoo, Spec.ConfigId);

    std::unique_ptr<ReductionOracle> Oracle;
    if (Spec.Expect == "wrong")
      Oracle = std::make_unique<DifferentialReductionOracle>(Config,
                                                             Spec.Opt);
    else
      Oracle = std::make_unique<StatusReductionOracle>(
          Config, Spec.Opt,
          Spec.Expect == "crash"     ? RunStatus::Crash
          : Spec.Expect == "timeout" ? RunStatus::Timeout
                                     : RunStatus::BuildFailure);

    ReducerOptions RO = Spec.Opts;
    std::FILE *TraceFile = nullptr;
    if (!Spec.TracePath.empty()) {
      TraceFile = openSideFile(Spec.TracePath, "trace file");
      if (!TraceFile) {
        ExitCodeV = 2;
        return;
      }
      RO.Trace = makeJsonlReduceTrace(TraceFile);
    }

    std::string Cell = cellName(Config, Spec.Opt);
    std::optional<ReductionResult> R = reduceWitness(
        Spec.Gen, *Oracle, RO, std::nullopt, Cell,
        Spec.Expect == "wrong" ? "miscompile" : Spec.Expect.c_str());
    closeSideFile(TraceFile);
    if (!R)
      return;

    // The report is deliberately backend-silent: `reduce` output is
    // byte-identical across backends and worker counts.
    const ReduceStats &Stats = R->Stats;
    std::fprintf(Out, "// reduced witness: seed %llu, config %s, %s\n",
                 static_cast<unsigned long long>(Spec.Gen.Seed),
                 Cell.c_str(), Spec.Expect.c_str());
    std::fprintf(Out,
                 "// lines %u -> %u; %u candidates tried, %u kept, %u "
                 "skipped; %u rounds, %u escalations\n",
                 Stats.InitialLines, Stats.FinalLines,
                 Stats.CandidatesTried, Stats.CandidatesKept,
                 Stats.CandidatesSkipped, Stats.Rounds,
                 Stats.Escalations);
    std::fprintf(Out, "%s", R->Reduced.Source.c_str());
  }

private:
  ReduceSpec Spec;
  std::FILE *Out;
};

/// Triage is wrong-code-only: the bisection oracle is output
/// divergence against the reference.
class TriageTask final : public WitnessTask {
public:
  TriageTask(TriageSpec Spec, std::FILE *Out)
      : Spec(std::move(Spec)), Out(Out) {}

  void step() override {
    Finished = true;
    std::vector<DeviceConfig> Zoo = buildConfigRegistry();
    const DeviceConfig &Config = configById(Zoo, Spec.ConfigId);
    DifferentialReductionOracle Oracle(Config, Spec.Opt);

    std::string Cell = cellName(Config, Spec.Opt);
    std::optional<ReductionResult> Result =
        reduceWitness(Spec.Gen, Oracle, Spec.Opts,
                      TriageRequest{Config, Spec.Opt}, Cell, "miscompile");
    if (!Result)
      return;
    const TriageResult &R = *Result->Triage;
    // One witness: its cluster (if any) is first-seen by definition.
    bump(Counter::TriageClusters, R.ClusterKey.empty() ? 0 : 1);

    std::string Label = "seed " +
                        std::to_string(Spec.Gen.Seed) + " config " + Cell;
    if (Spec.Format == "csv") {
      std::string Report = triageCsvHeader() + renderTriageCsvRow(Label, R);
      std::fwrite(Report.data(), 1, Report.size(), Out);
      return;
    }
    if (Spec.Format == "jsonl") {
      std::string Report = renderTriageJsonl(Label, R);
      std::fwrite(Report.data(), 1, Report.size(), Out);
      return;
    }
    // Text report, backend-silent like `reduce`: the reduced witness
    // first (the thing a human files upstream), then the verdict.
    std::fprintf(Out, "// triaged witness: seed %llu, config %s\n",
                 static_cast<unsigned long long>(Spec.Gen.Seed),
                 Cell.c_str());
    std::fprintf(Out, "// lines %u -> %u; %u candidates tried\n",
                 Result->Stats.InitialLines, Result->Stats.FinalLines,
                 Result->Stats.CandidatesTried);
    std::fprintf(Out, "%s", Result->Reduced.Source.c_str());
    std::fprintf(Out, "%s: %s\n", Label.c_str(),
                 renderTriageLine(R).c_str());
  }

private:
  TriageSpec Spec;
  std::FILE *Out;
};

} // namespace

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

std::unique_ptr<CampaignTask> clfuzz::makeDiffTask(const DiffSpec &Spec,
                                                   ExecBackend &Backend,
                                                   std::FILE *Out) {
  return std::make_unique<DiffTask>(Spec, Backend, Out);
}

HuntCampaign clfuzz::makeHuntCampaign(const HuntSpec &Spec,
                                      unsigned ShardSize,
                                      ExecBackend &Backend,
                                      std::FILE *Out) {
  HuntCampaign C;
  // Reduction rides the text report only (csv/jsonl sinks have no
  // verdict stream to submit witnesses from), like the solo command.
  bool WantReduce = Spec.Reduce && Spec.Format == "text";
  if (WantReduce)
    C.Queue = std::make_unique<ReductionQueue>(
        Spec.ReduceOpts, Spec.ReduceWorkers,
        /*CaptureTrace=*/!Spec.ReduceTracePath.empty());

  auto Main = std::make_unique<HuntTask>(Spec, ShardSize, Backend,
                                         C.Queue.get(), Out);
  if (WantReduce && Spec.ReduceWorkers == 0) {
    // Scheduler-driven queue: the priority lane services it; closed
    // once the hunt's campaign phase stops submitting.
    HuntTask *MainPtr = Main.get();
    C.Lane = std::make_unique<ReductionLaneTask>(
        *C.Queue, [MainPtr] { return !MainPtr->mainPhaseActive(); });
  }
  C.Main = std::move(Main);
  return C;
}

std::unique_ptr<CampaignTask> clfuzz::makeEmiTask(const EmiSpec &Spec,
                                                  unsigned ShardSize,
                                                  ExecBackend &Backend,
                                                  std::FILE *Out) {
  return std::make_unique<EmiTask>(Spec, ShardSize, Backend, Out);
}

std::unique_ptr<CampaignTask> clfuzz::makeReduceTask(const ReduceSpec &Spec,
                                                     std::FILE *Out) {
  return std::make_unique<ReduceTask>(Spec, Out);
}

std::unique_ptr<CampaignTask> clfuzz::makeTriageTask(const TriageSpec &Spec,
                                                     std::FILE *Out) {
  return std::make_unique<TriageTask>(Spec, Out);
}
