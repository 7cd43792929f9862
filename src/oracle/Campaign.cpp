//===- Campaign.cpp - Testing campaign drivers -------------------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The three campaign drivers are thin compositions of the streaming
// pipeline: a TestSource generates kernels in bounded shards, an
// ExecBackend (inline / thread pool / isolated worker processes) runs
// the (kernel, configuration, opt) cells, and a ResultSink votes over
// each test's outcomes as they stream past. Aggregation is keyed
// strictly by submission index, so a campaign's tables are
// bit-identical for every backend, worker count and shard size;
// Settings.Exec with one inline/thread worker reproduces the
// historical serial path exactly. Table 5 is EmiCampaignRun, a
// resumable stepper that the scheduler's EMI task drives one grant at
// a time; runEmiCampaign just loops over it.
//
//===----------------------------------------------------------------------===//

#include "oracle/Campaign.h"
#include "support/Rng.h"

#include <algorithm>
#include <stdexcept>

using namespace clfuzz;

std::vector<ConfigKey>
clfuzz::cellKeys(const std::vector<DeviceConfig> &Configs) {
  std::vector<ConfigKey> Keys;
  Keys.reserve(Configs.size() * 2);
  for (const DeviceConfig &C : Configs)
    for (bool Opt : {false, true})
      Keys.push_back(ConfigKey{C.Id, Opt});
  return Keys;
}

std::string clfuzz::cellLabel(const ConfigKey &Key) {
  return std::to_string(Key.ConfigId) + (Key.Opt ? "+" : "-");
}

std::function<void(size_t, const TestCase &, std::vector<ExecJob> &)>
clfuzz::cubeExpander(const std::vector<DeviceConfig> &Configs,
                     const RunSettings &Run) {
  return [&Configs, Run](size_t, const TestCase &T,
                         std::vector<ExecJob> &Jobs) {
    for (const DeviceConfig &C : Configs)
      for (bool Opt : {false, true})
        Jobs.push_back(ExecJob::onConfig(T, C, Opt, Run));
  };
}

namespace {

/// Streams Table 1/4-style majority voting: per test, every cell's
/// outcome is classified against the majority of the whole set ("among
/// all the results computed for the kernel", §7.3) and tallied into
/// its (configuration, opt) cell. State is one OutcomeCounts per cell
/// — independent of the campaign's length.
class MajorityVoteSink final : public ResultSink {
public:
  explicit MajorityVoteSink(std::vector<ConfigKey> Keys)
      : Keys(std::move(Keys)) {}

  void consumeTest(size_t, const TestCase &,
                   const std::vector<RunOutcome> &Outcomes) override {
    std::vector<Verdict> Verdicts = classifyAgainstMajority(Outcomes);
    for (size_t I = 0; I != Keys.size(); ++I)
      Cells[Keys[I]].add(Verdicts[I]);
  }

  std::vector<ConfigKey> Keys;
  std::map<ConfigKey, OutcomeCounts> Cells;
};

} // namespace

std::vector<ModeTable> clfuzz::runDifferentialCampaign(
    const std::vector<DeviceConfig> &Configs,
    const std::vector<GenMode> &Modes, const CampaignSettings &Settings) {
  const DeviceConfig *Config1 = nullptr;
  for (const DeviceConfig &C : Configs)
    if (C.Id == 1)
      Config1 = &C;

  std::unique_ptr<ExecBackend> Backend = makeBackend(Settings.Exec);
  const unsigned ShardSize = Settings.Exec.resolvedShardSize();

  unsigned TotalTests =
      static_cast<unsigned>(Modes.size()) * Settings.KernelsPerMode;
  unsigned Done = 0;

  std::vector<ModeTable> Tables;
  for (GenMode Mode : Modes) {
    GeneratorSource Source(Mode, Settings.BaseGen,
                           Settings.SeedBase +
                               static_cast<uint64_t>(Mode) * 1000003ULL,
                           Settings.KernelsPerMode,
                           Settings.PrefilterOnConfig1, Config1,
                           Settings.Run, *Backend);
    MajorityVoteSink Sink(cellKeys(Configs));

    PipelineStats Stats = runShardedCampaign(
        Source, *Backend, ShardSize, cubeExpander(Configs, Settings.Run),
        Sink, [&](size_t InMode) {
          if (Settings.Progress)
            Settings.Progress(Done + static_cast<unsigned>(InMode),
                              TotalTests);
        });

    ModeTable Table;
    Table.Mode = Mode;
    Table.NumTests = static_cast<unsigned>(Stats.Tests);
    Table.Cells = std::move(Sink.Cells);
    Done += static_cast<unsigned>(Stats.Tests);
    Tables.push_back(std::move(Table));
  }
  return Tables;
}

std::vector<ReliabilityRow>
clfuzz::classifyConfigurations(const std::vector<DeviceConfig> &Configs,
                               const CampaignSettings &Settings,
                               double Threshold) {
  // The initial set is unfiltered (§7.1).
  CampaignSettings Unfiltered = Settings;
  Unfiltered.PrefilterOnConfig1 = false;
  std::vector<ModeTable> Tables = runDifferentialCampaign(
      Configs,
      {GenMode::Basic, GenMode::Vector, GenMode::Barrier,
       GenMode::AtomicSection, GenMode::AtomicReduction, GenMode::All},
      Unfiltered);

  // Table 1 pools both opt levels and every mode per configuration;
  // verdict counts are additive, so summing the cells matches voting
  // directly into a per-config pool.
  std::map<int, OutcomeCounts> PerConfig;
  for (const ModeTable &Table : Tables)
    for (const auto &[Key, Counts] : Table.Cells) {
      OutcomeCounts &Pool = PerConfig[Key.ConfigId];
      Pool.W += Counts.W;
      Pool.BF += Counts.BF;
      Pool.C += Counts.C;
      Pool.TO += Counts.TO;
      Pool.Pass += Counts.Pass;
    }

  std::vector<ReliabilityRow> Rows;
  for (const DeviceConfig &C : Configs) {
    ReliabilityRow Row;
    Row.ConfigId = C.Id;
    Row.Counts = PerConfig[C.Id];
    Row.AboveThreshold = Row.Counts.failureFraction() <= Threshold;
    Rows.push_back(Row);
  }
  return Rows;
}

EmiCampaignRun::EmiCampaignRun(std::vector<DeviceConfig> Configs,
                               const EmiCampaignSettings &Settings,
                               ExecBackend &Backend, unsigned ShardSize)
    : Configs(std::move(Configs)), Settings(Settings), Backend(Backend),
      ShardSize(ShardSize) {
  // Rng::range only asserts its bounds; an inverted range would wrap
  // into a garbage block count and an effectively endless campaign.
  if (Settings.MinEmiBlocks > Settings.MaxEmiBlocks)
    throw std::invalid_argument(
        "EMI dead-block range is empty: minimum " +
        std::to_string(Settings.MinEmiBlocks) + " exceeds maximum " +
        std::to_string(Settings.MaxEmiBlocks));
  for (const ConfigKey &K : cellKeys(this->Configs)) {
    Columns.emplace_back();
    Columns.back().Key = K;
  }
}

bool EmiCampaignRun::step() {
  if (Phase == PhaseKind::Collect)
    collectWave();
  else if (Phase == PhaseKind::Sweep)
    sweepStep();
  return Phase != PhaseKind::Done;
}

void EmiCampaignRun::collectWave() {
  // Collect usable base programs (§7.4). Each candidate needs two
  // reference runs (normal and dead-array-inverted); candidates are
  // generated in-process, their reference runs go through the backend,
  // and acceptance scans in seed order — so the base set is invariant
  // across backends, worker counts and wave sizes. The per-candidate
  // block-count draw comes from Rng::forkForJob(scan position), which
  // is baked into the candidate's GenOptions before any job is
  // submitted: the stream survives the subprocess boundary because the
  // serialized descriptor carries its result, not the generator.
  const CampaignSettings &CS = Settings.Base;
  const unsigned MaxAttempts = Settings.NumBases * 8;
  if (Bases.size() < Settings.NumBases && ScanPos < MaxAttempts) {
    unsigned Needed =
        Settings.NumBases - static_cast<unsigned>(Bases.size());
    unsigned Wave = std::min(MaxAttempts - ScanPos,
                             std::max(Needed, Backend.concurrency()));

    const Rng BlockCount(CS.SeedBase ^ 0xb10cULL);
    std::vector<GenOptions> Candidates(Wave);
    std::vector<TestCase> Tests(Wave);
    Backend.forEachIndex(Wave, [&](size_t I) {
      GenOptions GO = CS.BaseGen;
      GO.Mode = GenMode::All;
      // Only the last wave stops short of its end, so the scan
      // position is also the seed offset.
      GO.Seed = CS.SeedBase + 777 + ScanPos + I;
      Rng JobRng = BlockCount.forkForJob(ScanPos + I);
      GO.NumEmiBlocks = static_cast<unsigned>(JobRng.range(
          Settings.MinEmiBlocks, Settings.MaxEmiBlocks));
      Candidates[I] = GO;
      Tests[I] = TestCase::fromGenerated(generateKernel(GO));
    });

    RunSettings Inverted = CS.Run;
    Inverted.InvertDead = true;
    std::vector<ExecJob> Jobs;
    Jobs.reserve(2 * Wave);
    for (const TestCase &T : Tests) {
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/true, CS.Run));
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/true, Inverted));
    }
    std::vector<RunOutcome> Outs = Backend.run(Jobs);
    ProbeJobs += Jobs.size();

    for (unsigned I = 0;
         I != Wave && Bases.size() < Settings.NumBases; ++I) {
      ++ScanPos;
      // The base must compute a value on the reference, and inverting
      // the dead array must change the result: otherwise every EMI
      // block sits in code that is already dead and variants cannot
      // exercise anything (§7.4 discards such candidates).
      const RunOutcome &Normal = Outs[2 * I];
      const RunOutcome &Live = Outs[2 * I + 1];
      if (!Normal.ok())
        continue;
      if (Live.ok() && Live.OutputHash == Normal.OutputHash)
        continue;
      Bases.push_back(Candidates[I]);
    }
  }
  if (Bases.size() >= Settings.NumBases || ScanPos >= MaxAttempts)
    Phase = Bases.empty() ? PhaseKind::Done : PhaseKind::Sweep;
}

void EmiCampaignRun::consumeTest(size_t, const TestCase &,
                                 const std::vector<RunOutcome> &Outcomes) {
  for (size_t Cell = 0; Cell != PerCell.size(); ++Cell)
    PerCell[Cell].push_back(Outcomes[Cell]);
}

void EmiCampaignRun::sweepStep() {
  // Per-base variant sweep: the 40 prune variants stream through the
  // pipeline shard by shard; only outcomes-per-cell stay resident.
  if (!Sweep) {
    Variants = std::make_unique<EmiVariantSource>(Bases[BaseIdx], Backend);
    PerCell.assign(Columns.size(), {});
    Sweep = std::make_unique<ShardedCampaignRun>(
        *Variants, Backend, ShardSize,
        cubeExpander(Configs, Settings.Base.Run),
        static_cast<ResultSink &>(*this));
  }
  if (Sweep->step())
    return;

  for (size_t Cell = 0; Cell != Columns.size(); ++Cell) {
    EmiBaseVerdict Verdict = classifyEmiVariants(PerCell[Cell]);
    EmiCampaignColumn &Col = Columns[Cell];
    Col.BaseFails += Verdict.BadBase;
    Col.Wrong += Verdict.Wrong;
    Col.InducedBF += Verdict.InducedBF && !Verdict.BadBase;
    Col.InducedCrash += Verdict.InducedCrash && !Verdict.BadBase;
    Col.InducedTimeout += Verdict.InducedTimeout && !Verdict.BadBase;
    Col.Stable += Verdict.Stable;
  }
  SweptTests += Sweep->stats().Tests;
  SweptJobs += Sweep->stats().Jobs;
  Sweep.reset();
  Variants.reset();
  ++BaseIdx;
  if (Settings.Base.Progress)
    Settings.Base.Progress(static_cast<unsigned>(BaseIdx),
                           static_cast<unsigned>(Bases.size()));
  if (BaseIdx == Bases.size())
    Phase = PhaseKind::Done;
}

std::vector<EmiCampaignColumn>
clfuzz::runEmiCampaign(const std::vector<DeviceConfig> &Configs,
                       const EmiCampaignSettings &Settings,
                       unsigned &UsableBases) {
  std::unique_ptr<ExecBackend> Backend = makeBackend(Settings.Base.Exec);
  EmiCampaignRun Run(Configs, Settings, *Backend,
                     Settings.Base.Exec.resolvedShardSize());
  while (Run.step())
    ;
  UsableBases = Run.usableBases();
  return Run.columns();
}
