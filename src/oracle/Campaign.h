//===- Campaign.h - Testing campaign drivers --------------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drivers for the paper's three campaign experiments:
///
///  * initial classification against the 25% reliability threshold
///    over 600 kernels, 100 per mode (§7.1, Table 1);
///  * intensive CLsmith differential testing per mode over the
///    above-threshold configurations (§7.3, Table 4), with tests
///    pre-filtered to build and terminate on configuration 1+;
///  * CLsmith+EMI testing: base programs with 1-5 dead-by-construction
///    blocks, 40 prune variants each, voted per base (§7.4, Table 5),
///    with bases discarded when inverting the dead array does not
///    change the configuration-1 result (blocks landed in already-dead
///    code).
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_ORACLE_CAMPAIGN_H
#define CLFUZZ_ORACLE_CAMPAIGN_H

#include "emi/Emi.h"
#include "exec/Pipeline.h"
#include "oracle/Oracle.h"

#include <functional>
#include <map>
#include <memory>
#include <string>

namespace clfuzz {

/// (configuration id, optimisations enabled) cell key.
struct ConfigKey {
  int ConfigId = 0;
  bool Opt = false;

  bool operator<(const ConfigKey &O) const {
    return ConfigId != O.ConfigId ? ConfigId < O.ConfigId : Opt < O.Opt;
  }
};

/// The fixed cell cube every campaign expands a test into:
/// configurations in \p Configs order, optimisations off then on.
std::vector<ConfigKey> cellKeys(const std::vector<DeviceConfig> &Configs);

/// A cell's report label: the configuration id, then "+" (optimised)
/// or "-".
std::string cellLabel(const ConfigKey &Key);

/// Appends one test's cell cube in cellKeys() order. The expander
/// refers to \p Configs, which must outlive it.
std::function<void(size_t, const TestCase &, std::vector<ExecJob> &)>
cubeExpander(const std::vector<DeviceConfig> &Configs,
             const RunSettings &Run);

/// Shared campaign tuning.
struct CampaignSettings {
  unsigned KernelsPerMode = 40;
  GenOptions BaseGen;       ///< Mode and Seed are overridden per test
  RunSettings Run;
  /// Discard tests that fail to build or time out on configuration 1+
  /// (§7.3; keeps NVIDIA bf artificially at zero, as the paper notes).
  bool PrefilterOnConfig1 = true;
  uint64_t SeedBase = 100000;
  /// Campaign cell scheduling. Exec.Backend picks the ExecBackend
  /// (inline / thread pool / isolated worker processes), Exec.Threads
  /// the worker count, and Exec.ShardSize how many TestCases a mode
  /// holds alive at once (tests stream through the pipeline shard by
  /// shard). Tables are bit-identical for every backend, worker count
  /// and shard size. (EMI base sampling draws per-job random streams
  /// via Rng::forkForJob, so Table 5 results for a given seed differ
  /// from the pre-engine sequential code — but not between backends
  /// or thread counts.)
  ExecOptions Exec;
  /// Optional progress callback (tests completed, total). Always
  /// invoked from the campaign's calling thread — never from a worker
  /// thread or subprocess; the pipeline runner relays completions to
  /// the submitter between shards (pinned by
  /// tests/BackendConformanceTest.cpp).
  std::function<void(unsigned, unsigned)> Progress;
};

/// One per-mode block of Table 4.
struct ModeTable {
  GenMode Mode = GenMode::Basic;
  unsigned NumTests = 0;
  std::map<ConfigKey, OutcomeCounts> Cells;
};

/// Runs the Table 4 campaign over \p Configs (both opt levels each).
std::vector<ModeTable>
runDifferentialCampaign(const std::vector<DeviceConfig> &Configs,
                        const std::vector<GenMode> &Modes,
                        const CampaignSettings &Settings);

/// One Table 1 row's classification.
struct ReliabilityRow {
  int ConfigId = 0;
  OutcomeCounts Counts; ///< pooled over both opt levels
  bool AboveThreshold = false;
};

/// Runs the §7.1 initial classification: the differential campaign
/// over all six modes, unfiltered, KernelsPerMode per mode; both opt
/// levels pool per configuration, threshold at 25% failures.
std::vector<ReliabilityRow>
classifyConfigurations(const std::vector<DeviceConfig> &Configs,
                       const CampaignSettings &Settings,
                       double Threshold = 0.25);

/// Table 5 campaign settings.
struct EmiCampaignSettings {
  unsigned NumBases = 10;
  unsigned MinEmiBlocks = 1;
  unsigned MaxEmiBlocks = 5;
  CampaignSettings Base;
};

/// One Table 5 column (configuration at one opt level).
struct EmiCampaignColumn {
  ConfigKey Key;
  unsigned BaseFails = 0;
  unsigned Wrong = 0;
  unsigned InducedBF = 0;
  unsigned InducedCrash = 0;
  unsigned InducedTimeout = 0;
  unsigned Stable = 0;
};

/// Stepwise form of the §7.4 CLsmith+EMI campaign, shaped like
/// ShardedCampaignRun: each step() runs one base-collection wave, then
/// one variant shard of the current base. When a base's variants
/// drain, every (configuration, opt) cell is EMI-voted into its
/// column. runEmiCampaign() and the scheduler's EMI task are both
/// loops over this class.
class EmiCampaignRun : private ResultSink {
public:
  /// Throws std::invalid_argument when Settings.MinEmiBlocks exceeds
  /// Settings.MaxEmiBlocks. \p Backend must outlive the run.
  EmiCampaignRun(std::vector<DeviceConfig> Configs,
                 const EmiCampaignSettings &Settings, ExecBackend &Backend,
                 unsigned ShardSize);
  EmiCampaignRun(const EmiCampaignRun &) = delete;
  EmiCampaignRun &operator=(const EmiCampaignRun &) = delete;

  /// Runs one collection wave or one variant shard; returns false once
  /// the campaign has finished (later calls are no-ops). A base is
  /// voted on the step after its last shard, as its source runs dry.
  bool step();

  bool collecting() const { return Phase == PhaseKind::Collect; }
  bool done() const { return Phase == PhaseKind::Done; }
  /// One column per cell, in cellKeys() order.
  const std::vector<EmiCampaignColumn> &columns() const { return Columns; }
  unsigned usableBases() const {
    return static_cast<unsigned>(Bases.size());
  }
  size_t testsDone() const {
    return SweptTests + (Sweep ? Sweep->stats().Tests : 0);
  }
  /// Reference probes plus variant cells run so far.
  size_t jobsDone() const {
    return ProbeJobs + SweptJobs + (Sweep ? Sweep->stats().Jobs : 0);
  }

private:
  enum class PhaseKind { Collect, Sweep, Done };

  void collectWave();
  void sweepStep();
  /// The run is its own variant sink: outcomes regroup per cell.
  void consumeTest(size_t, const TestCase &,
                   const std::vector<RunOutcome> &Outcomes) override;

  std::vector<DeviceConfig> Configs;
  EmiCampaignSettings Settings;
  ExecBackend &Backend;
  unsigned ShardSize;
  std::vector<EmiCampaignColumn> Columns;
  PhaseKind Phase = PhaseKind::Collect;

  std::vector<GenOptions> Bases;
  unsigned ScanPos = 0; ///< candidates scanned, in seed order
  size_t ProbeJobs = 0;

  size_t BaseIdx = 0; ///< the base being swept
  std::unique_ptr<EmiVariantSource> Variants;
  std::unique_ptr<ShardedCampaignRun> Sweep;
  std::vector<std::vector<RunOutcome>> PerCell;
  size_t SweptTests = 0, SweptJobs = 0;
};

/// Runs the §7.4 CLsmith+EMI campaign on a backend built from
/// Settings.Base.Exec. Returns one column per (configuration, opt) in
/// cellKeys() order plus the number of usable bases through
/// \p UsableBases.
std::vector<EmiCampaignColumn>
runEmiCampaign(const std::vector<DeviceConfig> &Configs,
               const EmiCampaignSettings &Settings,
               unsigned &UsableBases);

} // namespace clfuzz

#endif // CLFUZZ_ORACLE_CAMPAIGN_H
