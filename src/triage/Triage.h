//===- Triage.h - Pass bisection and bug clustering -------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-reduction triage stage: for a reduced wrong-code witness,
/// bisect over the optimisation pass pipeline to name the minimal
/// faulty pass combination, then derive a cluster key so campaigns can
/// report *distinct bugs* alongside raw witness counts ("A Systematic
/// Impact Study for Fuzzer-Found Compiler Bugs" argues distinct-bug
/// counts are the metric that matters at fleet scale).
///
/// Bisection probes are ordinary ExecJobs whose RunSettings::PassMask
/// selects a pipeline subset, so they serialize on the wire, hit the
/// outcome cache by descriptor and run on any backend unchanged. The
/// search is deterministic (greedy leave-one-out to a 1-minimal
/// fixpoint, probes memoized by mask), so a triage report is
/// byte-identical across inline|threads|procs|remote × worker count ×
/// cache state — tests/TriageConformanceTest.cpp pins that with
/// fault-injected passes of known minimal faulty sets.
///
/// docs/triage.md is the full design document (algorithm, cluster key
/// derivation, report schema, flag table).
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_TRIAGE_TRIAGE_H
#define CLFUZZ_TRIAGE_TRIAGE_H

#include "exec/ExecBackend.h"

#include <cstdio>
#include <string>
#include <vector>

namespace clfuzz {

struct ReducerOptions;

/// The verdict for one witness.
struct TriageResult {
  /// False when the full-pipeline run no longer differs from the
  /// reference (the witness does not reproduce); Error then says so
  /// and every other field is empty.
  bool Reproduced = false;
  /// True when the divergence is attributable to the pass pipeline
  /// (the empty-mask probe matches the reference). False = the bug is
  /// in the front end, codegen or runtime model; FaultyPasses is then
  /// empty and the cluster key is feature-only.
  bool BugInPasses = false;
  /// Names of the full pipeline, in position order.
  std::vector<std::string> PipelinePasses;
  /// The 1-minimal faulty pass combination (names, in position
  /// order): removing any one restores the reference output.
  std::vector<std::string> FaultyPasses;
  /// Kernel-feature signature: for pass bugs, an FNV over the sorted
  /// (feature, delta-sign) pairs of the AST feature multiset before
  /// vs after running only the faulty passes — the same defect leaves
  /// the same footprint on any witness. For non-pass bugs, an FNV
  /// over the witness's feature-presence set.
  uint64_t Signature = 0;
  /// `pass+pass/0xsignature` (or `nonpass/0xsignature`): the dedup
  /// key — one cluster per distinct bug.
  std::string ClusterKey;
  /// Distinct pass masks probed (memoized, so the count is identical
  /// whatever the backend or cache state).
  unsigned Probes = 0;
  /// Non-empty when triage could not run (unparseable witness,
  /// non-reproducing witness).
  std::string Error;
};

/// Bisects and clusters one reduced witness that misbehaves on
/// \p Config at \p Opt. Deterministic: equal inputs give equal
/// results on every backend and cache state. The probes ride the
/// reduction's scheduling: Opts.Backend when set (the scheduler's
/// shared backend), else a backend built from Opts.Exec. Every probe
/// runs with Opts.Run (PassMask overridden per probe), which must be
/// the hunt's run settings so the full-pipeline probe is a cache hit
/// of the campaign's original cell.
TriageResult triageWitness(const TestCase &Witness,
                           const DeviceConfig &Config, bool Opt,
                           const ReducerOptions &Opts);

/// One human-readable line for a result (no label, no newline).
std::string renderTriageLine(const TriageResult &R);

/// CSV sink: header + one row per witness.
std::string triageCsvHeader();
std::string renderTriageCsvRow(const std::string &Label,
                               const TriageResult &R);

/// JSONL sink: one object per witness.
std::string renderTriageJsonl(const std::string &Label,
                              const TriageResult &R);

/// Process-wide triage counters, a view of the `triage` family of the
/// counter registry (support/Metrics.h): `--stats` prints them and the
/// campaign scheduler attributes around-step deltas per campaign.
/// triageWitness charges a witness and its probes on completion; the
/// consuming task charges a cluster key when it first sees it, so
/// per-campaign attribution under the scheduler is exact.
struct TriageCounters {
  uint64_t Witnesses = 0; ///< witnesses triaged (errors included)
  uint64_t Probes = 0;    ///< distinct bisection probes dispatched
  uint64_t Clusters = 0;  ///< first-seen cluster keys (per campaign)
};

TriageCounters triageCounters();

} // namespace clfuzz

#endif // CLFUZZ_TRIAGE_TRIAGE_H
