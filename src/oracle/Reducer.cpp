//===- Reducer.cpp - Backend-driven test-case reduction ----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The reduction engine is a composition of the streaming campaign
// pipeline: each round's speculative candidates are pulled from a
// ReductionCandidateSource (which prints the next chunk's candidates
// on a helper thread while the current chunk evaluates - the
// pipelining is invisible in results), executed as ExecJobs on the
// reducer's ExecBackend, and judged by a ReductionAcceptSink in
// submission order. Acceptance is first-accepted-in-submission-order
// and every decision (emission, skip, charge, accept) is made on the
// calling thread from sequentially-updated state, so the reduction
// sequence, the stats and the trace are bit-identical across
// backends and worker counts.
//
//===----------------------------------------------------------------------===//

#include "oracle/Reducer.h"
#include "exec/Pipeline.h"
#include "minicl/ASTQueries.h"
#include "minicl/Parser.h"
#include "minicl/Printer.h"
#include "minicl/Sema.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <future>
#include <unordered_set>

using namespace clfuzz;

ReductionOracle::~ReductionOracle() = default;

void DifferentialReductionOracle::expandJobs(
    const TestCase &Candidate, std::vector<ExecJob> &Jobs) const {
  // The reference probe is also the §8 concurrency-aware validation
  // (selfValidates()): race detection rides along, so the reducer
  // does not schedule a second reference run per candidate.
  RunSettings Validating = Run;
  Validating.DetectRaces = true;
  Jobs.push_back(ExecJob::onReference(Candidate, /*Opt=*/false, Validating));
  Jobs.push_back(ExecJob::onConfig(Candidate, Config, Opt, Run));
}

bool DifferentialReductionOracle::judge(
    const std::vector<RunOutcome> &Outcomes) const {
  return Outcomes.size() == 2 && Outcomes[0].ok() &&
         !Outcomes[0].RaceFound && Outcomes[1].ok() &&
         Outcomes[0].OutputHash != Outcomes[1].OutputHash;
}

void StatusReductionOracle::expandJobs(const TestCase &Candidate,
                                       std::vector<ExecJob> &Jobs) const {
  Jobs.push_back(ExecJob::onConfig(Candidate, Config, Opt, Run));
}

bool StatusReductionOracle::judge(
    const std::vector<RunOutcome> &Outcomes) const {
  return Outcomes.size() == 1 && Outcomes[0].Status == Want;
}

namespace {

/// One candidate mutation: either delete the statement at a position,
/// replace it with a simplification, or drop an uncalled function.
struct Mutation {
  enum class Kind : uint8_t {
    DeleteStmt,
    IfToThen,
    DropElse,
    LoopToBody,
    DeleteFunction,
  };
  Kind K;
  unsigned FunctionIndex;
  std::vector<unsigned> Path; ///< child indices from the body downward
};

constexpr unsigned NumMutationClasses = 5;

const char *mutationClassName(Mutation::Kind K) {
  switch (K) {
  case Mutation::Kind::DeleteStmt:
    return "delete-stmt";
  case Mutation::Kind::IfToThen:
    return "if-to-then";
  case Mutation::Kind::DropElse:
    return "drop-else";
  case Mutation::Kind::LoopToBody:
    return "loop-to-body";
  case Mutation::Kind::DeleteFunction:
    return "delete-function";
  }
  return "";
}

/// True if any function in the program calls \p F.
bool functionIsCalled(const Program &Prog, const FunctionDecl *F) {
  bool Called = false;
  for (const FunctionDecl *Caller : Prog.functions()) {
    if (!Caller->getBody())
      continue;
    forEachExpr(Caller->getBody(), [&](const Expr *E) {
      if (const auto *C = dyn_cast<CallExpr>(E))
        if (C->getCallee() == F)
          Called = true;
    });
  }
  return Called;
}

/// Resolves a path to a mutable slot (the vector element holding the
/// statement). Returns null when the path no longer resolves.
Stmt **resolvePath(FunctionDecl *F, const std::vector<unsigned> &Path) {
  if (!F->getBody())
    return nullptr;
  CompoundStmt *C = F->getBody();
  Stmt **Slot = nullptr;
  for (size_t I = 0; I != Path.size(); ++I) {
    unsigned Idx = Path[I];
    if (Idx >= C->body().size())
      return nullptr;
    Slot = &C->body()[Idx];
    if (I + 1 == Path.size())
      return Slot;
    // Descend only through nested compounds (paths are built that way).
    C = dyn_cast<CompoundStmt>(*Slot);
    if (!C)
      return nullptr;
  }
  return Slot;
}

/// Enumerates mutations over the (freshly parsed) program.
void collectMutations(const Program &Prog, std::vector<Mutation> &Out) {
  for (unsigned FI = 0; FI != Prog.functions().size(); ++FI) {
    const FunctionDecl *F = Prog.functions()[FI];
    if (!F->isKernel() && !functionIsCalled(Prog, F))
      Out.push_back({Mutation::Kind::DeleteFunction, FI, {}});
    if (!F->getBody())
      continue;
    std::function<void(const CompoundStmt *, std::vector<unsigned>)>
        Walk = [&](const CompoundStmt *C, std::vector<unsigned> Path) {
          for (unsigned I = 0; I != C->body().size(); ++I) {
            const Stmt *S = C->body()[I];
            std::vector<unsigned> Here = Path;
            Here.push_back(I);
            // Returns are structural (non-void functions need them).
            if (!isa<ReturnStmt>(S))
              Out.push_back(
                  {Mutation::Kind::DeleteStmt, FI, Here});
            if (const auto *If = dyn_cast<IfStmt>(S)) {
              Out.push_back({Mutation::Kind::IfToThen, FI, Here});
              if (If->getElse())
                Out.push_back({Mutation::Kind::DropElse, FI, Here});
            }
            if (isa<ForStmt, WhileStmt, DoStmt>(S))
              Out.push_back({Mutation::Kind::LoopToBody, FI, Here});
            if (const auto *CC = dyn_cast<CompoundStmt>(S))
              Walk(CC, Here);
          }
        };
    Walk(F->getBody(), {});
  }
}

/// Applies one mutation to the parsed program in \p Ctx. Returns false
/// when the mutation no longer applies.
bool applyOneMutation(ASTContext &Ctx, const Mutation &M) {
  if (M.FunctionIndex >= Ctx.program().functions().size())
    return false;
  FunctionDecl *F = Ctx.program().functions()[M.FunctionIndex];

  if (M.K == Mutation::Kind::DeleteFunction) {
    if (F->isKernel() || functionIsCalled(Ctx.program(), F))
      return false;
    return Ctx.program().removeFunction(F);
  }

  Stmt **Slot = resolvePath(F, M.Path);
  if (!Slot)
    return false;

  switch (M.K) {
  case Mutation::Kind::DeleteStmt:
    *Slot = Ctx.makeStmt<NullStmt>();
    return true;
  case Mutation::Kind::IfToThen: {
    auto *If = dyn_cast<IfStmt>(*Slot);
    if (!If)
      return false;
    *Slot = If->getThen();
    return true;
  }
  case Mutation::Kind::DropElse: {
    auto *If = dyn_cast<IfStmt>(*Slot);
    if (!If || !If->getElse())
      return false;
    If->setElse(nullptr);
    return true;
  }
  case Mutation::Kind::LoopToBody: {
    if (auto *For = dyn_cast<ForStmt>(*Slot)) {
      std::vector<Stmt *> Seq;
      if (For->getInit())
        Seq.push_back(For->getInit());
      Seq.push_back(For->getBody());
      *Slot = Ctx.makeStmt<CompoundStmt>(std::move(Seq));
      return true;
    }
    if (auto *W = dyn_cast<WhileStmt>(*Slot)) {
      *Slot = W->getBody();
      return true;
    }
    if (auto *D = dyn_cast<DoStmt>(*Slot)) {
      *Slot = D->getBody();
      return true;
    }
    return false;
  }
  case Mutation::Kind::DeleteFunction:
    break; // handled above
  }
  return false;
}

/// Erases no-op null statements from every compound under \p S.
/// DeleteStmt substitutes a NullStmt so sibling paths stay stable
/// while a mutation group applies; stripping them before printing is
/// what makes a deletion actually shrink the candidate instead of
/// leaving a ";" line behind.
void stripNullStmts(Stmt *S) {
  if (auto *C = dyn_cast<CompoundStmt>(S)) {
    std::vector<Stmt *> &Body = C->body();
    for (Stmt *Child : Body)
      stripNullStmts(Child);
    Body.erase(std::remove_if(Body.begin(), Body.end(),
                              [](Stmt *Child) { return isa<NullStmt>(Child); }),
               Body.end());
    return;
  }
  if (auto *If = dyn_cast<IfStmt>(S)) {
    stripNullStmts(If->getThen());
    if (If->getElse())
      stripNullStmts(If->getElse());
    return;
  }
  if (auto *For = dyn_cast<ForStmt>(S)) {
    stripNullStmts(For->getBody());
    return;
  }
  if (auto *W = dyn_cast<WhileStmt>(S)) {
    stripNullStmts(W->getBody());
    return;
  }
  if (auto *D = dyn_cast<DoStmt>(S)) {
    stripNullStmts(D->getBody());
    return;
  }
}

void stripNullStmts(Program &Prog) {
  for (FunctionDecl *F : Prog.functions())
    if (F->getBody())
      stripNullStmts(F->getBody());
}

/// Applies the mutation group [Begin, Begin+Count) to a freshly parsed
/// copy of \p Source; returns the new source, or an empty string when
/// the group is inapplicable or yields an invalid program. Statement
/// mutations apply first (their paths were enumerated against the
/// unmutated program and in-slot substitutions keep sibling paths
/// stable); function deletions apply last in descending index order so
/// earlier removals cannot shift a later victim's index.
std::string applyMutationGroup(const std::string &Source,
                               const Mutation *Begin, size_t Count) {
  ASTContext Ctx;
  DiagEngine Diags;
  if (!parseProgram(Source, Ctx, Diags))
    return {};

  std::vector<const Mutation *> Stmts, Funcs;
  for (size_t I = 0; I != Count; ++I) {
    const Mutation &M = Begin[I];
    (M.K == Mutation::Kind::DeleteFunction ? Funcs : Stmts).push_back(&M);
  }
  std::stable_sort(Funcs.begin(), Funcs.end(),
                   [](const Mutation *A, const Mutation *B) {
                     return A->FunctionIndex > B->FunctionIndex;
                   });

  for (const Mutation *M : Stmts)
    if (!applyOneMutation(Ctx, *M))
      return {};
  for (const Mutation *M : Funcs)
    if (!applyOneMutation(Ctx, *M))
      return {};
  stripNullStmts(Ctx.program());

  DiagEngine Post;
  if (!checkProgram(Ctx, Post))
    return {};
  return printProgram(Ctx.program(), Ctx.types());
}

//===----------------------------------------------------------------------===//
// Priority-guided mutation ordering
//===----------------------------------------------------------------------===//

/// Accepted-delta history per mutation class. The score is the
/// Laplace-smoothed expected number of lines saved per attempt; the
/// prior encodes that dropping a dead function outshrinks unwrapping a
/// loop outshrinks deleting one statement. History only ever reflects
/// the deterministic observed prefix, so the ordering - and therefore
/// the whole search - is identical on every backend.
struct ClassHistory {
  double Tried = 0;
  double LinesSaved = 0;
};

constexpr double PriorWeight = 4.0;

double priorMeanSaved(Mutation::Kind K) {
  switch (K) {
  case Mutation::Kind::DeleteFunction:
    return 4.0;
  case Mutation::Kind::LoopToBody:
    return 1.5;
  case Mutation::Kind::IfToThen:
    return 1.25;
  case Mutation::Kind::DropElse:
    return 1.0;
  case Mutation::Kind::DeleteStmt:
    return 0.75;
  }
  return 0.0;
}

double classScore(const ClassHistory &H, Mutation::Kind K) {
  return (H.LinesSaved + PriorWeight * priorMeanSaved(K)) /
         (H.Tried + PriorWeight);
}

//===----------------------------------------------------------------------===//
// Round state shared by the source and the sink
//===----------------------------------------------------------------------===//

/// Per-round shared state. The pipeline runner alternates source pulls
/// and sink consumption on the calling thread, so all of this is
/// updated sequentially; only candidate *printing* happens off-thread.
struct RoundCtx {
  const TestCase &Best;
  const std::vector<Mutation> &Sorted; ///< priority order
  unsigned Combo = 1;                  ///< mutations per candidate
  size_t NumGroups = 0;

  ReduceStats &Stats;
  std::unordered_set<std::string> &Rejected; ///< cross-round verdict cache
  std::unordered_set<std::string> EmittedThisRound;

  /// Emission log, indexed by the round-local test index: the group
  /// each emitted candidate came from, and how many candidates were
  /// skipped (unprintable / duplicate / known-rejected) since the
  /// previous emission. Skips are charged to stats only when the
  /// emission they precede is observed, which keeps the skip counts
  /// chunk- and backend-invariant even when a round is cut short by an
  /// acceptance.
  std::vector<size_t> EmittedGroup;
  std::vector<unsigned> SkipsBeforeEmit;
  unsigned PendingSkips = 0;
  unsigned TrailingSkips = 0;

  bool Accepted = false;
  std::string AcceptedSource;
  size_t AcceptedGroup = 0;
  unsigned AcceptedCandidateNo = 0;

  RoundCtx(const TestCase &Best, const std::vector<Mutation> &Sorted,
           unsigned Combo, ReduceStats &Stats,
           std::unordered_set<std::string> &Rejected)
      : Best(Best), Sorted(Sorted), Combo(Combo),
        NumGroups((Sorted.size() + Combo - 1) / Combo), Stats(Stats),
        Rejected(Rejected) {}

  size_t groupBegin(size_t Group) const { return Group * Combo; }
  size_t groupSize(size_t Group) const {
    return std::min<size_t>(Combo, Sorted.size() - groupBegin(Group));
  }
  const Mutation &groupLead(size_t Group) const {
    return Sorted[groupBegin(Group)];
  }
};

/// The probe jobs behind one candidate verdict: the §8 validation run
/// (a clean, race-free reference run; skipped when the oracle's own
/// probes already validate) followed by the oracle's jobs.
struct ProbePlan {
  const ReductionOracle &Oracle;
  RunSettings Validate;
  bool Validating;

  ProbePlan(const ReductionOracle &Oracle, RunSettings Run)
      : Oracle(Oracle), Validate(std::move(Run)),
        Validating(!Oracle.selfValidates()) {
    Validate.DetectRaces = true;
  }

  void expand(const TestCase &T, std::vector<ExecJob> &Jobs) const {
    if (Validating)
      Jobs.push_back(ExecJob::onReference(T, /*Opt=*/false, Validate));
    Oracle.expandJobs(T, Jobs);
  }

  bool judge(const std::vector<RunOutcome> &Outs) const {
    if (!Validating)
      return Oracle.judge(Outs);
    if (Outs.empty() || !Outs[0].ok() || Outs[0].RaceFound)
      return false;
    return Oracle.judge(std::vector<RunOutcome>(Outs.begin() + 1, Outs.end()));
  }
};

/// A printed (but not yet filtered) candidate.
struct PrintedCandidate {
  size_t Group = 0;
  std::string Source; ///< empty = mutation group was inapplicable
};

/// Streams one round's candidates as TestCases in priority order.
/// Printing a candidate (parse + mutate + sema + print) costs about as
/// much as evaluating a small kernel, so the next window is printed on
/// a helper thread while the caller runs the current window's probe
/// jobs on the backend; the prefetch reads only round-immutable state
/// and is joined before its results are observed, so it never changes
/// anything but wall-clock time.
class ReductionCandidateSource final : public TestSource {
public:
  ReductionCandidateSource(RoundCtx &Ctx, unsigned Window,
                           unsigned EmitBudget)
      : Ctx(Ctx), Window(std::max(Window, 1u)), EmitLeft(EmitBudget) {}

  std::vector<TestCase> next(unsigned MaxShard) override {
    std::vector<TestCase> Shard;
    if (Ctx.Accepted || EmitLeft == 0)
      return Shard;

    for (;;) {
      if (CarryPos == Carry.size()) {
        if (NextGroup >= Ctx.NumGroups)
          break;
        Carry = takeWindow();
        CarryPos = 0;
      }
      while (CarryPos != Carry.size()) {
        if (EmitLeft == 0)
          return Shard; // candidate budget: drop the round's tail
        PrintedCandidate P = std::move(Carry[CarryPos++]);
        if (P.Source.empty() || P.Source == Ctx.Best.Source ||
            Ctx.Rejected.count(P.Source) ||
            !Ctx.EmittedThisRound.insert(P.Source).second) {
          ++Ctx.PendingSkips;
          continue;
        }
        Ctx.EmittedGroup.push_back(P.Group);
        Ctx.SkipsBeforeEmit.push_back(Ctx.PendingSkips);
        Ctx.PendingSkips = 0;
        TestCase C = Ctx.Best;
        C.Source = std::move(P.Source);
        Shard.push_back(std::move(C));
        --EmitLeft;
        if (Shard.size() == MaxShard)
          return Shard;
      }
    }
    // Full drain: the round ran to its end, so the trailing skips are
    // observable on every backend.
    Ctx.TrailingSkips += Ctx.PendingSkips;
    Ctx.PendingSkips = 0;
    return Shard;
  }

private:
  /// Prints the mutation groups [Begin, Begin+N) against the round's
  /// base source. Pure: reads only round-immutable state.
  std::vector<PrintedCandidate> printWindow(size_t Begin, size_t N) const {
    std::vector<PrintedCandidate> Out;
    Out.reserve(N);
    for (size_t G = Begin; G != Begin + N; ++G)
      Out.push_back({G, applyMutationGroup(
                            Ctx.Best.Source,
                            Ctx.Sorted.data() + Ctx.groupBegin(G),
                            Ctx.groupSize(G))});
    return Out;
  }

  std::vector<PrintedCandidate> takeWindow() {
    size_t N = std::min<size_t>(Window, Ctx.NumGroups - NextGroup);
    std::vector<PrintedCandidate> Out =
        Prefetch.valid() ? Prefetch.get() : printWindow(NextGroup, N);
    NextGroup += N;
    if (NextGroup < Ctx.NumGroups) {
      size_t Ahead = std::min<size_t>(Window, Ctx.NumGroups - NextGroup);
      Prefetch = std::async(std::launch::async,
                            [this, Begin = NextGroup, Ahead] {
                              return printWindow(Begin, Ahead);
                            });
    }
    return Out;
  }

  RoundCtx &Ctx;
  unsigned Window;
  unsigned EmitLeft;
  size_t NextGroup = 0;
  std::vector<PrintedCandidate> Carry; ///< printed, not yet filtered
  size_t CarryPos = 0;
  std::future<std::vector<PrintedCandidate>> Prefetch;
};

/// Judges each candidate's probe outcomes in submission order and
/// records the first acceptance; everything past it (and past the
/// candidate budget) is speculative work, discarded unobserved so the
/// observable sequence replays a serial run exactly.
class ReductionAcceptSink final : public ResultSink {
public:
  ReductionAcceptSink(RoundCtx &Ctx, const ProbePlan &Plan,
                      ClassHistory *History, unsigned MaxCandidates,
                      const ReduceTraceFn &Trace)
      : Ctx(Ctx), Plan(Plan), History(History),
        MaxCandidates(MaxCandidates), Trace(Trace) {}

  void consumeTest(size_t Index, const TestCase &T,
                   const std::vector<RunOutcome> &Outcomes) override {
    if (Ctx.Accepted || Ctx.Stats.CandidatesTried >= MaxCandidates)
      return;
    Ctx.Stats.CandidatesSkipped += Ctx.SkipsBeforeEmit[Index];
    ++Ctx.Stats.CandidatesTried;
    size_t Group = Ctx.EmittedGroup[Index];

    if (!Plan.judge(Outcomes)) {
      Ctx.Rejected.insert(T.Source);
      chargeGroup(Group, /*LinesSaved=*/0.0);
      if (Trace) {
        ReduceTraceEvent E;
        E.K = ReduceTraceEvent::Kind::Reject;
        E.Round = Ctx.Stats.Rounds;
        E.Candidate = Ctx.Stats.CandidatesTried;
        E.MutationClass = mutationClassName(Ctx.groupLead(Group).K);
        E.Combo = Ctx.Combo;
        Trace(E);
      }
      return;
    }

    Ctx.Accepted = true;
    Ctx.AcceptedSource = T.Source;
    Ctx.AcceptedGroup = Group;
    Ctx.AcceptedCandidateNo = Ctx.Stats.CandidatesTried;
  }

  /// Attributes one attempt (and, for acceptances, the saved lines) to
  /// the group's mutation classes, weighted so a combo counts as one
  /// attempt in total.
  void chargeGroup(size_t Group, double LinesSaved) {
    size_t Begin = Ctx.groupBegin(Group), N = Ctx.groupSize(Group);
    double W = 1.0 / static_cast<double>(N);
    for (size_t I = Begin; I != Begin + N; ++I) {
      ClassHistory &H =
          History[static_cast<unsigned>(Ctx.Sorted[I].K)];
      H.Tried += W;
      H.LinesSaved += LinesSaved * W;
    }
  }

private:
  RoundCtx &Ctx;
  const ProbePlan &Plan;
  ClassHistory *History;
  unsigned MaxCandidates;
  const ReduceTraceFn &Trace;
};

//===----------------------------------------------------------------------===//
// The reduction loop
//===----------------------------------------------------------------------===//

/// Largest number of mutations escalation combines into one candidate
/// (combo sizes double: 2, then 4).
constexpr unsigned MaxCombo = 4;

} // namespace

TestCase clfuzz::reduceTest(const TestCase &Input,
                            const ReductionOracle &Oracle,
                            const ReducerOptions &Opts,
                            ReduceStats *Stats) {
  const ProbePlan Plan(Oracle, Opts.Run);
  TestCase Best = Input;
  ReduceStats Local;
  // Normalise the source through the printer (null statements
  // stripped) so line counts compare like with like.
  {
    ASTContext Ctx;
    DiagEngine Diags;
    if (parseProgram(Best.Source, Ctx, Diags)) {
      stripNullStmts(Ctx.program());
      Best.Source = printProgram(Ctx.program(), Ctx.types());
    }
  }
  Local.InitialLines = countCodeLines(Best.Source);

  // A caller-injected backend (Opts.Backend — the scheduler's shared
  // fleet) takes precedence; otherwise the reducer owns its own.
  std::unique_ptr<ExecBackend> Owned;
  ExecBackend *Backend = Opts.Backend;
  if (!Backend) {
    Owned = makeBackend(Opts.Exec);
    Backend = Owned.get();
  }

  auto Finish = [&] {
    Local.FinalLines = countCodeLines(Best.Source);
    if (Opts.Trace) {
      ReduceTraceEvent E;
      E.K = ReduceTraceEvent::Kind::Finish;
      E.Totals = Local;
      Opts.Trace(E);
    }
    if (Stats)
      *Stats = Local;
    return Best;
  };

  // Probe the witness itself first: it establishes the invariant that
  // Best is always interesting, and (under procs) forks the worker
  // pool before any pipelining thread exists.
  {
    std::vector<ExecJob> Jobs;
    Plan.expand(Best, Jobs);
    // One test's cells: a single column, so the worker parses the
    // witness once for all its admissible cells.
    std::vector<RunOutcome> Outs = Backend->runColumns(groupIntoColumns(Jobs));
    bool Interesting = Plan.judge(Outs);
    if (Opts.Trace) {
      ReduceTraceEvent E;
      E.K = ReduceTraceEvent::Kind::Witness;
      E.Interesting = Interesting;
      E.Lines = Local.InitialLines;
      Opts.Trace(E);
    }
    if (!Interesting) {
      Local.WitnessWasInteresting = false;
      return Finish();
    }
  }

  // Speculation width: serial backends evaluate one candidate at a
  // time (the historical early-exit loop); parallel backends speculate
  // a chunk ahead and keep the first-in-order success.
  const unsigned Chunk =
      Backend->concurrency() > 1 ? Backend->concurrency() * 2 : 1;

  ClassHistory History[NumMutationClasses];
  std::unordered_set<std::string> Rejected;
  unsigned Combo = 1;

  while (Local.CandidatesTried < Opts.MaxCandidates) {
    ASTContext Ctx;
    DiagEngine Diags;
    if (!parseProgram(Best.Source, Ctx, Diags))
      break;
    std::vector<Mutation> Sorted;
    collectMutations(Ctx.program(), Sorted);
    if (Sorted.empty())
      break;

    // Priority order: classes by expected shrinkage, stable within a
    // class (enumeration order breaks ties), so the ordering is a pure
    // function of the deterministic acceptance history.
    double Score[NumMutationClasses];
    for (unsigned K = 0; K != NumMutationClasses; ++K)
      Score[K] = classScore(History[K], static_cast<Mutation::Kind>(K));
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [&](const Mutation &A, const Mutation &B) {
                       return Score[static_cast<unsigned>(A.K)] >
                              Score[static_cast<unsigned>(B.K)];
                     });

    ++Local.Rounds;
    unsigned LinesBefore = countCodeLines(Best.Source);
    RoundCtx Round(Best, Sorted, Combo, Local, Rejected);
    if (Opts.Trace) {
      ReduceTraceEvent E;
      E.K = ReduceTraceEvent::Kind::Round;
      E.Round = Local.Rounds;
      E.Combo = Combo;
      E.Enumerated = static_cast<unsigned>(Round.NumGroups);
      E.Lines = LinesBefore;
      Opts.Trace(E);
    }

    ReductionAcceptSink Sink(Round, Plan, History, Opts.MaxCandidates,
                             Opts.Trace);
    {
      // The source owns the pipelining prefetch; its destruction at
      // this scope's end joins any in-flight printing thread, so
      // everything below - in particular the acceptance's mutation of
      // Best.Source, which the prefetch reads - runs strictly after
      // the round's helper work finished.
      ReductionCandidateSource Source(
          Round, Chunk, Opts.MaxCandidates - Local.CandidatesTried);
      ShardedCampaignRun CandidateRun(
          Source, *Backend, Chunk,
          [&Plan](size_t, const TestCase &T, std::vector<ExecJob> &Jobs) {
            Plan.expand(T, Jobs);
          },
          Sink);
      while (CandidateRun.step())
        ;
    }

    if (Round.Accepted) {
      Best.Source = std::move(Round.AcceptedSource);
      unsigned LinesAfter = countCodeLines(Best.Source);
      ++Local.CandidatesKept;
      Sink.chargeGroup(Round.AcceptedGroup,
                       LinesBefore > LinesAfter
                           ? static_cast<double>(LinesBefore - LinesAfter)
                           : 0.0);
      if (Opts.Trace) {
        ReduceTraceEvent E;
        E.K = ReduceTraceEvent::Kind::Accept;
        E.Round = Local.Rounds;
        E.Candidate = Round.AcceptedCandidateNo;
        E.MutationClass =
            mutationClassName(Round.groupLead(Round.AcceptedGroup).K);
        E.Combo = Combo;
        E.Lines = LinesAfter;
        Opts.Trace(E);
      }
      Combo = 1;
      continue;
    }

    Local.CandidatesSkipped += Round.TrailingSkips;

    // A stalled round means every candidate at this combo size is
    // known-rejected; escalate to joint mutations (2, 4) before
    // concluding the witness is minimal.
    if (Combo * 2 > MaxCombo)
      break;
    Combo *= 2;
    ++Local.Escalations;
  }

  return Finish();
}

//===----------------------------------------------------------------------===//
// JSONL trace rendering
//===----------------------------------------------------------------------===//

namespace {

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  Out += '"';
}

} // namespace

std::string clfuzz::renderReduceTraceJsonl(const ReduceTraceEvent &E,
                                           const std::string &Tag) {
  std::string L = "{";
  if (!Tag.empty()) {
    L += "\"job\":";
    appendJsonString(L, Tag);
    L += ",";
  }
  // Every field after the event name is ",<key>:<value>".
  auto Field = [&L](const char *Key, unsigned long long V) {
    L += ",\"";
    L += Key;
    L += "\":";
    L += std::to_string(V);
  };
  switch (E.K) {
  case ReduceTraceEvent::Kind::Witness:
    L += "\"event\":\"witness\",\"interesting\":";
    L += E.Interesting ? "true" : "false";
    Field("lines", E.Lines);
    break;
  case ReduceTraceEvent::Kind::Round:
    L += "\"event\":\"round\"";
    Field("round", E.Round);
    Field("combo", E.Combo);
    Field("candidates", E.Enumerated);
    Field("lines", E.Lines);
    break;
  case ReduceTraceEvent::Kind::Reject:
  case ReduceTraceEvent::Kind::Accept:
    L += E.K == ReduceTraceEvent::Kind::Accept ? "\"event\":\"accept\""
                                               : "\"event\":\"reject\"";
    Field("round", E.Round);
    Field("candidate", E.Candidate);
    L += ",\"class\":";
    appendJsonString(L, E.MutationClass);
    Field("combo", E.Combo);
    if (E.K == ReduceTraceEvent::Kind::Accept)
      Field("lines", E.Lines);
    break;
  case ReduceTraceEvent::Kind::Finish:
    L += "\"event\":\"done\"";
    Field("rounds", E.Totals.Rounds);
    Field("escalations", E.Totals.Escalations);
    Field("tried", E.Totals.CandidatesTried);
    Field("kept", E.Totals.CandidatesKept);
    Field("skipped", E.Totals.CandidatesSkipped);
    Field("lines", E.Totals.FinalLines);
    break;
  }
  L += "}\n";
  return L;
}

ReduceTraceFn clfuzz::makeJsonlReduceTrace(std::FILE *Out, std::string Tag) {
  return [Out, Tag = std::move(Tag)](const ReduceTraceEvent &E) {
    std::string L = renderReduceTraceJsonl(E, Tag);
    std::fwrite(L.data(), 1, L.size(), Out);
  };
}
