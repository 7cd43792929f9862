//===- ExecBackend.cpp - Pluggable campaign execution backends ---------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/ExecBackend.h"
#include "exec/OutcomeCache.h"
#include "exec/ProcessPool.h"
#include "exec/RemoteBackend.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <iterator>

using namespace clfuzz;

const char *clfuzz::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Inline:
    return "inline";
  case BackendKind::Threads:
    return "threads";
  case BackendKind::Procs:
    return "procs";
  case BackendKind::Remote:
    return "remote";
  }
  return "?";
}

bool clfuzz::parseBackendKind(const std::string &Name, BackendKind &Out) {
  if (Name == "inline")
    Out = BackendKind::Inline;
  else if (Name == "threads")
    Out = BackendKind::Threads;
  else if (Name == "procs")
    Out = BackendKind::Procs;
  else if (Name == "remote")
    Out = BackendKind::Remote;
  else
    return false;
  return true;
}

unsigned ExecOptions::resolvedThreads() const {
  if (Threads != 0)
    return std::min(Threads, MaxThreads);
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : std::min(HW, MaxThreads);
}

RunOutcome clfuzz::runExecJob(const ExecJob &Job) {
  // Fault-injection hooks for the process-pool isolation tests: a hard
  // abort models a VM bug taking the worker process down; a spin
  // models a runaway execution the step budget cannot catch. Neither
  // is reachable from campaign code paths.
  if (Job.Settings.DebugHardAbort)
    std::abort();
  if (Job.Settings.DebugSpinMs)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Job.Settings.DebugSpinMs));
  if (Job.Config)
    return runTestOnConfig(*Job.Test, *Job.Config, Job.Opt, Job.Settings);
  return runTestOnReference(*Job.Test, Job.Opt, Job.Settings);
}

std::vector<ExecColumn>
clfuzz::groupIntoColumns(const std::vector<ExecJob> &Jobs) {
  std::vector<ExecColumn> Cols;
  for (const ExecJob &J : Jobs) {
    if (Cols.empty() || Cols.back().Jobs.front().Test != J.Test)
      Cols.emplace_back();
    Cols.back().Jobs.push_back(J);
  }
  return Cols;
}

namespace {

/// The per-column cell runner: the state a column's cells share — one
/// TestFrontEnd and one LaunchMemo — and the rule for running cell I
/// against it. runExecColumn runs the cells in order on one thread;
/// the thread pool runs them from both ends on several (see
/// ThreadPoolBackend::runColumns). runCell may run concurrently for
/// distinct cells: the front end is built once and then only read,
/// and the memo takes a lock. The last cell to finish drops both, so a
/// batch holds the shared state of the columns in progress only.
class ColumnRunner {
public:
  explicit ColumnRunner(const ExecColumn &Column)
      : Column(Column), Memo(std::make_unique<LaunchMemo>()),
        Unfinished(Column.Jobs.size()) {}

  RunOutcome runCell(size_t I) {
    RunOutcome Out = runCellShared(I);
    if (--Unfinished == 0) {
      FE.reset();
      Memo.reset();
    }
    return Out;
  }

private:
  RunOutcome runCellShared(size_t I) {
    const ExecJob &J = Column.Jobs[I];
    assert(J.Test == Column.Jobs.front().Test &&
           "column cells must share one test");
    // A lone cell has no one to share a front end or a launch with:
    // the fresh-parse path costs it parse + sema, where a shared front
    // end would add a deep clone for an optimising cell. The
    // fault-injection hooks bypass the driver (and the memo) entirely;
    // route them through runExecJob so the process-pool isolation
    // tests see the same behaviour on the column path.
    if (Column.Jobs.size() == 1 || J.Settings.DebugHardAbort ||
        J.Settings.DebugSpinMs)
      return runExecJob(J);
    // Built by the first cell that reaches the driver, so a column of
    // fault-injection cells never pays the parse; a cell arriving
    // while it is built waits for it.
    std::call_once(FEBuilt, [&] {
      FE = std::make_unique<TestFrontEnd>(*J.Test);
    });
    LaunchMemo *CellMemo = mayRepeatLaunch(J.Settings) ? Memo.get() : nullptr;
    return J.Config ? runTestOnConfig(*J.Test, *J.Config, J.Opt,
                                      J.Settings, FE.get(), CellMemo)
                    : runTestOnReference(*J.Test, J.Opt, J.Settings,
                                         FE.get(), CellMemo);
  }

  /// Most cells of a column launch the same bytecode on the same
  /// inputs (their configurations' bug models did not fire): each
  /// distinct launch runs once. Launches can only repeat between cells
  /// whose settings give the VM the same scheduler seed, dead-array
  /// contents and race detection; a cell with no such partner in its
  /// column (a reducer's race-detecting reference run beside its plain
  /// configuration run) could only pay for the key.
  bool mayRepeatLaunch(const RunSettings &S) const {
    size_t Partners = 0;
    for (const ExecJob &Other : Column.Jobs)
      Partners += Other.Settings.SchedulerSeed == S.SchedulerSeed &&
                  Other.Settings.InvertDead == S.InvertDead &&
                  Other.Settings.DetectRaces == S.DetectRaces;
    return Partners > 1; // the cell itself is one
  }

  const ExecColumn &Column;
  std::once_flag FEBuilt;
  std::unique_ptr<TestFrontEnd> FE;
  std::unique_ptr<LaunchMemo> Memo;
  std::atomic<size_t> Unfinished;
};

} // namespace

std::vector<RunOutcome> clfuzz::runExecColumn(const ExecColumn &Column) {
  ColumnRunner Runner(Column);
  std::vector<RunOutcome> Out;
  Out.reserve(Column.Jobs.size());
  for (size_t I = 0; I != Column.Jobs.size(); ++I)
    Out.push_back(Runner.runCell(I));
  return Out;
}

ExecBackend::~ExecBackend() = default;

std::vector<RunOutcome>
ExecBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  // Flatten-and-delegate default: correct for every backend, used
  // as-is by the caching wrapper (per-cell cache keys).
  std::vector<ExecJob> Flat;
  for (const ExecColumn &Col : Columns)
    Flat.insert(Flat.end(), Col.Jobs.begin(), Col.Jobs.end());
  return run(Flat);
}

void ExecBackend::forEachIndex(size_t N,
                               const std::function<void(size_t)> &Body) {
  // Same exception contract as the thread pool: every index runs, the
  // first exception is rethrown after the batch drains — so a caller
  // that catches and continues sees identical side-effect state on
  // every backend.
  std::exception_ptr FirstError;
  for (size_t I = 0; I != N; ++I) {
    try {
      Body(I);
    } catch (...) {
      if (!FirstError)
        FirstError = std::current_exception();
    }
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
}

std::vector<RunOutcome>
InlineBackend::run(const std::vector<ExecJob> &Jobs) {
  std::vector<RunOutcome> Results;
  Results.reserve(Jobs.size());
  for (const ExecJob &Job : Jobs)
    Results.push_back(runExecJob(Job));
  return Results;
}

std::vector<RunOutcome>
InlineBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  std::vector<RunOutcome> Results;
  for (const ExecColumn &Col : Columns) {
    std::vector<RunOutcome> ColResults = runExecColumn(Col);
    Results.insert(Results.end(),
                   std::make_move_iterator(ColResults.begin()),
                   std::make_move_iterator(ColResults.end()));
  }
  return Results;
}

ThreadPoolBackend::ThreadPoolBackend(const ExecOptions &Opts)
    : NumThreads(Opts.resolvedThreads()) {
  try {
    for (unsigned I = 1; I < NumThreads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  } catch (...) {
    // A failed spawn must not leave the started workers unjoined.
    stopWorkers();
    throw;
  }
}

ThreadPoolBackend::~ThreadPoolBackend() { stopWorkers(); }

void ThreadPoolBackend::stopWorkers() {
  {
    std::lock_guard<std::mutex> Lock(M);
    ShuttingDown = true;
  }
  CV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPoolBackend::workerLoop() {
  uint64_t SeenBatch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [&] { return ShuttingDown || BatchId != SeenBatch; });
      if (ShuttingDown)
        return;
      SeenBatch = BatchId;
    }
    claimUntilDrained(SeenBatch);
  }
}

void ThreadPoolBackend::claimUntilDrained(uint64_t Batch) {
  for (;;) {
    // Indices are claimed under the lock; the bodies run outside it.
    const std::function<void(size_t)> *Work;
    size_t Begin, End;
    {
      std::lock_guard<std::mutex> Lock(M);
      // The batch-id check keeps a straggler worker from claiming
      // indices of a batch submitted after it last woke.
      if (BatchId != Batch || NextIndex >= EndIndex)
        return;
      Work = Body;
      Begin = NextIndex;
      End = std::min<size_t>(Begin + BatchClaimChunk, EndIndex);
      NextIndex = End;
    }
    std::exception_ptr Err;
    for (size_t I = Begin; I != End; ++I) {
      try {
        (*Work)(I);
      } catch (...) {
        if (!Err)
          Err = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      if (Err && !FirstError)
        FirstError = Err;
      DoneCount += End - Begin;
      if (DoneCount == EndIndex)
        DoneCV.notify_all();
    }
  }
}

void ThreadPoolBackend::forEachIndex(size_t N,
                                     const std::function<void(size_t)> &BodyFn,
                                     unsigned ClaimChunk) {
  if (Workers.empty() || N <= 1) {
    ExecBackend::forEachIndex(N, BodyFn);
    return;
  }
  uint64_t Batch;
  {
    std::lock_guard<std::mutex> Lock(M);
    Body = &BodyFn;
    NextIndex = 0;
    EndIndex = N;
    DoneCount = 0;
    BatchClaimChunk = std::max(1u, ClaimChunk);
    FirstError = nullptr;
    Batch = ++BatchId;
  }
  CV.notify_all();
  // The submitting thread works the queue too, then waits for the
  // stragglers held by pool workers.
  claimUntilDrained(Batch);
  std::exception_ptr Pending;
  {
    std::unique_lock<std::mutex> Lock(M);
    DoneCV.wait(Lock, [&] { return DoneCount == EndIndex; });
    Body = nullptr;
    Pending = FirstError;
    FirstError = nullptr;
  }
  if (Pending)
    std::rethrow_exception(Pending);
}

void ThreadPoolBackend::forEachIndex(size_t N,
                                     const std::function<void(size_t)> &Body) {
  size_t Claim = std::clamp<size_t>(N / (4 * size_t(NumThreads)), 1,
                                    CheapClaimChunk);
  forEachIndex(N, Body, static_cast<unsigned>(Claim));
}

std::vector<RunOutcome>
ThreadPoolBackend::run(const std::vector<ExecJob> &Jobs) {
  // Campaign cells can be timeout-heavy (a cell may burn its whole
  // step budget), so the batch claims one index per lock acquisition.
  std::vector<RunOutcome> Results(Jobs.size());
  forEachIndex(
      Jobs.size(), [&](size_t I) { Results[I] = runExecJob(Jobs[I]); }, 1);
  return Results;
}

namespace {

/// The two-ended cell claim of ThreadPoolBackend::runColumns. A lane
/// works through the column it owns from the front; a lane without one
/// claims the next unclaimed column, in order; once every column is
/// claimed, an idle lane steals the last unstarted cell of the column
/// with the most unstarted cells. Each call hands out one unstarted
/// cell, so as many calls as cells run every cell exactly once.
class CellClaims {
public:
  struct Cell {
    size_t Column;
    size_t Index;
  };

  explicit CellClaims(const std::vector<ExecColumn> &Columns) {
    Cols.reserve(Columns.size());
    for (const ExecColumn &C : Columns)
      Cols.push_back({0, C.Jobs.size(), std::thread::id()});
  }

  Cell next() {
    std::thread::id Me = std::this_thread::get_id();
    std::lock_guard<std::mutex> Lock(M);
    for (size_t C = 0; C != NextColumn; ++C)
      if (Cols[C].Owner == Me && Cols[C].Front != Cols[C].Back)
        return {C, Cols[C].Front++};
    while (NextColumn != Cols.size()) {
      Range &R = Cols[NextColumn++];
      R.Owner = Me;
      if (R.Front != R.Back)
        return {NextColumn - 1, R.Front++};
    }
    size_t Victim = 0;
    for (size_t C = 1; C != Cols.size(); ++C)
      if (Cols[C].Back - Cols[C].Front >
          Cols[Victim].Back - Cols[Victim].Front)
        Victim = C;
    assert(Cols[Victim].Front != Cols[Victim].Back &&
           "more claims than cells");
    return {Victim, --Cols[Victim].Back};
  }

private:
  /// A column's unstarted cells are [Front, Back).
  struct Range {
    size_t Front, Back;
    std::thread::id Owner;
  };
  std::mutex M;
  std::vector<Range> Cols;
  size_t NextColumn = 0;
};

} // namespace

std::vector<RunOutcome>
ThreadPoolBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  // One pool index per cell; each index runs whichever cell the
  // two-ended claim hands out, against its column's shared front end
  // and launch memo, and lands in that cell's slot of the flattened
  // submission order. Columns hold timeout-heavy cells, so claim one
  // index at a time.
  std::vector<size_t> Offset;
  size_t Cells = 0;
  std::deque<ColumnRunner> Runners;
  for (const ExecColumn &Col : Columns) {
    Offset.push_back(Cells);
    Cells += Col.Jobs.size();
    Runners.emplace_back(Col);
  }
  CellClaims Claims(Columns);
  std::vector<RunOutcome> Results(Cells);
  forEachIndex(
      Cells,
      [&](size_t) {
        CellClaims::Cell C = Claims.next();
        Results[Offset[C.Column] + C.Index] =
            Runners[C.Column].runCell(C.Index);
      },
      1);
  return Results;
}

std::unique_ptr<ExecBackend> clfuzz::makeBackend(const ExecOptions &Opts) {
  std::unique_ptr<ExecBackend> Backend;
  switch (Opts.Backend) {
  case BackendKind::Inline:
    Backend = std::make_unique<InlineBackend>();
    break;
  case BackendKind::Threads:
    Backend = std::make_unique<ThreadPoolBackend>(Opts);
    break;
  case BackendKind::Procs:
    Backend = makeProcessPoolBackend(Opts);
    break;
  case BackendKind::Remote:
    Backend = makeRemoteBackend(Opts);
    break;
  }
  if (!Backend)
    Backend = std::make_unique<InlineBackend>();
  // With a cache configured, every backend is consulted
  // content-addressed: identical descriptors are served from cache or
  // coalesced within the batch instead of re-executing.
  return wrapWithOutcomeCache(std::move(Backend), Opts.Cache);
}
