//===- ProcessPool.cpp - Fork/exec-isolated execution backend ----------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/ProcessPool.h"

#if defined(__unix__) || defined(__APPLE__)

#include "exec/JobSerialize.h"
#include "exec/WireProtocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <deque>
#include <poll.h>
#include <stdexcept>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace clfuzz;

namespace {

// The exact-length fd I/O (readFull / writeFull / the SIGPIPE-safe
// write) started life here and moved to exec/WireProtocol.h when the
// remote backend arrived; the pool's pipe framing and the network
// framing share one implementation.
using wire::readFull;
using wire::writeFull;
using wire::writeFullNoSigpipe;

/// First payload byte of every frame the parent sends: one job
/// descriptor, or one campaign column (shared test serialized once,
/// one outcome frame streamed back per cell).
constexpr uint8_t JobFrameTag = 0;
constexpr uint8_t ColumnFrameTag = 1;

/// Closes descriptors Lo..Hi inclusive: one close_range(2) where the
/// kernel has it, else one close() per descriptor below the process's
/// descriptor limit.
void closeFdRange(unsigned Lo, unsigned Hi) {
  if (Lo > Hi)
    return;
#ifdef SYS_close_range
  if (::syscall(SYS_close_range, Lo, Hi, 0u) == 0)
    return;
#endif
  long Limit = ::sysconf(_SC_OPEN_MAX);
  unsigned Top = Limit > 0 && Limit <= INT_MAX ? unsigned(Limit - 1) : 65535u;
  for (unsigned Fd = Lo; Fd <= std::min(Hi, Top); ++Fd)
    ::close(static_cast<int>(Fd));
}

/// Leaves a freshly forked worker holding only stdio and its own two
/// pipe ends. fork() copies every descriptor of the whole process, and
/// other threads may be between pipe() and fork() in pools of their
/// own (each remote worker slot owns one): a worker that kept another
/// pool's write end open would hide that pool's dead worker behind a
/// pipe that never reaches EOF, and its poll() would wait forever.
void closeInheritedFds(int In, int Out) {
  unsigned Next = 3;
  for (int Keep : {std::min(In, Out), std::max(In, Out)}) {
    if (Keep < static_cast<int>(Next))
      continue;
    closeFdRange(Next, static_cast<unsigned>(Keep) - 1);
    Next = static_cast<unsigned>(Keep) + 1;
  }
  closeFdRange(Next, ~0u);
}

/// Worker subprocess loop: read a framed, tagged descriptor (a single
/// job or a whole column), execute it, write one framed outcome per
/// job. A zero-length frame (or EOF) is the shutdown signal. Never
/// returns.
[[noreturn]] void workerMain(int In, int Out) {
  // The worker owns its process: a parent that went away must surface
  // as a failed write (then _exit), not a SIGPIPE kill.
  ::signal(SIGPIPE, SIG_IGN);
  for (;;) {
    uint32_t Len = 0;
    if (!readFull(In, &Len, sizeof(Len)) || Len == 0)
      ::_exit(0);
    std::vector<uint8_t> Frame(Len);
    if (!readFull(In, Frame.data(), Len))
      ::_exit(1);

    WireReader R(Frame.data(), Frame.size());
    uint8_t Tag;
    try {
      Tag = R.u8();
    } catch (const std::exception &) {
      ::_exit(1);
    }

    std::vector<RunOutcome> Outs;
    if (Tag == JobFrameTag) {
      RunOutcome O;
      try {
        OwnedExecJob Job = deserializeExecJob(R);
        O = runExecJob(Job.view());
      } catch (const std::exception &E) {
        O.Status = RunStatus::Crash;
        O.Message = std::string("worker: ") + E.what();
      }
      Outs.push_back(std::move(O));
    } else if (Tag == ColumnFrameTag) {
      size_t Cells = 0;
      try {
        OwnedExecColumn Col = deserializeExecColumn(R);
        Cells = Col.Cells.size();
        Outs = runExecColumn(Col.view());
      } catch (const std::exception &E) {
        // An unreadable column frame means a torn protocol: die and
        // let the pool respawn us and retry the cells one by one. A
        // throw after deserialization is attributable, so answer it.
        if (Cells == 0)
          ::_exit(1);
        RunOutcome O;
        O.Status = RunStatus::Crash;
        O.Message = std::string("worker: ") + E.what();
        Outs.assign(Cells, O);
      }
    } else {
      ::_exit(1);
    }

    for (const RunOutcome &O : Outs) {
      WireWriter W;
      serializeRunOutcome(W, O);
      uint32_t RespLen = static_cast<uint32_t>(W.buffer().size());
      if (!writeFull(Out, &RespLen, sizeof(RespLen)) ||
          !writeFull(Out, W.buffer().data(), RespLen))
        ::_exit(1);
    }
  }
}

class ProcessPoolBackend final : public ExecBackend {
public:
  explicit ProcessPoolBackend(const ExecOptions &Opts)
      : NumWorkers(Opts.resolvedThreads()), TimeoutMs(Opts.ProcTimeoutMs) {}

  ~ProcessPoolBackend() override {
    for (Worker &W : Workers)
      stopWorker(W);
  }

  BackendKind kind() const override { return BackendKind::Procs; }
  unsigned concurrency() const override { return NumWorkers; }
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override;

private:
  /// (begin index, cell count) spans over a flattened job vector, one
  /// per column.
  using ColumnSpans = std::vector<std::pair<size_t, size_t>>;
  struct Worker {
    pid_t Pid = -1;
    int ToChild = -1;   ///< parent writes job frames here
    int FromChild = -1; ///< parent reads outcome frames here
    /// Indices of the jobs in the worker's current frame whose
    /// outcomes have not arrived yet, in submission order.
    std::deque<size_t> InFlight;
    std::chrono::steady_clock::time_point Deadline;

    bool busy() const { return !InFlight.empty(); }
  };

  bool spawnWorker(Worker &W);
  void stopWorker(Worker &W);
  /// Reaps a dead worker and reports how it died ("signal 6 (SIGABRT)").
  std::string reapWorker(Worker &W);
  bool sendJobs(Worker &W, const std::vector<ExecJob> &Jobs,
                const std::deque<size_t> &Indices);
  bool sendColumn(Worker &W, const std::vector<ExecJob> &Jobs,
                  const std::deque<size_t> &Indices);
  /// The shared dispatch/poll loop behind run() and runColumns().
  /// With \p Spans null, jobs are adaptively batched into single-job
  /// frames; with spans, each span travels as one column frame (and
  /// retries always travel as single-job frames).
  std::vector<RunOutcome> execute(const std::vector<ExecJob> &Jobs,
                                  const ColumnSpans *Spans);

  unsigned NumWorkers;
  unsigned TimeoutMs;
  std::vector<Worker> Workers;
};

bool ProcessPoolBackend::spawnWorker(Worker &W) {
  int ToChild[2], FromChild[2];
  if (::pipe(ToChild) != 0)
    return false;
  if (::pipe(FromChild) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    return false;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    ::close(FromChild[1]);
    return false;
  }
  if (Pid == 0) {
    // Child: keep only this worker's two pipe ends. Dropping the ends
    // inherited from siblings forked earlier is what lets a sibling see
    // EOF when the parent goes away; dropping every other descriptor
    // is what lets another pool see its own worker die.
    closeInheritedFds(ToChild[0], FromChild[1]);
    workerMain(ToChild[0], FromChild[1]);
  }
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  W.Pid = Pid;
  W.ToChild = ToChild[1];
  W.FromChild = FromChild[0];
  W.InFlight.clear();
  return true;
}

void ProcessPoolBackend::stopWorker(Worker &W) {
  if (W.Pid < 0)
    return;
  // Polite shutdown frame first; SIGKILL if the worker is wedged.
  uint32_t Zero = 0;
  writeFullNoSigpipe(W.ToChild, &Zero, sizeof(Zero));
  ::close(W.ToChild);
  ::close(W.FromChild);
  int Status = 0;
  if (::waitpid(W.Pid, &Status, WNOHANG) == 0) {
    ::kill(W.Pid, SIGKILL);
    ::waitpid(W.Pid, &Status, 0);
  }
  W.Pid = -1;
  W.ToChild = W.FromChild = -1;
}

std::string ProcessPoolBackend::reapWorker(Worker &W) {
  ::close(W.ToChild);
  ::close(W.FromChild);
  int Status = 0;
  ::waitpid(W.Pid, &Status, 0);
  W.Pid = -1;
  W.ToChild = W.FromChild = -1;
  W.InFlight.clear();
  if (WIFSIGNALED(Status)) {
    int Sig = WTERMSIG(Status);
    return "signal " + std::to_string(Sig) + " (" + strsignal(Sig) + ")";
  }
  if (WIFEXITED(Status))
    return "exit status " + std::to_string(WEXITSTATUS(Status));
  return "unknown cause";
}

/// Serializes every indexed job into one contiguous frame run and
/// writes it with a single syscall - the batching amortisation. The
/// worker protocol is unchanged: it still reads one frame, runs it,
/// and responds, so a k-job batch is just k frames arriving at once
/// and k outcome frames streaming back as they complete.
bool ProcessPoolBackend::sendJobs(Worker &W, const std::vector<ExecJob> &Jobs,
                                  const std::deque<size_t> &Indices) {
  std::vector<uint8_t> Run;
  for (size_t Index : Indices) {
    WireWriter One;
    One.u8(JobFrameTag);
    serializeExecJob(One, Jobs[Index]);
    // The length prefix is a raw host-order uint32_t, matching the
    // readFull(&Len) on both protocol ends (parent and child are the
    // same binary on the same host; the WireWriter payload is
    // little-endian, the framing is not).
    uint32_t Len = static_cast<uint32_t>(One.buffer().size());
    const auto *P = reinterpret_cast<const uint8_t *>(&Len);
    Run.insert(Run.end(), P, P + sizeof(Len));
    Run.insert(Run.end(), One.buffer().begin(), One.buffer().end());
  }
  return writeFullNoSigpipe(W.ToChild, Run.data(), Run.size());
}

/// Serializes the indexed jobs — consecutive cells of one test — as a
/// single column frame: the test case crosses the pipe once and the
/// worker parses it once, answering with one outcome frame per cell in
/// order. Outcome frames are tens of bytes, far below pipe capacity,
/// so the worker never blocks writing responses and the protocol stays
/// deadlock-free.
bool ProcessPoolBackend::sendColumn(Worker &W,
                                    const std::vector<ExecJob> &Jobs,
                                    const std::deque<size_t> &Indices) {
  ExecColumn Col;
  Col.Jobs.reserve(Indices.size());
  for (size_t Index : Indices)
    Col.Jobs.push_back(Jobs[Index]);
  WireWriter One;
  One.u8(ColumnFrameTag);
  serializeExecColumn(One, Col);
  uint32_t Len = static_cast<uint32_t>(One.buffer().size());
  std::vector<uint8_t> Run;
  const auto *P = reinterpret_cast<const uint8_t *>(&Len);
  Run.insert(Run.end(), P, P + sizeof(Len));
  Run.insert(Run.end(), One.buffer().begin(), One.buffer().end());
  return writeFullNoSigpipe(W.ToChild, Run.data(), Run.size());
}

std::vector<RunOutcome>
ProcessPoolBackend::run(const std::vector<ExecJob> &Jobs) {
  return execute(Jobs, nullptr);
}

std::vector<RunOutcome>
ProcessPoolBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  // A wall-clock deadline is enforced per frame head, so deadline
  // frames must stay single-job: fall back to the flatten default and
  // keep the kill-and-record logic exactly as it was.
  if (TimeoutMs)
    return ExecBackend::runColumns(Columns);
  std::vector<ExecJob> Flat;
  ColumnSpans Spans;
  Spans.reserve(Columns.size());
  for (const ExecColumn &Col : Columns) {
    Spans.emplace_back(Flat.size(), Col.Jobs.size());
    Flat.insert(Flat.end(), Col.Jobs.begin(), Col.Jobs.end());
  }
  return execute(Flat, &Spans);
}

std::vector<RunOutcome>
ProcessPoolBackend::execute(const std::vector<ExecJob> &Jobs,
                            const ColumnSpans *Spans) {
  std::vector<RunOutcome> Results(Jobs.size());
  if (Jobs.empty())
    return Results;

  // Lazy spawn: campaigns that stay on one backend never pay for the
  // others, and forking on the first batch keeps the child free of
  // inherited thread state (campaigns and reductions both run their
  // first batch before starting any helper thread). Mid-run respawns
  // can fork while helper threads are allocating; that is safe on the
  // platforms this backend compiles for because glibc/libSystem make
  // malloc consistent across fork, and a child only ever executes
  // workerMain's self-contained read/run/write loop.
  if (Workers.empty()) {
    Workers.resize(NumWorkers);
    for (Worker &W : Workers)
      if (!spawnWorker(W))
        throw std::runtime_error("process pool: fork failed");
  }

  using Clock = std::chrono::steady_clock;
  size_t NextJob = 0, NextSpan = 0, Done = 0;

  // Adaptive batching: cheap cells are sent several to a frame so the
  // serialization and syscall cost is amortised, sized so every worker
  // still gets at least two frames of the batch (late stragglers can
  // be balanced). Timeout-prone batches (a wall-clock deadline is set)
  // stay one-in-flight so the deadline and the kill stay per-job.
  // The cap of 8 keeps a frame run and its streamed responses far
  // below pipe capacity, which is what keeps the protocol
  // deadlock-free (the worker never blocks writing responses, so it
  // always drains the frames we blocked writing).
  const size_t MaxBatch =
      TimeoutMs ? 1
                : std::clamp<size_t>(
                      Jobs.size() / (size_t(NumWorkers) * 2), 1, 8);

  // A worker death is ambiguous: the job may have crashed it (the
  // fault procs exists to isolate) or the worker may have died for
  // unrelated reasons (OOM killer, operator) with an innocent job in
  // flight. Each job therefore gets one retry on a fresh worker: an
  // externally killed worker's job re-runs and yields its true result
  // (preserving cross-backend bit-identity), while a genuinely
  // crashing job — deterministic like every cell — kills the retry
  // worker too and is then recorded as its Crash outcome.
  std::vector<uint8_t> CrashCount(Jobs.size(), 0);
  std::vector<size_t> RetryQueue;

  auto CrashOutcome = [](const std::string &How) {
    RunOutcome O;
    O.Status = RunStatus::Crash;
    O.Message = "worker process died (" + How + "); isolated by process pool";
    return O;
  };
  auto TimeoutOutcome = [&] {
    RunOutcome O;
    O.Status = RunStatus::Timeout;
    O.Message = "exceeded process-pool wall-clock deadline (" +
                std::to_string(TimeoutMs) + " ms); worker killed";
    return O;
  };

  /// Records a worker death against its in-flight job: requeues the
  /// job on first failure, records a crash outcome on the second.
  /// Never silently drops a job.
  auto JobFailed = [&](size_t Index, const std::string &How) {
    if (++CrashCount[Index] <= 1) {
      RetryQueue.push_back(Index);
      return;
    }
    Results[Index] = CrashOutcome(How);
    ++Done;
  };

  // One frame in flight per worker; a frame carries one retry job, one
  // column, or up to MaxBatch fresh jobs. Retries always travel alone
  // (as single-job frames, even out of a column) so a genuinely
  // crashing job poisons nothing but itself on its second attempt.
  auto Dispatch = [&](Worker &W) {
    for (;;) {
      std::deque<size_t> Batch;
      bool AsColumn = false;
      if (!RetryQueue.empty()) {
        Batch.push_back(RetryQueue.back());
        RetryQueue.pop_back();
      } else if (Spans) {
        if (NextSpan < Spans->size()) {
          auto Span = (*Spans)[NextSpan++];
          for (size_t K = 0; K != Span.second; ++K)
            Batch.push_back(Span.first + K);
          // A one-cell column gains nothing from column framing.
          AsColumn = Batch.size() > 1;
        }
      } else {
        while (Batch.size() < MaxBatch && NextJob < Jobs.size())
          Batch.push_back(NextJob++);
      }
      if (Batch.empty())
        return;
      if (AsColumn ? sendColumn(W, Jobs, Batch) : sendJobs(W, Jobs, Batch)) {
        W.InFlight = std::move(Batch);
        W.Deadline = Clock::now() + std::chrono::milliseconds(
                                        TimeoutMs ? TimeoutMs : 0);
        return;
      }
      // The worker died before any batched job ever ran; recycle the
      // worker and treat it as every job's (retryable) failure.
      std::string How = reapWorker(W);
      for (size_t Index : Batch)
        JobFailed(Index, How);
      if (!spawnWorker(W))
        throw std::runtime_error("process pool: respawn failed");
    }
  };

  for (Worker &W : Workers)
    Dispatch(W);

  std::vector<pollfd> Fds;
  std::vector<Worker *> FdOwner;
  while (Done < Jobs.size()) {
    Fds.clear();
    FdOwner.clear();
    for (Worker &W : Workers)
      if (W.busy()) {
        Fds.push_back({W.FromChild, POLLIN, 0});
        FdOwner.push_back(&W);
      }

    int PollTimeout = -1;
    if (TimeoutMs) {
      auto Now = Clock::now();
      auto Earliest = Clock::time_point::max();
      for (Worker *W : FdOwner)
        Earliest = std::min(Earliest, W->Deadline);
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Earliest - Now)
                      .count();
      PollTimeout = Left < 0 ? 0 : static_cast<int>(Left) + 1;
    }

    int Ready = ::poll(Fds.data(), Fds.size(), PollTimeout);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      throw std::runtime_error("process pool: poll failed");
    }

    for (size_t I = 0; I != Fds.size(); ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Worker &W = *FdOwner[I];
      // One outcome frame per readiness; further buffered responses
      // re-arm the fd on the next poll round.
      size_t Index = W.InFlight.front();
      uint32_t Len = 0;
      std::vector<uint8_t> Frame;
      bool Ok = readFull(W.FromChild, &Len, sizeof(Len));
      if (Ok) {
        Frame.resize(Len);
        Ok = readFull(W.FromChild, Frame.data(), Len);
      }
      if (Ok) {
        try {
          WireReader R(Frame.data(), Frame.size());
          Results[Index] = deserializeRunOutcome(R);
        } catch (const std::exception &) {
          Ok = false;
        }
      }
      if (Ok) {
        W.InFlight.pop_front();
        ++Done;
      } else {
        // Outcomes already streamed back stand; every job still in
        // the dead worker's frame fails (retryably).
        std::deque<size_t> Lost = std::move(W.InFlight);
        std::string How = reapWorker(W);
        for (size_t LostIndex : Lost)
          JobFailed(LostIndex, How);
        if (!spawnWorker(W))
          throw std::runtime_error("process pool: respawn failed");
      }
      if (!W.busy())
        Dispatch(W);
    }

    if (TimeoutMs) {
      auto Now = Clock::now();
      for (Worker &W : Workers) {
        if (!W.busy() || Now < W.Deadline)
          continue;
        // Deadline frames are single-job (MaxBatch == 1 whenever
        // TimeoutMs is set), so the head job is the runaway.
        size_t Index = W.InFlight.front();
        W.InFlight.pop_front();
        std::deque<size_t> Lost = std::move(W.InFlight);
        ::kill(W.Pid, SIGKILL);
        std::string How = reapWorker(W);
        Results[Index] = TimeoutOutcome();
        ++Done;
        for (size_t LostIndex : Lost)
          JobFailed(LostIndex, How);
        if (!spawnWorker(W))
          throw std::runtime_error("process pool: respawn failed");
        Dispatch(W);
      }
    }
  }
  return Results;
}

} // namespace

std::unique_ptr<ExecBackend>
clfuzz::makeProcessPoolBackend(const ExecOptions &Opts) {
  return std::make_unique<ProcessPoolBackend>(Opts);
}

#else // no fork(): degrade to the serial reference backend.

std::unique_ptr<clfuzz::ExecBackend>
clfuzz::makeProcessPoolBackend(const clfuzz::ExecOptions &) {
  return std::make_unique<clfuzz::InlineBackend>();
}

#endif
