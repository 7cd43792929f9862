//===- ProcessPool.cpp - Fork-isolated execution backend ---------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/ProcessPool.h"

#if defined(__unix__) || defined(__APPLE__)

#include "exec/Dispatch.h"
#include "exec/WireProtocol.h"

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace clfuzz;

namespace {

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

/// The pipe lane's child: reads column frames, runs each column and
/// answers every cell with a tagged outcome frame. A shutdown frame or
/// EOF ends it. Never returns.
[[noreturn]] void childMain(int In, int Out) {
  // The child owns its process: a parent that went away must surface
  // as a failed write (then _exit), not a SIGPIPE kill.
  ::signal(SIGPIPE, SIG_IGN);
  for (;;) {
    wire::Frame F;
    wire::ReadStatus RS = wire::readFrame(In, F);
    if (RS != wire::ReadStatus::Ok || F.Type == wire::FrameType::Shutdown)
      ::_exit(RS == wire::ReadStatus::Malformed ? 1 : 0);
    wire::DecodedColumn Col;
    try {
      Col = wire::decodeColumn(F);
    } catch (const std::exception &) {
      // A torn protocol: die, and let the pool respawn us and retry
      // the cells one by one.
      ::_exit(1);
    }
    std::vector<RunOutcome> Outs;
    try {
      Outs = runExecColumn(Col.Column.view());
    } catch (const std::exception &E) {
      // A throw after decoding is attributable, so answer it.
      RunOutcome O;
      O.Status = RunStatus::Crash;
      O.Message = std::string("worker: ") + E.what();
      Outs.assign(Col.Column.Cells.size(), O);
    }
    for (size_t K = 0; K != Outs.size(); ++K)
      if (!wire::writeFrame(Out, wire::FrameType::Outcome,
                            wire::encodeOutcome(Col.BaseTag + K, Outs[K])))
        ::_exit(1);
  }
}

/// A pipe lane: a forked child on two pipes.
struct PipeLane : Lane {
  pid_t Pid = -1;
};

class ProcessPoolBackend final : public DispatchBackend {
public:
  explicit ProcessPoolBackend(const ExecOptions &Opts)
      : DispatchBackend(Opts.ProcTimeoutMs, /*HeartbeatMs=*/0),
        NumWorkers(Opts.resolvedThreads()) {}

  ~ProcessPoolBackend() override {
    for (PipeLane &L : Lanes)
      stop(L);
  }

  BackendKind kind() const override { return BackendKind::Procs; }
  unsigned concurrency() const override { return NumWorkers; }

  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override {
    // A deadline kills a whole child, so deadline lanes take one cell
    // at a time, columns included: a runaway never spends a
    // neighbour's retry.
    return TimeoutMs ? ExecBackend::runColumns(Columns)
                     : DispatchBackend::runColumns(Columns);
  }

private:
  bool refresh(bool) override {
    // Lazy spawn: campaigns that stay on one backend never pay for the
    // others, and forking on the first batch keeps the child free of
    // inherited thread state (campaigns and reductions both run their
    // first batch before starting any helper thread). Mid-run respawns,
    // and every pool a WorkerServer slot spawns, fork from a process
    // that already runs other threads. The child only runs childMain's
    // read/run/write loop, but it inherits every lock as it stood at
    // the fork: glibc makes malloc's locks consistent across fork, but
    // no other lock, and not those of a sanitizer runtime. A child
    // forked while another thread held one blocks forever; that is the
    // known stall of the fleet suites under TSan and ASan (ROADMAP,
    // "Fork-free pool workers"). A lane whose respawn failed earlier
    // is retried here.
    Lanes.resize(NumWorkers);
    for (PipeLane &L : Lanes)
      if (!L.alive())
        spawn(L);
    return false;
  }

  std::vector<Lane *> lanes() override {
    std::vector<Lane *> Out;
    for (PipeLane &L : Lanes)
      Out.push_back(&L);
    return Out;
  }

  /// One frame at a time: the parent writes only to an idle child, so
  /// it never blocks on a full pipe while the child blocks writing
  /// outcomes, and the pipes cannot deadlock.
  size_t window(const Lane &, size_t) const override { return 1; }

  std::string lose(Lane &Base, const char *Slug, const std::string &) override;

  RunOutcome lostOutcome(const std::string &How,
                         bool Deadline) const override {
    RunOutcome O;
    if (Deadline) {
      O.Status = RunStatus::Timeout;
      O.Message = "exceeded process-pool wall-clock deadline (" +
                  std::to_string(TimeoutMs) + " ms); worker killed";
    } else {
      O.Status = RunStatus::Crash;
      O.Message = "worker process died (" + How + "); isolated by process pool";
    }
    return O;
  }

  void spawn(PipeLane &L);
  void stop(PipeLane &L);

  unsigned NumWorkers;
  std::vector<PipeLane> Lanes;
};

void ProcessPoolBackend::spawn(PipeLane &L) {
  int ToChild[2], FromChild[2];
  if (::pipe(ToChild) != 0)
    throw std::runtime_error("process pool: fork failed");
  if (::pipe(FromChild) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    throw std::runtime_error("process pool: fork failed");
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
      ::close(Fd);
    throw std::runtime_error("process pool: fork failed");
  }
  if (Pid == 0) {
    // Child: keep only this lane's two pipe ends. Dropping the ends
    // inherited from siblings forked earlier is what lets a sibling see
    // EOF when the parent goes away; dropping every other descriptor
    // is what lets another pool see its own child die.
    closeInheritedFds(ToChild[0], FromChild[1]);
    childMain(ToChild[0], FromChild[1]);
  }
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  L.Pid = Pid;
  L.SendFd = ToChild[1];
  L.Fd = FromChild[0];
}

void ProcessPoolBackend::stop(PipeLane &L) {
  if (L.Pid < 0)
    return;
  // Polite shutdown frame first; SIGKILL if the child is wedged.
  wire::writeFrame(L.SendFd, wire::FrameType::Shutdown, {});
  ::close(L.SendFd);
  ::close(L.Fd);
  int Status = 0;
  if (::waitpid(L.Pid, &Status, WNOHANG) == 0) {
    ::kill(L.Pid, SIGKILL);
    ::waitpid(L.Pid, &Status, 0);
  }
  L.Pid = L.Fd = L.SendFd = -1;
}

std::string ProcessPoolBackend::lose(Lane &Base, const char *Slug,
                                     const std::string &) {
  auto &L = static_cast<PipeLane &>(Base);
  // A child that hung up has exited. After any other loss (a missed
  // deadline, a bad frame, a failed send) it may still run: kill it
  // before the reap.
  if (std::strcmp(Slug, "peer-closed") != 0)
    ::kill(L.Pid, SIGKILL);
  ::close(L.SendFd);
  ::close(L.Fd);
  int Status = 0;
  ::waitpid(L.Pid, &Status, 0);
  L.Pid = L.Fd = L.SendFd = -1;
  spawn(L);
  if (WIFSIGNALED(Status)) {
    int Sig = WTERMSIG(Status);
    return "signal " + std::to_string(Sig) + " (" + strsignal(Sig) + ")";
  }
  if (WIFEXITED(Status))
    return "exit status " + std::to_string(WEXITSTATUS(Status));
  return "unknown cause";
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
