//===- Dispatch.h - The out-of-process dispatch loop ------------*- C++ -*-===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one dispatch loop behind both out-of-process backends. A *lane*
/// is one out-of-process executor that speaks the frames of
/// exec/WireProtocol.h: a forked child on two pipes (exec/ProcessPool.h)
/// or a TCP link to a `clfuzz worker` (exec/RemoteBackend.h). The loop
/// sends work as `column` frames and reassembles the `outcome` frames
/// that answer them, one per cell, tagged with the cell's index in the
/// flattened batch — so Results[I] is cell I's outcome whatever order
/// the lanes finish in.
///
/// A *unit* is what one frame carries: one cell in run(), one column
/// in runColumns() — or a slice of one: a column longer than the
/// batch's cells / executor slots travels as consecutive slices of
/// that length, so a lone column (a `clfuzz diff`) still spreads over
/// every slot. A slice is still a column, parsed once on its lane.
///
/// The loop owns, once for both lane kinds:
///  * in-flight windows counted in cells (window()), filled in two
///    passes — half of every window, then the rest — so a batch reaches
///    every executor slot before any slot queues a second unit;
///  * deadlines of TimeoutMs per cell, armed at dispatch: a unit of N
///    cells must be answered within N x TimeoutMs;
///  * heartbeats that probe busy, silent lanes (HeartbeatMs);
///  * the one failure rule: a cell lost to a dead lane or to a missed
///    deadline is requeued once, alone, and recorded on its second
///    loss as the outcome its lane kind words (lostOutcome()). A lost
///    lane's answered cells stand; only its unanswered cells move.
///
/// A lane kind supplies only what differs: how lanes come up (fork, or
/// dial and adopt), how wide their windows are, how a lane is torn
/// down, and what the outcome of a twice-lost cell says.
///
//===----------------------------------------------------------------------===//

#ifndef CLFUZZ_EXEC_DISPATCH_H
#define CLFUZZ_EXEC_DISPATCH_H

#include "exec/ExecBackend.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace clfuzz {

/// One out-of-process executor, as the dispatch loop sees it.
struct Lane {
  using Clock = std::chrono::steady_clock;

  int Fd = -1;     ///< outcome frames are read here
  int SendFd = -1; ///< column frames are written here (a socket: == Fd)
  /// Tag -> deadline of every dispatched cell not yet answered
  /// (time_point::max() when no deadline is armed).
  std::map<uint64_t, Clock::time_point> InFlight;
  /// The worker sent leave: let the window finish, send nothing new.
  bool Draining = false;
  Clock::time_point LastRecv{};
  bool PingOutstanding = false;
  Clock::time_point PingSent{};

  bool alive() const { return Fd >= 0; }
  bool busy() const { return alive() && !InFlight.empty(); }
};

/// An ExecBackend whose cells run on lanes (above). Subclasses are the
/// lane kinds.
class DispatchBackend : public ExecBackend {
public:
  std::vector<RunOutcome> run(const std::vector<ExecJob> &Jobs) override;
  std::vector<RunOutcome>
  runColumns(const std::vector<ExecColumn> &Columns) override;

protected:
  DispatchBackend(unsigned TimeoutMs, unsigned HeartbeatMs)
      : TimeoutMs(TimeoutMs), HeartbeatMs(HeartbeatMs) {}

  /// Brings lanes up. Called on every loop turn with \p Require false
  /// (returns true when lanes were added), and with \p Require true at
  /// the start of a batch and whenever no lane is busy — then it throws
  /// unless some lane can take work.
  virtual bool refresh(bool Require) = 0;
  /// The lanes, in dispatch order; valid until the next refresh().
  virtual std::vector<Lane *> lanes() = 0;
  /// The window for a unit of \p Cells cells: \p L takes the unit
  /// while it holds fewer cells than this in flight. Scaling with the
  /// unit keeps a unit from queueing behind much more work than its
  /// own, so a deadline of TimeoutMs per cell holds for columns too.
  virtual size_t window(const Lane &L, size_t Cells) const = 0;
  /// Tears \p L down after the loop took its in-flight cells and
  /// returns how it was lost, the text lostOutcome() quotes. \p Slug
  /// names the reason in kebab case ("peer-closed", "deadline", ...);
  /// \p Why words it for outcome messages.
  virtual std::string lose(Lane &L, const char *Slug,
                           const std::string &Why) = 0;
  /// The outcome of a cell lost twice; \p Deadline when its second
  /// loss was its own missed deadline.
  virtual RunOutcome lostOutcome(const std::string &How,
                                 bool Deadline) const = 0;
  /// A cell was requeued after its first loss.
  virtual void requeued() {}
  /// A draining lane's window emptied: close it.
  virtual void retire(Lane &) {}

  unsigned TimeoutMs;   ///< deadline per cell in ms (0 = none)
  unsigned HeartbeatMs; ///< probe interval for busy, silent lanes (0 = off)
  /// Longest poll() with nothing scheduled (-1 = unbounded): a fleet
  /// registry wakes the loop to adopt joins.
  int IdleWakeMs = -1;

private:
  /// The loop: runs \p Cells, whose units end at \p UnitEnds (strictly
  /// increasing, the last one Cells.size()).
  std::vector<RunOutcome> dispatch(const std::vector<ExecJob> &Cells,
                                   const std::vector<size_t> &UnitEnds);

  uint64_t NextNonce = 1;
};

} // namespace clfuzz

#endif // CLFUZZ_EXEC_DISPATCH_H
