//===- Dispatch.cpp - The out-of-process dispatch loop -----------------------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "exec/Dispatch.h"

#if defined(__unix__) || defined(__APPLE__)

#include "exec/WireProtocol.h"

#include <algorithm>
#include <cerrno>
#include <deque>
#include <poll.h>
#include <stdexcept>

using namespace clfuzz;

std::vector<RunOutcome>
DispatchBackend::run(const std::vector<ExecJob> &Jobs) {
  std::vector<size_t> Ends(Jobs.size());
  for (size_t I = 0; I != Ends.size(); ++I)
    Ends[I] = I + 1;
  return dispatch(Jobs, Ends);
}

std::vector<RunOutcome>
DispatchBackend::runColumns(const std::vector<ExecColumn> &Columns) {
  std::vector<ExecJob> Cells;
  std::vector<size_t> Ends;
  for (const ExecColumn &Col : Columns)
    Cells.insert(Cells.end(), Col.Jobs.begin(), Col.Jobs.end());
  if (Cells.empty())
    return {};
  // A unit per executor slot, at least: longer columns travel as
  // consecutive slices, each still parsed once on its lane.
  size_t Slots = concurrency();
  size_t Cap = (Cells.size() + Slots - 1) / Slots;
  size_t Begin = 0;
  for (const ExecColumn &Col : Columns) {
    size_t End = Begin + Col.Jobs.size();
    for (size_t B = Begin; B < End; B += Cap)
      Ends.push_back(std::min(B + Cap, End));
    Begin = End;
  }
  return dispatch(Cells, Ends);
}

std::vector<RunOutcome>
DispatchBackend::dispatch(const std::vector<ExecJob> &Cells,
                          const std::vector<size_t> &UnitEnds) {
  using Clock = Lane::Clock;
  std::vector<RunOutcome> Results(Cells.size());
  if (Cells.empty())
    return Results;
  refresh(/*Require=*/true);

  size_t NextUnit = 0, Done = 0;
  std::vector<uint8_t> Losses(Cells.size(), 0);
  std::deque<size_t> Retry;

  // The one failure rule. A lost cell is ambiguous: it may have killed
  // its lane (the fault that isolation exists for), or the lane died
  // under it (OOM killer, machine loss, operator, a neighbour's crash).
  // One requeue, alone, resolves it: an innocent cell lands on its
  // true result (keeping output byte-identical), while a deterministic
  // killer fails its second lane too and is recorded — never silently
  // dropped.
  auto Fail = [&](uint64_t Tag, const std::string &How, bool Deadline) {
    size_t I = static_cast<size_t>(Tag);
    if (++Losses[I] <= 1) {
      Retry.push_back(I);
      requeued();
      return;
    }
    Results[I] = lostOutcome(How, Deadline);
    ++Done;
  };

  // Takes every cell \p L had in flight, tears the lane down and
  // applies the rule; the cell tagged *Culprit missed its deadline.
  auto Lose = [&](Lane &L, const char *Slug, const std::string &Why,
                  const uint64_t *Culprit) {
    std::map<uint64_t, Clock::time_point> Lost;
    Lost.swap(L.InFlight);
    L.Draining = L.PingOutstanding = false;
    std::string How = lose(L, Slug, Why);
    for (const auto &Entry : Lost)
      Fail(Entry.first, How, Culprit && Entry.first == *Culprit);
  };

  // The next unit's cell count: a retry is one cell; 0 = nothing left.
  auto NextCells = [&]() -> size_t {
    if (!Retry.empty())
      return 1;
    if (NextUnit == UnitEnds.size())
      return 0;
    return UnitEnds[NextUnit] - (NextUnit ? UnitEnds[NextUnit - 1] : 0);
  };

  // Two passes over the lanes: the first fills each lane to half its
  // window (a unit per executor slot), the second tops it up, so a
  // batch spreads over every slot before any slot queues a second
  // unit. Retries go first, one cell each. A unit's cells share one
  // deadline, a TimeoutMs per cell: a lane answers a column when all
  // of it has run.
  auto Dispatch = [&] {
    for (size_t Part : {2, 1})
      for (Lane *L : lanes())
        for (size_t N; (N = NextCells()) != 0;) {
          if (!L->alive() || L->Draining ||
              L->InFlight.size() >= (window(*L, N) + Part - 1) / Part)
            break;
          size_t Begin;
          if (!Retry.empty()) {
            Begin = Retry.front();
            Retry.pop_front();
          } else {
            Begin = NextUnit ? UnitEnds[NextUnit - 1] : 0;
            ++NextUnit;
          }
          ExecColumn Unit;
          Unit.Jobs.assign(Cells.begin() + Begin, Cells.begin() + Begin + N);
          auto Deadline =
              TimeoutMs ? Clock::now() + std::chrono::milliseconds(
                                             uint64_t(TimeoutMs) * N)
                        : Clock::time_point::max();
          for (size_t I = Begin; I != Begin + N; ++I)
            L->InFlight.emplace(I, Deadline);
          if (!wire::writeFrame(L->SendFd, wire::FrameType::Column,
                                wire::encodeColumn(Begin, Unit)))
            Lose(*L, "send-failed", "send failed", nullptr);
        }
  };

  Dispatch();

  std::vector<pollfd> Fds;
  std::vector<Lane *> Polled;
  while (Done < Cells.size()) {
    // Dispatch boundaries are where lanes come and go: adopt whatever
    // joined (lanes() reshapes), and when nothing is in flight, bring a
    // lane back or give up loudly.
    if (refresh(/*Require=*/false))
      Dispatch();
    bool AnyBusy = false;
    for (Lane *L : lanes())
      AnyBusy = AnyBusy || L->busy();
    if (!AnyBusy) {
      refresh(/*Require=*/true);
      Dispatch();
      continue;
    }

    // Poll every live lane, idle ones too: an idle lane is where a leave
    // frame or an unannounced death shows up, and both must be seen
    // before the next dispatch trusts the lane with work. Sleep until
    // the earliest deadline or heartbeat action at most.
    Fds.clear();
    Polled.clear();
    auto Earliest = Clock::time_point::max();
    for (Lane *L : lanes()) {
      if (!L->alive())
        continue;
      Fds.push_back({L->Fd, POLLIN, 0});
      Polled.push_back(L);
      if (!L->busy())
        continue;
      if (TimeoutMs)
        for (const auto &Entry : L->InFlight)
          Earliest = std::min(Earliest, Entry.second);
      if (HeartbeatMs)
        Earliest = std::min(Earliest,
                            (L->PingOutstanding ? L->PingSent : L->LastRecv) +
                                std::chrono::milliseconds(HeartbeatMs));
    }
    int PollMs = IdleWakeMs;
    if (Earliest != Clock::time_point::max()) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Earliest - Clock::now())
                      .count();
      int Ms = Left < 0 ? 0 : static_cast<int>(Left) + 1;
      PollMs = PollMs < 0 ? Ms : std::min(PollMs, Ms);
    }
    if (::poll(Fds.data(), Fds.size(), PollMs) < 0) {
      if (errno == EINTR)
        continue;
      throw std::runtime_error(std::string(name()) + " backend: poll failed");
    }

    for (size_t I = 0; I != Fds.size(); ++I) {
      Lane &L = *Polled[I];
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)) || !L.alive())
        continue;
      wire::Frame F;
      wire::ReadStatus RS = wire::readFrame(L.Fd, F);
      if (RS != wire::ReadStatus::Ok) {
        bool Eof = RS == wire::ReadStatus::Eof;
        Lose(L, Eof ? "peer-closed" : "garbage-frame",
             Eof ? "connection closed" : "garbage frame", nullptr);
        continue;
      }
      try {
        if (F.Type == wire::FrameType::Outcome) {
          wire::DecodedOutcome D = wire::decodeOutcome(F);
          auto It = L.InFlight.find(D.Tag);
          if (It != L.InFlight.end()) {
            Results[static_cast<size_t>(D.Tag)] = std::move(D.Outcome);
            ++Done;
            L.InFlight.erase(It);
          }
        } else if (F.Type == wire::FrameType::HeartbeatAck) {
          wire::decodeHeartbeat(F);
        } else if (F.Type == wire::FrameType::Leave) {
          // Graceful drain: nothing new to this lane; its window
          // completes normally (zero requeues), then retire() closes it.
          L.Draining = true;
        } else {
          throw std::runtime_error("unexpected " +
                                   std::string(wire::frameTypeName(F.Type)) +
                                   " frame");
        }
        L.LastRecv = Clock::now();
        L.PingOutstanding = false;
      } catch (const std::exception &E) {
        Lose(L, "protocol-error", E.what(), nullptr);
      }
    }

    auto Now = Clock::now();
    for (Lane *L : lanes()) {
      if (TimeoutMs && L->busy()) {
        auto Expired = std::find_if(
            L->InFlight.begin(), L->InFlight.end(),
            [&](const auto &Entry) { return Entry.second <= Now; });
        if (Expired != L->InFlight.end()) {
          uint64_t Culprit = Expired->first;
          Lose(*L, "deadline", "", &Culprit);
        }
      }
      if (HeartbeatMs && L->busy()) {
        auto Interval = std::chrono::milliseconds(HeartbeatMs);
        if (L->PingOutstanding) {
          if (Now >= L->PingSent + Interval)
            Lose(*L, "heartbeat-miss", "heartbeat unanswered", nullptr);
        } else if (Now >= L->LastRecv + Interval) {
          if (wire::writeFrame(L->SendFd, wire::FrameType::Heartbeat,
                               wire::encodeHeartbeat(NextNonce++))) {
            L->PingOutstanding = true;
            L->PingSent = Now;
          } else {
            Lose(*L, "send-failed", "send failed", nullptr);
          }
        }
      }
      if (L->alive() && L->Draining && L->InFlight.empty())
        retire(*L);
    }

    Dispatch();
  }
  return Results;
}

#endif
