//===- RemoteBackendTest.cpp - Remote backend + worker protocol suite --------===//
//
// Part of the clfuzz project: a reproduction of "Many-Core Compiler
// Fuzzing" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// Pins the multi-host execution contract: a campaign on
// --backend=remote against loopback `clfuzz worker` servers produces
// output bit-identical to --backend=inline (raw batches and the
// Table 1/4/5 campaign drivers), a worker dying mid-campaign has its
// in-flight jobs requeued without corrupting results, a wedged worker
// is evicted by heartbeat, per-job deadlines record Timeout outcomes,
// and the wire protocol itself round-trips exactly and rejects
// garbage instead of guessing (docs/wire-protocol.md).
//
// Workers run in-process (WorkerServer is embeddable) on ephemeral
// loopback ports, so the suite needs no fixtures beyond a socket
// stack; the `clfuzz worker` CLI wraps the same server, and CI drives
// that path with real processes.
//
//===----------------------------------------------------------------------===//

#include "exec/FleetRegistry.h"
#include "exec/RemoteBackend.h"
#include "exec/WireProtocol.h"
#include "exec/WorkerLoop.h"
#include "device/DeviceConfig.h"
#include "oracle/Campaign.h"
#include "oracle/Reducer.h"

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <algorithm>
#include <chrono>
#include <functional>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace clfuzz;

namespace {

/// ExecOptions for a remote backend over the given live servers.
ExecOptions remoteOpts(std::initializer_list<const WorkerServer *> Servers,
                       unsigned HeartbeatMs = 2000,
                       unsigned TimeoutMs = 0) {
  ExecOptions O;
  O.Backend = BackendKind::Remote;
  for (const WorkerServer *S : Servers)
    O.RemoteWorkers.push_back("127.0.0.1:" + std::to_string(S->port()));
  O.RemoteHeartbeatMs = HeartbeatMs;
  O.RemoteTimeoutMs = TimeoutMs;
  return O;
}

WorkerOptions loopbackWorker(unsigned Jobs) {
  WorkerOptions WO;
  WO.Jobs = Jobs;
  return WO;
}

/// WorkerOptions for a rendezvous-mode worker dialling the registry.
WorkerOptions rendezvousWorker(unsigned RegistryPort, unsigned Jobs) {
  WorkerOptions WO;
  WO.Connect = "127.0.0.1:" + std::to_string(RegistryPort);
  WO.Jobs = Jobs;
  return WO;
}

/// Polls \p Cond every 10 ms for up to \p Ms milliseconds.
bool waitUntil(const std::function<bool()> &Cond, unsigned Ms) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Cond();
}

/// N campaign cells cycling over the zoo — the standard churn load.
std::vector<ExecJob> churnBatch(const TestCase &T,
                                const std::vector<DeviceConfig> &Zoo,
                                int N) {
  std::vector<ExecJob> Jobs;
  for (int I = 0; I != N; ++I)
    Jobs.push_back(
        ExecJob::onConfig(T, Zoo[I % Zoo.size()], I % 2 == 0, RunSettings()));
  return Jobs;
}

std::vector<DeviceConfig> smallZoo() {
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo;
  for (int Id : {1, 12, 14, 19})
    Zoo.push_back(configById(Registry, Id));
  return Zoo;
}

void expectSameOutcomes(const std::vector<RunOutcome> &A,
                        const std::vector<RunOutcome> &B,
                        const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Status, B[I].Status) << Ctx << " job " << I;
    EXPECT_EQ(A[I].OutputHash, B[I].OutputHash) << Ctx << " job " << I;
    EXPECT_EQ(A[I].Message, B[I].Message) << Ctx << " job " << I;
    EXPECT_EQ(A[I].Steps, B[I].Steps) << Ctx << " job " << I;
    EXPECT_EQ(A[I].OutputHead, B[I].OutputHead) << Ctx << " job " << I;
  }
}

/// Every connected TCP descriptor of this process (SOCK_STREAM, an
/// AF_INET/AF_INET6 peer), paired with its TCP_NODELAY setting.
std::vector<std::pair<int, int>> connectedTcpSockets() {
  std::vector<std::pair<int, int>> Out;
  long Max = std::min(::sysconf(_SC_OPEN_MAX), 65536L);
  for (int Fd = 0; Fd < Max; ++Fd) {
    int Type = 0;
    socklen_t Len = sizeof(Type);
    if (::getsockopt(Fd, SOL_SOCKET, SO_TYPE, &Type, &Len) != 0 ||
        Type != SOCK_STREAM)
      continue;
    struct sockaddr_storage Peer = {};
    socklen_t PeerLen = sizeof(Peer);
    if (::getpeername(Fd, reinterpret_cast<struct sockaddr *>(&Peer),
                      &PeerLen) != 0 ||
        (Peer.ss_family != AF_INET && Peer.ss_family != AF_INET6))
      continue;
    int NoDelay = 0;
    Len = sizeof(NoDelay);
    if (::getsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &NoDelay, &Len) != 0)
      NoDelay = -1;
    Out.emplace_back(Fd, NoDelay);
  }
  return Out;
}

/// A column payload of \p Cells cells of one kernel, base tag 42.
std::vector<uint8_t> columnPayload(int Cells) {
  static const TestCase T = [] {
    GenOptions GO;
    GO.Seed = 31416;
    return TestCase::fromGenerated(generateKernel(GO));
  }();
  static const std::vector<DeviceConfig> Zoo = smallZoo();
  ExecColumn Col;
  for (int I = 0; I != Cells; ++I)
    Col.Jobs.push_back(
        ExecJob::onConfig(T, Zoo[I], I % 2 == 0, RunSettings()));
  return wire::encodeColumn(42, Col);
}

/// A one-cell column payload whose cell count claims 2^32 - 1 cells.
/// The one- and two-cell payloads first differ in the count's low byte.
std::vector<uint8_t> overrunColumnPayload() {
  std::vector<uint8_t> One = columnPayload(1), Two = columnPayload(2);
  size_t At = 0;
  while (One[At] == Two[At])
    ++At;
  for (size_t I = At; I != At + 4; ++I)
    One[I] = 0xFF;
  return One;
}

wire::Frame columnFrame(std::vector<uint8_t> Payload) {
  wire::Frame F;
  F.Type = wire::FrameType::Column;
  F.Payload = std::move(Payload);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire protocol: round trips and garbage rejection
//===----------------------------------------------------------------------===//

TEST(RemoteBackendTest, FramesRoundTripThroughAnFd) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);

  GenOptions GO;
  GO.Seed = 31415;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  RunSettings RS;
  RS.SchedulerSeed = 7;
  ExecColumn Col;
  Col.Jobs.push_back(ExecJob::onConfig(T, configById(Registry, 12), true, RS));
  Col.Jobs.push_back(ExecJob::onConfig(T, configById(Registry, 12), false, RS));
  Col.Jobs.push_back(ExecJob::onReference(T, false, RS));

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::Column,
                               wire::encodeColumn(42, Col)));
  wire::Frame F;
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  ASSERT_EQ(F.Type, wire::FrameType::Column);
  wire::DecodedColumn D = wire::decodeColumn(F);
  EXPECT_EQ(D.BaseTag, 42u);
  EXPECT_EQ(D.Column.Test.Source, T.Source);
  ASSERT_EQ(D.Column.Cells.size(), 3u);
  ASSERT_TRUE(D.Column.Cells[0].Config.has_value());
  EXPECT_EQ(D.Column.Cells[0].Config->Id, 12);
  EXPECT_TRUE(D.Column.Cells[0].Opt);
  EXPECT_FALSE(D.Column.Cells[1].Opt);
  EXPECT_EQ(D.Column.Cells[1].Settings.SchedulerSeed, 7u);
  EXPECT_FALSE(D.Column.Cells[2].Config.has_value());

  // The round-tripped column must execute identically, cell by cell:
  // the tag travels, the descriptors stay pure.
  std::vector<RunOutcome> Want = runExecColumn(Col);
  std::vector<RunOutcome> Got = runExecColumn(D.Column.view());
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t K = 0; K != Want.size(); ++K) {
    EXPECT_EQ(Want[K].Status, Got[K].Status) << "cell " << K;
    EXPECT_EQ(Want[K].OutputHash, Got[K].OutputHash) << "cell " << K;
    EXPECT_EQ(Want[K].Message, Got[K].Message) << "cell " << K;
  }
  RunOutcome A = Want[0];

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::Outcome,
                               wire::encodeOutcome(42, A)));
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  ASSERT_EQ(F.Type, wire::FrameType::Outcome);
  wire::DecodedOutcome O = wire::decodeOutcome(F);
  EXPECT_EQ(O.Tag, 42u);
  EXPECT_EQ(O.Outcome.Status, A.Status);
  EXPECT_EQ(O.Outcome.OutputHash, A.OutputHash);
  EXPECT_EQ(O.Outcome.Message, A.Message);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::HeartbeatAck,
                               wire::encodeHeartbeat(99)));
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  EXPECT_EQ(wire::decodeHeartbeat(F), 99u);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::HelloAck,
                               wire::encodeHelloAck(8)));
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  EXPECT_EQ(wire::decodeHelloAck(F), 8u);

  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(RemoteBackendTest, MalformedFramesAreRejectedNotGuessed) {
  // Bad magic.
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    const uint8_t Garbage[12] = {'G', 'E', 'T', ' ', '/', ' ',
                                 'H', 'T', 'T', 'P', '/', '1'};
    ASSERT_TRUE(wire::writeFull(Fds[1], Garbage, sizeof(Garbage)));
    wire::Frame F;
    EXPECT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Malformed);
    ::close(Fds[0]);
    ::close(Fds[1]);
  }
  // Right magic, wrong version.
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    WireWriter W;
    W.u32(wire::FrameMagic);
    W.u8(wire::ProtocolVersion + 1);
    W.u8(static_cast<uint8_t>(wire::FrameType::Hello));
    W.u8(0);
    W.u8(0);
    W.u32(0);
    ASSERT_TRUE(
        wire::writeFull(Fds[1], W.buffer().data(), W.buffer().size()));
    wire::Frame F;
    EXPECT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Malformed);
    ::close(Fds[0]);
    ::close(Fds[1]);
  }
  // Oversized length field.
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    WireWriter W;
    W.u32(wire::FrameMagic);
    W.u8(wire::ProtocolVersion);
    W.u8(static_cast<uint8_t>(wire::FrameType::Column));
    W.u8(0);
    W.u8(0);
    W.u32(wire::MaxFramePayload + 1);
    ASSERT_TRUE(
        wire::writeFull(Fds[1], W.buffer().data(), W.buffer().size()));
    wire::Frame F;
    EXPECT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Malformed);
    ::close(Fds[0]);
    ::close(Fds[1]);
  }
  // Type 3, the retired v3 job frame, is reserved: an unknown type.
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    WireWriter W;
    W.u32(wire::FrameMagic);
    W.u8(wire::ProtocolVersion);
    W.u8(3);
    W.u8(0);
    W.u8(0);
    W.u32(0);
    ASSERT_TRUE(
        wire::writeFull(Fds[1], W.buffer().data(), W.buffer().size()));
    wire::Frame F;
    std::string Why;
    EXPECT_EQ(wire::readFrame(Fds[0], F, &Why), wire::ReadStatus::Malformed);
    EXPECT_EQ(Why, "unknown frame type");
    ::close(Fds[0]);
    ::close(Fds[1]);
  }
  // Column payloads: a truncated frame, and one whose cell count
  // overruns its payload, are rejected before anything is allocated
  // for the cells they claim.
  {
    std::vector<uint8_t> Truncated = columnPayload(1);
    Truncated.resize(Truncated.size() - 3);
    EXPECT_THROW(wire::decodeColumn(columnFrame(Truncated)),
                 std::runtime_error);
    EXPECT_THROW(wire::decodeColumn(columnFrame(overrunColumnPayload())),
                 std::runtime_error);
    wire::DecodedColumn Whole =
        wire::decodeColumn(columnFrame(columnPayload(2)));
    EXPECT_EQ(Whole.BaseTag, 42u);
    EXPECT_EQ(Whole.Column.Cells.size(), 2u);
  }
  // Truncated mid-header is EOF (a torn connection, not an attack).
  {
    int Fds[2];
    ASSERT_EQ(::pipe(Fds), 0);
    const uint8_t Partial[4] = {'C', 'L', 'F', 'Z'};
    ASSERT_TRUE(wire::writeFull(Fds[1], Partial, sizeof(Partial)));
    ::close(Fds[1]);
    wire::Frame F;
    EXPECT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Eof);
    ::close(Fds[0]);
  }
}

TEST(RemoteBackendTest, WorkerSurvivesAGarbageConnection) {
  WorkerServer Server(loopbackWorker(1));
  ASSERT_TRUE(Server.start());

  // A client that speaks the wrong protocol gets dropped at the
  // handshake...
  int Fd = wire::connectTcp("127.0.0.1", Server.port(), 2000);
  ASSERT_GE(Fd, 0);
  const char Garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(wire::writeFull(Fd, Garbage, sizeof(Garbage) - 1));
  uint8_t Byte;
  EXPECT_FALSE(wire::readFull(Fd, &Byte, 1)); // worker hung up
  ::close(Fd);

  // A coordinator whose column frame is torn — truncated, or claiming
  // more cells than it carries — is dropped as malformed-payload.
  std::vector<uint8_t> Truncated = columnPayload(2);
  Truncated.resize(Truncated.size() - 5);
  for (const std::vector<uint8_t> &Bad : {Truncated, overrunColumnPayload()}) {
    testing::internal::CaptureStderr();
    Fd = wire::connectTcp("127.0.0.1", Server.port(), 2000);
    ASSERT_GE(Fd, 0);
    wire::Frame F;
    ASSERT_TRUE(wire::writeFrame(Fd, wire::FrameType::Hello,
                                 wire::encodeHello(wire::CacheGeneration)));
    ASSERT_EQ(wire::readFrame(Fd, F), wire::ReadStatus::Ok);
    ASSERT_EQ(F.Type, wire::FrameType::HelloAck);
    ASSERT_TRUE(wire::writeFrame(Fd, wire::FrameType::Column, Bad));
    EXPECT_FALSE(wire::readFull(Fd, &Byte, 1)); // worker hung up
    ::close(Fd);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "reason=malformed-payload"),
              std::string::npos);
  }

  // ...and the server still serves a well-behaved coordinator.
  GenOptions GO;
  GO.Seed = 99;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> One = {
      ExecJob::onConfig(T, Zoo[0], true, RunSettings())};

  std::unique_ptr<ExecBackend> Backend =
      makeRemoteBackend(remoteOpts({&Server}));
  std::vector<RunOutcome> Got = Backend->run(One);
  ASSERT_EQ(Got.size(), 1u);
  RunOutcome Clean = runExecJob(One[0]);
  EXPECT_EQ(Got[0].Status, Clean.Status);
  EXPECT_EQ(Got[0].OutputHash, Clean.OutputHash);
}

//===----------------------------------------------------------------------===//
// Loopback bit-identity vs inline
//===----------------------------------------------------------------------===//

TEST(RemoteBackendTest, BatchesMatchSerialReference) {
  WorkerServer W1(loopbackWorker(2)), W2(loopbackWorker(2));
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Mode = GenMode::All;
  GO.Seed = 20257;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs;
  for (const DeviceConfig &C : Zoo)
    for (bool Opt : {false, true})
      Jobs.push_back(ExecJob::onConfig(T, C, Opt, RunSettings()));
  Jobs.push_back(ExecJob::onReference(T, true, RunSettings()));

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  std::unique_ptr<ExecBackend> Remote =
      makeRemoteBackend(remoteOpts({&W1, &W2}));
  EXPECT_EQ(Remote->kind(), BackendKind::Remote);
  expectSameOutcomes(Expected, Remote->run(Jobs), "remote/2 workers");

  // A backend must survive empty batches between real ones, and stay
  // usable across batch boundaries (links are persistent).
  EXPECT_TRUE(Remote->run({}).empty());
  expectSameOutcomes(Expected, Remote->run(Jobs), "remote second batch");
}

TEST(RemoteBackendTest, ConcurrencySumsTheFleetSlots) {
  WorkerServer W1(loopbackWorker(3)), W2(loopbackWorker(2));
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());
  std::unique_ptr<ExecBackend> Remote =
      makeRemoteBackend(remoteOpts({&W1, &W2}));
  EXPECT_EQ(Remote->concurrency(), 5u);
}

TEST(RemoteBackendTest, DifferentialCampaignIdenticalToInline) {
  // Tables 1 and 4 are runDifferentialCampaign compositions; byte-for-
  // byte table equality across the network is the acceptance bar.
  WorkerServer W1(loopbackWorker(2)), W2(loopbackWorker(2));
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<GenMode> Modes = {GenMode::Barrier, GenMode::All};

  CampaignSettings S;
  S.KernelsPerMode = 4;
  S.BaseGen.MinThreads = 48;
  S.BaseGen.MaxThreads = 128;

  S.Exec = ExecOptions::withBackend(BackendKind::Inline);
  std::vector<ModeTable> Reference =
      runDifferentialCampaign(Zoo, Modes, S);
  ASSERT_FALSE(Reference.empty());

  S.Exec = remoteOpts({&W1, &W2});
  std::vector<ModeTable> Got = runDifferentialCampaign(Zoo, Modes, S);

  ASSERT_EQ(Reference.size(), Got.size());
  for (size_t I = 0; I != Reference.size(); ++I) {
    EXPECT_EQ(Reference[I].Mode, Got[I].Mode);
    EXPECT_EQ(Reference[I].NumTests, Got[I].NumTests);
    ASSERT_EQ(Reference[I].Cells.size(), Got[I].Cells.size());
    auto ItA = Reference[I].Cells.begin();
    auto ItB = Got[I].Cells.begin();
    for (; ItA != Reference[I].Cells.end(); ++ItA, ++ItB) {
      EXPECT_EQ(ItA->first.ConfigId, ItB->first.ConfigId);
      EXPECT_EQ(ItA->first.Opt, ItB->first.Opt);
      EXPECT_EQ(ItA->second.W, ItB->second.W);
      EXPECT_EQ(ItA->second.BF, ItB->second.BF);
      EXPECT_EQ(ItA->second.C, ItB->second.C);
      EXPECT_EQ(ItA->second.TO, ItB->second.TO);
      EXPECT_EQ(ItA->second.Pass, ItB->second.Pass);
    }
  }
}

TEST(RemoteBackendTest, EmiCampaignIdenticalToInline) {
  // Table 5 (EMI variants) exercises generation-side forEachIndex on
  // the calling process plus remote cell execution.
  WorkerServer W1(loopbackWorker(2)), W2(loopbackWorker(2));
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  std::vector<DeviceConfig> Zoo = {configById(Registry, 12),
                                   configById(Registry, 19)};
  EmiCampaignSettings S;
  S.NumBases = 2;
  S.Base.BaseGen.MinThreads = 48;
  S.Base.BaseGen.MaxThreads = 96;

  S.Base.Exec = ExecOptions::withBackend(BackendKind::Inline);
  unsigned ReferenceUsable = 0;
  std::vector<EmiCampaignColumn> Reference =
      runEmiCampaign(Zoo, S, ReferenceUsable);

  S.Base.Exec = remoteOpts({&W1, &W2});
  unsigned Usable = 0;
  std::vector<EmiCampaignColumn> Got = runEmiCampaign(Zoo, S, Usable);

  EXPECT_EQ(ReferenceUsable, Usable);
  ASSERT_EQ(Reference.size(), Got.size());
  for (size_t I = 0; I != Reference.size(); ++I) {
    EXPECT_EQ(Reference[I].Key.ConfigId, Got[I].Key.ConfigId);
    EXPECT_EQ(Reference[I].Key.Opt, Got[I].Key.Opt);
    EXPECT_EQ(Reference[I].BaseFails, Got[I].BaseFails);
    EXPECT_EQ(Reference[I].Wrong, Got[I].Wrong);
    EXPECT_EQ(Reference[I].InducedBF, Got[I].InducedBF);
    EXPECT_EQ(Reference[I].InducedCrash, Got[I].InducedCrash);
    EXPECT_EQ(Reference[I].InducedTimeout, Got[I].InducedTimeout);
    EXPECT_EQ(Reference[I].Stable, Got[I].Stable);
  }
}

//===----------------------------------------------------------------------===//
// Failure attribution: worker death, wedge, deadline, crash isolation
//===----------------------------------------------------------------------===//

TEST(RemoteBackendTest, WorkerDeathMidCampaignRequeuesInFlightJobs) {
  // Worker 2 self-destructs before sending its 3rd outcome — with its
  // window full of in-flight jobs. Those jobs must land on worker 1
  // and every result must still match the serial reference.
  WorkerOptions Dying = loopbackWorker(2);
  Dying.DieAfterJobs = 3;
  WorkerServer W1(loopbackWorker(2)), W2(Dying);
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 60001;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 40; ++I)
    Jobs.push_back(
        ExecJob::onConfig(T, Zoo[I % Zoo.size()], I % 2 == 0, RunSettings()));

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  std::unique_ptr<ExecBackend> Remote =
      makeRemoteBackend(remoteOpts({&W1, &W2}));
  std::vector<RunOutcome> Got = Remote->run(Jobs);

  EXPECT_TRUE(W2.died()) << "fault injection never tripped";
  EXPECT_GE(W2.jobsExecuted(), 3u);
  expectSameOutcomes(Expected, Got, "kill mid-campaign");

  // The same death mid-column. Each worker takes two whole 8-cell
  // columns; worker 4 answers 3 cells of its first, then dies. Its
  // answered cells stand and only the 13 unanswered ones are re-sent,
  // so worker 3 runs every cell but those 3. One slot per worker
  // keeps that count exact.
  WorkerOptions DyingOne = loopbackWorker(1);
  DyingOne.DieAfterJobs = 4;
  WorkerServer W3(loopbackWorker(1)), W4(DyingOne);
  ASSERT_TRUE(W3.start());
  ASSERT_TRUE(W4.start());
  std::vector<TestCase> Tests;
  for (int C = 0; C != 6; ++C) {
    GenOptions CG;
    CG.Seed = 60100 + C;
    Tests.push_back(TestCase::fromGenerated(generateKernel(CG)));
  }
  std::vector<ExecColumn> Cols(Tests.size());
  for (size_t C = 0; C != Tests.size(); ++C)
    for (int I = 0; I != 8; ++I)
      Cols[C].Jobs.push_back(ExecJob::onConfig(
          Tests[C], Zoo[I % Zoo.size()], I % 2 == 0, RunSettings()));

  std::unique_ptr<ExecBackend> ColumnFleet =
      makeRemoteBackend(remoteOpts({&W3, &W4}));
  std::vector<RunOutcome> GotCols = ColumnFleet->runColumns(Cols);
  EXPECT_TRUE(W4.died()) << "fault injection never tripped";
  expectSameOutcomes(Reference.runColumns(Cols), GotCols, "kill mid-column");
  EXPECT_EQ(W3.jobsExecuted(), 48u - 3u) << "an answered cell was re-sent";
  // Its first column is one execution; its second, queued behind it,
  // is the coordinator's to requeue once the server is dead.
  EXPECT_LE(W4.jobsExecuted(), 8u) << "a dead worker ran a queued column";
}

TEST(RemoteBackendTest, WedgedWorkerIsEvictedByHeartbeat) {
  // Worker 2 completes the handshake, then swallows every job and
  // heartbeat — the wedged-machine model. Only the missed heartbeat
  // can unmask it; its jobs must requeue onto worker 1.
  WorkerOptions Wedged = loopbackWorker(1);
  Wedged.IgnoreJobs = true;
  WorkerServer W1(loopbackWorker(2)), W2(Wedged);
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 777;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 12; ++I)
    Jobs.push_back(ExecJob::onConfig(T, Zoo[I % Zoo.size()], true,
                                     RunSettings()));

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  std::unique_ptr<ExecBackend> Remote =
      makeRemoteBackend(remoteOpts({&W1, &W2}, /*HeartbeatMs=*/200));
  expectSameOutcomes(Expected, Remote->run(Jobs), "wedged worker");
}

TEST(RemoteBackendTest, DeadlineExpiryRecordsATimeoutOutcome) {
  // A lone wedged worker with a per-job deadline: the job is requeued
  // once (onto the same endpoint after reconnect — nothing else
  // exists) and recorded as Timeout on the second expiry. The
  // campaign ends with an attributed outcome, not a hang.
  WorkerOptions Wedged = loopbackWorker(1);
  Wedged.IgnoreJobs = true;
  WorkerServer W(Wedged);
  ASSERT_TRUE(W.start());

  GenOptions GO;
  GO.Seed = 4242;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> One = {
      ExecJob::onConfig(T, Zoo[0], true, RunSettings())};

  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(
      remoteOpts({&W}, /*HeartbeatMs=*/0, /*TimeoutMs=*/200));
  std::vector<RunOutcome> Got = Remote->run(One);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Status, RunStatus::Timeout);
  EXPECT_NE(Got[0].Message.find("remote job deadline"), std::string::npos)
      << Got[0].Message;
}

TEST(RemoteBackendTest, CrashIsolationMatchesProcsExactly) {
  // A hard-aborting job kills the worker's *local subprocess slot*,
  // not the worker and not the campaign — and because workers run
  // jobs through the same single-slot process pools, the crash
  // outcome message is byte-identical to --backend=procs.
  WorkerServer W1(loopbackWorker(2));
  ASSERT_TRUE(W1.start());

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 4242;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs;
  for (int I = 0; I != 4; ++I)
    Jobs.push_back(ExecJob::onConfig(T, Zoo[0], true, RunSettings()));
  Jobs[1].Settings.DebugHardAbort = true;

  std::unique_ptr<ExecBackend> Procs =
      makeBackend(ExecOptions::withBackend(BackendKind::Procs, 2));
  std::vector<RunOutcome> Expected = Procs->run(Jobs);

  std::unique_ptr<ExecBackend> Remote =
      makeRemoteBackend(remoteOpts({&W1}));
  std::vector<RunOutcome> Got = Remote->run(Jobs);
  ASSERT_EQ(Got.size(), 4u);
  EXPECT_EQ(Got[1].Status, RunStatus::Crash);
  EXPECT_EQ(Got[1].Message, Expected[1].Message);
  for (size_t I : {size_t(0), size_t(2), size_t(3)}) {
    EXPECT_EQ(Got[I].Status, Expected[I].Status) << "job " << I;
    EXPECT_EQ(Got[I].OutputHash, Expected[I].OutputHash) << "job " << I;
  }
}

TEST(RemoteBackendTest, UnreachableFleetThrowsInsteadOfHanging) {
  // Nobody listens on this port (we bind it, learn it, and close it).
  unsigned DeadPort = 0;
  int Fd = wire::listenTcp("127.0.0.1", 0, DeadPort);
  ASSERT_GE(Fd, 0);
  ::close(Fd);

  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.RemoteWorkers = {"127.0.0.1:" + std::to_string(DeadPort)};
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);

  GenOptions GO;
  GO.Seed = 1;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> One = {ExecJob::onReference(T, true, RunSettings())};
  EXPECT_THROW(Remote->run(One), std::runtime_error);
}

TEST(RemoteBackendTest, RestartedWorkerRejoinsAtTheNextBatch) {
  // Batch 1 runs against a worker which then restarts (new server,
  // same port). Batch 2 must re-dial and complete — the coordinator
  // survives a full fleet bounce between batches.
  auto Server = std::make_unique<WorkerServer>(loopbackWorker(2));
  ASSERT_TRUE(Server->start());
  unsigned Port = Server->port();

  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.RemoteWorkers = {"127.0.0.1:" + std::to_string(Port)};
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);

  GenOptions GO;
  GO.Seed = 555;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<DeviceConfig> Zoo = smallZoo();
  std::vector<ExecJob> Jobs = {
      ExecJob::onConfig(T, Zoo[0], true, RunSettings()),
      ExecJob::onConfig(T, Zoo[1], false, RunSettings())};
  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  expectSameOutcomes(Expected, Remote->run(Jobs), "before restart");

  Server->stop();
  WorkerOptions Reborn = loopbackWorker(2);
  Reborn.Port = Port;
  Server = std::make_unique<WorkerServer>(Reborn);
  ASSERT_TRUE(Server->start());
  ASSERT_EQ(Server->port(), Port);

  expectSameOutcomes(Expected, Remote->run(Jobs), "after restart");
}

//===----------------------------------------------------------------------===//
// Elastic fleet: rendezvous joins, drain, flap, stale generations
//===----------------------------------------------------------------------===//

TEST(RemoteBackendTest, JoinFramesRoundTripAndNameTheirFailure) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::Join,
                               wire::encodeJoin(7, 3)));
  wire::Frame F;
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  ASSERT_EQ(F.Type, wire::FrameType::Join);
  wire::DecodedJoin J = wire::decodeJoin(F);
  EXPECT_EQ(J.CacheGen, 7u);
  EXPECT_EQ(J.Concurrency, 3u);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::JoinAck,
                               wire::encodeJoinAck(false, 9)));
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  ASSERT_EQ(F.Type, wire::FrameType::JoinAck);
  wire::DecodedJoinAck Ack = wire::decodeJoinAck(F);
  EXPECT_FALSE(Ack.Accepted);
  EXPECT_EQ(Ack.CacheGen, 9u);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::FrameType::Leave,
                               wire::encodeLeave()));
  ASSERT_EQ(wire::readFrame(Fds[0], F), wire::ReadStatus::Ok);
  EXPECT_EQ(F.Type, wire::FrameType::Leave);
  EXPECT_TRUE(F.Payload.empty());

  // readFrame's Why out-param names the failed header check — that
  // string picks the structured drop-reason slug.
  WireWriter W;
  W.u32(wire::FrameMagic);
  W.u8(wire::ProtocolVersion + 1);
  W.u8(static_cast<uint8_t>(wire::FrameType::Join));
  W.u8(0);
  W.u8(0);
  W.u32(0);
  ASSERT_TRUE(wire::writeFull(Fds[1], W.buffer().data(), W.buffer().size()));
  std::string Why;
  EXPECT_EQ(wire::readFrame(Fds[0], F, &Why), wire::ReadStatus::Malformed);
  EXPECT_EQ(Why, "version mismatch");

  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(RemoteBackendTest, RendezvousOnlyFleetMatchesInline) {
  // A fleet built from nothing but joins: no --workers at all, two
  // rendezvous workers dial the registry, and the campaign output is
  // byte-identical to inline.
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);
  WorkerServer W1(rendezvousWorker(R->port(), 2));
  WorkerServer W2(rendezvousWorker(R->port(), 2));
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());
  ASSERT_TRUE(waitUntil(
      [&] { return W1.joinsCompleted() == 1 && W2.joinsCompleted() == 1; },
      3000));

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81001;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 40);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.Fleet = R;
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);
  std::vector<RunOutcome> Got = Remote->run(Jobs);
  expectSameOutcomes(Expected, Got, "rendezvous-only fleet");
  EXPECT_GT(W1.jobsExecuted() + W2.jobsExecuted(), 0u);
  // Once adopted, joined slots count toward the fleet's concurrency.
  EXPECT_EQ(Remote->concurrency(), 4u);
}

TEST(RemoteBackendTest, EveryFleetSocketHasNagleOff) {
  // A unit is answered by one small frame per cell; with Nagle on at
  // either end, each frame after the first waits for the peer's
  // delayed ACK. So all four ends must have TCP_NODELAY: coordinator
  // dial and worker accept (listen mode), worker dial and registry
  // accept (rendezvous mode). Both fleets live in this process, so
  // every end is one of its descriptors.
  WorkerServer Listening(loopbackWorker(2));
  ASSERT_TRUE(Listening.start());
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);
  WorkerServer Joined(rendezvousWorker(R->port(), 2));
  ASSERT_TRUE(Joined.start());
  ASSERT_TRUE(waitUntil([&] { return Joined.joinsCompleted() == 1; }, 3000));

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81003;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 8);
  std::vector<RunOutcome> Expected = InlineBackend().run(Jobs);

  std::unique_ptr<ExecBackend> ListenFleet =
      makeRemoteBackend(remoteOpts({&Listening}));
  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.Fleet = R;
  std::unique_ptr<ExecBackend> RendezvousFleet = makeRemoteBackend(O);
  expectSameOutcomes(Expected, ListenFleet->run(Jobs), "listen mode");
  expectSameOutcomes(Expected, RendezvousFleet->run(Jobs), "rendezvous");

  std::vector<std::pair<int, int>> Socks = connectedTcpSockets();
  EXPECT_GE(Socks.size(), 4u) << "both ends of both fleet connections";
  for (const auto &[Fd, NoDelay] : Socks)
    EXPECT_EQ(NoDelay, 1) << "fd " << Fd << " has Nagle on";
}

TEST(RemoteBackendTest, WorkerJoiningMidCampaignReceivesJobs) {
  // The campaign starts on one static single-slot worker; a
  // rendezvous worker joins shortly after the batch is dispatched and
  // must be adopted at a dispatch boundary and pull real jobs.
  WorkerServer Static(loopbackWorker(1));
  ASSERT_TRUE(Static.start());
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81002;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 200);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  ExecOptions O = remoteOpts({&Static});
  O.Fleet = R;
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);

  WorkerServer Late(rendezvousWorker(R->port(), 2));
  std::thread Joiner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(Late.start());
  });
  std::vector<RunOutcome> Got = Remote->run(Jobs);
  Joiner.join();

  expectSameOutcomes(Expected, Got, "mid-campaign join");
  EXPECT_GE(Late.joinsCompleted(), 1u);
  EXPECT_GT(Late.jobsExecuted(), 0u)
      << "the joined worker never received a job";
}

TEST(RemoteBackendTest, DrainingWorkerFinishesItsWindowWithZeroRequeues) {
  // A graceful leave: the draining worker announces it, finishes its
  // in-flight window, and hands the rest of the campaign back — no
  // job is requeued, nothing is lost, output is byte-identical.
  WorkerServer Static(loopbackWorker(2));
  ASSERT_TRUE(Static.start());
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);
  WorkerOptions DO = rendezvousWorker(R->port(), 2);
  DO.DrainAfterJobs = 6;
  WorkerServer Draining(DO);
  ASSERT_TRUE(Draining.start());
  ASSERT_TRUE(waitUntil([&] { return Draining.joinsCompleted() == 1; }, 3000));

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81003;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 60);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  ExecOptions O = remoteOpts({&Static});
  O.Fleet = R;
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);
  FleetCounters F0 = fleetCounters();
  std::vector<RunOutcome> Got = Remote->run(Jobs);
  FleetCounters F1 = fleetCounters();

  expectSameOutcomes(Expected, Got, "draining worker");
  EXPECT_TRUE(waitUntil([&] { return Draining.drained(); }, 3000))
      << "the drain never completed";
  EXPECT_EQ(F1.Requeues - F0.Requeues, 0u)
      << "a graceful drain must not requeue anything";
  EXPECT_EQ(F1.Leaves - F0.Leaves, 1u);
  EXPECT_EQ(F1.Joins - F0.Joins, 1u);
}

TEST(RemoteBackendTest, FlappingWorkerNeverCorruptsReassembly) {
  // A worker cycling die/redial: each flap kills its in-flight window
  // (requeued, completed elsewhere or on the rejoined link before the
  // next flap), and submission-index reassembly keeps the output
  // byte-identical to inline. FlapAfterJobs (9) is above the in-flight
  // window (2 x 2 slots) — the constraint WorkerOptions documents.
  WorkerServer Static(loopbackWorker(2));
  ASSERT_TRUE(Static.start());
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);
  WorkerOptions FO = rendezvousWorker(R->port(), 2);
  FO.FlapAfterJobs = 9;
  WorkerServer Flapper(FO);
  ASSERT_TRUE(Flapper.start());
  ASSERT_TRUE(waitUntil([&] { return Flapper.joinsCompleted() == 1; }, 3000));

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81004;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 80);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  ExecOptions O = remoteOpts({&Static});
  O.Fleet = R;
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);
  FleetCounters F0 = fleetCounters();
  std::vector<RunOutcome> Got = Remote->run(Jobs);
  FleetCounters F1 = fleetCounters();

  expectSameOutcomes(Expected, Got, "flapping worker");
  EXPECT_GE(F1.Evictions - F0.Evictions, 1u)
      << "the flap was never observed by the coordinator";
  EXPECT_GE(Flapper.joinsCompleted(), 2u)
      << "the flapper never redialled";
}

TEST(RemoteBackendTest, StaleGenerationJoinIsRejectedThenAccepted) {
  // A worker announcing a stale cache generation is refused at the
  // registry (join-ack accepted=0, with the current generation), and
  // its redial with the corrected generation is accepted — the
  // campaign then runs normally on it.
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);
  WorkerOptions SO = rendezvousWorker(R->port(), 2);
  SO.StaleJoins = 1;
  WorkerServer W(SO);
  ASSERT_TRUE(W.start());
  ASSERT_TRUE(waitUntil([&] { return W.joinsCompleted() == 1; }, 5000))
      << "the corrected rejoin never landed";
  EXPECT_EQ(R->joinsRejected(), 1u);
  EXPECT_EQ(R->joinsAccepted(), 1u);

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81005;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 8);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  ExecOptions O;
  O.Backend = BackendKind::Remote;
  O.Fleet = R;
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);
  expectSameOutcomes(Expected, Remote->run(Jobs), "post-stale rejoin");
}

TEST(RemoteBackendTest, ChurnScheduleMatchesInline) {
  // The acceptance scenario: a campaign that starts on one static
  // worker, gains two rendezvous joiners mid-run, loses one to
  // DieAfterJobs and the other to a graceful drain — and still
  // produces byte-identical output.
  WorkerServer Static(loopbackWorker(1));
  ASSERT_TRUE(Static.start());
  std::shared_ptr<FleetRegistry> R = makeFleetRegistry("127.0.0.1", 0);

  std::vector<DeviceConfig> Zoo = smallZoo();
  GenOptions GO;
  GO.Seed = 81006;
  TestCase T = TestCase::fromGenerated(generateKernel(GO));
  std::vector<ExecJob> Jobs = churnBatch(T, Zoo, 200);

  InlineBackend Reference;
  std::vector<RunOutcome> Expected = Reference.run(Jobs);

  WorkerOptions DieOpts = rendezvousWorker(R->port(), 2);
  DieOpts.DieAfterJobs = 7;
  WorkerOptions DrainOpts = rendezvousWorker(R->port(), 2);
  DrainOpts.DrainAfterJobs = 9;
  WorkerServer Dying(DieOpts), Draining(DrainOpts);
  std::thread Joiner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(Dying.start());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(Draining.start());
  });

  ExecOptions O = remoteOpts({&Static});
  O.Fleet = R;
  std::unique_ptr<ExecBackend> Remote = makeRemoteBackend(O);
  FleetCounters F0 = fleetCounters();
  std::vector<RunOutcome> Got = Remote->run(Jobs);
  FleetCounters F1 = fleetCounters();
  Joiner.join();

  expectSameOutcomes(Expected, Got, "churn schedule");
  EXPECT_GE(F1.Joins - F0.Joins, 2u);
  EXPECT_TRUE(Dying.died());
  EXPECT_GE(F1.Evictions - F0.Evictions, 1u);
}

//===----------------------------------------------------------------------===//
// Remote reduction (the ReductionQueue farm-out path)
//===----------------------------------------------------------------------===//

TEST(RemoteBackendTest, ReductionOverRemoteMatchesInline) {
  // reduceTest schedules candidate probes on its ExecOptions backend;
  // pointing that at the fleet must not change the reduced kernel,
  // the stats, or anything else — this is what lets `hunt --reduce
  // --reduce-backend=remote` farm witness shrinking off-machine.
  WorkerServer W1(loopbackWorker(2)), W2(loopbackWorker(2));
  ASSERT_TRUE(W1.start());
  ASSERT_TRUE(W2.start());

  GenOptions GO;
  GO.Mode = GenMode::Basic;
  GO.Seed = 1029;
  TestCase Witness = TestCase::fromGenerated(generateKernel(GO));
  std::vector<DeviceConfig> Registry = buildConfigRegistry();
  DifferentialReductionOracle Oracle(configById(Registry, 19),
                                     /*Opt=*/false);

  ReducerOptions Serial;
  Serial.Exec = ExecOptions::withBackend(BackendKind::Inline);
  ReduceStats SerialStats;
  TestCase SerialReduced =
      reduceTest(Witness, Oracle, Serial, &SerialStats);
  ASSERT_TRUE(SerialStats.WitnessWasInteresting);

  ReducerOptions RemoteRO;
  RemoteRO.Exec = remoteOpts({&W1, &W2});
  ReduceStats RemoteStats;
  TestCase RemoteReduced =
      reduceTest(Witness, Oracle, RemoteRO, &RemoteStats);

  EXPECT_EQ(SerialReduced.Source, RemoteReduced.Source);
  EXPECT_EQ(SerialStats.InitialLines, RemoteStats.InitialLines);
  EXPECT_EQ(SerialStats.FinalLines, RemoteStats.FinalLines);
  EXPECT_EQ(SerialStats.CandidatesTried, RemoteStats.CandidatesTried);
  EXPECT_EQ(SerialStats.CandidatesKept, RemoteStats.CandidatesKept);
  EXPECT_EQ(SerialStats.Rounds, RemoteStats.Rounds);
}

#else // platform without POSIX sockets: nothing to test.

TEST(RemoteBackendTest, SkippedWithoutSockets) { GTEST_SKIP(); }

#endif
