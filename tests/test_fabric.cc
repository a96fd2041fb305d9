// Fabric tests: frame codec round-trips and hostile-input decode (truncated,
// oversized, bad magic, CRC mismatch, version mismatch), message payload
// codecs with untrusted counts, endpoint parsing, and live worker/client
// integration — remote-vs-local bit-for-bit parity, hostile frames against a
// live worker (disconnect + counted, never a crash), universe-checksum
// handshake rejection, the heartbeat-driven breaker-open bound, and the
// reconnect -> half-open probe -> closed cycle. The FabricSoak suite
// (connect/disconnect churn while workers restart) carries the "stress"
// ctest label and runs under TSan in CI.

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apk/apk.h"
#include "core/model_store.h"
#include "core/study.h"
#include "fabric/backend.h"
#include "fabric/messages.h"
#include "fabric/remote_client.h"
#include "fabric/transport.h"
#include "fabric/wire.h"
#include "fabric/worker.h"
#include "ingest/apk_blob.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "serve/farm_pool.h"
#include "serve/serving_model.h"
#include "synth/corpus.h"
#include "util/byte_io.h"
#include "util/crc32.h"

namespace apichecker::fabric {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

core::ApiChecker TrainedChecker() {
  static const std::vector<uint8_t> blob = [] {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(TestUniverse(), corpus_config);
    core::StudyConfig study_config;
    study_config.num_apps = 1'000;
    const core::StudyDataset study =
        core::RunStudy(TestUniverse(), generator, study_config);
    core::ApiChecker checker(TestUniverse(), {});
    checker.TrainFromStudy(study);
    return core::SerializeChecker(checker);
  }();
  auto checker = core::DeserializeChecker(TestUniverse(), blob);
  EXPECT_TRUE(checker.ok());
  return std::move(*checker);
}

std::shared_ptr<const serve::ModelSnapshot> Snapshot() {
  return std::make_shared<const serve::ModelSnapshot>(1, TrainedChecker());
}

std::vector<apk::ApkFile> MakeApks(uint64_t seed, size_t count = 1) {
  synth::CorpusConfig config;
  config.seed = seed;
  config.update_fraction = 0.0;
  synth::CorpusGenerator generator(TestUniverse(), config);
  std::vector<apk::ApkFile> apks;
  for (size_t i = 0; i < count; ++i) {
    auto parsed =
        apk::ParseApk(synth::BuildApkBytes(generator.Next(), TestUniverse()));
    EXPECT_TRUE(parsed.ok());
    apks.push_back(std::move(*parsed));
  }
  return apks;
}

// Fresh unix-socket path per call, under the system temp dir (socket paths
// have a ~100-char limit, so no deep scratch trees).
std::string ScratchSocket() {
  static std::atomic<uint64_t> counter{0};
  return (fs::temp_directory_path() /
          ("apichecker_fab_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock"))
      .string();
}

emu::FarmConfig SmallFarm() {
  emu::FarmConfig farm;
  farm.num_emulators = 2;
  return farm;
}

std::unique_ptr<FarmWorker> StartWorker(const std::string& socket_path,
                                        uint32_t worker_id = 0) {
  FarmWorkerConfig config;
  config.endpoint = "unix:" + socket_path;
  config.farm = SmallFarm();
  config.farm.farm_id = worker_id;
  config.worker_id = worker_id;
  auto worker = std::make_unique<FarmWorker>(TestUniverse(), config);
  auto started = worker->Start();
  EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error());
  return worker;
}

RemoteClientConfig FastClient(const std::string& socket_path) {
  RemoteClientConfig config;
  config.endpoint = "unix:" + socket_path;
  config.connect_timeout = milliseconds(500);
  config.rpc_timeout = milliseconds(10'000);
  config.heartbeat_interval = milliseconds(100);
  config.heartbeat_miss_threshold = 1;
  config.reconnect_backoff_min = milliseconds(20);
  config.reconnect_backoff_max = milliseconds(100);
  return config;
}

double CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().counter(name).value();
}

// The monitor thread connects asynchronously; batch-path tests wait for the
// first handshake instead of racing it.
bool WaitConnected(const RemoteFarmClient& client,
                   milliseconds deadline = milliseconds(5000)) {
  const auto start = steady_clock::now();
  while (steady_clock::now() - start < deadline) {
    if (client.connected()) {
      return true;
    }
    std::this_thread::sleep_for(milliseconds(2));
  }
  return client.connected();
}

// ---------------------------------------------------------------- wire codec

TEST(Wire, FrameRoundTripsEveryType) {
  for (MsgType type : {MsgType::kHello, MsgType::kHelloAck, MsgType::kPing,
                       MsgType::kPong, MsgType::kSetModel, MsgType::kSetModelAck,
                       MsgType::kRunBatch, MsgType::kBatchResult, MsgType::kError}) {
    const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    const std::vector<uint8_t> bytes = EncodeFrame(type, payload);
    EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
    const DecodeResult decoded = DecodeFrame(bytes);
    ASSERT_EQ(decoded.status, DecodeStatus::kOk) << MsgTypeName(type);
    EXPECT_EQ(decoded.frame.type, type);
    EXPECT_EQ(decoded.frame.version, kProtocolVersion);
    EXPECT_EQ(decoded.frame.payload, payload);
    EXPECT_EQ(decoded.consumed, bytes.size());
  }
  // Empty payload is legal (kPong travels empty).
  const std::vector<uint8_t> empty = EncodeFrame(MsgType::kPong, std::vector<uint8_t>{});
  EXPECT_EQ(DecodeFrame(empty).status, DecodeStatus::kOk);
}

TEST(Wire, TruncatedHeaderAndBody) {
  const std::vector<uint8_t> bytes = EncodeFrame(MsgType::kPing, std::vector<uint8_t>{9, 9, 9});
  for (size_t len = 0; len < bytes.size(); ++len) {
    const DecodeResult decoded =
        DecodeFrame(std::span<const uint8_t>(bytes.data(), len));
    EXPECT_EQ(decoded.status, DecodeStatus::kTruncated) << "prefix " << len;
  }
}

TEST(Wire, BadMagicDetected) {
  std::vector<uint8_t> bytes = EncodeFrame(MsgType::kPing, std::vector<uint8_t>{1});
  bytes[0] ^= 0xFF;
  EXPECT_EQ(DecodeFrame(bytes).status, DecodeStatus::kBadMagic);
}

TEST(Wire, OversizedLengthRejectedBeforeAllocation) {
  // A header declaring a 4 GiB payload with almost no bytes behind it: the
  // decoder must classify by the declared length, not attempt to buffer it.
  util::ByteWriter writer;
  writer.PutU32(kFrameMagic);
  writer.PutU16(kProtocolVersion);
  writer.PutU16(static_cast<uint16_t>(MsgType::kRunBatch));
  writer.PutU32(0xFFFF'FFF0u);
  const std::vector<uint8_t> bytes = writer.TakeBytes();
  EXPECT_EQ(DecodeFrame(bytes).status, DecodeStatus::kOversized);
}

TEST(Wire, CrcMismatchDetected) {
  std::vector<uint8_t> bytes = EncodeFrame(MsgType::kSetModel, std::vector<uint8_t>{7, 7, 7, 7});
  bytes[kFrameHeaderBytes + 1] ^= 0x01;  // Flip one payload bit.
  EXPECT_EQ(DecodeFrame(bytes).status, DecodeStatus::kCrcMismatch);
}

// Re-signs a frame after mutating header fields, so the CRC is valid and the
// decoder's version check (not the CRC check) is what fires.
std::vector<uint8_t> ResignFrame(std::vector<uint8_t> bytes) {
  uint32_t crc = util::Crc32Init();
  crc = util::Crc32Update(crc, std::span<const uint8_t>(
                                   bytes.data() + 4,
                                   bytes.size() - 4 - kFrameTrailerBytes));
  crc = util::Crc32Final(crc);
  std::memcpy(bytes.data() + bytes.size() - kFrameTrailerBytes, &crc, 4);
  return bytes;
}

TEST(Wire, VersionMismatchDetectedOnIntactFrame) {
  std::vector<uint8_t> bytes = EncodeFrame(MsgType::kPing, std::vector<uint8_t>{1, 2});
  const uint16_t alien = 0x7F7F;
  std::memcpy(bytes.data() + 4, &alien, 2);
  EXPECT_EQ(DecodeFrame(ResignFrame(std::move(bytes))).status,
            DecodeStatus::kBadVersion);
}

TEST(Wire, ProtocolErrorCounterLabelsByKind) {
  const double before = CounterValue(obs::names::kFabricProtocolErrorsTotal);
  CountProtocolError(DecodeStatus::kBadMagic);
  CountProtocolError(DecodeStatus::kCrcMismatch);
  EXPECT_EQ(CounterValue(obs::names::kFabricProtocolErrorsTotal), before + 2);
}

// ------------------------------------------------------------- message codecs

TEST(Messages, HelloAndAckRoundTrip) {
  Hello hello;
  hello.channel = Channel::kHeartbeat;
  hello.farm_id = 7;
  hello.universe_checksum = 0xDEADBEEFCAFEF00Dull;
  hello.client_name = "front-end";
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->channel, Channel::kHeartbeat);
  EXPECT_EQ(decoded->farm_id, 7u);
  EXPECT_EQ(decoded->universe_checksum, hello.universe_checksum);
  EXPECT_EQ(decoded->client_name, "front-end");

  HelloAck ack;
  ack.worker_id = 3;
  ack.pid = 4242;
  ack.universe_checksum = hello.universe_checksum;
  auto ack_decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(ack_decoded.ok());
  EXPECT_EQ(ack_decoded->worker_id, 3u);
  EXPECT_EQ(ack_decoded->pid, 4242u);
}

TEST(Messages, BatchResultRoundTripsEveryReportField) {
  emu::BatchResult result;
  result.makespan_minutes = 12.5;
  result.total_emulation_minutes = 40.25;
  result.crashes = 2;
  result.fallbacks = 1;
  emu::EmulationReport report;
  report.observed_apis = {10, 20, 30};
  report.observed_api_counts = {1, 2, 3};
  report.requested_permissions = {"CAMERA", "SEND_SMS"};
  report.manifest_intent_filters = {"MAIN"};
  report.total_invocations = 123;
  report.tracked_invocations = 45;
  report.emulation_minutes = 3.5;
  report.rac = 0.75;
  report.distinct_apis_invoked = 3;
  report.emulator_detected = true;
  report.crashed = false;
  report.retried = true;
  report.fell_back = false;
  result.reports.push_back(report);

  auto decoded = DecodeBatchResult(EncodeBatchResult(result));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->reports.size(), 1u);
  const emu::EmulationReport& got = decoded->reports[0];
  EXPECT_EQ(got.observed_apis, report.observed_apis);
  EXPECT_EQ(got.observed_api_counts, report.observed_api_counts);
  EXPECT_EQ(got.requested_permissions, report.requested_permissions);
  EXPECT_EQ(got.total_invocations, 123u);
  EXPECT_EQ(got.tracked_invocations, 45u);
  EXPECT_EQ(got.emulation_minutes, 3.5);
  EXPECT_EQ(got.rac, 0.75);
  EXPECT_TRUE(got.emulator_detected);
  EXPECT_TRUE(got.retried);
  EXPECT_FALSE(got.fell_back);
  EXPECT_EQ(decoded->makespan_minutes, 12.5);
  EXPECT_EQ(decoded->crashes, 2u);
  // Round-trip stability: encode(decode(x)) == encode(x) is the bit-for-bit
  // contract remote parity rests on.
  EXPECT_EQ(EncodeBatchResult(*decoded), EncodeBatchResult(result));
}

TEST(Messages, HostileElementCountRejectedWithoutAllocation) {
  // A RunBatch payload claiming ~500M APKs backed by 4 bytes: the decoder
  // must reject on "count exceeds remaining bytes", not reserve gigabytes.
  util::ByteWriter writer;
  writer.PutU32(1);              // model_version
  writer.PutUleb128(500'000'000);  // apk count
  writer.PutU32(0);
  auto decoded = DecodeRunBatch(writer.TakeBytes());
  EXPECT_FALSE(decoded.ok());

  // Same attack one level down: a blob length larger than the payload.
  util::ByteWriter inner;
  inner.PutU32(1);
  inner.PutUleb128(1);
  inner.PutUleb128(0xFFFF'FFFFu);  // blob length
  inner.PutU8(0);
  EXPECT_FALSE(DecodeRunBatch(inner.TakeBytes()).ok());
}

TEST(Endpoint, ParseVariants) {
  auto unix_ep = ParseEndpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_ep.ok());
  EXPECT_EQ(unix_ep->kind, EndpointKind::kUnix);
  EXPECT_EQ(unix_ep->path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep->ToString(), "unix:/tmp/x.sock");

  auto tcp_ep = ParseEndpoint("tcp:127.0.0.1:9021");
  ASSERT_TRUE(tcp_ep.ok());
  EXPECT_EQ(tcp_ep->kind, EndpointKind::kTcp);
  EXPECT_EQ(tcp_ep->host, "127.0.0.1");
  EXPECT_EQ(tcp_ep->port, 9021);

  EXPECT_FALSE(ParseEndpoint("").ok());
  EXPECT_FALSE(ParseEndpoint("carrier-pigeon:coop").ok());
  EXPECT_FALSE(ParseEndpoint("tcp:no-port").ok());
  EXPECT_FALSE(ParseEndpoint("tcp:host:99999").ok());
  EXPECT_FALSE(ParseEndpoint("unix:").ok());
}

// ------------------------------------------------------- live worker + client

TEST(FabricWorker, RemoteBatchMatchesLocalBitForBit) {
  const std::string socket_path = ScratchSocket();
  auto worker = StartWorker(socket_path);
  auto snapshot = Snapshot();
  const std::vector<apk::ApkFile> apks = MakeApks(11, 3);

  LocalFarmBackend local(TestUniverse(), SmallFarm());
  const emu::BatchResult local_result = local.ExecuteBatch(
      apks, snapshot->version, snapshot->checker, snapshot->tracked);
  ASSERT_FALSE(local_result.farm_fault);

  RemoteFarmClient remote(TestUniverse(), FastClient(socket_path));
  ASSERT_TRUE(WaitConnected(remote));
  const emu::BatchResult remote_result = remote.ExecuteBatch(
      apks, snapshot->version, snapshot->checker, snapshot->tracked);
  ASSERT_FALSE(remote_result.farm_fault) << remote_result.fault_reason;
  EXPECT_GT(remote.last_rpc_ms(), 0.0);
  EXPECT_EQ(local.last_rpc_ms(), 0.0);

  // The worker re-parsed the APKs from rebuilt container bytes, restored the
  // model from its serialized blob, and ran the same deterministic farm — the
  // whole result must serialize identically to the in-process run.
  EXPECT_EQ(EncodeBatchResult(remote_result), EncodeBatchResult(local_result));

  // A second batch on the same connection skips the model re-sync.
  const double syncs = CounterValue(obs::names::kFabricModelSyncsTotal);
  const emu::BatchResult again = remote.ExecuteBatch(
      apks, snapshot->version, snapshot->checker, snapshot->tracked);
  ASSERT_FALSE(again.farm_fault);
  EXPECT_EQ(CounterValue(obs::names::kFabricModelSyncsTotal), syncs);

  remote.StopMonitor();
  worker->Stop();
  fs::remove(socket_path);
}

// Sends raw bytes on the wire, bypassing the frame codec.
void SendRaw(const Socket& socket, std::span<const uint8_t> bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(socket.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return;  // Worker already dropped us — the test asserts via RecvFrame.
    }
    sent += static_cast<size_t>(n);
  }
}

TEST(FabricWorker, HostileFramesDisconnectAndCountNeverCrash) {
  const std::string socket_path = ScratchSocket();
  auto worker = StartWorker(socket_path);
  const Endpoint endpoint = *ParseEndpoint("unix:" + socket_path);

  // Each hostile payload on a fresh connection: the worker must drop the
  // connection (our next read fails), count a protocol error, and keep
  // serving new connections.
  std::vector<uint8_t> bad_magic(32, 0x58);  // "XXXX..." — never a frame.
  std::vector<uint8_t> oversized;
  {
    util::ByteWriter writer;
    writer.PutU32(kFrameMagic);
    writer.PutU16(kProtocolVersion);
    writer.PutU16(static_cast<uint16_t>(MsgType::kRunBatch));
    writer.PutU32(0xFFFF'FF00u);  // Declared length far beyond the cap.
    oversized = writer.TakeBytes();
  }
  std::vector<uint8_t> crc_mismatch = EncodeFrame(MsgType::kPing, std::vector<uint8_t>{1, 2, 3});
  crc_mismatch[kFrameHeaderBytes] ^= 0xFF;
  std::vector<uint8_t> bad_version = EncodeFrame(MsgType::kPing, std::vector<uint8_t>{1, 2, 3});
  {
    const uint16_t alien = 0x2222;
    std::memcpy(bad_version.data() + 4, &alien, 2);
    bad_version = ResignFrame(std::move(bad_version));
  }

  const double errors_before = CounterValue(obs::names::kFabricProtocolErrorsTotal);
  size_t hostile_sent = 0;
  for (const std::vector<uint8_t>* hostile :
       {&bad_magic, &oversized, &crc_mismatch, &bad_version}) {
    auto socket = Socket::Connect(endpoint, milliseconds(1000));
    ASSERT_TRUE(socket.ok());
    socket->SetRecvTimeout(milliseconds(2000));
    SendRaw(*socket, *hostile);
    ++hostile_sent;
    // The worker never answers a hostile frame; it just severs the link.
    auto reply = socket->RecvFrame();
    EXPECT_FALSE(reply.ok());
  }
  EXPECT_GE(CounterValue(obs::names::kFabricProtocolErrorsTotal),
            errors_before + hostile_sent);

  // A half-frame followed by disconnect (client death mid-send) must also be
  // harmless — it surfaces as a truncated read, not a protocol error loop.
  {
    auto socket = Socket::Connect(endpoint, milliseconds(1000));
    ASSERT_TRUE(socket.ok());
    const std::vector<uint8_t> good = EncodeFrame(MsgType::kPing, std::vector<uint8_t>{1});
    SendRaw(*socket, std::span<const uint8_t>(good.data(), 5));
  }

  // The worker survived all of it: a well-formed handshake still succeeds.
  auto socket = Socket::Connect(endpoint, milliseconds(1000));
  ASSERT_TRUE(socket.ok());
  socket->SetRecvTimeout(milliseconds(2000));
  Hello hello;
  hello.channel = Channel::kRpc;
  hello.universe_checksum = UniverseChecksum(TestUniverse());
  hello.client_name = "post-hostility-probe";
  ASSERT_TRUE(socket->SendFrame(MsgType::kHello, EncodeHello(hello)).ok());
  auto ack = socket->RecvFrame();
  ASSERT_TRUE(ack.ok()) << ack.error();
  EXPECT_EQ(ack->type, MsgType::kHelloAck);

  worker->Stop();
  fs::remove(socket_path);
}

TEST(FabricWorker, UniverseChecksumMismatchFailsHandshake) {
  const std::string socket_path = ScratchSocket();
  auto worker = StartWorker(socket_path);
  const Endpoint endpoint = *ParseEndpoint("unix:" + socket_path);

  auto socket = Socket::Connect(endpoint, milliseconds(1000));
  ASSERT_TRUE(socket.ok());
  socket->SetRecvTimeout(milliseconds(2000));
  Hello hello;
  hello.universe_checksum = 0x1234;  // Wrong universe.
  ASSERT_TRUE(socket->SendFrame(MsgType::kHello, EncodeHello(hello)).ok());
  auto reply = socket->RecvFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kError);
  // And then the worker hangs up.
  EXPECT_FALSE(socket->RecvFrame().ok());

  worker->Stop();
  fs::remove(socket_path);
}

// ------------------------------------------------- breaker + pool integration

std::vector<std::unique_ptr<FarmBackend>> OneRemoteBackend(
    const std::string& socket_path) {
  std::vector<std::unique_ptr<FarmBackend>> backends;
  backends.push_back(std::make_unique<RemoteFarmClient>(TestUniverse(),
                                                        FastClient(socket_path)));
  return backends;
}

// Polls pool stats until the predicate holds or the deadline passes; returns
// elapsed milliseconds.
template <typename Pred>
double PollUntil(const serve::FarmPool& pool, Pred pred, milliseconds deadline) {
  const auto start = steady_clock::now();
  while (steady_clock::now() - start < deadline) {
    if (pred(pool.stats())) {
      break;
    }
    std::this_thread::sleep_for(milliseconds(2));
  }
  return std::chrono::duration<double, std::milli>(steady_clock::now() - start)
      .count();
}

TEST(FabricBreaker, DeadWorkerOpensBreakerWithinOneHeartbeatInterval) {
  const std::string socket_path = ScratchSocket();
  auto worker = StartWorker(socket_path);

  serve::FarmPoolConfig pool_config;
  serve::FarmPool pool(pool_config, OneRemoteBackend(socket_path));
  // Wait for the initial connection (a cold client starts breaker-open from
  // the first failed connect, so "connected" = breaker closed).
  PollUntil(pool, [](const serve::FarmPoolStats& s) {
    return s.healthy_farms == 1;
  }, milliseconds(5000));
  ASSERT_EQ(pool.stats().healthy_farms, 1u);

  // Sever the worker. The client's heartbeat channel dies with it, so the
  // next ping (at most one heartbeat_interval away) fails and force-opens
  // the breaker — no batch has to be risked to notice.
  worker->Stop();
  const double elapsed_ms = PollUntil(pool, [](const serve::FarmPoolStats& s) {
    const serve::FarmStats& farm = s.farms[0];
    return farm.breaker == serve::BreakerState::kOpen && farm.conn_lost;
  }, milliseconds(5000));

  const serve::FarmPoolStats stats = pool.stats();
  ASSERT_EQ(stats.farms[0].breaker, serve::BreakerState::kOpen);
  EXPECT_TRUE(stats.farms[0].conn_lost);
  EXPECT_EQ(stats.farms[0].breaker_opens_conn, 1u);
  EXPECT_EQ(stats.farms[0].breaker_opens_fault, 0u);
  EXPECT_EQ(stats.healthy_farms, 0u);
  // One heartbeat interval (100 ms) + scheduling slack. Killing the link
  // makes the in-flight recv fail immediately, so in practice this is far
  // faster; the bound is the contract.
  EXPECT_LE(elapsed_ms, 100.0 + 400.0);

  // With the only farm breaker-open and the link down, a submission is
  // rejected visibly, never hung.
  std::promise<serve::PoolRejectReason> rejected;
  auto future = rejected.get_future();
  std::vector<ingest::ApkBlob> blobs;
  blobs.push_back(ingest::ApkBlob::FromBytes(
      synth::BuildApkBytes(synth::CorpusGenerator(TestUniverse(), {}).Next(),
                           TestUniverse())));
  ASSERT_TRUE(pool.Submit(
      std::move(blobs), Snapshot(), 0,
      [](const emu::BatchResult&, const std::vector<size_t>&) {
        FAIL() << "batch completed on a dead fabric";
      },
      [&](serve::PoolRejectReason reason, const std::vector<size_t>&) {
        rejected.set_value(reason);
      }));
  ASSERT_EQ(future.wait_for(milliseconds(5000)), std::future_status::ready);
  EXPECT_EQ(future.get(), serve::PoolRejectReason::kNoHealthyFarms);

  pool.Close();
  fs::remove(socket_path);
}

TEST(FabricBreaker, ReconnectTriggersHalfOpenProbeThenCloses) {
  const std::string socket_path = ScratchSocket();
  auto worker = StartWorker(socket_path);

  serve::FarmPoolConfig pool_config;
  serve::FarmPool pool(pool_config, OneRemoteBackend(socket_path));
  PollUntil(pool, [](const serve::FarmPoolStats& s) {
    return s.healthy_farms == 1;
  }, milliseconds(5000));

  worker->Stop();
  PollUntil(pool, [](const serve::FarmPoolStats& s) {
    return s.farms[0].breaker == serve::BreakerState::kOpen;
  }, milliseconds(5000));
  ASSERT_EQ(pool.stats().farms[0].breaker, serve::BreakerState::kOpen);

  // Restart the worker on the same endpoint: the client's reconnect loop
  // (bounded backoff) finds it, reports kRestored, and the breaker becomes
  // probe-eligible immediately — the next batch is the half-open probe, and
  // its success closes the breaker.
  worker = StartWorker(socket_path);
  PollUntil(pool, [](const serve::FarmPoolStats& s) {
    return !s.farms[0].conn_lost;
  }, milliseconds(5000));
  ASSERT_FALSE(pool.stats().farms[0].conn_lost);

  std::promise<bool> completed;
  auto future = completed.get_future();
  std::vector<ingest::ApkBlob> blobs;
  blobs.push_back(ingest::ApkBlob::FromBytes(
      synth::BuildApkBytes(synth::CorpusGenerator(TestUniverse(), {}).Next(),
                           TestUniverse())));
  ASSERT_TRUE(pool.Submit(
      std::move(blobs), Snapshot(), 0,
      [&](const emu::BatchResult&, const std::vector<size_t>&) {
        completed.set_value(true);
      },
      [&](serve::PoolRejectReason, const std::vector<size_t>&) {
        completed.set_value(false);
      }));
  ASSERT_EQ(future.wait_for(milliseconds(10'000)), std::future_status::ready);
  EXPECT_TRUE(future.get());

  const serve::FarmPoolStats stats = pool.stats();
  EXPECT_EQ(stats.farms[0].breaker, serve::BreakerState::kClosed);
  EXPECT_EQ(stats.healthy_farms, 1u);
  EXPECT_EQ(stats.farms[0].batches_completed, 1u);

  pool.Close();
  worker->Stop();
  fs::remove(socket_path);
}

// A blocking socket syscall interrupted by a signal whose handler was
// installed WITHOUT SA_RESTART returns EINTR instead of resuming. Every
// send/recv/connect/accept in the transport must retry, or a stray SIGUSR1
// (profilers, timers, debuggers) tears down a healthy connection. This storm
// interrupts both ends of a live echo session — connect and accept included —
// and large frames make mid-transfer interruption all but certain.
TEST(FabricSocket, SyscallsSurviveSignalStormWithoutSaRestart) {
  struct sigaction noop {};
  noop.sa_handler = [](int) {};
  sigemptyset(&noop.sa_mask);
  noop.sa_flags = 0;  // Deliberately NOT SA_RESTART.
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGUSR1, &noop, &saved), 0);

  const std::string socket_path = ScratchSocket();
  auto bound = Listener::Bind(*ParseEndpoint("unix:" + socket_path));
  ASSERT_TRUE(bound.ok()) << bound.error();
  Listener listener = std::move(*bound);

  constexpr int kRounds = 20;
  std::promise<pthread_t> echo_tid_promise;
  std::future<pthread_t> echo_tid = echo_tid_promise.get_future();
  std::thread echo([&] {
    echo_tid_promise.set_value(pthread_self());
    auto conn = listener.Accept();  // Interrupted accept must retry.
    ASSERT_TRUE(conn.ok()) << conn.error();
    for (int i = 0; i < kRounds; ++i) {
      auto frame = conn->RecvFrame();
      ASSERT_TRUE(frame.ok()) << "round " << i << ": " << frame.error();
      auto sent = conn->SendFrame(frame->type, frame->payload);
      ASSERT_TRUE(sent.ok()) << "round " << i << ": " << sent.error();
    }
  });

  const pthread_t victim_a = echo_tid.get();
  const pthread_t victim_b = pthread_self();
  std::atomic<bool> storming{true};
  std::thread storm([&] {
    while (storming.load()) {
      pthread_kill(victim_a, SIGUSR1);
      pthread_kill(victim_b, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Connect under fire (interrupted connect must retry), then push frames
  // large enough that send/recv are interrupted mid-transfer many times.
  auto socket =
      Socket::Connect(*ParseEndpoint("unix:" + socket_path), milliseconds(2'000));
  ASSERT_TRUE(socket.ok()) << socket.error();
  std::vector<uint8_t> payload(1 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (int i = 0; i < kRounds; ++i) {
    auto sent = socket->SendFrame(MsgType::kUploadChunk, payload);
    ASSERT_TRUE(sent.ok()) << "round " << i << ": " << sent.error();
    auto echoed = socket->RecvFrame();
    ASSERT_TRUE(echoed.ok()) << "round " << i << ": " << echoed.error();
    ASSERT_EQ(echoed->payload.size(), payload.size());
    EXPECT_EQ(echoed->payload, payload) << "payload corrupted in round " << i;
  }

  storming.store(false);
  storm.join();
  echo.join();
  listener.Close();
  fs::remove(socket_path);
  ::sigaction(SIGUSR1, &saved, nullptr);
}

// ------------------------------------------------------------------- soak

// Connect/disconnect churn: clients come and go while the worker is
// periodically killed and restarted on the same endpoint. Exercises the
// monitor-thread lifecycle (TryConnect racing Stop, MarkLost racing
// StopMonitor, listener teardown racing accept) under TSan in CI. The
// assertions are liveness and a final clean batch — individual RPCs are
// allowed to fail, that is the point.
TEST(FabricSoak, ConnectDisconnectChurnSurvives) {
  const std::string socket_path = ScratchSocket();
  auto worker = StartWorker(socket_path);
  auto snapshot = Snapshot();
  const std::vector<apk::ApkFile> apks = MakeApks(99, 1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 10 && !stop.load(); ++i) {
        RemoteClientConfig config = FastClient(socket_path);
        config.heartbeat_interval = milliseconds(20 + t * 7);
        RemoteFarmClient client(TestUniverse(), config);
        if (i % 2 == 0) {
          const emu::BatchResult result = client.ExecuteBatch(
              apks, snapshot->version, snapshot->checker, snapshot->tracked);
          if (!result.farm_fault) {
            batches_ok.fetch_add(1);
          }
        } else {
          std::this_thread::sleep_for(milliseconds(5));
        }
        client.StopMonitor();
      }
    });
  }

  // Kill and resurrect the worker under the clients' feet.
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(milliseconds(120));
    worker->Stop();
    std::this_thread::sleep_for(milliseconds(30));
    worker = StartWorker(socket_path);
  }

  for (std::thread& thread : clients) {
    thread.join();
  }
  stop.store(true);

  // The fabric stayed live through the churn: a fresh client completes a
  // clean batch against the final worker incarnation.
  RemoteFarmClient client(TestUniverse(), FastClient(socket_path));
  ASSERT_TRUE(WaitConnected(client));
  const emu::BatchResult result = client.ExecuteBatch(
      apks, snapshot->version, snapshot->checker, snapshot->tracked);
  EXPECT_FALSE(result.farm_fault) << result.fault_reason;
  client.StopMonitor();

  worker->Stop();
  fs::remove(socket_path);
}

}  // namespace
}  // namespace apichecker::fabric
