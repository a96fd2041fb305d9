// Deterministic fault-injection tests for serve::FarmPool and the emu-level
// fault hook: scripted farm deaths, failover to healthy farms, circuit-breaker
// open/half-open-probe/close transitions, the all-farms-down visible-rejection
// path (never a hang), and reproducibility of the seeded fault stream.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apk/apk.h"
#include "core/model_store.h"
#include "core/study.h"
#include "emu/farm.h"
#include "ingest/apk_blob.h"
#include "rt/runtime.h"
#include "serve/farm_pool.h"
#include "serve/service.h"
#include "serve/serving_model.h"
#include "synth/corpus.h"

namespace apichecker::serve {
namespace {

using std::chrono::milliseconds;

const android::ApiUniverse& TestUniverse() {
  static const android::ApiUniverse universe = [] {
    android::UniverseConfig config;
    config.num_apis = 6'000;
    return android::ApiUniverse::Generate(config);
  }();
  return universe;
}

const std::vector<uint8_t>& TrainedBlob() {
  static const std::vector<uint8_t> blob = [] {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(TestUniverse(), corpus_config);
    core::StudyConfig study_config;
    study_config.num_apps = 1'200;
    const core::StudyDataset study =
        core::RunStudy(TestUniverse(), generator, study_config);
    core::ApiChecker checker(TestUniverse(), {});
    checker.TrainFromStudy(study);
    return core::SerializeChecker(checker);
  }();
  return blob;
}

core::ApiChecker TrainedChecker() {
  auto checker = core::DeserializeChecker(TestUniverse(), TrainedBlob());
  EXPECT_TRUE(checker.ok());
  return std::move(*checker);
}

std::shared_ptr<const ModelSnapshot> Snapshot() {
  return std::make_shared<const ModelSnapshot>(1, TrainedChecker());
}

std::vector<uint8_t> MakeApkBytes(uint64_t seed) {
  synth::CorpusConfig config;
  config.seed = seed;
  config.update_fraction = 0.0;
  synth::CorpusGenerator generator(TestUniverse(), config);
  return synth::BuildApkBytes(generator.Next(), TestUniverse());
}

// A one-blob batch payload for direct pool submissions (the pool's own
// workers run the parse stage).
std::vector<ingest::ApkBlob> MakeBatch(uint64_t seed) {
  std::vector<ingest::ApkBlob> blobs;
  blobs.push_back(ingest::ApkBlob::FromBytes(MakeApkBytes(seed)));
  return blobs;
}

// Parsed payload for driving emu::DeviceFarm directly (below the pool's
// parse stage).
std::vector<apk::ApkFile> MakeApks(uint64_t seed) {
  auto parsed = apk::ParseApk(MakeApkBytes(seed));
  EXPECT_TRUE(parsed.ok());
  std::vector<apk::ApkFile> apks;
  apks.push_back(std::move(*parsed));
  return apks;
}

emu::FarmConfig SmallFarm() {
  emu::FarmConfig farm;
  farm.num_emulators = 2;
  farm.worker_threads = 1;
  return farm;
}

// Kills `farm_id` from its first batch onwards — dead forever.
emu::FaultWindow DeadForever(uint32_t farm_id) {
  emu::FaultWindow window;
  window.farm_id = farm_id;
  window.from_batch = 1;
  return window;
}

// Tracks callback outcomes for one submitted batch. The pool promises exactly
// one callback per batch; the promise traps double resolution as a test
// failure (set_value throws on a satisfied promise).
struct Probe {
  std::promise<bool> done;  // true = completed, false = rejected.
  std::future<bool> future = done.get_future();
  PoolRejectReason reason = PoolRejectReason::kNoHealthyFarms;

  FarmPool::CompleteFn on_complete() {
    return [this](const emu::BatchResult& result, const std::vector<size_t>&) {
      EXPECT_FALSE(result.farm_fault);  // Faulted results never reach callers.
      done.set_value(true);
    };
  }
  FarmPool::RejectFn on_reject() {
    return [this](PoolRejectReason r, const std::vector<size_t>&) {
      reason = r;
      done.set_value(false);
    };
  }
  // Asserts the batch resolved (either way) without hanging.
  bool Resolved(milliseconds timeout = milliseconds(10'000)) {
    return future.wait_for(timeout) == std::future_status::ready;
  }
};

TEST(FarmPool, FaultedBatchFailsOverToHealthyFarmExactlyOnce) {
  FarmPoolConfig config;
  config.num_farms = 2;
  config.max_attempts = 2;
  config.breaker_failure_streak = 2;
  config.fault_plan.windows = {DeadForever(0)};
  FarmPool pool(TestUniverse(), config, SmallFarm());
  auto snapshot = Snapshot();

  constexpr size_t kBatches = 6;
  std::vector<Probe> probes(kBatches);
  for (size_t i = 0; i < kBatches; ++i) {
    // Affinity i: ties between idle farms alternate, so farm 0 is exercised.
    ASSERT_TRUE(pool.Submit(MakeBatch(100 + i), snapshot, /*affinity=*/i,
                            probes[i].on_complete(), probes[i].on_reject()));
  }
  for (auto& probe : probes) {
    ASSERT_TRUE(probe.Resolved());
    EXPECT_TRUE(probe.future.get());  // Every batch completed despite farm 0.
  }
  pool.Close();

  const FarmPoolStats stats = pool.stats();
  ASSERT_EQ(stats.farms.size(), 2u);
  EXPECT_EQ(stats.farms[0].batches_completed, 0u);  // Dead farm finished nothing.
  EXPECT_EQ(stats.farms[1].batches_completed, kBatches);
  EXPECT_GT(stats.faults, 0u);              // Farm 0 faulted at least once...
  EXPECT_EQ(stats.retries, stats.faults);   // ...and every fault was retried.
  EXPECT_GT(stats.farms[1].retries_absorbed, 0u);
  EXPECT_EQ(stats.rejected_batches, 0u);
  // Farm 0's breaker opened after the streak and stayed open (it never heals).
  EXPECT_EQ(stats.farms[0].breaker, BreakerState::kOpen);
  EXPECT_GE(stats.farms[0].breaker_opens, 1u);
  EXPECT_EQ(stats.healthy_farms, 1u);
}

TEST(FarmPool, BreakerOpensCoolsDownAndReprobesToClosed) {
  FarmPoolConfig config;
  config.num_farms = 1;
  config.max_attempts = 1;  // No failover target: faults reject immediately.
  config.breaker_failure_streak = 2;
  config.breaker_cooldown = milliseconds(100);
  // The single farm faults on its first two batches, then recovers.
  emu::FaultWindow outage;
  outage.farm_id = 0;
  outage.from_batch = 1;
  outage.to_batch = 2;
  config.fault_plan.windows = {outage};
  FarmPool pool(TestUniverse(), config, SmallFarm());
  auto snapshot = Snapshot();

  // Batch 1 faults (streak 1 of 2): rejected, breaker still closed.
  Probe first;
  ASSERT_TRUE(pool.Submit(MakeBatch(1), snapshot, 0, first.on_complete(),
                          first.on_reject()));
  ASSERT_TRUE(first.Resolved());
  EXPECT_FALSE(first.future.get());
  EXPECT_EQ(first.reason, PoolRejectReason::kRetryBudgetExhausted);
  EXPECT_EQ(pool.healthy_farms(), 1u);

  // Batch 2 faults (streak 2): the breaker opens.
  Probe second;
  ASSERT_TRUE(pool.Submit(MakeBatch(2), snapshot, 0, second.on_complete(),
                          second.on_reject()));
  ASSERT_TRUE(second.Resolved());
  EXPECT_FALSE(second.future.get());
  EXPECT_EQ(pool.healthy_farms(), 0u);
  EXPECT_EQ(pool.stats().farms[0].breaker, BreakerState::kOpen);

  // Inside the cooldown the open breaker blocks routing: the reject fires
  // synchronously from Submit — degraded, visible, and no hang.
  Probe blocked;
  ASSERT_TRUE(pool.Submit(MakeBatch(3), snapshot, 0, blocked.on_complete(),
                          blocked.on_reject()));
  ASSERT_TRUE(blocked.Resolved(milliseconds(0)));  // Already resolved.
  EXPECT_FALSE(blocked.future.get());
  EXPECT_EQ(blocked.reason, PoolRejectReason::kNoHealthyFarms);

  // After the cooldown the next batch goes through as the half-open probe;
  // the outage window is over, so the probe succeeds and closes the breaker.
  std::this_thread::sleep_for(config.breaker_cooldown + milliseconds(20));
  Probe probe;
  ASSERT_TRUE(pool.Submit(MakeBatch(4), snapshot, 0, probe.on_complete(),
                          probe.on_reject()));
  ASSERT_TRUE(probe.Resolved());
  EXPECT_TRUE(probe.future.get());
  pool.Close();

  const FarmPoolStats stats = pool.stats();
  EXPECT_EQ(stats.farms[0].breaker, BreakerState::kClosed);
  EXPECT_EQ(stats.healthy_farms, 1u);
  EXPECT_EQ(stats.farms[0].faults, 2u);
  EXPECT_EQ(stats.farms[0].breaker_opens, 1u);
  EXPECT_EQ(stats.farms[0].batches_completed, 1u);
  EXPECT_EQ(stats.rejected_batches, 3u);
}

TEST(FarmPool, FailedProbeReopensTheBreaker) {
  FarmPoolConfig config;
  config.num_farms = 1;
  config.max_attempts = 1;
  config.breaker_failure_streak = 1;
  config.breaker_cooldown = milliseconds(50);
  config.fault_plan.windows = {DeadForever(0)};  // Probes keep failing.
  FarmPool pool(TestUniverse(), config, SmallFarm());
  auto snapshot = Snapshot();

  Probe trip;
  ASSERT_TRUE(pool.Submit(MakeBatch(1), snapshot, 0, trip.on_complete(),
                          trip.on_reject()));
  ASSERT_TRUE(trip.Resolved());
  EXPECT_FALSE(trip.future.get());
  EXPECT_EQ(pool.stats().farms[0].breaker, BreakerState::kOpen);

  std::this_thread::sleep_for(config.breaker_cooldown + milliseconds(20));
  Probe probe;
  ASSERT_TRUE(pool.Submit(MakeBatch(2), snapshot, 0, probe.on_complete(),
                          probe.on_reject()));
  ASSERT_TRUE(probe.Resolved());
  EXPECT_FALSE(probe.future.get());  // The probe faulted...
  pool.Close();
  EXPECT_EQ(pool.stats().farms[0].breaker, BreakerState::kOpen);  // ...reopened.
  EXPECT_EQ(pool.stats().farms[0].breaker_opens, 2u);
}

TEST(FarmPool, AllFarmsDownRejectsEveryBatchWithoutHanging) {
  FarmPoolConfig config;
  config.num_farms = 2;
  config.max_attempts = 3;
  config.breaker_failure_streak = 1;
  config.fault_plan.windows = {DeadForever(0), DeadForever(1)};
  FarmPool pool(TestUniverse(), config, SmallFarm());
  auto snapshot = Snapshot();

  // First batch faults on both farms before rejecting (failover was tried).
  Probe first;
  ASSERT_TRUE(pool.Submit(MakeBatch(1), snapshot, 0, first.on_complete(),
                          first.on_reject()));
  ASSERT_TRUE(first.Resolved());
  EXPECT_FALSE(first.future.get());

  // Both breakers are now open: later batches reject synchronously with the
  // distinct no-healthy-farms reason.
  EXPECT_EQ(pool.healthy_farms(), 0u);
  Probe second;
  ASSERT_TRUE(pool.Submit(MakeBatch(2), snapshot, 0, second.on_complete(),
                          second.on_reject()));
  ASSERT_TRUE(second.Resolved(milliseconds(0)));
  EXPECT_FALSE(second.future.get());
  EXPECT_EQ(second.reason, PoolRejectReason::kNoHealthyFarms);
  EXPECT_STREQ(PoolRejectReasonName(second.reason), "no healthy farms");
  pool.Close();

  const FarmPoolStats stats = pool.stats();
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_EQ(stats.farms[0].batches_completed + stats.farms[1].batches_completed, 0u);
}

// The pool's parse stage: corrupt members resolve through on_parse_error
// exactly once, valid members ride on to the farm, and the emulated-index
// mapping ties reports back to original batch positions.
TEST(FarmPool, ParseErrorsResolvePerIndexAndValidMembersComplete) {
  FarmPool pool(TestUniverse(), FarmPoolConfig{}, SmallFarm());
  std::vector<ingest::ApkBlob> blobs;
  blobs.push_back(ingest::ApkBlob::FromBytes(MakeApkBytes(11)));
  blobs.push_back(ingest::ApkBlob::FromBytes({0xde, 0xad, 0xbe, 0xef}));
  blobs.push_back(ingest::ApkBlob::FromBytes(MakeApkBytes(12)));

  std::promise<void> done;
  std::vector<std::pair<size_t, std::string>> parse_errors;
  std::vector<size_t> completed_indices;
  size_t reports = 0;
  ASSERT_TRUE(pool.Submit(
      std::move(blobs), Snapshot(), 0,
      [&](const emu::BatchResult& result, const std::vector<size_t>& emulated) {
        completed_indices = emulated;
        reports = result.reports.size();
        done.set_value();
      },
      [&](PoolRejectReason, const std::vector<size_t>&) { FAIL() << "rejected"; },
      [&](size_t index, const std::string& error) {
        parse_errors.emplace_back(index, error);
      }));
  ASSERT_EQ(done.get_future().wait_for(milliseconds(10'000)),
            std::future_status::ready);
  pool.Close();

  ASSERT_EQ(parse_errors.size(), 1u);
  EXPECT_EQ(parse_errors[0].first, 1u);
  EXPECT_FALSE(parse_errors[0].second.empty());
  EXPECT_EQ(completed_indices, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(reports, 2u);
}

// A batch whose every member fails the parse stage completes with an empty
// result and never consumes a farm run (fault-plan batch ordinals stay put).
TEST(FarmPool, AllParseFailuresCompleteWithoutConsumingAFarmRun) {
  FarmPool pool(TestUniverse(), FarmPoolConfig{}, SmallFarm());
  std::vector<ingest::ApkBlob> blobs;
  blobs.push_back(ingest::ApkBlob::FromBytes({1, 2, 3}));
  blobs.push_back(ingest::ApkBlob::FromBytes(std::vector<uint8_t>(64, 0)));

  std::promise<void> done;
  size_t parse_errors = 0;
  ASSERT_TRUE(pool.Submit(
      std::move(blobs), Snapshot(), 0,
      [&](const emu::BatchResult& result, const std::vector<size_t>& emulated) {
        EXPECT_TRUE(result.reports.empty());
        EXPECT_TRUE(emulated.empty());
        done.set_value();
      },
      [&](PoolRejectReason, const std::vector<size_t>&) { FAIL() << "rejected"; },
      [&](size_t, const std::string&) { ++parse_errors; }));
  ASSERT_EQ(done.get_future().wait_for(milliseconds(10'000)),
            std::future_status::ready);
  pool.Close();

  EXPECT_EQ(parse_errors, 2u);
  const FarmPoolStats stats = pool.stats();
  size_t farm_batches = 0;
  for (const FarmStats& farm : stats.farms) {
    farm_batches += farm.batches_completed;
  }
  EXPECT_EQ(farm_batches, 0u);  // No RunBatch: ordinals undisturbed.
  EXPECT_EQ(stats.rejected_batches, 0u);
}

// Parse runs once per batch even when the farm run behind it faults and fails
// over: the corrupt member's error fires exactly once, and the valid member
// still completes on the healthy farm.
TEST(FarmPool, ParseStageSurvivesFailoverWithoutDoubleResolution) {
  FarmPoolConfig config;
  config.num_farms = 2;
  config.max_attempts = 2;
  config.fault_plan.windows = {DeadForever(0)};
  FarmPool pool(TestUniverse(), config, SmallFarm());
  auto snapshot = Snapshot();

  // Drive several mixed batches so at least one lands on the dead farm first.
  constexpr size_t kBatches = 6;
  std::vector<std::promise<void>> done(kBatches);
  std::atomic<size_t> parse_errors{0};
  std::atomic<size_t> completed_members{0};
  for (size_t i = 0; i < kBatches; ++i) {
    std::vector<ingest::ApkBlob> blobs;
    blobs.push_back(ingest::ApkBlob::FromBytes(MakeApkBytes(500 + i)));
    blobs.push_back(ingest::ApkBlob::FromBytes({0xbd, static_cast<uint8_t>(i)}));
    ASSERT_TRUE(pool.Submit(
        std::move(blobs), snapshot, /*affinity=*/i,
        [&, i](const emu::BatchResult& result, const std::vector<size_t>& emulated) {
          EXPECT_EQ(emulated, (std::vector<size_t>{0}));
          completed_members += result.reports.size();
          done[i].set_value();
        },
        [&](PoolRejectReason, const std::vector<size_t>&) { FAIL() << "rejected"; },
        [&](size_t index, const std::string&) {
          EXPECT_EQ(index, 1u);
          ++parse_errors;  // A doubled callback would overshoot kBatches.
        }));
  }
  for (auto& promise : done) {
    ASSERT_EQ(promise.get_future().wait_for(milliseconds(10'000)),
              std::future_status::ready);
  }
  pool.Close();

  EXPECT_EQ(parse_errors.load(), kBatches);
  EXPECT_EQ(completed_members.load(), kBatches);
  const FarmPoolStats stats = pool.stats();
  EXPECT_GT(stats.faults, 0u);  // The dead farm was actually exercised.
  EXPECT_EQ(stats.farms[0].batches_completed, 0u);
}

// The parse stage fans out across runtime workers, yet everything it hands
// on keeps batch order: on_parse_error fires in ascending index order, and
// the emulated indices and verdicts equal those of a serial parse fed to an
// identical farm. Repeated rounds vary the helper interleaving (the suite
// also runs under TSan).
TEST(FarmPool, ParallelParseKeepsBatchOrder) {
  constexpr size_t kBatch = 16;
  const std::vector<size_t> corrupt = {1, 6, 7, 13};
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < kBatch; ++i) {
    if (std::find(corrupt.begin(), corrupt.end(), i) != corrupt.end()) {
      payloads.push_back({0xc0, 0xff, 0xee, static_cast<uint8_t>(i)});
    } else {
      payloads.push_back(MakeApkBytes(900 + i));
    }
  }
  auto snapshot = Snapshot();

  // Serial reference: parse in order, run one batch on a fresh farm 0.
  std::vector<apk::ApkFile> serial_apks;
  std::vector<size_t> serial_indices;
  for (size_t i = 0; i < kBatch; ++i) {
    auto parsed = apk::ParseApk(payloads[i]);
    if (parsed.ok()) {
      serial_apks.push_back(std::move(*parsed));
      serial_indices.push_back(i);
    }
  }
  emu::DeviceFarm reference_farm(TestUniverse(), SmallFarm());
  const emu::BatchResult reference =
      reference_farm.RunBatch(serial_apks, snapshot->tracked);
  ASSERT_FALSE(reference.farm_fault);
  // Verdict plus invocation count per member: a swapped pair of reports
  // would show even where two verdicts coincide.
  using Outcome = std::pair<bool, uint64_t>;
  std::vector<Outcome> reference_outcomes;
  for (const emu::EmulationReport& report : reference.reports) {
    reference_outcomes.emplace_back(snapshot->checker.Classify(report).malicious,
                                    report.total_invocations);
  }

  rt::Runtime runtime(rt::RuntimeOptions{4});
  for (int round = 0; round < 5; ++round) {
    // A fresh pool each round, so its farm runs this batch as ordinal 1 just
    // like the reference farm.
    FarmPool pool(TestUniverse(), FarmPoolConfig{}, SmallFarm(), &runtime);
    std::vector<ingest::ApkBlob> blobs;
    for (const auto& payload : payloads) {
      blobs.push_back(ingest::ApkBlob::FromBytes(payload));
    }
    std::promise<void> done;
    std::vector<size_t> error_order;
    std::vector<size_t> emulated_indices;
    std::vector<Outcome> outcomes;
    ASSERT_TRUE(pool.Submit(
        std::move(blobs), snapshot, 0,
        [&](const emu::BatchResult& result, const std::vector<size_t>& emulated) {
          emulated_indices = emulated;
          for (const emu::EmulationReport& report : result.reports) {
            outcomes.emplace_back(snapshot->checker.Classify(report).malicious,
                                  report.total_invocations);
          }
          done.set_value();
        },
        [&](PoolRejectReason, const std::vector<size_t>&) { FAIL() << "rejected"; },
        [&](size_t index, const std::string&) { error_order.push_back(index); }));
    ASSERT_EQ(done.get_future().wait_for(milliseconds(10'000)),
              std::future_status::ready);
    pool.Close();

    EXPECT_EQ(error_order, corrupt) << "round " << round;
    EXPECT_EQ(emulated_indices, serial_indices) << "round " << round;
    EXPECT_EQ(outcomes, reference_outcomes) << "round " << round;
  }
  runtime.Shutdown();
}

// An all-corrupt batch resolves without a farm run even with the parse
// fanned out, so a fault scripted for the farm's first batch still lands on
// the first batch that reaches the farm.
TEST(FarmPool, AllCorruptBatchLeavesFaultOrdinalForTheNextRealBatch) {
  FarmPoolConfig config;
  emu::FaultWindow first_only;
  first_only.farm_id = 0;
  first_only.from_batch = 1;
  first_only.to_batch = 1;
  config.fault_plan.windows = {first_only};
  rt::Runtime runtime(rt::RuntimeOptions{4});
  FarmPool pool(TestUniverse(), config, SmallFarm(), &runtime);
  auto snapshot = Snapshot();

  std::vector<ingest::ApkBlob> garbage;
  for (uint8_t i = 0; i < 16; ++i) {
    garbage.push_back(ingest::ApkBlob::FromBytes({0xba, 0xad, i}));
  }
  Probe all_corrupt;
  std::atomic<size_t> parse_errors{0};
  ASSERT_TRUE(pool.Submit(std::move(garbage), snapshot, 0, all_corrupt.on_complete(),
                          all_corrupt.on_reject(),
                          [&](size_t, const std::string&) { ++parse_errors; }));
  ASSERT_TRUE(all_corrupt.Resolved());
  EXPECT_TRUE(all_corrupt.future.get());  // Completed, not rejected.
  EXPECT_EQ(parse_errors.load(), 16u);

  Probe first_real;  // Farm ordinal 1: the scripted fault, one farm to try.
  ASSERT_TRUE(pool.Submit(MakeBatch(31), snapshot, 0, first_real.on_complete(),
                          first_real.on_reject()));
  ASSERT_TRUE(first_real.Resolved());
  EXPECT_FALSE(first_real.future.get());

  Probe second_real;  // Farm ordinal 2: past the window.
  ASSERT_TRUE(pool.Submit(MakeBatch(32), snapshot, 0, second_real.on_complete(),
                          second_real.on_reject()));
  ASSERT_TRUE(second_real.Resolved());
  EXPECT_TRUE(second_real.future.get());
  pool.Close();

  const FarmPoolStats stats = pool.stats();
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.farms[0].batches_completed, 1u);
  runtime.Shutdown();
}

TEST(FarmPool, SubmitAfterCloseReturnsFalseWithoutCallbacks) {
  FarmPool pool(TestUniverse(), FarmPoolConfig{}, SmallFarm());
  pool.Close();
  Probe probe;
  EXPECT_FALSE(pool.Submit(MakeBatch(1), Snapshot(), 0, probe.on_complete(),
                           probe.on_reject()));
  EXPECT_FALSE(probe.Resolved(milliseconds(0)));  // Neither callback fired.
}

// The seeded per-farm Bernoulli fault stream is reproducible: two farms with
// the same id, seed, and rate fault on exactly the same batch ordinals.
TEST(DeviceFarmFaults, SeededFaultStreamIsDeterministicPerFarm) {
  auto run_sequence = [](uint32_t farm_id, uint64_t seed) {
    emu::FarmConfig config = SmallFarm();
    config.farm_id = farm_id;
    config.fault_plan.seed = seed;
    config.fault_plan.fault_rate = 0.5;
    emu::DeviceFarm farm(TestUniverse(), config);
    auto snapshot = Snapshot();
    const std::vector<apk::ApkFile> apks = MakeApks(7);
    std::vector<bool> faulted;
    for (int i = 0; i < 24; ++i) {
      faulted.push_back(farm.RunBatch(apks, snapshot->tracked).farm_fault);
    }
    return faulted;
  };

  const std::vector<bool> a = run_sequence(1, 42);
  const std::vector<bool> b = run_sequence(1, 42);
  EXPECT_EQ(a, b);  // Identical id+seed: identical fault ordinals.
  EXPECT_NE(a, run_sequence(2, 42));  // Another farm draws its own stream.
  size_t faults = 0;
  for (bool f : a) {
    faults += f ? 1 : 0;
  }
  EXPECT_GT(faults, 0u);   // rate 0.5 over 24 batches: some faults...
  EXPECT_LT(faults, 24u);  // ...but not all.
}

TEST(DeviceFarmFaults, ScriptedWindowOnlyHitsItsOwnFarmAndRange) {
  emu::FaultWindow window;
  window.farm_id = 3;
  window.from_batch = 2;
  window.to_batch = 3;

  emu::FarmConfig config = SmallFarm();
  config.farm_id = 3;
  config.fault_plan.windows = {window};
  emu::DeviceFarm farm(TestUniverse(), config);

  emu::FarmConfig other_config = SmallFarm();
  other_config.farm_id = 4;  // Same plan, different identity: never faults.
  other_config.fault_plan.windows = {window};
  emu::DeviceFarm other(TestUniverse(), other_config);

  auto snapshot = Snapshot();
  const std::vector<apk::ApkFile> apks = MakeApks(8);
  std::vector<bool> expected = {false, true, true, false};
  for (size_t i = 0; i < expected.size(); ++i) {
    const emu::BatchResult result = farm.RunBatch(apks, snapshot->tracked);
    EXPECT_EQ(result.farm_fault, expected[i]) << "batch ordinal " << i + 1;
    if (result.farm_fault) {
      EXPECT_FALSE(result.fault_reason.empty());
    }
    EXPECT_FALSE(other.RunBatch(apks, snapshot->tracked).farm_fault);
  }
  EXPECT_EQ(farm.batches_run(), expected.size());
}

// End-to-end: a service whose pool has one dead farm still resolves every
// submission with kOk (failover is invisible to clients), and a service whose
// farms are ALL dead resolves every submission with kRejectedUnhealthy — the
// no-lost-submissions invariant holds in both worlds.
TEST(VettingServiceFaults, FailoverKeepsVerdictsFlowing) {
  ServiceConfig config;
  config.num_shards = 2;
  config.shard_capacity = 64;
  config.farm.num_emulators = 2;
  config.farm.worker_threads = 1;
  config.scheduler.batch_size = 2;
  config.scheduler.max_linger = milliseconds(5);
  config.pool.num_farms = 2;
  config.pool.max_attempts = 2;
  config.pool.fault_plan.windows = {DeadForever(0)};
  VettingService service(TestUniverse(), config, TrainedChecker());

  // Pick an APK whose digest-affinity deterministically breaks the idle-farms
  // tie towards farm 0 (the dead one) — the scheduler hashes the first
  // leader's digest exactly like this. Submitted alone into an idle pool, its
  // batch MUST hit farm 0, fault, and fail over.
  ingest::ApkBlob farm0_blob;
  for (uint64_t seed = 200;; ++seed) {
    ingest::ApkBlob blob = ingest::ApkBlob::FromBytes(MakeApkBytes(seed));
    if (std::hash<std::string>{}(blob.digest()) % 2 == 0) {
      farm0_blob = std::move(blob);
      break;
    }
  }
  auto pinned = service.Submit([&] {
    Submission submission;
    submission.blob = std::move(farm0_blob);
    return submission;
  }());
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->get().status, VetStatus::kOk);  // Failover was invisible.

  std::vector<std::future<VettingResult>> futures;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto accepted = service.Submit([&] {
      Submission submission;
      submission.blob = ingest::ApkBlob::FromBytes(MakeApkBytes(300'000 + seed));
      return submission;
    }());
    ASSERT_TRUE(accepted.ok());
    futures.push_back(std::move(*accepted));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, VetStatus::kOk);
  }
  service.Shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, stats.resolved());
  EXPECT_EQ(stats.rejected_unhealthy, 0u);
  EXPECT_GT(stats.farm_faults, 0u);
  EXPECT_GT(stats.farm_retries, 0u);
  const FarmPoolStats pool_stats = service.farm_pool_stats();
  EXPECT_EQ(pool_stats.farms[0].batches_completed, 0u);
  EXPECT_GT(pool_stats.farms[1].batches_completed, 0u);
}

TEST(VettingServiceFaults, AllFarmsDownResolvesRejectedUnhealthy) {
  ServiceConfig config;
  config.num_shards = 2;
  config.shard_capacity = 64;
  config.farm.num_emulators = 2;
  config.farm.worker_threads = 1;
  config.scheduler.batch_size = 2;
  config.scheduler.max_linger = milliseconds(5);
  config.pool.num_farms = 2;
  config.pool.breaker_failure_streak = 1;
  config.pool.fault_plan.windows = {DeadForever(0), DeadForever(1)};
  VettingService service(TestUniverse(), config, TrainedChecker());

  std::vector<std::future<VettingResult>> futures;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto accepted = service.Submit([&] {
      Submission submission;
      submission.blob = ingest::ApkBlob::FromBytes(MakeApkBytes(300 + seed));
      return submission;
    }());
    ASSERT_TRUE(accepted.ok());
    futures.push_back(std::move(*accepted));
  }
  for (auto& future : futures) {
    // Must resolve — degraded but visible, never hung.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const VettingResult result = future.get();
    EXPECT_EQ(result.status, VetStatus::kRejectedUnhealthy);
    EXPECT_FALSE(result.error.empty());
  }
  service.Shutdown();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_unhealthy, 6u);
  EXPECT_EQ(stats.accepted, stats.resolved());
  EXPECT_EQ(stats.completed, 0u);
}

}  // namespace
}  // namespace apichecker::serve
