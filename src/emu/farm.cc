#include "emu/farm.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace apichecker::emu {

DeviceFarm::DeviceFarm(const android::ApiUniverse& universe, FarmConfig config,
                       rt::Runtime* runtime)
    : config_(config),
      engine_(universe, config.engine),
      owned_runtime_(runtime == nullptr ? std::make_unique<rt::Runtime>() : nullptr),
      rt_(runtime == nullptr ? owned_runtime_.get() : runtime),
      fault_rng_(util::SplitMix64(config.fault_plan.seed ^
                                  (0x9e3779b97f4a7c15ull * (config.farm_id + 1)))) {}

std::string DeviceFarm::FaultFor(uint64_t ordinal) {
  for (const FaultWindow& window : config_.fault_plan.windows) {
    if (window.farm_id == config_.farm_id && ordinal >= window.from_batch &&
        ordinal <= window.to_batch) {
      return util::StrFormat("scripted fault (farm %u, batch %llu)", config_.farm_id,
                             static_cast<unsigned long long>(ordinal));
    }
  }
  if (config_.fault_plan.fault_rate > 0.0) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    if (fault_rng_.Bernoulli(config_.fault_plan.fault_rate)) {
      return util::StrFormat("random fault (farm %u, batch %llu, rate %.2f)",
                             config_.farm_id, static_cast<unsigned long long>(ordinal),
                             config_.fault_plan.fault_rate);
    }
  }
  return {};
}

BatchResult DeviceFarm::RunBatch(std::span<const apk::ApkFile> apks,
                                 const TrackedApiSet& tracked) {
  obs::TraceSpan span("emu.run_batch");
  BatchResult result;

  if (config_.fault_plan.enabled()) {
    const uint64_t ordinal = batch_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.fault_plan.induced_latency_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.fault_plan.induced_latency_ms));
    }
    if (std::string reason = FaultFor(ordinal); !reason.empty()) {
      result.farm_fault = true;
      result.fault_reason = std::move(reason);
      obs::MetricsRegistry::Default()
          .counter(obs::names::kEmuFarmInjectedFaultsTotal)
          .Increment();
      return result;
    }
  } else {
    batch_ordinal_.fetch_add(1, std::memory_order_relaxed);
  }

  result.reports.resize(apks.size());
  rt_->ParallelFor(apks.size(), [&](size_t i) {
    result.reports[i] = engine_.Run(apks[i], tracked);
  });

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  obs::Histogram& queue_wait = metrics.histogram(obs::names::kEmuFarmQueueWaitMinutes);

  // Simulated makespan: greedy assignment of each app (in submission order)
  // to the emulator that frees up first. The app's queue wait is the busy
  // time already scheduled on that emulator.
  std::vector<double> emulator_busy_until(std::max<size_t>(1, config_.num_emulators), 0.0);
  for (const EmulationReport& report : result.reports) {
    auto next_free =
        std::min_element(emulator_busy_until.begin(), emulator_busy_until.end());
    queue_wait.Observe(*next_free);
    *next_free += report.emulation_minutes;
    result.total_emulation_minutes += report.emulation_minutes;
    result.crashes += report.crashed ? 1 : 0;
    result.fallbacks += report.fell_back ? 1 : 0;
  }
  result.makespan_minutes =
      *std::max_element(emulator_busy_until.begin(), emulator_busy_until.end());

  metrics.counter(obs::names::kEmuFarmBatchesTotal).Increment();
  metrics.histogram(obs::names::kEmuFarmMakespanMinutes).Observe(result.makespan_minutes);
  metrics.gauge(obs::names::kEmuFarmLastMakespanMinutes).Set(result.makespan_minutes);
  return result;
}

}  // namespace apichecker::emu
