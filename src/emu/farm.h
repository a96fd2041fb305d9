// Device farm: N concurrent emulators on one x86 server (paper §4.2/§5.1 run
// 16 emulators on 16 cores, 4 cores reserved for scheduling/monitoring/
// logging). The farm executes a batch of APKs, one emulation per app fanned
// out through rt::Runtime::ParallelFor — on the caller's runtime, so one
// server's cores have one thread budget, or on an owned one when standalone —
// and additionally reports the *simulated* wall-clock makespan (greedy
// first-free-emulator scheduling of per-app emulation minutes); that is the
// quantity production throughput claims are made about.

#ifndef APICHECKER_EMU_FARM_H_
#define APICHECKER_EMU_FARM_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "emu/engine.h"
#include "rt/runtime.h"
#include "util/rng.h"

namespace apichecker::emu {

// One scripted fault: farm `farm_id` fails every batch whose ordinal (1-based,
// counted per farm) falls in [from_batch, to_batch]. to_batch defaults to
// "forever", which models a farm that dies and stays dead; a finite window
// models a transient outage the farm recovers from.
struct FaultWindow {
  uint32_t farm_id = 0;
  uint64_t from_batch = 1;
  uint64_t to_batch = std::numeric_limits<uint64_t>::max();
};

// Deterministic fault-injection plan for resilience testing. Built in rather
// than bolted on: the plan threads from FarmPoolConfig through the service
// down to every DeviceFarm, so tests, benches, and the CLI can exercise crash,
// flap, and slow-farm scenarios on demand. An empty plan is free: the hook is
// a single branch at the top of RunBatch.
struct FaultPlan {
  // Seeds the per-farm Bernoulli fault stream (farm_id is mixed in, so farms
  // fault independently but reproducibly).
  uint64_t seed = 1;
  // Per-batch probability that a farm faults (randomized stress mode).
  double fault_rate = 0.0;
  // Scripted faults (deterministic mode; both modes compose).
  std::vector<FaultWindow> windows;
  // Real wall-clock delay added to every batch (slow-farm simulation).
  double induced_latency_ms = 0.0;

  bool enabled() const {
    return fault_rate > 0.0 || !windows.empty() || induced_latency_ms > 0.0;
  }
};

struct FarmConfig {
  size_t num_emulators = 16;
  EngineConfig engine;
  // Identity within a FarmPool; selects this farm's FaultWindows and fault
  // RNG stream.
  uint32_t farm_id = 0;
  FaultPlan fault_plan;
};

struct BatchResult {
  std::vector<EmulationReport> reports;  // One per input, input order.
  double makespan_minutes = 0.0;         // Simulated farm wall-clock.
  double total_emulation_minutes = 0.0;  // Sum of per-app minutes.
  size_t crashes = 0;
  size_t fallbacks = 0;
  // Farm-level fault: the whole batch produced no usable reports (emulator
  // server crash/hang). Callers must treat `reports` as invalid and fail the
  // batch over; serve::FarmPool retries it on a healthy farm.
  bool farm_fault = false;
  // Set (alongside farm_fault) when the failure was the transport to a remote
  // farm worker rather than the farm itself — the pool's breaker records the
  // open under a different reason label so operators can tell a sick farm
  // from a severed link.
  bool transport_fault = false;
  std::string fault_reason;
};

class DeviceFarm {
 public:
  // `runtime` hosts the per-app fan-out; null makes the farm own a
  // default-size runtime.
  DeviceFarm(const android::ApiUniverse& universe, FarmConfig config,
             rt::Runtime* runtime = nullptr);

  BatchResult RunBatch(std::span<const apk::ApkFile> apks, const TrackedApiSet& tracked);

  const FarmConfig& config() const { return config_; }
  const DynamicAnalysisEngine& engine() const { return engine_; }
  // Batches attempted so far (faulted ones included).
  uint64_t batches_run() const { return batch_ordinal_.load(std::memory_order_relaxed); }

 private:
  // Returns a non-empty reason when the fault plan fires for `ordinal`.
  std::string FaultFor(uint64_t ordinal);

  FarmConfig config_;
  DynamicAnalysisEngine engine_;
  std::unique_ptr<rt::Runtime> owned_runtime_;  // Only when none was passed.
  rt::Runtime* rt_;
  std::atomic<uint64_t> batch_ordinal_{0};
  std::mutex fault_mu_;  // Guards fault_rng_ (RunBatch may be called concurrently).
  util::Rng fault_rng_;
};

}  // namespace apichecker::emu

#endif  // APICHECKER_EMU_FARM_H_
