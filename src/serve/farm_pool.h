// FarmPool: M emu::DeviceFarm instances behind the batch scheduler — the
// paper's scale-out story (§5.1: 16 emulators per 20-core server, more
// servers added as market load grows) made explicit as a routed, health-
// checked pool. Each farm is a serialized task queue on the unified runtime
// (one dispatch task in flight per farm, re-posted while its queue is
// non-empty), so M farms chew M batches concurrently while the scheduler
// keeps assembling the next one — without M parked threads.
//
// Routing: least-loaded healthy farm (queued + in-flight batches), with a
// digest-affinity tiebreak so byte-similar traffic tends to revisit the same
// farm. Health: a per-farm circuit breaker opens after a configurable streak
// of consecutive farm-level faults, cools down, then admits a single
// half-open probe batch; the probe's outcome closes or re-opens the breaker.
// Failover: a batch whose farm faults is retried on a healthy farm it has not
// tried yet, up to max_attempts farms; when no healthy farm remains the batch
// is rejected visibly (PoolRejectReason) — the pool never hangs a submission.
//
// Fault injection is built in: FarmPoolConfig carries an emu::FaultPlan that
// is threaded into every farm (farm_id selects each farm's fault windows and
// RNG stream), so every failover path above is exercisable deterministically
// from tests, benches, and the CLI.

#ifndef APICHECKER_SERVE_FARM_POOL_H_
#define APICHECKER_SERVE_FARM_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "apk/apk.h"
#include "emu/farm.h"
#include "fabric/backend.h"
#include "ingest/apk_blob.h"
#include "rt/runtime.h"
#include "serve/serving_model.h"
#include "serve/types.h"

namespace apichecker::serve {

struct FarmPoolConfig {
  size_t num_farms = 1;
  // Max distinct farms one batch may be attempted on before rejection.
  size_t max_attempts = 3;
  // Consecutive farm-level faults that open a farm's circuit breaker.
  size_t breaker_failure_streak = 3;
  // How long an open breaker blocks routing before a half-open re-probe.
  std::chrono::milliseconds breaker_cooldown{250};
  // Threaded into every farm's FarmConfig (farm_id is assigned by the pool).
  emu::FaultPlan fault_plan;
};

enum class PoolRejectReason : uint8_t {
  kNoHealthyFarms = 0,       // Every untried farm is faulted or circuit-broken.
  kRetryBudgetExhausted = 1, // Faulted on max_attempts distinct farms.
  kClosed = 2,               // Pool already closed (shutdown race).
};

const char* PoolRejectReasonName(PoolRejectReason reason);

enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateName(BreakerState state);

// Per-farm accounting, exposed through FarmPoolStats.
struct FarmStats {
  uint32_t farm_id = 0;
  uint64_t batches_completed = 0;   // Successful batches executed here.
  uint64_t faults = 0;              // Farm-level faults observed here.
  uint64_t retries_absorbed = 0;    // Batches completed here after faulting elsewhere.
  uint64_t breaker_opens = 0;
  // breaker_opens split by cause: emulation-level faults vs fabric
  // connection loss / missed heartbeats. Sums to breaker_opens.
  uint64_t breaker_opens_fault = 0;
  uint64_t breaker_opens_conn = 0;
  BreakerState breaker = BreakerState::kClosed;
  bool conn_lost = false;           // Remote backend currently disconnected.
  double busy_minutes = 0.0;        // Sum of simulated batch makespans.
};

struct FarmPoolStats {
  std::vector<FarmStats> farms;
  uint64_t batches_routed = 0;      // Dispatches, retries included.
  uint64_t faults = 0;
  uint64_t retries = 0;             // Faulted batches re-routed to another farm.
  uint64_t rejected_batches = 0;    // Batches that exhausted the pool.
  size_t healthy_farms = 0;         // Breaker currently closed.
};

// Per-farm metric series name with an embedded Prometheus label, e.g.
// apichecker_serve_farm_batches_routed_total{farm="2"}.
std::string FarmSeriesName(const char* base, uint32_t farm_id);

// Breaker-open series with both the farm and the open's cause, e.g.
// apichecker_serve_farm_breaker_open_total{farm="2",reason="connection_loss"}.
// Reasons: "fault" (emulation-level farm fault streak / failed probe) and
// "connection_loss" (fabric transport: heartbeat miss, EOF, connect failure).
std::string BreakerOpenSeriesName(uint32_t farm_id, const char* reason);

// The in-process backend set the universe-based FarmPool constructor uses:
// num_farms LocalFarmBackends with the pool's fault plan attached. Exposed so
// callers composing mixed fleets (VettingService with fabric endpoints) reuse
// the same normalization.
std::vector<std::unique_ptr<fabric::FarmBackend>> MakeLocalFarmBackends(
    const android::ApiUniverse& universe, const FarmPoolConfig& config,
    const emu::FarmConfig& farm_template);

class FarmPool {
 public:
  // Batches enter as raw blobs; the first worker that picks a batch up runs
  // the parse stage (apk::ParseApk per blob, off the scheduler thread) and
  // caches the result, so a failover retry never re-parses. Per blob index
  // exactly one of these fires, each on a pool worker thread:
  //  - on_parse_error(index, error): the blob is not a valid APK (resolved
  //    fast-fail; it never occupies an emulator);
  //  - on_complete(result, emulated): fault-free emulation, result.reports[j]
  //    belongs to blob index emulated[j] (parse failures are skipped);
  //  - on_reject(reason, affected): no healthy farm / retry budget spent for
  //    the listed indices (parse failures already resolved are excluded).
  // on_complete also fires (with an empty result) when every member failed
  // parse, so exactly one of complete/reject terminates each batch.
  using CompleteFn = std::function<void(const emu::BatchResult& result,
                                        const std::vector<size_t>& emulated)>;
  using RejectFn = std::function<void(PoolRejectReason reason,
                                      const std::vector<size_t>& affected)>;
  using ParseErrorFn =
      std::function<void(size_t index, const std::string& error)>;

  // `farm_template` is cloned per farm with farm_id = 0..num_farms-1 and the
  // pool's fault plan attached; every farm runs in-process (LocalFarmBackend).
  // `runtime` hosts the dispatch tasks; null makes the pool own a private
  // runtime sized num_farms + 1 (standalone/test construction).
  FarmPool(const android::ApiUniverse& universe, FarmPoolConfig config,
           const emu::FarmConfig& farm_template, rt::Runtime* runtime = nullptr);

  // Generalized form: one serialized dispatch queue per backend, local and
  // remote freely mixed. Remote backends report connection-health transitions
  // that drive the breaker directly (force-open on loss, probe-eligible on
  // reconnect). config.num_farms is overridden by backends.size().
  FarmPool(FarmPoolConfig config,
           std::vector<std::unique_ptr<fabric::FarmBackend>> backends,
           rt::Runtime* runtime = nullptr);
  ~FarmPool();

  FarmPool(const FarmPool&) = delete;
  FarmPool& operator=(const FarmPool&) = delete;

  // Routes the batch to a healthy farm. If none is available the reject
  // callback fires synchronously (visible degradation, never a hang). Returns
  // false only when the pool is closed (no callback has fired). `traces`
  // carries one TraceContext per blob index (the slot leader's); each farm
  // attempt records a sibling `farm` span into every sampled one, so a
  // failed-over batch shows every farm it touched.
  bool Submit(std::vector<ingest::ApkBlob> blobs,
              std::shared_ptr<const ModelSnapshot> snapshot, uint64_t affinity,
              CompleteFn on_complete, RejectFn on_reject,
              ParseErrorFn on_parse_error = nullptr,
              std::vector<obs::TraceContext> traces = {});

  // Stops admission, executes everything still queued (retries included),
  // and waits until no dispatch task is active — after Close() returns, the
  // pool will never post to the runtime again (the service's license to shut
  // the runtime down). Idempotent; the destructor calls it.
  void Close();

  size_t num_farms() const { return backends_.size(); }
  FarmPoolStats stats() const;
  size_t healthy_farms() const;

  // Batches queued or executing across all farms — the downstream backlog
  // the admission governor folds into its queue-depth input (the shard
  // queues alone go shallow the moment the scheduler keeps up, even while
  // the farms drown).
  size_t ApproxBacklogBatches() const;

 private:
  struct PoolBatch {
    std::vector<ingest::ApkBlob> blobs;  // Released once the parse stage ran.
    bool parsed = false;
    std::vector<apk::ApkFile> apks;  // Parse successes, batch order.
    std::vector<size_t> emulated;    // Original blob index per apks entry.
    size_t total_items = 0;          // Blobs at submit time.
    std::shared_ptr<const ModelSnapshot> snapshot;
    uint64_t affinity = 0;
    std::vector<char> tried;  // One flag per farm.
    size_t attempts = 0;      // Farms this batch has faulted on.
    CompleteFn on_complete;
    RejectFn on_reject;
    ParseErrorFn on_parse_error;
    std::vector<obs::TraceContext> traces;  // One per blob index (slot leader).

    // Indices a rejection applies to: everything before the parse stage ran,
    // only the parse survivors after.
    std::vector<size_t> AffectedIndices() const;
  };

  struct FarmHealth {
    BreakerState state = BreakerState::kClosed;
    size_t consecutive_failures = 0;
    Clock::time_point open_until{};
    uint64_t breaker_opens = 0;
    // Set while the backend reports its connection lost. Pins open_until at
    // time_point::max() so the breaker never half-open-probes a dead link;
    // reconnect clears it and makes the breaker probe-eligible immediately.
    bool conn_lost = false;
  };

  // Posts a dispatch task for `farm_index` unless one is already active.
  // Every path that makes a farm's queue non-empty calls this, so a farm has
  // a task in flight exactly while it has (or is executing) work.
  void ScheduleFarmLocked(size_t farm_index);
  // The dispatch task: executes batches off the farm's queue until it is
  // empty, then deactivates. Runs on a runtime worker.
  void RunFarm(size_t farm_index);
  // Parse stage: runs once per batch on the first dispatch task that dequeues
  // it, outside mu_. The per-blob ParseApk calls fan out over the runtime:
  // the dispatch task and up to workers-1 helper tasks claim indices from a
  // shared counter, and the dispatch task waits only for parses already
  // claimed, so a runtime with every worker busy degrades to a serial parse
  // instead of a deadlock. Results are then assembled in index order, so
  // apks/emulated and the on_parse_error calls keep ascending batch order.
  // Drops the blob handles (the pool keeps only the parsed ApkFiles).
  void ParseStage(PoolBatch& batch);
  // All *Locked methods require mu_.
  std::optional<size_t> RouteLocked(const PoolBatch& batch);
  void RecordSuccessLocked(size_t farm_index, const emu::BatchResult& result,
                           bool was_retry);
  void RecordFaultLocked(size_t farm_index, bool transport_fault);
  size_t HealthyFarmsLocked() const;
  void PublishHealthGaugeLocked() const;
  // Breaker hook for backend connection-health transitions; called from
  // backend monitor threads (and from a dispatch thread when an rpc fails)
  // until Close() stops the monitors.
  void OnBackendHealth(size_t farm_index, fabric::FarmBackend::Health health,
                       const std::string& reason);

  FarmPoolConfig config_;
  std::vector<std::unique_ptr<fabric::FarmBackend>> backends_;
  std::unique_ptr<rt::Runtime> owned_runtime_;  // Only when none was passed.
  rt::Runtime* rt_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // Close() waits for the drain on it.
  std::vector<std::deque<std::unique_ptr<PoolBatch>>> queues_;  // Per farm.
  std::vector<char> in_flight_;                                 // Per farm.
  std::vector<char> worker_active_;  // Per farm: dispatch task posted/running.
  std::vector<FarmHealth> health_;
  std::vector<FarmStats> farm_stats_;
  uint64_t routed_ = 0;
  uint64_t faults_ = 0;
  uint64_t retries_ = 0;
  uint64_t rejected_batches_ = 0;
  size_t outstanding_ = 0;  // Batches accepted but not yet completed/rejected.
  bool closed_ = false;
};

}  // namespace apichecker::serve

#endif  // APICHECKER_SERVE_FARM_POOL_H_
