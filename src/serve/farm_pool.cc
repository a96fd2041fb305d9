#include "serve/farm_pool.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "obs/trace_collector.h"
#include "util/logging.h"
#include "util/strings.h"

namespace apichecker::serve {

const char* PoolRejectReasonName(PoolRejectReason reason) {
  switch (reason) {
    case PoolRejectReason::kNoHealthyFarms:
      return "no healthy farms";
    case PoolRejectReason::kRetryBudgetExhausted:
      return "retry budget exhausted";
    case PoolRejectReason::kClosed:
      return "farm pool closed";
  }
  return "unknown";
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

std::string FarmSeriesName(const char* base, uint32_t farm_id) {
  return obs::LabeledSeriesName(base, "farm", util::StrFormat("%u", farm_id));
}

std::string BreakerOpenSeriesName(uint32_t farm_id, const char* reason) {
  return obs::LabeledSeriesName2(obs::names::kServeFarmBreakerOpenTotal, "farm",
                                 util::StrFormat("%u", farm_id), "reason", reason);
}

std::vector<std::unique_ptr<fabric::FarmBackend>> MakeLocalFarmBackends(
    const android::ApiUniverse& universe, const FarmPoolConfig& config,
    const emu::FarmConfig& farm_template, rt::Runtime* runtime) {
  const size_t num_farms = std::max<size_t>(1, config.num_farms);
  std::vector<std::unique_ptr<fabric::FarmBackend>> backends;
  backends.reserve(num_farms);
  for (size_t i = 0; i < num_farms; ++i) {
    emu::FarmConfig farm_config = farm_template;
    farm_config.farm_id = static_cast<uint32_t>(i);
    farm_config.fault_plan = config.fault_plan;
    backends.push_back(
        std::make_unique<fabric::LocalFarmBackend>(universe, std::move(farm_config),
                                                   runtime));
  }
  return backends;
}

FarmPool::FarmPool(const android::ApiUniverse& universe, FarmPoolConfig config,
                   const emu::FarmConfig& farm_template, rt::Runtime* runtime)
    : FarmPool(config,
               MakeLocalFarmBackends(universe, config, farm_template, runtime),
               runtime) {}

FarmPool::FarmPool(FarmPoolConfig config,
                   std::vector<std::unique_ptr<fabric::FarmBackend>> backends,
                   rt::Runtime* runtime)
    : config_(config), backends_(std::move(backends)) {
  const size_t num_farms = backends_.size();
  config_.num_farms = num_farms;
  config_.max_attempts = std::max<size_t>(1, config_.max_attempts);
  config_.breaker_failure_streak = std::max<size_t>(1, config_.breaker_failure_streak);

  if (runtime == nullptr) {
    // Standalone construction (tests, benches): a private runtime with one
    // worker per farm plus one spare keeps M farms executing concurrently.
    owned_runtime_ =
        std::make_unique<rt::Runtime>(rt::RuntimeOptions{num_farms + 1});
    runtime = owned_runtime_.get();
  }
  rt_ = runtime;

  queues_.resize(num_farms);
  in_flight_.assign(num_farms, 0);
  worker_active_.assign(num_farms, 0);
  health_.resize(num_farms);
  farm_stats_.resize(num_farms);
  for (size_t i = 0; i < num_farms; ++i) {
    farm_stats_[i].farm_id = static_cast<uint32_t>(i);
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  metrics.gauge(obs::names::kServeFarmPoolSize).Set(static_cast<double>(num_farms));
  metrics.gauge(obs::names::kServeFarmHealthy).Set(static_cast<double>(num_farms));

  // Health listeners before any dispatch can run: a remote backend may report
  // its first connection-loss transition the moment its monitor starts
  // probing.
  for (size_t i = 0; i < num_farms; ++i) {
    backends_[i]->SetHealthListener(
        [this, i](fabric::FarmBackend::Health health, const std::string& reason) {
          OnBackendHealth(i, health, reason);
        });
  }
}

FarmPool::~FarmPool() { Close(); }

void FarmPool::Close() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    // Everything still queued (retries included) has an active dispatch task
    // by construction — every push schedules one. Wait until the last task
    // deactivates; from then on the pool never posts to the runtime again.
    cv_.wait(lock, [&] {
      if (outstanding_ != 0) {
        return false;
      }
      for (char active : worker_active_) {
        if (active) {
          return false;
        }
      }
      return true;
    });
  }
  // Stop backend monitors only after the drain: the health listeners they
  // fire lock mu_, which must outlive them (member order destroys mu_ before
  // backends_). After StopMonitor returns no listener runs again.
  for (auto& backend : backends_) {
    backend->StopMonitor();
  }
  if (owned_runtime_ != nullptr) {
    owned_runtime_->Shutdown();
  }
}

void FarmPool::ScheduleFarmLocked(size_t farm_index) {
  if (worker_active_[farm_index] || queues_[farm_index].empty()) {
    return;
  }
  worker_active_[farm_index] = 1;
  rt_->Post([this, farm_index] { RunFarm(farm_index); });
}

size_t FarmPool::HealthyFarmsLocked() const {
  size_t healthy = 0;
  for (const FarmHealth& h : health_) {
    healthy += h.state == BreakerState::kClosed ? 1 : 0;
  }
  return healthy;
}

void FarmPool::PublishHealthGaugeLocked() const {
  obs::MetricsRegistry::Default()
      .gauge(obs::names::kServeFarmHealthy)
      .Set(static_cast<double>(HealthyFarmsLocked()));
}

size_t FarmPool::healthy_farms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HealthyFarmsLocked();
}

std::optional<size_t> FarmPool::RouteLocked(const PoolBatch& batch) {
  const Clock::time_point now = Clock::now();
  // Two passes: closed breakers first; a cooled-down open breaker is only
  // used when no fully healthy farm remains, and then as a single half-open
  // probe. Within a pass: least loaded wins, affinity breaks ties.
  auto pick = [&](bool probe_pass) -> std::optional<size_t> {
    size_t best_load = std::numeric_limits<size_t>::max();
    std::vector<size_t> candidates;
    for (size_t i = 0; i < backends_.size(); ++i) {
      if (batch.tried[i]) {
        continue;
      }
      const FarmHealth& h = health_[i];
      if (!probe_pass ? h.state != BreakerState::kClosed
                      : h.state != BreakerState::kOpen || now < h.open_until) {
        continue;
      }
      const size_t load = queues_[i].size() + (in_flight_[i] ? 1 : 0);
      if (load < best_load) {
        best_load = load;
        candidates.clear();
      }
      if (load == best_load) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) {
      return std::nullopt;
    }
    return candidates[batch.affinity % candidates.size()];
  };

  if (auto farm = pick(/*probe_pass=*/false)) {
    return farm;
  }
  if (auto farm = pick(/*probe_pass=*/true)) {
    health_[*farm].state = BreakerState::kHalfOpen;
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
    metrics.counter(obs::names::kServeFarmBreakerReprobeTotal).Increment();
    metrics.counter(FarmSeriesName(obs::names::kServeFarmBreakerReprobeTotal,
                                   farm_stats_[*farm].farm_id))
        .Increment();
    return farm;
  }
  return std::nullopt;
}

void FarmPool::RecordSuccessLocked(size_t farm_index, const emu::BatchResult& result,
                                   bool was_retry) {
  FarmHealth& h = health_[farm_index];
  const bool was_unhealthy = h.state != BreakerState::kClosed;
  h.consecutive_failures = 0;
  h.state = BreakerState::kClosed;
  h.conn_lost = false;  // A completed batch proves the link is up.
  if (was_unhealthy) {
    APICHECKER_SLOG(Info, "serve.farm_pool.breaker_closed")
        .With("farm", farm_stats_[farm_index].farm_id);
    PublishHealthGaugeLocked();
  }
  FarmStats& stats = farm_stats_[farm_index];
  ++stats.batches_completed;
  stats.retries_absorbed += was_retry ? 1 : 0;
  stats.busy_minutes += result.makespan_minutes;
}

void FarmPool::RecordFaultLocked(size_t farm_index, bool transport_fault) {
  FarmHealth& h = health_[farm_index];
  FarmStats& stats = farm_stats_[farm_index];
  ++stats.faults;
  ++faults_;
  ++h.consecutive_failures;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  metrics.counter(obs::names::kServeFarmFaultsTotal).Increment();
  metrics.counter(FarmSeriesName(obs::names::kServeFarmFaultsTotal, stats.farm_id))
      .Increment();

  const bool reopen = h.state == BreakerState::kHalfOpen;  // Probe failed.
  const bool trip = h.state == BreakerState::kClosed &&
                    h.consecutive_failures >= config_.breaker_failure_streak;
  if (reopen || trip) {
    h.state = BreakerState::kOpen;
    // While the backend reports the connection lost, the cooldown clock is
    // meaningless — only a reconnect (OnBackendHealth kRestored) re-arms the
    // half-open probe.
    h.open_until = h.conn_lost ? Clock::time_point::max()
                               : Clock::now() + config_.breaker_cooldown;
    ++h.breaker_opens;
    ++stats.breaker_opens;
    const char* reason = transport_fault ? "connection_loss" : "fault";
    if (transport_fault) {
      ++stats.breaker_opens_conn;
    } else {
      ++stats.breaker_opens_fault;
    }
    metrics.counter(obs::names::kServeFarmBreakerOpenTotal).Increment();
    metrics
        .counter(FarmSeriesName(obs::names::kServeFarmBreakerOpenTotal, stats.farm_id))
        .Increment();
    metrics.counter(BreakerOpenSeriesName(stats.farm_id, reason)).Increment();
    APICHECKER_SLOG(Warning, "serve.farm_pool.breaker_open")
        .With("farm", stats.farm_id)
        .With("streak", h.consecutive_failures)
        .With("reason", reason)
        .With("reprobe", reopen);
    PublishHealthGaugeLocked();
  }
}

void FarmPool::OnBackendHealth(size_t farm_index, fabric::FarmBackend::Health health,
                               const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  FarmHealth& h = health_[farm_index];
  FarmStats& stats = farm_stats_[farm_index];
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  if (health == fabric::FarmBackend::Health::kLost) {
    if (!h.conn_lost) {
      h.conn_lost = true;
      ++h.breaker_opens;
      ++stats.breaker_opens;
      ++stats.breaker_opens_conn;
      metrics.counter(obs::names::kServeFarmBreakerOpenTotal).Increment();
      metrics
          .counter(
              FarmSeriesName(obs::names::kServeFarmBreakerOpenTotal, stats.farm_id))
          .Increment();
      metrics.counter(BreakerOpenSeriesName(stats.farm_id, "connection_loss"))
          .Increment();
      APICHECKER_SLOG(Warning, "serve.farm_pool.conn_lost")
          .With("farm", stats.farm_id)
          .With("reason", reason);
    }
    // Force-open: no cooldown while the link is down.
    h.state = BreakerState::kOpen;
    h.open_until = Clock::time_point::max();
    h.consecutive_failures = 0;
    PublishHealthGaugeLocked();
  } else {
    h.conn_lost = false;
    if (h.state == BreakerState::kOpen) {
      // Probe-eligible immediately: the next routed batch is the half-open
      // probe that decides whether the reconnected worker re-enters service.
      h.open_until = Clock::now();
    }
    APICHECKER_SLOG(Info, "serve.farm_pool.conn_restored")
        .With("farm", stats.farm_id)
        .With("reason", reason);
  }
}

std::vector<size_t> FarmPool::PoolBatch::AffectedIndices() const {
  if (parsed) {
    return emulated;
  }
  std::vector<size_t> all(total_items);
  for (size_t i = 0; i < total_items; ++i) {
    all[i] = i;
  }
  return all;
}

void FarmPool::ParseStage(PoolBatch& batch) {
  const size_t total = batch.blobs.size();
  std::vector<std::optional<util::Result<apk::ApkFile>>> results(total);
  obs::Histogram& parse_ms =
      obs::MetricsRegistry::Default().histogram(obs::names::kIngestParseStageMs);
  rt_->ParallelFor(total, [&](size_t i) {
    const Clock::time_point start = Clock::now();
    results[i].emplace(apk::ParseApk(batch.blobs[i].bytes()));
    parse_ms.Observe(
        std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  });

  batch.apks.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    util::Result<apk::ApkFile>& parsed = *results[i];
    if (parsed.ok()) {
      batch.apks.push_back(std::move(*parsed));
      batch.emulated.push_back(i);
    } else if (batch.on_parse_error) {
      batch.on_parse_error(i, parsed.error());
    }
  }
  batch.parsed = true;
  // The bytes are never needed again (retries reuse the parsed ApkFiles).
  batch.blobs.clear();
}

bool FarmPool::Submit(std::vector<ingest::ApkBlob> blobs,
                      std::shared_ptr<const ModelSnapshot> snapshot,
                      uint64_t affinity, CompleteFn on_complete, RejectFn on_reject,
                      ParseErrorFn on_parse_error,
                      std::vector<obs::TraceContext> traces) {
  auto batch = std::make_unique<PoolBatch>();
  batch->blobs = std::move(blobs);
  batch->total_items = batch->blobs.size();
  batch->snapshot = std::move(snapshot);
  batch->affinity = affinity;
  batch->tried.assign(backends_.size(), 0);
  batch->on_complete = std::move(on_complete);
  batch->on_reject = std::move(on_reject);
  batch->on_parse_error = std::move(on_parse_error);
  batch->traces = std::move(traces);

  RejectFn reject_now;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    std::optional<size_t> target = RouteLocked(*batch);
    if (!target) {
      ++rejected_batches_;
      reject_now = std::move(batch->on_reject);
    } else {
      ++routed_;
      ++outstanding_;
      obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
      metrics.counter(obs::names::kServeFarmBatchesRoutedTotal).Increment();
      metrics
          .counter(FarmSeriesName(obs::names::kServeFarmBatchesRoutedTotal,
                                  farm_stats_[*target].farm_id))
          .Increment();
      queues_[*target].push_back(std::move(batch));
      ScheduleFarmLocked(*target);
    }
  }
  if (reject_now) {
    // The per-submission rejected_unhealthy metric is the caller's to count
    // (the pool only sees batches); we track batch-level rejects in stats().
    // Nothing parsed yet, so every index is affected.
    reject_now(PoolRejectReason::kNoHealthyFarms, batch->AffectedIndices());
    return true;
  }
  return true;
}

void FarmPool::RunFarm(size_t farm_index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queues_[farm_index].empty()) {
      // Deactivate, then wake a Close() waiting on the drain. The next push
      // to this farm posts a fresh task. Notify under mu_: once this task
      // lets go of mu_, Close() may return and the pool (cv_ with it) may be
      // destroyed while the runtime, which the pool need not own, lives on.
      worker_active_[farm_index] = 0;
      cv_.notify_all();
      return;
    }
    std::unique_ptr<PoolBatch> batch = std::move(queues_[farm_index].front());
    queues_[farm_index].pop_front();
    const size_t depth_at_entry = queues_[farm_index].size();
    in_flight_[farm_index] = 1;
    lock.unlock();
    const Clock::time_point attempt_start = Clock::now();

    // Parse stage (first attempt only): the blobs become ApkFiles here, on a
    // pool worker — never on the submitter or scheduler thread. Failover
    // retries reuse the cached parse.
    if (!batch->parsed) {
      obs::TraceSpan parse_span("serve.farm_pool.parse");
      ParseStage(*batch);
    }

    if (batch->apks.empty()) {
      // Every member failed the parse stage (each already resolved through
      // on_parse_error). Terminate the batch without consuming a farm run.
      lock.lock();
      in_flight_[farm_index] = 0;
      --outstanding_;
      const bool drained = closed_ && outstanding_ == 0;
      lock.unlock();
      batch->on_complete(emu::BatchResult{}, {});
      batch.reset();
      if (drained) {
        cv_.notify_all();
      }
      lock.lock();
      continue;
    }

    emu::BatchResult result;
    {
      obs::TraceSpan span("serve.farm_pool.batch");
      result = backends_[farm_index]->ExecuteBatch(
          batch->apks, batch->snapshot->version, batch->snapshot->checker,
          batch->snapshot->tracked);
    }

    // Per-attempt farm span, recorded BEFORE any completion callback can seal
    // the trace (and before the fault path re-queues the batch). A failed-over
    // batch therefore shows one sibling `farm` span per farm it touched, the
    // faulted attempts flagged.
    if (!batch->traces.empty()) {
      obs::TraceCollector& collector = obs::TraceCollector::Default();
      obs::StageSpan span;
      span.stage = obs::stages::kFarm;
      span.label =
          util::StrFormat("farm=%u", farm_stats_[farm_index].farm_id);
      span.start_ms = collector.ToEpochMs(attempt_start);
      span.duration_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - attempt_start)
              .count();
      span.queue_depth = depth_at_entry;
      span.fault = result.farm_fault;
      for (size_t idx : batch->emulated) {
        if (idx < batch->traces.size() && batch->traces[idx].sampled()) {
          collector.Record(batch->traces[idx].trace_id, span);
        }
      }
      // Remote attempts additionally record the wire time as a sibling span:
      // same stage (the breakdown partition is untouched), rpc-prefixed
      // label, so a trace shows how much of a farm attempt was socket + model
      // sync + remote execution vs local parse/dispatch overhead.
      const double rpc_ms = backends_[farm_index]->last_rpc_ms();
      if (rpc_ms > 0.0 && !result.farm_fault) {
        obs::StageSpan rpc_span;
        rpc_span.stage = obs::stages::kFarm;
        rpc_span.label =
            util::StrFormat("rpc farm=%u", farm_stats_[farm_index].farm_id);
        rpc_span.start_ms = span.start_ms;
        rpc_span.duration_ms = rpc_ms;
        rpc_span.queue_depth = depth_at_entry;
        for (size_t idx : batch->emulated) {
          if (idx < batch->traces.size() && batch->traces[idx].sampled()) {
            collector.Record(batch->traces[idx].trace_id, rpc_span);
          }
        }
      }
    }

    lock.lock();
    in_flight_[farm_index] = 0;

    if (!result.farm_fault) {
      RecordSuccessLocked(farm_index, result, batch->attempts > 0);
      obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
      metrics.histogram(obs::names::kServeFarmMakespanMinutes)
          .Observe(result.makespan_minutes);
      metrics
          .histogram(FarmSeriesName(obs::names::kServeFarmMakespanMinutes,
                                    farm_stats_[farm_index].farm_id))
          .Observe(result.makespan_minutes);
      --outstanding_;
      const bool drained = closed_ && outstanding_ == 0;
      lock.unlock();
      batch->on_complete(result, batch->emulated);
      batch.reset();
      if (drained) {
        cv_.notify_all();
      }
      lock.lock();
      continue;
    }

    // Farm-level fault: mark health, then fail the batch over to a farm it
    // has not tried, bounded by max_attempts; otherwise reject visibly.
    APICHECKER_SLOG(Warning, "serve.farm_pool.fault")
        .With("farm", farm_stats_[farm_index].farm_id)
        .With("transport", result.transport_fault)
        .With("reason", result.fault_reason);
    RecordFaultLocked(farm_index, result.transport_fault);
    batch->tried[farm_index] = 1;
    ++batch->attempts;

    std::optional<size_t> target;
    PoolRejectReason reason = PoolRejectReason::kRetryBudgetExhausted;
    if (batch->attempts < config_.max_attempts) {
      target = RouteLocked(*batch);
      if (!target) {
        reason = PoolRejectReason::kNoHealthyFarms;
      }
    }

    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
    if (target) {
      ++retries_;
      ++routed_;
      metrics.counter(obs::names::kServeFarmRetriesTotal).Increment();
      metrics.counter(obs::names::kServeFarmBatchesRoutedTotal).Increment();
      metrics
          .counter(FarmSeriesName(obs::names::kServeFarmBatchesRoutedTotal,
                                  farm_stats_[*target].farm_id))
          .Increment();
      queues_[*target].push_back(std::move(batch));
      // No-op when the retry lands back on this farm (this task is still
      // active and loops around to it).
      ScheduleFarmLocked(*target);
    } else {
      ++rejected_batches_;
      --outstanding_;
      const bool drained = closed_ && outstanding_ == 0;
      lock.unlock();
      batch->on_reject(reason, batch->AffectedIndices());
      batch.reset();
      if (drained) {
        cv_.notify_all();
      }
      lock.lock();
    }
  }
}

size_t FarmPool::ApproxBacklogBatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t backlog = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    backlog += queues_[i].size() + static_cast<size_t>(in_flight_[i] != 0);
  }
  return backlog;
}

FarmPoolStats FarmPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FarmPoolStats stats;
  stats.farms = farm_stats_;
  for (size_t i = 0; i < stats.farms.size(); ++i) {
    stats.farms[i].breaker = health_[i].state;
    stats.farms[i].conn_lost = health_[i].conn_lost;
  }
  stats.batches_routed = routed_;
  stats.faults = faults_;
  stats.retries = retries_;
  stats.rejected_batches = rejected_batches_;
  stats.healthy_farms = HealthyFarmsLocked();
  return stats;
}

}  // namespace apichecker::serve
