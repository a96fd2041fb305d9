#include "serve/batch_scheduler.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ingest/apk_blob.h"
#include "market/review_pipeline.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace_collector.h"
#include "util/logging.h"

namespace apichecker::serve {

namespace {

double MsSince(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

// One emulation slot per distinct digest: the leader is parsed and emulated,
// followers (byte-identical batch members) resolve off the leader's verdict.
struct EmulationSlot {
  size_t leader;
  std::vector<size_t> followers;
};

// Everything the asynchronous pool completion needs to resolve the batch.
// Owned by a shared_ptr captured in both pool callbacks (exactly one fires).
struct BatchState {
  std::vector<PendingSubmission> batch;
  std::vector<EmulationSlot> slots;
  std::shared_ptr<const ModelSnapshot> snapshot;
  Clock::time_point assembled_at;
  Clock::time_point dispatched_at;  // Pool handoff; valid once dispatched.
};

// Per-slot stage timing measured on the pool completion path, consumed by
// resolve() to build the contiguous per-trace latency breakdown.
struct StageTimes {
  Clock::time_point farm_done;  // Reports ready == classify start.
  double classify_ms = 0.0;
  double store_ms = -1.0;       // < 0: no store append happened.
};

}  // namespace

BatchScheduler::BatchScheduler(BatchSchedulerConfig config, rt::Runtime& runtime,
                               SubmissionShards& shards, DigestCache& cache,
                               ServingModel& model, FarmPool& pool,
                               ServiceCounters& counters,
                               store::VerdictStore* store)
    : config_(config), runtime_(runtime), shards_(shards), cache_(cache),
      model_(model), pool_(pool), counters_(counters), store_(store) {
  if (config_.batch_size == 0) {
    config_.batch_size = 1;
  }
}

BatchScheduler::~BatchScheduler() {
  if (started_.load(std::memory_order_acquire) && !drained()) {
    shards_.Close();
    Join();
  }
}

bool BatchScheduler::drained() const {
  std::lock_guard<std::mutex> lock(join_mu_);
  return drained_;
}

void BatchScheduler::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) {
    return;
  }
  strand_ = runtime_.MakeStrand();
  shards_.SetPushListener([this] { SchedulePump(); });
  // Sweep once unconditionally: submissions admitted before Start (the
  // start_paused backlog) and a Close that raced the listener registration
  // both predate the listener.
  SchedulePump();
}

void BatchScheduler::Join() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  std::unique_lock<std::mutex> lock(join_mu_);
  join_cv_.wait(lock, [this] { return drained_; });
}

void BatchScheduler::SchedulePump() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  // Coalesce: many pushes, one queued pump. The pump clears the flag BEFORE
  // sweeping, so a push that lands mid-sweep queues a fresh pump instead of
  // being lost.
  if (pump_scheduled_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  strand_->Post([this] {
    // exchange (not store): reading the poster's flag write with acquire
    // order makes that poster's shard push visible to the sweep below.
    pump_scheduled_.exchange(false, std::memory_order_acq_rel);
    Pump();
  });
}

void BatchScheduler::Pump() {
  for (;;) {
    // Read the push counter BEFORE sweeping (same protocol as the shards'
    // blocking pop): a push that lands mid-sweep changes the counter, so the
    // drained check below re-sweeps instead of declaring victory early.
    const uint64_t seen = shards_.total_pushes();
    while (batch_.size() < config_.batch_size) {
      auto popped = shards_.TryPopAny();
      if (!popped) {
        break;
      }
      if (batch_.empty()) {
        linger_deadline_ = Clock::now() + config_.max_linger;
      }
      // SLO-aware linger: never linger past a member's deadline. A member
      // whose (class-SLO-derived) deadline is tighter than the configured
      // linger pulls the flush in, so a tight-SLO submission is dispatched —
      // or expired visibly — at its deadline instead of at linger
      // granularity.
      linger_deadline_ = std::min(linger_deadline_, popped->deadline);
      batch_.push_back(std::move(*popped));
    }
    if (batch_.size() >= config_.batch_size) {
      Flush();
      continue;  // The shards may hold another full batch already.
    }
    if (!batch_.empty()) {
      if (shards_.closed() || Clock::now() >= linger_deadline_) {
        // Closed shards never push again — lingering would only add latency.
        Flush();
        continue;
      }
      ArmLingerTimer();
      return;
    }
    if (!shards_.closed()) {
      return;  // Idle: the next push listener schedules the next pump.
    }
    if (shards_.total_pushes() == seen) {
      // Closed, empty sweep, and no push raced it: drained for good (pushes
      // fail after close, so no later pump can find work).
      linger_timer_.Cancel();
      ++timer_generation_;
      {
        std::lock_guard<std::mutex> lock(join_mu_);
        drained_ = true;
      }
      join_cv_.notify_all();
      return;
    }
    // Closed but a push landed mid-sweep: loop and re-sweep.
  }
}

void BatchScheduler::ArmLingerTimer() {
  if (timer_armed_ && armed_deadline_ == linger_deadline_ &&
      !linger_timer_.fired()) {
    return;  // Still pending at the right time; nothing to do.
  }
  linger_timer_.Cancel();
  const uint64_t generation = ++timer_generation_;
  timer_armed_ = true;
  armed_deadline_ = linger_deadline_;
  // The wheel callback runs on a runtime thread; it only bounces onto the
  // strand, where OnLingerTimer may touch batch state. The strand is held
  // alive by the capture; `this` stays valid because the service tears the
  // scheduler down before the runtime (documented teardown sequence).
  auto strand = strand_;
  linger_timer_ = runtime_.PostAt(linger_deadline_, [this, strand, generation] {
    strand->Post([this, generation] { OnLingerTimer(generation); });
  });
}

void BatchScheduler::OnLingerTimer(uint64_t generation) {
  if (generation != timer_generation_) {
    return;  // Stale: the batch it guarded was already flushed or re-armed.
  }
  timer_armed_ = false;
  if (!batch_.empty()) {
    Flush();
  }
  // The flush may have raced new pushes whose pump coalesced into a task that
  // already ran; sweep once more so nothing lingers unarmed.
  Pump();
}

void BatchScheduler::Flush() {
  linger_timer_.Cancel();
  ++timer_generation_;
  timer_armed_ = false;
  std::vector<PendingSubmission> batch = std::move(batch_);
  batch_.clear();
  if (batch.empty()) {
    return;
  }
  // Earliest-deadline-first assembly: triage (and therefore expiry,
  // cache-hit resolution, and slot-leader election) visits the tightest
  // deadlines first. No-deadline members (time_point::max) sort last; ties
  // keep the weighted-fair pop order.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const PendingSubmission& a, const PendingSubmission& b) {
                     return a.deadline < b.deadline;
                   });
  ExecuteBatch(std::move(batch));
}

void BatchScheduler::ExecuteBatch(std::vector<PendingSubmission> batch) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  metrics.counter(obs::names::kServeBatchesTotal).Increment();
  metrics.histogram(obs::names::kServeBatchSize)
      .Observe(static_cast<double>(batch.size()));
  metrics.gauge(obs::names::kServeQueueDepth)
      .Set(static_cast<double>(shards_.ApproxDepth()));
  counters_.batches.fetch_add(1, std::memory_order_relaxed);

  auto state = std::make_shared<BatchState>();
  state->batch = std::move(batch);
  // One snapshot for the whole batch: a concurrent hot-swap becomes visible
  // at the next batch boundary, never inside one.
  state->snapshot = model_.Acquire();
  state->assembled_at = Clock::now();

  // Resolution is invoked from the scheduler thread (triage) and from pool
  // worker threads (async completion); everything it touches is thread-safe.
  // `st` carries the completion path's per-slot stage timing (null for triage
  // and rejection paths); `dispatched` says the batch reached the pool, which
  // decides how post-pop time is attributed (batch vs farm stage).
  auto resolve = [this](const BatchState& s, PendingSubmission& pending,
                        VettingResult result, const StageTimes* st,
                        bool dispatched) {
    const Clock::time_point resolve_entry = Clock::now();
    obs::MetricsRegistry& m = obs::MetricsRegistry::Default();
    result.queue_ms = MsSince(pending.admitted_at, s.assembled_at);
    result.total_ms = MsSince(pending.admitted_at, resolve_entry);
    const size_t cls = static_cast<size_t>(pending.priority);
    m.histogram(obs::names::kServeE2eLatencyMs).Observe(result.total_ms);
    m.histogram(ClassSeriesName(obs::names::kServeE2eLatencyMs, pending.priority))
        .Observe(result.total_ms);
    switch (result.status) {
      case VetStatus::kOk:
        counters_.completed.fetch_add(1, std::memory_order_relaxed);
        counters_.completed_by_class[cls].fetch_add(1, std::memory_order_relaxed);
        m.counter(obs::names::kServeCompletedTotal).Increment();
        m.counter(ClassSeriesName(obs::names::kServeCompletedTotal,
                                  pending.priority))
            .Increment();
        market::RecordReviewOutcome(result.malicious
                                        ? market::ReviewOutcome::kRejectedByChecker
                                        : market::ReviewOutcome::kPublished);
        break;
      case VetStatus::kDeadlineExpired:
        counters_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        counters_.expired_by_class[cls].fetch_add(1, std::memory_order_relaxed);
        m.counter(obs::names::kServeDeadlineExpiredTotal).Increment();
        m.counter(ClassSeriesName(obs::names::kServeDeadlineExpiredTotal,
                                  pending.priority))
            .Increment();
        break;
      case VetStatus::kParseError:
        counters_.parse_errors.fetch_add(1, std::memory_order_relaxed);
        m.counter(obs::names::kServeParseErrorsTotal).Increment();
        break;
      case VetStatus::kRejectedUnhealthy:
        counters_.rejected_unhealthy.fetch_add(1, std::memory_order_relaxed);
        m.counter(obs::names::kServeFarmRejectedUnhealthyTotal).Increment();
        break;
      case VetStatus::kShedOverload:
        // Shedding happens at admission (VettingService::Submit), which does
        // its own accounting; a shed submission never reaches the scheduler.
        break;
      case VetStatus::kAbortedUpload:
        // Aborted uploads resolve inside the gateway before Submit() is ever
        // reached; one cannot flow through the scheduler.
        break;
    }

    if (pending.trace.sampled()) {
      // Build the contiguous latency partition admitted -> now over the stage
      // timestamps this submission accumulated. Each entry feeds its stage
      // histogram; the remainder is the resolve stage — so the stage sums
      // reconstruct the traced end-to-end latency exactly.
      obs::TraceCollector& collector = obs::TraceCollector::Default();
      const Clock::time_point end = Clock::now();
      const double total = MsSince(pending.admitted_at, end);
      std::vector<obs::StageMs> breakdown;
      auto push = [&breakdown](const char* stage, double ms) {
        breakdown.push_back({stage, std::max(0.0, ms)});
      };
      push(obs::stages::kSubmit, MsSince(pending.admitted_at, pending.enqueued_at));
      push(obs::stages::kShard, MsSince(pending.enqueued_at, pending.popped_at));
      if (dispatched) {
        push(obs::stages::kBatch, MsSince(pending.popped_at, s.dispatched_at));
        if (st != nullptr) {
          push(obs::stages::kFarm, MsSince(s.dispatched_at, st->farm_done));
          push(obs::stages::kClassify, st->classify_ms);
          if (st->store_ms >= 0.0) {
            push(obs::stages::kStore, st->store_ms);
          }
        } else {
          // Parse error, pool rejection, or in-batch follower: the whole
          // pool residency is farm time (the attempt spans the pool recorded
          // tell the detailed story, faults included).
          push(obs::stages::kFarm, MsSince(s.dispatched_at, resolve_entry));
        }
      } else {
        // Triage-resolved (deadline, cache hit): never dispatched.
        push(obs::stages::kBatch, MsSince(pending.popped_at, resolve_entry));
      }
      double consumed = 0.0;
      for (const obs::StageMs& entry : breakdown) {
        consumed += entry.ms;
      }
      push(obs::stages::kResolve, total - consumed);

      const double base_ms = collector.ToEpochMs(pending.admitted_at);
      obs::StageSpan shard_span;
      shard_span.stage = obs::stages::kShard;
      shard_span.start_ms = collector.ToEpochMs(pending.enqueued_at);
      shard_span.duration_ms = MsSince(pending.enqueued_at, pending.popped_at);
      collector.Record(pending.trace.trace_id, shard_span);
      if (!dispatched) {
        obs::StageSpan batch_span;
        batch_span.stage = obs::stages::kBatch;
        batch_span.start_ms = collector.ToEpochMs(pending.popped_at);
        batch_span.duration_ms = MsSince(pending.popped_at, resolve_entry);
        batch_span.queue_depth = s.batch.size();
        collector.Record(pending.trace.trace_id, batch_span);
      }
      if (st != nullptr) {
        obs::StageSpan classify_span;
        classify_span.stage = obs::stages::kClassify;
        classify_span.start_ms = collector.ToEpochMs(st->farm_done);
        classify_span.duration_ms = st->classify_ms;
        collector.Record(pending.trace.trace_id, classify_span);
        if (st->store_ms >= 0.0) {
          obs::StageSpan store_span;
          store_span.stage = obs::stages::kStore;
          store_span.start_ms = classify_span.start_ms + st->classify_ms;
          store_span.duration_ms = st->store_ms;
          collector.Record(pending.trace.trace_id, store_span);
        }
      }
      obs::StageSpan resolve_span;
      resolve_span.stage = obs::stages::kResolve;
      resolve_span.start_ms = base_ms + consumed;
      resolve_span.duration_ms = std::max(0.0, total - consumed);
      collector.Record(pending.trace.trace_id, resolve_span);

      obs::ObserveStageBreakdown(breakdown, total);
      collector.Complete(pending.trace.trace_id, VetStatusName(result.status),
                         result.from_cache, std::move(breakdown), total);
    }

    DeliverResult(pending, std::move(result));
  };

  // Triage on the scheduler thread: expired deadlines and digest-cache hits
  // resolve without touching an emulator; byte-identical members of the same
  // batch emulate once. Parsing is NOT done here — the pool's first worker to
  // pick the batch up runs it (off the scheduler, off the submitter), so the
  // scheduler goes straight back to assembling the next batch.
  obs::Histogram& queue_wait = metrics.histogram(obs::names::kServeQueueWaitMs);
  std::vector<ingest::ApkBlob> blobs;  // One per slot leader; refcount bumps only.
  std::unordered_map<std::string, size_t> digest_to_slot;

  for (size_t i = 0; i < state->batch.size(); ++i) {
    PendingSubmission& pending = state->batch[i];
    queue_wait.Observe(MsSince(pending.admitted_at, state->assembled_at));

    if (state->assembled_at >= pending.deadline) {
      VettingResult result;
      result.status = VetStatus::kDeadlineExpired;
      result.model_version = state->snapshot->version;
      resolve(*state, pending, std::move(result), nullptr, false);
      continue;
    }

    if (auto cached = cache_.Get(pending.digest(), state->snapshot->version)) {
      VettingResult result;
      result.malicious = cached->malicious;
      result.score = cached->score;
      result.from_cache = true;
      result.model_version = state->snapshot->version;
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      metrics.counter(obs::names::kServeCacheHitsTotal).Increment();
      if (cached->warm) {
        // The verdict came from the persistent store's recovery replay, not
        // from any emulation this process ran — the warm start paid off.
        counters_.warm_start_hits.fetch_add(1, std::memory_order_relaxed);
        metrics.counter(obs::names::kStoreWarmStartHitsTotal).Increment();
      }
      resolve(*state, pending, std::move(result), nullptr, false);
      continue;
    }
    metrics.counter(obs::names::kServeCacheMissesTotal).Increment();

    if (auto it = digest_to_slot.find(pending.digest()); it != digest_to_slot.end()) {
      state->slots[it->second].followers.push_back(i);
      continue;
    }
    digest_to_slot.emplace(pending.digest(), state->slots.size());
    state->slots.push_back({i, {}});
    blobs.push_back(pending.blob);
  }

  if (blobs.empty()) {
    return;
  }

  // Hand the blobs to the pool; the parse stage and classification both
  // happen on the pool worker that picks the batch up. Affinity-hash the
  // first leader's digest so byte-similar traffic prefers the same farm when
  // loads tie.
  const uint64_t affinity =
      std::hash<std::string>{}(state->batch[state->slots.front().leader].digest());

  // Slot index s == blob index s in the vector handed to the pool.
  auto on_parse_error = [this, state, resolve](size_t slot_index,
                                               const std::string& error) {
    (void)this;
    const EmulationSlot& slot = state->slots[slot_index];
    VettingResult result;
    result.status = VetStatus::kParseError;
    result.error = error;
    result.model_version = state->snapshot->version;
    resolve(*state, state->batch[slot.leader], VettingResult(result), nullptr,
            true);
    for (size_t follower_idx : slot.followers) {
      resolve(*state, state->batch[follower_idx], VettingResult(result), nullptr,
              true);
    }
  };

  auto on_complete = [this, state, resolve](const emu::BatchResult& farm_result,
                                            const std::vector<size_t>& emulated) {
    for (size_t j = 0; j < emulated.size(); ++j) {
      const EmulationSlot& slot = state->slots[emulated[j]];
      PendingSubmission& leader = state->batch[slot.leader];
      StageTimes times;
      times.farm_done = Clock::now();
      const core::ApiChecker::Verdict verdict =
          state->snapshot->checker.Classify(farm_result.reports[j]);
      times.classify_ms = MsSince(times.farm_done, Clock::now());
      cache_.Put(leader.digest(),
                 {state->snapshot->version, verdict.malicious, verdict.score});
      if (store_ != nullptr) {
        const Clock::time_point store_start = Clock::now();
        store::VerdictRecord record;
        record.digest = leader.digest();
        record.model_version = state->snapshot->version;
        record.malicious = verdict.malicious;
        record.score = verdict.score;
        record.timestamp_ms = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        auto appended = store_->Append(std::move(record));
        if (!appended.ok()) {
          // Persistence is best-effort from the serving path: the verdict is
          // already cached and resolving; a dead/faulted store must not take
          // submissions down with it.
          APICHECKER_LOG(Warning)
              << "verdict store append failed: " << appended.error();
        }
        times.store_ms = MsSince(store_start, Clock::now());
      }

      VettingResult result;
      result.malicious = verdict.malicious;
      result.score = verdict.score;
      result.model_version = state->snapshot->version;
      resolve(*state, leader, std::move(result), &times, true);

      for (size_t follower_idx : slot.followers) {
        VettingResult dup;
        dup.malicious = verdict.malicious;
        dup.score = verdict.score;
        dup.from_cache = true;  // Emulation skipped via in-batch dedup.
        dup.model_version = state->snapshot->version;
        counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::Default()
            .counter(obs::names::kServeCacheHitsTotal)
            .Increment();
        resolve(*state, state->batch[follower_idx], std::move(dup), nullptr,
                true);
      }
    }
  };

  auto on_reject = [this, state, resolve](PoolRejectReason reason,
                                          const std::vector<size_t>& affected) {
    (void)this;
    for (size_t slot_index : affected) {
      const EmulationSlot& slot = state->slots[slot_index];
      VettingResult result;
      result.status = VetStatus::kRejectedUnhealthy;
      result.error = PoolRejectReasonName(reason);
      result.model_version = state->snapshot->version;
      resolve(*state, state->batch[slot.leader], std::move(result), nullptr,
              true);
      for (size_t follower_idx : slot.followers) {
        VettingResult dup;
        dup.status = VetStatus::kRejectedUnhealthy;
        dup.error = PoolRejectReasonName(reason);
        dup.model_version = state->snapshot->version;
        resolve(*state, state->batch[follower_idx], std::move(dup), nullptr,
                true);
      }
    }
  };

  // Dispatch timestamp + per-member batch spans are recorded BEFORE the pool
  // handoff: a worker may complete the batch (sealing its traces) before
  // Submit() even returns, and a span recorded after Complete is dropped.
  state->dispatched_at = Clock::now();
  std::vector<obs::TraceContext> slot_traces;
  slot_traces.reserve(state->slots.size());
  {
    obs::TraceCollector& collector = obs::TraceCollector::Default();
    auto record_batch_span = [&](const PendingSubmission& member) {
      if (!member.trace.sampled()) {
        return;
      }
      obs::StageSpan span;
      span.stage = obs::stages::kBatch;
      span.start_ms = collector.ToEpochMs(member.popped_at);
      span.duration_ms = MsSince(member.popped_at, state->dispatched_at);
      span.queue_depth = state->batch.size();
      collector.Record(member.trace.trace_id, span);
    };
    for (const EmulationSlot& slot : state->slots) {
      slot_traces.push_back(state->batch[slot.leader].trace);
      record_batch_span(state->batch[slot.leader]);
      for (size_t follower_idx : slot.followers) {
        record_batch_span(state->batch[follower_idx]);
      }
    }
  }

  const size_t num_slots = state->slots.size();
  if (!pool_.Submit(std::move(blobs), state->snapshot, affinity, on_complete,
                    on_reject, on_parse_error, std::move(slot_traces))) {
    // Shutdown race: the pool closed before this batch reached it. Resolve
    // everything visibly rather than dropping it (nothing was parsed, so
    // every slot is affected).
    std::vector<size_t> all(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      all[s] = s;
    }
    on_reject(PoolRejectReason::kClosed, all);
  }
}

}  // namespace apichecker::serve
