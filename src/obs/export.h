// Metric exporters: Prometheus text exposition and a JSON dump (plus a
// parser for the dump, so telemetry consumers — and the round-trip tests —
// can read it back without a JSON library), and a periodic reporter that
// flushes snapshots on a caller-provided timer host.

#ifndef APICHECKER_OBS_EXPORT_H_
#define APICHECKER_OBS_EXPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/result.h"

namespace apichecker::obs {

// Prometheus text exposition format (# HELP / # TYPE / samples).
std::string ToPrometheusText(const MetricsRegistry& registry);

// JSON dump: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
// Histograms carry count/sum/min/max, cumulative buckets, and p50/p90/p95/p99.
std::string ToJson(const MetricsRegistry& registry);

// Writes ToJson (or Prometheus text when `path` ends in ".prom") to `path`.
util::Result<bool> WriteMetricsFile(const std::string& path,
                                    const MetricsRegistry& registry);

// Parsed form of the JSON dump, for round-tripping and telemetry consumers.
struct ParsedHistogram {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::map<std::string, double> quantiles;  // "p50" -> value.
};

struct ParsedDump {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, ParsedHistogram> histograms;
};

util::Result<ParsedDump> ParseJsonDump(std::string_view json);

// Invokes `flush` every `interval` (and once on Stop). Typical use:
// periodically dump ToJson to a sidecar file during long runs.
//
// Each tick re-arms a one-shot timer on a caller-provided scheduler, so a
// process with a unified rt::Runtime spends zero threads on reporting; the
// host is a plain std::function so obs never depends on rt.
class PeriodicReporter {
 public:
  using FlushFn = std::function<void(const MetricsRegistry&)>;
  // Cancels a scheduled tick; true = the tick will never run. An empty
  // function means the host refused (it is shutting down).
  using CancelFn = std::function<bool()>;
  // Schedules `tick` to run once after `delay` (rt::Runtime::PostAfter
  // wrapped, or any equivalent). Must not run `tick` inline.
  using TimerHost =
      std::function<CancelFn(std::chrono::milliseconds delay, std::function<void()> tick)>;

  PeriodicReporter(std::chrono::milliseconds interval, FlushFn flush, TimerHost host,
                   MetricsRegistry& registry = MetricsRegistry::Default());
  ~PeriodicReporter();

  PeriodicReporter(const PeriodicReporter&) = delete;
  PeriodicReporter& operator=(const PeriodicReporter&) = delete;

  // Idempotent and fully serialized: the first caller retires the pending
  // tick and runs one final flush; any concurrent caller blocks until that
  // flush has completed, so no caller ever returns before the last snapshot
  // is out.
  void Stop();

  uint64_t flush_count() const { return flushes_.load(std::memory_order_relaxed); }

 private:
  void Tick();
  void ArmLocked();  // Requires mu_.

  std::chrono::milliseconds interval_;
  FlushFn flush_;
  MetricsRegistry& registry_;
  TimerHost host_;
  std::mutex mu_;
  std::condition_variable cv_;  // Signals tick_armed_ going false.
  bool stopping_ = false;
  bool tick_armed_ = false;  // A tick is scheduled or running.
  CancelFn cancel_tick_;     // Guarded by mu_.
  std::mutex stop_mu_;   // Serializes Stop(); held across the final flush.
  bool stopped_ = false; // Guarded by stop_mu_.
  std::atomic<uint64_t> flushes_{0};
};

}  // namespace apichecker::obs

#endif  // APICHECKER_OBS_EXPORT_H_
