#include "obs/bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace apichecker::obs {

BenchStage StageFromHistogram(const MetricsRegistry& registry,
                              const std::string& name) {
  const HistogramSnapshot snap =
      const_cast<MetricsRegistry&>(registry).histogram(name).Snapshot();
  BenchStage stage;
  stage.count = snap.count;
  stage.p50 = snap.Quantile(0.50);
  stage.p99 = snap.Quantile(0.99);
  return stage;
}

std::string BenchReportToJson(const BenchReport& report) {
  std::string out = "{\n";
  out += util::StrFormat("  \"schema\": \"%s\",\n", kBenchServeSchema);
  out += "  \"bench\": \"" + util::JsonEscape(report.bench) + "\",\n";
  out += "  \"git_rev\": \"" + util::JsonEscape(report.git_rev) + "\",\n";
  out += util::StrFormat("  \"submissions\": %llu,\n",
                         static_cast<unsigned long long>(report.submissions));
  out += util::StrFormat("  \"wall_s\": %.3f,\n", report.wall_s);
  out += util::StrFormat("  \"throughput_per_sec\": %.1f,\n",
                         report.throughput_per_sec);
  out += util::StrFormat("  \"baseline_throughput_per_sec\": %.1f,\n",
                         report.baseline_throughput_per_sec);
  out += util::StrFormat("  \"tracing_overhead_pct\": %.2f,\n",
                         report.tracing_overhead_pct);
  out += util::StrFormat("  \"fabric_throughput_per_sec\": %.1f,\n",
                         report.fabric_throughput_per_sec);
  out += util::StrFormat("  \"fabric_dispatch_overhead_pct\": %.2f,\n",
                         report.fabric_dispatch_overhead_pct);
  out += util::StrFormat("  \"sample_rate\": %.4f,\n", report.sample_rate);
  out += util::StrFormat("  \"traces_completed\": %llu,\n",
                         static_cast<unsigned long long>(report.traces_completed));
  out += util::StrFormat("  \"peak_rss_mb\": %.1f,\n", report.peak_rss_mb);
  out += util::StrFormat("  \"peak_blob_pool_mb\": %.2f,\n",
                         report.peak_blob_pool_mb);
  out += util::StrFormat("  \"storm_interactive_p99_ms\": %.2f,\n",
                         report.storm_interactive_p99_ms);
  out += util::StrFormat("  \"storm_interactive_slo_ms\": %.1f,\n",
                         report.storm_interactive_slo_ms);
  out += util::StrFormat(
      "  \"storm_bulk_completed\": %llu,\n",
      static_cast<unsigned long long>(report.storm_bulk_completed));
  out += util::StrFormat(
      "  \"storm_bulk_baseline_completed\": %llu,\n",
      static_cast<unsigned long long>(report.storm_bulk_baseline_completed));
  out += util::StrFormat("  \"storm_bulk_completed_floor\": %.1f,\n",
                         report.storm_bulk_completed_floor);
  out += util::StrFormat("  \"storm_shed_total\": %llu,\n",
                         static_cast<unsigned long long>(report.storm_shed_total));
  out += util::StrFormat("  \"storm_peak_blob_pool_mb\": %.2f,\n",
                         report.storm_peak_blob_pool_mb);
  out += util::StrFormat("  \"storm_spill_watermark_mb\": %.2f,\n",
                         report.storm_spill_watermark_mb);
  out += util::StrFormat("  \"upload_throughput_per_sec\": %.1f,\n",
                         report.upload_throughput_per_sec);
  out += util::StrFormat("  \"upload_inmemory_throughput_per_sec\": %.1f,\n",
                         report.upload_inmemory_throughput_per_sec);
  out += util::StrFormat("  \"upload_admission_overhead_pct\": %.2f,\n",
                         report.upload_admission_overhead_pct);
  out += util::StrFormat("  \"upload_admission_p99_ms\": %.2f,\n",
                         report.upload_admission_p99_ms);
  out += util::StrFormat("  \"upload_resolved\": %llu,\n",
                         static_cast<unsigned long long>(report.upload_resolved));
  out += util::StrFormat("  \"rt_tasks_total\": %llu,\n",
                         static_cast<unsigned long long>(report.rt_tasks_total));
  out += util::StrFormat("  \"rt_tasks_per_sec\": %.1f,\n",
                         report.rt_tasks_per_sec);
  out += util::StrFormat("  \"rt_steal_ratio\": %.4f,\n",
                         report.rt_steal_ratio);
  out += util::StrFormat("  \"rt_timer_lag_p99_ms\": %.3f,\n",
                         report.rt_timer_lag_p99_ms);
  out += util::StrFormat(
      "  \"rt_process_threads_peak\": %llu,\n",
      static_cast<unsigned long long>(report.rt_process_threads_peak));
  out += "  \"stages\": {";
  const char* sep = "";
  for (const auto& [name, stage] : report.stages) {
    out += sep;
    out += "\n    \"" + util::JsonEscape(name) + "\": ";
    out += util::StrFormat("{\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"count\": %llu}",
                           stage.p50, stage.p99,
                           static_cast<unsigned long long>(stage.count));
    sep = ",";
  }
  out += "\n  }\n}\n";
  return out;
}

util::Result<bool> WriteBenchReport(const std::string& path,
                                    const BenchReport& report) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return util::Err("cannot open bench report temp file: " + tmp);
    }
    out << BenchReportToJson(report);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return util::Err("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Err("cannot publish bench report: " + path);
  }
  return true;
}

double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // Bytes.
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Kilobytes.
#endif
#else
  return 0.0;
#endif
}

std::string GitRevisionOrUnknown() {
  if (const char* env = std::getenv("APICHECKER_GIT_REV");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#if defined(__unix__) || defined(__APPLE__)
  if (FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    ::pclose(pipe);
    if (got) {
      std::string rev(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
      if (!rev.empty()) {
        return rev;
      }
    }
  }
#endif
  return "unknown";
}

}  // namespace apichecker::obs
