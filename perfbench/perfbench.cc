// perfbench: end-to-end and per-layer benchmark of the vetting stack.
//
//   perfbench --workload <market_mix|small_fabric|upload_resubmit> --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench --workload W --seed N --list-inputs K
//
// One run: train the serving model and build the seeded inputs (untimed),
// compute the reference verdicts by replaying every base input through the
// layer functions, time kSetups restarts of the service in forked children
// (setup_s is the median), then measure a closed-loop capacity phase and, on
// the in-process workloads, an open-loop latency phase at a fixed arrival
// rate. Slices and restarts the hypervisor stole CPU from are left out, and
// the closed-loop figures count only the share the host let the guest run.
// Every verdict is checked against the reference; the ledger, gateway-drain and
// hot-swap invariants are checked after the timed window. --trace 1 repeats
// the live run and adds the traced replay, which supplies the per-layer
// timings. The last stdout line is the JSON result.
//
// The stack is driven only through its public entry points:
// VettingService::SubmitWithCallback, UploadClient::Upload against an
// IngestGateway, and FarmWorker.

#include <pthread.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <semaphore>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "android/api_universe.h"
#include "apk/apk.h"
#include "core/checker.h"
#include "core/model_store.h"
#include "core/study.h"
#include "fabric/remote_client.h"
#include "fabric/worker.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "ingest/stream_reader.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "replay.h"
#include "serve/service.h"
#include "store/verdict_store.h"
#include "synth/corpus.h"
#include "util/logging.h"
#include "util/sha1.h"
#include "util/strings.h"

namespace perfbench {
namespace {

namespace ac = apichecker;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using ac::serve::Priority;
using ac::serve::VetStatus;

// ---------------------------------------------------------------------------
// Workloads. Why each exists is in README.md; the numbers that shape the load
// (in-flight window, open-loop rate) are fixed here and quoted in
// BENCHMARK.json so a run never derives them from its own capacity.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  MixSpec mix;
  size_t small_bases;
  size_t fabric_workers;  // 0 = one in-process farm.
  bool gateway;           // Closed-loop uploads through an IngestGateway.
  size_t window;          // In-flight submissions in the capacity phase.
  double open_rate;       // Open-loop arrivals per second; 0 = no open loop.
};

constexpr size_t kMiB = 1u << 20;
constexpr WorkloadSpec kWorkloads[] = {
    {"market_mix",
     {.resubmits = 4, .interactive = 2, .corrupt_every_blocks = 6, .large_every = 16,
      .large_bytes = 8 * kMiB},
     1024, 0, false, 32, 100.0},
    {"small_fabric", {.interactive = 2}, 1024, 2, false, 64, 150.0},
    {"upload_resubmit", {.repeats = 8, .interactive = 2, .body_bytes = kMiB}, 16, 0, true, 4,
     0.0},
};

constexpr size_t kGenerators = 4;  // Load-generator threads (and connections).
constexpr size_t kSetups = 9;      // setup_s is the median over these.
constexpr size_t kBatch = 16;      // Service batch size (one per emulator).
constexpr size_t kUniverseApis = 25'000;  // ~30 KB synthetic APKs.
constexpr size_t kStudyApps = 600;
constexpr size_t kPrimedRecords = 2'048;  // Store contents a restart recovers.
constexpr uint64_t kCanarySeed = 0xca7a21e5;  // Fixed warm-up APKs.
constexpr auto kWarmup = std::chrono::milliseconds(1'000);
constexpr auto kLinger = std::chrono::milliseconds(5);

// Fatal set-up errors. _Exit: service threads may still be running, and
// static destructors must not race them.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

template <typename... Args>
std::string Fmt(const char* fmt, Args... args) {
  return ac::util::StrFormat(fmt, args...);
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

int64_t CpuNsOf(std::thread& thread) {
  clockid_t clock{};
  timespec ts{};
  if (pthread_getcpuclockid(thread.native_handle(), &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Linear-interpolated quantile; +inf samples (failed requests) sort last.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) {
    return values[hi];
  }
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Hypervisor steal. The host's CPUs are shared with other guests; while the
// hypervisor runs those, this guest's threads stall and every figure of the
// moment moves (at 15% steal, small_fabric's throughput dropped by a quarter).
// Each measured phase is cut into slices, and set-up into restarts, whose
// steal share of all CPU ticks is read from /proc/stat. A phase runs until
// it has its target of slices at or below kMaxSteal, or half as many again
// in all; its medians then use the target number of least-stolen slices.
// Steal is the host's state, not the program's, so it never makes a run
// incorrect: a run whose figures had to use a slice above kBusySteal says so
// in a NOTE line, beside the steal share of every slice.
// (Half again, not more, keeps a run on a busy host within its time budget.)
// ---------------------------------------------------------------------------

constexpr double kMaxSteal = 0.03;
constexpr double kBusySteal = 0.25;

size_t Limit(size_t target) { return target + target / 2; }

struct HostTicks {
  uint64_t total = 0;
  uint64_t busy = 0;  // user, nice, system, irq, softirq.
  uint64_t steal = 0;
};

// The aggregate line of /proc/stat: "cpu user nice system idle iowait irq
// softirq steal guest guest_nice"; guest time is already inside user.
HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  char line[512];
  if (std::fgets(line, sizeof(line), f) != nullptr && std::strncmp(line, "cpu ", 4) == 0) {
    char* at = line + 4;
    for (int field = 0; field < 8; ++field) {
      char* end = nullptr;
      const uint64_t value = std::strtoull(at, &end, 10);
      if (end == at) break;
      at = end;
      ticks.total += value;
      if (field == 0 || field == 1 || field == 2 || field == 5 || field == 6) ticks.busy += value;
      if (field == 7) ticks.steal = value;
    }
  }
  std::fclose(f);
  return ticks;
}

double StealShare(const HostTicks& a, const HostTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

// The share of the time this guest's vCPUs wanted to run that the host let
// them run: busy / (busy + steal). While the vCPUs are busy (the closed
// loop), it is the rate at which the guest's threads got through wall time,
// and wall time times this share is run time. Process CPU time (getrusage)
// already leaves steal out; run time does the same for wall-time figures. On
// mostly idle vCPUs the host still books steal against their wake-ups, and
// the share says little; those figures stay in wall time.
double RunShare(const HostTicks& a, const HostTicks& b) {
  const uint64_t busy = b.busy - a.busy, steal = b.steal - a.steal;
  return busy + steal > 0 ? static_cast<double>(busy) / static_cast<double>(busy + steal) : 1.0;
}

size_t CountClean(const std::vector<double>& steal) {
  return static_cast<size_t>(
      std::count_if(steal.begin(), steal.end(), [](double share) { return share <= kMaxSteal; }));
}

// Marks the `count` least-stolen entries of `steal`.
std::vector<bool> LeastStolen(const std::vector<double>& steal, size_t count) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> chosen(steal.size(), false);
  for (size_t i = 0; i < std::min(count, order.size()); ++i) chosen[order[i]] = true;
  return chosen;
}

// The largest steal share among the chosen entries.
double WorstChosen(const std::vector<double>& steal, const std::vector<bool>& chosen) {
  double worst = 0;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (chosen[i]) worst = std::max(worst, steal[i]);
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Resident-set and thread-count sampler (a load-generator-side thread; its
// CPU is subtracted from the service's).
// ---------------------------------------------------------------------------

class Sampler {
 public:
  // The baseline is the resident size when the sampler starts: after the
  // generated inputs were built.
  Sampler() : baseline_(ResidentBytes()) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        Sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
      Sample();
    }
  }
  // Peak since the previous call, above the baseline.
  double TakeWindowPeakMb() {
    const uint64_t peak = window_peak_.exchange(0);
    return static_cast<double>(peak - std::min(peak, baseline_)) / kMiB;
  }
  uint64_t ThreadsPeak() const { return threads_peak_.load(); }
  int64_t CpuNs() { return thread_.joinable() ? CpuNsOf(thread_) : 0; }

 private:
  static uint64_t ResidentBytes() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    unsigned long long size = 0, resident = 0;
    if (f != nullptr) {
      if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) {
        resident = 0;
      }
      std::fclose(f);
    }
    return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  }
  static uint64_t Threads() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    uint64_t threads = 0;
    if (f != nullptr) {
      char line[256];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "Threads:", 8) == 0) {
          threads = std::strtoull(line + 8, nullptr, 10);
          break;
        }
      }
      std::fclose(f);
    }
    return threads;
  }
  void Sample() {
    const uint64_t rss = ResidentBytes();
    uint64_t seen = window_peak_.load();
    while (rss > seen && !window_peak_.compare_exchange_weak(seen, rss)) {
    }
    const uint64_t threads = Threads();
    if (threads > threads_peak_.load()) threads_peak_.store(threads);
  }

  const uint64_t baseline_;
  std::atomic<uint64_t> window_peak_{0};
  std::atomic<uint64_t> threads_peak_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// The stack under test: universe, farm workers, service, gateway.
// ---------------------------------------------------------------------------

struct Stack {
  std::unique_ptr<ac::android::ApiUniverse> universe;
  std::vector<std::unique_ptr<ac::fabric::FarmWorker>> workers;
  std::unique_ptr<ac::serve::VettingService> service;
  std::unique_ptr<ac::gateway::IngestGateway> gateway;
  std::string gateway_endpoint;

  void Stop() {
    if (gateway) gateway->Stop();
    if (service) service->Shutdown();
    for (auto& worker : workers) worker->Stop();
  }
};

ac::android::UniverseConfig UniverseConfig() {
  ac::android::UniverseConfig config;
  config.num_apis = kUniverseApis;
  return config;
}

// Everything a set-up needs that is prepared before its clock starts.
struct SetupInputs {
  const WorkloadSpec* spec = nullptr;
  std::vector<uint8_t> model_blob;
  // Warm-up rounds of kBatch items per farm: the items, the set they come
  // from (for their reference verdicts), and the ingested blobs.
  std::vector<std::vector<Item>> warmup_items;
  std::vector<const InputSet*> warmup_sources;
  std::vector<std::vector<ac::ingest::ApkBlob>> warmup_rounds;
  fs::path work;
  fs::path primed_store;
};

ac::ingest::ApkBlob Ingest(std::span<const uint8_t> bytes) {
  ac::ingest::MemoryStreamReader reader(bytes);
  auto blob = ac::ingest::ReadApkBlob(reader);
  if (!blob.ok()) Die("ingest failed: " + blob.error());
  return std::move(*blob);
}

// Submits `blobs` at once, starts the scheduler (a no-op once started), and
// waits for every verdict.
std::vector<ac::serve::VettingResult> VetAll(ac::serve::VettingService& service,
                                             const std::vector<ac::ingest::ApkBlob>& blobs) {
  std::vector<std::future<ac::serve::VettingResult>> futures;
  for (const auto& blob : blobs) {
    ac::serve::Submission submission;
    submission.blob = blob;
    auto accepted = service.Submit(std::move(submission));
    if (!accepted.ok()) Die("set-up submission refused: " + accepted.error());
    futures.push_back(std::move(*accepted));
  }
  service.Start();
  std::vector<ac::serve::VettingResult> results;
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

// The timed part of a restart: universe, model, workers listening, service
// (store open + recovery, farm connections), gateway listening, and one
// warm-up batch per farm (which also ships the model to remote farms).
Stack SetUp(const SetupInputs& in, size_t ordinal, std::vector<std::string>& failures) {
  const WorkloadSpec& spec = *in.spec;
  ac::obs::Counter& handshakes =
      ac::obs::MetricsRegistry::Default().counter(ac::obs::names::kFabricHandshakesTotal);
  const uint64_t handshakes_before = handshakes.value();
  Stack stack;
  stack.universe =
      std::make_unique<ac::android::ApiUniverse>(
          ac::android::ApiUniverse::Generate(UniverseConfig()));
  auto model = ac::core::DeserializeChecker(*stack.universe, in.model_blob);
  if (!model.ok()) Die("model deserialisation failed: " + model.error());

  ac::serve::ServiceConfig config;
  config.num_shards = 4;
  config.shard_capacity = 1'024;
  config.farm.engine.kind = ac::emu::EngineKind::kLightweight;
  config.farm.num_emulators = kBatch;
  config.scheduler.batch_size = kBatch;
  config.scheduler.max_linger = kLinger;
  config.pool.num_farms = 1;
  config.store.dir = (in.work / Fmt("store-%zu", ordinal)).string();
  // The first warm-up round is queued whole before the scheduler starts, so
  // its batches go out back to back and the least-loaded router gives each
  // farm one; otherwise a fast first batch can leave a farm idle and cost a
  // second round.
  config.start_paused = true;
  for (size_t w = 0; w < spec.fabric_workers; ++w) {
    ac::fabric::FarmWorkerConfig worker_config;
    // Relative socket paths keep well under the sun_path limit.
    worker_config.endpoint =
        "unix:" + (in.work / Fmt("s%zu-w%zu.sock", ordinal, w)).string();
    worker_config.worker_id = static_cast<uint32_t>(w);
    worker_config.farm.engine.kind = ac::emu::EngineKind::kLightweight;
    worker_config.farm.num_emulators = kBatch;
    worker_config.farm.farm_id = static_cast<uint32_t>(w);
    stack.workers.push_back(
        std::make_unique<ac::fabric::FarmWorker>(*stack.universe, worker_config));
    // Start() returns once the socket listens, so the service's first
    // connect attempt cannot lose the race and fall into reconnect backoff.
    auto started = stack.workers.back()->Start();
    if (!started.ok()) Die("farm worker failed to start: " + started.error());
    config.fabric_endpoints.push_back(worker_config.endpoint);
  }
  stack.service =
      std::make_unique<ac::serve::VettingService>(*stack.universe, config, std::move(*model));
  if (stack.service->verdict_store() == nullptr) Die("verdict store failed to open");
  // The service dials its farms on its own runtime; a batch dispatched
  // before both channels of a farm finished their handshake would fail over
  // and open that farm's breaker. Each client counts two handshakes.
  const auto dial_deadline = Clock::now() + std::chrono::seconds(5);
  while (handshakes.value() < handshakes_before + 2 * spec.fabric_workers) {
    if (Clock::now() > dial_deadline) Die("farm workers did not complete their handshake");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (spec.gateway) {
    ac::gateway::GatewayConfig gw;
    stack.gateway_endpoint = "unix:" + (in.work / Fmt("s%zu-gw.sock", ordinal)).string();
    gw.endpoint = stack.gateway_endpoint;
    gw.max_concurrent_uploads = 64;
    stack.gateway = std::make_unique<ac::gateway::IngestGateway>(*stack.service, gw);
    auto started = stack.gateway->Start();
    if (!started.ok()) Die("gateway failed to start: " + started.error());
  }

  // Ready once a whole round came back verified and every farm has run a
  // batch. A verdict that differs from the reference is a failure; an item
  // that was not classified only means the round did not count.
  const size_t farms = std::max<size_t>(1, spec.fabric_workers);
  for (size_t round = 0; round < in.warmup_rounds.size(); ++round) {
    const auto results = VetAll(*stack.service, in.warmup_rounds[round]);
    bool all_ok = true;
    for (size_t k = 0; k < results.size(); ++k) {
      const Item& item = in.warmup_items[round][k];
      if (results[k].status != VetStatus::kOk) {
        all_ok = false;
      } else if (!(Verdict{results[k].malicious, results[k].score} ==
                   in.warmup_sources[round]->reference(item.pool)[item.base])) {
        failures.push_back("warm-up verdict differs from the reference");
      }
    }
    size_t ready = 0;
    for (const auto& farm : stack.service->farm_pool_stats().farms) {
      ready += farm.batches_completed > 0;
    }
    if (all_ok && ready == farms) return stack;
  }
  Die("the farms never completed a verified warm-up round");
}

struct SetupTiming {
  double seconds = 0;
  double steal = 0;  // Host steal share over the restart.
  size_t failures = 0;
};

// Times one restart in a child process forked from the benchmark while no
// thread of its own is busy. Every restart then starts from the same heap,
// whatever earlier restarts left behind, and the parent keeps nothing of it.
// The child reports through a pipe and exits without tearing the stack
// down; the kernel reclaims its threads and sockets.
SetupTiming TimeSetUpInChild(const SetupInputs& in, size_t ordinal) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::vector<std::string> failures;
    const HostTicks host0 = ReadHostTicks();
    const auto t0 = Clock::now();
    Stack stack = SetUp(in, ordinal, failures);
    SetupTiming timing;
    timing.seconds = Seconds(Clock::now() - t0);
    timing.steal = StealShare(host0, ReadHostTicks());
    timing.failures = failures.size();
    const bool sent = write(fds[1], &timing, sizeof(timing)) == sizeof(timing);
    _exit(sent ? 0 : 4);
  }
  close(fds[1]);
  SetupTiming timing;
  size_t got = 0;
  while (got < sizeof(timing)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(&timing) + got, sizeof(timing) - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(timing) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die(Fmt("set-up %zu failed in its child process", ordinal));
  }
  return timing;
}

// ---------------------------------------------------------------------------
// Live phases.
// ---------------------------------------------------------------------------

struct Outcome {
  Item item;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};
  bool admitted = false;
  VetStatus status = VetStatus::kOk;
  Verdict verdict;

  void Set(const ac::serve::VettingResult& result) {
    status = result.status;
    verdict = {result.malicious, result.score};
    done = Clock::now();
  }
};

bool Expected(const InputSet& inputs, const Outcome& o) {
  if (!o.admitted) return false;
  if (o.item.kind == ItemKind::kCorrupt) return o.status == VetStatus::kParseError;
  return o.status == VetStatus::kOk && o.verdict == inputs.reference(o.item.pool)[o.item.base];
}

// Window snapshot of process-wide counters.
struct Snapshot {
  Clock::time_point at{};
  HostTicks host;
  double rss_peak_mb = 0;  // Peak resident set since the previous snapshot.
  int64_t process_cpu_ns = 0;
  int64_t generator_cpu_ns = 0;  // Load generators + sampler.
  int64_t ingest_cpu_ns = 0;     // Ingest work done on generator threads.
  uint64_t rt_tasks = 0;
  uint64_t rt_steals = 0;
};

struct Phase {
  std::vector<std::deque<Outcome>> outcomes{kGenerators};
  std::vector<std::thread> threads;
  std::atomic<int64_t> ingest_cpu_ns[kGenerators] = {};
  std::atomic<bool> stop{false};
};

Snapshot Take(Phase& phase, Sampler& sampler) {
  Snapshot s;
  s.at = Clock::now();
  s.host = ReadHostTicks();
  s.rss_peak_mb = sampler.TakeWindowPeakMb();
  s.process_cpu_ns = ProcessCpuNs();
  s.generator_cpu_ns = sampler.CpuNs();
  for (size_t t = 0; t < kGenerators; ++t) {
    s.generator_cpu_ns += CpuNsOf(phase.threads[t]);
    s.ingest_cpu_ns += phase.ingest_cpu_ns[t].load();
  }
  auto& registry = ac::obs::MetricsRegistry::Default();
  s.rt_tasks = registry.counter(ac::obs::names::kRtTasksTotal).value();
  s.rt_steals = registry.counter(ac::obs::names::kRtStealsTotal).value();
  return s;
}

// Ingests `bytes` on the calling generator thread and submits the blob; the
// ingest CPU is the service's (the hash is front-end work), so it is tallied
// apart from the generator's own.
void IngestAndSubmit(ac::serve::VettingService& service, std::span<const uint8_t> bytes,
                     Outcome& o, std::atomic<int64_t>& ingest_cpu,
                     std::function<void()> on_done) {
  const int64_t cpu0 = ThreadCpuNs();
  ac::ingest::ApkBlob blob = Ingest(bytes);
  ingest_cpu.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
  ac::serve::Submission submission;
  submission.blob = std::move(blob);
  submission.priority = o.item.priority;
  auto accepted = service.SubmitWithCallback(
      std::move(submission), [&o, on_done](const ac::serve::VettingResult& result) {
        o.Set(result);
        on_done();
      });
  o.admitted = accepted.ok();
  if (!o.admitted) {
    o.done = Clock::now();
    on_done();
  }
}

// A measured phase is cut into kSubWindow slices; rates, CPU costs and
// latency samples come from the chosen (least-stolen) slices only, so a burst
// of interference moves neither the medians nor, unless it outlasts the
// phase's extension, the result.
constexpr auto kSubWindow = std::chrono::seconds(1);

struct Slices {
  std::vector<Snapshot> marks;  // Slice boundaries.
  std::vector<double> steal;    // Steal share of each slice.
  std::vector<double> run;      // RunShare of each slice.
  std::vector<bool> chosen;     // The slices the figures are taken from.
  std::vector<size_t> correct;  // Expected outcomes resolved in each slice.

  const Snapshot& begin() const { return marks.front(); }
  const Snapshot& end() const { return marks.back(); }
  // The slice holding `t`, or steal.size() outside the window.
  size_t At(Clock::time_point t) const {
    if (t < begin().at || t >= end().at) return steal.size();
    return std::min(static_cast<size_t>((t - begin().at) / kSubWindow), steal.size() - 1);
  }
  bool ChosenAt(Clock::time_point t) const {
    const size_t i = At(t);
    return i < steal.size() && chosen[i];
  }
  // A latency sample counts if it was due in a chosen slice and did not end
  // in another one (it may end after the window).
  bool Counts(Clock::time_point due, Clock::time_point done) const {
    return ChosenAt(due) && (At(done) == steal.size() || ChosenAt(done));
  }
  size_t total_correct() const {
    size_t n = 0;
    for (size_t c : correct) n += c;
    return n;
  }
  // Per second of the slice's run time (wall time times RunShare), or with
  // `wall`, per wall second.
  double VerdictsPerSecond(bool wall = false) const {
    std::vector<double> rates;
    for (size_t i = 0; i < correct.size(); ++i) {
      if (!chosen[i]) continue;
      rates.push_back(static_cast<double>(correct[i]) /
                      (Seconds(marks[i + 1].at - marks[i].at) * (wall ? 1.0 : run[i])));
    }
    return Quantile(rates, 0.5);
  }
  // The RunShare of the slice holding `t` (1 outside the window).
  double RunAt(Clock::time_point t) const {
    const size_t i = At(t);
    return i < run.size() ? run[i] : 1.0;
  }
  // Service CPU: the process's, minus the load generators' own (the ingest
  // they do on the service's behalf stays in).
  double CpuSecondsPer1k() const {
    std::vector<double> costs;
    for (size_t i = 0; i < correct.size(); ++i) {
      const Snapshot& a = marks[i];
      const Snapshot& b = marks[i + 1];
      const double cpu_s = ((b.process_cpu_ns - a.process_cpu_ns) -
                            (b.generator_cpu_ns - a.generator_cpu_ns) +
                            (b.ingest_cpu_ns - a.ingest_cpu_ns)) /
                           1e9;
      if (chosen[i] && correct[i] > 0) {
        costs.push_back(cpu_s * 1000.0 / static_cast<double>(correct[i]));
      }
    }
    return Quantile(costs, 0.5);
  }
  // Peak resident set per slice, median over the slices. The whole-run
  // maximum is not used: glibc keeps freed 8 MB blocks in whichever thread
  // arena freed them, so the run's maximum counts coincidences.
  double PeakRssMb() const {
    std::vector<double> peaks;
    for (size_t i = 1; i < marks.size(); ++i) peaks.push_back(marks[i].rss_peak_mb);
    return Quantile(peaks, 0.5);
  }
};

// Takes slice boundaries from now on until `target` slices are clean or
// Limit(target) slices have passed, and chooses `target` of them.
Slices MeasureSlices(Phase& phase, Sampler& sampler, size_t target) {
  Slices slices;
  slices.marks.push_back(Take(phase, sampler));
  while (CountClean(slices.steal) < target && slices.steal.size() < Limit(target)) {
    std::this_thread::sleep_until(slices.begin().at +
                                  static_cast<int64_t>(slices.marks.size()) * kSubWindow);
    slices.marks.push_back(Take(phase, sampler));
    const size_t n = slices.marks.size();
    slices.steal.push_back(StealShare(slices.marks[n - 2].host, slices.marks[n - 1].host));
    slices.run.push_back(RunShare(slices.marks[n - 2].host, slices.marks[n - 1].host));
  }
  slices.chosen = LeastStolen(slices.steal, target);
  return slices;
}

// One phase's submission sequence, shared by the generator threads: item k
// is always the k-th item of the seeded stream, whichever thread sends it.
class SharedStream {
 public:
  SharedStream(const InputSet& inputs, uint32_t phase, size_t gap,
               const std::vector<Item>& repeat_set)
      : stream_(inputs, phase, gap, repeat_set) {}
  // Appends the next item's outcome record to `outs` and returns it with
  // the item's index.
  std::pair<Outcome*, uint64_t> Next(std::deque<Outcome>& outs) {
    std::lock_guard<std::mutex> lock(mu_);
    Outcome& o = outs.emplace_back();
    o.item = stream_.Next();
    return {&o, next_++};
  }

 private:
  std::mutex mu_;
  ItemStream stream_;
  uint64_t next_ = 0;
};

// Closed loop: `window` submissions in flight; whichever generator is free
// sends the next item as soon as one resolves. A resubmission reaches back
// more than a window, so its target has normally resolved.
Slices RunClosedLoop(const WorkloadSpec& spec, const InputSet& inputs, Stack& stack,
                     const std::vector<Item>& repeat_set, Sampler& sampler, size_t slices,
                     Phase& phase) {
  SharedStream stream(inputs, /*phase=*/1, spec.window + 1, repeat_set);
  std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(spec.window));
  for (size_t t = 0; t < kGenerators; ++t) {
    phase.threads.emplace_back([&, t] {
      std::vector<uint8_t> bytes;
      auto& outs = phase.outcomes[t];
      while (!phase.stop.load(std::memory_order_relaxed)) {
        if (!slots.try_acquire_for(std::chrono::milliseconds(20))) continue;
        Outcome& o = *stream.Next(outs).first;
        inputs.Materialize(o.item, bytes);
        o.due = o.sent = Clock::now();
        if (!spec.gateway) {
          IngestAndSubmit(*stack.service, bytes, o, phase.ingest_cpu_ns[t],
                          [&slots] { slots.release(); });
          continue;
        }
        ac::gateway::UploadClientConfig config;
        config.endpoint = stack.gateway_endpoint;
        config.client_name = Fmt("gen-%zu", t);
        config.priority = static_cast<uint8_t>(o.item.priority);
        config.jitter_seed = o.item.variant;
        ac::gateway::UploadClient client(std::move(config));
        auto outcome = client.Upload(bytes);
        o.done = Clock::now();
        o.admitted = outcome.ok();
        if (outcome.ok()) {
          o.status = static_cast<VetStatus>(outcome->verdict.status);
          o.verdict = {outcome->verdict.malicious, outcome->verdict.score};
        }
        slots.release();
      }
    });
  }
  std::this_thread::sleep_for(kWarmup);
  Slices result = MeasureSlices(phase, sampler, slices);
  phase.stop.store(true);
  for (auto& thread : phase.threads) thread.join();
  for (size_t i = 0; i < spec.window; ++i) slots.acquire();  // Drain.
  result.correct.assign(result.steal.size(), 0);
  for (const auto& outs : phase.outcomes) {
    for (const Outcome& o : outs) {
      if (o.done < result.begin().at || o.done >= result.end().at || !Expected(inputs, o)) {
        continue;
      }
      ++result.correct[result.At(o.done)];
    }
  }
  return result;
}

// Open loop: arrival k is due at start + k / rate, whatever the service is
// doing, and goes out from whichever generator is free. Latency counts from
// the due time, so a generator that falls behind (all four busy ingesting)
// shows up in the latency it causes and in gen.lag_p99_ms. Arrivals go on
// until the slices are measured.
Slices RunOpenLoop(const WorkloadSpec& spec, const InputSet& inputs, Stack& stack,
                   const std::vector<Item>& repeat_set, Sampler& sampler, size_t slices,
                   Phase& phase) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  // Resubmissions reach back at least a second of arrivals.
  SharedStream stream(inputs, /*phase=*/2, static_cast<size_t>(spec.open_rate) + 1,
                      repeat_set);
  std::atomic<int64_t> outstanding{0};
  for (size_t t = 0; t < kGenerators; ++t) {
    phase.threads.emplace_back([&, t] {
      std::vector<uint8_t> bytes;
      auto& outs = phase.outcomes[t];
      for (;;) {
        auto [o, k] = stream.Next(outs);
        o->due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(static_cast<double>(k) /
                                                           spec.open_rate));
        std::this_thread::sleep_until(o->due);
        if (phase.stop.load(std::memory_order_relaxed)) {
          outs.pop_back();
          break;
        }
        o->sent = Clock::now();
        inputs.Materialize(o->item, bytes);
        outstanding.fetch_add(1);
        IngestAndSubmit(*stack.service, bytes, *o, phase.ingest_cpu_ns[t],
                        [&outstanding] { outstanding.fetch_sub(1); });
      }
    });
  }
  std::this_thread::sleep_until(start);
  Slices result = MeasureSlices(phase, sampler, slices);
  phase.stop.store(true);
  for (auto& thread : phase.threads) thread.join();
  while (outstanding.load() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return result;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                                 correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].value;
    if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;  // JSON has no inf.
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                        metrics[i].name.c_str(), value, metrics[i].unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  long list_inputs = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--list-inputs") {
      args.list_inputs = std::atol(value);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

struct LiveCounters {
  ac::serve::ServiceStats service;
  uint64_t emu_apps = 0;
  uint64_t emu_fallbacks = 0;
  uint64_t protocol_errors = 0;
};

LiveCounters ReadLive(const Stack& stack) {
  auto& registry = ac::obs::MetricsRegistry::Default();
  LiveCounters c;
  c.service = stack.service->stats();
  c.emu_apps = registry.counter(ac::obs::names::kEmuAppsTotal).value();
  c.emu_fallbacks = registry.counter(ac::obs::names::kEmuFallbacksTotal).value();
  c.protocol_errors = registry.counter(ac::obs::names::kFabricProtocolErrorsTotal).value();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer timings out of the traced replay's spans.
struct SpanSummary {
  double self_total_ms[kLayers] = {};
  double cpu_total_ms[kLayers] = {};
  uint64_t bytes[kLayers] = {};
};

// Durations of the spans called `name`, in ms.
std::vector<double> DurationsMs(const SpanLog& log, const char* name) {
  std::vector<double> out;
  for (const Span& span : log.spans()) {
    if (std::strcmp(span.name, name) == 0) out.push_back((span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

SpanSummary Summarize(const SpanLog& log) {
  SpanSummary sum;
  const std::vector<int64_t> self = log.SelfNs();
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    if (span.layer == Layer::kRoot) continue;
    const auto layer = static_cast<size_t>(span.layer);
    sum.self_total_ms[layer] += self[i] / 1e6;
    sum.cpu_total_ms[layer] += span.cpu_ns / 1e6;
    sum.bytes[layer] += span.bytes;
  }
  return sum;
}

// The traced run's replay: size-class probes, the tracing overhead, and the
// full replay through all seven layers with spans. Runs after the measured
// window, against the live service (for the upload leg).
struct TraceReport {
  SpanLog spans;
  ReplayCounts counts;
  double overhead_pct = 0;
  double small_p50[2] = {};  // ReadApkBlob, ParseApk (ms).
  double large_p50[2] = {};
  std::vector<std::string> failures;
};

TraceReport RunTracedReplay(InputSet& inputs, const ac::android::ApiUniverse& universe,
                            ac::emu::DeviceFarm& farm, const ac::core::ApiChecker& checker,
                            Stack& stack, const fs::path& work, const fs::path& spans_path) {
  TraceReport report;
  auto fail = [&](std::string what) { report.failures.push_back(std::move(what)); };
  auto fail_all = [&](std::vector<std::string> all) {
    for (auto& what : all) fail(std::move(what));
  };
  // Size-class probes: the workload's own small bases, and 8 MB bases
  // (built here when the workload has none) so both classes exist on
  // every workload.
  std::vector<std::vector<uint8_t>> large;
  for (uint32_t i = 0; i < 4; ++i) {
    if (inputs.PoolSize(Pool::kLarge) > i) {
      large.push_back(inputs.Base(Pool::kLarge, i));
    } else {
      auto padded =
          ac::apk::PadApk(inputs.Base(Pool::kSmall, i), 8 * kMiB, inputs.seed() + i);
      if (!padded.ok()) Die("PadApk failed");
      large.push_back(std::move(*padded));
    }
  }
  auto probe = [&](auto&& source, size_t count, double* out) {
    std::vector<double> read, parse;
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t i = 0; i < count; ++i) {
        const std::vector<uint8_t>& bytes = source(i);
        auto t = Clock::now();
        auto blob = Ingest(bytes);
        read.push_back(Millis(Clock::now() - t));
        t = Clock::now();
        auto parsed = ac::apk::ParseApk(blob.bytes());
        parse.push_back(Millis(Clock::now() - t));
        if (!parsed.ok()) fail("size-class probe failed to parse");
      }
    }
    out[0] = Quantile(read, 0.5);
    out[1] = Quantile(parse, 0.5);
  };
  probe([&](size_t i) -> const std::vector<uint8_t>& {
          return inputs.Base(Pool::kSmall, static_cast<uint32_t>(i));
        },
        std::min<size_t>(32, inputs.PoolSize(Pool::kSmall)), report.small_p50);
  probe([&](size_t i) -> const std::vector<uint8_t>& { return large[i]; }, large.size(),
        report.large_p50);

  // Tracing overhead: the core replay untraced and traced, in alternating
  // pairs; the median of the pairs' ratios.
  std::vector<double> ratios;
  for (int pair = 0; pair < 3; ++pair) {
    auto t = Clock::now();
    fail_all(Replay(inputs, false, farm, checker, {}, nullptr, nullptr));
    const double untraced = Seconds(Clock::now() - t);
    SpanLog overhead_log;
    t = Clock::now();
    fail_all(Replay(inputs, false, farm, checker, {}, &overhead_log, nullptr));
    ratios.push_back(Seconds(Clock::now() - t) / untraced);
  }
  report.overhead_pct = (Quantile(ratios, 0.5) - 1.0) * 100.0;

  // The full traced replay: its own store and FarmWorker, and a gateway in
  // front of the live service.
  ac::store::StoreConfig store_config;
  store_config.dir = (work / "replay-store").string();
  auto replay_store = ac::store::VerdictStore::Open(store_config);
  if (!replay_store.ok()) Die("replay store failed to open");
  ac::fabric::FarmWorkerConfig worker_config;
  worker_config.endpoint = "unix:" + (work / "replay-w.sock").string();
  worker_config.farm = farm.config();
  ac::fabric::FarmWorker worker(universe, worker_config);
  if (!worker.Start().ok()) Die("replay farm worker failed to start");
  ac::fabric::RemoteClientConfig client_config;
  client_config.endpoint = worker_config.endpoint;
  ac::fabric::RemoteFarmClient client(universe, client_config);
  for (int i = 0; i < 200 && !client.connected(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::unique_ptr<ac::gateway::IngestGateway> replay_gateway;
  ReplayLegs legs;
  legs.store = replay_store->get();
  legs.rpc = &client;
  legs.model_version = stack.service->model_version();
  legs.upload_endpoint = stack.gateway_endpoint;
  if (!stack.gateway) {
    ac::gateway::GatewayConfig gw;
    gw.endpoint = "unix:" + (work / "replay-gw.sock").string();
    replay_gateway = std::make_unique<ac::gateway::IngestGateway>(*stack.service, gw);
    if (!replay_gateway->Start().ok()) Die("replay gateway failed to start");
    legs.upload_endpoint = gw.endpoint;
  }
  {
    // Ships the model to the worker once, outside the spans.
    auto warm = ac::apk::ParseApk(inputs.Base(Pool::kSmall, 0));
    if (!warm.ok()) Die("replay warm-up parse failed");
    client.ExecuteBatch(std::span(&*warm, 1), legs.model_version, checker,
                        checker.MakeTrackedSet());
  }
  fail_all(Replay(inputs, false, farm, checker, legs, &report.spans, &report.counts));
  if (replay_gateway) {
    replay_gateway->Stop();
    if (!replay_gateway->stats().Balanced()) fail("replay gateway ledger unbalanced");
  }
  client.StopMonitor();
  worker.Stop();
  report.spans.WriteJsonl(spans_path.string());
  return report;
}

// Vets `probes`, swaps the model to the same weights, and vets them again:
// both passes must give the reference verdicts, and the second must be fresh
// work (the swap invalidates every cached verdict).
std::vector<std::string> HotSwapProbe(ac::serve::VettingService& service, const InputSet& inputs,
                                      const std::vector<uint8_t>& model_blob,
                                      const std::vector<Item>& probes) {
  std::vector<std::string> failures;
  std::vector<ac::ingest::ApkBlob> blobs;
  std::vector<uint8_t> bytes;
  for (const Item& item : probes) {
    inputs.Materialize(item, bytes);
    blobs.push_back(Ingest(bytes));
  }
  const auto before = VetAll(service, blobs);
  auto swapped = service.SwapModelFromBlob(model_blob);
  if (!swapped.ok()) failures.push_back("hot swap failed: " + swapped.error());
  const auto after = VetAll(service, blobs);
  for (size_t i = 0; i < blobs.size(); ++i) {
    const Verdict& ref = inputs.reference(probes[i].pool)[probes[i].base];
    if (before[i].status != VetStatus::kOk || after[i].status != VetStatus::kOk ||
        !(Verdict{before[i].malicious, before[i].score} == ref) ||
        !(Verdict{after[i].malicious, after[i].score} == ref) || after[i].from_cache ||
        after[i].model_version == before[i].model_version) {
      failures.push_back("hot-swap probe verdict changed across the swap");
    }
  }
  return failures;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  ac::util::SetMinLogSeverity(ac::util::LogSeverity::kError);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  const size_t farms = std::max<size_t>(1, spec->fabric_workers);

  // The program under test is fixed: one universe, one trained model.
  // Only the inputs depend on the seed.
  const auto universe = ac::android::ApiUniverse::Generate(UniverseConfig());
  ac::core::ApiChecker checker(universe, {});
  {
    ac::synth::CorpusGenerator generator(universe, ac::synth::CorpusConfig{});
    ac::core::StudyConfig study;
    study.num_apps = kStudyApps;
    checker.TrainFromStudy(ac::core::RunStudy(universe, generator, study));
  }
  SetupInputs setup;
  setup.spec = spec;
  setup.model_blob = ac::core::SerializeChecker(checker);

  InputSet inputs(universe, spec->mix, args.seed, spec->small_bases);
  const std::vector<Item> repeat_set =
      spec->mix.repeats > 0 ? inputs.Group(1, Pool::kBody, kBatch) : std::vector<Item>{};
  if (args.list_inputs >= 0) {
    std::vector<uint8_t> bytes;
    ItemStream stream(inputs, /*phase=*/1, spec->window + 1, repeat_set);
    for (long k = 0; k < args.list_inputs; ++k) {
      const Item item = stream.Next();
      inputs.Materialize(item, bytes);
      std::printf("item %ld kind=%d pool=%d priority=%d sha1=%s\n", k,
                  static_cast<int>(item.kind), static_cast<int>(item.pool),
                  static_cast<int>(item.priority), ac::util::Sha1Hex(bytes).c_str());
    }
    for (size_t b = 0; b < inputs.PoolSize(Pool::kCorrupt); ++b) {
      auto parsed = ac::apk::ParseApk(inputs.Base(Pool::kCorrupt, static_cast<uint32_t>(b)));
      std::printf("corrupt %zu %s\n", b, parsed.ok() ? "PARSED" : "rejected");
    }
    return 0;
  }

  const fs::path work = fs::path(args.work_dir) / Fmt("run-%d", static_cast<int>(getpid()));
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);
  setup.work = work;

  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) { failures.push_back(what); };

  // Reference verdicts: every base through ingest -> parse -> emulate ->
  // classify, outside any clock.
  ac::emu::FarmConfig farm_config;
  farm_config.engine.kind = ac::emu::EngineKind::kLightweight;
  farm_config.num_emulators = kBatch;
  ac::emu::DeviceFarm farm(universe, farm_config);
  const auto untraced_start = Clock::now();
  for (auto& f : Replay(inputs, /*fill_reference=*/true, farm, checker, {}, nullptr, nullptr)) {
    fail(f);
  }
  const double reference_s = Seconds(Clock::now() - untraced_start);

  // Warm-up rounds (kBatch per farm). The first is the repeat set on the
  // upload workload, so its digests are exactly the ones vetted during
  // set-up; the others are canaries that do not depend on the seed, so the
  // set-up work is the same in every run.
  InputSet canaries(universe, MixSpec{}, kCanarySeed, kBatch * farms);
  for (auto& f : Replay(canaries, /*fill_reference=*/true, farm, checker, {}, nullptr, nullptr)) {
    fail(f);
  }
  for (uint32_t round = 0; round < 4; ++round) {
    const bool repeats = round == 0 && !repeat_set.empty();
    const InputSet& source = repeats ? inputs : canaries;
    setup.warmup_sources.push_back(&source);
    setup.warmup_items.push_back(repeats ? repeat_set
                                         : canaries.Group(round, Pool::kSmall, kBatch * farms));
    std::vector<ac::ingest::ApkBlob> blobs;
    std::vector<uint8_t> bytes;
    for (const Item& item : setup.warmup_items.back()) {
      source.Materialize(item, bytes);
      blobs.push_back(Ingest(bytes));
    }
    setup.warmup_rounds.push_back(std::move(blobs));
  }
  std::vector<Item> probe_items = inputs.Group(9, Pool::kSmall, 4);

  // A store with verdicts from an earlier life, copied fresh for every
  // set-up so each restart recovers the same contents.
  setup.primed_store = work / "primed";
  {
    ac::store::StoreConfig config;
    config.dir = setup.primed_store.string();
    auto store = ac::store::VerdictStore::Open(config);
    if (!store.ok()) Die("store open failed: " + store.error());
    for (size_t i = 0; i < kPrimedRecords; ++i) {
      const std::string key = Fmt("primed-%zu-%llu", i, static_cast<unsigned long long>(args.seed));
      ac::store::VerdictRecord record;
      record.digest = ac::util::Sha1Hex(
          std::span(reinterpret_cast<const uint8_t*>(key.data()), key.size()));
      record.model_version = 1;
      record.malicious = i % 13 == 0;
      record.score = static_cast<double>(i % 101) / 100.0;
      if (!(*store)->Append(std::move(record)).ok()) Die("store priming failed");
    }
    if (!(*store)->Flush().ok()) Die("store flush failed");
  }

  // Set-up: restarts until kSetups are clean (or Limit(kSetups) in all),
  // each timed in a child process forked from this one while it is
  // idle, so each starts from the same heap. setup_s is the median of the
  // kSetups least-stolen. The stack the measured phases use is set up here
  // afterwards, untimed.
  std::vector<double> setup_times, setup_steal;
  while (CountClean(setup_steal) < kSetups && setup_steal.size() < Limit(kSetups)) {
    const size_t ordinal = setup_steal.size();
    fs::copy(setup.primed_store, work / Fmt("store-%zu", ordinal), fs::copy_options::recursive);
    const SetupTiming timing = TimeSetUpInChild(setup, ordinal);
    if (timing.failures > 0) fail("warm-up verdict differs from the reference");
    setup_times.push_back(timing.seconds);
    setup_steal.push_back(timing.steal);
  }
  const std::vector<bool> setup_chosen = LeastStolen(setup_steal, kSetups);
  std::vector<double> setup_s;
  for (size_t i = 0; i < setup_times.size(); ++i) {
    if (setup_chosen[i]) setup_s.push_back(setup_times[i]);
  }
  const size_t ordinal = setup_steal.size();
  Sampler sampler;
  fs::copy(setup.primed_store, work / Fmt("store-%zu", ordinal), fs::copy_options::recursive);
  Stack stack = SetUp(setup, ordinal, failures);

  // Measured phases.
  const bool open_loop = spec->open_rate > 0;
  // Half the window measures capacity, half latency.
  const double capacity_s = open_loop ? args.seconds / 2 : args.seconds;
  const auto slices_in = [](double seconds) {
    return std::max<size_t>(1, static_cast<size_t>(std::lround(seconds)));
  };
  ac::ingest::ApkBlob::ResetPoolPeakBytes();
  const LiveCounters live_begin = ReadLive(stack);
  Phase capacity;
  const Slices cap = RunClosedLoop(*spec, inputs, stack, repeat_set, sampler,
                                   slices_in(capacity_s), capacity);
  Phase open;
  Slices open_slices;
  if (open_loop) {
    open_slices = RunOpenLoop(*spec, inputs, stack, repeat_set, sampler,
                              slices_in(args.seconds - capacity_s), open);
  }
  const LiveCounters live_end = ReadLive(stack);
  const double pool_peak_mb =
      static_cast<double>(ac::ingest::ApkBlob::PoolPeakBytes()) / kMiB;
  sampler.Stop();
  ac::gateway::GatewayStats gateway_live;
  if (stack.gateway) gateway_live = stack.gateway->stats();

  size_t attempted = 0, expected = 0, fresh_valid = 0;
  // Closed-loop latencies count run time, each times the RunShare of the
  // slice it was due in: with a fixed number in flight, latency is that
  // number over the throughput, and it is adjusted like the throughput. The
  // open loop's light fixed rate leaves the vCPUs mostly idle and a sample
  // mostly timer waits (the batch linger), which steal does not stretch; its
  // latencies stay in wall time. interactive_wall_ms is the sample unadjusted.
  std::vector<double> interactive_ms, interactive_wall_ms, lag_ms;
  for (Phase* phase : {&capacity, &open}) {
    for (const auto& outs : phase->outcomes) {
      for (const Outcome& o : outs) {
        ++attempted;
        const bool ok = Expected(inputs, o);
        expected += ok;
        fresh_valid += o.item.kind == ItemKind::kFresh;
        if (phase == &open) lag_ms.push_back(Millis(o.sent - o.due));
        const bool sampled = open_loop ? phase == &open && open_slices.Counts(o.due, o.done)
                                       : cap.Counts(o.due, o.done);
        if (sampled && o.item.priority == Priority::kInteractive) {
          const double wall_ms = ok ? Millis(o.done - o.due)
                                    : std::numeric_limits<double>::infinity();
          interactive_wall_ms.push_back(wall_ms);
          interactive_ms.push_back(open_loop ? wall_ms : wall_ms * cap.RunAt(o.due));
        }
      }
    }
  }
  if (expected != attempted) {
    fail(Fmt("%zu of %zu submissions did not get the expected outcome", attempted - expected,
             attempted));
  }
  if (interactive_ms.size() < 20) fail("too few interactive samples");

  // Traced replay (per-layer timings), outside the measured window.
  std::vector<Metric> per_layer;
  TraceReport trace;
  if (args.trace != 0) {
    const fs::path spans_path =
        fs::path(args.work_dir) /
        Fmt("spans-%s-%llu.jsonl", spec->name, static_cast<unsigned long long>(args.seed));
    trace = RunTracedReplay(inputs, universe, farm, checker, stack, work, spans_path);
    for (auto& f : trace.failures) fail(f);
  }

  // Hot-swap probe, after the measured window.
  for (auto& f : HotSwapProbe(*stack.service, inputs, setup.model_blob, probe_items)) fail(f);

  // Teardown and the ledger invariants.
  const ac::store::StoreStats store_stats = stack.service->verdict_store()->stats();
  stack.Stop();
  const ac::serve::ServiceStats final_stats = stack.service->stats();
  if (final_stats.accepted != final_stats.resolved()) {
    fail(Fmt("service ledger: accepted %llu != resolved %llu",
             static_cast<unsigned long long>(final_stats.accepted),
             static_cast<unsigned long long>(final_stats.resolved())));
  }
  if (stack.gateway && !stack.gateway->stats().Balanced()) {
    fail("gateway ledger: uploads_accepted != completed + aborted");
  }
  const uint64_t interactive_shed =
      final_stats.shed_by_class[static_cast<size_t>(Priority::kInteractive)];
  if (interactive_shed != 0) fail("interactive submissions were shed");
  fs::remove_all(work, ec);

  // End-to-end metrics.
  const double window_s = Seconds(cap.end().at - cap.begin().at);
  const auto correct = static_cast<double>(cap.total_correct());
  std::vector<Metric> metrics = {
      {"verdicts_per_s", cap.VerdictsPerSecond(), "1/s"},
      {"interactive_p50_ms", Quantile(interactive_ms, 0.5), "ms"},
      {"ok_share", Ratio(static_cast<double>(expected), static_cast<double>(attempted)), "ratio"},
      {"cpu_s_per_1k_verdicts", cap.CpuSecondsPer1k(), "s"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
  };

  std::printf("workload %s seed %llu: %zu attempted, %zu as expected; capacity window %.2f s\n",
              spec->name, static_cast<unsigned long long>(args.seed), attempted, expected,
              window_s);
  std::printf("reference replay %.2f s; set-up times:", reference_s);
  for (double s : setup_times) std::printf(" %.4f", s);
  std::printf("\nset-up steal %%:");
  for (double share : setup_steal) std::printf(" %.1f", share * 100);
  std::printf("\ninteractive samples %zu\n", interactive_ms.size());
  std::printf("in wall time: verdicts_per_s %.2f interactive_p50_ms %.3f\n",
              cap.VerdictsPerSecond(/*wall=*/true), Quantile(interactive_wall_ms, 0.5));
  for (const auto& f : stack.service->farm_pool_stats().farms) {
    std::printf("farm %u: %llu batches\n", f.farm_id,
                static_cast<unsigned long long>(f.batches_completed));
  }
  std::printf("verdicts (steal %%, run share) per capacity slice:");
  for (size_t i = 0; i < cap.correct.size(); ++i) {
    std::printf(" %zu (%.1f, %.2f)", cap.correct[i], cap.steal[i] * 100, cap.run[i]);
  }
  std::printf("\nsteal %% per latency slice:");
  for (double share : open_slices.steal) std::printf(" %.1f", share * 100);
  std::printf("\nworst chosen steal %%: set-up %.1f capacity %.1f latency %.1f\n",
              WorstChosen(setup_steal, setup_chosen) * 100, WorstChosen(cap.steal, cap.chosen) * 100,
              WorstChosen(open_slices.steal, open_slices.chosen) * 100);
  const auto note_steal = [](const char* what, const std::vector<double>& steal,
                             const std::vector<bool>& chosen) {
    if (WorstChosen(steal, chosen) > kBusySteal) {
      std::printf("NOTE: host busy: %s figures use slices with up to %.0f%% steal\n", what,
                  WorstChosen(steal, chosen) * 100);
    }
  };
  note_steal("set-up", setup_steal, setup_chosen);
  note_steal("capacity phase", cap.steal, cap.chosen);
  note_steal("latency phase", open_slices.steal, open_slices.chosen);
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());

  if (args.trace != 0) {
    const SpanSummary sum = Summarize(trace.spans);
    const auto p50 = [&](const char* name) {
      return Quantile(DurationsMs(trace.spans, name), 0.5);
    };
    const auto total_ms = [&](const char* name) {
      double ms = 0;
      for (double v : DurationsMs(trace.spans, name)) ms += v;
      return ms;
    };
    const auto bytes_of = [&](const char* name) {
      double bytes = 0;
      for (const Span& span : trace.spans.spans()) {
        if (std::strcmp(span.name, name) == 0) bytes += static_cast<double>(span.bytes);
      }
      return bytes;
    };
    const auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
    const auto mb_per_s = [&](Layer layer) {
      const auto l = static_cast<size_t>(layer);
      return Ratio(static_cast<double>(sum.bytes[l]) / kMiB, sum.self_total_ms[l] / 1000.0);
    };
    const auto& s0 = live_begin.service;
    const auto& s1 = live_end.service;
    const double apps_emulated = delta(live_begin.emu_apps, live_end.emu_apps);
    const double rpc_batches =
        static_cast<double>(DurationsMs(trace.spans, "fabric.EncodeRunBatch").size());
    auto& registry = ac::obs::MetricsRegistry::Default();
    const auto queue = registry.histogram(ac::obs::names::kServeQueueWaitMs).Snapshot();
    per_layer = {
        {"ingest.read_blob_ms.small.p50", trace.small_p50[0], "ms"},
        {"ingest.read_blob_ms.large.p50", trace.large_p50[0], "ms"},
        {"ingest.mb_per_s", mb_per_s(Layer::kIngest), "MB/s"},
        {"ingest.pool_peak_mb", pool_peak_mb, "MB"},
        {"apk.parse_ms.small.p50", trace.small_p50[1], "ms"},
        {"apk.parse_ms.large.p50", trace.large_p50[1], "ms"},
        {"apk.mb_per_s", mb_per_s(Layer::kApk), "MB/s"},
        {"apk.parse_errors", delta(s0.parse_errors, s1.parse_errors), "count"},
        {"emu.run_batch_ms.p50", p50("emu.DeviceFarm.RunBatch"), "ms"},
        {"emu.apps_per_cpu_s",
         Ratio(static_cast<double>(trace.counts.emulated),
               static_cast<double>(trace.counts.emu_process_cpu_ns) / 1e9),
         "1/s"},
        {"emu.fallbacks", delta(live_begin.emu_fallbacks, live_end.emu_fallbacks), "count"},
        {"core.classify_us.p50", p50("core.ApiChecker.Classify") * 1000.0, "us"},
        {"store.append_us.p50", p50("store.VerdictStore.Append") * 1000.0, "us"},
        {"store.fsyncs_per_append",
         Ratio(static_cast<double>(store_stats.fsyncs), static_cast<double>(store_stats.appends)),
         "ratio"},
        {"fabric.rpc_ms.p50", p50("fabric.RemoteFarmClient.ExecuteBatch"), "ms"},
        {"fabric.codec_us_per_batch",
         Ratio((total_ms("fabric.EncodeRunBatch") + total_ms("fabric.DecodeRunBatch") +
                total_ms("fabric.EncodeBatchResult") + total_ms("fabric.DecodeBatchResult")) *
                   1000.0,
               rpc_batches),
         "us"},
        {"fabric.frame_bytes_per_batch",
         Ratio(bytes_of("fabric.DecodeRunBatch") + bytes_of("fabric.DecodeBatchResult"),
               rpc_batches),
         "B"},
        {"fabric.protocol_errors", delta(live_begin.protocol_errors, live_end.protocol_errors),
         "count"},
        {"gateway.upload_ms.fresh.p50", p50("gateway.UploadClient.Upload.fresh"), "ms"},
        {"gateway.upload_ms.by_digest.p50", p50("gateway.UploadClient.Upload.by_digest"), "ms"},
        {"gateway.early_verdict_share",
         Ratio(static_cast<double>(gateway_live.early_verdicts),
               static_cast<double>(gateway_live.accepted)),
         "ratio"},
        {"gateway.aborted", static_cast<double>(gateway_live.aborted), "count"},
        {"serve.queue_ms.p50", queue.Quantile(0.5), "ms"},
        {"serve.queue_ms.p99", queue.Quantile(0.99), "ms"},
        {"serve.batch_fill", Ratio(apps_emulated, delta(s0.batches, s1.batches) * kBatch),
         "ratio"},
        {"serve.cache_hit_ratio",
         Ratio(delta(s0.cache_hits, s1.cache_hits), delta(s0.accepted, s1.accepted)), "ratio"},
        {"serve.useful_emulation_ratio", Ratio(static_cast<double>(fresh_valid), apps_emulated),
         "ratio"},
        {"serve.shed.interactive", static_cast<double>(interactive_shed), "count"},
        {"serve.farm_retries", delta(s0.farm_retries, s1.farm_retries), "count"},
        {"serve.interactive_ms.p90", Quantile(interactive_ms, 0.9), "ms"},
        {"serve.interactive_ms.p99", Quantile(interactive_ms, 0.99), "ms"},
        {"rt.tasks_per_verdict", Ratio(delta(cap.begin().rt_tasks, cap.end().rt_tasks), correct),
         "ratio"},
        {"rt.steal_ratio",
         Ratio(delta(cap.begin().rt_steals, cap.end().rt_steals),
               delta(cap.begin().rt_tasks, cap.end().rt_tasks)),
         "ratio"},
        {"rt.timer_lag_p99_ms",
         registry.histogram(ac::obs::names::kRtTimerLagMs).Snapshot().Quantile(0.99), "ms"},
        {"rt.threads_peak", static_cast<double>(sampler.ThreadsPeak()), "count"},
        {"process.peak_rss_mb", cap.PeakRssMb(), "MB"},
        {"gen.lag_p99_ms", Quantile(lag_ms, 0.99), "ms"},
    };
    for (size_t l = 0; l < kLayers; ++l) {
      const std::string layer = LayerName(static_cast<Layer>(l));
      per_layer.push_back({"where." + layer + "_ms_per_apk",
                           Ratio(sum.self_total_ms[l], static_cast<double>(trace.counts.apks)),
                           "ms"});
      per_layer.push_back(
          {"where." + layer + "_cpu_ratio", Ratio(sum.cpu_total_ms[l], sum.self_total_ms[l]),
           "ratio"});
    }
    per_layer.push_back({"trace.overhead_pct", trace.overhead_pct, "%"});
  }

  PrintResult(failures.empty(), attempted, attempted - expected,
              args.trace != 0 ? per_layer : metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
