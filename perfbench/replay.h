// The replay: a workload's base inputs pushed through each layer's public
// function in pipeline order, one call at a time, from this thread.
//
//   ingest::ReadApkBlob -> apk::ParseApk -> emu::DeviceFarm::RunBatch ->
//   core::ApiChecker::Classify -> store::VerdictStore::Append ->
//   FAB1 codec + RemoteFarmClient::ExecuteBatch (a FarmWorker RPC) ->
//   gateway::UploadClient::Upload
//
// The first four steps are the correctness reference: they fill the
// InputSet's reference verdicts that every live verdict is checked against.
// With a SpanLog attached, every call is recorded as a span (id, parent,
// request, name, start, end, thread CPU, bytes) in memory; spans are written
// out only when the run ends. Nothing here adds tracing inside the program.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/checker.h"
#include "emu/farm.h"
#include "fabric/backend.h"
#include "store/verdict_store.h"
#include "inputs.h"

namespace perfbench {

enum class Layer : uint8_t { kIngest, kApk, kEmu, kCore, kStore, kFabric, kGateway, kRoot };
inline constexpr size_t kLayers = 7;  // kRoot is the per-batch parent, not a layer.
const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = none.
  uint64_t request = 0;  // Replay batch the call belongs to.
  const char* name = "";
  Layer layer = Layer::kRoot;
  int64_t start_ns = 0;  // steady_clock.
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;    // CLOCK_THREAD_CPUTIME_ID of the calling thread.
  uint64_t bytes = 0;
};

int64_t NowNs();
int64_t ThreadCpuNs();   // CLOCK_THREAD_CPUTIME_ID of the calling thread.
int64_t ProcessCpuNs();  // getrusage(RUSAGE_SELF), user + system.

class SpanLog {
 public:
  // Runs `fn` inside a span; returns its result. Spans nest through the
  // open-span stack, so a call made inside another span gets it as parent.
  template <typename Fn>
  auto Record(Layer layer, const char* name, uint64_t request, uint64_t bytes, Fn&& fn) {
    const size_t at = Open(layer, name, request, bytes);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(at);
    } else {
      auto result = fn();
      Close(at);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Self time of each span: its duration minus the part its children cover.
  std::vector<int64_t> SelfNs() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  size_t Open(Layer layer, const char* name, uint64_t request, uint64_t bytes);
  void Close(size_t at);

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// Runs `fn` in a span when `log` is set, bare otherwise.
template <typename Fn>
auto Traced(SpanLog* log, Layer layer, const char* name, uint64_t request, uint64_t bytes,
            Fn&& fn) {
  if (log == nullptr) {
    return fn();
  }
  return log->Record(layer, name, request, bytes, std::forward<Fn>(fn));
}

// Optional legs after classify; each runs only when its target is set.
struct ReplayLegs {
  apichecker::store::VerdictStore* store = nullptr;  // The replay's own store.
  apichecker::fabric::FarmBackend* rpc = nullptr;    // A client of a FarmWorker.
  uint32_t model_version = 1;
  std::string upload_endpoint;  // A gateway in front of the live service.
};

struct ReplayCounts {
  size_t apks = 0;     // Base APKs replayed, corrupt ones included.
  size_t batches = 0;
  size_t emulated = 0;
  int64_t emu_process_cpu_ns = 0;  // getrusage over the RunBatch calls.
};

// Replays every base of every pool in batches of kReplayBatch (the service's
// batch size). With `fill_reference` it records the reference verdicts;
// otherwise it checks every verdict (local, RPC and upload) against them.
// Corrupt bases must fail to parse. Returns the failures found.
std::vector<std::string> Replay(InputSet& inputs, bool fill_reference,
                                apichecker::emu::DeviceFarm& farm,
                                const apichecker::core::ApiChecker& checker,
                                const ReplayLegs& legs, SpanLog* log, ReplayCounts* counts);

inline constexpr size_t kReplayBatch = 16;

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
