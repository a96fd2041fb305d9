#include "replay.h"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdio>

#include "apk/apk.h"
#include "fabric/messages.h"
#include "gateway/client.h"
#include "ingest/stream_reader.h"
#include "serve/types.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace ac = apichecker;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kIngest:
      return "ingest";
    case Layer::kApk:
      return "apk";
    case Layer::kEmu:
      return "emu";
    case Layer::kCore:
      return "core";
    case Layer::kStore:
      return "store";
    case Layer::kFabric:
      return "fabric";
    case Layer::kGateway:
      return "gateway";
    case Layer::kRoot:
      return "replay";
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000'000 + tv.tv_usec * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

size_t SpanLog::Open(Layer layer, const char* name, uint64_t request, uint64_t bytes) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.bytes = bytes;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().cpu_ns = ThreadCpuNs();
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanLog::Close(size_t at) {
  const int64_t end = NowNs();
  Span& span = spans_[at];
  span.end_ns = end;
  span.cpu_ns = ThreadCpuNs() - span.cpu_ns;
  open_.pop_back();
}

std::vector<int64_t> SpanLog::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children are recorded after their parent and close inside it, so each
  // child's whole duration is covered by its parent's interval.
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      self[span.parent - 1] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                 "\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"cpu_ns\":%lld,"
                 "\"bytes\":%llu}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 LayerName(span.layer), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), static_cast<long long>(span.cpu_ns),
                 static_cast<unsigned long long>(span.bytes));
  }
  return std::fclose(out) == 0;
}

std::vector<std::string> Replay(InputSet& inputs, bool fill_reference,
                                ac::emu::DeviceFarm& farm, const ac::core::ApiChecker& checker,
                                const ReplayLegs& legs, SpanLog* log, ReplayCounts* counts) {
  std::vector<std::string> failures;
  const ac::emu::TrackedApiSet tracked = checker.MakeTrackedSet();
  ReplayCounts local;
  ReplayCounts& n = counts != nullptr ? *counts : local;
  uint64_t request = 0;

  for (Pool pool : {Pool::kSmall, Pool::kLarge, Pool::kBody, Pool::kCorrupt}) {
    const size_t size = inputs.PoolSize(pool);
    std::vector<Verdict>& reference = inputs.reference(pool);
    if (fill_reference && pool != Pool::kCorrupt) {
      reference.assign(size, Verdict{});
    }
    for (size_t first = 0; first < size; first += kReplayBatch) {
      const size_t last = std::min(size, first + kReplayBatch);
      ++request;
      ++n.batches;
      auto batch = [&] {
        std::vector<ac::apk::ApkFile> apks;
        std::vector<size_t> bases;  // Base index of each parsed APK.
        std::vector<std::vector<uint8_t>> wire;  // Archive bytes, for the RPC request.
        for (size_t b = first; b < last; ++b) {
          ++n.apks;
          const std::vector<uint8_t>& bytes = inputs.Base(pool, static_cast<uint32_t>(b));
          auto blob = Traced(log, Layer::kIngest, "ingest.ReadApkBlob", request, bytes.size(),
                             [&] {
                               ac::ingest::MemoryStreamReader reader(bytes);
                               return ac::ingest::ReadApkBlob(reader);
                             });
          if (!blob.ok()) {
            failures.push_back("replay ingest failed: " + blob.error());
            continue;
          }
          auto parsed = Traced(log, Layer::kApk, "apk.ParseApk", request, bytes.size(),
                               [&] { return ac::apk::ParseApk(blob->bytes()); });
          if (pool == Pool::kCorrupt) {
            if (parsed.ok()) {
              failures.push_back(ac::util::StrFormat("corrupt base %zu parsed", b));
            }
            continue;
          }
          if (!parsed.ok()) {
            failures.push_back("replay parse failed: " + parsed.error());
            continue;
          }
          apks.push_back(std::move(*parsed));
          bases.push_back(b);
          if (legs.rpc != nullptr) {
            wire.emplace_back(bytes.begin(), bytes.end());
          }
        }
        if (apks.empty()) {
          return;
        }
        uint64_t batch_bytes = 0;
        for (size_t b : bases) {
          batch_bytes += inputs.Base(pool, static_cast<uint32_t>(b)).size();
        }
        const int64_t cpu_before = ProcessCpuNs();
        ac::emu::BatchResult result =
            Traced(log, Layer::kEmu, "emu.DeviceFarm.RunBatch", request, batch_bytes,
                   [&] { return farm.RunBatch(apks, tracked); });
        n.emu_process_cpu_ns += ProcessCpuNs() - cpu_before;
        n.emulated += apks.size();
        if (result.farm_fault || result.reports.size() != apks.size()) {
          failures.push_back("replay RunBatch faulted: " + result.fault_reason);
          return;
        }

        for (size_t i = 0; i < apks.size(); ++i) {
          const auto verdict =
              Traced(log, Layer::kCore, "core.ApiChecker.Classify", request, 0,
                     [&] { return checker.Classify(result.reports[i]); });
          Verdict& ref = reference[bases[i]];
          const Verdict got{verdict.malicious, verdict.score};
          if (fill_reference) {
            ref = got;
          } else if (!(got == ref)) {
            failures.push_back(ac::util::StrFormat("replay verdict of base %zu differs", bases[i]));
          }
          if (legs.store != nullptr) {
            ac::store::VerdictRecord record;
            record.digest = apks[i].digest;
            record.model_version = legs.model_version;
            record.malicious = got.malicious;
            record.score = got.score;
            auto appended = Traced(log, Layer::kStore, "store.VerdictStore.Append", request, 0,
                                   [&] { return legs.store->Append(std::move(record)); });
            if (!appended.ok()) {
              failures.push_back("replay store append failed: " + appended.error());
            }
          }
        }

        if (legs.rpc != nullptr) {
          ac::fabric::RunBatchRequest request_msg;
          request_msg.model_version = legs.model_version;
          request_msg.apks = std::move(wire);
          const auto encoded = Traced(log, Layer::kFabric, "fabric.EncodeRunBatch", request, 0,
                                      [&] { return ac::fabric::EncodeRunBatch(request_msg); });
          const auto decoded =
              Traced(log, Layer::kFabric, "fabric.DecodeRunBatch", request, encoded.size(),
                     [&] { return ac::fabric::DecodeRunBatch(encoded); });
          const auto result_frame =
              Traced(log, Layer::kFabric, "fabric.EncodeBatchResult", request, 0,
                     [&] { return ac::fabric::EncodeBatchResult(result); });
          const auto result_back =
              Traced(log, Layer::kFabric, "fabric.DecodeBatchResult", request,
                     result_frame.size(),
                     [&] { return ac::fabric::DecodeBatchResult(result_frame); });
          if (!decoded.ok() || !result_back.ok() ||
              result_back->reports.size() != apks.size()) {
            failures.push_back("replay FAB1 codec round trip failed");
          }
          const ac::emu::BatchResult remote =
              Traced(log, Layer::kFabric, "fabric.RemoteFarmClient.ExecuteBatch", request,
                     encoded.size(), [&] {
                       return legs.rpc->ExecuteBatch(apks, legs.model_version, checker,
                                                     tracked);
                     });
          if (remote.farm_fault || remote.reports.size() != apks.size()) {
            failures.push_back("replay RPC faulted: " + remote.fault_reason);
          } else {
            for (size_t i = 0; i < apks.size(); ++i) {
              const auto verdict = checker.Classify(remote.reports[i]);
              if (!(Verdict{verdict.malicious, verdict.score} == reference[bases[i]])) {
                failures.push_back("RPC verdict differs from the local replay");
              }
            }
          }
        }

        if (!legs.upload_endpoint.empty()) {
          std::vector<uint8_t> body;
          for (size_t b : bases) {
            // A fresh digest per base: a variant no other phase uploads.
            Item item;
            item.pool = pool;
            item.base = static_cast<uint32_t>(b);
            item.variant = ac::util::SplitMix64(inputs.seed() ^ 0x7e91'0000'0000ull ^
                                                (static_cast<uint64_t>(pool) << 32) ^ b);
            inputs.Materialize(item, body);
            ac::gateway::UploadClientConfig config;
            config.endpoint = legs.upload_endpoint;
            config.client_name = "replay";
            config.jitter_seed = item.variant;
            for (const char* name : {"gateway.UploadClient.Upload.fresh",
                                     "gateway.UploadClient.Upload.by_digest"}) {
              ac::gateway::UploadClient client(config);
              auto outcome = Traced(log, Layer::kGateway, name, request, body.size(),
                                    [&] { return client.Upload(body); });
              const Verdict& ref = reference[b];
              if (!outcome.ok() ||
                  outcome->verdict.status != static_cast<uint8_t>(ac::serve::VetStatus::kOk) ||
                  !(Verdict{outcome->verdict.malicious, outcome->verdict.score} == ref)) {
                failures.push_back("replay upload verdict differs from the local replay");
              }
            }
          }
        }
      };
      Traced(log, Layer::kRoot, "replay.batch", request, 0, batch);
    }
  }
  return failures;
}

}  // namespace perfbench
