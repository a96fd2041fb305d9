// Google-benchmark microbenchmarks for the performance-critical primitives:
// the ingest byte path (CRC-32, SHA-1, ReadApkBlob), APK build/parse and
// both signature digests, the fabric RunBatch codec, one emulation run,
// feature encoding, SRC computation, and random-forest train/predict. These
// guard the throughput that lets a single commodity server vet ~10K apps/day.
// The byte-path cases report MB/s at the 8 MB size of a large market APK, so
// a change in end-to-end throughput can be pinned on one layer.

#include <benchmark/benchmark.h>

#include "apk/apk.h"
#include "core/selection.h"
#include "core/study.h"
#include "emu/engine.h"
#include "fabric/messages.h"
#include "ingest/stream_reader.h"
#include "ml/random_forest.h"
#include "synth/corpus.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/sha1.h"

namespace apichecker {
namespace {

struct Fixture {
  android::ApiUniverse universe;
  synth::AppProfile profile;
  std::vector<uint8_t> apk_bytes;
  apk::ApkFile apk;

  Fixture() : universe(android::ApiUniverse::Generate(SmallUniverse())) {
    synth::CorpusConfig config;
    synth::CorpusGenerator generator(universe, config);
    profile = generator.Next();
    apk_bytes = synth::BuildApkBytes(profile, universe);
    apk = std::move(*apk::ParseApk(apk_bytes));
  }

  static android::UniverseConfig SmallUniverse() {
    android::UniverseConfig config;
    config.num_apis = 20'000;
    return config;
  }

  static Fixture& Get() {
    static Fixture fixture;
    return fixture;
  }
};

constexpr size_t kLargeApkBytes = 8u << 20;

// Deterministic filler for the raw-kernel cases.
const std::vector<uint8_t>& EightMiB() {
  static const std::vector<uint8_t> bytes = [] {
    std::vector<uint8_t> out(kLargeApkBytes);
    util::Rng rng(7);
    for (auto& byte : out) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    return out;
  }();
  return bytes;
}

void BM_Crc32(benchmark::State& state) {
  const std::vector<uint8_t>& bytes = EightMiB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond);

void BM_Sha1(benchmark::State& state) {
  const std::vector<uint8_t>& bytes = EightMiB();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha1(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_Sha1)->Unit(benchmark::kMillisecond);

void BM_BuildApk(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::BuildApkBytes(f.profile, f.universe));
  }
}
BENCHMARK(BM_BuildApk);

void BM_ParseApk(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  for (auto _ : state) {
    auto parsed = apk::ParseApk(f.apk_bytes);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * f.apk_bytes.size()));
}
BENCHMARK(BM_ParseApk);

// The signature digest over the fixture's manifest and dex bytes: the span
// ParseApk verifies on every parse and BuildApk signs on every build.
// Arg 1 is v1 (the byte-serial SplitMix64 fold), arg 2 is v2 (SHA-1).
void BM_ContentDigest(benchmark::State& state) {
  const apk::ApkFile& parsed = Fixture::Get().apk;
  const std::vector<uint8_t> manifest = apk::EncodeManifest(parsed.manifest);
  const std::vector<uint8_t> dex = apk::EncodeDex(parsed.dex);
  const bool v2 = state.range(0) == 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v2 ? apk::ContentDigestV2({manifest, dex})
                                : apk::ContentDigest({manifest, dex}));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * (manifest.size() + dex.size())));
  state.SetLabel(v2 ? "v2" : "v1");
}
BENCHMARK(BM_ContentDigest)->Arg(1)->Arg(2);

// apk::BuildApk of an already-parsed ApkFile: the re-encode RemoteFarmClient
// pays per APK before a RunBatch goes on the wire.
void BM_BuildApkContainer(benchmark::State& state) {
  const apk::ApkFile& parsed = Fixture::Get().apk;
  size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> container =
        apk::BuildApk(parsed.manifest, parsed.dex, parsed.has_native_lib);
    bytes = container.size();
    benchmark::DoNotOptimize(container.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_BuildApkContainer);

// FAB1 RunBatch payload codec for a 16-APK batch of fixture containers:
// EncodeRunBatch on the front end plus DecodeRunBatch on the worker.
void BM_FabricRunBatchCodec(benchmark::State& state) {
  fabric::RunBatchRequest request;
  request.model_version = 1;
  request.apks.assign(16, Fixture::Get().apk_bytes);
  size_t payload_bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> payload = fabric::EncodeRunBatch(request);
    payload_bytes = payload.size();
    auto decoded = fabric::DecodeRunBatch(payload);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload_bytes));
}
BENCHMARK(BM_FabricRunBatchCodec);

// The fixture APK padded to 8 MB, as in the market workload's large bucket.
const std::vector<uint8_t>& LargeApk() {
  static const std::vector<uint8_t> bytes =
      std::move(*apk::PadApk(Fixture::Get().apk_bytes, kLargeApkBytes));
  return bytes;
}

void BM_ParseApkLarge(benchmark::State& state) {
  const std::vector<uint8_t>& bytes = LargeApk();
  for (auto _ : state) {
    auto parsed = apk::ParseApk(bytes);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_ParseApkLarge)->Unit(benchmark::kMillisecond);

// Chunked intake of an 8 MB APK: copy into the blob, SHA-1, blob accounting.
void BM_ReadApkBlob(benchmark::State& state) {
  const std::vector<uint8_t>& bytes = LargeApk();
  for (auto _ : state) {
    ingest::MemoryStreamReader reader(bytes);
    auto blob = ingest::ReadApkBlob(reader);
    benchmark::DoNotOptimize(blob.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_ReadApkBlob)->Unit(benchmark::kMillisecond);

void BM_EmulateTrackAll(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const emu::DynamicAnalysisEngine engine(f.universe, {});
  const emu::TrackedApiSet all = emu::TrackedApiSet::All(f.universe.num_apis());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(f.apk, all).total_invocations);
  }
}
BENCHMARK(BM_EmulateTrackAll);

void BM_EmulateTrackKeySized(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const emu::DynamicAnalysisEngine engine(f.universe, {});
  std::vector<android::ApiId> ids(426);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<android::ApiId>(i * 40);
  }
  const emu::TrackedApiSet key(ids, f.universe.num_apis());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(f.apk, key).tracked_invocations);
  }
}
BENCHMARK(BM_EmulateTrackKeySized);

// Shared small study for the learning benchmarks.
struct StudyFixture {
  android::ApiUniverse universe;
  core::StudyDataset study;
  ml::Dataset data;

  StudyFixture() : universe(android::ApiUniverse::Generate(Fixture::SmallUniverse())) {
    synth::CorpusConfig corpus_config;
    synth::CorpusGenerator generator(universe, corpus_config);
    core::StudyConfig config;
    config.num_apps = 1'500;
    study = core::RunStudy(universe, generator, config);
    const auto correlations = core::ComputeApiCorrelations(study, universe.num_apis());
    const auto sel = core::SelectKeyApis(correlations, universe, study.size());
    const core::FeatureSchema schema(sel.key_apis, universe);
    data = core::BuildDataset(study, schema, universe);
  }

  static StudyFixture& Get() {
    static StudyFixture fixture;
    return fixture;
  }
};

void BM_ComputeApiCorrelations(benchmark::State& state) {
  StudyFixture& f = StudyFixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeApiCorrelations(f.study, f.universe.num_apis()).size());
  }
}
BENCHMARK(BM_ComputeApiCorrelations);

void BM_RandomForestTrain(benchmark::State& state) {
  StudyFixture& f = StudyFixture::Get();
  for (auto _ : state) {
    ml::RandomForestConfig config;
    config.num_trees = 16;
    ml::RandomForest forest(config);
    forest.Train(f.data);
    benchmark::DoNotOptimize(forest.num_trees());
  }
}
BENCHMARK(BM_RandomForestTrain)->Unit(benchmark::kMillisecond);

void BM_RandomForestPredict(benchmark::State& state) {
  StudyFixture& f = StudyFixture::Get();
  static ml::RandomForest forest = [&] {
    ml::RandomForestConfig config;
    ml::RandomForest trained(config);
    trained.Train(f.data);
    return trained;
  }();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictScore(f.data.rows[i++ % f.data.size()]));
  }
}
BENCHMARK(BM_RandomForestPredict);

}  // namespace
}  // namespace apichecker

BENCHMARK_MAIN();
