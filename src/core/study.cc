#include "core/study.h"

#include <algorithm>
#include <unordered_map>

#include "obs/trace.h"
#include "util/logging.h"

namespace apichecker::core {

size_t StudyDataset::NumPositive() const {
  size_t n = 0;
  for (const StudyRecord& r : records) {
    n += r.label;
  }
  return n;
}

StudyRecorder::StudyRecorder(const android::ApiUniverse& universe,
                             const emu::EngineConfig& engine_config)
    : universe_(universe),
      hook_minutes_per_invocation_(engine_config.hook_cost_us / 6.0e7) {
  for (size_t i = 0; i < universe.permissions().size(); ++i) {
    permission_ids_.emplace(universe.permissions()[i].name,
                            static_cast<android::PermissionId>(i));
  }
  for (size_t i = 0; i < universe.intents().size(); ++i) {
    intent_ids_.emplace(universe.intents()[i], static_cast<android::IntentId>(i));
  }
}

StudyRecord StudyRecorder::BuildRecord(const apk::ApkFile& apk,
                                       const emu::EmulationReport& report) const {
  StudyRecord record;
  record.observed_apis = report.observed_apis;
  record.observed_api_counts = report.observed_api_counts;
  for (size_t m = 0; m < apk.dex.method_name_idx.size(); ++m) {
    if (const auto id = universe_.FindByName(apk.dex.MethodName(static_cast<uint32_t>(m)))) {
      record.static_apis.push_back(*id);
    }
  }
  std::sort(record.static_apis.begin(), record.static_apis.end());
  record.total_invocations = report.total_invocations;
  record.rac = static_cast<float>(report.rac);
  record.base_minutes = static_cast<float>(
      report.emulation_minutes -
      static_cast<double>(report.tracked_invocations) * hook_minutes_per_invocation_);
  record.package_name = apk.manifest.package_name;
  for (const std::string& p : report.requested_permissions) {
    const auto it = permission_ids_.find(p);
    if (it != permission_ids_.end()) {
      record.permissions.push_back(it->second);
    }
  }
  for (const std::string& action : report.manifest_intent_filters) {
    const auto it = intent_ids_.find(action);
    if (it != intent_ids_.end()) {
      record.manifest_intents.push_back(it->second);
    }
  }
  for (const emu::ObservedIntent& observed : report.observed_intents) {
    const auto it = intent_ids_.find(observed.action);
    if (it != intent_ids_.end()) {
      record.runtime_intents.emplace_back(it->second, observed.carrier);
    }
  }
  return record;
}

StudyDataset RunStudy(const android::ApiUniverse& universe, synth::CorpusGenerator& generator,
                      const StudyConfig& config) {
  obs::TraceSpan span("core.run_study");
  StudyDataset study;
  study.records.resize(config.num_apps);

  const emu::DynamicAnalysisEngine engine(universe, config.engine);
  const emu::TrackedApiSet track_all = emu::TrackedApiSet::All(universe.num_apis());
  const StudyRecorder recorder(universe, config.engine);

  for (StudyRecord& slot : study.records) {
    const synth::AppProfile profile = generator.Next();
    // Full APK round trip: build bytes, parse them back, emulate.
    const std::vector<uint8_t> apk_bytes = synth::BuildApkBytes(profile, universe);
    auto apk = apk::ParseApk(apk_bytes);
    if (!apk.ok()) {
      APICHECKER_SLOG(Error, "study.bad_apk").With("error", apk.error());
      continue;
    }
    const emu::EmulationReport report = engine.Run(*apk, track_all);
    slot = recorder.BuildRecord(*apk, report);
    slot.label = profile.malicious ? 1 : 0;
    slot.is_update = profile.is_update ? 1 : 0;
  }
  return study;
}

ml::Dataset BuildDataset(const StudyDataset& study, const FeatureSchema& schema,
                         const android::ApiUniverse& universe) {
  (void)universe;
  ml::Dataset data;
  data.num_features = schema.num_features();
  data.rows.reserve(study.size());
  data.labels.reserve(study.size());
  for (const StudyRecord& record : study.records) {
    ml::SparseRow row;
    if (schema.options().use_apis) {
      for (size_t i = 0; i < record.observed_apis.size(); ++i) {
        const uint32_t count = i < record.observed_api_counts.size()
                                   ? record.observed_api_counts[i]
                                   : 1;
        const int64_t f = schema.ApiFeatureForCount(record.observed_apis[i], count);
        if (f >= 0) {
          row.push_back(static_cast<uint32_t>(f));
        }
      }
    }
    if (schema.options().use_permissions) {
      for (android::PermissionId p : record.permissions) {
        const int64_t f = schema.PermissionFeatureById(p);
        if (f >= 0) {
          row.push_back(static_cast<uint32_t>(f));
        }
      }
    }
    if (schema.options().use_intents) {
      for (android::IntentId intent : record.manifest_intents) {
        const int64_t f = schema.IntentFeatureById(intent);
        if (f >= 0) {
          row.push_back(static_cast<uint32_t>(f));
        }
      }
      for (const auto& [intent, carrier] : record.runtime_intents) {
        // §4.5 collection rule: the parameter is only visible when the
        // carrying API is hooked by the production tracked set.
        if (schema.TracksApi(carrier)) {
          const int64_t f = schema.IntentFeatureById(intent);
          if (f >= 0) {
            row.push_back(static_cast<uint32_t>(f));
          }
        }
      }
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    data.Add(std::move(row), record.label);
  }
  return data;
}

}  // namespace apichecker::core
