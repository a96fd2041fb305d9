#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include "util/strings.h"

namespace apichecker::obs {

namespace {

// Shortest representation that round-trips a double through text.
std::string JsonNumber(double value) {
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 1e15) {
    return util::StrFormat("%" PRId64, static_cast<int64_t>(value));
  }
  return util::StrFormat("%.17g", value);
}

void AppendHistogramJson(std::string& out, const HistogramSnapshot& hist) {
  const bool empty = hist.count == 0;
  out += "{\"count\": " + util::StrFormat("%llu", static_cast<unsigned long long>(hist.count));
  out += ", \"sum\": " + JsonNumber(hist.sum);
  out += ", \"min\": " + JsonNumber(empty ? 0.0 : hist.min);
  out += ", \"max\": " + JsonNumber(empty ? 0.0 : hist.max);
  out += ", \"mean\": " + JsonNumber(hist.Mean());
  out += ", \"quantiles\": {";
  const char* sep = "";
  for (const auto& [label, q] : {std::pair<const char*, double>{"p50", 0.50},
                                 {"p90", 0.90},
                                 {"p95", 0.95},
                                 {"p99", 0.99}}) {
    out += sep;
    out += util::StrFormat("\"%s\": ", label);
    out += JsonNumber(hist.Quantile(q));
    sep = ", ";
  }
  out += "}, \"buckets\": [";
  uint64_t cumulative = 0;
  sep = "";
  for (size_t b = 0; b < hist.bucket_counts.size(); ++b) {
    cumulative += hist.bucket_counts[b];
    out += sep;
    out += "{\"le\": ";
    out += b < hist.bounds.size() ? JsonNumber(hist.bounds[b]) : std::string("\"+Inf\"");
    out += util::StrFormat(", \"count\": %llu}", static_cast<unsigned long long>(cumulative));
    sep = ", ";
  }
  out += "]}";
}

}  // namespace

std::string ToPrometheusText(const MetricsRegistry& registry) {
  // The registry keys each series by a flat name that may carry a label set
  // (family{k="v"}). HELP/TYPE belong to the bare family, once, so group the
  // series by family explicitly: the name sort can put family_x between
  // family and family{...}.
  struct Series {
    std::string labels;  // Between the braces; empty when unlabelled.
    const MetricSnapshot* metric;
  };
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  std::map<std::string, std::vector<Series>> families;
  for (const MetricSnapshot& metric : snapshot) {
    const std::string& name = metric.name;
    const size_t brace = name.find('{');
    if (brace == std::string::npos || name.back() != '}') {
      families[name].push_back({"", &metric});
    } else {
      families[name.substr(0, brace)].push_back(
          {name.substr(brace + 1, name.size() - brace - 2), &metric});
    }
  }

  std::string out;
  for (const auto& [family, series] : families) {
    for (const Series& s : series) {
      if (!s.metric->help.empty()) {
        out += "# HELP " + family + " " + s.metric->help + "\n";
        break;
      }
    }
    out += util::StrFormat("# TYPE %s %s\n", family.c_str(),
                           MetricKindName(series.front().metric->kind));
    for (const auto& [labels, metric] : series) {
      const std::string braced = labels.empty() ? "" : "{" + labels + "}";
      switch (metric->kind) {
        case MetricKind::kCounter:
        case MetricKind::kGauge:
          out += family + braced + " " + JsonNumber(metric->value) + "\n";
          break;
        case MetricKind::kHistogram: {
          const HistogramSnapshot& hist = metric->histogram;
          const std::string le_prefix = labels.empty() ? "" : labels + ",";
          uint64_t cumulative = 0;
          for (size_t b = 0; b < hist.bucket_counts.size(); ++b) {
            cumulative += hist.bucket_counts[b];
            const std::string le =
                b < hist.bounds.size() ? JsonNumber(hist.bounds[b]) : std::string("+Inf");
            out += util::StrFormat("%s_bucket{%sle=\"%s\"} %llu\n", family.c_str(),
                                   le_prefix.c_str(), le.c_str(),
                                   static_cast<unsigned long long>(cumulative));
          }
          out += family + "_sum" + braced + " " + JsonNumber(hist.sum) + "\n";
          out += util::StrFormat("%s_count%s %llu\n", family.c_str(), braced.c_str(),
                                 static_cast<unsigned long long>(hist.count));
          break;
        }
      }
    }
  }
  return out;
}

std::string ToJson(const MetricsRegistry& registry) {
  std::string counters = "{";
  std::string gauges = "{";
  std::string histograms = "{";
  const char* counter_sep = "";
  const char* gauge_sep = "";
  const char* hist_sep = "";
  for (const MetricSnapshot& metric : registry.Snapshot()) {
    switch (metric.kind) {
      case MetricKind::kCounter:
        counters += counter_sep;
        counters += "\"" + util::JsonEscape(metric.name) + "\": " + JsonNumber(metric.value);
        counter_sep = ", ";
        break;
      case MetricKind::kGauge:
        gauges += gauge_sep;
        gauges += "\"" + util::JsonEscape(metric.name) + "\": " + JsonNumber(metric.value);
        gauge_sep = ", ";
        break;
      case MetricKind::kHistogram:
        histograms += hist_sep;
        histograms += "\"" + util::JsonEscape(metric.name) + "\": ";
        AppendHistogramJson(histograms, metric.histogram);
        hist_sep = ", ";
        break;
    }
  }
  counters += "}";
  gauges += "}";
  histograms += "}";

  std::string out = "{\n  \"schema\": \"apichecker-metrics-v1\",\n";
  out += "  \"counters\": " + counters + ",\n";
  out += "  \"gauges\": " + gauges + ",\n";
  out += "  \"histograms\": " + histograms + "\n}\n";
  return out;
}

util::Result<bool> WriteMetricsFile(const std::string& path,
                                    const MetricsRegistry& registry) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return util::Err("cannot open metrics file: " + path);
  }
  out << (util::EndsWith(path, ".prom") ? ToPrometheusText(registry)
                                        : ToJson(registry));
  out.flush();
  if (!out) {
    return util::Err("write failed: " + path);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Minimal JSON reader, sufficient for the dump format above.

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  util::Result<JsonValue> Parse() {
    auto value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return util::Err(ErrorAt("trailing characters"));
    }
    return value;
  }

 private:
  std::string ErrorAt(const std::string& what) {
    return util::StrFormat("json: %s at offset %zu", what.c_str(), pos_);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  util::Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return util::Err(ErrorAt("unexpected end of input"));
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) {
        return util::Err(s.error());
      }
      JsonValue value;
      value.type = JsonValue::Type::kString;
      value.string = std::move(*s);
      return value;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue value;
      value.type = JsonValue::Type::kBool;
      value.boolean = true;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue value;
      value.type = JsonValue::Type::kBool;
      return value;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return ParseNumber();
  }

  util::Result<std::string> ParseString() {
    ++pos_;  // Opening quote.
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      switch (text_[pos_++]) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          auto code_point = ParseUnicodeEscape();
          if (!code_point.ok()) {
            return util::Err(code_point.error());
          }
          AppendUtf8(*code_point, out);
          break;
        }
        default:
          --pos_;
          return util::Err(ErrorAt("bad escape"));
      }
    }
    if (pos_ >= text_.size()) {
      return util::Err(ErrorAt("unterminated string"));
    }
    ++pos_;  // Closing quote.
    return out;
  }

  // Four hex digits at pos_, the body of a \u escape.
  util::Result<uint32_t> ParseHex4() {
    uint32_t value = 0;
    const char* begin = text_.data() + pos_;
    const char* end = begin + std::min<size_t>(4, text_.size() - pos_);
    const auto parsed = std::from_chars(begin, end, value, 16);
    if (end - begin != 4 || parsed.ec != std::errc() || parsed.ptr != end) {
      return util::Err(ErrorAt("bad unicode escape"));
    }
    pos_ += 4;
    return value;
  }

  // The code point of a \u escape whose 'u' was just consumed; a high
  // surrogate must be followed by an escaped low one, and a low one alone is
  // an error.
  util::Result<uint32_t> ParseUnicodeEscape() {
    auto unit = ParseHex4();
    if (!unit.ok() || *unit < 0xD800 || *unit > 0xDFFF) {
      return unit;
    }
    if (*unit >= 0xDC00 || text_.compare(pos_, 2, "\\u") != 0) {
      return util::Err(ErrorAt("unpaired surrogate"));
    }
    pos_ += 2;
    auto low = ParseHex4();
    if (!low.ok()) {
      return low;
    }
    if (*low < 0xDC00 || *low > 0xDFFF) {
      return util::Err(ErrorAt("unpaired surrogate"));
    }
    return 0x10000 + ((*unit - 0xD800) << 10) + (*low - 0xDC00);
  }

  static void AppendUtf8(uint32_t code_point, std::string& out) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | code_point >> 6);
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | code_point >> 12);
      out += static_cast<char>(0x80 | (code_point >> 6 & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | code_point >> 18);
      out += static_cast<char>(0x80 | (code_point >> 12 & 0x3F));
      out += static_cast<char>(0x80 | (code_point >> 6 & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  util::Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return util::Err(ErrorAt("expected a value"));
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return value;
  }

  util::Result<JsonValue> ParseArray() {
    ++pos_;  // '['.
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (Consume(']')) {
      return value;
    }
    while (true) {
      auto element = ParseValue();
      if (!element.ok()) {
        return element;
      }
      value.array.push_back(std::move(*element));
      if (Consume(']')) {
        return value;
      }
      if (!Consume(',')) {
        return util::Err(ErrorAt("expected ',' or ']'"));
      }
    }
  }

  util::Result<JsonValue> ParseObject() {
    ++pos_;  // '{'.
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (Consume('}')) {
      return value;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return util::Err(ErrorAt("expected an object key"));
      }
      auto key = ParseString();
      if (!key.ok()) {
        return util::Err(key.error());
      }
      if (!Consume(':')) {
        return util::Err(ErrorAt("expected ':'"));
      }
      auto element = ParseValue();
      if (!element.ok()) {
        return element;
      }
      value.object.emplace_back(std::move(*key), std::move(*element));
      if (Consume('}')) {
        return value;
      }
      if (!Consume(',')) {
        return util::Err(ErrorAt("expected ',' or '}'"));
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

double NumberOr(const JsonValue* value, double fallback) {
  return value != nullptr && value->type == JsonValue::Type::kNumber ? value->number
                                                                     : fallback;
}

}  // namespace

util::Result<ParsedDump> ParseJsonDump(std::string_view json) {
  auto root = JsonParser(json).Parse();
  if (!root.ok()) {
    return util::Err(root.error());
  }
  if (root->type != JsonValue::Type::kObject) {
    return util::Err("json: dump root is not an object");
  }
  ParsedDump dump;
  if (const JsonValue* counters = root->Find("counters")) {
    for (const auto& [name, value] : counters->object) {
      dump.counters[name] = NumberOr(&value, 0.0);
    }
  }
  if (const JsonValue* gauges = root->Find("gauges")) {
    for (const auto& [name, value] : gauges->object) {
      dump.gauges[name] = NumberOr(&value, 0.0);
    }
  }
  if (const JsonValue* histograms = root->Find("histograms")) {
    for (const auto& [name, value] : histograms->object) {
      ParsedHistogram hist;
      hist.count = static_cast<uint64_t>(NumberOr(value.Find("count"), 0.0));
      hist.sum = NumberOr(value.Find("sum"), 0.0);
      hist.min = NumberOr(value.Find("min"), 0.0);
      hist.max = NumberOr(value.Find("max"), 0.0);
      if (const JsonValue* quantiles = value.Find("quantiles")) {
        for (const auto& [q, qv] : quantiles->object) {
          hist.quantiles[q] = NumberOr(&qv, 0.0);
        }
      }
      dump.histograms[name] = std::move(hist);
    }
  }
  return dump;
}

PeriodicReporter::PeriodicReporter(std::chrono::milliseconds interval, FlushFn flush,
                                   TimerHost host, MetricsRegistry& registry)
    : interval_(interval),
      flush_(std::move(flush)),
      registry_(registry),
      host_(std::move(host)) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmLocked();
}

PeriodicReporter::~PeriodicReporter() { Stop(); }

void PeriodicReporter::ArmLocked() {
  tick_armed_ = true;
  cancel_tick_ = host_(interval_, [this] { Tick(); });
  if (!cancel_tick_) tick_armed_ = false;  // Host refused: it is shutting down.
}

void PeriodicReporter::Tick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      tick_armed_ = false;
      cv_.notify_all();
      return;
    }
  }
  flush_(registry_);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    tick_armed_ = false;
    cv_.notify_all();
    return;
  }
  ArmLocked();
}

void PeriodicReporter::Stop() {
  // Fully serialized: every Stop() caller returns only after the one final
  // flush has run. Without this, a second concurrent caller would observe
  // stopping_ == true and return while the first was still waiting out a
  // racing tick — the "service stopped between ticks" snapshot it relied on
  // not yet written.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) {
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    // A successful cancel retires the pending tick; a lost race means the
    // tick is queued or mid-flush, so wait for it to observe stopping_.
    if (tick_armed_ && cancel_tick_ && cancel_tick_()) tick_armed_ = false;
    cv_.wait(lock, [this] { return !tick_armed_; });
  }
  flush_(registry_);  // Final flush so short runs never lose their tail.
  flushes_.fetch_add(1, std::memory_order_relaxed);
  stopped_ = true;
}

}  // namespace apichecker::obs
