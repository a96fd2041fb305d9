#include "util/logging.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/strings.h"

namespace apichecker::util {

namespace {

std::atomic<int> g_min_severity{static_cast<int>(LogSeverity::kInfo)};
std::atomic<int> g_format{static_cast<int>(LogFormat::kText)};
// Environment configuration is applied once, lazily, unless an explicit
// SetMinLogSeverity/SetLogFormat call claimed the setting first.
std::atomic<bool> g_env_checked{false};

void ApplyEnvConfig() {
  if (g_env_checked.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  if (const char* level = std::getenv("APICHECKER_LOG_LEVEL")) {
    if (std::strcmp(level, "debug") == 0) {
      g_min_severity.store(static_cast<int>(LogSeverity::kDebug));
    } else if (std::strcmp(level, "info") == 0) {
      g_min_severity.store(static_cast<int>(LogSeverity::kInfo));
    } else if (std::strcmp(level, "warn") == 0 || std::strcmp(level, "warning") == 0) {
      g_min_severity.store(static_cast<int>(LogSeverity::kWarning));
    } else if (std::strcmp(level, "error") == 0) {
      g_min_severity.store(static_cast<int>(LogSeverity::kError));
    } else {
      std::fprintf(stderr, "[WARN] ignoring unknown APICHECKER_LOG_LEVEL=%s\n", level);
    }
  }
  if (const char* format = std::getenv("APICHECKER_LOG_FORMAT")) {
    if (std::strcmp(format, "json") == 0) {
      g_format.store(static_cast<int>(LogFormat::kJson));
    } else if (std::strcmp(format, "text") == 0) {
      g_format.store(static_cast<int>(LogFormat::kText));
    } else {
      std::fprintf(stderr, "[WARN] ignoring unknown APICHECKER_LOG_FORMAT=%s\n", format);
    }
  }
}

const char* SeverityTag(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return "DEBUG";
    case LogSeverity::kInfo:
      return "INFO";
    case LogSeverity::kWarning:
      return "WARN";
    case LogSeverity::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  return base;
}

std::mutex& SinkMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

}  // namespace

void SetMinLogSeverity(LogSeverity severity) {
  g_env_checked.store(true, std::memory_order_release);  // Explicit set wins.
  g_min_severity.store(static_cast<int>(severity), std::memory_order_relaxed);
}

LogSeverity MinLogSeverity() {
  ApplyEnvConfig();
  return static_cast<LogSeverity>(g_min_severity.load(std::memory_order_relaxed));
}

void SetLogFormat(LogFormat format) {
  g_env_checked.store(true, std::memory_order_release);
  g_format.store(static_cast<int>(format), std::memory_order_relaxed);
}

LogFormat GetLogFormat() {
  ApplyEnvConfig();
  return static_cast<LogFormat>(g_format.load(std::memory_order_relaxed));
}

void LogLine(LogSeverity severity, const std::string& message) {
  if (static_cast<int>(severity) < static_cast<int>(MinLogSeverity())) {
    return;
  }
  std::lock_guard<std::mutex> lock(SinkMutex());
  if (GetLogFormat() == LogFormat::kJson) {
    std::fprintf(stderr, "{\"severity\": \"%s\", \"message\": \"%s\"}\n",
                 SeverityTag(severity), JsonEscape(message).c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", SeverityTag(severity), message.c_str());
  }
}

StructuredLog::StructuredLog(LogSeverity severity, std::string_view event)
    : severity_(severity),
      enabled_(static_cast<int>(severity) >= static_cast<int>(MinLogSeverity())),
      event_(enabled_ ? std::string(event) : std::string()) {}

StructuredLog& StructuredLog::With(std::string_view key, std::string_view value) {
  if (enabled_) {
    fields_.push_back({std::string(key), std::string(value), /*quoted=*/true});
  }
  return *this;
}

StructuredLog& StructuredLog::With(std::string_view key, bool value) {
  if (enabled_) {
    fields_.push_back({std::string(key), value ? "true" : "false", /*quoted=*/false});
  }
  return *this;
}

StructuredLog& StructuredLog::With(std::string_view key, double value) {
  if (enabled_) {
    fields_.push_back({std::string(key), StrFormat("%.6g", value), /*quoted=*/false});
  }
  return *this;
}

StructuredLog& StructuredLog::WithInt(std::string_view key, int64_t value) {
  if (enabled_) {
    fields_.push_back({std::string(key), StrFormat("%" PRId64, value), /*quoted=*/false});
  }
  return *this;
}

StructuredLog::~StructuredLog() {
  if (!enabled_) {
    return;
  }
  std::string line;
  if (GetLogFormat() == LogFormat::kJson) {
    line = StrFormat("{\"severity\": \"%s\", \"event\": \"%s\"", SeverityTag(severity_),
                     JsonEscape(event_).c_str());
    for (const Field& field : fields_) {
      line += StrFormat(", \"%s\": ", JsonEscape(field.key).c_str());
      if (field.quoted) {
        line += "\"" + JsonEscape(field.value) + "\"";
      } else {
        line += field.value;
      }
    }
    line += "}";
  } else {
    line = StrFormat("[%s] %s", SeverityTag(severity_), event_.c_str());
    for (const Field& field : fields_) {
      if (field.quoted) {
        line += StrFormat(" %s=\"%s\"", field.key.c_str(), field.value.c_str());
      } else {
        line += StrFormat(" %s=%s", field.key.c_str(), field.value.c_str());
      }
    }
  }
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fprintf(stderr, "%s\n", line.c_str());
}

namespace internal {

LogMessage::LogMessage(LogSeverity severity, const char* file, int line) : severity_(severity) {
  stream_ << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() { LogLine(severity_, stream_.str()); }

}  // namespace internal
}  // namespace apichecker::util
