#include "core/logging.h"

#include <cstdio>

#include "core/env.h"

namespace mhbench {
namespace {

LogLevel LevelFromEnv() {
  return ParseLogLevel(EnvString("MHB_LOG_LEVEL", ""), LogLevel::kInfo);
}

LogLevel g_level = LevelFromEnv();

}  // namespace

LogLevel GetLogLevel() { return g_level; }
void SetLogLevel(LogLevel level) { g_level = level; }

LogLevel ParseLogLevel(const std::string& text, LogLevel fallback) {
  if (text == "silent" || text == "off" || text == "0") return LogLevel::kSilent;
  if (text == "error" || text == "1") return LogLevel::kError;
  if (text == "warn" || text == "warning" || text == "2") return LogLevel::kWarn;
  if (text == "info" || text == "3") return LogLevel::kInfo;
  if (text == "debug" || text == "4") return LogLevel::kDebug;
  if (text == "trace" || text == "5") return LogLevel::kTrace;
  return fallback;
}

namespace internal {

LogLine::LogLine(LogLevel level, const char* tag)
    : enabled_(static_cast<int>(level) <= static_cast<int>(GetLogLevel())) {
  if (enabled_) stream_ << "[" << tag << "] ";
}

LogLine::~LogLine() {
  if (enabled_) {
    stream_ << "\n";
    // One fputs per line: stdio locks the stream, so concurrent engine
    // threads cannot interleave characters within a line.
    std::fputs(stream_.str().c_str(), stderr);
  }
}

}  // namespace internal
}  // namespace mhbench
