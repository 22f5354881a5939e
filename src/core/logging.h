// Lightweight leveled logging to stderr.
//
// Verbosity is controlled by `MHB_LOG_LEVEL` (named: silent / error / warn /
// info / debug / trace, or the matching number 0-5; info when unset).
// Logging is intentionally minimal: experiment *results* go through
// metrics/report, not the log.
//
// Each line is assembled in full and written with a single stdio call, so
// lines from concurrent threads (e.g. engine workers under --threads > 1)
// never interleave mid-line.
#pragma once

#include <sstream>
#include <string>

namespace mhbench {

enum class LogLevel {
  kSilent = 0,
  kError = 1,
  kWarn = 2,
  kInfo = 3,
  kDebug = 4,
  kTrace = 5,
};

// Current verbosity (read once from the environment, overridable in tests).
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

// Parses a level name or number ("warn", "3", ...); `fallback` when
// unrecognized.
LogLevel ParseLogLevel(const std::string& text, LogLevel fallback);

namespace internal {

class LogLine {
 public:
  LogLine(LogLevel level, const char* tag);
  ~LogLine();

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace mhbench

#define MHB_LOG_ERROR \
  ::mhbench::internal::LogLine(::mhbench::LogLevel::kError, "E")
#define MHB_LOG_WARN \
  ::mhbench::internal::LogLine(::mhbench::LogLevel::kWarn, "W")
#define MHB_LOG_INFO \
  ::mhbench::internal::LogLine(::mhbench::LogLevel::kInfo, "I")
#define MHB_LOG_DEBUG \
  ::mhbench::internal::LogLine(::mhbench::LogLevel::kDebug, "D")
#define MHB_LOG_TRACE \
  ::mhbench::internal::LogLine(::mhbench::LogLevel::kTrace, "T")
