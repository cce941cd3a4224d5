// Minimal leveled logging. Disabled below the compile-time threshold at no cost; used
// mainly by tests and examples (the data path never logs).

#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string_view>

namespace demi {

enum class LogLevel : std::uint8_t { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

// Process-wide log threshold (kWarn so tests/benches stay quiet).
inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

namespace log_internal {

// Accumulates one log line and emits it on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view file, int line);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace log_internal

#define DEMI_LOG(level)                              \
  if (::demi::LogLevel::level < ::demi::kLogLevel) { \
  } else                                             \
    ::demi::log_internal::LogLine(::demi::LogLevel::level, __FILE__, __LINE__)

#define LOG_TRACE DEMI_LOG(kTrace)
#define LOG_DEBUG DEMI_LOG(kDebug)
#define LOG_INFO DEMI_LOG(kInfo)
#define LOG_WARN DEMI_LOG(kWarn)
#define LOG_ERROR DEMI_LOG(kError)

// Always-on invariant check; aborts with a message. Used for programmer errors only
// (never for recoverable I/O conditions, which return Status).
[[noreturn]] void PanicImpl(std::string_view file, int line, std::string_view msg);

#define DEMI_CHECK(cond)                                          \
  do {                                                            \
    if (!(cond)) {                                                \
      ::demi::PanicImpl(__FILE__, __LINE__, "check failed: " #cond); \
    }                                                             \
  } while (false)

}  // namespace demi

#endif  // SRC_COMMON_LOGGING_H_
