#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

namespace demi {

namespace {
constexpr std::string_view kLevelNames[] = {"TRACE", "DEBUG", "INFO", "WARN", "ERROR", "OFF"};
static_assert(std::size(kLevelNames) == static_cast<std::size_t>(LogLevel::kOff) + 1);

std::string_view Basename(std::string_view path) {
  const std::size_t pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}
}  // namespace

namespace log_internal {

LogLine::LogLine(LogLevel level, std::string_view file, int line) {
  stream_ << "[" << kLevelNames[static_cast<std::size_t>(level)] << " " << Basename(file)
          << ":" << line << "] ";
}

LogLine::~LogLine() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace log_internal

void PanicImpl(std::string_view file, int line, std::string_view msg) {
  std::fprintf(stderr, "[PANIC %.*s:%d] %.*s\n", static_cast<int>(Basename(file).size()),
               Basename(file).data(), line, static_cast<int>(msg.size()), msg.data());
  std::abort();
}

}  // namespace demi
