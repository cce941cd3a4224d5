#include "src/apps/resp.h"

#include <charconv>

namespace demi {

namespace {

constexpr std::string_view kCrlf = "\r\n";

// Parses "<digits>\r\n" at `pos`; advances pos past the CRLF. Returns nullopt when the
// buffer ends before the CRLF (incomplete), error via the bool flag when malformed.
struct LineInt {
  bool malformed = false;
  bool incomplete = false;
  std::int64_t value = 0;
};

LineInt ParseIntLine(std::string_view data, std::size_t& pos) {
  LineInt out;
  const std::size_t eol = data.find(kCrlf, pos);
  if (eol == std::string_view::npos) {
    out.incomplete = true;
    return out;
  }
  const std::string_view digits = data.substr(pos, eol - pos);
  if (digits.empty()) {
    out.malformed = true;
    return out;
  }
  auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), out.value);
  if (ec != std::errc() || ptr != digits.data() + digits.size()) {
    out.malformed = true;
    return out;
  }
  pos = eol + 2;
  return out;
}

// Attempts to parse one command at data[pos...]; on success advances pos.
// Returns: 1 = parsed, 0 = incomplete, -1 = malformed.
int TryParseCommand(std::string_view data, std::size_t& pos, RespCommand& out) {
  std::size_t p = pos;
  if (p >= data.size()) {
    return 0;
  }
  if (data[p] != '*') {
    return -1;
  }
  ++p;
  LineInt count = ParseIntLine(data, p);
  if (count.incomplete) {
    return 0;
  }
  if (count.malformed || count.value < 0 || count.value > 1024 * 1024) {
    return -1;
  }
  RespCommand args;
  args.reserve(static_cast<std::size_t>(count.value));
  for (std::int64_t i = 0; i < count.value; ++i) {
    if (p >= data.size()) {
      return 0;
    }
    if (data[p] != '$') {
      return -1;
    }
    ++p;
    LineInt len = ParseIntLine(data, p);
    if (len.incomplete) {
      return 0;
    }
    if (len.malformed || len.value < 0 || len.value > 512 * 1024 * 1024) {
      return -1;
    }
    if (p + static_cast<std::size_t>(len.value) + 2 > data.size()) {
      return 0;
    }
    args.emplace_back(data.substr(p, static_cast<std::size_t>(len.value)));
    p += static_cast<std::size_t>(len.value);
    if (data.substr(p, 2) != kCrlf) {
      return -1;
    }
    p += 2;
  }
  pos = p;
  out = std::move(args);
  return 1;
}

}  // namespace

std::string EncodeRespCommand(const RespCommand& args) {
  std::string out = "*" + std::to_string(args.size()) + "\r\n";
  for (const std::string& arg : args) {
    out += "$" + std::to_string(arg.size()) + "\r\n";
    out += arg;
    out += "\r\n";
  }
  return out;
}

Result<RespCommand> ParseRespCommand(std::string_view data) {
  std::size_t pos = 0;
  RespCommand out;
  const int rc = TryParseCommand(data, pos, out);
  if (rc != 1) {
    return ProtocolError(rc == 0 ? "truncated request" : "malformed request");
  }
  if (pos != data.size()) {
    return ProtocolError("trailing bytes after request");
  }
  return out;
}

Result<std::vector<Buffer>> ParseRespCommandBuffers(const Buffer& data) {
  const std::string_view view = data.AsStringView();
  // Reuse the string-view scanner for structure, then slice the argument ranges.
  if (view.empty() || view[0] != '*') {
    return ProtocolError("malformed request");
  }
  std::size_t p = 1;
  LineInt count = ParseIntLine(view, p);
  if (count.incomplete || count.malformed || count.value < 0 ||
      count.value > 1024 * 1024) {
    return ProtocolError("malformed request header");
  }
  std::vector<Buffer> args;
  args.reserve(static_cast<std::size_t>(count.value));
  for (std::int64_t i = 0; i < count.value; ++i) {
    if (p >= view.size() || view[p] != '$') {
      return ProtocolError("malformed bulk header");
    }
    ++p;
    LineInt len = ParseIntLine(view, p);
    if (len.incomplete || len.malformed || len.value < 0) {
      return ProtocolError("malformed bulk length");
    }
    if (p + static_cast<std::size_t>(len.value) + 2 > view.size()) {
      return ProtocolError("truncated request");
    }
    args.push_back(data.Slice(p, static_cast<std::size_t>(len.value)));  // zero copy
    p += static_cast<std::size_t>(len.value);
    if (view.substr(p, 2) != kCrlf) {
      return ProtocolError("missing CRLF");
    }
    p += 2;
  }
  if (p != view.size()) {
    return ProtocolError("trailing bytes after request");
  }
  return args;
}

std::string EncodeRespValue(const RespValue& value) {
  switch (value.kind) {
    case RespValue::Kind::kSimple:
      return "+" + value.text + "\r\n";
    case RespValue::Kind::kError:
      return "-" + value.text + "\r\n";
    case RespValue::Kind::kInteger:
      return ":" + std::to_string(value.integer) + "\r\n";
    case RespValue::Kind::kBulk:
      return "$" + std::to_string(value.text.size()) + "\r\n" + value.text + "\r\n";
    case RespValue::Kind::kNil:
      return "$-1\r\n";
  }
  return "";
}

Result<std::optional<RespCommand>> NextRespCommand(std::string& stream) {
  if (stream.empty()) {
    return std::optional<RespCommand>(std::nullopt);
  }
  std::size_t pos = 0;
  RespCommand out;
  const int rc = TryParseCommand(stream, pos, out);
  if (rc == -1) {
    return ProtocolError("malformed request stream");
  }
  if (rc == 0) {
    // The §3.2 pathology: we scanned the buffer and found no complete request — this
    // work bought nothing and will be repeated when more bytes arrive.
    return std::optional<RespCommand>(std::nullopt);
  }
  stream.erase(0, pos);
  return std::optional<RespCommand>(std::move(out));
}

Result<std::optional<RespValue>> RespResponseParser::Next() {
  if (buffer_.empty()) {
    return std::optional<RespValue>(std::nullopt);
  }
  std::size_t pos = 0;
  const char tag = buffer_[0];
  RespValue value;
  switch (tag) {
    case '+':
    case '-': {
      const std::size_t eol = buffer_.find("\r\n", 1);
      if (eol == std::string::npos) {
        return std::optional<RespValue>(std::nullopt);
      }
      value.kind = tag == '+' ? RespValue::Kind::kSimple : RespValue::Kind::kError;
      value.text = buffer_.substr(1, eol - 1);
      pos = eol + 2;
      break;
    }
    case ':': {
      std::size_t p = 1;
      LineInt v = ParseIntLine(buffer_, p);
      if (v.incomplete) {
        return std::optional<RespValue>(std::nullopt);
      }
      if (v.malformed) {
        return ProtocolError("bad integer reply");
      }
      value = RespValue::Integer(v.value);
      pos = p;
      break;
    }
    case '$': {
      std::size_t p = 1;
      LineInt len = ParseIntLine(buffer_, p);
      if (len.incomplete) {
        return std::optional<RespValue>(std::nullopt);
      }
      if (len.malformed || len.value < -1) {
        return ProtocolError("bad bulk length");
      }
      if (len.value == -1) {
        value = RespValue::Nil();
        pos = p;
        break;
      }
      if (p + static_cast<std::size_t>(len.value) + 2 > buffer_.size()) {
        return std::optional<RespValue>(std::nullopt);
      }
      value = RespValue::Bulk(buffer_.substr(p, static_cast<std::size_t>(len.value)));
      pos = p + static_cast<std::size_t>(len.value) + 2;
      break;
    }
    default:
      return ProtocolError("unknown reply tag");
  }
  buffer_.erase(0, pos);
  return std::optional<RespValue>(std::move(value));
}

}  // namespace demi
