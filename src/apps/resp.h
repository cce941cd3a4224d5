// A RESP-style protocol (the Redis serialization protocol), as used by the paper's
// motivating application (§3.2).
//
// Requests are arrays of bulk strings; responses are simple strings, errors, integers,
// bulk strings, or nil. Two consumption modes mirror the paper's §3.2 contrast:
//   - NextRespCommand(stream): incremental, for POSIX byte streams — it must cope
//     with partial requests, and every failed attempt on an incomplete buffer is the
//     wasted work the paper attributes to the pipe abstraction (counted as
//     kStreamScans);
//   - ParseRespCommand(whole buffer): one-shot, for Demikernel atomic queue
//     elements — by construction it only ever sees complete requests.

#ifndef SRC_APPS_RESP_H_
#define SRC_APPS_RESP_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/result.h"

namespace demi {

using RespCommand = std::vector<std::string>;

// Encodes a command as a RESP array of bulk strings.
std::string EncodeRespCommand(const RespCommand& args);

// One-shot parse of a COMPLETE request (Demikernel mode). Fails on trailing garbage
// or truncation — an atomic queue element must be exactly one request.
Result<RespCommand> ParseRespCommand(std::string_view data);

// Zero-copy variant: each argument is a slice of `data` (no byte is copied). This is
// what the Demikernel servers use on popped queue elements.
Result<std::vector<Buffer>> ParseRespCommandBuffers(const Buffer& data);

// RESP responses.
struct RespValue {
  enum class Kind { kSimple, kError, kInteger, kBulk, kNil };
  Kind kind = Kind::kNil;
  std::string text;        // kSimple/kError/kBulk payload
  std::int64_t integer = 0;

  static RespValue Simple(std::string s) { return {Kind::kSimple, std::move(s), 0}; }
  static RespValue Error(std::string s) { return {Kind::kError, std::move(s), 0}; }
  static RespValue Integer(std::int64_t v) { return {Kind::kInteger, "", v}; }
  static RespValue Bulk(std::string s) { return {Kind::kBulk, std::move(s), 0}; }
  static RespValue Nil() { return {}; }

  friend bool operator==(const RespValue&, const RespValue&) = default;
};

std::string EncodeRespValue(const RespValue& value);

// Incremental request parsing over a byte stream's buffered bytes (POSIX mode):
// takes the next complete request off the front of `stream`, in place. Returns:
//   - a command when one is complete (its bytes are erased from `stream`),
//   - nullopt when `stream` holds no complete request; on a non-empty `stream` that
//     is the §3.2 wasted scan,
//   - kProtocolError on malformed input.
Result<std::optional<RespCommand>> NextRespCommand(std::string& stream);

// Incremental response parser for byte streams (POSIX client mode).
class RespResponseParser {
 public:
  void Feed(std::string_view bytes) { buffer_.append(bytes); }
  Result<std::optional<RespValue>> Next();

 private:
  std::string buffer_;
};

}  // namespace demi

#endif  // SRC_APPS_RESP_H_
