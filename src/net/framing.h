// Message framing: how Demikernel queue elements travel over a byte stream (§5.2).
//
// A DPDK-class libOS must delimit scatter-gather units itself on top of TCP; we use the
// simplest robust framing — a 4-byte length prefix — exactly the kind of self-inserted
// framing the paper discusses. The decoder re-emits each unit as zero-copy slices of
// the received segment buffers: the element boundary is preserved (an sga pushed as one
// unit pops as one unit), while internal segmentation may differ, which §4.2 permits.

#ifndef SRC_NET_FRAMING_H_
#define SRC_NET_FRAMING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/fifo.h"
#include "src/common/result.h"
#include "src/memory/sgarray.h"

namespace demi {

class MemoryManager;

// Upper bound on one framed message; protects the decoder from hostile lengths.
constexpr std::size_t kMaxFrameBody = 64 * 1024 * 1024;

// Encodes `sga` as wire parts: a fresh 4-byte length header followed by references to
// the sga's segments (no payload copy). When `mem` is set, the length header comes from
// the pre-registered header pool instead of the heap.
std::vector<Buffer> EncodeFrame(const SgArray& sga, MemoryManager* mem = nullptr);

// Incremental decoder over an arbitrary-chunked byte stream.
class FrameDecoder {
 public:
  // Appends received bytes (zero-copy; the decoder slices these buffers).
  void Feed(Buffer chunk);

  // Returns the next complete message, nullopt if more bytes are needed, or
  // kProtocolError if the stream is corrupt (oversized length). A corrupt stream
  // poisons the decoder: every later Next() repeats the error instead of
  // misparsing body bytes as a length prefix (the bad length was already pulled
  // off the stream, so there is no frame boundary to resynchronize on).
  Result<std::optional<SgArray>> Next();

  std::size_t buffered_bytes() const { return avail_; }
  bool poisoned() const { return poisoned_; }

 private:
  bool ConsumeInto(std::span<std::byte> out);

  Fifo<Buffer> pending_;
  std::size_t avail_ = 0;
  bool have_len_ = false;
  bool poisoned_ = false;
  std::uint32_t body_len_ = 0;
};

}  // namespace demi

#endif  // SRC_NET_FRAMING_H_
