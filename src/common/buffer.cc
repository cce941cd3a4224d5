#include "src/common/buffer.h"

#include <algorithm>

#include "src/common/logging.h"

namespace demi {

namespace {

// Heap-backed storage: header and payload in one allocation would be nicer, but clarity
// wins here; this is not the pooled fast path.
class HeapStorage final : public BufferStorage {
 public:
  explicit HeapStorage(std::size_t capacity)
      : BufferStorage(new std::byte[capacity], capacity) {}
  ~HeapStorage() override { delete[] data_; }
};

}  // namespace

Buffer Buffer::Allocate(std::size_t size) {
  if (size == 0) {
    return Buffer();
  }
  return Buffer(std::make_shared<HeapStorage>(size), 0, size);
}

Buffer Buffer::CopyOf(std::span<const std::byte> bytes) {
  Buffer buf = Allocate(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(buf.mutable_data(), bytes.data(), bytes.size());
  }
  return buf;
}

Buffer Buffer::CopyOf(std::string_view text) {
  return CopyOf(std::as_bytes(std::span<const char>(text.data(), text.size())));
}

Buffer Buffer::FromStorage(std::shared_ptr<BufferStorage> storage, std::size_t offset,
                           std::size_t size) {
  DEMI_CHECK(storage != nullptr);
  DEMI_CHECK(offset + size <= storage->capacity());
  return Buffer(std::move(storage), offset, size);
}

Buffer Buffer::Slice(std::size_t offset, std::size_t length) const {
  if (offset >= size_) {
    return Buffer();
  }
  const std::size_t len = std::min(length, size_ - offset);
  return Buffer(storage_, offset_ + offset, len);
}

Buffer ConcatCopy(std::span<const Buffer> parts) {
  std::size_t total = 0;
  for (const Buffer& p : parts) {
    total += p.size();
  }
  Buffer out = Buffer::Allocate(total);
  std::size_t at = 0;
  for (const Buffer& p : parts) {
    if (!p.empty()) {
      std::memcpy(out.mutable_data() + at, p.data(), p.size());
      at += p.size();
    }
  }
  return out;
}

void DropFront(std::vector<Buffer>& parts, std::size_t n) {
  std::size_t whole = 0;
  while (whole < parts.size() && parts[whole].size() <= n) {
    n -= parts[whole].size();
    ++whole;
  }
  parts.erase(parts.begin(), parts.begin() + static_cast<std::ptrdiff_t>(whole));
  if (n > 0) {
    parts.front() = parts.front().Slice(n);
  }
}

Buffer FrameChain::Gather() const {
  if (part_count() == 1) {
    return front();
  }
  return ConcatCopy(parts_span());
}

}  // namespace demi
