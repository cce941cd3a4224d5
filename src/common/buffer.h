// Reference-counted byte buffers with zero-copy slicing.
//
// Buffer is the unit of data ownership on every I/O path in this project. A Buffer is a
// view [offset, offset+size) into a shared backing Storage. Slicing (e.g. stripping a
// packet header) never copies; the last view to die releases the storage.
//
// The shared refcount is also the mechanism behind the paper's *free-protection* (§4.5):
// while a simulated device DMA holds a Buffer, the application may drop its own reference,
// but the backing store is not recycled until the device completes. The memory manager
// (src/memory) plugs in a custom Storage whose destructor returns memory to a registered
// region.

#ifndef SRC_COMMON_BUFFER_H_
#define SRC_COMMON_BUFFER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace demi {

// Abstract backing storage for Buffers. Default implementation owns a heap array;
// the memory manager provides pool-backed subclasses.
class BufferStorage {
 public:
  BufferStorage(std::byte* data, std::size_t capacity) : data_(data), capacity_(capacity) {}
  virtual ~BufferStorage() = default;
  BufferStorage(const BufferStorage&) = delete;
  BufferStorage& operator=(const BufferStorage&) = delete;

  std::byte* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }

  // The storage object whose registration with a device covers this storage. Pool
  // allocations carved out of a large registered arena return the arena here, so a
  // device can validate any sub-buffer against one region registration (§4.5:
  // "register memory regions ... then allocate application memory from those regions").
  virtual const BufferStorage* registration_root() const { return this; }

 protected:
  std::byte* data_;
  std::size_t capacity_;
};

// A shared, sliceable view of bytes. Copying a Buffer is cheap (one refcount bump).
class Buffer {
 public:
  // An empty buffer (size 0, no storage).
  Buffer() = default;

  // Allocates `size` uninitialized bytes on the heap.
  static Buffer Allocate(std::size_t size);

  // Allocates and fills from the given bytes.
  static Buffer CopyOf(std::span<const std::byte> bytes);
  static Buffer CopyOf(std::string_view text);

  // Wraps externally managed storage (used by the memory manager's pools).
  static Buffer FromStorage(std::shared_ptr<BufferStorage> storage, std::size_t offset,
                            std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const std::byte* data() const { return storage_ ? storage_->data() + offset_ : nullptr; }
  std::byte* mutable_data() { return storage_ ? storage_->data() + offset_ : nullptr; }

  std::span<const std::byte> span() const { return {data(), size_}; }
  std::span<std::byte> mutable_span() { return {mutable_data(), size_}; }

  std::string_view AsStringView() const {
    return {reinterpret_cast<const char*>(data()), size_};
  }
  std::string ToString() const { return std::string(AsStringView()); }

  // Returns a sub-view; no copy. Clamps to the buffer bounds.
  Buffer Slice(std::size_t offset, std::size_t length) const;
  Buffer Slice(std::size_t offset) const { return Slice(offset, size_ - offset); }

  // Number of Buffer views (and device holds) sharing the backing storage.
  // Used by free-protection tests and pinned-memory accounting.
  long use_count() const { return storage_.use_count(); }

  // Identity of the backing storage, for aliasing checks in tests.
  const BufferStorage* storage() const { return storage_.get(); }
  std::shared_ptr<BufferStorage> shared_storage() const { return storage_; }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.AsStringView() == b.AsStringView();
  }

 private:
  Buffer(std::shared_ptr<BufferStorage> storage, std::size_t offset, std::size_t size)
      : storage_(std::move(storage)), offset_(offset), size_(size) {}

  std::shared_ptr<BufferStorage> storage_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

// Concatenates buffers into one freshly allocated buffer (copies; used only off the
// zero-copy fast path, e.g. by the POSIX baseline and by tests).
Buffer ConcatCopy(std::span<const Buffer> parts);

// Drops the first `n` bytes of a list of wire parts after a partial write: parts
// written whole are erased, and the part cut short keeps its unwritten tail as a
// zero-copy slice.
void DropFront(std::vector<Buffer>& parts, std::size_t n);

// A scatter-gather chain of Buffers forming one wire frame: protocol headers up front,
// application payload Buffers behind them, each part a refcounted view. The chain is
// how a frame travels from the stack to the simulated NIC without flattening: while the
// device holds the chain, every part's backing storage stays alive (free-protection,
// §4.5), and the app's payload bytes are never copied on the host.
class FrameChain {
 public:
  // Typical chains are [eth+ip hdr, tcp hdr, payload slice(s)] — four inline slots
  // cover the whole TX fast path, so building a chain costs zero heap allocations.
  static constexpr std::size_t kInlineParts = 4;

  FrameChain() = default;
  explicit FrameChain(Buffer single) { Append(std::move(single)); }

  void Append(Buffer part) {
    total_bytes_ += part.size();
    if (!overflow_.empty()) {
      overflow_.push_back(std::move(part));
    } else if (count_ < kInlineParts) {
      inline_[count_++] = std::move(part);
    } else {
      // Spill: from here on all parts live in the vector.
      overflow_.reserve(kInlineParts * 2);
      for (Buffer& b : inline_) {
        overflow_.push_back(std::move(b));
      }
      overflow_.push_back(std::move(part));
    }
  }

  // Total bytes across all parts (the wire size of the frame).
  std::size_t size() const { return total_bytes_; }
  bool empty() const { return total_bytes_ == 0; }
  std::size_t part_count() const {
    return overflow_.empty() ? count_ : overflow_.size();
  }
  std::span<const Buffer> parts_span() const {
    return overflow_.empty() ? std::span<const Buffer>(inline_.data(), count_)
                             : std::span<const Buffer>(overflow_);
  }
  std::span<const Buffer> parts() const { return parts_span(); }

  // First part — by convention the (mutable) link-layer header, which the ARP
  // resolver may patch in place while a frame is parked.
  Buffer& front() { return overflow_.empty() ? inline_.front() : overflow_.front(); }
  const Buffer& front() const {
    return overflow_.empty() ? inline_.front() : overflow_.front();
  }

  // Flattens into one contiguous Buffer. A single-part chain returns its part
  // unchanged (no copy); multi-part chains copy once. On the TX path this runs at
  // the *device* (modeling NIC scatter-gather DMA), never on the host CPU.
  Buffer Gather() const;

 private:
  std::array<Buffer, kInlineParts> inline_;
  std::size_t count_ = 0;
  std::vector<Buffer> overflow_;
  std::size_t total_bytes_ = 0;
};

}  // namespace demi

#endif  // SRC_COMMON_BUFFER_H_
