// Heap footprint of Catfish. The block device keeps the Buffers it is written from,
// and a file queue's block cache shares them copy-on-write, so an appended block is
// stored once; replay drops the blocks its cursor has passed, so reading a log back
// holds a fixed amount of memory whatever the log's length. This binary replaces the
// global operator new and delete to count heap blocks and the bytes still allocated.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/core/harness.h"

namespace {

std::size_t g_allocations = 0;  // operator new calls so far
std::size_t g_live_bytes = 0;   // bytes requested and not yet freed

// Each block carries its requested size in front of the pointer handed out, so
// operator delete can subtract it; the header keeps the block's alignment.
constexpr std::size_t kSizeHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  auto* block = static_cast<std::byte*>(std::malloc(size + kSizeHeader));
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  ++g_allocations;
  g_live_bytes += size;
  std::memcpy(block, &size, sizeof size);
  return block + kSizeHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  std::byte* block = static_cast<std::byte*>(p) - kSizeHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof size);
  g_live_bytes -= size;
  std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace demi {
namespace {

// One append fills one 4 KiB block: the record header plus this payload.
constexpr std::size_t kBlockPayload = 4096 - CatfishFileQueue::kRecordHeader;

struct CatfishRig {
  CatfishRig() {
    HostOptions opts;
    opts.with_nic = false;
    opts.with_kernel = false;
    opts.with_block_device = true;
    host = &h.AddHost("storage", "10.0.0.1", opts);
    libos = &h.Catfish(*host);
  }

  void Append(QDesc qd, int records) {
    for (int i = 0; i < records; ++i) {
      const std::string payload(kBlockPayload, static_cast<char>('a' + i % 26));
      auto r = libos->BlockingPush(qd, SgArray::FromString(payload));
      ASSERT_TRUE(r.ok() && r->status.ok());
    }
  }

  TestHarness h;
  TestHarness::Host* host = nullptr;
  CatfishLibOS* libos = nullptr;
};

// A one-block append leaves the block's 4 KiB page, held once by the device and the
// queue's cache together, and a few small blocks: the page's storage object and two
// hash-map nodes. With a private copy in each of them it left 8 KiB and more.
TEST(CatfishFootprintTest, AppendedBlockIsStoredOnce) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log");
  rig.Append(qd, 1000);  // the device's and the cache's hash tables grow meanwhile
  const std::size_t before = g_live_bytes;
  rig.Append(qd, 2000);
  const double per_append = static_cast<double>(g_live_bytes - before) / 2000;
  EXPECT_LE(per_append, 4.5 * 1024) << "bytes one 4 KiB append keeps";
}

// Replaying a reopened log fetches each block once and drops it when the cursor has
// passed it, so the bytes replay leaves allocated do not grow with the log. A cache
// that kept every fetched block held 4 KiB more per record.
TEST(CatfishFootprintTest, ReplayHoldsNoBlockItHasPassed) {
  std::vector<std::size_t> held;
  for (const int records : {500, 2000}) {
    CatfishRig rig;
    const QDesc wqd = *rig.libos->Creat("/log");
    rig.Append(wqd, records);
    ASSERT_TRUE(rig.libos->Close(wqd).ok());

    const QDesc rqd = *rig.libos->Open("/log");
    const std::size_t before = g_live_bytes;
    for (int i = 0; i < records; ++i) {
      auto r = rig.libos->BlockingPop(rqd);
      ASSERT_TRUE(r.ok() && r->status.ok());
      ASSERT_EQ(r->sga.total_bytes(), kBlockPayload);
    }
    held.push_back(g_live_bytes - before);
    EXPECT_LE(held.back(), 16u * 1024)
        << "bytes still allocated after replaying " << records << " records";
  }
  EXPECT_EQ(held[0], held[1]) << "replay holds more for a longer log";
}

// An Open() allocates the queue object, its liveness flag for device continuations
// and its qtable entry. Its pending pushes, pops and push-down results are Fifos and
// allocate nothing while empty (as std::deques, they added a map and a node each).
TEST(CatfishFootprintTest, OpenAllocatesNoQueueStorage) {
  CatfishRig rig;
  ASSERT_TRUE(rig.libos->Creat("/log").ok());  // the first queue also sizes the tables

  const std::size_t before = g_allocations;
  auto qd = rig.libos->Open("/log");
  const std::size_t allocations = g_allocations - before;
  ASSERT_TRUE(qd.ok());
  EXPECT_LE(allocations, 3u);
}

}  // namespace
}  // namespace demi
