// Heap bytes the memory manager's pools and a Histogram allocate before they hold
// much. A pool carves slots from its newest arena on demand, so its first buffer costs
// the arena itself and no per-slot bookkeeping; a histogram's buckets grow to the
// highest one recorded, so an empty one holds none. This binary replaces the global
// operator new and delete to count the bytes requested.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/common/histogram.h"
#include "src/memory/memory_manager.h"

namespace {

std::size_t g_bytes = 0;  // bytes requested from operator new so far

}  // namespace

void* operator new(std::size_t size) {
  g_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace demi {
namespace {

constexpr std::size_t kArenaBytes = 2 * 1024 * 1024;
constexpr std::size_t kHeaderArenaBytes = 64 * 1024;
constexpr std::size_t kSlack = 4 * 1024;

struct MemRig {
  MemRig() : sim(), host(&sim, "h"), mgr(&host) {}
  Simulation sim;
  HostCpu host;
  MemoryManager mgr;
};

TEST(MemoryFootprintTest, FirstBufferCostsOneArena) {
  MemRig rig;
  const std::size_t before = g_bytes;
  Buffer b = rig.mgr.Allocate(64);
  // A free-list entry per slot would add 32,768 entries of 24 B (768 KiB).
  EXPECT_LE(g_bytes - before, kArenaBytes + kSlack);
  EXPECT_EQ(rig.mgr.bytes_reserved(), kArenaBytes);
}

TEST(MemoryFootprintTest, FirstHeaderCostsOneHeaderArena) {
  MemRig rig;
  const std::size_t before = g_bytes;
  Buffer b = rig.mgr.AllocateHeader(54);
  // A free-list entry per slot would add 1,024 entries of 24 B (24 KiB).
  EXPECT_LE(g_bytes - before, kHeaderArenaBytes + kSlack);
  EXPECT_EQ(rig.mgr.bytes_reserved(), kHeaderArenaBytes);
}

TEST(MemoryFootprintTest, HistogramHoldsOnlyTheBucketsItRecorded) {
  const std::size_t before = g_bytes;
  Histogram h;
  EXPECT_EQ(g_bytes - before, 0u);
  // A bucket for every value up to 2^64 would be 3,776 buckets of 8 B (30,208 B).
  h.Record(1000);
  EXPECT_LE(g_bytes - before, kSlack);
  EXPECT_EQ(h.P50(), 1000u);
}

}  // namespace
}  // namespace demi
