// Tests for the memory manager: transparent registration, free-protection via
// refcounts, pooling, and SgArray semantics (§4.5 of the paper).

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/rdma.h"
#include "src/memory/memory_manager.h"
#include "src/memory/sgarray.h"

namespace demi {
namespace {

struct MemRig {
  MemRig() : sim(), host(&sim, "h"), mgr(&host) {}
  Simulation sim;
  HostCpu host;
  MemoryManager mgr;
};

TEST(SgArrayTest, EmptyByDefault) {
  SgArray sga;
  EXPECT_TRUE(sga.empty());
  EXPECT_EQ(sga.segment_count(), 0u);
  EXPECT_EQ(sga.total_bytes(), 0u);
}

TEST(SgArrayTest, AppendAccumulates) {
  SgArray sga;
  sga.Append(Buffer::CopyOf("abc"));
  sga.Append(Buffer::CopyOf("defg"));
  EXPECT_EQ(sga.segment_count(), 2u);
  EXPECT_EQ(sga.total_bytes(), 7u);
  EXPECT_EQ(sga.ToString(), "abcdefg");
}

TEST(SgArrayTest, FlattenCopiesIntoOneBuffer) {
  SgArray sga;
  sga.Append(Buffer::CopyOf("xy"));
  sga.Append(Buffer::CopyOf("z"));
  Buffer flat = sga.Flatten();
  EXPECT_EQ(flat.AsStringView(), "xyz");
  EXPECT_NE(flat.storage(), sga.segment(0).storage());
}

TEST(SgArrayTest, FlattenSingleSegmentSharesStorage) {
  // The overwhelmingly common case — one segment — must not copy: Flatten returns a
  // view onto the caller's buffer (read-only by contract).
  SgArray sga(Buffer::CopyOf("solo segment"));
  Buffer flat = sga.Flatten();
  EXPECT_EQ(flat.AsStringView(), "solo segment");
  EXPECT_EQ(flat.storage(), sga.segment(0).storage());
}

TEST(SgArrayTest, CopyIsCheapSharedStorage) {
  SgArray a = SgArray::FromString("shared");
  SgArray b = a;
  EXPECT_EQ(a.segment(0).storage(), b.segment(0).storage());
}

TEST(MemoryManagerTest, AllocateReturnsRequestedSize) {
  MemRig rig;
  Buffer b = rig.mgr.Allocate(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_NE(b.data(), nullptr);
}

TEST(MemoryManagerTest, PoolReusesSlots) {
  MemRig rig;
  const std::byte* first_data;
  {
    Buffer b = rig.mgr.Allocate(1000);
    first_data = b.data();
  }  // released to the pool
  Buffer c = rig.mgr.Allocate(1000);
  EXPECT_EQ(c.data(), first_data);  // LIFO reuse of the hot slot
  EXPECT_GE(rig.mgr.pool_hits(), 1u);
}

TEST(MemoryManagerTest, DistinctLiveAllocationsDoNotAlias) {
  MemRig rig;
  std::vector<Buffer> bufs;
  for (int i = 0; i < 100; ++i) {
    bufs.push_back(rig.mgr.Allocate(512));
    std::memset(bufs.back().mutable_data(), i, 512);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(std::to_integer<int>(bufs[i].span()[0]), i);
  }
  EXPECT_EQ(rig.mgr.live_slots(), 100u);
}

TEST(MemoryManagerTest, FreeProtectionKeepsSlotWhileDeviceHoldsIt) {
  MemRig rig;
  Buffer held_by_device;
  const std::byte* slot;
  {
    Buffer app_buf = rig.mgr.Allocate(256);
    slot = app_buf.data();
    held_by_device = app_buf;  // device DMA reference
  }  // application "frees" its reference here
  // Slot must NOT be reused while the device still holds it.
  Buffer other = rig.mgr.Allocate(256);
  EXPECT_NE(other.data(), slot);
  held_by_device = Buffer();  // device completes
  Buffer reused = rig.mgr.Allocate(256);
  EXPECT_EQ(reused.data(), slot);  // now the slot recycles
}

TEST(MemoryManagerTest, FreeProtectionViaScheduledDeviceEvent) {
  MemRig rig;
  const std::byte* slot;
  {
    Buffer app_buf = rig.mgr.Allocate(64);
    slot = app_buf.data();
    // Model a device completion event holding the buffer for 10 us of simulated time.
    rig.sim.Schedule(10 * kMicrosecond, [keep = app_buf] {});
  }
  Buffer early = rig.mgr.Allocate(64);
  EXPECT_NE(early.data(), slot);  // still held by the in-flight event
  rig.sim.RunFor(20 * kMicrosecond);
  Buffer late = rig.mgr.Allocate(64);
  EXPECT_EQ(late.data(), slot);
}

TEST(MemoryManagerTest, OversizedAllocationWorks) {
  MemRig rig;
  Buffer big = rig.mgr.Allocate(3 * 1024 * 1024);
  EXPECT_EQ(big.size(), 3u * 1024 * 1024);
  std::memset(big.mutable_data(), 0xAB, big.size());
}

TEST(MemoryManagerTest, TransparentRegistrationCoversExistingArenas) {
  MemRig rig;
  Buffer pre = rig.mgr.Allocate(128);  // forces an arena before the device attaches

  RdmaCm cm(&rig.sim);
  RdmaNic nic(&rig.host, &cm);
  rig.mgr.AttachDevice([&nic](std::shared_ptr<BufferStorage> arena) {
    ASSERT_TRUE(nic.RegisterMemory(std::move(arena)).ok());
  });
  EXPECT_TRUE(nic.IsRegistered(pre));  // pre-existing memory became usable
}

TEST(MemoryManagerTest, TransparentRegistrationCoversFutureArenas) {
  MemRig rig;
  RdmaCm cm(&rig.sim);
  RdmaNic nic(&rig.host, &cm);
  rig.mgr.AttachDevice([&nic](std::shared_ptr<BufferStorage> arena) {
    ASSERT_TRUE(nic.RegisterMemory(std::move(arena)).ok());
  });
  // Allocate enough distinct sizes to force several new arenas.
  std::vector<Buffer> bufs;
  for (int i = 0; i < 50; ++i) {
    bufs.push_back(rig.mgr.Allocate(200000));  // 256 KB class -> new arenas quickly
    EXPECT_TRUE(nic.IsRegistered(bufs.back())) << i;
  }
}

TEST(MemoryManagerTest, RegistrationIsPerArenaNotPerBuffer) {
  MemRig rig;
  RdmaCm cm(&rig.sim);
  RdmaNic nic(&rig.host, &cm);
  rig.mgr.AttachDevice([&nic](std::shared_ptr<BufferStorage> arena) {
    ASSERT_TRUE(nic.RegisterMemory(std::move(arena)).ok());
  });
  const std::uint64_t regs_before = rig.host.counters().Get(Counter::kMemRegistrations);
  std::vector<Buffer> bufs;
  for (int i = 0; i < 1000; ++i) {
    bufs.push_back(rig.mgr.Allocate(64));  // all fit one arena
  }
  const std::uint64_t regs_after = rig.host.counters().Get(Counter::kMemRegistrations);
  EXPECT_LE(regs_after - regs_before, 1u);  // amortized: ~1 registration for 1000 buffers
}

// Carving slots on demand changes where a buffer sits in its arena and nothing else:
// a pool grows exactly when every slot it has is live, and reuses a returned slot
// before an uncarved one. The figures below were read from the allocator that wrote
// a free-list entry for every slot of an arena as it reserved it.
TEST(MemoryManagerTest, PoolGrowthAndReuseMatchPinnedFigures) {
  MemRig rig;
  std::vector<std::size_t> registered;  // arena sizes, in registration order
  rig.mgr.AttachDevice([&registered](std::shared_ptr<BufferStorage> arena) {
    registered.push_back(arena->capacity());
  });
  std::vector<Buffer> small;
  for (int i = 0; i < 32768; ++i) {  // one 2 MiB arena of 64 B slots
    small.push_back(rig.mgr.Allocate(64));
  }
  EXPECT_EQ(rig.mgr.arena_count(), 1u);
  small.push_back(rig.mgr.Allocate(64));  // every slot is live: a second arena
  EXPECT_EQ(rig.mgr.arena_count(), 2u);
  for (std::size_t i = 0; i < small.size(); i += 3) {
    small[i] = Buffer();
  }
  for (int i = 0; i < 15000; ++i) {  // reuses the 10,923 returned slots, then carves
    small.push_back(rig.mgr.Allocate(40));
  }
  std::vector<Buffer> headers;
  for (int i = 0; i < 1025; ++i) {  // one 64 KiB header arena holds 1,024
    headers.push_back(rig.mgr.AllocateHeader(54));
  }
  for (int i = 0; i < 8; ++i) {  // too large for a header slot: the 256 B class
    headers.push_back(rig.mgr.AllocateHeader(100));
  }
  for (std::size_t i = 0; i < headers.size(); i += 2) {
    headers[i] = Buffer();
  }
  for (int i = 0; i < 1200; ++i) {
    headers.push_back(rig.mgr.AllocateHeader(20));
  }
  EXPECT_EQ(rig.mgr.allocs(), 50002u);
  EXPECT_EQ(rig.mgr.pool_hits(), 49997u);
  EXPECT_EQ(rig.mgr.arena_count(), 5u);
  EXPECT_EQ(rig.mgr.bytes_reserved(), 6422528u);
  EXPECT_EQ(rig.mgr.live_slots(), 38562u);
  EXPECT_EQ(rig.mgr.header_pool_hits(), 2223u);
  EXPECT_EQ(rig.mgr.header_pool_misses(), 10u);
  EXPECT_EQ(rig.host.counters().Get(Counter::kBufferAllocs), 50002u);
  EXPECT_EQ(rig.host.counters().Get(Counter::kHeaderPoolHits), 2223u);
  EXPECT_EQ(rig.host.counters().Get(Counter::kHeaderPoolMisses), 10u);
  EXPECT_EQ(rig.sim.now(), 1194425);
  EXPECT_EQ(registered,
            (std::vector<std::size_t>{2097152, 2097152, 65536, 65536, 2097152}));
}

TEST(MemoryManagerTest, BuffersSurviveManagerDestruction) {
  Simulation sim;
  HostCpu host(&sim, "h");
  Buffer survivor;
  {
    MemoryManager mgr(&host);
    survivor = mgr.Allocate(32);
    std::memcpy(survivor.mutable_data(), "still alive beyond mgr!", 23);
  }
  EXPECT_EQ(survivor.Slice(0, 11).AsStringView(), "still alive");
}

TEST(MemoryManagerTest, AllocationChargesCpuCost) {
  MemRig rig;
  const TimeNs before = rig.sim.now();
  (void)rig.mgr.Allocate(64);
  EXPECT_GT(rig.sim.now(), before);
}

// Size-class sweep: every size allocates, fills, and recycles correctly.
class SizeClassTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SizeClassTest, AllocateFillRecycle) {
  MemRig rig;
  const std::size_t size = GetParam();
  const std::byte* slot;
  {
    Buffer b = rig.mgr.Allocate(size);
    ASSERT_EQ(b.size(), size);
    std::memset(b.mutable_data(), 0x5A, size);
    slot = b.data();
  }
  Buffer again = rig.mgr.Allocate(size);
  EXPECT_EQ(again.data(), slot);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeClassTest,
                         ::testing::Values(1, 63, 64, 65, 255, 1024, 4096, 10000, 65536,
                                           262144, 1048576));

}  // namespace
}  // namespace demi
