// Tests for the SPDK-style block device: SQ/CQ semantics, data integrity, flush
// barriers, queue-depth backpressure, and timing against the cost model.

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/common/random.h"
#include "src/hw/block_device.h"

namespace demi {
namespace {

struct BlockRig {
  BlockRig() : sim(), host(&sim, "storage"), dev(&host) {}
  explicit BlockRig(BlockDeviceConfig cfg) : sim(), host(&sim, "storage"), dev(&host, cfg) {}

  // Runs until a completion with `id` arrives; returns its status.
  Status WaitFor(std::uint64_t id) {
    Status out = Internal("never completed");
    const bool done = sim.RunUntil(
        [&] {
          for (const auto& c : dev.PollCompletions()) {
            if (c.id == id) {
              out = c.status;
              return true;
            }
          }
          return false;
        },
        kSecond);
    EXPECT_TRUE(done);
    return out;
  }

  Simulation sim;
  HostCpu host;
  BlockDevice dev;
};

Buffer BlockOf(char fill, std::size_t n = 4096) {
  Buffer b = Buffer::Allocate(n);
  std::memset(b.mutable_data(), fill, n);
  return b;
}

TEST(BlockDeviceTest, WriteThenReadRoundTrip) {
  BlockRig rig;
  ASSERT_TRUE(rig.dev.SubmitWrite(1, 10, BlockOf('A')).ok());
  EXPECT_TRUE(rig.WaitFor(1).ok());

  Buffer dest = Buffer::Allocate(4096);
  ASSERT_TRUE(rig.dev.SubmitRead(2, 10, 1, dest).ok());
  EXPECT_TRUE(rig.WaitFor(2).ok());
  EXPECT_EQ(std::to_integer<char>(dest.span()[0]), 'A');
  EXPECT_EQ(std::to_integer<char>(dest.span()[4095]), 'A');
}

TEST(BlockDeviceTest, UnwrittenBlocksReadAsZero) {
  BlockRig rig;
  Buffer dest = BlockOf('x');
  ASSERT_TRUE(rig.dev.SubmitRead(1, 999, 1, dest).ok());
  EXPECT_TRUE(rig.WaitFor(1).ok());
  EXPECT_EQ(std::to_integer<int>(dest.span()[0]), 0);
}

TEST(BlockDeviceTest, MultiBlockWriteAndRead) {
  BlockRig rig;
  Buffer data = Buffer::Allocate(3 * 4096);
  for (int i = 0; i < 3; ++i) {
    std::memset(data.mutable_data() + i * 4096, 'a' + i, 4096);
  }
  ASSERT_TRUE(rig.dev.SubmitWrite(1, 100, data).ok());
  EXPECT_TRUE(rig.WaitFor(1).ok());

  Buffer dest = Buffer::Allocate(3 * 4096);
  ASSERT_TRUE(rig.dev.SubmitRead(2, 100, 3, dest).ok());
  EXPECT_TRUE(rig.WaitFor(2).ok());
  EXPECT_EQ(std::to_integer<char>(dest.span()[0]), 'a');
  EXPECT_EQ(std::to_integer<char>(dest.span()[4096]), 'b');
  EXPECT_EQ(std::to_integer<char>(dest.span()[2 * 4096]), 'c');
}

// The media keeps zero-copy slices of the Buffer a write submits, one per block, and
// lets go of them when the blocks are written again.
TEST(BlockDeviceTest, WrittenBlocksShareTheWritersBuffer) {
  BlockRig rig;
  const Buffer data = BlockOf('k', 2 * 4096);
  ASSERT_TRUE(rig.dev.SubmitWrite(1, 7, data).ok());
  EXPECT_TRUE(rig.WaitFor(1).ok());
  EXPECT_EQ(data.use_count(), 3) << "the writer's view and one slice per block";

  ASSERT_TRUE(rig.dev.SubmitWrite(2, 7, BlockOf('n', 2 * 4096)).ok());
  EXPECT_TRUE(rig.WaitFor(2).ok());
  EXPECT_EQ(data.use_count(), 1);
  Buffer dest = Buffer::Allocate(2 * 4096);
  ASSERT_TRUE(rig.dev.SubmitRead(3, 7, 2, dest).ok());
  EXPECT_TRUE(rig.WaitFor(3).ok());
  EXPECT_EQ(std::to_integer<char>(dest.span()[2 * 4096 - 1]), 'n');
}

TEST(BlockDeviceTest, RejectsPartialBlockWrite) {
  BlockRig rig;
  EXPECT_EQ(rig.dev.SubmitWrite(1, 0, Buffer::Allocate(100)).code(),
            ErrorCode::kInvalidArgument);
}

TEST(BlockDeviceTest, RejectsOutOfRangeAccess) {
  BlockRig rig;
  const std::uint64_t last = rig.dev.num_blocks();
  EXPECT_EQ(rig.dev.SubmitWrite(1, last, BlockOf('z')).code(), ErrorCode::kInvalidArgument);
  Buffer dest = Buffer::Allocate(4096);
  EXPECT_EQ(rig.dev.SubmitRead(2, last, 1, dest).code(), ErrorCode::kInvalidArgument);
}

TEST(BlockDeviceTest, RejectsMismatchedReadBuffer) {
  BlockRig rig;
  Buffer small = Buffer::Allocate(100);
  EXPECT_EQ(rig.dev.SubmitRead(1, 0, 1, small).code(), ErrorCode::kInvalidArgument);
}

TEST(BlockDeviceTest, QueueDepthBackpressure) {
  BlockDeviceConfig cfg;
  cfg.queue_depth = 2;
  BlockRig rig(cfg);
  ASSERT_TRUE(rig.dev.SubmitWrite(1, 0, BlockOf('a')).ok());
  ASSERT_TRUE(rig.dev.SubmitWrite(2, 1, BlockOf('b')).ok());
  EXPECT_EQ(rig.dev.SubmitWrite(3, 2, BlockOf('c')).code(), ErrorCode::kResourceExhausted);
  EXPECT_TRUE(rig.WaitFor(2).ok());
  EXPECT_TRUE(rig.dev.SubmitWrite(3, 2, BlockOf('c')).ok());
}

TEST(BlockDeviceTest, ReadLatencyFollowsCostModel) {
  BlockRig rig;
  Buffer dest = Buffer::Allocate(4096);
  const TimeNs start = rig.sim.now();
  ASSERT_TRUE(rig.dev.SubmitRead(1, 0, 1, dest).ok());
  ASSERT_TRUE(rig.WaitFor(1).ok());
  const TimeNs elapsed = rig.sim.now() - start;
  const TimeNs expected = rig.sim.cost().NvmeNs(false, 4096);
  EXPECT_GE(elapsed, expected);
  EXPECT_LT(elapsed, expected + 2 * kMicrosecond);
}

TEST(BlockDeviceTest, WritesAreFasterThanReads) {
  const CostModel cost;
  EXPECT_LT(cost.NvmeNs(true, 4096), cost.NvmeNs(false, 4096));
}

TEST(BlockDeviceTest, FlushCompletesAfterPriorWrites) {
  BlockRig rig;
  ASSERT_TRUE(rig.dev.SubmitWrite(1, 0, BlockOf('a')).ok());
  ASSERT_TRUE(rig.dev.SubmitFlush(2).ok());
  bool write_done = false, flush_done = false;
  TimeNs write_time = 0, flush_time = 0;
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] {
        for (const auto& c : rig.dev.PollCompletions()) {
          if (c.id == 1) {
            write_done = true;
            write_time = rig.sim.now();
          }
          if (c.id == 2) {
            flush_done = true;
            flush_time = rig.sim.now();
          }
        }
        return write_done && flush_done;
      },
      kSecond));
  EXPECT_GE(flush_time, write_time);
}

TEST(BlockDeviceTest, CapsReportKernelBypass) {
  BlockRig rig;
  EXPECT_TRUE(rig.dev.caps().kernel_bypass);
  EXPECT_FALSE(rig.dev.caps().transport_offload);
}

// Property sweep: random write/read patterns preserve data for several seeds.
class BlockFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlockFuzzTest, RandomWritesReadBackCorrectly) {
  BlockRig rig;
  Rng rng(GetParam());
  std::map<std::uint64_t, char> expected;
  std::uint64_t next_id = 1;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t lba = rng.NextBelow(64);
    const char fill = static_cast<char>('a' + rng.NextBelow(26));
    const std::uint64_t id = next_id++;
    ASSERT_TRUE(rig.dev.SubmitWrite(id, lba, BlockOf(fill)).ok());
    ASSERT_TRUE(rig.WaitFor(id).ok());
    expected[lba] = fill;
  }
  for (const auto& [lba, fill] : expected) {
    Buffer dest = Buffer::Allocate(4096);
    const std::uint64_t id = next_id++;
    ASSERT_TRUE(rig.dev.SubmitRead(id, lba, 1, dest).ok());
    ASSERT_TRUE(rig.WaitFor(id).ok());
    EXPECT_EQ(std::to_integer<char>(dest.span()[0]), fill) << "lba " << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockFuzzTest, ::testing::Values(1, 2, 3, 4));

// Regression: SubmitFlush used to skip the per-op fault consult, so a seeded fault
// aimed at a flush silently slid onto the next read/write — breaking chaos-schedule
// determinism. A flush must absorb the armed fault like any other op.
TEST(BlockDeviceTest, FlushConsultsFaultInjector) {
  BlockRig rig;
  FaultInjector inj(&rig.sim, /*seed=*/7);
  rig.dev.AttachFaultInjector(&inj);

  ASSERT_TRUE(rig.dev.SubmitWrite(1, 5, BlockOf('w')).ok());
  EXPECT_TRUE(rig.WaitFor(1).ok());

  inj.ScheduleOpFault(rig.dev.fault_device(), FaultKind::kMediaError, rig.sim.now());
  rig.sim.RunFor(kMicrosecond);
  ASSERT_TRUE(rig.dev.SubmitFlush(2).ok());
  EXPECT_EQ(rig.WaitFor(2).code(), ErrorCode::kMediaError);

  // The fault was one-shot and consumed by the flush: the next flush is clean, and a
  // read right after sees the durable data.
  ASSERT_TRUE(rig.dev.SubmitFlush(3).ok());
  EXPECT_TRUE(rig.WaitFor(3).ok());
  Buffer dest = Buffer::Allocate(4096);
  ASSERT_TRUE(rig.dev.SubmitRead(4, 5, 1, dest).ok());
  EXPECT_TRUE(rig.WaitFor(4).ok());
  EXPECT_EQ(std::to_integer<char>(dest.span()[0]), 'w');
}

}  // namespace
}  // namespace demi
