// Tests for the Catfish storage libOS: durable push, in-order replay, close/reopen
// persistence, CRC validation, extent exhaustion, and the push-durability contract.

#include <gtest/gtest.h>

#include <string>

#include "src/core/harness.h"

namespace demi {
namespace {

SgArray Sga(const std::string& s) { return SgArray::FromString(s); }

struct CatfishRig {
  CatfishRig() : h() {
    HostOptions opts;
    opts.with_nic = false;
    opts.with_kernel = false;
    opts.with_block_device = true;
    host = &h.AddHost("storage", "10.0.0.1", opts);
    libos = &h.Catfish(*host);
  }
  TestHarness h;
  TestHarness::Host* host;
  CatfishLibOS* libos;
};

TEST(CatfishTest, PushThenPopRoundTrip) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/a");
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("record one"))->status.ok());
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("record two"))->status.ok());
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), "record one");
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), "record two");
}

TEST(CatfishTest, PopAtEndOfLogReturnsEof) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/empty");
  auto r = rig.libos->BlockingPop(qd);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kEndOfFile);
}

TEST(CatfishTest, OpenMissingFileFails) {
  CatfishRig rig;
  EXPECT_EQ(rig.libos->Open("/does/not/exist").code(), ErrorCode::kNotFound);
}

TEST(CatfishTest, DataSurvivesCloseAndReopen) {
  CatfishRig rig;
  {
    const QDesc qd = *rig.libos->Creat("/log/persist");
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("entry " + std::to_string(i)))->status.ok());
    }
    ASSERT_TRUE(rig.libos->Close(qd).ok());
  }
  // Reopen: the new queue has a cold cache; records must replay from the device.
  const QDesc qd = *rig.libos->Open("/log/persist");
  for (int i = 0; i < 10; ++i) {
    auto r = rig.libos->BlockingPop(qd);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->status.ok()) << r->status;
    EXPECT_EQ(r->sga.ToString(), "entry " + std::to_string(i));
  }
  EXPECT_EQ(rig.libos->BlockingPop(qd)->status.code(), ErrorCode::kEndOfFile);
}

TEST(CatfishTest, PushIsDurableWhenCompleted) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/durable");
  const std::uint64_t nvme_before = rig.host->cpu->counters().Get(Counter::kNvmeOps);
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("must hit the device"))->status.ok());
  // Completion implies at least one device write happened (durability contract).
  EXPECT_GT(rig.host->cpu->counters().Get(Counter::kNvmeOps), nvme_before);
}

TEST(CatfishTest, SingleSegmentPushCopiesNoBytes) {
  // kBytesCopied regression guard for the write path: a one-segment push flattens
  // by reference, so the whole journey to the device is copy-free.
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/zerocopy");
  const std::uint64_t before = rig.host->cpu->counters().Get(Counter::kBytesCopied);
  ASSERT_TRUE(
      rig.libos->BlockingPush(qd, Sga("one segment, zero copies"))->status.ok());
  EXPECT_EQ(rig.host->cpu->counters().Get(Counter::kBytesCopied), before);
}

TEST(CatfishTest, MultiSegmentPushChargesExactlyOneFlattenCopy) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/scattered");
  SgArray sga;
  sga.Append(Buffer::CopyOf(std::string(300, 'a')));
  sga.Append(Buffer::CopyOf(std::string(212, 'b')));
  const std::uint64_t before = rig.host->cpu->counters().Get(Counter::kBytesCopied);
  ASSERT_TRUE(rig.libos->BlockingPush(qd, sga)->status.ok());
  // Gathering the segments is the only copy on the path.
  EXPECT_EQ(rig.host->cpu->counters().Get(Counter::kBytesCopied), before + 512);
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(),
            std::string(300, 'a') + std::string(212, 'b'));
}

TEST(CatfishTest, LargeRecordsSpanBlocks) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/big");
  std::string big(3 * 4096 + 77, 'B');
  big[0] = 'S';
  big.back() = 'E';
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga(big))->status.ok());
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("after big"))->status.ok());
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), big);
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), "after big");
}

TEST(CatfishTest, ManySmallRecordsReplayInOrderAfterReopen) {
  CatfishRig rig;
  {
    const QDesc qd = *rig.libos->Creat("/log/many");
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("r" + std::to_string(i)))->status.ok());
    }
    ASSERT_TRUE(rig.libos->Close(qd).ok());
  }
  const QDesc qd = *rig.libos->Open("/log/many");
  for (int i = 0; i < 200; ++i) {
    auto r = rig.libos->BlockingPop(qd);
    ASSERT_TRUE(r.ok() && r->status.ok());
    ASSERT_EQ(r->sga.ToString(), "r" + std::to_string(i));
  }
}

// Regression: a reopened queue had not cached the log's partly filled last block, so
// its first push started that block from zeros and wrote all of it back, wiping the
// records already in it; their zeroed headers then replayed as empty records.
TEST(CatfishTest, AppendAfterReopenKeepsTheTailBlocksRecords) {
  CatfishRig rig;
  const QDesc first = *rig.libos->Creat("/log/tail");
  ASSERT_TRUE(rig.libos->BlockingPush(first, Sga("first"))->status.ok());
  ASSERT_TRUE(rig.libos->Close(first).ok());
  const QDesc second = *rig.libos->Open("/log/tail");
  ASSERT_TRUE(rig.libos->BlockingPush(second, Sga("second"))->status.ok());
  ASSERT_TRUE(rig.libos->Close(second).ok());

  const QDesc qd = *rig.libos->Open("/log/tail");
  for (const char* expected : {"first", "second"}) {
    auto r = rig.libos->BlockingPop(qd);
    ASSERT_TRUE(r.ok() && r->status.ok());
    EXPECT_EQ(r->sga.ToString(), expected);
  }
  EXPECT_EQ(rig.libos->BlockingPop(qd)->status.code(), ErrorCode::kEndOfFile);
}

TEST(CatfishTest, TwoFilesAreIndependent) {
  CatfishRig rig;
  const QDesc a = *rig.libos->Creat("/log/a");
  const QDesc b = *rig.libos->Creat("/log/b");
  ASSERT_TRUE(rig.libos->BlockingPush(a, Sga("for a"))->status.ok());
  ASSERT_TRUE(rig.libos->BlockingPush(b, Sga("for b"))->status.ok());
  EXPECT_EQ(rig.libos->BlockingPop(b)->sga.ToString(), "for b");
  EXPECT_EQ(rig.libos->BlockingPop(a)->sga.ToString(), "for a");
}

TEST(CatfishTest, ExtentExhaustionSurfacesError) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/full");
  // Extent is 16 MiB; pushes of 1 MiB (the max slot) fill it quickly.
  std::string megabyte(1 << 20, 'f');
  Status status = OkStatus();
  int pushed = 0;
  while (status.ok() && pushed < 64) {
    auto token = rig.libos->Push(qd, Sga(megabyte));
    if (!token.ok()) {
      status = token.status();
      break;
    }
    auto r = rig.libos->Wait(*token, 60 * kSecond);
    ASSERT_TRUE(r.ok());
    status = r->status;
    ++pushed;
  }
  EXPECT_EQ(status.code(), ErrorCode::kResourceExhausted);
  EXPECT_GE(pushed, 14);  // most of the 16 MiB extent was usable
}

TEST(CatfishTest, StorageLatencyFollowsDeviceModel) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/latency");
  const TimeNs start = rig.h.sim().now();
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("timed"))->status.ok());
  const TimeNs elapsed = rig.h.sim().now() - start;
  // One 4 KiB device write dominates; no kernel, no copies.
  const TimeNs device = rig.h.sim().cost().NvmeNs(true, 4096);
  EXPECT_GE(elapsed, device);
  EXPECT_LT(elapsed, device + 10 * kMicrosecond);
}

TEST(CatfishTest, NoSyscallsOnTheStoragePath) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/nosys");
  const std::uint64_t syscalls_before = rig.h.sim().counters().Get(Counter::kSyscalls);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("x"))->status.ok());
  }
  EXPECT_EQ(rig.h.sim().counters().Get(Counter::kSyscalls), syscalls_before);
}

// Regression: a zero-length record used to make ReadLogBytes compute the touched
// block range as (offset + 0 - 1) / kBlock, which underflows. Empty atomic units are
// legal elements and must replay as such.
TEST(CatfishTest, ZeroLengthRecordRoundTrips) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/zero");
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga(""))->status.ok());
  ASSERT_TRUE(rig.libos->BlockingPush(qd, Sga("after empty"))->status.ok());

  auto empty = rig.libos->BlockingPop(qd);
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE(empty->status.ok()) << empty->status;
  EXPECT_EQ(empty->sga.total_bytes(), 0u);
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), "after empty");
}

// Regression: Close() used to drop pending_pushes_/pending_pops_ on the floor,
// leaving their qtokens pending forever. Every outstanding token must complete with
// kCancelled — the no-hung-qtoken invariant.
TEST(CatfishTest, CloseFailsOutstandingTokensWithCancelled) {
  CatfishRig rig;
  const QDesc qd = *rig.libos->Creat("/log/close");
  // Registered but not yet driven: the device write/replay has not run.
  const QToken push = *rig.libos->Push(qd, Sga("in flight"));
  const QToken pop = *rig.libos->Pop(qd);
  ASSERT_TRUE(rig.libos->Close(qd).ok());

  auto push_result = rig.libos->Wait(push, kMillisecond);
  ASSERT_TRUE(push_result.ok());
  EXPECT_EQ(push_result->status.code(), ErrorCode::kCancelled) << push_result->status;
  auto pop_result = rig.libos->Wait(pop, kMillisecond);
  ASSERT_TRUE(pop_result.ok());
  EXPECT_EQ(pop_result->status.code(), ErrorCode::kCancelled) << pop_result->status;
  EXPECT_EQ(rig.libos->pending_ops(), 0u);
}

// Regression: the retry wrapper checked its deadline only when an attempt failed, so
// a jittered backoff could schedule the next attempt far past the deadline and the op
// would linger. The backoff is now clamped to the remaining budget (and re-checked at
// fire time), so exhaustion surfaces at ~deadline, not at ~backoff.
TEST(CatfishTest, RetryBackoffClampedToDeadline) {
  CatfishConfig cfg;
  cfg.recovery.enabled = true;
  cfg.recovery.retry.initial_backoff_ns = 40 * kMillisecond;  // would overshoot alone
  cfg.recovery.retry.max_backoff_ns = 40 * kMillisecond;
  cfg.recovery.retry.jitter = 0;
  cfg.recovery.retry.deadline_ns = 2 * kMillisecond;

  TestHarness h;
  HostOptions opts;
  opts.with_nic = false;
  opts.with_kernel = false;
  opts.with_block_device = true;
  auto& host = h.AddHost("storage", "10.0.0.1", opts);
  auto& libos = h.Catfish(host, cfg);

  const QDesc wqd = *libos.Creat("/log/deadline");
  ASSERT_TRUE(libos.BlockingPush(wqd, Sga("record"))->status.ok());
  ASSERT_TRUE(libos.Close(wqd).ok());

  // Every read attempt inside the deadline fails: the op must give up on budget.
  for (int i = 0; i < 10; ++i) {
    h.faults().ScheduleOpFault(host.bdev->fault_device(), FaultKind::kMediaError,
                               h.sim().now());
  }
  h.sim().RunFor(kMicrosecond);
  const QDesc rqd = *libos.Open("/log/deadline");
  const TimeNs start = h.sim().now();
  auto r = libos.BlockingPop(rqd);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kRetryExhausted) << r->status;
  // With the clamp the whole retry dance fits the 2 ms budget (plus one device
  // service time); the unclamped backoff would park the resubmission at 40 ms.
  EXPECT_LE(h.sim().now() - start, 5 * kMillisecond);
  EXPECT_GE(h.sim().counters().Get(Counter::kRetryGiveups), 1u);
}

}  // namespace
}  // namespace demi
