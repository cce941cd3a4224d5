// Multi-core scale-out tests (DESIGN.md §13): per-core event contexts and metrics,
// the PopReady stale-token contract behind completion stealing, RSS sharding across
// worker libOSes, steal accounting, the steal hint (idle workers probe no one),
// NIC-death chaos (no hung qtokens), and bit determinism of the whole SMP harness
// at every core count.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/libos.h"
#include "src/core/smp.h"
#include "src/load/smp_harness.h"
#include "src/sim/counters.h"
#include "src/sim/fault_injector.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace demi {
namespace {

// ---------------------------------------------------------------------------
// Multi-core simulation semantics
// ---------------------------------------------------------------------------

TEST(MultiCoreSim, EventsDispatchInGlobalDueSeqOrderAcrossCores) {
  Simulation sim;
  sim.ConfigureCores(3);
  std::vector<int> order;
  // Same due time on three cores: global (due, seq) order means insertion order,
  // regardless of which core each event homes on.
  sim.ScheduleAtOn(1, 10, [&] { order.push_back(1); });
  sim.ScheduleAtOn(2, 10, [&] { order.push_back(2); });
  sim.ScheduleAtOn(0, 10, [&] { order.push_back(0); });
  sim.ScheduleAtOn(2, 5, [&] { order.push_back(25); });
  sim.RunFor(100);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 25);  // earlier due wins over earlier seq
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 0);
}

TEST(MultiCoreSim, MergedSnapshotCountsEachRecordingOnceAndCountersOnce) {
  Simulation sim;
  sim.ConfigureCores(3);
  // One recording per core into the same named series, plus global counters.
  for (int core = 0; core < 3; ++core) {
    Histogram* h = sim.metrics(core).NamedHistogram("smp/test_series");
    sim.metrics(core).RecordNamed(h, 100 + static_cast<std::uint64_t>(core));
  }
  sim.counters().Add(Counter::kWakeups, 5);

  MetricsSnapshot snap = sim.MergedSnapshot();
  auto it = snap.named.find("smp/test_series");
  ASSERT_NE(it, snap.named.end());
  // Three per-core histograms merge bucket-wise: exactly 3 samples, not 9.
  EXPECT_EQ(SummarizeHistogram(it->second).count, 3u);
  // Counters are simulation-global: merged once, not once per core.
  EXPECT_EQ(snap.counters[static_cast<std::size_t>(Counter::kWakeups)], 5u);
}

// ---------------------------------------------------------------------------
// PopReady: the claim/release contract stealing depends on
// ---------------------------------------------------------------------------

class PureLibOS final : public LibOS {
 public:
  explicit PureLibOS(HostCpu* host) : LibOS(host) {}
  std::string name() const override { return "pure"; }

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override {
    return Status(ErrorCode::kUnsupported, "no device");
  }
};

TEST(PopReady, ClaimsCompletionOnceAndRejectsStaleToken) {
  Simulation sim;
  HostCpu host(&sim, "h");
  PureLibOS libos(&host);
  const QDesc qd = *libos.QueueCreate();
  auto push = libos.Push(qd, SgArray::FromString("req"));
  ASSERT_TRUE(push.ok());
  auto pop = libos.Pop(qd);
  ASSERT_TRUE(pop.ok());
  while (!libos.OpDone(*pop)) {
    ASSERT_TRUE(sim.StepOnce());
  }

  const std::uint64_t wakeups_before = sim.counters().Get(Counter::kWakeups);
  // Ring order is completion order: the push finished first, then the pop.
  ReadyCompletion rc;
  ASSERT_TRUE(libos.PopReady(&rc));
  EXPECT_EQ(rc.token, *push);
  EXPECT_EQ(rc.op, OpType::kPush);
  ASSERT_TRUE(libos.PopReady(&rc));
  EXPECT_EQ(rc.token, *pop);
  EXPECT_EQ(rc.op, OpType::kPop);
  EXPECT_EQ(rc.qd, qd);
  EXPECT_EQ(rc.result.sga.ToString(), "req");
  // Claiming released both tokens: a late consumer holding the stale token gets
  // kBadDescriptor instead of a second copy of the completion.
  auto stale = libos.TakeResult(*pop);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), ErrorCode::kBadDescriptor);
  // Exactly-one-wakeup: PopReady itself accounts nothing — the consuming worker
  // does — so claiming two completions here changed the counter by zero.
  EXPECT_EQ(sim.counters().Get(Counter::kWakeups), wakeups_before);
  // Drained ring reports empty.
  EXPECT_FALSE(libos.PopReady(&rc));
  EXPECT_EQ(libos.pending_ops(), 0u);
}

// ---------------------------------------------------------------------------
// SMP harness: sharding, stealing, chaos, determinism
// ---------------------------------------------------------------------------

SmpHarnessConfig SmallSmp(int workers, std::uint64_t seed = 7) {
  SmpHarnessConfig cfg;
  cfg.workers = workers;
  cfg.connections = 128;
  cfg.client_stacks = 4;
  cfg.ramp_batch = 64;
  cfg.seed = seed;
  cfg.server_request_cpu_ns = 5000;  // 200k rps per-core capacity
  return cfg;
}

TEST(SmpHarness, RssSpreadsFlowsAcrossAllWorkerShards) {
  SmpHarness h(SmallSmp(4));
  ASSERT_TRUE(h.Ramp());
  EXPECT_EQ(h.established_connections(), 128u);
  EXPECT_EQ(h.pool().total_accepted(), 128u);
  std::size_t total = 0;
  for (int w = 0; w < 4; ++w) {
    // The predicted shard (RssForTuple at connect time) matches where the NIC
    // actually landed each flow: per-worker accepts equal per-shard predictions.
    EXPECT_EQ(h.pool().worker(w).accepted(), h.shard_connections(w)) << "worker " << w;
    EXPECT_GT(h.shard_connections(w), 0u) << "shard " << w << " got no flows";
    total += h.shard_connections(w);
    // Each queue pair saw real traffic with per-queue DMA accounting.
    EXPECT_GT(h.server_nic().queue_stats(w).rx_frames, 0u);
    EXPECT_GT(h.server_nic().queue_stats(w).tx_frames, 0u);
  }
  EXPECT_EQ(total, 128u);
}

TEST(SmpHarness, NoStealingWhenDisabled) {
  SmpHarnessConfig cfg = SmallSmp(4);
  cfg.steal = false;
  cfg.shard_skew = 1.5;  // even under skew: disabled means disabled
  SmpHarness h(cfg);
  ASSERT_TRUE(h.Ramp());
  SweepPoint pt = h.RunPoint(100'000, 5 * kMillisecond, 20 * kMillisecond, "off");
  EXPECT_GT(pt.completed, 0u);
  EXPECT_EQ(h.pool().total_stolen(), 0u);
  EXPECT_EQ(h.sim().counters().Get(Counter::kCompletionsStolen), 0u);
  EXPECT_EQ(h.sim().counters().Get(Counter::kStealAttempts), 0u);
}

TEST(SmpHarness, StealingMovesCompletionsOffTheHotShard) {
  SmpHarnessConfig cfg = SmallSmp(4);
  cfg.steal = true;
  cfg.shard_skew = 1.5;
  SmpHarness h(cfg);
  ASSERT_TRUE(h.Ramp());
  // Shard 0 carries ~60% of the offered load: 500k aggregate puts it well past
  // one core's 200k capacity while its neighbours have headroom — the imbalance
  // stealing exists to absorb.
  SweepPoint pt = h.RunPoint(500'000, 5 * kMillisecond, 20 * kMillisecond, "skew");
  EXPECT_GT(pt.completed, 0u);
  EXPECT_GT(h.sim().counters().Get(Counter::kStealAttempts), 0u);
  EXPECT_GT(h.pool().total_stolen(), 0u);
  EXPECT_EQ(h.sim().counters().Get(Counter::kCompletionsStolen),
            h.pool().total_stolen());
  // Thieves probe only peers the steal hint flags as backed up, so probes are
  // the exception, not the idle loop: no more probes than completions stolen.
  EXPECT_LE(h.sim().counters().Get(Counter::kStealAttempts), h.pool().total_stolen());
}

TEST(SmpHarness, IdlePoolChargesNoCpu) {
  SmpHarness h(SmallSmp(4));
  ASSERT_TRUE(h.Ramp());
  h.StopLoad();
  h.sim().RunFor(kMillisecond);  // drain what the ramp left in flight
  std::vector<std::uint64_t> busy;
  for (int w = 0; w < 4; ++w) {
    busy.push_back(h.pool().worker(w).cpu().busy_ns());
  }
  const std::uint64_t attempts = h.sim().counters().Get(Counter::kStealAttempts);
  // No offered load: with no ring past the steal threshold the hint is clear, so
  // an idle worker neither probes its peers nor burns a nanosecond.
  h.sim().RunFor(10 * kMillisecond);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(h.pool().worker(w).cpu().busy_ns(), busy[static_cast<std::size_t>(w)])
        << "worker " << w;
  }
  EXPECT_EQ(h.sim().counters().Get(Counter::kStealAttempts), attempts);
}

TEST(SmpHarness, NicDeathLeavesNoHungQToken) {
  SmpHarnessConfig cfg = SmallSmp(4);
  cfg.shard_skew = 1.0;
  SmpHarness h(cfg);
  ASSERT_TRUE(h.Ramp());
  FaultInjector faults(&h.sim(), /*seed=*/3);
  h.server_nic().AttachFaultInjector(&faults);

  // Load running, thieves active, then the bypass NIC dies mid-flight.
  h.StopLoad();
  std::ignore = h.RunPoint(300'000, 2 * kMillisecond, 5 * kMillisecond, "preface");
  faults.ScheduleDeviceFailure(h.server_nic().fault_device(), h.sim().now() + kMillisecond);
  h.sim().RunFor(10 * kMillisecond);
  h.StopLoad();
  // Let every worker drain its rings, fail its pops, and retire its accept.
  h.sim().RunFor(100 * kMillisecond);
  // The invariant: device death may fail every operation, but it may not strand
  // one — no pending qtoken survives anywhere in the pool.
  EXPECT_EQ(h.pool().total_pending_ops(), 0u);
}

// The S1 twin of ChaosTest.OpenLoopFleetDrainsCleanlyWhenClientNicDiesMidSweep: one
// of four load-generator NICs dies mid-sweep. Its quarter of the fleet dies exactly
// once each, and request accounting balances to the unit: every issued request
// either completed or is tallied as lost in flight with its connection.
TEST(SmpHarness, ClientNicDeathBalancesRequestAccounting) {
  SmpHarnessConfig cfg = SmallSmp(4);
  cfg.connections = 256;
  SmpHarness h(cfg);
  ASSERT_TRUE(h.Ramp());
  FaultInjector faults(&h.sim(), /*seed=*/3);
  const FaultDeviceId victim = h.client_nic(1).AttachFaultInjector(&faults);
  faults.ScheduleDeviceFailure(victim, h.sim().now() + 4 * kMillisecond);

  const SweepPoint pt =
      h.RunPoint(300'000, 2 * kMillisecond, 10 * kMillisecond, "client-nic-death");
  h.StopLoad();
  ASSERT_TRUE(h.sim().RunUntil(
      [&] { return h.completed_total() + h.lost_in_flight() >= h.issued_total(); },
      h.sim().now() + 5 * kSecond));

  EXPECT_GT(pt.completed, 0u);
  EXPECT_EQ(h.unexpected_deaths(), 64u);
  EXPECT_EQ(h.established_connections(), 256u - 64u);
  EXPECT_EQ(h.completed_total() + h.lost_in_flight(), h.issued_total());
  EXPECT_EQ(h.stray_response_bytes(), 0u);
  EXPECT_GT(h.lost_in_flight(), 0u);  // the kill landed mid-flight
}

struct SmpDigest {
  TimeNs end_clock;
  std::uint64_t issued;
  std::uint64_t completed;
  std::uint64_t served;
  std::uint64_t stolen;
  std::uint64_t wakeups;
  std::uint64_t steal_attempts;

  bool operator==(const SmpDigest&) const = default;
};

SmpDigest RunDigest(int workers, std::uint64_t seed) {
  SmpHarnessConfig cfg = SmallSmp(workers, seed);
  cfg.connections = 64;
  cfg.client_stacks = 2;
  cfg.shard_skew = 1.0;
  SmpHarness h(cfg);
  EXPECT_TRUE(h.Ramp());
  std::ignore = h.RunPoint(150'000, 2 * kMillisecond, 10 * kMillisecond, "det");
  return SmpDigest{h.sim().now(),
                   h.issued_total(),
                   h.completed_total(),
                   h.pool().total_served(),
                   h.pool().total_stolen(),
                   h.sim().counters().Get(Counter::kWakeups),
                   h.sim().counters().Get(Counter::kStealAttempts)};
}

// Same seed, same config -> bit-identical execution at EVERY core count: the
// fixed core-interleaving makes the multi-core schedule a deterministic function
// of the seed, stealing included. Seed 11 is also pinned to golden digests, so a
// change to the client fleet's arrivals, framing or drain order moves them.
TEST(SmpDeterminism, SameSeedIsBitIdenticalAtEveryCoreCount) {
  const struct {
    int workers;
    SmpDigest golden;
  } kCases[] = {
      {1, {12'067'380, 1'782, 1'777, 1'779, 0, 1'779, 0}},
      {2, {12'040'669, 1'779, 1'775, 1'779, 0, 1'779, 0}},
      {4, {12'025'095, 1'780, 1'779, 1'780, 0, 1'780, 0}},
  };
  for (const auto& c : kCases) {
    const SmpDigest a = RunDigest(c.workers, 11);
    const SmpDigest b = RunDigest(c.workers, 11);
    EXPECT_EQ(a, b) << "workers=" << c.workers;
    EXPECT_GT(a.completed, 0u) << "workers=" << c.workers;
    EXPECT_EQ(a.end_clock, c.golden.end_clock) << "workers=" << c.workers;
    EXPECT_EQ(a.issued, c.golden.issued) << "workers=" << c.workers;
    EXPECT_EQ(a.completed, c.golden.completed) << "workers=" << c.workers;
    EXPECT_EQ(a.served, c.golden.served) << "workers=" << c.workers;
    EXPECT_EQ(a.stolen, c.golden.stolen) << "workers=" << c.workers;
    EXPECT_EQ(a.wakeups, c.golden.wakeups) << "workers=" << c.workers;
    EXPECT_EQ(a.steal_attempts, c.golden.steal_attempts) << "workers=" << c.workers;
  }
}

TEST(SmpDeterminism, DifferentSeedsDiverge) {
  const SmpDigest a = RunDigest(2, 11);
  const SmpDigest b = RunDigest(2, 12);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace demi
