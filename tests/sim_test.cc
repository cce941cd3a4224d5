// Unit tests for the discrete-event core: clock, event ordering, cancellation,
// poller-driven stepping, and HostCpu cost accounting. The scheduler's (due, seq)
// order is pinned by a golden digest over a seeded 100k-op schedule/cancel/step mix.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/sim/simulation.h"

namespace demi {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

// FNV-1a fold of `v`'s eight bytes into `h`.
std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
  return h;
}

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulationTest, TiesRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(50, [&] { order.push_back(1); });
  sim.Schedule(50, [&] { order.push_back(2); });
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const TimerId id = sim.Schedule(100, [&] { ran = true; });
  sim.Cancel(id);
  while (sim.StepOnce()) {
  }
  EXPECT_FALSE(ran);
}

TEST(SimulationTest, CancelledEventsDoNotAdvanceClockSpuriously) {
  Simulation sim;
  const TimerId id = sim.Schedule(100, [] {});
  bool ran = false;
  sim.Schedule(500, [&] { ran = true; });
  sim.Cancel(id);
  while (sim.StepOnce()) {
  }
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(10, chain);
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulationTest, ReArmInsideFiringCallbackKeepsExactPeriod) {
  // A timer that re-schedules itself from inside its own dispatch (the TCP RTO
  // idiom) must tick at the exact period.
  Simulation sim;
  std::vector<TimeNs> fires;
  std::function<void()> tick = [&] {
    fires.push_back(sim.now());
    if (fires.size() < 5) {
      sim.Schedule(1000, tick);
    }
  };
  sim.Schedule(1000, tick);
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fires, (std::vector<TimeNs>{1000, 2000, 3000, 4000, 5000}));
}

TEST(SimulationTest, ZeroDelayTimersRunThisStepInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(0, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(2); });  // zero-delay from inside dispatch
  });
  sim.Schedule(0, [&] { order.push_back(3); });
  sim.RunDue();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulationTest, StaleIdCancelledAfterSlotReuseSparesTheLiveTimer) {
  Simulation sim;
  int fired = 0;
  const TimerId a = sim.Schedule(100, [&] { fired += 1; });
  sim.Cancel(a);
  while (sim.StepOnce()) {  // pops a's tombstone, freeing its slot
  }
  const TimerId b = sim.Schedule(100, [&] { fired += 10; });  // reuses a's slot
  ASSERT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a));
  sim.Cancel(a);  // stale id: must not kill b (generation check)
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fired, 10);
  sim.Cancel(b);  // already fired: no-op, no crash
}

TEST(SimulationTest, FarFutureTimerFiresAtExactTime) {
  Simulation sim;
  const TimeNs far = TimeNs{1} << 62;  // ~146 years of ns
  TimeNs fired_at = -1;
  sim.Schedule(far, [&] { fired_at = sim.now(); });
  bool early = false;
  sim.Schedule(100, [&] { early = true; });
  while (sim.StepOnce()) {
  }
  EXPECT_TRUE(early);
  EXPECT_EQ(fired_at, far);
}

TEST(SimulationTest, CancelledEntriesDoNotPerturbIdleJumps) {
  Simulation sim;
  const TimerId a = sim.Schedule(100, [] {});
  const TimerId b = sim.Schedule(200, [] {});
  TimeNs fired_at = -1;
  sim.Schedule(300, [&] { fired_at = sim.now(); });
  sim.Cancel(a);
  sim.Cancel(b);
  EXPECT_EQ(sim.pending_events(), 1u);
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fired_at, 300);
  EXPECT_EQ(sim.now(), 300);
  EXPECT_TRUE(sim.idle());
}

// The seeded 100k-op schedule/cancel/step mix, folded into one FNV-1a digest: each
// fired event's virtual time and tag, then the final clock. Delays span sub-64 ns
// to 600 s. Only the integer Rng::NextBelow is drawn, so the digest does not depend
// on libm.
std::uint64_t SchedulerTraceDigest(std::uint64_t seed) {
  constexpr int kOps = 100000;
  Simulation sim;
  Rng rng(seed);
  std::uint64_t digest = kFnvBasis;
  std::vector<TimerId> live;
  std::uint64_t label = 0;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t roll = rng.NextBelow(100);
    if (roll < 55 || live.empty()) {
      TimeNs delay;
      switch (rng.NextBelow(5)) {
        case 0: delay = static_cast<TimeNs>(rng.NextBelow(64)); break;
        case 1: delay = static_cast<TimeNs>(rng.NextBelow(10'000)); break;
        case 2: delay = static_cast<TimeNs>(rng.NextBelow(1'000'000)); break;
        case 3: delay = static_cast<TimeNs>(rng.NextBelow(kSecond)); break;
        default: delay = static_cast<TimeNs>(rng.NextBelow(600 * kSecond)); break;
      }
      const std::uint64_t tag = label++;
      live.push_back(sim.Schedule(delay, [&digest, &sim, tag] {
        digest = Fnv(Fnv(digest, static_cast<std::uint64_t>(sim.now())), tag);
      }));
    } else if (roll < 80) {
      // Cancel a random live timer (it may already have fired: a stale id).
      const std::size_t pick = rng.NextBelow(live.size());
      sim.Cancel(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Interleave dispatch with scheduling.
      sim.RunDue();
      sim.StepOnce();
    }
  }
  while (sim.StepOnce()) {
  }
  return Fnv(digest, static_cast<std::uint64_t>(sim.now()));
}

// The constants were recorded while a hierarchical timer wheel and a binary heap
// both implemented the scheduler and agreed on every seed; any change to event
// order or idle-jump timing moves them.
TEST(SimulationTest, SchedulerTraceMatchesGoldenDigests) {
  EXPECT_EQ(SchedulerTraceDigest(1), 0xf98b6ea110a1341dULL);
  EXPECT_EQ(SchedulerTraceDigest(42), 0xf379c6dac54b99b8ULL);
  EXPECT_EQ(SchedulerTraceDigest(0xdeadbeef), 0x5be7fd3e890fb8aeULL);
}

TEST(SimulationTest, RunsAreBitDeterministic) {
  auto run = [] {
    Simulation sim;
    Rng rng(7);
    std::vector<TimeNs> stamps;
    for (int i = 0; i < 5000; ++i) {
      sim.Schedule(static_cast<TimeNs>(rng.NextBelow(2 * kMillisecond)),
                   [&] { stamps.push_back(sim.now()); });
    }
    while (sim.StepOnce()) {
    }
    return stamps;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulationTest, RunUntilStopsAtPredicate) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(i * 100, [&] { ++count; });
  }
  EXPECT_TRUE(sim.RunUntil([&] { return count >= 3; }, kSecond));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulationTest, RunUntilReturnsFalseWhenIdleAndUnmet) {
  Simulation sim;
  EXPECT_FALSE(sim.RunUntil([] { return false; }, kSecond));
}

TEST(SimulationTest, RunForAdvancesVirtualTime) {
  Simulation sim;
  sim.RunFor(5 * kMillisecond);
  EXPECT_GE(sim.now(), 5 * kMillisecond);
}

class CountingPoller : public Poller {
 public:
  explicit CountingPoller(int budget) : budget_(budget) {}
  bool Poll() override {
    if (budget_ <= 0) {
      return false;
    }
    --budget_;
    ++polled_;
    return true;
  }
  int polled() const { return polled_; }

 private:
  int budget_;
  int polled_ = 0;
};

TEST(SimulationTest, PollersDriveProgress) {
  Simulation sim;
  CountingPoller poller(3);
  sim.AddPoller(&poller);
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(poller.polled(), 3);
  sim.RemovePoller(&poller);
}

TEST(SimulationTest, IdlePollersAllowEventProgress) {
  Simulation sim;
  CountingPoller poller(0);
  sim.AddPoller(&poller);
  bool ran = false;
  sim.Schedule(100, [&] { ran = true; });
  EXPECT_TRUE(sim.StepOnce());
  EXPECT_TRUE(ran);
  sim.RemovePoller(&poller);
}

TEST(HostCpuTest, WorkAdvancesClockWhenCharged) {
  Simulation sim;
  HostCpu host(&sim, "server");
  host.Work(1234);
  EXPECT_EQ(sim.now(), 1234);
  EXPECT_EQ(host.busy_ns(), 1234u);
}

TEST(HostCpuTest, UnchargedHostAccountsOnly) {
  Simulation sim;
  HostCpu host(&sim, "loadgen", /*charges_clock=*/false);
  host.Work(5000);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(host.busy_ns(), 5000u);
  EXPECT_EQ(host.counters().Get(Counter::kHostCpuNs), 5000u);
}

TEST(HostCpuTest, CopyChargesPaperCalibratedCost) {
  Simulation sim;  // default cost model: 4 KB copy = 1 us (paper §3.2)
  HostCpu host(&sim, "server");
  const TimeNs cost = host.CopyBytes(4096);
  EXPECT_EQ(cost, 1000);
  EXPECT_EQ(host.counters().Get(Counter::kCopies), 1u);
  EXPECT_EQ(host.counters().Get(Counter::kBytesCopied), 4096u);
}

TEST(HostCpuTest, CountAggregatesIntoSimulation) {
  Simulation sim;
  HostCpu a(&sim, "a"), b(&sim, "b");
  a.Count(Counter::kSyscalls, 2);
  b.Count(Counter::kSyscalls, 3);
  EXPECT_EQ(a.counters().Get(Counter::kSyscalls), 2u);
  EXPECT_EQ(sim.counters().Get(Counter::kSyscalls), 5u);
}

TEST(CostModelTest, DerivedCostsAreConsistent) {
  CostModel cost;
  EXPECT_EQ(cost.CopyNs(4096), 1000);
  EXPECT_EQ(cost.WireSerializationNs(5000), 1000);  // 5000B at 40Gbps = 1us
  EXPECT_GT(cost.MemRegNs(1 << 20), cost.MemRegNs(4096));
  EXPECT_GT(cost.NvmeNs(false, 4096), cost.NvmeNs(true, 4096) - cost.nvme_write_ns);
  EXPECT_FALSE(cost.Describe().empty());
}

TEST(CountersTest, DescribeListsNonZeroOnly) {
  Counters c;
  c.Add(Counter::kSyscalls, 7);
  const std::string desc = c.Describe();
  EXPECT_NE(desc.find("syscalls=7"), std::string::npos);
  EXPECT_EQ(desc.find("copies"), std::string::npos);
}

// Every counter has its own name: exports key their columns by it.
TEST(CountersTest, EveryCounterHasADistinctName) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const std::string_view name = CounterName(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty()) << "counter " << i;
    EXPECT_NE(name, "?") << "counter " << i;
    EXPECT_TRUE(names.insert(name).second) << "counter " << i << " repeats " << name;
  }
  EXPECT_EQ(CounterName(Counter::kAcceptsBatched), "accepts_batched");
  EXPECT_EQ(CounterName(Counter::kNumCounters), "?");
}

}  // namespace
}  // namespace demi
