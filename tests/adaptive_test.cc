// Load-adaptive path switching + fastcall control path (DESIGN.md §15).
//
// Kernel layer: fastcall pricing of control ops and the one-crossing AcceptBatch
// backlog drain (bare kernel and Catnap). End to end, the churn-heavy adaptive echo
// scenario: cold flows demote (never before a full window) and visibly return
// tenant flow slots; a load spike promotes demoted flows back, limited only by the
// slot quota; a flow between the two thresholds never moves; same seed is
// bit-deterministic; and a NIC death racing a promotion still resolves every qtoken.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/harness.h"
#include "src/load/adaptive_harness.h"

namespace demi {
namespace {

// --- fastcall crossing + AcceptBatch (bare kernel) ---------------------------------

TEST(FastcallTest, ControlOpsUseFastcallPricingWhenEnabled) {
  TestHarness h;
  auto& server = h.AddHost("server", "10.0.0.1");
  auto& client = h.AddHost("client", "10.0.0.2");
  SimKernel& sk = *server.kernel;
  const int lfd = *sk.Socket();
  ASSERT_TRUE(sk.Bind(lfd, 7).ok());
  ASSERT_TRUE(sk.Listen(lfd).ok());

  client.kernel->SetFastcallEnabled(true);
  auto& counters = h.sim().counters();
  const std::uint64_t syscalls_before = counters.Get(Counter::kSyscalls);
  ASSERT_EQ(counters.Get(Counter::kFastcallCrossings), 0u);

  const int cfd = *client.kernel->Socket();  // data-plane setup: full syscall
  EXPECT_EQ(counters.Get(Counter::kSyscalls), syscalls_before + 1);
  ASSERT_TRUE(client.kernel->Connect(cfd, Endpoint{server.ip, 7}).ok());
  // Connect is a control op: one fastcall crossing, no new full syscall.
  EXPECT_EQ(counters.Get(Counter::kFastcallCrossings), 1u);
  EXPECT_EQ(counters.Get(Counter::kSyscalls), syscalls_before + 1);
}

TEST(FastcallTest, AcceptBatchDrainsBacklogInOneCrossing) {
  constexpr int kConns = 6;
  TestHarness h;
  auto& server = h.AddHost("server", "10.0.0.1");
  auto& client = h.AddHost("client", "10.0.0.2");
  SimKernel& sk = *server.kernel;
  const int lfd = *sk.Socket();
  ASSERT_TRUE(sk.Bind(lfd, 7).ok());
  ASSERT_TRUE(sk.Listen(lfd).ok());

  std::vector<int> cfds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = *client.kernel->Socket();
    ASSERT_TRUE(client.kernel->Connect(fd, Endpoint{server.ip, 7}).ok());
    cfds.push_back(fd);
  }
  ASSERT_TRUE(h.RunUntil([&] {
    for (const int fd : cfds) {
      if (!client.kernel->ConnectSucceeded(fd)) {
        return false;
      }
    }
    return true;
  }));
  // The clients saw their SYN-ACKs; give the final ACKs time to land so every
  // connection is actually sitting in the server's accept backlog.
  h.sim().RunFor(1 * kMillisecond);
  ASSERT_TRUE(sk.AcceptReady(lfd));

  auto& counters = h.sim().counters();
  const std::uint64_t syscalls_before = counters.Get(Counter::kSyscalls);
  auto fds = sk.AcceptBatch(lfd, 64);
  ASSERT_TRUE(fds.ok());
  EXPECT_EQ(fds->size(), static_cast<std::size_t>(kConns));
  // The whole backlog drained for ONE kernel crossing.
  EXPECT_EQ(counters.Get(Counter::kSyscalls), syscalls_before + 1);
  EXPECT_EQ(counters.Get(Counter::kAcceptsBatched), static_cast<std::uint64_t>(kConns));
}

TEST(FastcallTest, CatnapAcceptStormDrainsDequeWithoutExtraCrossings) {
  constexpr int kConns = 6;
  TestHarness h;
  auto& server = h.AddHost("server", "10.0.0.1");
  auto& client = h.AddHost("client", "10.0.0.2");
  CatnapLibOS& libos = h.Catnap(server);
  const QDesc lqd = *libos.Socket();
  ASSERT_TRUE(libos.Bind(lqd, 7).ok());
  ASSERT_TRUE(libos.Listen(lqd).ok());

  std::vector<int> cfds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = *client.kernel->Socket();
    ASSERT_TRUE(client.kernel->Connect(fd, Endpoint{server.ip, 7}).ok());
    cfds.push_back(fd);
  }
  ASSERT_TRUE(h.RunUntil([&] {
    for (const int fd : cfds) {
      if (!client.kernel->ConnectSucceeded(fd)) {
        return false;
      }
    }
    return true;
  }));
  // As above: wait for the final ACKs so the whole storm is in the backlog.
  h.sim().RunFor(1 * kMillisecond);

  auto& counters = h.sim().counters();
  const std::uint64_t syscalls_before = counters.Get(Counter::kSyscalls);
  for (int i = 0; i < kConns; ++i) {
    auto qd = libos.Accept(lqd);
    ASSERT_TRUE(qd.ok()) << "accept " << i << ": " << qd.status();
  }
  // First Accept batch-drained the backlog into the libOS; the rest popped the
  // cached fds with zero kernel crossings.
  EXPECT_EQ(counters.Get(Counter::kSyscalls), syscalls_before + 1);
  EXPECT_EQ(counters.Get(Counter::kAcceptsBatched), static_cast<std::uint64_t>(kConns));
}

// --- end to end: the churn-heavy adaptive echo scenario ----------------------------

AdaptiveHarnessConfig ScenarioConfig() {
  AdaptiveHarnessConfig cfg;
  cfg.hot_flows = 2;
  cfg.cold_flows = 4;
  cfg.hot_period_ns = 20 * kMicrosecond;
  cfg.cold_period_ns = 2 * kMillisecond;
  cfg.churn_waves = 8;
  cfg.churn_wave_size = 6;
  cfg.churn_period_ns = 4 * kMillisecond;
  cfg.adaptive = true;
  cfg.fastcall = true;
  cfg.max_flow_slots = 6;  // roomy: all six flows fit at connect time
  cfg.run_ns = 50 * kMillisecond;
  cfg.seed = 41;
  return cfg;
}

TEST(AdaptiveScenarioTest, ColdFlowsDemoteAndReturnFlowSlots) {
  AdaptiveEchoHarness h(ScenarioConfig());
  const AdaptiveScenarioResult r = h.Run();
  // A flow is judged only after a full 2 ms window on its path.
  for (const TraceEvent& ev : h.harness().sim().metrics().trace().Events()) {
    if (ev.kind == TraceKind::kPathDemotion) {
      EXPECT_GE(ev.at, 2 * kMillisecond);
    }
  }

  EXPECT_GT(r.hot_completed, 0u);
  EXPECT_GT(r.cold_completed, 0u);
  EXPECT_GT(r.churn_completed, 0u);
  // Every cold flow left the bypass path exactly once; the hot flows never did.
  EXPECT_GE(r.demotions, 4u);
  EXPECT_EQ(r.promotions, 0u);
  // Demotion RETURNED capacity: only the hot flows still hold bypass slots.
  EXPECT_EQ(r.live_flow_slots, 2u);
  EXPECT_GE(r.flow_slots_released, 4u);
  // Hot flows keep bypass latency; demoted flows pay the kernel path.
  EXPECT_LT(r.hot_p50_ns, r.cold_p50_ns);
  // The control path ran on fastcall pricing and batched its accepts.
  EXPECT_GT(r.fastcall_crossings, 0u);
  EXPECT_GT(r.accepts_batched, 0u);
  EXPECT_EQ(h.client_libos().pending_ops(), 0u);
}

TEST(AdaptiveScenarioTest, LoadSpikePromotesWithinBudget) {
  // Every cold flow turns hot mid-run at an 80 us period: 25k ops/s, which a
  // demoted flow sustains on the kernel path (its ~70 us RTT caps it near 28k/s).
  AdaptiveHarnessConfig cfg = ScenarioConfig();
  cfg.hot_period_ns = 80 * kMicrosecond;
  cfg.cold_hot_flip_ns = 25 * kMillisecond;
  {
    AdaptiveEchoHarness h(cfg);
    const AdaptiveScenarioResult r = h.Run();
    EXPECT_EQ(r.demotions, 4u);
    EXPECT_EQ(r.promotions, 4u);  // every flipped flow got its slot back
    EXPECT_EQ(r.live_flow_slots, 6u);
    EXPECT_EQ(h.client_libos().pending_ops(), 0u);
  }
  // The tenant's flow-slot quota is the only budget on promotions: with two slots
  // left over after the hot flows, two of the four flipped flows get back up and
  // the others keep asking, once per window.
  cfg = ScenarioConfig();
  cfg.cold_hot_flip_ns = 25 * kMillisecond;
  cfg.max_flow_slots = 4;
  AdaptiveEchoHarness h(cfg);
  const AdaptiveScenarioResult r = h.Run();
  EXPECT_EQ(r.promotions, 2u);
  EXPECT_EQ(r.live_flow_slots, 4u);
  EXPECT_GT(r.flow_slots_denied, 0u);
  EXPECT_EQ(h.client_libos().pending_ops(), 0u);
}

TEST(AdaptiveScenarioTest, FlowBetweenThresholdsNeverMoves) {
  // Hot flows at a 330 us period run ~6k ops/s: above the 5k demote threshold,
  // below the 10k promote threshold. The cold flows demote, then flip to the same
  // rate on the kernel path and stay there.
  AdaptiveHarnessConfig cfg = ScenarioConfig();
  cfg.hot_period_ns = 330 * kMicrosecond;
  cfg.cold_hot_flip_ns = 25 * kMillisecond;
  AdaptiveEchoHarness h(cfg);
  const AdaptiveScenarioResult r = h.Run();
  EXPECT_EQ(r.demotions, 4u);  // the cold flows only
  EXPECT_EQ(r.promotions, 0u);
  EXPECT_EQ(r.live_flow_slots, 2u);
  EXPECT_EQ(h.client_libos().pending_ops(), 0u);
}

TEST(AdaptiveScenarioTest, SameSeedIsBitDeterministic) {
  AdaptiveHarnessConfig cfg = ScenarioConfig();
  cfg.cold_hot_flip_ns = 25 * kMillisecond;
  std::uint64_t digest0 = 0;
  std::uint64_t digest1 = 0;
  {
    AdaptiveEchoHarness h(cfg);
    digest0 = h.Run().digest;
  }
  {
    AdaptiveEchoHarness h(cfg);
    digest1 = h.Run().digest;
  }
  EXPECT_EQ(digest0, digest1);

  cfg.seed = 42;
  AdaptiveEchoHarness h(cfg);
  EXPECT_NE(h.Run().digest, digest0);  // the digest actually sees the timeline
}

TEST(AdaptiveChaosTest, NicDeathRacingPromotionsResolvesEveryToken) {
  AdaptiveHarnessConfig cfg = ScenarioConfig();
  cfg.cold_hot_flip_ns = 10 * kMillisecond;
  // A fault-free twin finds when the first promotion lands.
  TimeNs first_promotion = 0;
  {
    AdaptiveEchoHarness twin(cfg);
    EXPECT_GE(twin.Run().promotions, 1u);
    for (const TraceEvent& ev : twin.harness().sim().metrics().trace().Events()) {
      if (ev.kind == TraceKind::kPathPromotion) {
        first_promotion = ev.at;
        break;
      }
    }
  }
  ASSERT_GT(first_promotion, 1 * kMicrosecond);
  AdaptiveEchoHarness h(cfg);
  // Kill the client's bypass NIC just as that promotion redials: in-flight switches
  // must resolve through the failover machinery, not hang.
  h.harness().faults().ScheduleDeviceFailure(h.client_host().nic->fault_device(),
                                             first_promotion - 1 * kMicrosecond);
  const AdaptiveScenarioResult r = h.Run();

  EXPECT_GT(r.hot_completed, 0u);
  EXPECT_GT(r.cold_completed, 0u);
  // The hot flows were on the bypass path when it died: they failed over.
  EXPECT_GE(h.harness().sim().counters().Get(Counter::kFailovers), 1u);
  EXPECT_EQ(h.harness().sim().counters().Get(Counter::kRetryGiveups), 0u);
  // Every qtoken resolved typed — nothing left pending after the drain.
  EXPECT_EQ(h.client_libos().pending_ops(), 0u);
}

}  // namespace
}  // namespace demi
