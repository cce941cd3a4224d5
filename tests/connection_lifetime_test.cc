// Connection lifetime under the owner-release rule (DESIGN.md §8): whatever holds a
// TcpConnection — a plain Catnip queue, a recovery session's transport, a kernel fd
// under Catnap, an mTCP fd, the load driver's fleet and its server — releases it when
// done, and the stack frees it once it is also CLOSED. After many open/close cycles
// every stack involved holds no more connections than before the first.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/apps/actors.h"
#include "src/baseline/mtcp.h"
#include "src/core/harness.h"
#include "src/load/open_loop_runner.h"

namespace demi {
namespace {

constexpr std::uint16_t kPort = 7;
constexpr int kCycles = 12;

// The stacks a scenario touches, read together.
using LiveCounts = std::function<std::vector<std::size_t>()>;

// Runs `kCycles` short echo clients one after another (each connects, echoes
// `requests` times and closes; the server closes its end at EOF), lets TIME_WAIT and
// any retransmission run out, and expects every stack back at its count from before
// the first cycle. `on_cycle` runs as each client starts.
void ExpectCyclesReturnToBaseline(
    TestHarness& h, const LiveCounts& live,
    const std::function<std::unique_ptr<ClosedLoopClient>()>& make_client,
    std::uint64_t requests, const std::function<void(int)>& on_cycle = nullptr) {
  const std::vector<std::size_t> baseline = live();
  for (int i = 0; i < kCycles; ++i) {
    if (on_cycle) {
      on_cycle(i);
    }
    std::unique_ptr<ClosedLoopClient> client = make_client();
    ASSERT_TRUE(h.RunUntil([&] { return client->done(); }, h.sim().now() + 10 * kSecond))
        << "cycle " << i;
    ASSERT_FALSE(client->failed()) << "cycle " << i;
    EXPECT_EQ(client->completed(), requests);
  }
  h.sim().RunFor(5 * kSecond);
  EXPECT_EQ(live(), baseline);
}

HostOptions LoadgenOpts() {
  HostOptions opts;
  opts.charges_clock = false;
  return opts;
}

TEST(ConnectionLifetimeTest, PlainCatnipCyclesReturnToBaseline) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  CatnipLibOS& server_libos = h.Catnip(sh);
  CatnipLibOS& client_libos = h.Catnip(ch);
  DemiEchoServer server(&server_libos, kPort);
  ExpectCyclesReturnToBaseline(
      h,
      [&] {
        return std::vector<std::size_t>{server_libos.stack().live_connections(),
                                        client_libos.stack().live_connections()};
      },
      [&] {
        return std::make_unique<DemiEchoClient>(&client_libos, Endpoint{sh.ip, kPort}, 64,
                                                4);
      },
      4);
}

TEST(ConnectionLifetimeTest, CatnapCyclesReturnToBaseline) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  CatnapLibOS& server_libos = h.Catnap(sh);
  CatnapLibOS& client_libos = h.Catnap(ch);
  DemiEchoServer server(&server_libos, kPort);
  ExpectCyclesReturnToBaseline(
      h,
      [&] {
        return std::vector<std::size_t>{sh.kernel->net()->live_connections(),
                                        ch.kernel->net()->live_connections()};
      },
      [&] {
        return std::make_unique<DemiEchoClient>(&client_libos, Endpoint{sh.ip, kPort}, 64,
                                                4);
      },
      4);
}

// The client's bypass NIC dies during the second session, which fails over to the
// kernel path; later sessions dial the kernel path directly. Every fast-path and
// kernel-path connection on both hosts is freed in the end, including the server's
// fast-path end, whose FIN to the dead NIC is retransmitted until it gives up.
TEST(ConnectionLifetimeTest, FailedOverSessionCyclesReturnToBaseline) {
  HostOptions opts;
  opts.with_kernel_nic = true;
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", opts);
  opts.charges_clock = false;
  auto& ch = h.AddHost("client", "10.0.0.2", opts);
  CatnipLibOS& server_libos = h.Catnip(sh, RecoveryConfig{});
  RecoveryConfig client_cfg;
  client_cfg.fallback_remote = Endpoint{sh.kernel_ip, kPort};
  client_cfg.has_fallback_remote = true;
  CatnipLibOS& client_libos = h.Catnip(ch, client_cfg);
  DemiEchoServer server(&server_libos, kPort);
  ExpectCyclesReturnToBaseline(
      h,
      [&] {
        return std::vector<std::size_t>{server_libos.stack().live_connections(),
                                        sh.kernel->net()->live_connections(),
                                        client_libos.stack().live_connections(),
                                        ch.kernel->net()->live_connections()};
      },
      [&] {
        return std::make_unique<DemiEchoClient>(&client_libos, Endpoint{sh.ip, kPort}, 64,
                                                100);
      },
      100, [&](int cycle) {
        if (cycle == 1) {
          h.faults().ScheduleDeviceFailure(ch.nic->fault_device(),
                                           h.sim().now() + 100 * kMicrosecond);
        }
      });
  EXPECT_GE(h.sim().counters().Get(Counter::kFailovers), 1u);
}

TEST(ConnectionLifetimeTest, MtcpCyclesReturnToBaseline) {
  TestHarness h;
  HostOptions server_opts;
  server_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  MtcpConfig mcfg;
  mcfg.ip = sh.ip;
  MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
  MtcpEchoServer server(&mtcp, kPort, 64);
  ExpectCyclesReturnToBaseline(
      h,
      [&] {
        return std::vector<std::size_t>{mtcp.net().live_connections(),
                                        ch.kernel->net()->live_connections()};
      },
      [&] {
        return std::make_unique<PosixEchoClient>(ch.kernel.get(), Endpoint{sh.ip, kPort},
                                                 64, 4);
      },
      4);
}

// Churn closes established connections and the fleet redials them. Once the load
// stops and TIME_WAIT runs out, each stack holds exactly the fleet again, however
// many connections came and went.
TEST(ConnectionLifetimeTest, ChurnedLoadConnectionsReturnToTheFleet) {
  OpenLoopConfig cfg;
  cfg.connections = 64;
  cfg.client_stacks = 2;
  cfg.server_ports = 4;
  cfg.churn_per_sec = 50'000;
  cfg.seed = 3;
  OpenLoopRunner r(cfg);
  ASSERT_TRUE(r.Ramp());
  (void)r.RunPoint(20'000, kMillisecond, 5 * kMillisecond);
  r.StopLoad();
  r.sim().RunFor(50 * kMillisecond);
  ASSERT_TRUE(r.sim().RunUntil(
      [&] { return r.established_connections() == cfg.connections; },
      r.sim().now() + kSecond));
  r.sim().RunFor(50 * kMillisecond);
  EXPECT_GE(r.churn_completed(), 100u);
  EXPECT_EQ(r.unexpected_deaths(), 0u);
  std::size_t client_live = 0;
  for (std::size_t s = 0; s < r.client_stack_count(); ++s) {
    client_live += r.client_stack(s).live_connections();
  }
  EXPECT_EQ(client_live, cfg.connections);
  EXPECT_EQ(r.server_stack().live_connections(), cfg.connections);
}

}  // namespace
}  // namespace demi
