// Tests for NetStack beyond TCP: UDP datagrams, ARP behaviour, and the multi-stack
// coexistence machinery (flow steering + ephemeral-port partitioning) that lets a
// kernel stack and a kernel-bypass libOS stack share one NIC.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/net_test_util.h"

namespace demi {
namespace {

TEST(UdpTest, SendRecvRoundTrip) {
  TwoStackRig rig;
  std::vector<std::pair<Endpoint, std::string>> got;
  ASSERT_TRUE(rig.stack_b
                  .UdpBind(5000,
                           [&](Endpoint from, Buffer payload) {
                             got.emplace_back(from, payload.ToString());
                           })
                  .ok());
  ASSERT_TRUE(rig.stack_a
                  .UdpSend(6000, Endpoint{rig.stack_b.ip(), 5000},
                           Buffer::CopyOf("datagram one"))
                  .ok());
  ASSERT_TRUE(rig.sim.RunUntil([&] { return got.size() == 1; }, kSecond));
  EXPECT_EQ(got[0].second, "datagram one");
  EXPECT_EQ(got[0].first.ip, rig.stack_a.ip());
  EXPECT_EQ(got[0].first.port, 6000);
}

TEST(UdpTest, UnboundPortDropsSilently) {
  TwoStackRig rig;
  ASSERT_TRUE(rig.stack_a
                  .UdpSend(6000, Endpoint{rig.stack_b.ip(), 9}, Buffer::CopyOf("void"))
                  .ok());
  rig.sim.RunFor(kMillisecond);  // no crash, no reply: silent drop is the contract
}

TEST(UdpTest, UnbindStopsDelivery) {
  TwoStackRig rig;
  int received = 0;
  ASSERT_TRUE(rig.stack_b.UdpBind(5000, [&](Endpoint, Buffer) { ++received; }).ok());
  ASSERT_TRUE(rig.stack_a
                  .UdpSend(6000, Endpoint{rig.stack_b.ip(), 5000}, Buffer::CopyOf("1"))
                  .ok());
  ASSERT_TRUE(rig.sim.RunUntil([&] { return received == 1; }, kSecond));
  rig.stack_b.UdpUnbind(5000);
  ASSERT_TRUE(rig.stack_a
                  .UdpSend(6000, Endpoint{rig.stack_b.ip(), 5000}, Buffer::CopyOf("2"))
                  .ok());
  rig.sim.RunFor(kMillisecond);
  EXPECT_EQ(received, 1);
}

TEST(UdpTest, OversizedDatagramRejected) {
  TwoStackRig rig;
  EXPECT_EQ(rig.stack_a
                .UdpSend(6000, Endpoint{rig.stack_b.ip(), 5000},
                         Buffer::Allocate(2000))
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(UdpTest, DoubleBindRejected) {
  TwoStackRig rig;
  ASSERT_TRUE(rig.stack_b.UdpBind(5000, [](Endpoint, Buffer) {}).ok());
  EXPECT_EQ(rig.stack_b.UdpBind(5000, [](Endpoint, Buffer) {}).code(),
            ErrorCode::kAddressInUse);
}

TEST(ArpTest, CacheAvoidsRepeatedBroadcasts) {
  TwoStackRig rig;
  ASSERT_TRUE(rig.stack_b.UdpBind(5000, [](Endpoint, Buffer) {}).ok());
  ASSERT_TRUE(rig.stack_a
                  .UdpSend(6000, Endpoint{rig.stack_b.ip(), 5000}, Buffer::CopyOf("x"))
                  .ok());
  rig.sim.RunFor(kMillisecond);
  const std::uint64_t tx_after_first = rig.stack_a.frames_tx();
  // 10 more sends: no further ARP requests, exactly one frame per datagram.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.stack_a
                    .UdpSend(6000, Endpoint{rig.stack_b.ip(), 5000}, Buffer::CopyOf("y"))
                    .ok());
  }
  rig.sim.RunFor(kMillisecond);
  EXPECT_EQ(rig.stack_a.frames_tx() - tx_after_first, 10u);
}

TEST(ArpTest, UnresolvableAddressDropsAfterRetries) {
  TwoStackRig rig;
  const std::uint64_t dropped_before =
      rig.host_a.counters().Get(Counter::kPacketsDropped);
  ASSERT_TRUE(rig.stack_a
                  .UdpSend(6000, Endpoint{Ipv4Address::Parse("10.9.9.9"), 5000},
                           Buffer::CopyOf("to nowhere"))
                  .ok());
  rig.sim.RunFor(20 * kMillisecond);  // 3 retries at 1ms plus slack
  EXPECT_GT(rig.host_a.counters().Get(Counter::kPacketsDropped), dropped_before);
}

TEST(MultiStackTest, TwoStacksShareOneNicViaFlowSteering) {
  // One host, one NIC with two queues, two stacks with the same IP (the kernel +
  // leased-queue arrangement of Figure 2). Flow steering must route each listener's
  // traffic to its own stack.
  Simulation sim;
  Fabric fabric(&sim);
  HostCpu host(&sim, "shared");
  NicConfig nic_cfg;
  nic_cfg.num_queues = 2;
  SimNic nic(&host, &fabric, MacAddress::ForHost(1), nic_cfg);

  NetStackConfig cfg0;
  cfg0.ip = Ipv4Address::Parse("10.0.0.1");
  cfg0.nic_queue = 0;
  cfg0.seed = 1;
  NetStack stack0(&host, &nic, cfg0);
  NetStackConfig cfg1 = cfg0;
  cfg1.nic_queue = 1;
  cfg1.seed = 2;
  NetStack stack1(&host, &nic, cfg1);

  HostCpu peer_cpu(&sim, "peer");
  SimNic peer_nic(&peer_cpu, &fabric, MacAddress::ForHost(2));
  NetStackConfig peer_cfg;
  peer_cfg.ip = Ipv4Address::Parse("10.0.0.2");
  peer_cfg.seed = 3;
  NetStack peer(&peer_cpu, &peer_nic, peer_cfg);

  auto l0 = stack0.TcpListen(1000);
  auto l1 = stack1.TcpListen(2000);
  ASSERT_TRUE(l0.ok());
  ASSERT_TRUE(l1.ok());

  auto c0 = peer.TcpConnect(Endpoint{cfg0.ip, 1000});
  auto c1 = peer.TcpConnect(Endpoint{cfg0.ip, 2000});
  ASSERT_TRUE(c0.ok());
  ASSERT_TRUE(c1.ok());
  // Client-side established() precedes the server processing the final handshake
  // ACK; wait for the accept queues themselves.
  ASSERT_TRUE(sim.RunUntil(
      [&] { return (*l0)->pending() == 1 && (*l1)->pending() == 1; }, 10 * kSecond));

  // Data flows to the right stack.
  TcpConnection* s0 = (*l0)->Accept();
  TcpConnection* s1 = (*l1)->Accept();
  ASSERT_TRUE((*c0)->Send(Buffer::CopyOf("to stack zero")).ok());
  ASSERT_TRUE((*c1)->Send(Buffer::CopyOf("to stack one")).ok());
  ASSERT_TRUE(sim.RunUntil(
      [&] { return s0->recv_available() > 0 && s1->recv_available() > 0; },
      10 * kSecond));
  EXPECT_EQ(s0->Recv(64).AsStringView(), "to stack zero");
  EXPECT_EQ(s1->Recv(64).AsStringView(), "to stack one");
}

TEST(MultiStackTest, EphemeralPortRangesArePartitionedByQueue) {
  Simulation sim;
  Fabric fabric(&sim);
  HostCpu host(&sim, "shared");
  NicConfig nic_cfg;
  nic_cfg.num_queues = 2;
  SimNic nic(&host, &fabric, MacAddress::ForHost(1), nic_cfg);

  NetStackConfig cfg0;
  cfg0.ip = Ipv4Address::Parse("10.0.0.1");
  cfg0.nic_queue = 0;
  NetStack stack0(&host, &nic, cfg0);
  NetStackConfig cfg1 = cfg0;
  cfg1.nic_queue = 1;
  NetStack stack1(&host, &nic, cfg1);

  auto c0 = stack0.TcpConnect(Endpoint{Ipv4Address::Parse("10.0.0.2"), 80});
  auto c1 = stack1.TcpConnect(Endpoint{Ipv4Address::Parse("10.0.0.2"), 80});
  ASSERT_TRUE(c0.ok());
  ASSERT_TRUE(c1.ok());
  EXPECT_GE((*c0)->local().port, 49152);
  EXPECT_LT((*c0)->local().port, 49152 + 2048);
  EXPECT_GE((*c1)->local().port, 49152 + 2048);
  EXPECT_NE((*c0)->local().port, (*c1)->local().port);
}

// Connects stack_a to a listener on stack_b and returns both ends once the server
// side has been accepted.
std::pair<TcpConnection*, TcpConnection*> ConnectPair(TwoStackRig& rig,
                                                      std::uint16_t port) {
  auto listener = rig.stack_b.TcpListen(port);
  EXPECT_TRUE(listener.ok());
  auto client = rig.stack_a.TcpConnect(Endpoint{rig.stack_b.ip(), port});
  EXPECT_TRUE(client.ok());
  // The server side finishes the handshake after the client's established().
  EXPECT_TRUE(
      rig.sim.RunUntil([&] { return (*listener)->pending() > 0; }, 10 * kSecond));
  return {*client, (*listener)->Accept()};
}

// The active closer lets go at once; its connection lives on through FIN_WAIT and
// TIME_WAIT, and the stack frees it when TIME_WAIT expires. The server end, which
// nobody released, stays allocated after it reaches CLOSED.
TEST(StackLifetimeTest, ReleasedBeforeClosedIsFreedWhenTimeWaitEnds) {
  TwoStackRig rig;
  auto [client, server] = ConnectPair(rig, 7000);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(rig.stack_a.live_connections(), 1u);
  client->Close();
  rig.stack_a.Release(client);
  ASSERT_TRUE(rig.sim.RunUntil([&] { return server->recv_eof(); }, kSecond));
  server->Close();
  // The server, in LAST_ACK, reaches CLOSED when the client's last ACK arrives,
  // which the client sends on entering TIME_WAIT.
  ASSERT_TRUE(rig.sim.RunUntil([&] { return server->closed(); }, kSecond));
  EXPECT_EQ(rig.stack_a.live_connections(), 1u) << "freed before TIME_WAIT expired";
  rig.sim.RunFor(2 * TcpConfig{}.time_wait_ns);
  EXPECT_EQ(rig.stack_a.live_connections(), 0u);
  EXPECT_EQ(rig.stack_b.live_connections(), 1u);
}

// CLOSED alone frees nothing: until its holder releases it, a closed connection keeps
// the bytes nobody read, however many polls pass.
TEST(StackLifetimeTest, ClosedUnreleasedConnectionStaysReadable) {
  TwoStackRig rig;
  auto [client, server] = ConnectPair(rig, 7001);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(client->Send(Buffer::CopyOf("unread")).ok());
  client->Close();
  ASSERT_TRUE(rig.sim.RunUntil([&] { return server->recv_available() == 6; }, kSecond));
  server->Close();
  ASSERT_TRUE(
      rig.sim.RunUntil([&] { return server->closed() && client->closed(); }, kSecond));
  rig.sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(rig.stack_b.live_connections(), 1u);
  EXPECT_EQ(server->Recv(64).ToString(), "unread");
  EXPECT_TRUE(server->recv_eof());
  rig.stack_a.Release(client);
  rig.stack_b.Release(server);
  rig.sim.RunFor(kMillisecond);
  EXPECT_EQ(rig.stack_a.live_connections(), 0u);
  EXPECT_EQ(rig.stack_b.live_connections(), 0u);
}

// An embryo's only holder is its listener: one that is reset before the handshake
// completes is freed without anyone releasing it.
TEST(StackLifetimeTest, EmbryoThatDiesUnacceptedIsFreed) {
  TwoStackRig rig;
  auto listener = rig.stack_b.TcpListen(7002);
  ASSERT_TRUE(listener.ok());
  auto client = rig.stack_a.TcpConnect(Endpoint{rig.stack_b.ip(), 7002});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      rig.sim.RunUntil([&] { return rig.stack_b.live_connections() == 1; }, kSecond));
  ASSERT_FALSE((*client)->established()) << "the SYN-ACK is still on the wire";
  (*client)->Abort();  // the RST kills the server's embryo
  ASSERT_TRUE(
      rig.sim.RunUntil([&] { return rig.stack_b.live_connections() == 0; }, kSecond));
  EXPECT_EQ((*listener)->pending(), 0u);
  EXPECT_EQ(rig.stack_a.live_connections(), 1u);  // the client end is still held
}

// The flow table is the RX-path demultiplexer at a million concurrent flows:
// insert/lookup/erase must stay O(1) with no collision pathologies. Uses the
// table directly (no sockets) so the test runs in seconds. Connection pointers
// are synthetic — the table never dereferences them.
TEST(FlowTableScaleTest, MillionFlowsFlatProbeCost) {
  constexpr std::size_t kFlows = 1'000'000;
  FlowTable table;
  // Adversarially clustered 4-tuples: sequential remote IPs, sequential ports,
  // stride-free — the pattern that wrecks an identity-hashed table.
  auto tuple_of = [](std::size_t f) {
    const auto local = static_cast<std::uint16_t>(49152 + f % 2048);
    const Endpoint remote{
        Ipv4Address{0x0a000000u + static_cast<std::uint32_t>(f / 2048)},
        static_cast<std::uint16_t>(5000 + f % 64)};
    return std::pair<std::uint16_t, Endpoint>(local, remote);
  };
  auto conn_of = [](std::size_t f) {
    return reinterpret_cast<TcpConnection*>(f + 1);  // never dereferenced
  };

  for (std::size_t f = 0; f < kFlows; ++f) {
    const auto [local, remote] = tuple_of(f);
    table.Insert(local, remote, conn_of(f));
  }
  ASSERT_EQ(table.size(), kFlows);
  // Load factor stays within the 3/4 growth policy.
  EXPECT_LE(table.size() * 4, table.capacity() * 3);

  // Every flow resolves to its own connection at full occupancy.
  for (std::size_t f = 0; f < kFlows; ++f) {
    const auto [local, remote] = tuple_of(f);
    ASSERT_EQ(table.Find(local, remote), conn_of(f)) << "flow " << f;
  }
  // O(1) lookups: mean probe length stays flat (near 1) at 10^6 entries, and no
  // probe sequence degenerated into a linear scan.
  const FlowTable::Stats& st = table.stats();
  ASSERT_GE(st.lookups, kFlows);
  const double mean_probes =
      static_cast<double>(st.lookup_probes) / static_cast<double>(st.lookups);
  EXPECT_LT(mean_probes, 2.0) << "mean probe length " << mean_probes;
  EXPECT_LT(st.max_probe, 64u) << "collision pathology: max probe " << st.max_probe;

  // Erase half (every other flow), then verify the survivors still resolve and
  // the erased ones miss — backward-shift deletion must not break probe chains.
  for (std::size_t f = 0; f < kFlows; f += 2) {
    const auto [local, remote] = tuple_of(f);
    ASSERT_TRUE(table.Erase(local, remote));
  }
  EXPECT_EQ(table.size(), kFlows / 2);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const auto [local, remote] = tuple_of(f);
    if (f % 2 == 0) {
      ASSERT_EQ(table.Find(local, remote), nullptr) << "erased flow " << f;
    } else {
      ASSERT_EQ(table.Find(local, remote), conn_of(f)) << "surviving flow " << f;
    }
  }
  // Reinsert into the holes: erase left the table compacted, not tombstoned.
  for (std::size_t f = 0; f < kFlows; f += 2) {
    const auto [local, remote] = tuple_of(f);
    table.Insert(local, remote, conn_of(f));
  }
  EXPECT_EQ(table.size(), kFlows);
}

}  // namespace
}  // namespace demi
