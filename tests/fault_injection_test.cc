// Per-fault-type unit tests for the device fault injector (§4.4, §4.5): every fault
// kind, injected against every device class, must complete pending qtokens with the
// right typed ErrorCode — never leave a token pending, never hang a Wait.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/harness.h"

namespace demi {
namespace {

HostOptions RdmaOpts() {
  HostOptions o;
  o.with_rdma = true;
  o.with_nic = false;
  o.with_kernel = false;
  return o;
}

HostOptions BlockOpts() {
  HostOptions o;
  o.with_nic = false;
  o.with_kernel = false;
  o.with_block_device = true;
  return o;
}

// Connects a catnip client to a catnip server; returns {server_qd, client_qd}.
std::pair<QDesc, QDesc> CatnipPair(TestHarness& h, CatnipLibOS& server,
                                   CatnipLibOS& client, Ipv4Address server_ip,
                                   std::uint16_t port) {
  const QDesc lqd = *server.Socket();
  EXPECT_TRUE(server.Bind(lqd, port).ok());
  EXPECT_TRUE(server.Listen(lqd).ok());
  const QToken atok = *server.AcceptAsync(lqd);
  const QDesc cqd = *client.Socket();
  const QToken ctok = *client.ConnectAsync(cqd, Endpoint{server_ip, port});
  EXPECT_TRUE(client.Wait(ctok, 10 * kSecond)->status.ok());
  const QDesc sqd = server.Wait(atok, 10 * kSecond)->new_qd;
  return {sqd, cqd};
}

// Connects a catmint client to a catmint server; returns {server_qd, client_qd}.
std::pair<QDesc, QDesc> CatmintPair(TestHarness& h, CatmintLibOS& server,
                                    CatmintLibOS& client, Ipv4Address server_ip,
                                    std::uint16_t port) {
  const QDesc lqd = *server.Socket();
  EXPECT_TRUE(server.Bind(lqd, port).ok());
  EXPECT_TRUE(server.Listen(lqd).ok());
  const QToken atok = *server.AcceptAsync(lqd);
  const QDesc cqd = *client.Socket();
  const QToken ctok = *client.ConnectAsync(cqd, Endpoint{server_ip, port});
  EXPECT_TRUE(client.Wait(ctok, 10 * kSecond)->status.ok());
  const QDesc sqd = server.Wait(atok, 10 * kSecond)->new_qd;
  return {sqd, cqd};
}

// --- NIC faults ---

TEST(FaultInjectionTest, NicLinkFlapMidTransferRecoversViaRetransmit) {
  // A transient link flap drops frames at the wire; TCP's retransmission machinery
  // must deliver the element anyway, bit-exact, once the link comes back.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  auto [sqd, cqd] = CatnipPair(h, sl, cl, sh.ip, 7000);

  const QToken pop = *sl.Pop(sqd);
  // Link drops at once and stays down 10 ms: the element is pushed into a dead wire
  // and only retransmission after the link heals can deliver it.
  h.faults().ScheduleLinkFlap(ch.nic->fault_device(), h.sim().now(), 10 * kMillisecond);
  const std::string msg(32 * 1024, 'x');
  ASSERT_TRUE(cl.BlockingPush(cqd, SgArray::FromString(msg))->status.ok());
  auto r = sl.Wait(pop, 60 * kSecond);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->status.ok()) << r->status;
  EXPECT_EQ(r->sga.ToString(), msg);
  EXPECT_GE(h.sim().counters().Get(Counter::kLinkFlaps), 1u);
  EXPECT_GE(h.sim().counters().Get(Counter::kFaultsInjected), 2u);  // down + up
}

TEST(FaultInjectionTest, NicDeathFailsInFlightBlockingPopWithTypedError) {
  // The acceptance criterion: a NIC death while a BlockingPop is parked must surface a
  // typed error within a bounded virtual-time budget, not hang until a timeout.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  auto [sqd, cqd] = CatnipPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;

  const TimeNs start = h.sim().now();
  h.faults().ScheduleDeviceFailure(ch.nic->fault_device(), start + kMillisecond);
  auto r = cl.BlockingPop(cqd);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->status.code() == ErrorCode::kDeviceFailed ||
              r->status.code() == ErrorCode::kConnectionReset)
      << r->status;
  EXPECT_NE(r->status.code(), ErrorCode::kTimedOut);
  // Bounded budget: the error arrives at the death, not after an RTO pile-up.
  EXPECT_LE(h.sim().now(), start + 100 * kMillisecond);
  EXPECT_GE(h.sim().counters().Get(Counter::kFaultsInjected), 1u);
}

TEST(FaultInjectionTest, NicDeathFailsSubsequentPushWithTypedError) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  auto [sqd, cqd] = CatnipPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;

  h.faults().ScheduleDeviceFailure(ch.nic->fault_device(), h.sim().now());
  h.sim().RunFor(kMillisecond);
  auto r = cl.BlockingPush(cqd, SgArray::FromString("doomed"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->status.code() == ErrorCode::kDeviceFailed ||
              r->status.code() == ErrorCode::kConnectionReset)
      << r->status;
}

TEST(FaultInjectionTest, NicDeathFailsParkedUdpPop) {
  // Datagram queues have no connection to reset; the device-failure path must still
  // flush their parked pops (§4.4: wakeup correctness is per-queue, not per-protocol).
  TestHarness h;
  auto& host = h.AddHost("a", "10.0.0.1");
  auto& libos = h.Catnip(host);
  const QDesc qd = *libos.SocketUdp();
  ASSERT_TRUE(libos.Bind(qd, 9000).ok());
  const QToken pop = *libos.Pop(qd);
  h.faults().ScheduleDeviceFailure(host.nic->fault_device(), h.sim().now() + kMillisecond);
  auto r = libos.Wait(pop, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kDeviceFailed) << r->status;
}

TEST(FaultInjectionTest, FabricPartitionResetsConnectionAfterRtoExhaustion) {
  // A partition is invisible to both NICs (links stay up); only TCP's retransmission
  // budget detects it. The parked pop must complete with kConnectionReset, not hang.
  TcpConfig tcp;
  tcp.max_retries = 2;
  HostOptions opts;
  opts.tcp = tcp;
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", opts);
  auto& ch = h.AddHost("client", "10.0.0.2", opts);
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  auto [sqd, cqd] = CatnipPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;

  h.faults().SchedulePartition(ch.nic->port(), sh.nic->port(), h.sim().now(),
                               600 * kSecond);
  const QToken pop = *cl.Pop(cqd);
  (void)cl.Push(cqd, SgArray::FromString("into the void"));
  auto r = cl.Wait(pop, 300 * kSecond);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->status.code(), ErrorCode::kConnectionReset) << r->status;
  EXPECT_GT(h.sim().counters().Get(Counter::kPacketsDropped), 0u);
}

// --- RDMA faults ---

TEST(FaultInjectionTest, QpErrorFailsPostedRecvWqesWithKQpError) {
  // A forced QP error must flush the pre-posted receive WQEs, and the parked pop that
  // rides on them must carry the typed kQpError cause — not a generic reset.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
  auto& ch = h.AddHost("client", "10.0.0.2", RdmaOpts());
  auto& sl = h.Catmint(sh);
  auto& cl = h.Catmint(ch);
  auto [sqd, cqd] = CatmintPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;

  const QToken pop = *cl.Pop(cqd);
  h.faults().ScheduleQpError(ch.rdma->fault_device(), h.sim().now() + kMillisecond);
  auto r = cl.Wait(pop, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kQpError) << r->status;

  // Pushes queued after the error are flushed with the same recorded cause.
  auto p = cl.BlockingPush(cqd, SgArray::FromString("late"));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->status.code(), ErrorCode::kQpError) << p->status;
}

TEST(FaultInjectionTest, RdmaDeviceDeathCarriesKDeviceFailed) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
  auto& ch = h.AddHost("client", "10.0.0.2", RdmaOpts());
  auto& sl = h.Catmint(sh);
  auto& cl = h.Catmint(ch);
  auto [sqd, cqd] = CatmintPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;

  const QToken pop = *cl.Pop(cqd);
  h.faults().ScheduleDeviceFailure(ch.rdma->fault_device(), h.sim().now() + kMillisecond);
  auto r = cl.Wait(pop, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kDeviceFailed) << r->status;
}

TEST(FaultInjectionTest, RdmaDeviceDeathReleasesPostedRecvBuffers) {
  // §4.5 free-protection in reverse: when the device dies, buffers it held for posted
  // WQEs must come back to the memory manager instead of leaking with the queue pair.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
  auto& ch = h.AddHost("client", "10.0.0.2", RdmaOpts());
  auto& sl = h.Catmint(sh);
  auto& cl = h.Catmint(ch);
  auto [sqd, cqd] = CatmintPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;
  (void)cqd;

  const std::uint64_t live_before = cl.memory().live_slots();
  ASSERT_GE(live_before, 64u);  // the provisioned recv pool is manager-owned
  h.faults().ScheduleDeviceFailure(ch.rdma->fault_device(), h.sim().now() + kMillisecond);
  h.sim().RunFor(10 * kMillisecond);
  EXPECT_LE(cl.memory().live_slots(), live_before - 64u);
}

TEST(FaultInjectionTest, RegistrationExhaustionFailsRegisterAndBouncedPush) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
  auto& ch = h.AddHost("client", "10.0.0.2", RdmaOpts());
  auto& sl = h.Catmint(sh);
  auto& cl = h.Catmint(ch);
  auto [sqd, cqd] = CatmintPair(h, sl, cl, sh.ip, 7000);
  (void)sqd;

  h.faults().ScheduleRegExhaustion(ch.rdma->fault_device(), h.sim().now());
  h.sim().RunFor(kMicrosecond);

  // Direct registration now fails with the resource error, not a crash.
  Buffer region = Buffer::Allocate(4096);
  EXPECT_EQ(ch.rdma->RegisterMemory(region.shared_storage()).code(),
            ErrorCode::kResourceExhausted);

  // Exhaust the registered 4 KiB slots so the next bounce buffer must come from a
  // fresh arena — one the NIC can no longer register.
  std::vector<Buffer> held;
  const std::size_t arenas_before = cl.memory().arena_count();
  while (cl.memory().arena_count() == arenas_before) {
    held.push_back(cl.memory().Allocate(4096));
    ASSERT_LT(held.size(), 10000u) << "arena never grew";
  }

  // Foreign (unregistered) memory forces the transparent bounce; with registration
  // exhausted the bounce cannot produce a sendable segment.
  auto r = cl.BlockingPush(cqd, SgArray::FromString(std::string(4000, 'y')));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kResourceExhausted) << r->status;
}

// --- Block-device faults ---

TEST(FaultInjectionTest, BlockMediaErrorFailsPopThenRecovers) {
  TestHarness h;
  auto& host = h.AddHost("storage", "10.0.0.1", BlockOpts());
  auto& libos = h.Catfish(host);

  const QDesc wqd = *libos.Creat("/log");
  ASSERT_TRUE(libos.BlockingPush(wqd, SgArray::FromString("durable record"))->status.ok());
  ASSERT_TRUE(libos.Close(wqd).ok());

  // Arm a one-shot media error, then reopen so the block cache is cold and the pop
  // must fetch from the (now lying) device.
  h.faults().ScheduleOpFault(host.bdev->fault_device(), FaultKind::kMediaError,
                             h.sim().now());
  h.sim().RunFor(kMicrosecond);
  const QDesc rqd = *libos.Open("/log");
  auto r = libos.BlockingPop(rqd);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kMediaError) << r->status;
  EXPECT_GE(h.sim().counters().Get(Counter::kOpsFailed), 1u);

  // The fault was transient (one bad read): a retry must replay the record intact.
  auto retry = libos.BlockingPop(rqd);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE(retry->status.ok()) << retry->status;
  EXPECT_EQ(retry->sga.ToString(), "durable record");
}

// The device keeps the Buffer a block was written from, and Catfish's cache shares
// it. A later push into that block must write a copy: were it to write the shared
// page in place, a push whose device write failed would still change the media.
TEST(FaultInjectionTest, BlockWriteFaultLeavesTheSharedBlockUntouched) {
  TestHarness h;
  auto& host = h.AddHost("storage", "10.0.0.1", BlockOpts());
  auto& libos = h.Catfish(host);

  const QDesc wqd = *libos.Creat("/log");
  ASSERT_TRUE(libos.BlockingPush(wqd, SgArray::FromString("first"))->status.ok());
  h.faults().ScheduleOpFault(host.bdev->fault_device(), FaultKind::kMediaError,
                             h.sim().now());
  h.sim().RunFor(kMicrosecond);
  auto failed = libos.BlockingPush(wqd, SgArray::FromString("second"));
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->status.code(), ErrorCode::kMediaError) << failed->status;
  ASSERT_TRUE(libos.Close(wqd).ok());

  const QDesc rqd = *libos.Open("/log");
  auto first = libos.BlockingPop(rqd);
  ASSERT_TRUE(first.ok() && first->status.ok());
  EXPECT_EQ(first->sga.ToString(), "first");
  auto next = libos.BlockingPop(rqd);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next->sga.ToString(), "second");
}

TEST(FaultInjectionTest, BlockOpTimeoutCompletesLateWithKTimedOut) {
  TestHarness h;
  auto& host = h.AddHost("storage", "10.0.0.1", BlockOpts());
  auto& libos = h.Catfish(host);

  const QDesc wqd = *libos.Creat("/log");
  ASSERT_TRUE(libos.BlockingPush(wqd, SgArray::FromString("slow record"))->status.ok());
  ASSERT_TRUE(libos.Close(wqd).ok());

  h.faults().ScheduleOpFault(host.bdev->fault_device(), FaultKind::kOpTimeout,
                             h.sim().now());
  h.sim().RunFor(kMicrosecond);
  const TimeNs start = h.sim().now();
  const QDesc rqd = *libos.Open("/log");
  auto r = libos.BlockingPop(rqd);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kTimedOut) << r->status;
  // The command completes *late* — the timeout is a delay plus an error, not a drop.
  EXPECT_GE(h.sim().now() - start, 5 * kMillisecond);
}

TEST(FaultInjectionTest, BlockDeviceDeathFailsSubmitsImmediately) {
  TestHarness h;
  auto& host = h.AddHost("storage", "10.0.0.1", BlockOpts());
  auto& libos = h.Catfish(host);
  const QDesc qd = *libos.Creat("/log");

  h.faults().ScheduleDeviceFailure(host.bdev->fault_device(), h.sim().now());
  h.sim().RunFor(kMicrosecond);
  auto r = libos.BlockingPush(qd, SgArray::FromString("never lands"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kDeviceFailed) << r->status;
}

// --- Injector semantics ---

TEST(FaultInjectionTest, RateBasedFaultsAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    Simulation sim;
    FaultInjector inj(&sim, seed);
    const FaultDeviceId dev = inj.Register("blk/test");
    inj.SetOpFaultRate(dev, FaultKind::kMediaError, 0.1);
    std::vector<int> hits;
    for (int i = 0; i < 200; ++i) {
      if (inj.NextOpFault(dev).has_value()) {
        hits.push_back(i);
      }
    }
    return hits;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultInjectionTest, PartitionsRefcountOverlappingWindows) {
  Simulation sim;
  FaultInjector inj(&sim, 1);
  inj.SchedulePartition(1, 2, kMillisecond, 10 * kMillisecond);       // [1ms, 11ms)
  inj.SchedulePartition(2, 1, 5 * kMillisecond, 10 * kMillisecond);   // [5ms, 15ms)
  EXPECT_FALSE(inj.Partitioned(1, 2));
  // Probe via scheduled events: the overlap [5ms, 11ms) counts two partitions, the
  // tail [11ms, 15ms) one, and after 15ms none.
  bool mid = false, tail = false, after = true;
  sim.ScheduleAt(7 * kMillisecond, [&] { mid = inj.Partitioned(2, 1); });
  sim.ScheduleAt(12 * kMillisecond, [&] { tail = inj.Partitioned(1, 2); });
  sim.ScheduleAt(16 * kMillisecond, [&] { after = inj.Partitioned(1, 2); });
  sim.RunFor(20 * kMillisecond);
  EXPECT_TRUE(mid);    // order-insensitive lookup during the overlap
  EXPECT_TRUE(tail);   // overlapping windows refcount: one heal does not clear both
  EXPECT_FALSE(after);
}

}  // namespace
}  // namespace demi
