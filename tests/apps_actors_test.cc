// Integration tests: the echo and KV actors end-to-end on every architecture
// (Demikernel over Catnip/Catnap/Catmint, POSIX over the kernel, mTCP-like), all
// producing identical application results at very different cost signatures.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/apps/actors.h"
#include "src/core/harness.h"

namespace demi {
namespace {

constexpr std::uint16_t kPort = 6379;

HostOptions RdmaOpts() {
  HostOptions o;
  o.with_rdma = true;
  o.with_nic = false;
  o.with_kernel = false;
  return o;
}

HostOptions LoadgenOpts(bool rdma = false) {
  HostOptions o = rdma ? RdmaOpts() : HostOptions{};
  o.charges_clock = false;
  return o;
}

TEST(EchoActorsTest, DemiCatnipEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& server_libos = h.Catnip(sh);
  auto& client_libos = h.Catnip(ch);
  DemiEchoServer server(&server_libos, kPort);
  DemiEchoClient client(&client_libos, Endpoint{sh.ip, kPort}, 64, 100);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), 100u);
  EXPECT_EQ(server.served(), 100u);
  EXPECT_GT(client.latency().P50(), 0u);
}

TEST(EchoActorsTest, DemiCatnapEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& server_libos = h.Catnap(sh);
  auto& client_libos = h.Catnap(ch);
  DemiEchoServer server(&server_libos, kPort);
  DemiEchoClient client(&client_libos, Endpoint{sh.ip, kPort}, 64, 50);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.served(), 50u);
}

TEST(EchoActorsTest, DemiCatmintEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts(/*rdma=*/true));
  auto& server_libos = h.Catmint(sh);
  auto& client_libos = h.Catmint(ch);
  DemiEchoServer server(&server_libos, kPort);
  DemiEchoClient client(&client_libos, Endpoint{sh.ip, kPort}, 64, 100);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.served(), 100u);
}

TEST(EchoActorsTest, PosixEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixEchoServer server(sh.kernel.get(), kPort, 64);
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 100);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_EQ(client.completed(), 100u);
  EXPECT_EQ(server.served(), 100u);
}

TEST(EchoActorsTest, MtcpEcho) {
  TestHarness h;
  HostOptions server_opts;
  server_opts.with_kernel = false;  // mTCP replaces the kernel stack entirely
  auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  MtcpConfig mcfg;
  mcfg.ip = sh.ip;
  MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
  MtcpEchoServer server(&mtcp, kPort, 64);
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 50);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_EQ(client.completed(), 50u);
  EXPECT_EQ(server.served(), 50u);
}

TEST(EchoActorsTest, PosixClientReportsARefusedDial) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 10);  // no listener
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 10 * kSecond));
  EXPECT_TRUE(client.failed());
  EXPECT_EQ(client.completed(), 0u);
}

TEST(EchoActorsTest, PosixServerClosesAConnectionAtEof) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixEchoServer server(sh.kernel.get(), kPort, 64);
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 20);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  ASSERT_FALSE(client.failed());
  EXPECT_EQ(sh.kernel->net()->live_connections(), 1u);
  const std::uint64_t syscalls = sh.cpu->counters().Get(Counter::kSyscalls);
  h.sim().RunFor(10 * kMillisecond);
  // The client's FIN wakes the server: epoll_wait, the EOF read, epoll_ctl DEL, close.
  EXPECT_EQ(sh.cpu->counters().Get(Counter::kSyscalls) - syscalls, 4u);
  // The close released the server's end, which the client's last ACK then closed.
  EXPECT_EQ(sh.kernel->net()->live_connections(), 0u);
}

TEST(EchoActorsTest, MtcpServerClosesAConnectionAtEof) {
  TestHarness h;
  HostOptions server_opts;
  server_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  MtcpConfig mcfg;
  mcfg.ip = sh.ip;
  MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
  MtcpEchoServer server(&mtcp, kPort, 64);
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 20);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  ASSERT_FALSE(client.failed());
  EXPECT_EQ(ch.kernel->net()->live_connections(), 1u);
  h.sim().RunFor(10 * kMillisecond);
  // Only the server's close answers the client's FIN, so the client's side, which
  // its close released, can pass TIME_WAIT to CLOSED and be freed.
  EXPECT_EQ(ch.kernel->net()->live_connections(), 0u);
}

// mTCP hands a write to its stack context after the batch delay; a close made right
// after must not overtake it, or the peer reads EOF and never the bytes.
TEST(MtcpStackTest, ACloseRightAfterAWriteStillDeliversTheBytes) {
  TestHarness h;
  HostOptions server_opts;
  server_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  MtcpConfig mcfg;
  mcfg.ip = sh.ip;
  MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
  const int listen_fd = *mtcp.Socket();
  ASSERT_TRUE(mtcp.Bind(listen_fd, kPort).ok());
  ASSERT_TRUE(mtcp.Listen(listen_fd).ok());
  SimKernel& kernel = *ch.kernel;
  const int cfd = *kernel.Socket();
  ASSERT_TRUE(kernel.Connect(cfd, Endpoint{sh.ip, kPort}).ok());
  int sfd = -1;
  ASSERT_TRUE(h.RunUntil(
      [&] {
        auto accepted = mtcp.Accept(listen_fd);
        sfd = accepted.ok() ? *accepted : -1;
        return accepted.ok();
      },
      kSecond));

  auto written = mtcp.Write(sfd, Buffer::CopyOf("hello world"));
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 11u);
  ASSERT_TRUE(mtcp.CloseFd(sfd).ok());

  std::string got;
  ASSERT_TRUE(h.RunUntil(
      [&] {
        auto data = kernel.ReadSock(cfd, 4096);
        if (data.ok()) {
          got.append(data->AsStringView());
        }
        return data.code() == ErrorCode::kEndOfFile;
      },
      kSecond));
  EXPECT_EQ(got, "hello world");
}

TEST(EchoActorsTest, LatencyOrderingMatchesArchitectures) {
  // The paper's core performance claims in one test:
  // catnip (kernel-bypass, zero copy) < posix (kernel) < mtcp (batched user stack).
  auto run_catnip = [] {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    auto& sl = h.Catnip(sh);
    auto& cl = h.Catnip(ch);
    DemiEchoServer server(&sl, kPort);
    DemiEchoClient client(&cl, Endpoint{sh.ip, kPort}, 64, 200);
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    return client.latency().P50();
  };
  auto run_posix = [] {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    PosixEchoServer server(sh.kernel.get(), kPort, 64);
    PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 200);
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    return client.latency().P50();
  };
  auto run_mtcp = [] {
    TestHarness h;
    HostOptions server_opts;
    server_opts.with_kernel = false;
    auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    MtcpConfig mcfg;
    mcfg.ip = sh.ip;
    MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
    MtcpEchoServer server(&mtcp, kPort, 64);
    PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 200);
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    return client.latency().P50();
  };
  const std::uint64_t catnip = run_catnip();
  const std::uint64_t posix = run_posix();
  const std::uint64_t mtcp = run_mtcp();
  EXPECT_LT(catnip, posix);  // kernel bypass beats the kernel
  EXPECT_LT(posix, mtcp);    // §6: mTCP's latency exceeds the kernel's
}

TEST(KvActorsTest, DemiKvGetSet) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  DemiKvServer server(&sl, kPort);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.get_ratio = 0.5;
  KvWorkload workload(wcfg);
  // Preload directly into the engine (control path, not measured).
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)server.engine().Execute(workload.LoadCommand(k));
  }
  DemiKvClient client(&cl, Endpoint{sh.ip, kPort}, &workload, 300);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), 300u);
  EXPECT_EQ(server.served(), 300u);
}

TEST(KvActorsTest, PosixKvGetSet) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixKvServer server(sh.kernel.get(), kPort);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.get_ratio = 0.5;
  KvWorkload workload(wcfg);
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)server.engine().Execute(workload.LoadCommand(k));
  }
  PosixKvClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, &workload, 300);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_EQ(client.completed(), 300u);
  EXPECT_EQ(server.served(), 300u);
}

TEST(KvActorsTest, FragmentedClientCausesWastedScansOnPosixOnly) {
  // The §3.2 stream pathology: a trickling sender wakes the POSIX server repeatedly
  // with partial requests; a Demikernel server never sees a partial element.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixKvServer server(sh.kernel.get(), kPort);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 10;
  wcfg.value_bytes = 512;
  wcfg.get_ratio = 0.0;
  KvWorkload workload(wcfg);
  PosixKvClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, &workload, 20,
                       /*fragments=*/4, /*fragment_gap_ns=*/20 * kMicrosecond);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_EQ(client.completed(), 20u);
  EXPECT_GT(server.incomplete_scans(), 20u);  // several wasted scans per request
}

TEST(KvActorsTest, DemiServerNeverSeesPartialRequests) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  DemiKvServer server(&sl, kPort);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 10;
  wcfg.value_bytes = 4096;  // spans several TCP segments
  wcfg.get_ratio = 0.0;
  KvWorkload workload(wcfg);
  DemiKvClient client(&cl, Endpoint{sh.ip, kPort}, &workload, 50);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.served(), 50u);
  // No stream scans anywhere on the Demikernel host.
  EXPECT_EQ(sh.cpu->counters().Get(Counter::kStreamScans), 0u);
}

TEST(KvActorsTest, MalformedRequestGetsAnErrorOnQueuesAndACloseOnStreams) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  DemiKvServer demi_server(&sl, kPort);
  PosixKvServer posix_server(sh.kernel.get(), kPort + 1);

  // A queue element is one request, so a malformed one gets an error reply.
  const QDesc qd = *cl.Socket();
  ASSERT_TRUE(cl.Wait(*cl.ConnectAsync(qd, Endpoint{sh.ip, kPort}), kSecond)->status.ok());
  ASSERT_TRUE(cl.BlockingPush(qd, SgArray::FromString("GARBAGE\r\n"), kSecond)->status.ok());
  auto reply = cl.BlockingPop(qd, kSecond);
  ASSERT_TRUE(reply.ok() && reply->status.ok());
  EXPECT_EQ(reply->sga.ToString(), "-ERR protocol error\r\n");
  EXPECT_EQ(demi_server.served(), 1u);

  // A byte stream cannot resynchronize after garbage, so the server closes it.
  SimKernel& kernel = *ch.kernel;
  const int fd = *kernel.Socket();
  ASSERT_TRUE(kernel.Connect(fd, Endpoint{sh.ip, kPort + 1}).ok());
  ASSERT_TRUE(h.RunUntil([&] { return kernel.ConnectSucceeded(fd); }, kSecond));
  ASSERT_TRUE(kernel.WriteSock(fd, Buffer::CopyOf("GARBAGE\r\n")).ok());
  Result<Buffer> read = WouldBlock();
  ASSERT_TRUE(h.RunUntil(
      [&] {
        read = kernel.ReadSock(fd, 64);
        return read.code() != ErrorCode::kWouldBlock;
      },
      kSecond));
  EXPECT_EQ(read.code(), ErrorCode::kEndOfFile);
  EXPECT_EQ(posix_server.served(), 0u);
}

TEST(KvActorsTest, MultipleClientsShareOneServer) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& sl = h.Catnip(sh);
  DemiKvServer server(&sl, kPort);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 50;
  std::vector<std::unique_ptr<KvWorkload>> workloads;
  std::vector<std::unique_ptr<DemiKvClient>> clients;
  std::vector<TestHarness::Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    auto& chost = h.AddHost("client" + std::to_string(i),
                            "10.0.0." + std::to_string(10 + i), LoadgenOpts());
    hosts.push_back(&chost);
    auto& cl = h.Catnip(chost);
    wcfg.seed = 1000 + i;
    workloads.push_back(std::make_unique<KvWorkload>(wcfg));
    clients.push_back(std::make_unique<DemiKvClient>(&cl, Endpoint{sh.ip, kPort},
                                                     workloads.back().get(), 100));
  }
  ASSERT_TRUE(h.RunUntil(
      [&] {
        for (const auto& c : clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      600 * kSecond));
  EXPECT_EQ(server.served(), 400u);
  for (const auto& c : clients) {
    EXPECT_FALSE(c->failed());
  }
}

// End clock, client completed, server served, then the server host's syscalls,
// bytes copied and packets (tx + rx), then the client's p50 and p99.
using ActorSnapshot = std::tuple<TimeNs, std::uint64_t, std::uint64_t, std::uint64_t,
                                 std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>;

template <typename Client>
ActorSnapshot Snap(TestHarness& h, const TestHarness::Host& sh, Client& client,
                   std::uint64_t served) {
  const Counters& c = sh.cpu->counters();
  return ActorSnapshot{h.sim().now(),
                       client.completed(),
                       served,
                       c.Get(Counter::kSyscalls),
                       c.Get(Counter::kBytesCopied),
                       c.Get(Counter::kPacketsTx) + c.Get(Counter::kPacketsRx),
                       client.latency().P50(),
                       client.latency().P99()};
}

// Golden timelines: one run per server loop and client loop, so a change to where an
// actor reads, writes, copies or charges moves a constant.
TEST(ActorGoldenTest, ActorRunsAreBitDeterministic) {
  {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    auto& sl = h.Catnap(sh);
    auto& cl = h.Catnap(ch);
    DemiEchoServer server(&sl, kPort);
    DemiEchoClient client(&cl, Endpoint{sh.ip, kPort}, 64, 100);
    ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    EXPECT_EQ(Snap(h, sh, client, server.served()),
              (ActorSnapshot{1145562, 100, 100, 304, 13600, 206, 11391, 11391}));
  }
  {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts(/*rdma=*/true));
    auto& sl = h.Catmint(sh);
    auto& cl = h.Catmint(ch);
    DemiEchoServer server(&sl, kPort);
    DemiEchoClient client(&cl, Endpoint{sh.ip, kPort}, 64, 100);
    ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    EXPECT_EQ(Snap(h, sh, client, server.served()),
              (ActorSnapshot{526280, 100, 100, 0, 0, 200, 3659, 3659}));
  }
  {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    auto& sl = h.Catnip(sh);
    auto& cl = h.Catnip(ch);
    DemiKvServer server(&sl, kPort);
    KvWorkloadConfig wcfg;
    wcfg.num_keys = 100;
    wcfg.value_bytes = 4096;
    KvWorkload workload(wcfg);
    for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
      (void)server.engine().Execute(workload.LoadCommand(k));
    }
    DemiKvClient client(&cl, Endpoint{sh.ip, kPort}, &workload, 200);
    ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
    EXPECT_EQ(Snap(h, sh, client, server.served()),
              (ActorSnapshot{2017284, 200, 200, 5, 0, 1006, 8319, 8358}));
  }
  {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    PosixEchoServer server(sh.kernel.get(), kPort, 64);
    PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 100);
    ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    EXPECT_EQ(Snap(h, sh, client, server.served()),
              (ActorSnapshot{1216733, 100, 100, 409, 12800, 206, 12031, 12031}));
  }
  {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    PosixKvServer server(sh.kernel.get(), kPort);
    KvWorkloadConfig wcfg;
    wcfg.num_keys = 10;
    wcfg.value_bytes = 512;
    wcfg.get_ratio = 0.5;
    KvWorkload workload(wcfg);
    PosixKvClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, &workload, 50,
                         /*fragments=*/4, /*fragment_gap_ns=*/20 * kMicrosecond);
    ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
    EXPECT_EQ(Snap(h, sh, client, server.served()),
              (ActorSnapshot{3770554, 50, 50, 659, 22760, 356, 75184, 75184}));
    EXPECT_EQ(server.incomplete_scans(), 150u);
  }
  {
    TestHarness h;
    HostOptions server_opts;
    server_opts.with_kernel = false;
    auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    MtcpConfig mcfg;
    mcfg.ip = sh.ip;
    MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
    MtcpEchoServer server(&mtcp, kPort, 64);
    PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 100);
    ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    EXPECT_EQ(Snap(h, sh, client, server.served()),
              (ActorSnapshot{2130393, 100, 100, 0, 12800, 206, 21247, 21247}));
  }
}

}  // namespace
}  // namespace demi
