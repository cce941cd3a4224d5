// End-to-end tests of the network library OSes: Catnip (DPDK-style, zero copy),
// Catnap (kernel sockets, copies+syscalls), Catmint (RDMA), and their cost signatures.
// Also cross-libOS interop: Catnap and Catnip speak the same wire format, and a
// recovery-session listener serves plain Catnip peers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/harness.h"

namespace demi {
namespace {

constexpr std::uint16_t kPort = 9000;

SgArray Sga(const std::string& s) { return SgArray::FromString(s); }

// `n` bytes that differ from their neighbours, so a reordered or dropped slice of an
// echoed element cannot compare equal.
std::string Pattern(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>('a' + (i * 7 + i / 251) % 26);
  }
  return out;
}

// Larger than the 256 KB TCP send buffer: the push must go out in pieces as ACKs
// free room, not wait for the whole element to fit at once.
constexpr std::size_t kOverSendBuffer = 300 * 1024;

// Establishes a connection between two libOSes; returns {server_conn_qd, client_qd}.
std::pair<QDesc, QDesc> ConnectPair(TestHarness& h, LibOS& server, LibOS& client,
                                    Ipv4Address server_ip) {
  const QDesc listen_qd = *server.Socket();
  EXPECT_TRUE(server.Bind(listen_qd, kPort).ok());
  EXPECT_TRUE(server.Listen(listen_qd).ok());
  auto accept_token = server.AcceptAsync(listen_qd);
  EXPECT_TRUE(accept_token.ok());

  const QDesc client_qd = *client.Socket();
  auto connect_token = client.ConnectAsync(client_qd, Endpoint{server_ip, kPort});
  EXPECT_TRUE(connect_token.ok());

  auto connected = client.Wait(*connect_token, 10 * kSecond);
  EXPECT_TRUE(connected.ok());
  EXPECT_TRUE(connected->status.ok()) << connected->status;
  auto accepted = server.Wait(*accept_token, 10 * kSecond);
  EXPECT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->status.ok()) << accepted->status;
  return {accepted->new_qd, client_qd};
}

// One echo round trip; returns the string the client got back.
std::string EchoOnce(LibOS& server, QDesc server_qd, LibOS& client, QDesc client_qd,
                     const std::string& msg) {
  auto pop_at_server = server.Pop(server_qd);
  EXPECT_TRUE(pop_at_server.ok());
  auto push = client.BlockingPush(client_qd, Sga(msg));
  EXPECT_TRUE(push.ok());
  auto req = server.Wait(*pop_at_server, 10 * kSecond);
  EXPECT_TRUE(req.ok());
  EXPECT_TRUE(req->status.ok());
  auto reply_push = server.BlockingPush(server_qd, req->sga);
  EXPECT_TRUE(reply_push.ok());
  auto reply = client.BlockingPop(client_qd);
  EXPECT_TRUE(reply.ok());
  EXPECT_TRUE(reply->status.ok());
  return reply->sga.ToString();
}

// Leaves a pop and a push pending on `qd`, closes it, and expects both to complete
// with kCancelled and `libos`'s pending-op count to return to its earlier value.
void ExpectCloseCancelsPendingOps(LibOS& libos, QDesc qd) {
  const std::size_t before = libos.pending_ops();
  const QToken pop = *libos.Pop(qd);
  const QToken push = *libos.Push(qd, Sga("never sent"));
  ASSERT_EQ(libos.pending_ops(), before + 2);
  ASSERT_TRUE(libos.Close(qd).ok());
  EXPECT_EQ(libos.pending_ops(), before);
  for (const auto& [token, op] : {std::pair{pop, OpType::kPop}, {push, OpType::kPush}}) {
    auto r = libos.Wait(token, kMillisecond);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->op, op);
    EXPECT_EQ(r->status.code(), ErrorCode::kCancelled);
  }
}

// Frames `host`'s NIC put on the wire, from the kernel's queue 0 and the libOS's 1.
std::uint64_t WireFrames(const TestHarness::Host& host) {
  return host.nic->queue_stats(0).tx_frames + host.nic->queue_stats(1).tx_frames;
}

// CancelOp on a connected client queue. A pop or push that has not started is
// removed: its token is gone, the pending count drops back, and nothing reaches the
// wire. A push whose frame is partly in the stream cannot be taken back: the libOS
// abandons its token, the queue finishes the frame, and the peer still reads whole
// elements — the cancelled one, then the next.
void ExpectCancelKeepsStreamInSync(TestHarness& h, LibOS& server, QDesc sqd,
                                   LibOS& client, QDesc cqd,
                                   const TestHarness::Host& client_host) {
  const std::size_t before = client.pending_ops();
  const std::uint64_t frames_before = WireFrames(client_host);
  const QToken pop = *client.Pop(cqd);
  const QToken push = *client.Push(cqd, Sga("never sent"));
  ASSERT_TRUE(client.CancelOp(pop).ok());
  ASSERT_TRUE(client.CancelOp(push).ok());
  EXPECT_EQ(client.pending_ops(), before);
  EXPECT_EQ(client.CancelOp(pop).code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.CancelOp(push).code(), ErrorCode::kNotFound);
  h.sim().RunFor(kMillisecond);
  EXPECT_EQ(WireFrames(client_host), frames_before);

  // 1 MB exceeds the 256 KB send buffer plus the 64 KB window, so 200 us in, the
  // frame's head is in the stream and its tail waits for ACKs.
  const std::string big = Pattern(1 << 20);
  const QToken big_push = *client.Push(cqd, Sga(big));
  ASSERT_EQ(client.Wait(big_push, 200 * kMicrosecond).status().code(),
            ErrorCode::kTimedOut);
  ASSERT_TRUE(client.CancelOp(big_push).ok());
  EXPECT_EQ(client.pending_ops(), before);
  const QToken after = *client.Push(cqd, Sga("after"));

  auto first = server.BlockingPop(sqd, 100 * kMillisecond);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->status.ok()) << first->status;
  EXPECT_TRUE(first->sga.ToString() == big) << first->sga.total_bytes() << " bytes";
  auto second = server.BlockingPop(sqd, 100 * kMillisecond);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->sga.ToString(), "after");
  auto pushed = client.Wait(after, 100 * kMillisecond);
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_TRUE(pushed->status.ok()) << pushed->status;
  EXPECT_EQ(client.pending_ops(), 0u);
  EXPECT_EQ(server.pending_ops(), 0u);
}

// A BlockingPush that times out with its frame partly written leaves an abandoned
// token: the queue still owes the frame's tail. Closing the queue drops that tail,
// so Close releases the token's slot rather than leave it waiting forever.
void ExpectCloseReleasesAbandonedPush(LibOS& client, QDesc cqd) {
  const std::size_t tokens_before = client.live_tokens();
  auto pushed = client.BlockingPush(cqd, Sga(Pattern(1 << 20)), 200 * kMicrosecond);
  ASSERT_EQ(pushed.status().code(), ErrorCode::kTimedOut);
  EXPECT_EQ(client.pending_ops(), 0u);
  EXPECT_EQ(client.live_tokens(), tokens_before + 1);
  ASSERT_TRUE(client.Close(cqd).ok());
  EXPECT_EQ(client.live_tokens(), tokens_before);
  EXPECT_EQ(client.pending_ops(), 0u);
}

// --- Catnip ---

TEST(CatnipTest, EchoRoundTrip) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, "catnip echo"), "catnip echo");
}

TEST(CatnipTest, DataPathIsZeroCopy) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  (void)EchoOnce(server, sqd, client, cqd, "warmup");

  const std::uint64_t copies_before = h.sim().counters().Get(Counter::kBytesCopied);
  const std::uint64_t syscalls_before = h.sim().counters().Get(Counter::kSyscalls);
  SgArray big = client.SgaAlloc(8192);
  std::memset(big.segment(0).mutable_data(), 'z', 8192);
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.BlockingPush(cqd, big).ok());
  auto got = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->sga.total_bytes(), 8192u);
  // §3.1/§3.2: no kernel crossings and no copies anywhere on the data path.
  EXPECT_EQ(h.sim().counters().Get(Counter::kBytesCopied), copies_before);
  EXPECT_EQ(h.sim().counters().Get(Counter::kSyscalls), syscalls_before);
}

TEST(CatnipTest, SteadyStateTxAllocatesOnlyPooledHeaders) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  // Warm up: grows the header pool and settles ARP/window state.
  for (int i = 0; i < 4; ++i) {
    (void)EchoOnce(server, sqd, client, cqd, "warmup");
  }

  const std::uint64_t copied_before = h.sim().counters().Get(Counter::kBytesCopied);
  const std::uint64_t allocs_before = h.sim().counters().Get(Counter::kBufferAllocs);
  const std::uint64_t hits_before = h.sim().counters().Get(Counter::kHeaderPoolHits);
  const std::uint64_t misses_before = h.sim().counters().Get(Counter::kHeaderPoolMisses);

  SgArray payload = client.SgaAlloc(1024);
  std::memset(payload.segment(0).mutable_data(), 'p', 1024);
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.BlockingPush(cqd, payload).ok());
  auto got = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->sga.total_bytes(), 1024u);

  // Zero payload bytes copied on the TX path: the payload buffer rides to the NIC by
  // reference, and the only allocations the transmit performed are protocol headers —
  // every one served from the pre-registered header pool (steady state: no misses).
  EXPECT_EQ(h.sim().counters().Get(Counter::kBytesCopied), copied_before);
  const std::uint64_t allocs = h.sim().counters().Get(Counter::kBufferAllocs) - allocs_before;
  const std::uint64_t hits = h.sim().counters().Get(Counter::kHeaderPoolHits) - hits_before;
  EXPECT_EQ(h.sim().counters().Get(Counter::kHeaderPoolMisses), misses_before);
  EXPECT_GE(hits, 1u);  // the data segment's eth+ip and tcp headers came from the pool
  // Each kBufferAllocs on TX is a pooled header; RX-side pop buffers account for the
  // rest. No per-byte payload allocation slipped in: alloc count is far below payload
  // size and independent of it.
  EXPECT_LE(allocs, 16u);
}

TEST(CatnipTest, ElementBoundariesSurviveSegmentation) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);

  // 10 KB element: spans many TCP segments but must pop as ONE unit (§4.2).
  std::string big(10000, 'q');
  big[0] = 'A';
  big[9999] = 'Z';
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.BlockingPush(cqd, Sga(big)).ok());
  auto got = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->sga.total_bytes(), 10000u);
  EXPECT_EQ(got->sga.ToString(), big);
}

TEST(CatnipTest, ElementLargerThanSendBufferEchoes) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  const std::string big = Pattern(kOverSendBuffer);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, big), big);
}

// One push is one gathered write: the length header and the element's segments share
// a TCP segment instead of leaving as one tinygram per part.
TEST(CatnipTest, SmallMultiSegmentElementLeavesAsOneDataFrame) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);

  SgArray element(Buffer::CopyOf("three "));
  element.Append(Buffer::CopyOf("segment "));
  element.Append(Buffer::CopyOf("element"));
  const auto tx_frames = [&] { return ch.nic->queue_stats(client.nic_queue()).tx_frames; };
  const std::uint64_t frames_before = tx_frames();
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.BlockingPush(cqd, element).ok());
  auto got = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->sga.ToString(), "three segment element");
  EXPECT_EQ(tx_frames() - frames_before, 1u);
}

TEST(CatnipTest, BackToBackElementsKeepBoundaries) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  for (int i = 0; i < 20; ++i) {
    (void)client.Push(cqd, Sga("msg-" + std::to_string(i)));
  }
  for (int i = 0; i < 20; ++i) {
    auto r = server.BlockingPop(sqd);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->sga.ToString(), "msg-" + std::to_string(i));
  }
}

TEST(CatnipTest, ConnectRefusedSurfacesError) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  (void)h.Catnip(sh);  // server libOS exists but listens nowhere
  auto& client = h.Catnip(ch);
  const QDesc qd = *client.Socket();
  auto token = client.ConnectAsync(qd, Endpoint{sh.ip, 12345});
  ASSERT_TRUE(token.ok());
  auto r = client.Wait(*token, 30 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->status.ok());
}

TEST(CatnipTest, CloseDeliversEofToPeerPop) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.Close(cqd).ok());
  auto r = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kEndOfFile);
}

TEST(CatnipTest, CloseCancelsPendingOps) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCloseCancelsPendingOps(client, cqd);
}

TEST(CatnipTest, CancelDropsUnstartedOpsAndFinishesAPartlyWrittenPush) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCancelKeepsStreamInSync(h, server, sqd, client, cqd, ch);
}

TEST(CatnipTest, CloseReleasesAnAbandonedPartlyWrittenPush) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCloseReleasesAbandonedPush(client, cqd);
}

TEST(CatnipTest, UdpDatagramIsOneElement) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);

  const QDesc srv = *server.SocketUdp();
  ASSERT_TRUE(server.Bind(srv, 5000).ok());
  const QDesc cli = *client.SocketUdp();
  ASSERT_TRUE(client.Connect(cli, Endpoint{sh.ip, 5000}).ok());

  auto pop_tok = server.Pop(srv);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.BlockingPush(cli, Sga("datagram payload")).ok());
  auto r = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "datagram payload");
}

// --- Catnip recovery sessions ---

HostOptions SessionHostOptions() {
  HostOptions opts;
  opts.with_kernel_nic = true;  // the legacy path survives the bypass NIC
  return opts;
}

TEST(CatnipSessionTest, CloseCancelsPendingOpsOnBothEnds) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", SessionHostOptions());
  auto& ch = h.AddHost("client", "10.0.0.2", SessionHostOptions());
  auto& server = h.Catnip(sh, RecoveryConfig{});
  RecoveryConfig client_cfg;
  client_cfg.fallback_remote = Endpoint{sh.kernel_ip, kPort};
  client_cfg.has_fallback_remote = true;
  auto& client = h.Catnip(ch, client_cfg);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, "session echo"), "session echo");
  ExpectCloseCancelsPendingOps(client, cqd);
  ExpectCloseCancelsPendingOps(server, sqd);
}

// A session listener hands a peer whose first frame is not a HELLO off as a plain
// queue, with the frames it already buffered (DESIGN.md §8).
TEST(CatnipSessionTest, ListenerHandsPlainPeerOffAsPlainQueue) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", SessionHostOptions());
  auto& ch = h.AddHost("client", "10.0.0.2", SessionHostOptions());
  auto& server = h.Catnip(sh, RecoveryConfig{});
  auto& client = h.Catnip(ch);

  const QDesc listen_qd = *server.Socket();
  ASSERT_TRUE(server.Bind(listen_qd, kPort).ok());
  ASSERT_TRUE(server.Listen(listen_qd).ok());
  const QToken accept_token = *server.AcceptAsync(listen_qd);
  const QDesc cqd = *client.Socket();
  const QToken connect_token = *client.ConnectAsync(cqd, Endpoint{sh.ip, kPort});
  auto connected = client.Wait(connect_token, kSecond);
  ASSERT_TRUE(connected.ok() && connected->status.ok());

  // The accept waits for the peer's first frame, which decides the data path.
  const std::vector<std::string> messages = {"first", "second"};
  for (const std::string& msg : messages) {
    ASSERT_TRUE(client.Push(cqd, Sga(msg)).ok());
  }
  auto accepted = server.Wait(accept_token, kSecond);
  ASSERT_TRUE(accepted.ok() && accepted->status.ok());
  const QDesc sqd = accepted->new_qd;

  for (const std::string& msg : messages) {
    auto req = server.Wait(*server.Pop(sqd), kSecond);
    ASSERT_TRUE(req.ok() && req->status.ok());
    EXPECT_EQ(req->sga.ToString(), msg);
    ASSERT_TRUE(server.BlockingPush(sqd, req->sga, kSecond)->status.ok());
    auto reply = client.BlockingPop(cqd, kSecond);
    ASSERT_TRUE(reply.ok() && reply->status.ok());
    EXPECT_EQ(reply->sga.ToString(), msg);  // no session header: a plain queue echoed
  }
  ExpectCloseCancelsPendingOps(server, sqd);
}

// --- Catnap ---

TEST(CatnapTest, EchoRoundTrip) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, "catnap echo"), "catnap echo");
}

TEST(CatnapTest, DataPathPaysSyscallsAndCopies) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  const std::uint64_t copies_before = h.sim().counters().Get(Counter::kBytesCopied);
  const std::uint64_t syscalls_before = h.sim().counters().Get(Counter::kSyscalls);
  (void)EchoOnce(server, sqd, client, cqd, std::string(4096, 'c'));
  // The portability libOS keeps the app unchanged but pays the traditional tax.
  EXPECT_GT(h.sim().counters().Get(Counter::kBytesCopied), copies_before + 8000);
  EXPECT_GT(h.sim().counters().Get(Counter::kSyscalls), syscalls_before);
}

TEST(CatnapTest, ElementLargerThanSendBufferEchoes) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  const std::string big = Pattern(kOverSendBuffer);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, big), big);
}

TEST(CatnapTest, CloseCancelsPendingOps) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCloseCancelsPendingOps(client, cqd);
}

TEST(CatnapTest, CancelDropsUnstartedOpsAndFinishesAPartlyWrittenPush) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCancelKeepsStreamInSync(h, server, sqd, client, cqd, ch);
}

TEST(CatnapTest, CloseReleasesAnAbandonedPartlyWrittenPush) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCloseReleasesAbandonedPush(client, cqd);
}

// --- interop: same application protocol across libOSes (§5.2 framing) ---

TEST(InteropTest, CatnapClientTalksToCatnipServer) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnap(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, "mixed stacks"), "mixed stacks");
}

TEST(InteropTest, CatnipClientTalksToCatnapServer) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnip(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, "other direction"), "other direction");
}

// --- Catmint ---

TEST(CatmintTest, EchoRoundTrip) {
  TestHarness h;
  HostOptions rdma_opts;
  rdma_opts.with_rdma = true;
  rdma_opts.with_nic = false;
  rdma_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", rdma_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", rdma_opts);
  auto& server = h.Catmint(sh);
  auto& client = h.Catmint(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  EXPECT_EQ(EchoOnce(server, sqd, client, cqd, "rdma echo"), "rdma echo");
}

TEST(CatmintTest, TransparentRegistrationNeedsNoUserCalls) {
  TestHarness h;
  HostOptions rdma_opts;
  rdma_opts.with_rdma = true;
  rdma_opts.with_nic = false;
  rdma_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", rdma_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", rdma_opts);
  auto& server = h.Catmint(sh);
  auto& client = h.Catmint(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);

  // Buffers from sgaalloc are usable for RDMA without any registration call, and the
  // data path copies nothing.
  SgArray sga = client.SgaAlloc(2048);
  std::memset(sga.segment(0).mutable_data(), 'r', 2048);
  const std::uint64_t copies_before = h.sim().counters().Get(Counter::kBytesCopied);
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  ASSERT_TRUE(client.BlockingPush(cqd, sga).ok());
  auto r = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.total_bytes(), 2048u);
  EXPECT_EQ(h.sim().counters().Get(Counter::kBytesCopied), copies_before);
}

TEST(CatmintTest, ForeignBuffersAreBouncedWithACopy) {
  TestHarness h;
  HostOptions rdma_opts;
  rdma_opts.with_rdma = true;
  rdma_opts.with_nic = false;
  rdma_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", rdma_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", rdma_opts);
  auto& server = h.Catmint(sh);
  auto& client = h.Catmint(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);

  const std::uint64_t copies_before = h.sim().counters().Get(Counter::kBytesCopied);
  auto pop_tok = server.Pop(sqd);
  ASSERT_TRUE(pop_tok.ok());
  // Sga("...") copies into plain heap memory — NOT from the manager — so the libOS
  // must stage it into registered memory, paying one copy.
  ASSERT_TRUE(client.BlockingPush(cqd, Sga("foreign memory")).ok());
  auto r = server.Wait(*pop_tok, 10 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "foreign memory");
  EXPECT_GT(h.sim().counters().Get(Counter::kBytesCopied), copies_before);
}

TEST(CatmintTest, OversizedElementRejected) {
  TestHarness h;
  HostOptions rdma_opts;
  rdma_opts.with_rdma = true;
  rdma_opts.with_nic = false;
  rdma_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", rdma_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", rdma_opts);
  auto& server = h.Catmint(sh);
  auto& client = h.Catmint(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  SgArray huge = client.SgaAlloc(64 * 1024);  // > max_element_bytes (16 KB)
  EXPECT_EQ(client.Push(cqd, huge).code(), ErrorCode::kInvalidArgument);
}

TEST(CatmintTest, CloseCancelsPendingOps) {
  TestHarness h;
  HostOptions rdma_opts;
  rdma_opts.with_rdma = true;
  rdma_opts.with_nic = false;
  rdma_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", rdma_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", rdma_opts);
  auto& server = h.Catmint(sh);
  auto& client = h.Catmint(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  ExpectCloseCancelsPendingOps(client, cqd);
}

TEST(CatmintTest, ManyMessagesNoRnrFailures) {
  TestHarness h;
  HostOptions rdma_opts;
  rdma_opts.with_rdma = true;
  rdma_opts.with_nic = false;
  rdma_opts.with_kernel = false;
  auto& sh = h.AddHost("server", "10.0.0.1", rdma_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", rdma_opts);
  auto& server = h.Catmint(sh);
  auto& client = h.Catmint(ch);
  auto [sqd, cqd] = ConnectPair(h, server, client, sh.ip);
  // Blast 500 messages while popping: the libOS's buffer provisioning (§2's missing
  // piece) must keep the hardware fed with receives throughout.
  int received = 0;
  int sent = 0;
  std::vector<QToken> pops;
  while (received < 500) {
    while (sent < 500) {
      auto t = client.Push(cqd, Sga("m" + std::to_string(sent)));
      if (!t.ok()) {
        break;
      }
      ++sent;
    }
    auto r = server.BlockingPop(sqd);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->status.ok()) << r->status << " after " << received;
    ++received;
  }
  EXPECT_EQ(received, 500);
}

}  // namespace
}  // namespace demi
