// Heap footprint of plain Catnip and Catnap sockets. Plain queues carry only the
// plain data path's state; a recovery session's replay log, transport and listener
// state live in CatnipSessionQueue. Per-connection queues are Fifos, which hold no
// storage while empty. This binary replaces the global operator new and delete to
// count the heap blocks a LibOS::Socket() call allocates and the blocks an idle
// connection keeps.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "src/core/harness.h"

namespace {

std::size_t g_allocations = 0;  // operator new calls so far
std::size_t g_frees = 0;        // operator delete calls on a block so far

std::size_t LiveBlocks() { return g_allocations - g_frees; }

void Free(void* p) {
  if (p != nullptr) {
    ++g_frees;
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }

namespace demi {
namespace {

constexpr std::uint16_t kPort = 9000;

TEST(CatnipFootprintTest, PlainSocketAllocatesOnlyPlainState) {
  TestHarness h;
  auto& host = h.AddHost("server", "10.0.0.1");
  auto& libos = h.Catnip(host);
  ASSERT_TRUE(libos.Socket().ok());  // the first socket also sizes the qtable

  const std::size_t before = g_allocations;
  auto qd = libos.Socket();
  const std::size_t allocations = g_allocations - before;
  ASSERT_TRUE(qd.ok());
  // The queue object and its qtable entry: its frame decoder and op queues allocate
  // nothing until they hold something (as three std::deques they would add a map and
  // a node each, 8 allocations in all with libstdc++).
  EXPECT_LE(allocations, 2u);
}

// Connects a client queue to the server's listener, echoes one element over it and
// runs until both ends are idle: nothing pending, everything acknowledged, no timer
// left armed.
void ConnectEchoAndIdle(TestHarness& h, LibOS& server, QDesc listen_qd, LibOS& client,
                         Ipv4Address server_ip) {
  auto accept = server.AcceptAsync(listen_qd);
  const QDesc cqd = *client.Socket();
  auto connect = client.ConnectAsync(cqd, Endpoint{server_ip, kPort});
  EXPECT_TRUE(client.Wait(*connect, 10 * kSecond).ok());
  auto accepted = server.Wait(*accept, 10 * kSecond);
  EXPECT_TRUE(accepted.ok() && accepted->status.ok());
  const QDesc sqd = accepted->new_qd;
  {
    auto request_pop = server.Pop(sqd);
    EXPECT_TRUE(client.BlockingPush(cqd, SgArray::FromString("idle after this")).ok());
    auto request = server.Wait(*request_pop, 10 * kSecond);
    EXPECT_TRUE(request.ok() && request->status.ok());
    EXPECT_TRUE(server.BlockingPush(sqd, request->sga).ok());
    auto reply = client.BlockingPop(cqd);
    EXPECT_TRUE(reply.ok() && reply->status.ok());
    EXPECT_EQ(reply->sga.ToString(), "idle after this");
  }
  h.sim().RunFor(100 * kMillisecond);  // delayed ACKs and retransmit timers run out
  EXPECT_EQ(client.pending_ops(), 0u);
  EXPECT_EQ(server.pending_ops(), 0u);
}

// An established connection that carries nothing keeps, on each end, its queue
// object, the queue's qtable entry and its TcpConnection, and on the client end also
// the NIC's steering rule for its ephemeral port: 7 blocks and no queue storage. A
// queue that kept storage while empty shows here: six std::deques per end (three in
// TcpConnection, the frame decoder's, the queue's pending pushes and pops) hold a map
// and a node each, 12 more blocks per end.
TEST(CatnipFootprintTest, IdleEstablishedConnectionHoldsNoQueueStorage) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);
  const QDesc listen_qd = *server.Socket();
  ASSERT_TRUE(server.Bind(listen_qd, kPort).ok());
  ASSERT_TRUE(server.Listen(listen_qd).ok());
  // A first connection sizes every shared table (qtables, flow tables, pools,
  // histograms, the event heap), so the second one is measured alone.
  ConnectEchoAndIdle(h, server, listen_qd, client, sh.ip);

  const std::size_t before = LiveBlocks();
  ConnectEchoAndIdle(h, server, listen_qd, client, sh.ip);
  const std::size_t held = LiveBlocks() - before;
  EXPECT_LE(held, 7u) << "blocks one idle connection holds, both ends together";
}

// A Catnap Socket() allocates its queue object and qtable entry, and here the kernel's
// fd table grows by one entry. The queue's decoder, pending pushes and pops and
// batched-accept fds are Fifos and allocate nothing while empty (as std::deques,
// three of them added a map and a node each).
TEST(CatnapFootprintTest, SocketAllocatesNoQueueStorage) {
  TestHarness h;
  auto& host = h.AddHost("server", "10.0.0.1");
  auto& libos = h.Catnap(host);
  ASSERT_TRUE(libos.Socket().ok());  // the first socket also sizes the tables

  const std::size_t before = g_allocations;
  auto qd = libos.Socket();
  const std::size_t allocations = g_allocations - before;
  ASSERT_TRUE(qd.ok());
  EXPECT_LE(allocations, 3u);
}

// An idle Catnap connection keeps, on each end, its queue object, its qtable entry
// and the kernel's TcpConnection, and one more small block: 7 blocks for both ends.
// Empty std::deques in the two queues held 12 more.
TEST(CatnapFootprintTest, IdleEstablishedConnectionHoldsNoQueueStorage) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnap(sh);
  auto& client = h.Catnap(ch);
  const QDesc listen_qd = *server.Socket();
  ASSERT_TRUE(server.Bind(listen_qd, kPort).ok());
  ASSERT_TRUE(server.Listen(listen_qd).ok());
  ConnectEchoAndIdle(h, server, listen_qd, client, sh.ip);

  const std::size_t before = LiveBlocks();
  ConnectEchoAndIdle(h, server, listen_qd, client, sh.ip);
  const std::size_t held = LiveBlocks() - before;
  EXPECT_LE(held, 7u) << "blocks one idle connection holds, both ends together";
}

}  // namespace
}  // namespace demi
