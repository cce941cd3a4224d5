// Tests for the libevent-style adapter (§4.4 future work): callback-driven servers
// over Demikernel queues, terminal-event delivery, timers, and an echo server written
// entirely with callbacks.

#include <gtest/gtest.h>

#include "src/core/event_loop.h"
#include "src/core/harness.h"

namespace demi {
namespace {

TEST(EventLoopTest, PopCallbackFiresPerElement) {
  TestHarness h;
  auto& host = h.AddHost("a", "10.0.0.1");
  auto& libos = h.Catnip(host);
  DemiEventLoop loop(&libos);

  const QDesc qd = *libos.QueueCreate();
  std::vector<std::string> seen;
  ASSERT_TRUE(loop.WatchPop(qd, [&](QDesc, Result<SgArray> element) {
                    ASSERT_TRUE(element.ok());
                    seen.push_back(element->ToString());
                  })
                  .ok());
  for (int i = 0; i < 5; ++i) {
    (void)libos.Push(qd, SgArray::FromString("ev" + std::to_string(i)));
  }
  ASSERT_TRUE(h.RunUntil([&] { return seen.size() == 5; }, kSecond));
  EXPECT_EQ(seen[0], "ev0");
  EXPECT_EQ(seen[4], "ev4");
  EXPECT_EQ(loop.dispatched(), 5u);
}

TEST(EventLoopTest, DoubleWatchRejected) {
  TestHarness h;
  auto& host = h.AddHost("a", "10.0.0.1");
  auto& libos = h.Catnip(host);
  DemiEventLoop loop(&libos);
  const QDesc qd = *libos.QueueCreate();
  ASSERT_TRUE(loop.WatchPop(qd, [](QDesc, Result<SgArray>) {}).ok());
  EXPECT_EQ(loop.WatchPop(qd, [](QDesc, Result<SgArray>) {}).code(),
            ErrorCode::kAlreadyExists);
}

TEST(EventLoopTest, UnwatchCancelsTheArmedPop) {
  // A pop left armed by Unwatch would take the queue's next element for a token
  // nobody reads.
  TestHarness h;
  auto& host = h.AddHost("a", "10.0.0.1");
  auto& libos = h.Catnip(host);
  DemiEventLoop loop(&libos);
  const QDesc qd = *libos.QueueCreate();
  int dispatched = 0;
  ASSERT_TRUE(loop.WatchPop(qd, [&](QDesc, Result<SgArray>) { ++dispatched; }).ok());
  EXPECT_EQ(libos.pending_ops(), 1u);
  loop.Unwatch(qd);
  EXPECT_EQ(libos.pending_ops(), 0u);
  ASSERT_TRUE(libos.BlockingPush(qd, SgArray::FromString("mine"))->status.ok());
  auto mine = libos.BlockingPop(qd, 10 * kMillisecond);
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->sga.ToString(), "mine");
  EXPECT_EQ(dispatched, 0);
  EXPECT_EQ(libos.live_tokens(), 0u);
}

TEST(EventLoopTest, CallLaterFiresOnSimulatedClock) {
  TestHarness h;
  auto& host = h.AddHost("a", "10.0.0.1");
  auto& libos = h.Catnip(host);
  DemiEventLoop loop(&libos);
  TimeNs fired_at = -1;
  loop.CallLater(250 * kMicrosecond, [&] { fired_at = h.sim().now(); });
  h.sim().RunFor(kMillisecond);
  EXPECT_GE(fired_at, 250 * kMicrosecond);
}

TEST(EventLoopTest, CallbackEchoServer) {
  // memcached-style: the whole server is two callbacks; no explicit wait loop.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = h.AddHost("client", "10.0.0.2", copts);
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);

  DemiEventLoop loop(&server);
  const QDesc lqd = *server.Socket();
  ASSERT_TRUE(server.Bind(lqd, 7000).ok());
  ASSERT_TRUE(server.Listen(lqd).ok());
  ASSERT_TRUE(loop.WatchAccept(lqd, [&](QDesc conn_qd) {
                    (void)loop.WatchPop(conn_qd, [&](QDesc qd, Result<SgArray> element) {
                      if (element.ok()) {
                        (void)server.Push(qd, *element);  // echo
                      }
                    });
                  })
                  .ok());

  const QDesc cqd = *client.Socket();
  const QToken ctok = *client.ConnectAsync(cqd, Endpoint{sh.ip, 7000});
  ASSERT_TRUE(client.Wait(ctok, 10 * kSecond)->status.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.BlockingPush(cqd, SgArray::FromString("m" + std::to_string(i)))
                    ->status.ok());
    auto reply = client.BlockingPop(cqd);
    ASSERT_TRUE(reply.ok() && reply->status.ok());
    EXPECT_EQ(reply->sga.ToString(), "m" + std::to_string(i));
  }
}

TEST(EventLoopTest, TerminalEventRemovesWatch) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& server = h.Catnip(sh);
  auto& client = h.Catnip(ch);

  DemiEventLoop loop(&server);
  const QDesc lqd = *server.Socket();
  ASSERT_TRUE(server.Bind(lqd, 7000).ok());
  ASSERT_TRUE(server.Listen(lqd).ok());
  Status terminal = OkStatus();
  int terminal_count = 0;
  ASSERT_TRUE(loop.WatchAccept(lqd, [&](QDesc conn_qd) {
                    (void)loop.WatchPop(conn_qd, [&](QDesc, Result<SgArray> element) {
                      if (!element.ok()) {
                        terminal = element.status();
                        ++terminal_count;
                      }
                    });
                  })
                  .ok());

  const QDesc cqd = *client.Socket();
  const QToken ctok = *client.ConnectAsync(cqd, Endpoint{sh.ip, 7000});
  ASSERT_TRUE(client.Wait(ctok, 10 * kSecond)->status.ok());
  ASSERT_TRUE(client.Close(cqd).ok());  // FIN -> the server's pop terminates with EOF
  ASSERT_TRUE(h.RunUntil([&] { return terminal_count > 0; }, 30 * kSecond));
  EXPECT_EQ(terminal.code(), ErrorCode::kEndOfFile);
  // The watch is gone: no further dispatches for that queue.
  const std::uint64_t dispatched = loop.dispatched();
  h.sim().RunFor(5 * kMillisecond);
  EXPECT_EQ(terminal_count, 1);
  EXPECT_EQ(loop.dispatched(), dispatched);
}

}  // namespace
}  // namespace demi
