// Tests for the simulated legacy kernel: syscall costs, socket copies, epoll
// semantics (including the thundering herd §4.4 targets), VFS, and fsync durability.

#include <gtest/gtest.h>

#include <string>

#include "src/hw/block_device.h"
#include "src/hw/fabric.h"
#include "src/kernel/kernel.h"

namespace demi {
namespace {

struct KernelRig {
  KernelRig()
      : sim(),
        fabric(&sim),
        cpu_a(&sim, "a"),
        cpu_b(&sim, "b"),
        nic_a(&cpu_a, &fabric, MacAddress::ForHost(1)),
        nic_b(&cpu_b, &fabric, MacAddress::ForHost(2)),
        bdev_a(&cpu_a),
        kernel_a(&cpu_a, &nic_a, &bdev_a, Config("10.0.0.1")),
        kernel_b(&cpu_b, &nic_b, nullptr, Config("10.0.0.2")) {}

  static SimKernelConfig Config(const char* ip) {
    SimKernelConfig cfg;
    cfg.ip = Ipv4Address::Parse(ip);
    return cfg;
  }

  // Connects b -> a:port. Returns {server_fd, client_fd}.
  std::pair<int, int> Connect(std::uint16_t port) {
    const int lfd = *kernel_a.Socket();
    EXPECT_TRUE(kernel_a.Bind(lfd, port).ok());
    EXPECT_TRUE(kernel_a.Listen(lfd).ok());
    const int cfd = *kernel_b.Socket();
    EXPECT_TRUE(kernel_b.Connect(cfd, Endpoint{Ipv4Address::Parse("10.0.0.1"), port}).ok());
    int sfd = -1;
    EXPECT_TRUE(sim.RunUntil(
        [&] {
          auto r = kernel_a.Accept(lfd);
          if (r.ok()) {
            sfd = *r;
            return true;
          }
          return false;
        },
        10 * kSecond));
    EXPECT_TRUE(sim.RunUntil([&] { return kernel_b.ConnectSucceeded(cfd); }, kSecond));
    return {sfd, cfd};
  }

  Simulation sim;
  Fabric fabric;
  HostCpu cpu_a, cpu_b;
  SimNic nic_a, nic_b;
  BlockDevice bdev_a;
  SimKernel kernel_a, kernel_b;
};

TEST(KernelSocketTest, ConnectAcceptReadWrite) {
  KernelRig rig;
  auto [sfd, cfd] = rig.Connect(7777);
  ASSERT_TRUE(rig.kernel_b.WriteSock(cfd, Buffer::CopyOf("hello kernel")).ok());
  Buffer got;
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] {
        auto r = rig.kernel_a.ReadSock(sfd, 4096);
        if (r.ok()) {
          got = *r;
          return true;
        }
        return false;
      },
      10 * kSecond));
  EXPECT_EQ(got.AsStringView(), "hello kernel");
}

TEST(KernelSocketTest, EverySyscallChargesCrossing) {
  KernelRig rig;
  const std::uint64_t before = rig.cpu_a.counters().Get(Counter::kSyscalls);
  (void)*rig.kernel_a.Socket();
  EXPECT_EQ(rig.cpu_a.counters().Get(Counter::kSyscalls), before + 1);
}

TEST(KernelSocketTest, ReadAndWriteCopyBytes) {
  KernelRig rig;
  auto [sfd, cfd] = rig.Connect(7778);
  const std::uint64_t copied_before = rig.sim.counters().Get(Counter::kBytesCopied);
  const std::string data(4096, 'k');
  ASSERT_TRUE(rig.kernel_b.WriteSock(cfd, Buffer::CopyOf(data)).ok());
  std::size_t received = 0;
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] {
        auto r = rig.kernel_a.ReadSock(sfd, 8192);
        if (r.ok()) {
          received += r->size();
        }
        return received >= 4096;
      },
      10 * kSecond));
  // write copies user->kernel on b; reads copy kernel->user on a: >= 8 KB total.
  EXPECT_GE(rig.sim.counters().Get(Counter::kBytesCopied) - copied_before, 8192u);
}

// write(2) semantics: a buffer larger than the free send buffer is written in part,
// the call returns the bytes it copied, and the caller writes the tail later.
TEST(KernelSocketTest, WriteLargerThanSendBufferIsPartial) {
  KernelRig rig;
  auto [sfd, cfd] = rig.Connect(7780);
  std::string data(300 * 1024, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + i % 23);
  }
  const std::size_t space = rig.kernel_b.SockConnection(cfd)->send_buffer_space();
  ASSERT_LT(space, data.size());
  const std::uint64_t copied_before = rig.cpu_b.counters().Get(Counter::kBytesCopied);
  auto first = rig.kernel_b.WriteSock(cfd, Buffer::CopyOf(data));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, space);
  EXPECT_EQ(rig.cpu_b.counters().Get(Counter::kBytesCopied) - copied_before, space);

  std::size_t written = *first;
  std::string got;
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] {
        if (written < data.size()) {
          auto w = rig.kernel_b.WriteSock(
              cfd, Buffer::CopyOf(std::string_view(data).substr(written)));
          if (w.ok()) {
            written += *w;
          }
        }
        for (auto r = rig.kernel_a.ReadSock(sfd, 65536); r.ok();
             r = rig.kernel_a.ReadSock(sfd, 65536)) {
          got += r->AsStringView();
        }
        return got.size() == data.size();
      },
      10 * kSecond));
  EXPECT_EQ(got, data);
}

TEST(KernelSocketTest, ReceiveInterruptsFire) {
  KernelRig rig;
  auto [sfd, cfd] = rig.Connect(7779);
  const std::uint64_t irq_before = rig.cpu_a.counters().Get(Counter::kInterrupts);
  ASSERT_TRUE(rig.kernel_b.WriteSock(cfd, Buffer::CopyOf("ping")).ok());
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] { return rig.kernel_a.ReadSock(sfd, 64).ok(); }, 10 * kSecond));
  EXPECT_GT(rig.cpu_a.counters().Get(Counter::kInterrupts), irq_before);
}

TEST(KernelSocketTest, BadFdRejected) {
  KernelRig rig;
  EXPECT_EQ(rig.kernel_a.ReadSock(99, 100).code(), ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.kernel_a.WriteSock(99, Buffer::CopyOf("x")).code(),
            ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.kernel_a.Listen(99).code(), ErrorCode::kBadDescriptor);
}

TEST(KernelEpollTest, WaitReportsReadableSocket) {
  KernelRig rig;
  auto [sfd, cfd] = rig.Connect(7780);
  const int epfd = *rig.kernel_a.EpollCreate();
  ASSERT_TRUE(rig.kernel_a.EpollAdd(epfd, sfd, kEpollIn).ok());
  auto empty = rig.kernel_a.EpollWait(epfd, 8);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  ASSERT_TRUE(rig.kernel_b.WriteSock(cfd, Buffer::CopyOf("wake up")).ok());
  std::vector<EpollEvent> events;
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] {
        auto r = rig.kernel_a.EpollWait(epfd, 8);
        if (r.ok() && !r->empty()) {
          events = *r;
          return true;
        }
        return false;
      },
      10 * kSecond));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, sfd);
  EXPECT_TRUE(events[0].events & kEpollIn);
}

TEST(KernelEpollTest, ThunderingHerdWakesAllBlockedWaiters) {
  KernelRig rig;
  auto [sfd, cfd] = rig.Connect(7781);
  const int epfd = *rig.kernel_a.EpollCreate();
  ASSERT_TRUE(rig.kernel_a.EpollAdd(epfd, sfd, kEpollIn).ok());
  // Park 8 logical threads on the same epoll fd.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.kernel_a.EpollBlock(epfd).ok());
  }
  EXPECT_EQ(rig.kernel_a.EpollBlockedCount(epfd), 8);
  const std::uint64_t wakeups_before = rig.cpu_a.counters().Get(Counter::kWakeups);
  const std::uint64_t spurious_before = rig.cpu_a.counters().Get(Counter::kSpuriousWakeups);

  ASSERT_TRUE(rig.kernel_b.WriteSock(cfd, Buffer::CopyOf("one event")).ok());
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] { return rig.kernel_a.EpollBlockedCount(epfd) == 0; }, 10 * kSecond));

  // One event, eight wakeups, seven of them wasted — the §4.4 pathology.
  EXPECT_EQ(rig.cpu_a.counters().Get(Counter::kWakeups) - wakeups_before, 8u);
  EXPECT_EQ(rig.cpu_a.counters().Get(Counter::kSpuriousWakeups) - spurious_before, 7u);
}

TEST(KernelFileTest, WriteReadRoundTrip) {
  KernelRig rig;
  const int fd = *rig.kernel_a.OpenFile("/data/file", /*create=*/true);
  ASSERT_TRUE(rig.kernel_a.WriteFile(fd, Buffer::CopyOf("file contents")).ok());
  const int fd2 = *rig.kernel_a.OpenFile("/data/file", /*create=*/false);
  auto r = rig.kernel_a.ReadFile(fd2, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsStringView(), "file contents");
}

TEST(KernelFileTest, FsyncPersistsToDevice) {
  KernelRig rig;
  const int fd = *rig.kernel_a.OpenFile("/data/synced", /*create=*/true);
  ASSERT_TRUE(rig.kernel_a.WriteFile(fd, Buffer::CopyOf(std::string(8192, 's'))).ok());
  const std::uint64_t nvme_before = rig.cpu_a.counters().Get(Counter::kNvmeOps);
  auto token = rig.kernel_a.FsyncStart(fd);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(rig.sim.RunUntil([&] { return rig.kernel_a.FsyncDone(*token); },
                               10 * kSecond));
  // Two data pages + flush hit the device.
  EXPECT_GE(rig.cpu_a.counters().Get(Counter::kNvmeOps) - nvme_before, 3u);
}

TEST(KernelFileTest, ColdReadGoesToDeviceAfterDropCaches) {
  KernelRig rig;
  const int fd = *rig.kernel_a.OpenFile("/data/cold", /*create=*/true);
  ASSERT_TRUE(rig.kernel_a.WriteFile(fd, Buffer::CopyOf(std::string(4096, 'c'))).ok());
  auto token = rig.kernel_a.FsyncStart(fd);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(rig.sim.RunUntil([&] { return rig.kernel_a.FsyncDone(*token); },
                               10 * kSecond));
  rig.kernel_a.DropCaches();

  const int fd2 = *rig.kernel_a.OpenFile("/data/cold", /*create=*/false);
  auto first = rig.kernel_a.ReadFile(fd2, 4096);
  EXPECT_EQ(first.code(), ErrorCode::kWouldBlock);  // major fault: device read started
  Buffer data;
  ASSERT_TRUE(rig.sim.RunUntil(
      [&] {
        auto r = rig.kernel_a.ReadFile(fd2, 4096);
        if (r.ok()) {
          data = *r;
          return true;
        }
        return false;
      },
      10 * kSecond));
  EXPECT_EQ(data.size(), 4096u);
  EXPECT_EQ(std::to_integer<char>(data.span()[0]), 'c');
}

TEST(KernelFileTest, MissingFileFailsOpen) {
  KernelRig rig;
  EXPECT_EQ(rig.kernel_a.OpenFile("/nope", /*create=*/false).code(), ErrorCode::kNotFound);
}

TEST(KernelControlPathTest, NicQueueLeaseIsBoundedAndCharged) {
  KernelRig rig;
  // nic_a has 1 queue (queue 0, the kernel's): nothing to lease.
  EXPECT_EQ(rig.kernel_a.AllocateNicQueue().code(), ErrorCode::kResourceExhausted);

  // A multi-queue NIC leases exactly num_queues-1.
  NicConfig cfg;
  cfg.num_queues = 3;
  HostCpu cpu(&rig.sim, "c");
  SimNic nic(&cpu, &rig.fabric, MacAddress::ForHost(9), cfg);
  SimKernelConfig kcfg;
  kcfg.ip = Ipv4Address::Parse("10.0.0.9");
  SimKernel kernel(&cpu, &nic, nullptr, kcfg);
  EXPECT_EQ(*kernel.AllocateNicQueue(), 1);
  EXPECT_EQ(*kernel.AllocateNicQueue(), 2);
  EXPECT_EQ(kernel.AllocateNicQueue().code(), ErrorCode::kResourceExhausted);
}

TEST(KernelVfsTest, PageAccountingAndDirtyTracking) {
  Vfs vfs;
  FsNode* node = vfs.OpenOrCreate("/x");
  const std::string data(10000, 'v');
  const std::size_t touched =
      vfs.WriteAt(node, 0, std::as_bytes(std::span(data.data(), data.size())));
  EXPECT_EQ(touched, 3u);  // 10000 bytes = 3 pages
  EXPECT_EQ(node->size, 10000u);
  EXPECT_EQ(node->dirty_pages.size(), 3u);
  auto items = vfs.CollectDirty(node);
  EXPECT_EQ(items.size(), 3u);
  EXPECT_TRUE(node->dirty_pages.empty());
}

}  // namespace
}  // namespace demi
