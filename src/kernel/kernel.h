// SimKernel: the legacy OS kernel of Figure 1 (left) and the control-path kernel of
// Figure 2 (right).
//
// Two roles:
//
//  1. *Traditional data path* (the baseline in every experiment): POSIX-style fd
//     sockets and files where every operation pays a syscall crossing, kernel-layer
//     bookkeeping, and a kernel<->user copy; receive interrupts and epoll with
//     level-triggered wake-all semantics (the thundering herd §4.4 fixes).
//
//  2. *Demikernel control path*: infrequent operations the paper leaves in the kernel —
//     allocating kernel-bypass device queues to a libOS, name service, setup.
//
// The kernel runs its own NetStack instance over its NIC at kernel protocol costs
// (cost.kernel_stack_*). It never shares a NIC queue with a libOS in our experiments;
// hosts under test get their own devices, as real deployments do with SR-IOV.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/hw/block_device.h"
#include "src/hw/nic.h"
#include "src/kernel/vfs.h"
#include "src/net/stack.h"
#include "src/sim/simulation.h"

namespace demi {

constexpr std::uint32_t kEpollIn = 0x1;
constexpr std::uint32_t kEpollOut = 0x4;

struct EpollEvent {
  int fd = -1;
  std::uint32_t events = 0;
};

struct SimKernelConfig {
  Ipv4Address ip;
  TcpConfig tcp;
  std::uint64_t seed = 3;
  // Fastcall-style control path ("New Mechanism for Fast System Calls"): when set,
  // control-plane operations (accept/connect/lease/grant) enter the kernel through a
  // dedicated, registered entry point that skips the full crossing — priced at
  // cost.fastcall_crossing_ns instead of cost.syscall_ns. Data-path ops (read/write/
  // epoll) always pay the full crossing. Off by default: the baseline is untouched.
  bool fastcall_enabled = false;
};

class SimKernel final : public Poller {
 public:
  // `nic` and/or `bdev` may be null if the host has no such device.
  SimKernel(HostCpu* host, SimNic* nic, BlockDevice* bdev, SimKernelConfig config);
  ~SimKernel() override;
  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  HostCpu& host() { return *host_; }
  NetStack* net() { return net_.get(); }
  Vfs& vfs() { return vfs_; }

  // Charges one user->kernel->user crossing. Public so the Catnap libOS (which funnels
  // its I/O through kernel sockets) charges honestly.
  void ChargeSyscall();

  // Flips the fastcall control-path entry at runtime (same knob as
  // SimKernelConfig::fastcall_enabled).
  void SetFastcallEnabled(bool on) { config_.fastcall_enabled = on; }
  bool fastcall_enabled() const { return config_.fastcall_enabled; }

  // --- sockets (POSIX semantics: fds, copies, non-blocking returns) ---

  Result<int> Socket();
  Status Bind(int fd, std::uint16_t port);
  Status Listen(int fd);
  Result<int> Accept(int fd);  // kWouldBlock when the accept queue is empty
  // Batched accept: ONE control crossing drains up to `max_conns` pending connections
  // (per-connection socket bookkeeping is still paid). kWouldBlock when the backlog is
  // empty. This is what keeps accept storms from serializing on crossings.
  Result<std::vector<int>> AcceptBatch(int fd, std::size_t max_conns);
  // Free peek: pending connections on a listener (a thread blocked in accept()/epoll
  // costs nothing until the wakeup).
  bool AcceptReady(int fd) const;
  Status Connect(int fd, Endpoint remote);  // starts a non-blocking connect
  bool ConnectInProgress(int fd) const;
  bool ConnectSucceeded(int fd) const;
  // Copies up to `max` received bytes into a fresh user buffer (this copy is the 50%
  // Redis overhead of §3.2). kWouldBlock / kEndOfFile / kConnectionReset as applicable.
  Result<Buffer> ReadSock(int fd, std::size_t max);
  // write(2): copies as much of `data` as the send buffer holds into kernel memory,
  // queues it on the connection, and returns the bytes copied; the caller keeps the
  // tail. kResourceExhausted when the buffer has no room at all.
  Result<std::size_t> WriteSock(int fd, Buffer data);
  Status CloseFd(int fd);
  TcpConnection* SockConnection(int fd);  // test/stat access

  // --- epoll ---

  Result<int> EpollCreate();
  Status EpollAdd(int epfd, int fd, std::uint32_t events);
  Status EpollDel(int epfd, int fd);
  // Non-blocking wait: returns the ready set (level-triggered), charging the syscall
  // plus per-event dispatch cost.
  Result<std::vector<EpollEvent>> EpollWait(int epfd, std::size_t max_events);
  // Parks one logical thread on the epoll fd (charges the block-side context switch).
  // When any watched fd becomes ready, ALL parked threads are woken — each pays an
  // interrupt/context-switch, and all but one find nothing to do (kSpuriousWakeups).
  Status EpollBlock(int epfd);
  int EpollBlockedCount(int epfd) const;
  // Free peek: true if any watched fd is ready. Models a thread asleep inside
  // epoll_wait — being blocked costs nothing until the wakeup; servers use this to
  // avoid charging a syscall per idle poll round.
  bool EpollAnyReady(int epfd) const;

  // --- files ---

  Result<int> OpenFile(const std::string& path, bool create);
  // Buffered write at the fd's position (syscall + VFS work + user->kernel copy).
  Result<std::size_t> WriteFile(int fd, Buffer data);
  // Cached read at the fd's position (syscall + copy). If any page is cold, device
  // reads are started and kWouldBlock is returned; retry once the fill completes.
  Result<Buffer> ReadFile(int fd, std::size_t len);
  // Flushes dirty pages + a device flush; completes asynchronously.
  Result<std::uint64_t> FsyncStart(int fd);
  bool FsyncDone(std::uint64_t token);
  void DropCaches() { vfs_.DropCaches(); }

  // --- Demikernel control path (Figure 2) ---

  // Leases a kernel-bypass NIC queue to a libOS. Control-path cost: a few syscalls of
  // setup; afterwards the kernel is out of the picture entirely.
  Result<int> AllocateNicQueue();
  // Tenant-scoped lease: the queue is bound to `tenant` on the device, so its
  // descriptors pass capability checks, token buckets, and DWRR arbitration
  // (src/hw/tenant.h). The kernel's own queue 0 stays unbound/trusted.
  Result<int> AllocateNicQueue(TenantId tenant);
  // Mints a tenant on the bypass device's registry (created and attached lazily on
  // first use). Control path only: the device enforces the policy thereafter.
  Result<TenantId> CreateTenant(TenantQosConfig config);
  // Installs `storage` in the tenant's device capability set (IOMMU + capability
  // table update), charging registration cost like MapForDevice.
  Status GrantTenantMemory(TenantId tenant, const std::shared_ptr<BufferStorage>& storage);
  // The registry governing the bypass device; created on first CreateTenant call.
  TenantRegistry* tenant_registry();
  // Names the device libOS leases come from. Defaults to the kernel's own NIC (the
  // shared-device topology); the harness points it at the bypass NIC when the kernel
  // runs on a dedicated NIC, where the kernel owns no queue of the bypass device.
  void SetBypassNic(SimNic* nic);
  // Registers a libOS memory arena for device DMA (IOMMU mapping update).
  Status MapForDevice(std::size_t bytes);

  // Poller: epoll readiness edges + block-device completion reaping + fsync pumping.
  bool Poll() override;

 private:
  struct FdEntry {
    enum class Kind { kFree, kSocket, kListener, kFile, kEpoll };
    Kind kind = Kind::kFree;
    // sockets
    TcpConnection* conn = nullptr;
    TcpListener* listener = nullptr;
    std::uint16_t bound_port = 0;
    bool connect_started = false;
    // files
    FsNode* node = nullptr;
    std::size_t pos = 0;
  };

  struct EpollInstance {
    std::unordered_map<int, std::uint32_t> interest;
    int blocked_waiters = 0;
  };

  struct FsyncOp {
    std::vector<Vfs::FlushItem> remaining;
    std::size_t inflight = 0;
    bool flush_submitted = false;
    bool flush_done = false;
  };

  int AllocFd();
  // Control-plane kernel entry: the cheap fastcall crossing when enabled, the full
  // syscall crossing otherwise. Data-path ops never route through here.
  void ChargeControlCrossing();
  FdEntry* Entry(int fd);
  const FdEntry* Entry(int fd) const;
  std::uint32_t Readiness(const FdEntry& e) const;
  void PumpFsync(std::uint64_t token, FsyncOp& op);
  void StartPageFills(FsNode* node, const std::vector<std::uint32_t>& pages);

  HostCpu* host_;
  SimNic* nic_;
  SimNic* bypass_nic_ = nullptr;  // lease target; nic_ unless SetBypassNic was called
  BlockDevice* bdev_;
  SimKernelConfig config_;
  Vfs vfs_;
  std::unique_ptr<NetStack> net_;
  std::vector<FdEntry> fds_;
  std::unordered_map<int, EpollInstance> epolls_;
  int next_epoll_id_ = 1;

  std::uint64_t next_token_ = 1;
  std::uint64_t next_cmd_id_ = 1;
  std::unordered_map<std::uint64_t, std::uint64_t> cmd_to_fsync_;  // cmd id -> token
  std::unordered_map<std::uint64_t, FsyncOp> fsyncs_;
  struct PageFill {
    FsNode* node;
    std::uint32_t page;
    Buffer dest;
  };
  std::unordered_map<std::uint64_t, PageFill> page_fills_;  // cmd id -> fill
  int next_leased_queue_ = 1;  // queue 0 belongs to the kernel
  std::unique_ptr<TenantRegistry> tenants_;  // lazily created; attached to bypass NIC
};

}  // namespace demi

#endif  // SRC_KERNEL_KERNEL_H_
