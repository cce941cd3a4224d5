#include "src/kernel/kernel.h"

#include <algorithm>

#include "src/common/logging.h"

namespace demi {

SimKernel::SimKernel(HostCpu* host, SimNic* nic, BlockDevice* bdev, SimKernelConfig config)
    : host_(host), nic_(nic), bdev_(bdev), config_(config) {
  if (nic_ != nullptr) {
    NetStackConfig net_cfg;
    net_cfg.ip = config_.ip;
    net_cfg.nic_queue = 0;  // the kernel owns queue 0
    net_cfg.stack_tx_ns = host_->cost().kernel_stack_tx_ns;
    net_cfg.stack_rx_ns = host_->cost().kernel_stack_rx_ns;
    net_cfg.tcp = config_.tcp;
    net_cfg.seed = config_.seed;
    net_ = std::make_unique<NetStack>(host_, nic_, net_cfg);
    // The kernel is interrupt-driven on receive (NAPI-style: one interrupt per
    // empty->non-empty ring edge; the softirq then polls the ring dry). Only queue 0
    // belongs to the kernel — leased kernel-bypass queues run with interrupts masked
    // (their libOS polls).
    nic_->SetRxNotify([this](int queue) {
      if (queue != 0) {
        return;
      }
      host_->Work(host_->cost().interrupt_ns);
      host_->Count(Counter::kInterrupts);
    });
  }
  host_->sim().AddPoller(this);
}

SimKernel::~SimKernel() {
  host_->sim().RemovePoller(this);
  if (nic_ != nullptr) {
    nic_->SetRxNotify(nullptr);
  }
}

void SimKernel::ChargeSyscall() {
  host_->Work(host_->cost().syscall_ns);
  host_->Count(Counter::kSyscalls);
}

void SimKernel::ChargeControlCrossing() {
  if (config_.fastcall_enabled) {
    host_->Work(host_->cost().fastcall_crossing_ns);
    host_->Count(Counter::kFastcallCrossings);
  } else {
    ChargeSyscall();
  }
}

int SimKernel::AllocFd() {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (fds_[i].kind == FdEntry::Kind::kFree) {
      return static_cast<int>(i);
    }
  }
  fds_.emplace_back();
  return static_cast<int>(fds_.size() - 1);
}

SimKernel::FdEntry* SimKernel::Entry(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
      fds_[fd].kind == FdEntry::Kind::kFree) {
    return nullptr;
  }
  return &fds_[fd];
}

const SimKernel::FdEntry* SimKernel::Entry(int fd) const {
  return const_cast<SimKernel*>(this)->Entry(fd);
}

// --- sockets ---

Result<int> SimKernel::Socket() {
  if (net_ == nullptr) {
    return Unsupported("host has no NIC");
  }
  ChargeSyscall();
  const int fd = AllocFd();
  fds_[fd] = FdEntry{};
  fds_[fd].kind = FdEntry::Kind::kSocket;
  return fd;
}

Status SimKernel::Bind(int fd, std::uint16_t port) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kSocket) {
    return BadDescriptor("bind");
  }
  e->bound_port = port;
  return OkStatus();
}

Status SimKernel::Listen(int fd) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kSocket || e->bound_port == 0) {
    return BadDescriptor("listen requires a bound socket");
  }
  auto listener = net_->TcpListen(e->bound_port);
  RETURN_IF_ERROR(listener.status());
  e->kind = FdEntry::Kind::kListener;
  e->listener = *listener;
  return OkStatus();
}

Result<int> SimKernel::Accept(int fd) {
  ChargeControlCrossing();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kListener) {
    return BadDescriptor("accept");
  }
  TcpConnection* conn = e->listener->Accept();
  if (conn == nullptr) {
    return WouldBlock();
  }
  host_->Work(host_->cost().kernel_socket_ns);  // new sock allocation/bookkeeping
  const int new_fd = AllocFd();
  fds_[new_fd] = FdEntry{};
  fds_[new_fd].kind = FdEntry::Kind::kSocket;
  fds_[new_fd].conn = conn;
  return new_fd;
}

Result<std::vector<int>> SimKernel::AcceptBatch(int fd, std::size_t max_conns) {
  ChargeControlCrossing();  // ONE crossing for the whole drain
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kListener) {
    return BadDescriptor("accept");
  }
  // AllocFd below may grow fds_ and invalidate `e`; the listener itself is
  // stack-owned and stable, so hold that across the loop instead.
  TcpListener* listener = e->listener;
  std::vector<int> out;
  while (out.size() < max_conns) {
    TcpConnection* conn = listener->Accept();
    if (conn == nullptr) {
      break;
    }
    host_->Work(host_->cost().kernel_socket_ns);  // per-sock bookkeeping is not batched
    const int new_fd = AllocFd();
    fds_[new_fd] = FdEntry{};
    fds_[new_fd].kind = FdEntry::Kind::kSocket;
    fds_[new_fd].conn = conn;
    out.push_back(new_fd);
  }
  if (out.empty()) {
    return WouldBlock();
  }
  host_->Count(Counter::kAcceptsBatched, out.size());
  MetricsRegistry& reg = host_->sim().metrics();
  reg.RecordNamed(reg.NamedHistogram("kernel/accept_batch_size"), out.size());
  return out;
}

bool SimKernel::AcceptReady(int fd) const {
  const FdEntry* e = Entry(fd);
  return e != nullptr && e->kind == FdEntry::Kind::kListener &&
         e->listener->pending() > 0;
}

Status SimKernel::Connect(int fd, Endpoint remote) {
  ChargeControlCrossing();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kSocket || e->conn != nullptr) {
    return BadDescriptor("connect");
  }
  auto conn = net_->TcpConnect(remote);
  RETURN_IF_ERROR(conn.status());
  e->conn = *conn;
  e->connect_started = true;
  return OkStatus();
}

bool SimKernel::ConnectInProgress(int fd) const {
  const FdEntry* e = Entry(fd);
  return e != nullptr && e->connect_started && e->conn != nullptr &&
         !e->conn->established() && !e->conn->dead();
}

bool SimKernel::ConnectSucceeded(int fd) const {
  const FdEntry* e = Entry(fd);
  return e != nullptr && e->conn != nullptr && e->conn->established();
}

Result<Buffer> SimKernel::ReadSock(int fd, std::size_t max) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kSocket || e->conn == nullptr) {
    return BadDescriptor("read");
  }
  host_->Work(host_->cost().kernel_socket_ns);
  if (e->conn->reset()) {
    return ConnectionReset("peer reset");
  }
  Buffer in_kernel = e->conn->Recv(max);
  if (in_kernel.empty()) {
    if (e->conn->recv_eof()) {
      return EndOfFile();
    }
    return WouldBlock();
  }
  // THE copy of §3.2: kernel buffer -> user buffer.
  host_->CopyBytes(in_kernel.size());
  return Buffer::CopyOf(in_kernel.span());
}

Result<std::size_t> SimKernel::WriteSock(int fd, Buffer data) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kSocket || e->conn == nullptr) {
    return BadDescriptor("write");
  }
  host_->Work(host_->cost().kernel_socket_ns);
  if (e->conn->reset()) {
    return ConnectionReset("peer reset");
  }
  // write(2): copy what the send buffer has room for into a kernel sk_buff, then the
  // kernel stack transmits it; the caller keeps the unwritten tail.
  const std::size_t n = std::min(data.size(), e->conn->send_buffer_space());
  if (n > 0) {
    host_->CopyBytes(n);
  }
  // Even an empty Send reports a closed or shut-down connection.
  RETURN_IF_ERROR(e->conn->Send(Buffer::CopyOf(data.span().first(n))));
  if (n == 0 && !data.empty()) {
    return ResourceExhausted("send buffer full");
  }
  return n;
}

Status SimKernel::CloseFd(int fd) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr) {
    return BadDescriptor("close");
  }
  if (e->kind == FdEntry::Kind::kSocket && e->conn != nullptr) {
    e->conn->Close();
  }
  if (e->kind == FdEntry::Kind::kEpoll) {
    epolls_.erase(fd);
  }
  *e = FdEntry{};
  return OkStatus();
}

TcpConnection* SimKernel::SockConnection(int fd) {
  FdEntry* e = Entry(fd);
  return e != nullptr ? e->conn : nullptr;
}

// --- epoll ---

Result<int> SimKernel::EpollCreate() {
  ChargeSyscall();
  const int fd = AllocFd();
  fds_[fd] = FdEntry{};
  fds_[fd].kind = FdEntry::Kind::kEpoll;
  epolls_[fd] = EpollInstance{};
  return fd;
}

Status SimKernel::EpollAdd(int epfd, int fd, std::uint32_t events) {
  ChargeSyscall();
  auto it = epolls_.find(epfd);
  if (it == epolls_.end() || Entry(fd) == nullptr) {
    return BadDescriptor("epoll_ctl");
  }
  it->second.interest[fd] = events;
  return OkStatus();
}

Status SimKernel::EpollDel(int epfd, int fd) {
  ChargeSyscall();
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) {
    return BadDescriptor("epoll_ctl");
  }
  it->second.interest.erase(fd);
  return OkStatus();
}

std::uint32_t SimKernel::Readiness(const FdEntry& e) const {
  std::uint32_t r = 0;
  switch (e.kind) {
    case FdEntry::Kind::kSocket:
      if (e.conn != nullptr) {
        if (e.conn->readable()) {
          r |= kEpollIn;
        }
        if (e.conn->established() && e.conn->send_buffer_space() > 0) {
          r |= kEpollOut;
        }
        if (e.conn->reset()) {
          r |= kEpollIn | kEpollOut;  // errors surface as readiness, POSIX-style
        }
      }
      break;
    case FdEntry::Kind::kListener:
      if (e.listener->pending() > 0) {
        r |= kEpollIn;
      }
      break;
    default:
      break;
  }
  return r;
}

Result<std::vector<EpollEvent>> SimKernel::EpollWait(int epfd, std::size_t max_events) {
  ChargeSyscall();
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) {
    return BadDescriptor("epoll_wait");
  }
  std::vector<EpollEvent> out;
  for (const auto& [fd, interest] : it->second.interest) {
    const FdEntry* e = Entry(fd);
    if (e == nullptr) {
      continue;
    }
    const std::uint32_t ready = Readiness(*e) & interest;
    if (ready != 0) {
      host_->Work(host_->cost().epoll_dispatch_ns);
      out.push_back(EpollEvent{fd, ready});
      if (out.size() >= max_events) {
        break;
      }
    }
  }
  return out;
}

Status SimKernel::EpollBlock(int epfd) {
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) {
    return BadDescriptor("epoll_wait(block)");
  }
  // Blocking descent: syscall + context switch off the CPU.
  ChargeSyscall();
  host_->Work(host_->cost().context_switch_ns);
  host_->Count(Counter::kContextSwitches);
  ++it->second.blocked_waiters;
  return OkStatus();
}

bool SimKernel::EpollAnyReady(int epfd) const {
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) {
    return false;
  }
  for (const auto& [fd, interest] : it->second.interest) {
    const FdEntry* e = Entry(fd);
    if (e != nullptr && (Readiness(*e) & interest) != 0) {
      return true;
    }
  }
  return false;
}

int SimKernel::EpollBlockedCount(int epfd) const {
  auto it = epolls_.find(epfd);
  return it == epolls_.end() ? 0 : it->second.blocked_waiters;
}

// --- files ---

Result<int> SimKernel::OpenFile(const std::string& path, bool create) {
  ChargeSyscall();
  host_->Work(host_->cost().kernel_fs_op_ns);  // path walk, inode lookup
  FsNode* node = nullptr;
  if (create) {
    node = vfs_.OpenOrCreate(path);
  } else {
    auto r = vfs_.Lookup(path);
    RETURN_IF_ERROR(r.status());
    node = *r;
  }
  const int fd = AllocFd();
  fds_[fd] = FdEntry{};
  fds_[fd].kind = FdEntry::Kind::kFile;
  fds_[fd].node = node;
  return fd;
}

Result<std::size_t> SimKernel::WriteFile(int fd, Buffer data) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kFile) {
    return BadDescriptor("write(file)");
  }
  host_->Work(host_->cost().kernel_fs_op_ns);
  host_->CopyBytes(data.size());  // user -> page cache copy
  vfs_.WriteAt(e->node, e->pos, data.span());
  e->pos += data.size();
  return data.size();
}

Result<Buffer> SimKernel::ReadFile(int fd, std::size_t len) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kFile) {
    return BadDescriptor("read(file)");
  }
  host_->Work(host_->cost().kernel_fs_op_ns);
  if (e->pos >= e->node->size) {
    return EndOfFile();
  }
  const auto missing = vfs_.MissingPages(e->node, e->pos, len);
  if (!missing.empty()) {
    StartPageFills(e->node, missing);  // major fault: device reads in flight
    return WouldBlock();
  }
  const std::size_t n = std::min(len, e->node->size - e->pos);
  Buffer out = Buffer::Allocate(n);
  vfs_.ReadAt(e->node, e->pos, out.mutable_span());
  host_->CopyBytes(n);  // page cache -> user copy
  e->pos += n;
  return out;
}

void SimKernel::StartPageFills(FsNode* node, const std::vector<std::uint32_t>& pages) {
  DEMI_CHECK(bdev_ != nullptr);
  for (const std::uint32_t page : pages) {
    auto lba_it = node->page_lba.find(page);
    if (lba_it == node->page_lba.end()) {
      // Never flushed: a hole; fill with zeros immediately.
      std::vector<std::byte> zeros(Vfs::kPageSize, std::byte{0});
      vfs_.FillPage(node, page, zeros);
      continue;
    }
    // Skip if a fill for this page is already in flight.
    bool in_flight = false;
    for (const auto& [id, fill] : page_fills_) {
      if (fill.node == node && fill.page == page) {
        in_flight = true;
        break;
      }
    }
    if (in_flight) {
      continue;
    }
    Buffer dest = Buffer::Allocate(Vfs::kPageSize);
    const std::uint64_t cmd = next_cmd_id_++;
    if (bdev_->SubmitRead(cmd, lba_it->second, 1, dest).ok()) {
      page_fills_[cmd] = PageFill{node, page, dest};
    }
  }
}

Result<std::uint64_t> SimKernel::FsyncStart(int fd) {
  ChargeSyscall();
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kFile) {
    return BadDescriptor("fsync");
  }
  if (bdev_ == nullptr) {
    return Unsupported("host has no block device");
  }
  host_->Work(host_->cost().kernel_fs_op_ns);
  const std::uint64_t token = next_token_++;
  FsyncOp op;
  op.remaining = vfs_.CollectDirty(e->node);
  fsyncs_[token] = std::move(op);
  PumpFsync(token, fsyncs_[token]);
  return token;
}

void SimKernel::PumpFsync(std::uint64_t token, FsyncOp& op) {
  while (!op.remaining.empty()) {
    const Vfs::FlushItem& item = op.remaining.back();
    const std::uint64_t cmd = next_cmd_id_++;
    if (!bdev_->SubmitWrite(cmd, item.lba, item.data).ok()) {
      --next_cmd_id_;
      return;  // SQ full; resume from Poll()
    }
    cmd_to_fsync_[cmd] = token;
    ++op.inflight;
    op.remaining.pop_back();
  }
  if (op.remaining.empty() && op.inflight == 0 && !op.flush_submitted) {
    const std::uint64_t cmd = next_cmd_id_++;
    if (bdev_->SubmitFlush(cmd).ok()) {
      cmd_to_fsync_[cmd] = token;
      op.flush_submitted = true;
    } else {
      --next_cmd_id_;
    }
  }
}

bool SimKernel::FsyncDone(std::uint64_t token) {
  auto it = fsyncs_.find(token);
  if (it == fsyncs_.end()) {
    return true;  // unknown == long finished
  }
  return it->second.flush_done;
}

// --- control path for libOSes ---

Result<int> SimKernel::AllocateNicQueue() {
  SimNic* leased = bypass_nic_ != nullptr ? bypass_nic_ : nic_;
  if (leased == nullptr) {
    return Unsupported("host has no NIC");
  }
  // Control path: validate, program the NIC's queue ownership, set up the IOMMU. A
  // handful of crossings' worth of work — paid once, not per I/O (Figure 2).
  for (int i = 0; i < 4; ++i) {
    ChargeControlCrossing();
  }
  if (next_leased_queue_ >= leased->config().num_queues) {
    return ResourceExhausted("no NIC queues left to lease");
  }
  return next_leased_queue_++;
}

TenantRegistry* SimKernel::tenant_registry() {
  if (tenants_ == nullptr) {
    tenants_ = std::make_unique<TenantRegistry>(&host_->sim());
    if (SimNic* leased = bypass_nic_ != nullptr ? bypass_nic_ : nic_; leased != nullptr) {
      leased->AttachTenantRegistry(tenants_.get());
    }
  }
  return tenants_.get();
}

Result<TenantId> SimKernel::CreateTenant(TenantQosConfig config) {
  SimNic* leased = bypass_nic_ != nullptr ? bypass_nic_ : nic_;
  if (leased == nullptr) {
    return Unsupported("host has no NIC");
  }
  // Control path: validate the policy and program it into the device's tenant table.
  ChargeControlCrossing();
  ChargeControlCrossing();
  return tenant_registry()->Create(std::move(config));
}

Result<int> SimKernel::AllocateNicQueue(TenantId tenant) {
  if (tenants_ == nullptr || !tenants_->Has(tenant)) {
    return InvalidArgument("unknown tenant id");
  }
  auto queue = AllocateNicQueue();
  if (!queue.ok()) {
    return queue;
  }
  SimNic* leased = bypass_nic_ != nullptr ? bypass_nic_ : nic_;
  leased->BindQueueTenant(*queue, tenant);
  return queue;
}

Status SimKernel::GrantTenantMemory(TenantId tenant,
                                    const std::shared_ptr<BufferStorage>& storage) {
  if (tenants_ == nullptr || !tenants_->Has(tenant)) {
    return InvalidArgument("unknown tenant id");
  }
  if (storage == nullptr) {
    return InvalidArgument("null region");
  }
  // IOMMU mapping plus capability-table install: same control-path cost shape as
  // MapForDevice, but scoped to the tenant instead of globally trusted.
  ChargeControlCrossing();
  host_->Work(host_->cost().MemRegNs(storage->capacity()));
  host_->Count(Counter::kMemRegistrations);
  host_->Count(Counter::kBytesPinned, storage->capacity());
  tenants_->GrantRegion(tenant, storage->registration_root());
  return OkStatus();
}

void SimKernel::SetBypassNic(SimNic* nic) {
  bypass_nic_ = nic;
  if (tenants_ != nullptr && nic != nullptr) {
    nic->AttachTenantRegistry(tenants_.get());  // registry follows the leased device
  }
  // Queue 0 of the leased device belongs to the kernel only when the kernel's own
  // stack runs on it; on a dedicated-kernel-NIC host every bypass queue is leasable.
  if (nic != nullptr && nic != nic_) {
    next_leased_queue_ = 0;
  }
}

Status SimKernel::MapForDevice(std::size_t bytes) {
  ChargeControlCrossing();
  host_->Work(host_->cost().MemRegNs(bytes));
  host_->Count(Counter::kMemRegistrations);
  host_->Count(Counter::kBytesPinned, bytes);
  return OkStatus();
}

// --- poller ---

bool SimKernel::Poll() {
  bool progress = false;

  // Reap block-device completions: fsync writes/flushes and page fills.
  if (bdev_ != nullptr) {
    for (const BlockCompletion& c : bdev_->PollCompletions(64)) {
      progress = true;
      if (auto fit = cmd_to_fsync_.find(c.id); fit != cmd_to_fsync_.end()) {
        auto& op = fsyncs_[fit->second];
        const std::uint64_t token = fit->second;
        cmd_to_fsync_.erase(fit);
        if (op.flush_submitted) {
          op.flush_done = true;
        } else {
          --op.inflight;
          PumpFsync(token, op);
        }
        host_->Work(host_->cost().interrupt_ns / 2);  // completion IRQ (coalesced)
      } else if (auto pit = page_fills_.find(c.id); pit != page_fills_.end()) {
        vfs_.FillPage(pit->second.node, pit->second.page, pit->second.dest.span());
        page_fills_.erase(pit);
        host_->Work(host_->cost().interrupt_ns / 2);
      }
    }
  }

  // Thundering herd: when any watched fd of an epoll instance is ready and threads are
  // parked, the kernel wakes them ALL (level-triggered wake-all, as with multiple
  // threads blocked on the same epoll fd / socket).
  for (auto& [epfd, ep] : epolls_) {
    if (ep.blocked_waiters == 0) {
      continue;
    }
    bool any_ready = false;
    for (const auto& [fd, interest] : ep.interest) {
      const FdEntry* e = Entry(fd);
      if (e != nullptr && (Readiness(*e) & interest) != 0) {
        any_ready = true;
        break;
      }
    }
    if (!any_ready) {
      continue;
    }
    progress = true;
    host_->Work(host_->cost().interrupt_ns);
    host_->Count(Counter::kInterrupts);
    const int waiters = ep.blocked_waiters;
    for (int i = 0; i < waiters; ++i) {
      host_->Work(host_->cost().context_switch_ns);
      host_->Count(Counter::kContextSwitches);
      host_->Count(Counter::kWakeups);
      if (i > 0) {
        // Only one waiter will find the event; the rest burned a wakeup for nothing.
        host_->Count(Counter::kSpuriousWakeups);
      }
    }
    ep.blocked_waiters = 0;
  }

  return progress;
}

}  // namespace demi
