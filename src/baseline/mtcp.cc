#include "src/baseline/mtcp.h"

#include "src/common/logging.h"

namespace demi {

MtcpStack::MtcpStack(HostCpu* host, SimNic* nic, MtcpConfig config)
    : host_(host), config_(config) {
  NetStackConfig net_cfg;
  net_cfg.ip = config.ip;
  net_cfg.nic_queue = 0;
  net_cfg.tcp = config.tcp;
  net_cfg.seed = config.seed;
  // mTCP's protocol processing runs at user-level cost (that part it shares with
  // Catnip); the POSIX API is where it loses.
  net_ = std::make_unique<NetStack>(host, nic, net_cfg);
  host_->sim().AddPoller(this);
}

MtcpStack::~MtcpStack() { host_->sim().RemovePoller(this); }

TimeNs MtcpStack::BatchDelay() const {
  return config_.batch_delay_ns >= 0 ? config_.batch_delay_ns
                                     : host_->cost().mtcp_batch_delay_ns;
}

int MtcpStack::AllocFd() {
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    if (fds_[i].kind == FdEntry::Kind::kFree) {
      return static_cast<int>(i);
    }
  }
  fds_.emplace_back();
  return static_cast<int>(fds_.size() - 1);
}

MtcpStack::FdEntry* MtcpStack::Entry(int fd) {
  if (fd < 0 || static_cast<std::size_t>(fd) >= fds_.size() ||
      fds_[fd].kind == FdEntry::Kind::kFree) {
    return nullptr;
  }
  return &fds_[fd];
}

const MtcpStack::FdEntry* MtcpStack::Entry(int fd) const {
  return const_cast<MtcpStack*>(this)->Entry(fd);
}

Result<int> MtcpStack::Socket() {
  host_->Work(host_->cost().libos_call_ns);
  const int fd = AllocFd();
  fds_[fd] = FdEntry{};
  fds_[fd].kind = FdEntry::Kind::kSocket;
  return fd;
}

Status MtcpStack::Bind(int fd, std::uint16_t port) {
  FdEntry* e = Entry(fd);
  if (e == nullptr) {
    return BadDescriptor("bind");
  }
  e->bound_port = port;
  return OkStatus();
}

Status MtcpStack::Listen(int fd) {
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->bound_port == 0) {
    return BadDescriptor("listen");
  }
  auto listener = net_->TcpListen(e->bound_port);
  RETURN_IF_ERROR(listener.status());
  e->kind = FdEntry::Kind::kListener;
  e->listener = *listener;
  return OkStatus();
}

Result<int> MtcpStack::Accept(int fd) {
  host_->Work(host_->cost().libos_call_ns);
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->kind != FdEntry::Kind::kListener) {
    return BadDescriptor("accept");
  }
  TcpConnection* conn = e->listener->Accept();
  if (conn == nullptr) {
    return WouldBlock();
  }
  const int new_fd = AllocFd();
  fds_[new_fd] = FdEntry{};
  fds_[new_fd].kind = FdEntry::Kind::kSocket;
  fds_[new_fd].conn = conn;
  return new_fd;
}

Result<Buffer> MtcpStack::Read(int fd, std::size_t max) {
  host_->Work(host_->cost().libos_call_ns);
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->conn == nullptr) {
    return BadDescriptor("read");
  }
  if (e->staged.empty() || e->staged.front().first > host_->now()) {
    if (e->conn->reset()) {
      return ConnectionReset("peer reset");
    }
    if (e->staged.empty() && e->conn->recv_eof()) {
      return EndOfFile();
    }
    return WouldBlock();  // nothing matured past the batch boundary yet
  }
  auto [ready_at, data] = std::move(e->staged.front());
  e->staged.pop_front();
  if (data.size() > max) {
    e->staged.emplace_front(ready_at, data.Slice(max));
    data = data.Slice(0, max);
  }
  e->staged_bytes -= data.size();
  host_->CopyBytes(data.size());  // POSIX copy into the app's buffer
  return Buffer::CopyOf(data.span());
}

Result<std::size_t> MtcpStack::Write(int fd, Buffer data) {
  host_->Work(host_->cost().libos_call_ns);
  FdEntry* e = Entry(fd);
  if (e == nullptr || e->conn == nullptr) {
    return BadDescriptor("write");
  }
  if (e->conn->reset()) {
    return ConnectionReset("peer reset");
  }
  if (data.size() > e->conn->send_buffer_space()) {
    return WouldBlock();
  }
  host_->CopyBytes(data.size());  // POSIX copy out of the app's buffer
  Buffer staged = Buffer::CopyOf(data.span());
  // The stack context transmits this batch after the exchange delay. A close of the
  // fd reaches the stack one delay after it is made, so behind this send, and the
  // connection stays unreleased until then.
  host_->sim().Schedule(BatchDelay(),
                        [conn = e->conn, staged = std::move(staged)]() mutable {
                          (void)conn->Send(std::move(staged));
                        });
  return data.size();
}

bool MtcpStack::Readable(int fd) const {
  const FdEntry* e = Entry(fd);
  if (e == nullptr || e->conn == nullptr) {
    return false;
  }
  return (!e->staged.empty() && e->staged.front().first <= host_->now()) ||
         e->conn->recv_eof() || e->conn->reset();
}

Status MtcpStack::CloseFd(int fd) {
  FdEntry* e = Entry(fd);
  if (e == nullptr) {
    return BadDescriptor("close");
  }
  // The fd holds its connection or listener: closing it lets go (DESIGN.md §8). Like
  // a write, the close crosses to the stack context after the batch delay, so the FIN
  // follows every write already made on the fd.
  if (e->conn != nullptr) {
    host_->sim().Schedule(BatchDelay(), [this, conn = e->conn] {
      conn->Close();
      net_->Release(conn);
    });
  }
  if (e->kind == FdEntry::Kind::kListener) {
    net_->CloseListener(e->listener);
  }
  *e = FdEntry{};
  return OkStatus();
}

bool MtcpStack::Poll() {
  bool progress = false;
  const TimeNs visible_at = host_->now() + BatchDelay();
  for (FdEntry& e : fds_) {
    if (e.kind != FdEntry::Kind::kSocket || e.conn == nullptr) {
      continue;
    }
    while (true) {
      Buffer chunk = e.conn->Recv(65536);
      if (chunk.empty()) {
        break;
      }
      e.staged_bytes += chunk.size();
      e.staged.emplace_back(visible_at, std::move(chunk));
      progress = true;
    }
  }
  if (progress) {
    // Maturity is time-driven: park an event at the batch boundary so the simulation
    // clock reaches it even if nothing else is scheduled.
    host_->sim().Schedule(BatchDelay(), [] {});
  }
  return progress;
}

}  // namespace demi
