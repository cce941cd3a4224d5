#include "src/core/catnap.h"

#include "src/common/logging.h"

namespace demi {

CatnapLibOS::CatnapLibOS(HostCpu* host, SimKernel* kernel) : LibOS(host), kernel_(kernel) {}

Result<std::unique_ptr<IoQueue>> CatnapLibOS::NewSocketQueue() {
  auto fd = kernel_->Socket();
  RETURN_IF_ERROR(fd.status());
  return std::unique_ptr<IoQueue>(new CatnapSocketQueue(kernel_, *fd));
}

Status CatnapSocketQueue::Bind(std::uint16_t port) { return kernel_->Bind(fd_, port); }

Status CatnapSocketQueue::Listen() {
  RETURN_IF_ERROR(kernel_->Listen(fd_));
  listening_ = true;
  return OkStatus();
}

Result<std::unique_ptr<IoQueue>> CatnapSocketQueue::TryAccept() {
  if (accepted_fds_.empty()) {
    if (!kernel_->AcceptReady(fd_)) {
      return Status(ErrorCode::kWouldBlock);  // stay parked; no crossing burned
    }
    // One crossing drains the whole backlog; later TryAccept calls are handed fds
    // from the batch for free instead of paying a crossing per pending connection.
    auto fds = kernel_->AcceptBatch(fd_, 64);
    RETURN_IF_ERROR(fds.status());
    for (const int fd : *fds) {
      accepted_fds_.push_back(fd);
    }
  }
  const int new_fd = accepted_fds_.front();
  accepted_fds_.pop_front();
  return std::unique_ptr<IoQueue>(new CatnapSocketQueue(kernel_, new_fd));
}

Status CatnapSocketQueue::StartConnect(Endpoint remote) {
  return kernel_->Connect(fd_, remote);
}

Status CatnapSocketQueue::ConnectStatus() {
  if (kernel_->ConnectSucceeded(fd_)) {
    return OkStatus();
  }
  if (kernel_->ConnectInProgress(fd_)) {
    return WouldBlock();
  }
  return ConnectionRefused("connect failed");
}

std::vector<Buffer> CatnapSocketQueue::Frame(const SgArray& sga) {
  // writev-style: one syscall for the whole framed element (header + segments). The
  // serialization into one iovec-equivalent buffer is application-side assembly.
  std::vector<Buffer> parts = EncodeFrame(sga);
  Buffer flat = ConcatCopy(parts);
  parts.assign(1, std::move(flat));
  return parts;
}

Result<std::size_t> CatnapSocketQueue::WriteSome(std::span<const Buffer> parts) {
  // write(2): every byte crosses the kernel boundary with a copy. `parts` is the one
  // buffer Frame built, less what earlier writes took.
  auto written = kernel_->WriteSock(fd_, parts.front());
  if (written.code() == ErrorCode::kResourceExhausted) {
    return std::size_t{0};  // no room at all
  }
  return written;
}

bool CatnapSocketQueue::ReadAvailable(FrameDecoder& decoder) {
  // Reads are gated on readiness (the libOS watches the fd as epoll would) so idle
  // polls do not burn syscalls on EAGAIN.
  TcpConnection* conn = kernel_->SockConnection(fd_);
  const bool socket_ready = conn != nullptr && (conn->readable() || conn->reset());
  if (peer_eof_ || !read_error_.ok() || decoder.poisoned() || !socket_ready) {
    return false;
  }
  bool read = false;
  while (true) {
    auto data = kernel_->ReadSock(fd_, 65536);
    if (data.ok()) {
      decoder.Feed(std::move(*data));
      read = true;
      continue;
    }
    if (data.code() == ErrorCode::kEndOfFile) {
      peer_eof_ = true;
    } else if (data.code() != ErrorCode::kWouldBlock) {
      read_error_ = data.status();
    }
    return read;
  }
}

Status CatnapSocketQueue::ReadClosed(const Status& decode_error) {
  if (!decode_error.ok()) {
    return decode_error;
  }
  if (!read_error_.ok()) {
    return read_error_;
  }
  return peer_eof_ ? EndOfFile() : OkStatus();
}

Status CatnapSocketQueue::Close() {
  // Batched-accepted fds nobody claimed yet must not leak kernel sockets.
  for (; !accepted_fds_.empty(); accepted_fds_.pop_front()) {
    kernel_->CloseFd(accepted_fds_.front());
  }
  return kernel_->CloseFd(fd_);
}

}  // namespace demi
