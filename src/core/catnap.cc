#include "src/core/catnap.h"

#include "src/common/logging.h"

namespace demi {

CatnapLibOS::CatnapLibOS(HostCpu* host, SimKernel* kernel) : LibOS(host), kernel_(kernel) {}

Result<std::unique_ptr<IoQueue>> CatnapLibOS::NewSocketQueue() {
  auto fd = kernel_->Socket();
  RETURN_IF_ERROR(fd.status());
  return std::unique_ptr<IoQueue>(new CatnapSocketQueue(kernel_, host_, *fd));
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
    accepted_fds_.insert(accepted_fds_.end(), fds->begin(), fds->end());
  }
  const int new_fd = accepted_fds_.front();
  accepted_fds_.pop_front();
  return std::unique_ptr<IoQueue>(new CatnapSocketQueue(kernel_, host_, new_fd));
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

Status CatnapSocketQueue::StartPush(QToken token, const SgArray& sga) {
  if (closed_) {
    return BadDescriptor("push on closed queue");
  }
  // writev-style: one syscall for the whole framed element (header + segments). The
  // serialization into one iovec-equivalent buffer is application-side assembly.
  pending_pushes_.push_back(PendingPush{token, ConcatCopy(EncodeFrame(sga))});
  return OkStatus();
}

Status CatnapSocketQueue::StartPop(QToken token) {
  if (closed_) {
    return BadDescriptor("pop on closed queue");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool CatnapSocketQueue::Progress(CompletionSink& sink) {
  if (closed_ || listening_) {
    return false;
  }
  bool progress = false;

  // Drain pushes through write(2): every byte crosses the kernel boundary with a copy.
  // A partial write keeps the unwritten tail for the next poll.
  while (!pending_pushes_.empty()) {
    PendingPush& push = pending_pushes_.front();
    auto written = kernel_->WriteSock(fd_, push.unwritten);
    if (written.ok()) {
      push.unwritten = push.unwritten.Slice(*written);
      push.started |= *written > 0;
      progress = true;
      if (!push.unwritten.empty()) {
        break;  // socket buffer full; retry next poll
      }
    } else if (written.code() == ErrorCode::kResourceExhausted) {
      break;  // no room at all
    }
    // The whole element is written, or a hard error fails the push.
    QResult res;
    res.op = OpType::kPush;
    res.status = written.status();
    sink.CompleteOp(push.token, std::move(res));
    pending_pushes_.pop_front();
    progress = true;
    if (!written.ok()) {
      break;
    }
  }

  // Drain the kernel socket through read(2) and reassemble atomic units. Reads are
  // gated on readiness (the libOS watches the fd as epoll would) so idle polls do not
  // burn syscalls on EAGAIN.
  TcpConnection* conn = kernel_->SockConnection(fd_);
  const bool socket_ready = conn != nullptr && (conn->readable() || conn->reset());
  if (!pending_pops_.empty() && !peer_eof_ && stream_error_.ok() && socket_ready) {
    while (true) {
      auto data = kernel_->ReadSock(fd_, 65536);
      if (data.ok()) {
        decoder_.Feed(std::move(*data));
        progress = true;
        continue;
      }
      if (data.code() == ErrorCode::kEndOfFile) {
        peer_eof_ = true;
      } else if (data.code() != ErrorCode::kWouldBlock) {
        stream_error_ = data.status();
      }
      break;
    }
  }
  while (!pending_pops_.empty()) {
    auto decoded = decoder_.Next();
    if (!decoded.ok()) {
      stream_error_ = decoded.status();
    }
    if (decoded.ok() && decoded->has_value()) {
      QResult res;
      res.op = OpType::kPop;
      res.sga = std::move(**decoded);
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
      continue;
    }
    if (peer_eof_ || !stream_error_.ok()) {
      QResult res;
      res.op = OpType::kPop;
      res.status = !stream_error_.ok() ? stream_error_ : EndOfFile();
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
      continue;
    }
    break;  // need more bytes
  }
  return progress;
}

Status CatnapSocketQueue::Cancel(QToken token) {
  for (auto it = pending_pushes_.begin(); it != pending_pushes_.end(); ++it) {
    if (it->token == token) {
      if (it->started) {
        // Dropping the unwritten tail would leave the peer a header without its body.
        return Unsupported("push partly written");
      }
      pending_pushes_.erase(it);
      return OkStatus();
    }
  }
  for (auto it = pending_pops_.begin(); it != pending_pops_.end(); ++it) {
    if (*it == token) {
      pending_pops_.erase(it);
      return OkStatus();
    }
  }
  return NotFound("token not pending on this queue");
}

Status CatnapSocketQueue::Close() {
  if (closed_) {
    return OkStatus();
  }
  closed_ = true;
  // Batched-accepted fds nobody claimed yet must not leak kernel sockets.
  for (const int fd : accepted_fds_) {
    kernel_->CloseFd(fd);
  }
  accepted_fds_.clear();
  return kernel_->CloseFd(fd_);
}

}  // namespace demi
