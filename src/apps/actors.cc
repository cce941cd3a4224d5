#include "src/apps/actors.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace demi {

// --- DemiServer ---

DemiServer::DemiServer(LibOS* libos, std::uint16_t port) : libos_(libos) {
  listen_qd_ = *libos_->Socket();
  DEMI_CHECK(libos_->Bind(listen_qd_, port).ok());
  DEMI_CHECK(libos_->Listen(listen_qd_).ok());
  accept_token_ = *libos_->AcceptAsync(listen_qd_);
  libos_->sim().AddPoller(this);
}

DemiServer::~DemiServer() { libos_->sim().RemovePoller(this); }

bool DemiServer::Poll() {
  bool progress = false;

  if (accept_token_ != kInvalidQToken && libos_->OpDone(accept_token_)) {
    auto r = libos_->TakeResult(accept_token_);
    accept_token_ = kInvalidQToken;
    progress = true;
    if (r.ok() && r->status.ok()) {
      Conn conn{r->new_qd};
      if (auto pop = libos_->Pop(conn.qd); pop.ok()) {
        conn.pop = *pop;
      }
      conns_.push_back(conn);
    }
    if (auto t = libos_->AcceptAsync(listen_qd_); t.ok()) {
      accept_token_ = *t;
    }
  }

  for (Conn& conn : conns_) {
    if (conn.dead) {
      continue;
    }
    if (conn.push != kInvalidQToken && libos_->OpDone(conn.push)) {
      (void)libos_->TakeResult(conn.push);
      conn.push = kInvalidQToken;
      progress = true;
    }
    // Process the next request only when the previous reply has been handed off.
    if (conn.pop != kInvalidQToken && conn.push == kInvalidQToken &&
        libos_->OpDone(conn.pop)) {
      auto r = libos_->TakeResult(conn.pop);
      conn.pop = kInvalidQToken;
      progress = true;
      if (!r.ok() || !r->status.ok()) {
        (void)libos_->Close(conn.qd);
        conn.dead = true;
        continue;
      }
      if (auto push = libos_->Push(conn.qd, Reply(r->sga)); push.ok()) {
        conn.push = *push;
        ++served_;
      }
      if (auto pop = libos_->Pop(conn.qd); pop.ok()) {
        conn.pop = *pop;
      }
    }
  }
  return progress;
}

// --- DemiClient ---

DemiClient::DemiClient(LibOS* libos, Endpoint server, std::uint64_t target_requests)
    : ClosedLoopClient(target_requests), libos_(libos) {
  qd_ = *libos_->Socket();
  auto token = libos_->ConnectAsync(qd_, server);
  DEMI_CHECK(token.ok());
  token_ = *token;
  libos_->sim().AddPoller(this);
}

DemiClient::~DemiClient() { libos_->sim().RemovePoller(this); }

bool DemiClient::Poll() {
  if (done() || (state_ != State::kSend && !libos_->OpDone(token_))) {
    return false;
  }
  switch (state_) {
    case State::kConnecting: {
      auto r = libos_->TakeResult(token_);
      if (!r.ok() || !r->status.ok()) {
        Fail();
        return true;
      }
      state_ = State::kSend;
      return true;
    }
    case State::kSend: {
      sent_at_ = libos_->sim().now();
      auto push = libos_->Push(qd_, NextRequest());
      if (!push.ok()) {
        Fail();
        return true;
      }
      token_ = *push;
      state_ = State::kWaitPush;
      return true;
    }
    case State::kWaitPush: {
      (void)libos_->TakeResult(token_);
      auto pop = libos_->Pop(qd_);
      if (!pop.ok()) {
        Fail();
        return true;
      }
      token_ = *pop;
      state_ = State::kWaitPop;
      return true;
    }
    case State::kWaitPop: {
      auto r = libos_->TakeResult(token_);
      if (!r.ok() || !r->status.ok() || !Accept(r->sga)) {
        Fail();
        return true;
      }
      if (Complete(libos_->sim().now() - sent_at_)) {
        (void)libos_->Close(qd_);
      } else {
        state_ = State::kSend;
      }
      return true;
    }
  }
  return false;
}

// --- Demikernel echo and KV ---

SgArray DemiEchoClient::NextRequest() {
  // A freshly allocated sga filled with a recognizable pattern.
  SgArray sga = libos_->SgaAlloc(msg_bytes_);
  std::memset(sga.segment(0).mutable_data(), 'e', msg_bytes_);
  return sga;
}

SgArray DemiKvServer::Reply(const SgArray& request) {
  // §3.2's payoff: the element IS a complete request — parse it once, zero copy.
  const Buffer wire = request.segment_count() == 1 ? request.segment(0) : request.Flatten();
  auto args = ParseRespCommandBuffers(wire);
  KvReply reply;
  if (args.ok()) {
    reply = engine_.Execute(*args);
  } else {
    reply.kind = RespValue::Kind::kError;
    reply.text = "ERR protocol error";
  }
  if (reply.kind == RespValue::Kind::kBulk) {
    // The reply's value segment REFERENCES the stored value (§4.5 zero copy + free
    // protection); only the tiny RESP envelope is fresh memory.
    SgArray sga;
    sga.Append(Buffer::CopyOf("$" + std::to_string(reply.bulk.size()) + "\r\n"));
    sga.Append(reply.bulk);
    sga.Append(Buffer::CopyOf("\r\n"));
    return sga;
  }
  return SgArray(Buffer::CopyOf(EncodeRespValue(reply.ToValue())));
}

SgArray DemiKvClient::NextRequest() {
  const std::string wire = EncodeRespCommand(workload_->Next());
  SgArray sga = libos_->SgaAlloc(wire.size());
  std::memcpy(sga.segment(0).mutable_data(), wire.data(), wire.size());
  return sga;
}

// --- PosixServer ---

PosixServer::PosixServer(SimKernel* kernel, std::uint16_t port) : kernel_(kernel) {
  listen_fd_ = *kernel_->Socket();
  DEMI_CHECK(kernel_->Bind(listen_fd_, port).ok());
  DEMI_CHECK(kernel_->Listen(listen_fd_).ok());
  epfd_ = *kernel_->EpollCreate();
  DEMI_CHECK(kernel_->EpollAdd(epfd_, listen_fd_, kEpollIn).ok());
  kernel_->host().sim().AddPoller(this);
}

PosixServer::~PosixServer() { kernel_->host().sim().RemovePoller(this); }

void PosixServer::CloseConn(Conn& conn) {
  (void)kernel_->EpollDel(epfd_, conn.fd);
  (void)kernel_->CloseFd(conn.fd);
  conn.dead = true;
}

bool PosixServer::Poll() {
  bool want_outbox_flush = false;
  for (const Conn& conn : conns_) {
    if (!conn.dead && !conn.outbox.empty()) {
      want_outbox_flush = true;
      break;
    }
  }
  if (!kernel_->EpollAnyReady(epfd_) && !want_outbox_flush) {
    return false;  // asleep in epoll_wait
  }
  auto events = kernel_->EpollWait(epfd_, 64);
  if (!events.ok()) {
    return false;
  }
  bool progress = !events->empty() || want_outbox_flush;

  for (const EpollEvent& ev : *events) {
    if (ev.fd == listen_fd_) {
      while (true) {
        auto fd = kernel_->Accept(listen_fd_);
        if (!fd.ok()) {
          break;
        }
        (void)kernel_->EpollAdd(epfd_, *fd, kEpollIn);
        conns_.push_back(Conn{*fd, "", "", false});
      }
      continue;
    }
    for (Conn& conn : conns_) {
      if (conn.fd != ev.fd || conn.dead) {
        continue;
      }
      while (true) {
        auto data = kernel_->ReadSock(conn.fd, 65536);
        if (!data.ok()) {
          if (data.code() != ErrorCode::kWouldBlock) {
            CloseConn(conn);
          }
          break;
        }
        conn.inbox.append(data->AsStringView());
      }
      if (!conn.dead && !Consume(conn.inbox, conn.outbox)) {
        CloseConn(conn);
      }
      break;
    }
  }

  // Flush every outbox; what a socket does not take waits for the next poll.
  for (Conn& conn : conns_) {
    if (conn.dead) {
      continue;
    }
    while (!conn.outbox.empty()) {
      auto written = kernel_->WriteSock(conn.fd, Buffer::CopyOf(conn.outbox));
      if (!written.ok()) {
        break;
      }
      conn.outbox.erase(0, *written);
    }
  }
  return progress;
}

// --- PosixClient ---

PosixClient::PosixClient(SimKernel* kernel, Endpoint server, std::uint64_t target_requests,
                         int fragments, TimeNs fragment_gap_ns)
    : ClosedLoopClient(target_requests),
      kernel_(kernel),
      fragments_(std::max(fragments, 1)),
      fragment_gap_ns_(fragment_gap_ns) {
  fd_ = *kernel_->Socket();
  DEMI_CHECK(kernel_->Connect(fd_, server).ok());
  kernel_->host().sim().AddPoller(this);
}

PosixClient::~PosixClient() { kernel_->host().sim().RemovePoller(this); }

Result<Buffer> PosixClient::Read(std::size_t max_bytes) {
  auto data = kernel_->ReadSock(fd_, max_bytes);
  read_any_ = read_any_ || data.ok();
  return data;
}

bool PosixClient::Poll() {
  if (done()) {
    return false;
  }
  switch (state_) {
    case State::kConnecting:
      if (kernel_->ConnectSucceeded(fd_)) {
        state_ = State::kSend;
        return true;
      }
      if (!kernel_->ConnectInProgress(fd_)) {
        Fail();  // refused
        return true;
      }
      return false;
    case State::kSend: {
      if (wire_.empty()) {
        wire_ = NextRequest();
        wire_sent_ = 0;
        sent_at_ = kernel_->host().now();
        next_write_at_ = sent_at_;
      }
      if (kernel_->host().now() < next_write_at_) {
        return false;
      }
      const std::size_t chunk_size =
          (wire_.size() + static_cast<std::size_t>(fragments_) - 1) /
          static_cast<std::size_t>(fragments_);
      const std::size_t take = std::min(chunk_size, wire_.size() - wire_sent_);
      auto written =
          kernel_->WriteSock(fd_, Buffer::CopyOf(std::string_view(wire_).substr(wire_sent_, take)));
      if (!written.ok()) {
        return false;  // retry next poll
      }
      wire_sent_ += *written;
      if (wire_sent_ >= wire_.size()) {
        wire_.clear();
        state_ = State::kReceive;
      } else if (fragment_gap_ns_ > 0) {
        next_write_at_ = kernel_->host().now() + fragment_gap_ns_;
        kernel_->host().sim().Schedule(fragment_gap_ns_, [] {});  // wake at the boundary
      }
      return true;
    }
    case State::kReceive: {
      read_any_ = false;
      auto whole = ReadReply();
      if (!whole.ok()) {
        Fail();
        return true;
      }
      if (!*whole) {
        return read_any_;
      }
      if (Complete(kernel_->host().now() - sent_at_)) {
        (void)kernel_->CloseFd(fd_);
      } else {
        state_ = State::kSend;
      }
      return true;
    }
  }
  return false;
}

// --- POSIX echo and KV ---

bool PosixEchoServer::Consume(std::string& inbox, std::string& outbox) {
  while (inbox.size() >= msg_bytes_) {
    outbox.append(inbox, 0, msg_bytes_);
    inbox.erase(0, msg_bytes_);
    ++served_;
  }
  return true;
}

Result<bool> PosixEchoClient::ReadReply() {
  // Bounded reads: never ask the kernel for more than the reply still owes.
  while (received_ < msg_bytes_) {
    auto data = Read(msg_bytes_ - received_);
    if (!data.ok()) {
      if (data.code() != ErrorCode::kWouldBlock) {
        return data.status();
      }
      return false;
    }
    received_ += data->size();
  }
  received_ = 0;
  return true;
}

bool PosixKvServer::Consume(std::string& inbox, std::string& outbox) {
  while (true) {
    auto next = NextRespCommand(inbox);
    if (!next.ok()) {
      return false;
    }
    if (!next->has_value()) {
      break;
    }
    outbox += EncodeRespValue(engine_.Execute(**next));
    ++served_;
  }
  if (!inbox.empty()) {
    // §3.2: the server woke up, crossed the kernel, and scanned a partial request —
    // for nothing.
    ++incomplete_scans_;
    HostCpu& host = kernel_->host();
    host.Count(Counter::kStreamScans, 1);
    host.Work(host.cost().partial_scan_ns);
  }
  return true;
}

Result<bool> PosixKvClient::ReadReply() {
  while (true) {
    auto data = Read(65536);
    if (!data.ok()) {
      if (data.code() != ErrorCode::kWouldBlock) {
        return data.status();
      }
      break;
    }
    responses_.Feed(data->AsStringView());
  }
  auto reply = responses_.Next();
  if (!reply.ok()) {
    return reply.status();
  }
  return reply->has_value();
}

// --- MtcpEchoServer ---

MtcpEchoServer::MtcpEchoServer(MtcpStack* stack, std::uint16_t port, std::size_t msg_bytes)
    : stack_(stack), msg_bytes_(msg_bytes) {
  listen_fd_ = *stack_->Socket();
  DEMI_CHECK(stack_->Bind(listen_fd_, port).ok());
  DEMI_CHECK(stack_->Listen(listen_fd_).ok());
  // MtcpStack registers its own poller; this actor registers with the same sim via
  // the stack's host.
  stack_->host().sim().AddPoller(this);
}

MtcpEchoServer::~MtcpEchoServer() { stack_->host().sim().RemovePoller(this); }

bool MtcpEchoServer::Poll() {
  bool progress = false;
  while (true) {
    auto fd = stack_->Accept(listen_fd_);
    if (!fd.ok()) {
      break;
    }
    conns_.push_back(Conn{*fd, "", false});
    progress = true;
  }
  for (Conn& conn : conns_) {
    if (conn.dead) {
      continue;
    }
    while (stack_->Readable(conn.fd)) {
      auto data = stack_->Read(conn.fd, 65536);
      if (!data.ok()) {
        if (data.code() != ErrorCode::kWouldBlock) {
          (void)stack_->CloseFd(conn.fd);
          conn.dead = true;
        }
        break;
      }
      conn.inbox.append(data->AsStringView());
      progress = true;
    }
    while (conn.inbox.size() >= msg_bytes_) {
      auto written =
          stack_->Write(conn.fd, Buffer::CopyOf(std::string_view(conn.inbox).substr(0, msg_bytes_)));
      if (!written.ok()) {
        break;
      }
      conn.inbox.erase(0, msg_bytes_);
      ++served_;
      progress = true;
    }
  }
  return progress;
}

}  // namespace demi
