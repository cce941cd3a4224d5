#include "src/core/recovery.h"

#include <algorithm>

#include "src/common/byte_order.h"
#include "src/common/logging.h"

namespace demi {

// --- RetryPolicy ----------------------------------------------------------------

TimeNs RetryPolicy::BackoffBeforeAttempt(int attempt, Rng& rng) const {
  if (attempt <= 0) {
    return 0;
  }
  double backoff = static_cast<double>(initial_backoff_ns);
  for (int i = 1; i < attempt; ++i) {
    backoff *= multiplier;
    if (backoff >= static_cast<double>(max_backoff_ns)) {
      break;
    }
  }
  backoff = std::min(backoff, static_cast<double>(max_backoff_ns));
  // Jitter in [-jitter, +jitter] as a fraction of the backoff; drawn from the caller's
  // seeded Rng so the schedule is reproducible.
  const double factor = 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
  const double jittered = std::max(0.0, backoff * factor);
  return static_cast<TimeNs>(jittered);
}

// --- CircuitBreaker -------------------------------------------------------------

bool CircuitBreaker::RecordExhaustion() {
  ++consecutive_;
  if (!tripped_ && consecutive_ >= threshold_) {
    tripped_ = true;
    return true;
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  consecutive_ = 0;
  tripped_ = false;
}

// --- HealthMonitor --------------------------------------------------------------

void HealthMonitor::Observe(bool link_up, bool failed, TimeNs now) {
  if (failed || health_ == DeviceHealth::kDead) {
    health_ = DeviceHealth::kDead;  // device death is permanent
    observed_ = true;
    return;
  }
  if (!link_up) {
    health_ = DeviceHealth::kDegraded;
    observed_ = true;
    return;
  }
  if (health_ != DeviceHealth::kHealthy || !observed_) {
    healthy_since_ = now;
  }
  health_ = DeviceHealth::kHealthy;
  observed_ = true;
}

TimeNs HealthMonitor::HealthyFor(TimeNs now) const {
  if (health_ != DeviceHealth::kHealthy || !observed_) {
    return 0;
  }
  return now - healthy_since_;
}

Status HealthMonitor::AsStatus() const {
  switch (health_) {
    case DeviceHealth::kHealthy:
      return OkStatus();
    case DeviceHealth::kDegraded:
      return Degraded("device link is down");
    case DeviceHealth::kDead:
      return DeviceFailed("device is dead");
  }
  return Internal("unknown device health");
}

// --- ReplayLog ------------------------------------------------------------------

void ReplayLog::Append(std::uint64_t seq, SgArray element) {
  DEMI_CHECK(entries_.size() < limit_);
  DEMI_CHECK(entries_.empty() || seq > entries_.back().seq);
  Entry e;
  e.seq = seq;
  e.element = std::move(element);
  entries_.push_back(std::move(e));
}

void ReplayLog::EvictThroughSeq(std::uint64_t seq) {
  while (!entries_.empty() && entries_.front().seq <= seq) {
    entries_.pop_front();
  }
}

void ReplayLog::EvictAcked(std::uint64_t acked_offset) {
  while (!entries_.empty() && entries_.front().written &&
         entries_.front().end_offset <= acked_offset) {
    entries_.pop_front();
  }
}

void ReplayLog::MarkAllUnwritten() {
  for (Entry& e : entries_) {
    e.written = false;
    e.end_offset = 0;
  }
}

ReplayLog::Entry* ReplayLog::NextUnwritten() {
  for (Entry& e : entries_) {
    if (!e.written) {
      return &e;
    }
  }
  return nullptr;
}

// --- control frames -------------------------------------------------------------

namespace {
constexpr std::size_t kHelloBytes = 8 + 4 + 4 + 8 + 8;  // seq, magic, type, sid, last_rx
}  // namespace

Buffer EncodeHello(const HelloFrame& hello) {
  Buffer out = Buffer::Allocate(kHelloBytes);
  ByteWriter w(out.mutable_span());
  w.U64(kRecoveryControlSeq);
  w.U32(kRecoveryMagic);
  w.U32(hello.is_ping ? 2u : (hello.is_ack ? 1u : 0u));
  w.U64(hello.session_id);
  w.U64(hello.last_rx_seq);
  return out;
}

std::optional<HelloFrame> ParseHello(const SgArray& body) {
  if (body.total_bytes() != kHelloBytes) {
    return std::nullopt;
  }
  const Buffer flat = body.Flatten();
  ByteReader r(flat.span());
  if (r.U64() != kRecoveryControlSeq || r.U32() != kRecoveryMagic) {
    return std::nullopt;
  }
  HelloFrame hello;
  const std::uint32_t type = r.U32();
  hello.is_ack = type == 1;
  hello.is_ping = type == 2;
  hello.session_id = r.U64();
  hello.last_rx_seq = r.U64();
  return hello;
}

bool ReadSeqHeader(const SgArray& body, std::uint64_t* seq) {
  if (body.total_bytes() < kRecoverySeqHeader) {
    return false;
  }
  std::byte raw[kRecoverySeqHeader];
  std::size_t have = 0;
  for (const Buffer& seg : body.segments()) {
    const std::size_t take = std::min(seg.size(), kRecoverySeqHeader - have);
    std::memcpy(raw + have, seg.data(), take);
    have += take;
    if (have == kRecoverySeqHeader) {
      break;
    }
  }
  ByteReader r(std::span<const std::byte>(raw, kRecoverySeqHeader));
  *seq = r.U64();
  return true;
}

SgArray StripBytes(const SgArray& body, std::size_t n) {
  SgArray out;
  std::size_t to_skip = n;
  for (const Buffer& seg : body.segments()) {
    if (to_skip >= seg.size()) {
      to_skip -= seg.size();
      continue;
    }
    out.Append(to_skip == 0 ? seg : seg.Slice(to_skip));
    to_skip = 0;
  }
  return out;
}

// --- FailoverTransport ----------------------------------------------------------

FailoverTransport::FailoverTransport(FailoverTransport&& other) noexcept
    : kind_(other.kind_), conn_(other.conn_), kernel_(other.kernel_), fd_(other.fd_) {
  other.Detach();
}

FailoverTransport& FailoverTransport::operator=(FailoverTransport&& other) noexcept {
  if (this != &other) {
    Reset();  // close whatever this held
    kind_ = other.kind_;
    conn_ = other.conn_;
    kernel_ = other.kernel_;
    fd_ = other.fd_;
    other.Detach();
  }
  return *this;
}

void FailoverTransport::Detach() {
  kind_ = Kind::kNone;
  conn_ = nullptr;
  kernel_ = nullptr;
  fd_ = -1;
}

void FailoverTransport::AttachFast(TcpConnection* conn) {
  Reset();
  kind_ = Kind::kFast;
  conn_ = conn;
}

Status FailoverTransport::ConnectLegacy(SimKernel* kernel, Endpoint remote) {
  Reset();
  auto fd = kernel->Socket();
  RETURN_IF_ERROR(fd.status());
  Status st = kernel->Connect(*fd, remote);
  if (!st.ok()) {
    (void)kernel->CloseFd(*fd);
    return st;
  }
  kind_ = Kind::kLegacy;
  kernel_ = kernel;
  fd_ = *fd;
  return OkStatus();
}

void FailoverTransport::AttachLegacyAccepted(SimKernel* kernel, int fd) {
  Reset();
  kind_ = Kind::kLegacy;
  kernel_ = kernel;
  fd_ = fd;
}

void FailoverTransport::Reset() {
  switch (kind_) {
    case Kind::kNone:
      break;
    case Kind::kFast:
      if (conn_ != nullptr && !conn_->dead()) {
        conn_->Close();
      }
      break;
    case Kind::kLegacy:
      if (kernel_ != nullptr && fd_ >= 0) {
        (void)kernel_->CloseFd(fd_);
      }
      break;
  }
  Detach();
}

void FailoverTransport::Abort() {
  TcpConnection* c = Conn();
  if (c != nullptr && !c->dead()) {
    c->Abort();
  }
  if (kind_ == Kind::kLegacy && kernel_ != nullptr && fd_ >= 0) {
    (void)kernel_->CloseFd(fd_);
  }
  Detach();
}

TcpConnection* FailoverTransport::ReleaseFast() {
  TcpConnection* c = kind_ == Kind::kFast ? conn_ : nullptr;
  Detach();
  return c;
}

TcpConnection* FailoverTransport::Conn() const {
  switch (kind_) {
    case Kind::kNone:
      return nullptr;
    case Kind::kFast:
      return conn_;
    case Kind::kLegacy:
      return kernel_->SockConnection(fd_);
  }
  return nullptr;
}

bool FailoverTransport::established() const {
  TcpConnection* c = Conn();
  return c != nullptr && c->established();
}

bool FailoverTransport::dead() const {
  if (kind_ == Kind::kNone) {
    return true;
  }
  TcpConnection* c = Conn();
  return c == nullptr || c->dead();
}

bool FailoverTransport::recv_eof() const {
  TcpConnection* c = Conn();
  return c != nullptr && c->recv_eof();
}

Result<std::size_t> FailoverTransport::Write(std::span<const Buffer> parts) {
  switch (kind_) {
    case Kind::kNone:
      return NotConnected("no transport attached");
    case Kind::kFast:
      return conn_->Write(parts);
    case Kind::kLegacy:
      return kernel_->WriteSock(fd_, ConcatCopy(parts));  // partial, like write(2)
  }
  return Internal("bad transport kind");
}

Buffer FailoverTransport::Recv(std::size_t max) {
  switch (kind_) {
    case Kind::kNone:
      return Buffer();
    case Kind::kFast:
      return conn_ != nullptr ? conn_->Recv(max) : Buffer();
    case Kind::kLegacy: {
      TcpConnection* c = kernel_->SockConnection(fd_);
      if (c == nullptr) {
        return Buffer();
      }
      if (c->reset()) {
        // ReadSock refuses reset sockets outright, but TCP keeps already-acknowledged
        // in-order data readable; drain it straight off the connection so nothing the
        // peer's replay log evicted is lost.
        return c->Recv(max);
      }
      if (!c->readable()) {
        // Nothing buffered: do NOT pay a kernel crossing to learn that. Recovery
        // sessions are densely polled, so an unconditional ReadSock here would turn
        // every demoted/failed-over flow into a syscall-per-poll CPU burn on the
        // host (§3.1) — the readiness probe is a shared-memory check, like epoll's.
        return Buffer();
      }
      auto data = kernel_->ReadSock(fd_, max);
      return data.ok() ? *data : Buffer();
    }
  }
  return Buffer();
}

std::size_t FailoverTransport::unacked_bytes() const {
  TcpConnection* c = Conn();
  return c != nullptr ? c->unacked_bytes() : 0;
}

}  // namespace demi
