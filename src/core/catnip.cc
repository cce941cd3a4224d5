#include "src/core/catnip.h"

#include <algorithm>
#include <cstring>

#include "src/common/byte_order.h"
#include "src/common/logging.h"
#include "src/sim/counters.h"

namespace demi {

namespace {

// Adaptive path placement (DESIGN.md §15). A client session counts its pushes and
// pops; at the first poll at least kPolicyWindowNs after the count started, it
// judges the window's rate and starts a new window. A fast-path flow below
// kDemoteOpsPerSec moves to the kernel path and returns its flow slot; a kernel-path
// flow at or above kPromoteOpsPerSec moves back if it can claim a slot. The window
// also restarts whenever the flow lands on a path, so a flow is judged only after a
// full window there and moves at most once per window.
constexpr TimeNs kPolicyWindowNs = 2 * kMillisecond;
constexpr std::uint64_t kDemoteOpsPerSec = 5000;
// Below the ~28k ops/s a closed-loop flow can reach on the kernel path.
constexpr std::uint64_t kPromoteOpsPerSec = 10000;

}  // namespace

CatnipLibOS::CatnipLibOS(HostCpu* host, SimNic* nic, SimKernel* control_kernel,
                         CatnipConfig config)
    : LibOS(host),
      nic_(nic),
      kernel_(control_kernel),
      config_(std::move(config)),
      session_rng_(config_.recovery.seed ^ 0x5e5510d15ull) {
  // Kernel-less hosts take the configured queue directly (shard index for RSS-sharded
  // workers); a control kernel's lease below overrides it.
  nic_queue_ = config_.nic_queue;
  // Control path (Figure 2): ask the kernel for a dedicated NIC queue, once.
  if (control_kernel != nullptr) {
    if (config_.tenant.has_value()) {
      // Multi-tenant mode: mint a tenant, lease a queue bound to it, and grant
      // every memory-manager arena (current and future) into the tenant's device
      // capability set — transparent registration (§4.5) under isolation.
      auto minted = control_kernel->CreateTenant(*config_.tenant);
      DEMI_CHECK(minted.ok() && "kernel refused to mint a tenant");
      tenant_ = *minted;
      auto lease = control_kernel->AllocateNicQueue(tenant_);
      DEMI_CHECK(lease.ok() && "no NIC queue available for the libOS");
      nic_queue_ = *lease;
      memory_.AttachDevice(
          [kernel = control_kernel, tenant = tenant_](std::shared_ptr<BufferStorage> arena) {
            (void)kernel->GrantTenantMemory(tenant, arena);
          });
    } else {
      auto lease = control_kernel->AllocateNicQueue();
      DEMI_CHECK(lease.ok() && "no NIC queue available for the libOS");
      nic_queue_ = *lease;
      // Map the libOS arenas for device DMA (IOMMU setup) — also control path.
      (void)control_kernel->MapForDevice(2 * 1024 * 1024);
    }
  }
  NetStackConfig net_cfg;
  net_cfg.ip = config_.ip;
  net_cfg.nic_queue = nic_queue_;
  net_cfg.tcp = config_.tcp;
  net_cfg.seed = config_.seed;
  net_cfg.rss_steering = config_.rss_steering;
  net_cfg.rx_batch = config_.rx_batch;
  // Zero-copy TX: protocol headers come from the libOS memory manager's
  // pre-registered header pool instead of the heap.
  net_cfg.memory = &memory_;
  // Costs default to the user-level stack entries of the cost model.
  stack_ = std::make_unique<NetStack>(host, nic, net_cfg);
}

Result<std::unique_ptr<IoQueue>> CatnipLibOS::NewSocketQueue() {
  // The socket's data path is chosen here, once; the only other choice is a session
  // listener's plain-peer handoff (CatnipSessionQueue::PumpEmbryo).
  if (config_.recovery.enabled) {
    return std::unique_ptr<IoQueue>(std::make_unique<CatnipSessionQueue>(this));
  }
  return std::unique_ptr<IoQueue>(std::make_unique<CatnipTcpQueue>(this, nullptr));
}

bool CatnipLibOS::PollDevice() {
  if (sparse_polling() && !device_failure_marked_ && stack_->device_failed()) {
    device_failure_marked_ = true;
    MarkAllDirty();
  }
  return false;
}

Result<QDesc> CatnipLibOS::SocketUdp() {
  ChargeCall();
  return InstallQueue(std::make_unique<CatnipUdpQueue>(this));
}

// --- CatnipTcpQueue ---

CatnipTcpQueue::CatnipTcpQueue(CatnipLibOS* libos, TcpConnection* conn)
    : libos_(libos), conn_(conn) {
  AttachReadyHook();  // accepted connections arrive with conn_ already live
}

CatnipTcpQueue::CatnipTcpQueue(CatnipLibOS* libos, TcpConnection* conn,
                               FrameDecoder decoder, SgArray first)
    : StreamQueue(std::move(decoder), std::move(first)), libos_(libos), conn_(conn) {
  AttachReadyHook();
}

CatnipTcpQueue::~CatnipTcpQueue() {
  if (ready_hook_attached_ && conn_ != nullptr) {
    conn_->set_on_ready(nullptr);  // the connection outlives us (stack-owned)
  }
}

void CatnipTcpQueue::AttachReadyHook() {
  if (conn_ == nullptr || !libos_->sparse_polling()) {
    return;
  }
  conn_->set_on_ready([this](TcpConnection*) { libos_->MarkDirty(this); });
  ready_hook_attached_ = true;
  libos_->MarkDirty(this);
}

bool CatnipTcpQueue::Quiescent() const {
  if (pending_pushes() > 0 || has_first()) {
    return false;
  }
  if (conn_ == nullptr) {
    return true;  // listener or unconnected socket: accepts go via PollControlOps
  }
  // A pending pop may sleep when nothing is deliverable: the on-ready hook re-marks
  // the queue the moment bytes, EOF, a reset, or connection death arrive. The decode
  // loop exhausts buffered complete frames before ever reporting no-progress, so
  // partial decoder bytes can sleep too (their continuation is a future readable edge).
  return !conn_->readable() && !conn_->dead();
}

Status CatnipTcpQueue::Bind(std::uint16_t port) {
  bound_port_ = port;
  return OkStatus();
}

Status CatnipTcpQueue::Listen() {
  if (bound_port_ == 0) {
    return InvalidArgument("listen requires bind");
  }
  auto listener = libos_->stack().TcpListen(bound_port_);
  RETURN_IF_ERROR(listener.status());
  listener_ = *listener;
  return OkStatus();
}

Result<std::unique_ptr<IoQueue>> CatnipTcpQueue::TryAccept() {
  if (listener_ == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "not listening");
  }
  TcpConnection* conn = listener_->Accept();
  if (conn == nullptr) {
    return Status(ErrorCode::kWouldBlock);
  }
  return std::unique_ptr<IoQueue>(std::make_unique<CatnipTcpQueue>(libos_, conn));
}

Status CatnipTcpQueue::StartConnect(Endpoint remote) {
  if (conn_ != nullptr) {
    return Status(ErrorCode::kAlreadyConnected, "connect");
  }
  auto conn = libos_->stack().TcpConnect(remote);
  RETURN_IF_ERROR(conn.status());
  conn_ = *conn;
  AttachReadyHook();
  return OkStatus();
}

Status CatnipTcpQueue::ConnectStatus() {
  if (conn_ == nullptr) {
    return NotConnected("connect not started");
  }
  if (libos_->stack().device_failed()) {
    return DeviceFailed("nic is dead");
  }
  if (conn_->established()) {
    return OkStatus();
  }
  if (conn_->dead()) {
    return ConnectionRefused("connect failed");
  }
  return WouldBlock();
}

Status CatnipTcpQueue::Close() {
  if (conn_ != nullptr) {
    conn_->Close();
  }
  return OkStatus();
}

Status CatnipTcpQueue::Admit(OpType op) {
  libos_->MarkDirty(this);
  if (conn_ == nullptr) {
    return NotConnected(op == OpType::kPush ? "push before connect"
                                            : "pop before connect");
  }
  return OkStatus();
}

std::vector<Buffer> CatnipTcpQueue::Frame(const SgArray& sga) {
  // Zero copy: the wire parts reference the application's sga segments. The TCP
  // stack holds those references until acknowledged — free-protection does the rest
  // (§4.5).
  return EncodeFrame(sga, &libos_->memory());
}

Status CatnipTcpQueue::WriteClosed() {
  // A dead device or dead connection can never transmit again: pending pushes fail
  // with a typed error instead of parking their tokens forever (§4.4).
  if (libos_->stack().device_failed()) {
    return DeviceFailed("nic is dead");
  }
  if (conn_->dead()) {
    return ConnectionReset("connection reset");
  }
  return OkStatus();
}

Result<std::size_t> CatnipTcpQueue::WriteSome(std::span<const Buffer> parts) {
  if (!conn_->can_send()) {
    return std::size_t{0};  // still connecting
  }
  // One gathered write per element: its length header and segments share TCP
  // segments.
  return conn_->Write(parts);
}

bool CatnipTcpQueue::ReadAvailable(FrameDecoder& decoder) {
  // Zero-copy receive: stream slices feed the frame decoder directly.
  bool read = false;
  for (Buffer chunk = conn_->Recv(65536); !chunk.empty(); chunk = conn_->Recv(65536)) {
    decoder.Feed(std::move(chunk));
    read = true;
  }
  return read;
}

Status CatnipTcpQueue::ReadClosed(const Status& decode_error) {
  if (libos_->stack().device_failed()) {
    return DeviceFailed("nic is dead");
  }
  if (!decode_error.ok()) {
    return decode_error;
  }
  if (conn_->reset()) {
    return ConnectionReset("peer reset");
  }
  return conn_->recv_eof() ? EndOfFile() : OkStatus();
}

// --- CatnipSessionQueue ---

CatnipSessionQueue::CatnipSessionQueue(CatnipLibOS* libos)
    : libos_(libos),
      log_(libos->recovery().replay_log_limit),
      breaker_(libos->recovery().breaker_threshold),
      rng_(libos->recovery().seed ^ libos->NewSessionId()),
      alive_(std::make_shared<bool>(true)) {}

CatnipSessionQueue::~CatnipSessionQueue() {
  ReleaseFastResources();
  if (session_id_ != 0 && libos_->FindSession(session_id_) == this) {
    libos_->UnregisterSession(session_id_);
  }
}

Status CatnipSessionQueue::Bind(std::uint16_t port) {
  bound_port_ = port;
  return OkStatus();
}

Status CatnipSessionQueue::Listen() {
  if (bound_port_ == 0) {
    return InvalidArgument("listen requires bind");
  }
  auto listener = libos_->stack().TcpListen(bound_port_);
  RETURN_IF_ERROR(listener.status());
  listener_ = *listener;
  if (libos_->kernel() != nullptr) {
    // Legacy-path twin: the same port on the kernel stack, so sessions can reattach
    // even when the bypass NIC is gone.
    SimKernel* kernel = libos_->kernel();
    auto fd = kernel->Socket();
    if (fd.ok() && kernel->Bind(*fd, bound_port_).ok() && kernel->Listen(*fd).ok()) {
      kernel_listen_fd_ = *fd;
    } else if (fd.ok()) {
      (void)kernel->CloseFd(*fd);
    }
  }
  return OkStatus();
}

Result<std::unique_ptr<IoQueue>> CatnipSessionQueue::TryAccept() {
  if (listener_ == nullptr && kernel_listen_fd_ < 0) {
    return Status(ErrorCode::kInvalidArgument, "not listening");
  }
  (void)ProgressListener();
  if (accept_ready_.empty()) {
    return Status(ErrorCode::kWouldBlock);
  }
  std::unique_ptr<IoQueue> q = std::move(accept_ready_.front());
  accept_ready_.pop_front();
  return q;
}

Status CatnipSessionQueue::StartConnect(Endpoint remote) {
  if (session_id_ != 0) {
    return Status(ErrorCode::kAlreadyConnected, "connect");
  }
  is_client_ = true;
  session_id_ = libos_->NewSessionId();
  primary_remote_ = remote;
  outage_start_ = now();
  attempt_ = 0;
  target_ = Target::kFast;
  in_outage_ = false;
  // The initial dial goes through the same retry machinery as a mid-session outage,
  // so a connect racing a fault is retried instead of surfacing kDeviceFailed.
  BeginAttempt();
  return OkStatus();
}

Status CatnipSessionQueue::ConnectStatus() {
  if (session_id_ == 0 || !is_client_) {
    return NotConnected("connect not started");
  }
  switch (phase_) {
    case Phase::kActive:
      return OkStatus();
    case Phase::kFailed:
      return stream_error_.ok() ? ConnectionRefused("connect failed") : stream_error_;
    default:
      return WouldBlock();
  }
}

Status CatnipSessionQueue::StartPush(QToken token, const SgArray& sga) {
  libos_->MarkDirty(this);
  if (session_id_ == 0) {
    return NotConnected("push before connect");
  }
  if (phase_ == Phase::kFailed) {
    QResult res;
    res.op = OpType::kPush;
    res.status = stream_error_.ok() ? ConnectionReset("session failed") : stream_error_;
    libos_->CompleteOp(token, std::move(res));
    return OkStatus();
  }
  // The push completes once the element enters the replay log (the session has taken
  // responsibility for delivery); a full log exerts backpressure by parking the token.
  ++window_ops_;
  staged_pushes_.emplace_back(token, sga);
  return OkStatus();
}

Status CatnipSessionQueue::StartPop(QToken token) {
  libos_->MarkDirty(this);
  if (session_id_ == 0) {
    return NotConnected("pop before connect");
  }
  if (phase_ == Phase::kFailed && ready_elements_.empty()) {
    QResult res;
    res.op = OpType::kPop;
    res.status = stream_error_.ok() ? ConnectionReset("session failed") : stream_error_;
    libos_->CompleteOp(token, std::move(res));
    return OkStatus();
  }
  ++window_ops_;
  pending_pops_.push_back(token);
  if (phase_ == Phase::kFailed) {
    (void)ServePops();
  }
  return OkStatus();
}

Status CatnipSessionQueue::Cancel(QToken token) {
  for (auto it = staged_pushes_.begin(); it != staged_pushes_.end(); ++it) {
    if (it->first == token) {
      staged_pushes_.erase(it);
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

// --- recovery: listener ---

bool CatnipSessionQueue::ProgressListener() {
  bool progress = false;
  if (listener_ != nullptr) {
    while (TcpConnection* c = listener_->Accept()) {
      Embryo embryo;
      embryo.transport.AttachFast(c);
      embryos_.push_back(std::move(embryo));
      progress = true;
    }
  }
  SimKernel* kernel = libos_->kernel();
  if (kernel_listen_fd_ >= 0 && kernel != nullptr) {
    // Batched accept: under churn the legacy backlog fills between polls; one
    // crossing drains it instead of one crossing per pending connection.
    while (kernel->AcceptReady(kernel_listen_fd_)) {
      auto fds = kernel->AcceptBatch(kernel_listen_fd_, 64);
      if (!fds.ok()) {
        break;
      }
      for (const int fd : *fds) {
        Embryo embryo;
        embryo.transport.AttachLegacyAccepted(kernel, fd);
        embryos_.push_back(std::move(embryo));
      }
      progress = true;
    }
  }
  for (auto it = embryos_.begin(); it != embryos_.end();) {
    if (PumpEmbryo(*it)) {
      it = embryos_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  return progress;
}

// Returns true when the embryo resolved (adopted, promoted, or dropped).
bool CatnipSessionQueue::PumpEmbryo(Embryo& embryo) {
  while (true) {
    Buffer chunk = embryo.transport.Recv(65536);
    if (chunk.empty()) {
      break;
    }
    embryo.decoder.Feed(std::move(chunk));
  }
  auto decoded = embryo.decoder.Next();
  if (!decoded.ok()) {
    embryo.transport.Abort();  // garbage framing before identifying itself
    return true;
  }
  if (!decoded->has_value()) {
    if (embryo.transport.dead()) {
      embryo.transport.Abort();
      return true;
    }
    return false;  // first frame not complete yet
  }
  SgArray first = std::move(**decoded);
  if (auto hello = ParseHello(first); hello.has_value() && !hello->is_ack) {
    CatnipSessionQueue* existing = libos_->FindSession(hello->session_id);
    if (existing != nullptr) {
      // Reattach: route the new transport to the live session, silently.
      existing->AdoptTransport(std::move(embryo.transport), std::move(embryo.decoder),
                               hello->last_rx_seq);
    } else {
      auto queue = std::make_unique<CatnipSessionQueue>(libos_);
      queue->session_id_ = hello->session_id;
      libos_->RegisterSession(queue->session_id_, queue.get());
      queue->AdoptTransport(std::move(embryo.transport), std::move(embryo.decoder),
                            hello->last_rx_seq);
      accept_ready_.push_back(std::move(queue));
    }
    return true;
  }
  if (embryo.transport.kind() == FailoverTransport::Kind::kFast) {
    // A plain-mode peer: the embryo becomes a plain queue, keeping the decoder state
    // and the already-decoded first element.
    accept_ready_.push_back(std::make_unique<CatnipTcpQueue>(
        libos_, embryo.transport.ReleaseFast(), std::move(embryo.decoder),
        std::move(first)));
    return true;
  }
  embryo.transport.Abort();  // legacy-path peer that doesn't speak recovery
  return true;
}

void CatnipSessionQueue::AdoptTransport(FailoverTransport transport,
                                        FrameDecoder decoder,
                                        std::uint64_t peer_last_rx) {
  ++attempt_epoch_;  // cancels any park-deadline or attempt timer
  transport_ = std::move(transport);
  decoder_ = std::move(decoder);
  log_.EvictThroughSeq(peer_last_rx);
  log_.MarkAllUnwritten();
  wire_parts_.clear();
  control_parts_.clear();
  bytes_sent_ = 0;
  clean_eof_ = false;
  attempt_ = 0;
  in_outage_ = false;
  breaker_.RecordSuccess();
  QueueControlFrame(HelloFrame{/*is_ack=*/true, /*is_ping=*/false, session_id_,
                               last_rx_seq_});
  phase_ = Phase::kActive;
  last_rx_activity_ = now();
  ArmKeepalive();
}

// --- recovery: connecting-side state machine ---

void CatnipSessionQueue::BeginAttempt() {
  if (now() > OutageDeadline()) {
    GiveUp(RetryExhausted("recovery deadline exceeded"));
    return;
  }
  if (in_outage_ || attempt_ > 0) {
    libos_->host().Count(Counter::kRetriesAttempted);
    libos_->sim().metrics().Trace(TraceKind::kRetryAttempt, now(), session_id_,
                                  attempt_);
  }
  bool dialing = false;
  if (target_ == Target::kFast) {
    if (!libos_->stack().device_failed()) {
      auto conn = libos_->stack().TcpConnect(primary_remote_);
      if (conn.ok()) {
        transport_.AttachFast(*conn);
        dialing = true;
      }
    }
  } else if (libos_->kernel() != nullptr) {
    const RecoveryConfig& cfg = libos_->recovery();
    const Endpoint remote =
        cfg.has_fallback_remote ? cfg.fallback_remote : primary_remote_;
    dialing = transport_.ConnectLegacy(libos_->kernel(), remote).ok();
  }
  if (!dialing) {
    OnAttemptFailed();
    return;
  }
  phase_ = Phase::kConnecting;
  ArmAttemptTimer();
}

void CatnipSessionQueue::OnAttemptEstablished() {
  // Fresh byte stream: everything unacknowledged must be re-sent behind a HELLO.
  decoder_ = FrameDecoder();
  control_parts_.clear();
  wire_parts_.clear();
  bytes_sent_ = 0;
  log_.MarkAllUnwritten();
  QueueControlFrame(HelloFrame{/*is_ack=*/false, /*is_ping=*/false, session_id_,
                               last_rx_seq_});
  phase_ = Phase::kHandshake;
  // The attempt timer armed by BeginAttempt stays live: it covers the handshake too.
}

void CatnipSessionQueue::OnAttemptFailed() {
  ++attempt_epoch_;
  transport_.Abort();
  phase_ = Phase::kIdle;
  const RetryPolicy& policy = libos_->recovery().retry;
  ++attempt_;
  if (attempt_ >= policy.max_attempts) {
    if (target_ == Target::kFast) {
      if (breaker_.RecordExhaustion()) {
        libos_->host().Count(Counter::kBreakerTrips);
        libos_->sim().metrics().Trace(TraceKind::kBreakerTrip, now(), session_id_);
      }
      // Fast path exhausted this outage: fail over to the legacy kernel path.
      target_ = Target::kLegacy;
      attempt_ = 0;
    } else {
      GiveUp(RetryExhausted("fast and legacy paths exhausted"));
      return;
    }
  }
  const TimeNs delay = policy.BackoffBeforeAttempt(attempt_, rng_);
  if (now() + delay > OutageDeadline()) {
    GiveUp(RetryExhausted("recovery deadline exceeded"));
    return;
  }
  ScheduleGuarded(delay, [this] {
    if (phase_ == Phase::kIdle) {
      BeginAttempt();
    }
  });
}

void CatnipSessionQueue::OnHandshakeComplete() {
  ++attempt_epoch_;  // disarms the attempt timer
  phase_ = Phase::kActive;
  attempt_ = 0;
  in_outage_ = false;
  last_rx_activity_ = now();
  path_since_ = now();
  window_start_ = now();
  window_ops_ = 0;
  const bool voluntary = policy_switch_;
  policy_switch_ = false;
  ArmKeepalive();
  breaker_.RecordSuccess();
  if (transport_.kind() == FailoverTransport::Kind::kLegacy) {
    // Off the fast path — whether by policy or by failure, the flow's bypass
    // resources go back to the tenant pool immediately.
    ReleaseFastResources();
    if (!failed_over_) {
      failed_over_ = true;
      if (voluntary) {
        // A policy demotion is not an outage: it counts as a demotion, never as a
        // failover, so chaos/recovery accounting stays meaningful.
        libos_->host().Count(Counter::kDemotions);
        libos_->sim().metrics().Trace(TraceKind::kPathDemotion, now(), session_id_);
      } else {
        libos_->host().Count(Counter::kFailovers);
        libos_->sim().metrics().Trace(TraceKind::kFailover, now(), session_id_);
      }
    }
  } else {
    // On the fast path the flow must hold its tenant resources. A policy promotion
    // claimed them before dialing; failure-driven dials (initial connect, outage
    // recovery, auto-re-promotion) claim them here — and a flow that cannot get a
    // slot is demoted by policy instead of squatting on the device.
    if (libos_->adaptive().enabled && is_client_ && !holds_fast_resources_ &&
        !AcquireFastResources()) {
      policy_switch_ = true;
      SalvageDrain();
      Redial(Target::kLegacy, /*count_as_outage=*/false);
      return;
    }
    if (failed_over_) {
      failed_over_ = false;
      if (voluntary) {
        libos_->host().Count(Counter::kPromotions);
        libos_->sim().metrics().Trace(TraceKind::kPathPromotion, now(), session_id_);
      } else {
        libos_->host().Count(Counter::kFastPathRepromotions);
        libos_->sim().metrics().Trace(TraceKind::kRepromotion, now(), session_id_);
      }
    }
  }
}

void CatnipSessionQueue::StartOutage() {
  // A tripped breaker skips the fast-path attempts this outage would burn.
  Redial(breaker_.tripped() ? Target::kLegacy : Target::kFast, /*count_as_outage=*/true);
}

void CatnipSessionQueue::Redial(Target target, bool count_as_outage) {
  ++attempt_epoch_;
  transport_.Abort();
  outage_start_ = now();
  attempt_ = 0;
  target_ = target;
  in_outage_ = count_as_outage;
  phase_ = Phase::kIdle;
  BeginAttempt();
}

void CatnipSessionQueue::Park() {
  ++attempt_epoch_;
  transport_.Abort();
  phase_ = Phase::kParked;
  outage_start_ = now();
  // A parked session holds its state for the peer to reattach, but not forever.
  ScheduleGuarded(libos_->recovery().retry.deadline_ns, [this] {
    if (phase_ == Phase::kParked) {
      GiveUp(RetryExhausted("peer did not reattach before the deadline"));
    }
  });
}

void CatnipSessionQueue::GiveUp(Status cause) {
  ++attempt_epoch_;
  transport_.Abort();
  ReleaseFastResources();  // a dead session must not hold bypass capacity
  stream_error_ = cause;
  phase_ = Phase::kFailed;
  if (cause.code() == ErrorCode::kRetryExhausted) {
    libos_->host().Count(Counter::kRetryGiveups);
    libos_->sim().metrics().Trace(TraceKind::kRetryGiveup, now(), session_id_);
  }
  if (session_id_ != 0 && libos_->FindSession(session_id_) == this) {
    libos_->UnregisterSession(session_id_);
  }
  // Serve what was salvaged, then fail everything still pending — no hung qtokens.
  (void)ServePops();
  while (!pending_pops_.empty()) {
    QResult res;
    res.op = OpType::kPop;
    res.status = cause;
    libos_->CompleteOp(pending_pops_.front(), std::move(res));
    pending_pops_.pop_front();
  }
  const Status push_err =
      cause.code() == ErrorCode::kEndOfFile ? ConnectionReset("peer closed") : cause;
  while (!staged_pushes_.empty()) {
    QResult res;
    res.op = OpType::kPush;
    res.status = push_err;
    libos_->CompleteOp(staged_pushes_.front().first, std::move(res));
    staged_pushes_.pop_front();
  }
}

// --- recovery: session data path ---

bool CatnipSessionQueue::Progress(CompletionSink& /*sink*/) {
  if (listener_ != nullptr || kernel_listen_fd_ >= 0) {
    return ProgressListener();
  }
  if (session_id_ == 0) {
    return false;  // socket created but neither connected nor adopted
  }
  bool progress = false;
  health_.Observe(libos_->nic().link_up(),
                  libos_->nic().failed() || libos_->stack().device_failed(), now());
  switch (phase_) {
    case Phase::kIdle:   // a backoff timer owns the next step
    case Phase::kFailed:
      break;
    case Phase::kConnecting:
      if (transport_.established()) {
        OnAttemptEstablished();
        progress = true;
      } else if (TransportDied()) {
        OnAttemptFailed();
        progress = true;
      }
      break;
    case Phase::kHandshake:
      if (TransportDied()) {
        OnAttemptFailed();
        progress = true;
        break;
      }
      progress |= PumpWriter();
      progress |= PumpReader(/*force=*/true);
      break;
    case Phase::kActive: {
      if (transport_.recv_eof()) {
        clean_eof_ = true;
      }
      if (TransportDied()) {
        progress = true;
        SalvageDrain();
        if (clean_eof_) {
          GiveUp(EndOfFile());
        } else if (is_client_) {
          StartOutage();
        } else {
          Park();
        }
        break;
      }
      progress |= StageToLog();
      progress |= PumpWriter();
      log_.EvictAcked(bytes_sent_ - transport_.unacked_bytes());
      progress |= PumpReader(/*force=*/false);
      progress |= ServePops();
      if (libos_->adaptive().enabled) {
        // Load-adaptive placement: the op-count window decides the path; the
        // unconditional health-based re-promotion below stays out of the way.
        progress |= CheckPolicyWindow();
        break;
      }
      // Fast-path re-promotion: once a flapped device has been continuously healthy
      // long enough, voluntarily migrate back (salvaging buffered bytes first).
      // Both clocks must serve the dwell: the local device has been continuously
      // healthy AND the session has sat on the legacy path that long. HealthyFor
      // alone is vacuous when the *peer's* device died (ours never flapped, so it
      // has been "healthy" since t=0) — without the path dwell the session would
      // redial the dead remote the instant every failover lands, thrashing forever.
      if (phase_ == Phase::kActive && is_client_ &&
          transport_.kind() == FailoverTransport::Kind::kLegacy &&
          !libos_->stack().device_failed() &&
          health_.health() == DeviceHealth::kHealthy &&
          health_.HealthyFor(now()) >= libos_->recovery().repromote_after_ns &&
          now() - path_since_ >= libos_->recovery().repromote_after_ns) {
        SalvageDrain();
        Redial(Target::kFast, /*count_as_outage=*/false);
        progress = true;
      }
      break;
    }
    case Phase::kParked:
      progress |= StageToLog();
      progress |= ServePops();
      break;
  }
  return progress;
}

// --- adaptive path placement (DESIGN.md §15) ---

bool CatnipSessionQueue::CheckPolicyWindow() {
  // Only the connecting side drives switches (servers follow).
  if (!is_client_ || phase_ != Phase::kActive ||
      now() - window_start_ < kPolicyWindowNs) {
    return false;
  }
  // ops / elapsed against ops_per_sec / 1 s, cross-multiplied to stay in integers.
  const std::uint64_t scaled_ops = window_ops_ * static_cast<std::uint64_t>(kSecond);
  const auto elapsed = static_cast<std::uint64_t>(now() - window_start_);
  window_start_ = now();
  window_ops_ = 0;
  const bool on_fast = transport_.kind() == FailoverTransport::Kind::kFast;
  if (on_fast && scaled_ops < kDemoteOpsPerSec * elapsed &&
      libos_->kernel() != nullptr) {
    // Cold/idle flow: hand the byte stream to the kernel path and return the bypass
    // resources. Same live-migration machinery as failover — exactly-once replay.
    SalvageDrain();
    ReleaseFastResources();
    policy_switch_ = true;
    Redial(Target::kLegacy, /*count_as_outage=*/false);
    return true;
  }
  if (!on_fast && scaled_ops >= kPromoteOpsPerSec * elapsed &&
      !libos_->stack().device_failed() &&
      health_.health() == DeviceHealth::kHealthy && AcquireFastResources()) {
    // Capacity first: a flow that cannot claim a slot stays on the kernel path and
    // asks again next window — no dial, nothing to unwind.
    SalvageDrain();
    policy_switch_ = true;
    Redial(Target::kFast, /*count_as_outage=*/false);
    return true;
  }
  return false;
}

bool CatnipSessionQueue::AcquireFastResources() {
  if (holds_fast_resources_) {
    return true;
  }
  const TenantId tenant = libos_->tenant();
  if (tenant == kNoTenant || libos_->kernel() == nullptr) {
    holds_fast_resources_ = true;  // untenanted device: nothing to meter
    return true;
  }
  TenantRegistry* registry = libos_->kernel()->tenant_registry();
  if (!registry->TryAcquireFlowSlot(tenant)) {
    return false;
  }
  if (!registry->TryAcquireRegistration(tenant)) {
    registry->ReleaseFlowSlot(tenant);
    return false;
  }
  holds_fast_resources_ = true;
  return true;
}

void CatnipSessionQueue::ReleaseFastResources() {
  if (!holds_fast_resources_) {
    return;
  }
  holds_fast_resources_ = false;
  const TenantId tenant = libos_->tenant();
  if (tenant == kNoTenant || libos_->kernel() == nullptr) {
    return;
  }
  TenantRegistry* registry = libos_->kernel()->tenant_registry();
  registry->ReleaseFlowSlot(tenant);
  registry->ReleaseRegistration(tenant);
}

bool CatnipSessionQueue::StageToLog() {
  bool progress = false;
  while (!staged_pushes_.empty() && !log_.full()) {
    auto& [token, sga] = staged_pushes_.front();
    log_.Append(next_seq_++, std::move(sga));
    QResult res;
    res.op = OpType::kPush;
    libos_->CompleteOp(token, std::move(res));
    staged_pushes_.pop_front();
    progress = true;
  }
  return progress;
}

bool CatnipSessionQueue::PumpWriter() {
  if (!transport_.established()) {
    return false;
  }
  bool progress = false;
  // Control frames, then each log entry's frame, go out as one write apiece. A write
  // that fails or takes only part of its frame means the transport is stalled or
  // dying (the phase machine notices death); the tail waits for the next poll.
  if (!control_parts_.empty() && !WriteFrameParts(control_parts_, &progress)) {
    return progress;
  }
  while (true) {
    if (wire_parts_.empty()) {
      ReplayLog::Entry* next = log_.NextUnwritten();
      if (next == nullptr) {
        break;
      }
      wire_seq_ = next->seq;
      // From the memory manager, not the heap: on a tenant-bound queue the wire
      // parts must come from arenas in the tenant's DMA capability set.
      Buffer seq_hdr = libos_->memory().AllocateHeader(kRecoverySeqHeader);
      ByteWriter writer(seq_hdr.mutable_span());
      writer.U64(next->seq);
      SgArray wire(std::move(seq_hdr));
      for (const Buffer& seg : next->element.segments()) {
        wire.Append(seg);
      }
      wire_parts_ = EncodeFrame(wire, &libos_->memory());
    }
    if (!WriteFrameParts(wire_parts_, &progress)) {
      break;
    }
    // The entry whose parts just drained is fully on the wire at offset bytes_sent_.
    for (ReplayLog::Entry& entry : log_.entries()) {
      if (entry.seq == wire_seq_) {
        entry.written = true;
        entry.end_offset = bytes_sent_;
        break;
      }
    }
  }
  return progress;
}

bool CatnipSessionQueue::WriteFrameParts(std::vector<Buffer>& parts, bool* progress) {
  auto written = transport_.Write(parts);
  if (!written.ok()) {
    return false;
  }
  bytes_sent_ += *written;
  *progress |= *written > 0;
  DropFront(parts, *written);
  return parts.empty();
}

bool CatnipSessionQueue::PumpReader(bool force) {
  if (!force && pending_pops_.empty()) {
    return false;  // rely on transport flow control to bound buffering
  }
  bool progress = false;
  while (true) {
    Buffer chunk = transport_.Recv(65536);
    if (chunk.empty()) {
      break;
    }
    last_rx_activity_ = now();
    decoder_.Feed(std::move(chunk));
    progress = true;
  }
  while (true) {
    auto decoded = decoder_.Next();
    if (!decoded.ok()) {
      GiveUp(decoded.status());  // corrupt framing is unrecoverable in-session
      return true;
    }
    if (!decoded->has_value()) {
      break;
    }
    ProcessFrame(**decoded);
    progress = true;
  }
  return progress;
}

void CatnipSessionQueue::ProcessFrame(const SgArray& body) {
  if (auto hello = ParseHello(body); hello.has_value()) {
    if (hello->is_ack && phase_ == Phase::kHandshake) {
      log_.EvictThroughSeq(hello->last_rx_seq);
      OnHandshakeComplete();
    }
    return;
  }
  std::uint64_t seq = 0;
  if (!ReadSeqHeader(body, &seq) || seq == kRecoveryControlSeq) {
    return;  // runt or unrecognized control frame
  }
  if (seq <= last_rx_seq_) {
    return;  // duplicate from a replay: already delivered
  }
  last_rx_seq_ = seq;
  ready_elements_.push_back(StripBytes(body, kRecoverySeqHeader));
}

bool CatnipSessionQueue::ServePops() {
  bool progress = false;
  while (!pending_pops_.empty() && !ready_elements_.empty()) {
    QResult res;
    res.op = OpType::kPop;
    res.sga = std::move(ready_elements_.front());
    ready_elements_.pop_front();
    libos_->CompleteOp(pending_pops_.front(), std::move(res));
    pending_pops_.pop_front();
    progress = true;
  }
  if (phase_ == Phase::kActive && ready_elements_.empty() &&
      (clean_eof_ || transport_.recv_eof())) {
    while (!pending_pops_.empty()) {
      QResult res;
      res.op = OpType::kPop;
      res.status = EndOfFile();
      libos_->CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
    }
  }
  return progress;
}

void CatnipSessionQueue::SalvageDrain() {
  // TCP keeps in-order — hence transport-acknowledged — data readable even after a
  // reset, and the peer's replay log only evicts acknowledged bytes. Draining here
  // therefore recovers exactly the elements the peer will not replay.
  while (true) {
    Buffer chunk = transport_.Recv(65536);
    if (chunk.empty()) {
      break;
    }
    decoder_.Feed(std::move(chunk));
  }
  while (true) {
    auto decoded = decoder_.Next();
    if (!decoded.ok() || !decoded->has_value()) {
      break;
    }
    ProcessFrame(**decoded);
  }
}

void CatnipSessionQueue::QueueControlFrame(const HelloFrame& hello) {
  // Re-home the encoded hello into a memory-manager buffer: control frames ride the
  // same tenant-checked DMA path as data, so heap storage would be dropped by the
  // device capability check.
  const Buffer raw = EncodeHello(hello);
  Buffer body_buf = libos_->memory().AllocateHeader(raw.size());
  std::memcpy(body_buf.mutable_span().data(), raw.span().data(), raw.size());
  SgArray body(std::move(body_buf));
  for (Buffer& part : EncodeFrame(body, &libos_->memory())) {
    control_parts_.push_back(std::move(part));
  }
}

void CatnipSessionQueue::ArmKeepalive() {
  const TimeNs idle = libos_->recovery().keepalive_idle_ns;
  if (idle == 0 || keepalive_armed_) {
    return;
  }
  keepalive_armed_ = true;
  // Deliberately NOT ScheduleGuarded: attempt epochs advance on every reconnect,
  // but the keepalive guards the whole session. Only the queue's destruction kills it.
  std::weak_ptr<bool> alive = alive_;
  libos_->sim().Schedule(idle, [this, alive] {
    if (alive.expired()) {
      return;
    }
    keepalive_armed_ = false;
    KeepaliveTick();
  });
}

void CatnipSessionQueue::KeepaliveTick() {
  if (phase_ != Phase::kActive) {
    return;  // re-armed when the session next (re)activates
  }
  if (!pending_pops_.empty() && transport_.established() &&
      now() - last_rx_activity_ >= libos_->recovery().keepalive_idle_ns) {
    HelloFrame ping;
    ping.is_ping = true;
    ping.session_id = session_id_;
    ping.last_rx_seq = last_rx_seq_;
    QueueControlFrame(ping);
    PumpWriter();
  }
  ArmKeepalive();
}

void CatnipSessionQueue::ArmAttemptTimer() {
  ScheduleGuarded(libos_->recovery().retry.attempt_timeout_ns, [this] {
    if (phase_ == Phase::kConnecting || phase_ == Phase::kHandshake) {
      OnAttemptFailed();
    }
  });
}

void CatnipSessionQueue::ScheduleGuarded(TimeNs delay, std::function<void()> fn) {
  std::weak_ptr<bool> alive = alive_;
  const std::uint64_t epoch = attempt_epoch_;
  libos_->sim().Schedule(delay, [this, alive, epoch, fn = std::move(fn)] {
    if (alive.expired() || epoch != attempt_epoch_) {
      return;  // the queue is gone, or the state machine moved past this timer
    }
    fn();
  });
}

bool CatnipSessionQueue::TransportDied() const {
  if (transport_.kind() == FailoverTransport::Kind::kFast &&
      libos_->stack().device_failed()) {
    return true;
  }
  return transport_.dead();
}

TimeNs CatnipSessionQueue::now() const { return libos_->sim().now(); }

TimeNs CatnipSessionQueue::OutageDeadline() const {
  return outage_start_ + libos_->recovery().retry.deadline_ns;
}

Status CatnipSessionQueue::Close() {
  if (kernel_listen_fd_ >= 0 && libos_->kernel() != nullptr) {
    (void)libos_->kernel()->CloseFd(kernel_listen_fd_);
    kernel_listen_fd_ = -1;
  }
  for (Embryo& embryo : embryos_) {
    embryo.transport.Abort();
  }
  embryos_.clear();
  accept_ready_.clear();
  if (session_id_ != 0 && libos_->FindSession(session_id_) == this) {
    libos_->UnregisterSession(session_id_);
  }
  transport_.Reset();  // graceful close on whichever path is live
  ReleaseFastResources();
  return OkStatus();
}

// --- CatnipUdpQueue ---

CatnipUdpQueue::~CatnipUdpQueue() {
  if (bound_) {
    libos_->stack().UdpUnbind(bound_port_);
  }
}

Status CatnipUdpQueue::Bind(std::uint16_t port) {
  if (bound_) {
    return Status(ErrorCode::kAlreadyExists, "already bound");
  }
  RETURN_IF_ERROR(libos_->stack().UdpBind(port, [this](Endpoint from, Buffer payload) {
    inbound_.emplace_back(from, std::move(payload));
  }));
  bound_port_ = port;
  bound_ = true;
  return OkStatus();
}

Status CatnipUdpQueue::StartConnect(Endpoint remote) {
  remote_ = remote;
  has_remote_ = true;
  if (!bound_) {
    // Auto-bind an ephemeral-ish port derived from the queue address.
    for (std::uint16_t port = 20000; port < 21000; ++port) {
      if (Bind(port).ok()) {
        break;
      }
    }
  }
  return OkStatus();
}

Status CatnipUdpQueue::StartPush(QToken token, const SgArray& sga) {
  if (!has_remote_) {
    return NotConnected("udp push requires connect(remote)");
  }
  // One element = one datagram; the device keeps the unit intact on the wire, which
  // is the "preserve the application data unit on the device" goal of §4.2. The
  // segments ride to the NIC as referenced slices — no flatten, no copy.
  const Status status = libos_->stack().UdpSend(
      bound_port_, remote_, std::span<const Buffer>(sga.segments()));
  QResult res;
  res.op = OpType::kPush;
  res.status = status;
  ready_.emplace_back(token, std::move(res));
  return OkStatus();
}

Status CatnipUdpQueue::StartPop(QToken token) {
  if (!bound_) {
    return NotConnected("udp pop requires bind");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool CatnipUdpQueue::Progress(CompletionSink& sink) {
  bool progress = false;
  while (!ready_.empty()) {
    sink.CompleteOp(ready_.front().first, std::move(ready_.front().second));
    ready_.pop_front();
    progress = true;
  }
  // Datagrams can never arrive through a dead NIC: fail pending pops (§4.4).
  if (libos_->stack().device_failed()) {
    while (!pending_pops_.empty()) {
      QResult res;
      res.op = OpType::kPop;
      res.status = DeviceFailed("nic is dead");
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
    }
  }
  while (!pending_pops_.empty() && !inbound_.empty()) {
    auto [from, payload] = std::move(inbound_.front());
    inbound_.pop_front();
    QResult res;
    res.op = OpType::kPop;
    res.sga = SgArray(std::move(payload));  // zero-copy slice of the received frame
    sink.CompleteOp(pending_pops_.front(), std::move(res));
    pending_pops_.pop_front();
    progress = true;
  }
  return progress;
}

bool CatnipUdpQueue::SupportsFilterOffload() const {
  return libos_->nic().config().supports_offload && bound_;
}

Status CatnipUdpQueue::InstallOffloadFilter(const ElementPredicate& pred) {
  if (!SupportsFilterOffload()) {
    return Unsupported("device cannot run filters");
  }
  // Compile the element predicate into an on-NIC packet program: it must only act on
  // UDP datagrams addressed to this queue's port and pass everything else untouched.
  NicProgram prog;
  prog.kind = NicProgram::Kind::kFilter;
  prog.host_cost_ns = pred.host_cost_ns;
  const std::uint16_t port = bound_port_;
  auto fn = pred.fn;
  prog.filter = [port, fn](const Buffer& frame) {
    const auto span = frame.span();
    if (span.size() < kEthHeaderSize + kIpv4HeaderSize + kUdpHeaderSize) {
      return true;
    }
    const EthHeader eth = ParseEthHeader(span);
    if (eth.ethertype != kEtherTypeIpv4) {
      return true;
    }
    auto ip = ParseIpv4Header(span.subspan(kEthHeaderSize));
    if (!ip || ip->protocol != kIpProtoUdp) {
      return true;
    }
    auto udp = ParseUdpHeader(span.subspan(kEthHeaderSize + kIpv4HeaderSize));
    if (!udp || udp->dst_port != port) {
      return true;
    }
    SgArray element(frame.Slice(kEthHeaderSize + kIpv4HeaderSize + kUdpHeaderSize,
                                udp->length - kUdpHeaderSize));
    return fn(element);
  };
  return libos_->nic().InstallRxProgram(libos_->nic_queue(), std::move(prog));
}

Status CatnipUdpQueue::Close() {
  if (bound_) {
    libos_->stack().UdpUnbind(bound_port_);
    bound_ = false;
  }
  return OkStatus();
}

}  // namespace demi
