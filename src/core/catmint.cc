#include "src/core/catmint.h"

#include "src/common/logging.h"

namespace demi {

namespace {
// Receive work-request ids live in a separate namespace from push qtokens.
constexpr std::uint64_t kRecvWrBit = 1ULL << 63;
}  // namespace

CatmintLibOS::CatmintLibOS(HostCpu* host, RdmaNic* nic, CatmintConfig config)
    : LibOS(host), nic_(nic), config_(std::move(config)) {
  // §4.5 transparent registration: every arena the memory manager creates — past and
  // future — is registered with the RDMA NIC, so application buffers are usable for
  // I/O without any explicit ibv_reg_mr calls.
  memory_.AttachDevice([nic](std::shared_ptr<BufferStorage> arena) {
    const auto r = nic->RegisterMemory(std::move(arena));
    if (!r.ok()) {
      // Registration exhaustion is a runtime condition (§2), not a programmer error:
      // buffers from this arena stay usable for CPU work but cannot be posted for I/O.
      LOG_WARN << "catmint: arena registration failed: " << r.status();
    }
  });
}

Result<std::unique_ptr<IoQueue>> CatmintLibOS::NewSocketQueue() {
  return std::unique_ptr<IoQueue>(new CatmintQueue(this, nullptr));
}

CatmintQueue::CatmintQueue(CatmintLibOS* libos, std::shared_ptr<RdmaQp> qp)
    : libos_(libos), qp_(std::move(qp)) {
  if (qp_ != nullptr && qp_->connected()) {
    ProvisionRecvBuffers();
  }
}

std::string CatmintQueue::RendezvousAddr(std::uint16_t port) const {
  return libos_->config().local_addr + ":" + std::to_string(port);
}

Status CatmintQueue::Bind(std::uint16_t port) {
  bound_port_ = port;
  return OkStatus();
}

Status CatmintQueue::Listen() {
  if (bound_port_ == 0) {
    return InvalidArgument("listen requires bind");
  }
  listen_addr_ = RendezvousAddr(bound_port_);
  RETURN_IF_ERROR(libos_->nic().Listen(listen_addr_));
  listening_ = true;
  return OkStatus();
}

Result<std::unique_ptr<IoQueue>> CatmintQueue::TryAccept() {
  if (!listening_) {
    return Status(ErrorCode::kInvalidArgument, "not listening");
  }
  auto qp = libos_->nic().Accept(listen_addr_);
  if (qp == nullptr) {
    return Status(ErrorCode::kWouldBlock);
  }
  return std::unique_ptr<IoQueue>(new CatmintQueue(libos_, std::move(qp)));
}

Status CatmintQueue::StartConnect(Endpoint remote) {
  if (qp_ != nullptr) {
    return Status(ErrorCode::kAlreadyConnected, "connect");
  }
  qp_ = libos_->nic().Connect(remote.ip.ToString() + ":" + std::to_string(remote.port));
  return OkStatus();
}

Status CatmintQueue::ConnectStatus() {
  if (qp_ == nullptr) {
    return NotConnected("connect not started");
  }
  if (qp_->connected()) {
    if (!provisioned_) {
      ProvisionRecvBuffers();
    }
    return OkStatus();
  }
  if (qp_->failed()) {
    return ConnectionRefused("rdma cm: nobody listening");
  }
  return WouldBlock();
}

Status CatmintQueue::PostOneRecv() {
  // Receive buffers come from the manager, so they are registered by construction.
  Buffer buf = libos_->memory().Allocate(libos_->config().max_element_bytes);
  return qp_->PostRecv(kRecvWrBit | next_recv_wr_++, std::move(buf));
}

void CatmintQueue::ProvisionRecvBuffers() {
  // This is the buffer provisioning §2 says raw-verbs applications must hand-roll:
  // enough right-sized receives that a conforming sender never hits RNR.
  DEMI_CHECK(qp_ != nullptr);
  for (std::size_t i = 0; i < libos_->config().recv_buffers; ++i) {
    if (!PostOneRecv().ok()) {
      break;
    }
  }
  provisioned_ = true;
}

Status CatmintQueue::StartPush(QToken token, const SgArray& sga) {
  if (qp_ == nullptr) {
    return NotConnected("push before connect");
  }
  if (sga.total_bytes() > libos_->config().max_element_bytes) {
    return InvalidArgument("element exceeds the connection's max element size");
  }
  queued_pushes_.push_back({token, sga});
  return OkStatus();
}

Status CatmintQueue::StartPop(QToken token) {
  if (qp_ == nullptr) {
    return NotConnected("pop before connect");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool CatmintQueue::Progress(CompletionSink& sink) {
  if (qp_ == nullptr) {
    return false;
  }
  bool progress = false;
  if (qp_->connected() && !provisioned_) {
    ProvisionRecvBuffers();
    progress = true;
  }

  // Submit queued pushes while the send queue has room.
  while (!queued_pushes_.empty() && qp_->connected()) {
    auto& [token, sga] = queued_pushes_.front();
    std::vector<Buffer> segments;
    segments.reserve(sga.segment_count());
    bool unregisterable = false;
    for (const Buffer& seg : sga) {
      if (libos_->nic().IsRegistered(seg)) {
        segments.push_back(seg);  // zero copy: the NIC gathers from app memory
      } else {
        // Transparent bounce for foreign memory: copy into a registered buffer.
        libos_->host().CopyBytes(seg.size());
        Buffer staged = libos_->memory().Allocate(seg.size());
        if (!libos_->nic().IsRegistered(staged)) {
          // The manager grew an arena the NIC refused to register (registration
          // exhaustion): no amount of bouncing can make this segment sendable.
          unregisterable = true;
          break;
        }
        std::memcpy(staged.mutable_data(), seg.data(), seg.size());
        segments.push_back(std::move(staged));
      }
    }
    if (unregisterable) {
      QResult res;
      res.op = OpType::kPush;
      res.status = ResourceExhausted("memory registration exhausted");
      sink.CompleteOp(token, std::move(res));
      queued_pushes_.pop_front();
      progress = true;
      continue;
    }
    const Status status = qp_->PostSend(token, std::move(segments));
    if (status.code() == ErrorCode::kResourceExhausted) {
      break;  // send queue full; retry next poll
    }
    queued_pushes_.pop_front();
    progress = true;
    if (!status.ok()) {
      QResult res;
      res.op = OpType::kPush;
      res.status = status;
      sink.CompleteOp(token, std::move(res));
    }
    // Success: completion arrives via the CQ below.
  }

  // Reap completions.
  for (const WorkCompletion& wc : qp_->PollCq(32)) {
    progress = true;
    if (wc.op == WorkCompletion::Op::kSend) {
      QResult res;
      res.op = OpType::kPush;
      res.status = wc.status;
      sink.CompleteOp(wc.wr_id, std::move(res));
    } else if (wc.op == WorkCompletion::Op::kRecv) {
      if (wc.status.ok()) {
        received_.push_back(SgArray(wc.payload));
        (void)PostOneRecv();  // keep the provisioned pool constant
      }
      // A failed recv leaves the QP in error; pops below surface the reset.
    }
  }

  while (!pending_pops_.empty() && !received_.empty()) {
    QResult res;
    res.op = OpType::kPop;
    res.sga = std::move(received_.front());
    received_.pop_front();
    sink.CompleteOp(pending_pops_.front(), std::move(res));
    pending_pops_.pop_front();
    progress = true;
  }
  if (qp_->failed()) {
    // The QP can never make progress again: fail everything still queued with the
    // typed cause the hardware recorded (kQpError / kDeviceFailed on injected faults,
    // kConnectionReset otherwise) so no token is left pending (§4.4).
    while (!queued_pushes_.empty()) {
      QResult res;
      res.op = OpType::kPush;
      res.status = qp_->error_status();
      sink.CompleteOp(queued_pushes_.front().first, std::move(res));
      queued_pushes_.pop_front();
      progress = true;
    }
    while (!pending_pops_.empty()) {
      QResult res;
      res.op = OpType::kPop;
      res.status = qp_->error_status();
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
    }
  }
  return progress;
}

}  // namespace demi
