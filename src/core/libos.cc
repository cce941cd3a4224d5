#include "src/core/libos.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/queue_ops.h"

namespace demi {

LibOS::LibOS(HostCpu* host) : host_(host), memory_(host) {
  host_->sim().AddPoller(this);
}

LibOS::~LibOS() { host_->sim().RemovePoller(this); }

void LibOS::ChargeCall() {
  host_->Work(host_->cost().libos_call_ns);
  host_->Count(Counter::kLibosCalls);
}

QDesc LibOS::InstallQueue(std::unique_ptr<IoQueue> queue) {
  const QDesc qd = next_qd_++;
  qtable_[qd] = std::move(queue);
  return qd;
}

IoQueue* LibOS::GetQueue(QDesc qd) const {
  auto it = qtable_.find(qd);
  return it == qtable_.end() ? nullptr : it->second.get();
}

QToken LibOS::NewToken(QDesc qd, OpType type) {
  const std::size_t index = ops_.Acquire();
  OpSlot& slot = ops_[index];
  slot.qd = qd;
  slot.type = type;
  slot.state = OpState::kPending;
  slot.start_ns = host_->now();
  ++pending_count_;
  return TokenAt(index);
}

void LibOS::ReleaseFailedToken(QToken token) {
  OpSlot* slot = FindSlot(token);
  if (slot == nullptr) {
    return;
  }
  if (slot->state == OpState::kPending) {
    --pending_count_;
  }
  ReleaseSlot(token);
}

void LibOS::PushReady(QToken token) {
  if (ready_ring_.Push(token)) {
    sim().metrics().RecordStat(SimStat::kReadyRingDepth, ready_ring_.size());
    return;
  }
  // Ring full. Most entries are usually stale (their results were already claimed
  // straight off the slot table by Wait/TakeResult), so compact in place; grow only
  // when the live completions genuinely outnumber the capacity.
  std::vector<QToken> live;
  live.reserve(ready_ring_.size() + 1);
  while (auto t = ready_ring_.Pop()) {
    const OpSlot* slot = FindSlot(*t);
    if (slot != nullptr && slot->state == OpState::kCompleted) {
      live.push_back(*t);
    }
  }
  live.push_back(token);
  if (live.size() >= ready_ring_.capacity()) {
    ready_ring_ = RingBuffer<QToken>(ready_ring_.capacity() * 2);
  }
  for (const QToken t : live) {
    const bool pushed = ready_ring_.Push(t);
    DEMI_CHECK(pushed);
  }
  sim().metrics().RecordStat(SimStat::kReadyRingDepth, ready_ring_.size());
}

void LibOS::CompleteOp(QToken token, QResult result) {
  OpSlot* slot = FindSlot(token);
  if (slot == nullptr) {
    return;  // stale token (released earlier); drop the result
  }
  if (slot->state == OpState::kAbandoned) {
    --abandoned_count_;
    ReleaseSlot(token);  // cancelled earlier; the caller no longer wants this result
    return;
  }
  if (result.qd == kInvalidQDesc) {
    result.qd = slot->qd;
  }
  if (slot->state == OpState::kCompleted) {
    slot->result = std::move(result);  // double completion: last one wins (as before)
    return;
  }
  --pending_count_;
  slot->state = OpState::kCompleted;
  slot->done_seq = ++done_seq_counter_;
  slot->result = std::move(result);
  MetricsRegistry& metrics = sim().metrics();
  if (metrics.enabled()) {
    if (op_hists_ == nullptr) {
      op_hists_ = metrics.OpLatencyHandle(name());
    }
    metrics.RecordOpLatency(op_hists_, static_cast<OpKind>(slot->type),
                            host_->now() - slot->start_ns);
  }
  if (slot->watcher != nullptr) {
    CompletionWatcher* watcher = slot->watcher;
    slot->watcher = nullptr;
    watcher->OnTokenComplete(token, slot->qd);
  } else {
    // The observer may start new operations, which can grow the slot table and
    // invalidate `slot` — copy what it needs first and touch nothing after.
    const QDesc done_qd = slot->qd;
    const OpType done_type = slot->type;
    const bool done_ok = slot->result.status.ok();
    PushReady(token);
    if (ready_observer_) {
      ready_observer_(token, done_qd, done_type, done_ok);
    }
  }
}

// --- control path: network ---

Result<QDesc> LibOS::Socket() {
  ChargeCall();
  auto queue = NewSocketQueue();
  RETURN_IF_ERROR(queue.status());
  return InstallQueue(std::move(*queue));
}

Status LibOS::Bind(QDesc qd, std::uint16_t port) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("bind");
  }
  return q->Bind(port);
}

Status LibOS::Listen(QDesc qd) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("listen");
  }
  return q->Listen();
}

Result<QDesc> LibOS::Accept(QDesc qd) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("accept");
  }
  auto accepted = q->TryAccept();
  RETURN_IF_ERROR(accepted.status());
  return InstallQueue(std::move(*accepted));
}

Result<QToken> LibOS::AcceptAsync(QDesc qd) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("accept");
  }
  const QToken token = NewToken(qd, OpType::kAccept);
  FindSlot(token)->control = true;
  control_tokens_.push_back(token);
  return token;
}

Status LibOS::Connect(QDesc qd, Endpoint remote) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("connect");
  }
  return q->StartConnect(remote);
}

Result<QToken> LibOS::ConnectAsync(QDesc qd, Endpoint remote) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("connect");
  }
  RETURN_IF_ERROR(q->StartConnect(remote));
  const QToken token = NewToken(qd, OpType::kConnect);
  FindSlot(token)->control = true;
  control_tokens_.push_back(token);
  return token;
}

Status LibOS::Close(QDesc qd) {
  ChargeCall();
  auto node = qtable_.extract(qd);
  if (node.empty()) {
    return BadDescriptor("close");
  }
  // Out of the table first: an op that a completion delivered during Close() starts
  // on this descriptor gets kBadDescriptor, so no queue needs a closed flag.
  std::unique_ptr<IoQueue> queue = std::move(node.mapped());
  const Status status = queue->Close();
  // After Close(): closing a Catnip connection can fire its ready hook, which marks
  // the queue dirty again.
  if (queue->dirty_listed) {
    std::erase(dirty_queues_, queue.get());
  }
  queue.reset();
  // Drop splices touching this queue and withdraw their internal ops: none may reach
  // the ready ring, and the surviving end keeps no pop armed that would take the
  // application's next element. An op on the closed queue is only abandoned here; the
  // sweep below releases it. (Cancelling kInvalidQToken is a harmless kNotFound.)
  std::erase_if(splices_, [this, qd](const Splice& s) {
    if (s.in != qd && s.out != qd) {
      return false;
    }
    (void)CancelOp(s.pop_token);
    (void)CancelOp(s.push_token);
    return true;
  });
  // Ops still pending on the descriptor can never complete now that the queue is
  // gone. This is the one place they are cancelled, so no qtoken is stranded; an
  // abandoned op's slot is released by the same CompleteOp. Index loop: a
  // completion observer may start new ops and grow the table.
  for (std::size_t i = 0; pending_count_ + abandoned_count_ > 0 && i < ops_.capacity();
       ++i) {
    const QToken token = TokenAt(i);
    const OpSlot* slot = FindSlot(token);
    if (slot != nullptr && slot->qd == qd && slot->state != OpState::kCompleted) {
      QResult res;
      res.op = slot->type;
      res.status = Cancelled("queue closed");
      CompleteOp(token, std::move(res));
    }
  }
  return status;
}

// --- control path: files ---

Result<QDesc> LibOS::Open(const std::string& path) {
  ChargeCall();
  auto queue = NewFileQueue(path, /*create=*/false);
  RETURN_IF_ERROR(queue.status());
  return InstallQueue(std::move(*queue));
}

Result<QDesc> LibOS::Creat(const std::string& path) {
  ChargeCall();
  auto queue = NewFileQueue(path, /*create=*/true);
  RETURN_IF_ERROR(queue.status());
  return InstallQueue(std::move(*queue));
}

// --- control path: queue calls ---

Result<QDesc> LibOS::QueueCreate() {
  ChargeCall();
  return InstallQueue(std::make_unique<MemoryQueue>(host_));
}

Result<QDesc> LibOS::Merge(QDesc qd1, QDesc qd2) {
  ChargeCall();
  if (GetQueue(qd1) == nullptr || GetQueue(qd2) == nullptr) {
    return BadDescriptor("merge");
  }
  return InstallQueue(std::make_unique<MergeQueue>(this, qd1, qd2));
}

Result<QDesc> LibOS::Filter(QDesc qd, ElementPredicate pred) {
  ChargeCall();
  IoQueue* inner = GetQueue(qd);
  if (inner == nullptr) {
    return BadDescriptor("filter");
  }
  // §4.3: libOSes always implement filters directly on supported devices but default
  // to the CPU if necessary.
  bool offloaded = false;
  if (inner->SupportsFilterOffload()) {
    offloaded = inner->InstallOffloadFilter(pred).ok();
  }
  return InstallQueue(std::make_unique<FilterQueue>(this, qd, std::move(pred), offloaded));
}

Result<QDesc> LibOS::Sort(QDesc qd, ElementComparator cmp) {
  ChargeCall();
  if (GetQueue(qd) == nullptr) {
    return BadDescriptor("sort");
  }
  return InstallQueue(std::make_unique<SortQueue>(this, qd, std::move(cmp)));
}

Result<QDesc> LibOS::MapQueue(QDesc qd, ElementTransform transform) {
  ChargeCall();
  if (GetQueue(qd) == nullptr) {
    return BadDescriptor("map");
  }
  return InstallQueue(std::make_unique<MapQueueImpl>(this, qd, std::move(transform)));
}

Status LibOS::QConnect(QDesc qdin, QDesc qdout) {
  ChargeCall();
  if (GetQueue(qdin) == nullptr || GetQueue(qdout) == nullptr) {
    return BadDescriptor("qconnect");
  }
  splices_.push_back(Splice{qdin, qdout});
  return OkStatus();
}

// --- data path ---

Result<QToken> LibOS::Push(QDesc qd, const SgArray& sga) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("push");
  }
  const QToken token = NewToken(qd, OpType::kPush);
  const Status status = q->StartPush(token, sga);
  if (!status.ok()) {
    ReleaseFailedToken(token);
    return status;
  }
  return token;
}

Result<QToken> LibOS::Pop(QDesc qd) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("pop");
  }
  const QToken token = NewToken(qd, OpType::kPop);
  const Status status = q->StartPop(token);
  if (!status.ok()) {
    ReleaseFailedToken(token);
    return status;
  }
  return token;
}

bool LibOS::OpDone(QToken token) const {
  const OpSlot* slot = FindSlot(token);
  return slot != nullptr && slot->state == OpState::kCompleted;
}

Result<QResult> LibOS::TakeResult(QToken token) {
  auto r = TakeResultInternal(token);
  if (r.ok()) {
    // §4.4 benefit (1): wait returns the data itself; count the single wakeup.
    host_->Count(Counter::kWakeups);
  }
  return r;
}

bool LibOS::PopReady(ReadyCompletion* out) {
  while (auto t = ready_ring_.Pop()) {
    OpSlot* slot = FindSlot(*t);
    if (slot == nullptr || slot->state != OpState::kCompleted) {
      continue;  // stale hint: already claimed off the slot table
    }
    out->token = *t;
    out->qd = slot->qd;
    out->op = slot->type;
    out->result = std::move(slot->result);
    ReleaseSlot(*t);
    return true;
  }
  return false;
}

Result<QResult> LibOS::TakeResultInternal(QToken token) {
  OpSlot* slot = FindSlot(token);
  if (slot == nullptr || slot->state == OpState::kAbandoned) {
    return BadDescriptor("unknown qtoken");
  }
  if (slot->state == OpState::kPending) {
    return WouldBlock();
  }
  QResult out = std::move(slot->result);
  ReleaseSlot(token);
  return out;
}

Result<QResult> LibOS::Wait(QToken token, TimeNs timeout) {
  ChargeCall();
  const TimeNs deadline = timeout < 0 ? INT64_MAX : sim().now() + timeout;
  while (true) {
    auto r = TakeResult(token);
    if (r.ok() || r.code() != ErrorCode::kWouldBlock) {
      return r;
    }
    if (sim().now() > deadline) {
      return TimedOut("wait");
    }
    if (!sim().StepOnce()) {
      return TimedOut("simulation idle; operation can never complete");
    }
  }
}

Result<std::pair<std::size_t, QResult>> LibOS::WaitAny(std::span<const QToken> tokens,
                                                       TimeNs timeout) {
  ChargeCall();
  const TimeNs deadline = timeout < 0 ? INT64_MAX : sim().now() + timeout;
  // One initial scan: if anything already completed, take the *earliest* completion
  // (done_seq order = FIFO fairness across tokens that finished before this call).
  std::size_t best = tokens.size();
  std::uint64_t best_seq = UINT64_MAX;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const OpSlot* slot = FindSlot(tokens[i]);
    if (slot != nullptr && slot->state == OpState::kCompleted && slot->done_seq < best_seq) {
      best = i;
      best_seq = slot->done_seq;
    }
  }
  if (best < tokens.size()) {
    auto r = TakeResult(tokens[best]);
    RETURN_IF_ERROR(r.status());
    return std::make_pair(best, std::move(*r));
  }
  // Ring-driven wait: map token -> position once, then consume completions in the
  // order the ready ring delivers them — O(1) per simulation step instead of O(k).
  std::unordered_map<QToken, std::size_t> want;
  want.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    want.emplace(tokens[i], i);
  }
  while (true) {
    if (sim().now() > deadline) {
      return TimedOut("wait_any");
    }
    if (!sim().StepOnce()) {
      return TimedOut("simulation idle; no operation can complete");
    }
    while (auto t = ready_ring_.Pop()) {
      const OpSlot* slot = FindSlot(*t);
      if (slot == nullptr || slot->state != OpState::kCompleted) {
        continue;  // stale hint: already claimed off the slot table
      }
      auto it = want.find(*t);
      if (it == want.end()) {
        continue;  // someone else's completion; its slot still holds the result
      }
      auto r = TakeResult(*t);
      RETURN_IF_ERROR(r.status());
      return std::make_pair(it->second, std::move(*r));
    }
  }
}

Result<std::vector<QResult>> LibOS::WaitAll(std::span<const QToken> tokens,
                                            TimeNs timeout) {
  ChargeCall();
  // Validate every token before consuming anything: a bad token mid-list fails the
  // whole call up front, leaving the other tokens' results claimable instead of
  // consuming (and then discarding) a partial sweep.
  for (const QToken t : tokens) {
    const OpSlot* slot = FindSlot(t);
    if (slot == nullptr || slot->state == OpState::kAbandoned) {
      return BadDescriptor("unknown qtoken");
    }
  }
  std::vector<QResult> out(tokens.size());
  std::vector<bool> done(tokens.size(), false);
  std::size_t remaining = tokens.size();
  std::unordered_map<QToken, std::size_t> want;
  want.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (done[i]) {
      continue;
    }
    if (OpDone(tokens[i])) {
      auto r = TakeResult(tokens[i]);
      RETURN_IF_ERROR(r.status());
      out[i] = std::move(*r);
      done[i] = true;
      --remaining;
    } else {
      want.emplace(tokens[i], i);
    }
  }
  const TimeNs deadline = timeout < 0 ? INT64_MAX : sim().now() + timeout;
  while (remaining > 0) {
    if (sim().now() > deadline) {
      return TimedOut("wait_all");
    }
    if (!sim().StepOnce()) {
      return TimedOut("simulation idle");
    }
    while (auto t = ready_ring_.Pop()) {
      const OpSlot* slot = FindSlot(*t);
      if (slot == nullptr || slot->state != OpState::kCompleted) {
        continue;  // stale hint
      }
      auto it = want.find(*t);
      if (it == want.end() || done[it->second]) {
        continue;
      }
      auto r = TakeResult(*t);
      RETURN_IF_ERROR(r.status());
      out[it->second] = std::move(*r);
      done[it->second] = true;
      --remaining;
      if (remaining == 0) {
        break;
      }
    }
  }
  return out;
}

Result<QResult> LibOS::BlockingPush(QDesc qd, const SgArray& sga, TimeNs timeout) {
  auto token = Push(qd, sga);
  RETURN_IF_ERROR(token.status());
  return WaitBounded(*token, timeout);
}

Result<QResult> LibOS::BlockingPop(QDesc qd, TimeNs timeout) {
  auto token = Pop(qd);
  RETURN_IF_ERROR(token.status());
  return WaitBounded(*token, timeout);
}

Result<QResult> LibOS::WaitBounded(QToken token, TimeNs timeout) {
  auto r = Wait(token, timeout);
  if (r.code() != ErrorCode::kTimedOut) {
    return r;
  }
  // The deadline fired mid-operation (possibly mid-failover). The op may have
  // completed on the very step that hit the deadline; give it one last look, then
  // cancel so the qtoken is never left hanging.
  auto last = TakeResult(token);
  if (last.ok()) {
    return last;
  }
  (void)CancelOp(token);
  return r;
}

Status LibOS::CancelOp(QToken token) {
  OpSlot* slot = FindSlot(token);
  if (slot == nullptr || slot->state == OpState::kAbandoned) {
    return NotFound("unknown qtoken");
  }
  if (slot->state == OpState::kCompleted) {
    ReleaseSlot(token);  // result arrived but was never claimed; drop it
    return OkStatus();
  }
  --pending_count_;
  if (slot->control) {
    // PollControlOps skips dead tokens and lazily compacts control_tokens_.
    ReleaseSlot(token);
    return OkStatus();
  }
  IoQueue* q = GetQueue(slot->qd);
  if (q == nullptr || !q->Cancel(token).ok()) {
    // The queue cannot un-register the op; swallow its completion instead.
    slot->state = OpState::kAbandoned;
    slot->watcher = nullptr;
    ++abandoned_count_;
  } else {
    ReleaseSlot(token);
  }
  return OkStatus();
}

Status LibOS::WatchToken(QToken token, CompletionWatcher* watcher) {
  OpSlot* slot = FindSlot(token);
  if (slot == nullptr || slot->state == OpState::kAbandoned) {
    return NotFound("unknown qtoken");
  }
  if (slot->state == OpState::kCompleted) {
    // Already done: deliver now; the result stays parked until TakeResult.
    watcher->OnTokenComplete(token, slot->qd);
    return OkStatus();
  }
  slot->watcher = watcher;
  return OkStatus();
}

SgArray LibOS::SgaAlloc(std::size_t bytes) {
  ChargeCall();
  return memory_.AllocateSga(bytes);
}

// --- polling ---

bool LibOS::PollControlOps() {
  bool progress = false;
  for (std::size_t i = 0; i < control_tokens_.size();) {
    const QToken token = control_tokens_[i];
    const OpSlot* slot = FindSlot(token);
    if (slot == nullptr || slot->state != OpState::kPending) {
      // Cancelled or otherwise retired; compact lazily.
      control_tokens_[i] = control_tokens_.back();
      control_tokens_.pop_back();
      continue;
    }
    const QDesc qd = slot->qd;
    const OpType type = slot->type;
    IoQueue* q = GetQueue(qd);
    QResult res;
    res.op = type;
    res.qd = qd;
    bool finished = false;
    if (q == nullptr) {
      res.status = Cancelled("queue closed");
      finished = true;
    } else if (type == OpType::kAccept) {
      auto accepted = q->TryAccept();
      if (accepted.ok()) {
        res.new_qd = InstallQueue(std::move(*accepted));
        finished = true;
      } else if (accepted.code() != ErrorCode::kWouldBlock) {
        res.status = accepted.status();
        finished = true;
      }
    } else if (type == OpType::kConnect) {
      const Status status = q->ConnectStatus();
      if (status.code() != ErrorCode::kWouldBlock) {
        res.status = status;
        finished = true;
      }
    }
    if (finished) {
      CompleteOp(token, std::move(res));
      control_tokens_[i] = control_tokens_.back();
      control_tokens_.pop_back();
      progress = true;
    } else {
      ++i;
    }
  }
  return progress;
}

bool LibOS::PollSplices() {
  bool progress = false;
  for (Splice& s : splices_) {
    // Wait out an in-flight push before popping more (per-splice ordering).
    if (s.push_token != kInvalidQToken) {
      if (!OpDone(s.push_token)) {
        continue;
      }
      (void)TakeResultInternal(s.push_token);
      s.push_token = kInvalidQToken;
      progress = true;
    }
    if (s.pop_token == kInvalidQToken) {
      auto token = Pop(s.in);
      if (token.ok()) {
        s.pop_token = *token;
      }
      continue;
    }
    if (OpDone(s.pop_token)) {
      auto r = TakeResultInternal(s.pop_token);
      s.pop_token = kInvalidQToken;
      progress = true;
      if (r.ok() && r->status.ok()) {
        auto push = Push(s.out, r->sga);
        if (push.ok()) {
          s.push_token = *push;
        }
      }
    }
  }
  return progress;
}

void LibOS::MarkDirty(IoQueue* queue) {
  if (!sparse_polling_ || queue == nullptr || queue->dirty_listed) {
    return;
  }
  queue->dirty_listed = true;
  dirty_queues_.push_back(queue);
}

void LibOS::MarkAllDirty() {
  if (!sparse_polling_) {
    return;
  }
  for (auto& [qd, q] : qtable_) {
    MarkDirty(q.get());
  }
}

bool LibOS::Poll() {
  bool progress = false;
  if (sparse_polling_) {
    // Visit only dirty queues; a queue leaves the set when a visit yields nothing
    // AND it reports quiescence, so stalled work (full TX window, pending pops) keeps
    // its queue in the set. Progress may MarkDirty other queues mid-loop — the index
    // loop picks appended entries up this same poll.
    for (std::size_t i = 0; i < dirty_queues_.size();) {
      IoQueue* q = dirty_queues_[i];
      const bool did = q->Progress(*this);
      progress |= did;
      if (!did && q->Quiescent()) {
        q->dirty_listed = false;
        dirty_queues_[i] = dirty_queues_.back();
        dirty_queues_.pop_back();
      } else {
        ++i;
      }
    }
  } else {
    // Iterate a snapshot: Progress may install queues (not expected, but combinators
    // issue internal ops through the libOS which can mutate tables). The scratch
    // vector is a member so steady-state polling does not allocate.
    poll_scratch_.clear();
    poll_scratch_.reserve(qtable_.size());
    for (auto& [qd, q] : qtable_) {
      poll_scratch_.push_back(q.get());
    }
    for (IoQueue* q : poll_scratch_) {
      progress |= q->Progress(*this);
    }
  }
  progress |= PollDevice();
  progress |= PollControlOps();
  progress |= PollSplices();
  return progress;
}

}  // namespace demi
