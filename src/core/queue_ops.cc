#include "src/core/queue_ops.h"

#include <algorithm>

namespace demi {

namespace {

QResult MakePopResult(SgArray sga) {
  QResult r;
  r.op = OpType::kPop;
  r.sga = std::move(sga);
  return r;
}

QResult MakePushResult(Status status = OkStatus()) {
  QResult r;
  r.op = OpType::kPush;
  r.status = std::move(status);
  return r;
}

}  // namespace

// --- MemoryQueue ---

Status MemoryQueue::StartPush(QToken token, const SgArray& sga) {
  if (closed_) {
    return BadDescriptor("push on closed queue");
  }
  elements_.push_back(sga);
  ready_.emplace_back(token, MakePushResult());
  return OkStatus();
}

Status MemoryQueue::StartPop(QToken token) {
  if (closed_) {
    return BadDescriptor("pop on closed queue");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool MemoryQueue::Progress(CompletionSink& sink) {
  bool progress = false;
  while (!ready_.empty()) {
    auto [token, result] = std::move(ready_.front());
    ready_.pop_front();
    sink.CompleteOp(token, std::move(result));
    progress = true;
  }
  while (!pending_pops_.empty() && !elements_.empty()) {
    const QToken token = pending_pops_.front();
    pending_pops_.pop_front();
    SgArray sga = std::move(elements_.front());
    elements_.pop_front();
    sink.CompleteOp(token, MakePopResult(std::move(sga)));
    progress = true;
  }
  return progress;
}

Status MemoryQueue::Cancel(QToken token) {
  auto it = std::find(pending_pops_.begin(), pending_pops_.end(), token);
  if (it == pending_pops_.end()) {
    return NotFound("no pending pop");
  }
  pending_pops_.erase(it);
  return OkStatus();
}

Status MemoryQueue::Close() {
  closed_ = true;
  return OkStatus();
}

// --- CombinatorQueue ---

Status CombinatorQueue::Close() {
  closed_ = true;
  return OkStatus();
}

std::optional<QResult> CombinatorQueue::PumpInnerPop(QDesc qd, InnerPop& state) {
  if (state.token == kInvalidQToken) {
    auto token = libos_->Pop(qd);
    if (token.ok()) {
      state.token = *token;
    }
    return std::nullopt;
  }
  if (!libos_->OpDone(state.token)) {
    return std::nullopt;
  }
  auto r = libos_->TakeResultInternal(state.token);
  state.token = kInvalidQToken;
  if (!r.ok()) {
    return std::nullopt;
  }
  return std::move(*r);
}

// --- MergeQueue ---

Status MergeQueue::StartPush(QToken token, const SgArray& sga) {
  if (closed_) {
    return BadDescriptor("push on closed merge queue");
  }
  auto a = libos_->Push(inner_, sga);
  RETURN_IF_ERROR(a.status());
  auto b = libos_->Push(inner2_, sga);
  RETURN_IF_ERROR(b.status());
  pushes_.push_back(DualPush{token, *a, *b});
  return OkStatus();
}

Status MergeQueue::StartPop(QToken token) {
  if (closed_) {
    return BadDescriptor("pop on closed merge queue");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool MergeQueue::Progress(CompletionSink& sink) {
  bool progress = false;
  // Keep pops outstanding on both inner queues only while users are waiting (or data
  // is buffered below the user's demand) so we do not starve direct inner users.
  if (!pending_pops_.empty()) {
    if (auto r = PumpInnerPop(inner_, pop1_); r && r->status.ok()) {
      buffered_.push_back(std::move(r->sga));
      progress = true;
    }
    if (auto r = PumpInnerPop(inner2_, pop2_); r && r->status.ok()) {
      buffered_.push_back(std::move(r->sga));
      progress = true;
    }
  }
  while (!pending_pops_.empty() && !buffered_.empty()) {
    sink.CompleteOp(pending_pops_.front(), MakePopResult(std::move(buffered_.front())));
    pending_pops_.pop_front();
    buffered_.pop_front();
    progress = true;
  }
  for (auto it = pushes_.begin(); it != pushes_.end();) {
    if (libos_->OpDone(it->a) && libos_->OpDone(it->b)) {
      auto ra = libos_->TakeResultInternal(it->a);
      auto rb = libos_->TakeResultInternal(it->b);
      Status status = OkStatus();
      if (ra.ok() && !ra->status.ok()) {
        status = ra->status;
      } else if (rb.ok() && !rb->status.ok()) {
        status = rb->status;
      }
      sink.CompleteOp(it->user, MakePushResult(std::move(status)));
      it = pushes_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  return progress;
}

// --- FilterQueue ---

Status FilterQueue::StartPush(QToken token, const SgArray& sga) {
  if (closed_) {
    return BadDescriptor("push on closed filter queue");
  }
  if (!offloaded_) {
    libos_->host().Work(pred_.host_cost_ns);
  }
  if (!pred_.fn(sga)) {
    // Element filtered out: the push "succeeds" but nothing reaches the inner queue.
    ready_.emplace_back(token, MakePushResult());
    return OkStatus();
  }
  auto inner_token = libos_->Push(inner_, sga);
  RETURN_IF_ERROR(inner_token.status());
  pushes_.push_back(ForwardPush{token, *inner_token});
  return OkStatus();
}

Status FilterQueue::StartPop(QToken token) {
  if (closed_) {
    return BadDescriptor("pop on closed filter queue");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool FilterQueue::Progress(CompletionSink& sink) {
  bool progress = false;
  while (!ready_.empty()) {
    sink.CompleteOp(ready_.front().first, std::move(ready_.front().second));
    ready_.pop_front();
    progress = true;
  }
  if (!pending_pops_.empty()) {
    if (auto r = PumpInnerPop(inner_, pop_); r && r->status.ok()) {
      progress = true;
      bool pass = true;
      if (!offloaded_) {
        // CPU fallback: the host pays to inspect (and possibly discard) the element —
        // exactly the work a device filter would have saved (§4.3, experiment C6).
        libos_->host().Work(pred_.host_cost_ns);
        pass = pred_.fn(r->sga);
      }
      if (pass) {
        sink.CompleteOp(pending_pops_.front(), MakePopResult(std::move(r->sga)));
        pending_pops_.pop_front();
      } else {
        ++dropped_on_cpu_;
      }
    }
  }
  for (auto it = pushes_.begin(); it != pushes_.end();) {
    if (libos_->OpDone(it->inner_token)) {
      auto r = libos_->TakeResultInternal(it->inner_token);
      sink.CompleteOp(it->user, MakePushResult(r.ok() ? r->status : r.status()));
      it = pushes_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  return progress;
}

// --- SortQueue ---

void SortQueue::InsertSorted(SgArray sga) {
  // Binary insertion; comparisons charge the user-function cost.
  auto higher_priority = [this](const SgArray& a, const SgArray& b) {
    libos_->host().Work(cmp_.host_cost_ns);
    return cmp_.fn(a, b);
  };
  // buffered_ is sorted ascending by priority (highest at the back): an element
  // orders before the inserted value iff the value outranks it.
  auto it = std::lower_bound(
      buffered_.begin(), buffered_.end(), sga,
      [&](const SgArray& elem, const SgArray& v) { return higher_priority(v, elem); });
  buffered_.insert(it, std::move(sga));
}

Status SortQueue::StartPush(QToken token, const SgArray& sga) {
  if (closed_) {
    return BadDescriptor("push on closed sort queue");
  }
  InsertSorted(sga);
  ready_.emplace_back(token, MakePushResult());
  return OkStatus();
}

Status SortQueue::StartPop(QToken token) {
  if (closed_) {
    return BadDescriptor("pop on closed sort queue");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool SortQueue::Progress(CompletionSink& sink) {
  bool progress = false;
  while (!ready_.empty()) {
    sink.CompleteOp(ready_.front().first, std::move(ready_.front().second));
    ready_.pop_front();
    progress = true;
  }
  // Drain the inner queue into the priority buffer whenever demand exists.
  if (!pending_pops_.empty()) {
    if (auto r = PumpInnerPop(inner_, pop_); r && r->status.ok()) {
      InsertSorted(std::move(r->sga));
      progress = true;
    }
  }
  while (!pending_pops_.empty() && !buffered_.empty()) {
    SgArray top = std::move(buffered_.back());
    buffered_.pop_back();
    sink.CompleteOp(pending_pops_.front(), MakePopResult(std::move(top)));
    pending_pops_.pop_front();
    progress = true;
  }
  return progress;
}

// --- MapQueueImpl ---

Status MapQueueImpl::StartPush(QToken token, const SgArray& sga) {
  if (closed_) {
    return BadDescriptor("push on closed map queue");
  }
  libos_->host().Work(transform_.host_cost_ns);
  auto inner_token = libos_->Push(inner_, transform_.fn(sga));
  RETURN_IF_ERROR(inner_token.status());
  pushes_.push_back(ForwardPush{token, *inner_token});
  return OkStatus();
}

Status MapQueueImpl::StartPop(QToken token) {
  if (closed_) {
    return BadDescriptor("pop on closed map queue");
  }
  pending_pops_.push_back(token);
  return OkStatus();
}

bool MapQueueImpl::Progress(CompletionSink& sink) {
  bool progress = false;
  if (!pending_pops_.empty()) {
    if (auto r = PumpInnerPop(inner_, pop_); r && r->status.ok()) {
      libos_->host().Work(transform_.host_cost_ns);
      sink.CompleteOp(pending_pops_.front(), MakePopResult(transform_.fn(r->sga)));
      pending_pops_.pop_front();
      progress = true;
    }
  }
  for (auto it = pushes_.begin(); it != pushes_.end();) {
    if (libos_->OpDone(it->inner_token)) {
      auto r = libos_->TakeResultInternal(it->inner_token);
      sink.CompleteOp(it->user, MakePushResult(r.ok() ? r->status : r.status()));
      it = pushes_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  return progress;
}

}  // namespace demi
