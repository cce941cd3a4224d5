#include "src/core/queue_ops.h"

#include <algorithm>
#include <utility>

namespace demi {

// --- MemoryQueue ---

Status MemoryQueue::StartPush(QToken token, const SgArray& sga) {
  elements_.push_back(sga);
  ready_.emplace_back(token, MakeQResult(OpType::kPush));
  return OkStatus();
}

Status MemoryQueue::StartPop(QToken token) {
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
    sink.CompleteOp(token, MakeQResult(OpType::kPop, OkStatus(), std::move(sga)));
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

// --- CombinatorQueue ---

std::optional<QResult> CombinatorQueue::PumpInnerPop(QDesc qd, InnerPop& state) {
  if (state.token == kInvalidQToken) {
    auto token = libos_->Pop(qd);
    if (!token.ok()) {
      // A queue that is gone fails the pop for good. Any other refusal (a socket not
      // yet connected, say) may clear, so the pop is tried again next poll.
      if (token.status().code() == ErrorCode::kBadDescriptor) {
        return MakeQResult(OpType::kPop, token.status());
      }
      return std::nullopt;
    }
    state.token = *token;
    return std::nullopt;
  }
  if (!libos_->OpDone(state.token)) {
    return std::nullopt;
  }
  auto r = libos_->TakeResultInternal(state.token);
  state.token = kInvalidQToken;
  if (!r.ok()) {
    return MakeQResult(OpType::kPop, r.status());
  }
  return std::move(*r);
}

// --- MergeQueue ---

Status MergeQueue::StartPush(QToken token, const SgArray& sga) {
  auto a = libos_->Push(inner_, sga);
  RETURN_IF_ERROR(a.status());
  auto b = libos_->Push(inner2_, sga);
  RETURN_IF_ERROR(b.status());
  pushes_.push_back(DualPush{token, *a, *b});
  return OkStatus();
}

Status MergeQueue::StartPop(QToken token) {
  pending_pops_.push_back(token);
  return OkStatus();
}

bool MergeQueue::PumpInner(QDesc qd, InnerPop& state, Status& error) {
  if (!error.ok()) {
    return false;
  }
  auto r = PumpInnerPop(qd, state);
  if (!r) {
    return false;
  }
  if (!r->status.ok()) {
    error = std::move(r->status);
    return false;
  }
  buffered_.push_back(std::move(r->sga));
  return true;
}

bool MergeQueue::Progress(CompletionSink& sink) {
  bool progress = false;
  // Keep pops outstanding on both inner queues only while users are waiting (or data
  // is buffered below the user's demand) so we do not starve direct inner users.
  if (!pending_pops_.empty()) {
    progress |= PumpInner(inner_, pop1_, error1_);
    progress |= PumpInner(inner2_, pop2_, error2_);
  }
  while (!pending_pops_.empty() && !buffered_.empty()) {
    SgArray sga = std::move(buffered_.front());
    buffered_.pop_front();
    sink.CompleteOp(pending_pops_.front(),
                    MakeQResult(OpType::kPop, OkStatus(), std::move(sga)));
    pending_pops_.pop_front();
    progress = true;
  }
  // Once both inner queues have failed, no element can come any more.
  if (!error1_.ok() && !error2_.ok()) {
    while (!pending_pops_.empty()) {
      sink.CompleteOp(pending_pops_.front(), MakeQResult(OpType::kPop, error1_));
      pending_pops_.pop_front();
      progress = true;
    }
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
      sink.CompleteOp(it->user, MakeQResult(OpType::kPush, std::move(status)));
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
  if (!offloaded_) {
    libos_->host().Work(pred_.host_cost_ns);
  }
  if (!pred_.fn(sga)) {
    // Element filtered out: the push "succeeds" but nothing reaches the inner queue.
    ready_.emplace_back(token, MakeQResult(OpType::kPush));
    return OkStatus();
  }
  auto inner_token = libos_->Push(inner_, sga);
  RETURN_IF_ERROR(inner_token.status());
  pushes_.push_back(ForwardPush{token, *inner_token});
  return OkStatus();
}

Status FilterQueue::StartPop(QToken token) {
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
    if (auto r = PumpInnerPop(inner_, pop_); r && !r->status.ok()) {
      sink.CompleteOp(pending_pops_.front(),
                      MakeQResult(OpType::kPop, std::move(r->status)));
      pending_pops_.pop_front();
      progress = true;
    } else if (r) {
      progress = true;
      bool pass = true;
      if (!offloaded_) {
        // CPU fallback: the host pays to inspect (and possibly discard) the element —
        // exactly the work a device filter would have saved (§4.3, experiment C6).
        libos_->host().Work(pred_.host_cost_ns);
        pass = pred_.fn(r->sga);
      }
      if (pass) {
        sink.CompleteOp(pending_pops_.front(),
                        MakeQResult(OpType::kPop, OkStatus(), std::move(r->sga)));
        pending_pops_.pop_front();
      } else {
        ++dropped_on_cpu_;
      }
    }
  }
  for (auto it = pushes_.begin(); it != pushes_.end();) {
    if (libos_->OpDone(it->inner_token)) {
      auto r = libos_->TakeResultInternal(it->inner_token);
      sink.CompleteOp(it->user,
                      MakeQResult(OpType::kPush, r.ok() ? r->status : r.status()));
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
  InsertSorted(sga);
  ready_.emplace_back(token, MakeQResult(OpType::kPush));
  return OkStatus();
}

Status SortQueue::StartPop(QToken token) {
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
    } else if (r) {
      inner_error_ = std::move(r->status);
    }
  }
  while (!pending_pops_.empty() && !buffered_.empty()) {
    SgArray top = std::move(buffered_.back());
    buffered_.pop_back();
    sink.CompleteOp(pending_pops_.front(),
                    MakeQResult(OpType::kPop, OkStatus(), std::move(top)));
    pending_pops_.pop_front();
    progress = true;
  }
  // An inner failure fails the oldest pop that nothing buffered could serve.
  if (!pending_pops_.empty() && !inner_error_.ok()) {
    sink.CompleteOp(pending_pops_.front(),
                    MakeQResult(OpType::kPop, std::exchange(inner_error_, OkStatus())));
    pending_pops_.pop_front();
    progress = true;
  }
  return progress;
}

// --- MapQueueImpl ---

Status MapQueueImpl::StartPush(QToken token, const SgArray& sga) {
  libos_->host().Work(transform_.host_cost_ns);
  auto inner_token = libos_->Push(inner_, transform_.fn(sga));
  RETURN_IF_ERROR(inner_token.status());
  pushes_.push_back(ForwardPush{token, *inner_token});
  return OkStatus();
}

Status MapQueueImpl::StartPop(QToken token) {
  pending_pops_.push_back(token);
  return OkStatus();
}

bool MapQueueImpl::Progress(CompletionSink& sink) {
  bool progress = false;
  if (!pending_pops_.empty()) {
    if (auto r = PumpInnerPop(inner_, pop_)) {
      if (r->status.ok()) {
        libos_->host().Work(transform_.host_cost_ns);
        sink.CompleteOp(pending_pops_.front(),
                        MakeQResult(OpType::kPop, OkStatus(), transform_.fn(r->sga)));
      } else {
        sink.CompleteOp(pending_pops_.front(),
                        MakeQResult(OpType::kPop, std::move(r->status)));
      }
      pending_pops_.pop_front();
      progress = true;
    }
  }
  for (auto it = pushes_.begin(); it != pushes_.end();) {
    if (libos_->OpDone(it->inner_token)) {
      auto r = libos_->TakeResultInternal(it->inner_token);
      sink.CompleteOp(it->user,
                      MakeQResult(OpType::kPush, r.ok() ? r->status : r.status()));
      it = pushes_.erase(it);
      progress = true;
    } else {
      ++it;
    }
  }
  return progress;
}

}  // namespace demi
