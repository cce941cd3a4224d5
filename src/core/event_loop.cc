#include "src/core/event_loop.h"

namespace demi {

DemiEventLoop::DemiEventLoop(LibOS* libos) : libos_(libos) {
  libos_->sim().AddPoller(this);
}

DemiEventLoop::~DemiEventLoop() {
  for (auto& [qd, watch] : watches_) {
    if (watch.token != kInvalidQToken) {
      (void)libos_->CancelOp(watch.token);
    }
  }
  libos_->sim().RemovePoller(this);
}

void DemiEventLoop::OnTokenComplete(QToken token, QDesc qd) {
  (void)token;
  ready_.push_back(qd);
}

void DemiEventLoop::Arm(QDesc qd, Watch& watch) {
  if (watch.is_accept) {
    auto token = libos_->AcceptAsync(qd);
    watch.token = token.ok() ? *token : kInvalidQToken;
  } else {
    auto token = libos_->Pop(qd);
    watch.token = token.ok() ? *token : kInvalidQToken;
  }
  if (watch.token != kInvalidQToken) {
    // Already-completed tokens fire into ready_ now and dispatch next Poll round.
    (void)libos_->WatchToken(watch.token, this);
  }
}

Status DemiEventLoop::WatchAccept(QDesc listen_qd, AcceptHandler handler) {
  if (watches_.contains(listen_qd)) {
    return AlreadyExists("queue already watched");
  }
  Watch watch;
  watch.is_accept = true;
  watch.on_accept = std::move(handler);
  Arm(listen_qd, watch);
  if (watch.token == kInvalidQToken) {
    return InvalidArgument("queue does not accept");
  }
  watches_[listen_qd] = std::move(watch);
  return OkStatus();
}

Status DemiEventLoop::WatchPop(QDesc qd, PopHandler handler) {
  if (watches_.contains(qd)) {
    return AlreadyExists("queue already watched");
  }
  Watch watch;
  watch.on_pop = std::move(handler);
  Arm(qd, watch);
  if (watch.token == kInvalidQToken) {
    return InvalidArgument("queue cannot pop");
  }
  watches_[qd] = std::move(watch);
  return OkStatus();
}

void DemiEventLoop::Unwatch(QDesc qd) {
  auto it = watches_.find(qd);
  if (it == watches_.end()) {
    return;
  }
  if (it->second.token != kInvalidQToken) {
    // Disarm, not just unwatch: a pop left armed would take the queue's next element
    // for a token nobody reads.
    (void)libos_->CancelOp(it->second.token);
  }
  watches_.erase(it);
}

void DemiEventLoop::CallLater(TimeNs delay, std::function<void()> fn) {
  libos_->sim().Schedule(delay, std::move(fn));
}

bool DemiEventLoop::Poll() {
  if (ready_.empty()) {
    return false;
  }
  bool progress = false;
  // Swap into scratch: handlers may watch/unwatch (growing ready_) from callbacks.
  scratch_.clear();
  std::swap(ready_, scratch_);
  libos_->sim().metrics().RecordStat(SimStat::kEventLoopBatch, scratch_.size());
  for (const QDesc qd : scratch_) {
    auto it = watches_.find(qd);
    if (it == watches_.end()) {
      continue;  // unwatched by an earlier callback this round
    }
    Watch& watch = it->second;
    if (watch.token == kInvalidQToken || !libos_->OpDone(watch.token)) {
      continue;  // stale notification (token already consumed and re-armed)
    }
    auto result = libos_->TakeResult(watch.token);
    watch.token = kInvalidQToken;
    progress = true;
    ++dispatched_;
    if (watch.is_accept) {
      if (result.ok() && result->status.ok()) {
        AcceptHandler handler = watch.on_accept;  // copy: handler may unwatch
        Arm(qd, watch);
        handler(result->new_qd);
      } else {
        Watch dead = std::move(watch);
        watches_.erase(it);
        (void)dead;  // accept failed terminally; drop the watch
      }
      continue;
    }
    if (result.ok() && result->status.ok()) {
      PopHandler handler = watch.on_pop;
      Arm(qd, watch);
      handler(qd, std::move(result->sga));
    } else {
      PopHandler handler = std::move(watch.on_pop);
      const Status status = result.ok() ? result->status : result.status();
      watches_.erase(it);
      handler(qd, status);  // terminal delivery (EOF/reset), watch removed
    }
  }
  return progress;
}

}  // namespace demi
