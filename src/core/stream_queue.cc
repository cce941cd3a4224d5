#include "src/core/stream_queue.h"

namespace demi {

Status StreamQueue::StartPush(QToken token, const SgArray& sga) {
  RETURN_IF_ERROR(Admit(OpType::kPush));
  pushes_.push_back(PendingPush{token, Frame(sga)});
  return OkStatus();
}

Status StreamQueue::StartPop(QToken token) {
  RETURN_IF_ERROR(Admit(OpType::kPop));
  pops_.push_back(token);
  return OkStatus();
}

Status StreamQueue::Cancel(QToken token) {
  for (std::size_t i = 0; i < pushes_.size(); ++i) {
    if (pushes_[i].token == token) {
      if (pushes_[i].started) {
        return Unsupported("push partly written");
      }
      pushes_.erase(i);
      return OkStatus();
    }
  }
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    if (pops_[i] == token) {
      pops_.erase(i);
      return OkStatus();
    }
  }
  return NotFound("token not pending on this queue");
}

bool StreamQueue::Progress(CompletionSink& sink) {
  if (!HasStream()) {
    return false;
  }
  bool progress = false;

  if (!pushes_.empty()) {
    const Status closed = WriteClosed();
    if (!closed.ok()) {
      while (!pushes_.empty()) {
        sink.CompleteOp(pushes_.front().token, MakeQResult(OpType::kPush, closed));
        pushes_.pop_front();
      }
      progress = true;
    }
  }
  // Frames go out in push order; a push completes once its whole frame is written.
  while (!pushes_.empty()) {
    PendingPush& push = pushes_.front();
    auto written = WriteSome(push.parts);
    if (written.ok()) {
      DropFront(push.parts, *written);
      progress |= *written > 0;
      push.started |= *written > 0;
      if (!push.parts.empty()) {
        break;  // the stream is full: the tail waits for room
      }
    }
    // The whole frame is written, or an error fails the push.
    sink.CompleteOp(push.token, MakeQResult(OpType::kPush, written.status()));
    pushes_.pop_front();
    progress = true;
    if (!written.ok()) {
      break;
    }
  }

  if (!pops_.empty() && first_.has_value()) {
    sink.CompleteOp(pops_.front(),
                    MakeQResult(OpType::kPop, OkStatus(), std::move(*first_)));
    first_.reset();
    pops_.pop_front();
    progress = true;
  }
  if (!pops_.empty()) {
    progress |= ReadAvailable(decoder_);
  }
  while (!pops_.empty()) {
    auto decoded = decoder_.Next();
    if (decoded.ok() && decoded->has_value()) {
      sink.CompleteOp(pops_.front(),
                      MakeQResult(OpType::kPop, OkStatus(), std::move(**decoded)));
      pops_.pop_front();
      progress = true;
      continue;
    }
    Status closed = ReadClosed(decoded.status());
    if (closed.ok()) {
      break;  // need more bytes
    }
    sink.CompleteOp(pops_.front(), MakeQResult(OpType::kPop, std::move(closed)));
    pops_.pop_front();
    progress = true;
  }
  return progress;
}

}  // namespace demi
