// StreamQueue: Demikernel queue elements over a byte stream (§5.2).
//
// A TCP connection carries bytes; a queue carries atomic units. Each pushed element
// goes out as one length-prefixed frame, and a FrameDecoder cuts the received bytes
// back into elements, one per pop. This class holds that bridge once: the pending
// pushes and pops, Cancel, the write loop that keeps each push's unwritten tail, and
// the loop that decodes frames, serves pops and fails them once the stream has ended.
// Catnap (kernel sockets) and plain Catnip (user-level TCP) derive from it and keep
// their control path plus three byte-stream steps: write some bytes of a frame, read
// what has arrived into the decoder, and say whether (and why) the stream has ended.

#ifndef SRC_CORE_STREAM_QUEUE_H_
#define SRC_CORE_STREAM_QUEUE_H_

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/fifo.h"
#include "src/core/queue.h"
#include "src/net/framing.h"

namespace demi {

class StreamQueue : public IoQueue {
 public:
  Status StartPush(QToken token, const SgArray& sga) final;
  Status StartPop(QToken token) final;
  bool Progress(CompletionSink& sink) final;
  // Removes an op that has not started. A push whose frame is partly in the stream
  // is refused (kUnsupported): dropping its tail would leave the peer a header
  // without its body, so the libOS abandons the token and the frame finishes.
  Status Cancel(QToken token) final;

 protected:
  StreamQueue() = default;
  // Takes over a stream another queue began reading: its decoder state, and the
  // element it already decoded, which the first pop receives.
  StreamQueue(FrameDecoder decoder, SgArray first)
      : decoder_(std::move(decoder)), first_(std::move(first)) {}

  // --- the transport's steps ---

  // Checked as a push or pop starts: an error refuses the op.
  virtual Status Admit(OpType op) { return OkStatus(); }
  // False while the queue has no stream to move bytes on (a listener, say): Progress
  // then does nothing and pending ops wait.
  virtual bool HasStream() const = 0;
  // The wire parts of one pushed element, framed.
  virtual std::vector<Buffer> Frame(const SgArray& sga) = 0;
  // Why the stream takes no more bytes, asked before each poll's writes while pushes
  // are pending: an error fails every one of them. OK while writes may succeed.
  virtual Status WriteClosed() { return OkStatus(); }
  // Writes a prefix of `parts`: the bytes the stream took (0 when it has no room
  // now), or the error that fails this push.
  virtual Result<std::size_t> WriteSome(std::span<const Buffer> parts) = 0;
  // Feeds the bytes that have arrived into `decoder`; true if there were any. Runs
  // only while pops are pending.
  virtual bool ReadAvailable(FrameDecoder& decoder) = 0;
  // Why a pop the decoder cannot serve will never be served: an error ends it. OK
  // while more bytes may come. `decode_error` is the decoder's own error, OK unless
  // the stream is corrupt.
  virtual Status ReadClosed(const Status& decode_error) = 0;

  std::size_t pending_pushes() const { return pushes_.size(); }
  bool has_first() const { return first_.has_value(); }

 private:
  struct PendingPush {
    QToken token;
    std::vector<Buffer> parts;  // the frame's unwritten wire parts
    bool started = false;       // part of the frame is in the stream: not cancellable
  };

  FrameDecoder decoder_;
  Fifo<PendingPush> pushes_;
  Fifo<QToken> pops_;
  std::optional<SgArray> first_;
};

}  // namespace demi

#endif  // SRC_CORE_STREAM_QUEUE_H_
