// IoQueue: the abstract Demikernel I/O queue (§4.2).
//
// Every queue — network socket, storage log, in-memory pipe, or a combinator over
// other queues — carries *atomic units*: scatter-gather arrays pushed as one element
// and popped as one element. Concrete queues are provided by the library OSes
// (Catnap/Catnip/Catmint/Catfish) and by the combinators in queue_ops.h.
//
// Progress model: operations are registered (StartPush/StartPop) and completed later
// from Progress(), which each libOS's poll loop drives. Completion goes through the
// CompletionSink (the owning LibOS), which wakes exactly the waiter holding that
// qtoken.

#ifndef SRC_CORE_QUEUE_H_
#define SRC_CORE_QUEUE_H_

#include <memory>

#include "src/common/result.h"
#include "src/core/types.h"
#include "src/hw/pushdown.h"
#include "src/net/packet.h"

namespace demi {

// Where queues deliver finished operations.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void CompleteOp(QToken token, QResult result) = 0;
};

class IoQueue {
 public:
  virtual ~IoQueue() = default;

  // --- data path ---

  // Registers a push of `sga`; the queue completes `token` when it has taken
  // responsibility for the element (transmitted/queued/durable, per queue type).
  virtual Status StartPush(QToken token, const SgArray& sga) = 0;
  // Registers a pop; the queue completes `token` with the next atomic unit.
  virtual Status StartPop(QToken token) = 0;
  // Advances queue machinery; completes pending operations via `sink`.
  // Returns true if any work was done.
  virtual bool Progress(CompletionSink& sink) = 0;

  // --- control path (optional per queue type) ---

  virtual Status Bind(std::uint16_t port) { return Unsupported("bind"); }
  virtual Status Listen() { return Unsupported("listen"); }
  // Non-blocking accept: a new connection's queue, kWouldBlock, or a hard error.
  virtual Result<std::unique_ptr<IoQueue>> TryAccept() {
    return Status(ErrorCode::kUnsupported, "accept");
  }
  virtual Status StartConnect(Endpoint remote) { return Unsupported("connect"); }
  // Connect progress: OK once established, kWouldBlock while in flight, error if dead.
  virtual Status ConnectStatus() { return Unsupported("connect"); }

  // Abandons one registered-but-incomplete operation: the queue forgets the token and
  // will never complete it. kNotFound if the token is unknown or already completed;
  // a queue that cannot un-register the op (any op on some queues; a push whose
  // frame is partly written on a stream) returns kUnsupported and the libOS instead
  // drops the completion when it eventually arrives, or releases the token when the
  // queue is closed first.
  virtual Status Cancel(QToken token) { return Unsupported("cancel"); }

  // Graceful close, called once. LibOS::Close has already taken the queue out of its
  // table, so no op can start on it any more; the queue is destroyed right after, and
  // LibOS::Close then completes every operation still pending on it with kCancelled,
  // so Close need not. The default suits a queue with nothing to release but memory.
  virtual Status Close() { return OkStatus(); }

  // --- offload hooks (§4.3) ---

  // True when this queue can push an element filter down to its device.
  virtual bool SupportsFilterOffload() const { return false; }
  virtual Status InstallOffloadFilter(const ElementPredicate& pred) {
    return Unsupported("offload");
  }

  // Registers a device-side chained read rooted at queue-relative block `root_block`;
  // the queue completes `token` (pop-like) with the program's final value as the
  // element. The whole chain is one host completion; a mid-chain device fault or an
  // exhausted depth budget surfaces as the token's typed status.
  virtual Status StartPushdown(QToken token, PushdownProgramId program,
                               std::uint64_t root_block, const SgArray& arg) {
    return PushdownUnsupported("pushdown");
  }

  // --- sparse-polling hooks (LibOS::EnableSparsePolling, DESIGN.md §13) ---

  // True when the queue holds no registered-but-incomplete work and no undelivered
  // inbound data, so a sparse poller may drop it from the dirty set until the queue
  // marks itself dirty again. The conservative default keeps a queue type that never
  // marks itself permanently in the dirty set (dense behavior).
  virtual bool Quiescent() const { return false; }

  // Intrusive dirty-set membership flag; owned by the LibOS (see LibOS::MarkDirty).
  bool dirty_listed = false;
};

}  // namespace demi

#endif  // SRC_CORE_QUEUE_H_
