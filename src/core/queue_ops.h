// Combinator queues of §4.2/§4.3: queue(), merge, filter, sort, and map.
//
// Applications combine these to express I/O processing pipelines; the libOS runs each
// stage on the CPU unless the underlying device can take it (filter offload is plumbed
// through IoQueue::SupportsFilterOffload/InstallOffloadFilter; see the Catnip UDP
// queue and bench_c6_offload).
//
// Combinators reference their inner queues by descriptor and drive them through the
// owning LibOS with *internal* tokens, so user-visible wakeup accounting stays exact.

#ifndef SRC_CORE_QUEUE_OPS_H_
#define SRC_CORE_QUEUE_OPS_H_

#include <deque>
#include <vector>

#include "src/core/libos.h"
#include "src/core/queue.h"

namespace demi {

// queue(): an in-memory FIFO of atomic units. Pushes complete immediately; pops
// complete when an element is available.
class MemoryQueue final : public IoQueue {
 public:
  explicit MemoryQueue(HostCpu* host) : host_(host) {}

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;
  // Removes a pending pop; a push is done once started, so kNotFound.
  Status Cancel(QToken token) override;

  std::size_t depth() const { return elements_.size(); }

 private:
  HostCpu* host_;
  std::deque<SgArray> elements_;
  std::deque<QToken> pending_pops_;
  std::deque<std::pair<QToken, QResult>> ready_;  // completions to flush
};

// Base for combinators that wrap inner queues via the owning libOS.
class CombinatorQueue : public IoQueue {
 public:
  CombinatorQueue(LibOS* libos, QDesc inner) : libos_(libos), inner_(inner) {}

 protected:
  // Ensures one internal pop is outstanding on `qd`; returns the completed result if
  // one arrived (consuming the token). A pop that fails, or that finds the inner
  // queue gone (kBadDescriptor), comes back as a result carrying the error: the
  // combinator fails its own oldest pending pop with it, after serving anything it
  // has buffered. Any other refusal (a socket not yet connected, say) may clear, so
  // the pop is tried again on the next poll.
  struct InnerPop {
    QToken token = kInvalidQToken;
  };
  std::optional<QResult> PumpInnerPop(QDesc qd, InnerPop& state);

  LibOS* libos_;
  QDesc inner_;
};

// merge(q1, q2): pops surface elements from either inner queue (arrival order);
// pushes go to both. An inner queue whose pop fails is not popped again; once both
// have failed, every pending pop fails with the first queue's error.
class MergeQueue final : public CombinatorQueue {
 public:
  MergeQueue(LibOS* libos, QDesc inner1, QDesc inner2)
      : CombinatorQueue(libos, inner1), inner2_(inner2) {}

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

 private:
  // Pumps one inner queue unless it has failed; true when an element arrived.
  bool PumpInner(QDesc qd, InnerPop& state, Status& error);

  QDesc inner2_;
  InnerPop pop1_, pop2_;
  Status error1_, error2_;  // why each inner queue's pop failed; OK while it works
  std::deque<SgArray> buffered_;
  std::deque<QToken> pending_pops_;
  // Outstanding double-pushes: user token -> the two inner push tokens.
  struct DualPush {
    QToken user;
    QToken a, b;
  };
  std::vector<DualPush> pushes_;
};

// filter(q, pred): pops deliver only elements passing `pred`; pushes forward only
// passing elements. When `offloaded`, the device already dropped failing elements on
// the pop path and the CPU pays nothing (§4.3).
class FilterQueue final : public CombinatorQueue {
 public:
  FilterQueue(LibOS* libos, QDesc inner, ElementPredicate pred, bool offloaded)
      : CombinatorQueue(libos, inner), pred_(std::move(pred)), offloaded_(offloaded) {}

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;
  bool offloaded() const { return offloaded_; }
  std::uint64_t dropped_on_cpu() const { return dropped_on_cpu_; }

 private:
  ElementPredicate pred_;
  bool offloaded_;
  InnerPop pop_;
  std::deque<QToken> pending_pops_;
  std::deque<std::pair<QToken, QResult>> ready_;
  struct ForwardPush {
    QToken user;
    QToken inner_token;
  };
  std::vector<ForwardPush> pushes_;
  std::uint64_t dropped_on_cpu_ = 0;
};

// sort(q, cmp): maintains a priority buffer; pops return the highest-priority element
// among everything pushed into it or drained from the inner queue (§4.2: useful for
// application-specific priorities).
class SortQueue final : public CombinatorQueue {
 public:
  SortQueue(LibOS* libos, QDesc inner, ElementComparator cmp)
      : CombinatorQueue(libos, inner), cmp_(std::move(cmp)) {}

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;
  std::size_t depth() const { return buffered_.size(); }

 private:
  void InsertSorted(SgArray sga);

  ElementComparator cmp_;
  InnerPop pop_;
  std::vector<SgArray> buffered_;  // kept sorted, highest priority at the back
  // An inner pop's failure, held for the next pop that nothing buffered serves.
  Status inner_error_;
  std::deque<QToken> pending_pops_;
  std::deque<std::pair<QToken, QResult>> ready_;
};

// map(q, fn): applies `fn` to every element on both directions.
class MapQueueImpl final : public CombinatorQueue {
 public:
  MapQueueImpl(LibOS* libos, QDesc inner, ElementTransform transform)
      : CombinatorQueue(libos, inner), transform_(std::move(transform)) {}

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

 private:
  ElementTransform transform_;
  InnerPop pop_;
  std::deque<QToken> pending_pops_;
  struct ForwardPush {
    QToken user;
    QToken inner_token;
  };
  std::vector<ForwardPush> pushes_;
};

}  // namespace demi

#endif  // SRC_CORE_QUEUE_OPS_H_
