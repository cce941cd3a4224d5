// DemiEventLoop: a libevent-style callback dispatcher over Demikernel queues.
//
// §4.4: "In the future, we plan to implement a libevent-based Demikernel OS, which
// would enable applications, like memcached, to achieve the benefits of kernel-bypass
// transparently." This is that adapter: applications register per-queue callbacks and
// the loop keeps one pop (or accept) outstanding per watched queue, dispatching each
// completion to exactly one callback — the event-driven programming model preserved,
// the epoll pathologies gone.
//
// Delivery is push-based: the loop registers itself as a CompletionWatcher on each
// outstanding token, so a poll round with nothing ready is a single empty-vector
// check — O(1) regardless of how many queues are watched — instead of an O(watches)
// OpDone scan.

#ifndef SRC_CORE_EVENT_LOOP_H_
#define SRC_CORE_EVENT_LOOP_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "src/core/libos.h"

namespace demi {

class DemiEventLoop final : public Poller, public CompletionWatcher {
 public:
  // Called once per arrived element; the loop re-arms the pop automatically. A non-OK
  // result (EOF, reset) is delivered once and the watch is removed.
  using PopHandler = std::function<void(QDesc qd, Result<SgArray> element)>;
  // Called once per accepted connection (new_qd is installed in the libOS).
  using AcceptHandler = std::function<void(QDesc new_qd)>;

  explicit DemiEventLoop(LibOS* libos);
  ~DemiEventLoop() override;
  DemiEventLoop(const DemiEventLoop&) = delete;
  DemiEventLoop& operator=(const DemiEventLoop&) = delete;

  Status WatchAccept(QDesc listen_qd, AcceptHandler handler);
  Status WatchPop(QDesc qd, PopHandler handler);
  // Stops watching `qd` and cancels its armed pop or accept (so does destroying the
  // loop), leaving the queue's next element to the application; an element the armed
  // pop already took is dropped. On queues that cannot cancel a pending op (Catmint,
  // Catnip UDP, Catfish, the combinator queues) the token is abandoned instead, and
  // it can still take one element.
  void Unwatch(QDesc qd);

  // One-shot deferred call after `delay` of simulated time (libevent's evtimer).
  void CallLater(TimeNs delay, std::function<void()> fn);

  std::uint64_t dispatched() const { return dispatched_; }
  bool Poll() override;
  void OnTokenComplete(QToken token, QDesc qd) override;

 private:
  struct Watch {
    bool is_accept = false;
    QToken token = kInvalidQToken;
    PopHandler on_pop;
    AcceptHandler on_accept;
  };

  void Arm(QDesc qd, Watch& watch);

  LibOS* libos_;
  std::unordered_map<QDesc, Watch> watches_;
  std::uint64_t dispatched_ = 0;
  std::vector<QDesc> ready_;    // queues whose watched token completed
  std::vector<QDesc> scratch_;  // swapped with ready_ per Poll; no per-poll allocation
};

}  // namespace demi

#endif  // SRC_CORE_EVENT_LOOP_H_
