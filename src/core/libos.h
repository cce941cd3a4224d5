// LibOS: the Demikernel system-call interface (Figure 3) and the machinery shared by
// every library OS.
//
// One LibOS instance serves one application on one host, owning:
//   - the queue-descriptor table (sockets, files, in-memory queues, combinators),
//   - the qtoken namespace and pending-operation table,
//   - the wait/wait_any/wait_all machinery (§4.4),
//   - the §4.5 memory manager (transparent registration + free-protection), exposed
//     through sgaalloc.
//
// Concrete library OSes (Catnap, Catnip, Catmint, Catfish) only provide queue
// factories for their device type; everything else — combinators, waiting, memory —
// is shared, which is precisely the "build libOSes in a modular fashion and share as
// much code as possible" aspiration of §5.1.
//
// Threading/driving model: the LibOS registers as a simulation Poller. The Wait*
// family *drives the simulation* and therefore may only be called from top-level
// driver code (examples, benches). Code running inside the simulation (actors) uses
// the non-stepping OpDone/TakeResult pair instead.

#ifndef SRC_CORE_LIBOS_H_
#define SRC_CORE_LIBOS_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/pool.h"
#include "src/common/ring_buffer.h"
#include "src/core/queue.h"
#include "src/core/types.h"
#include "src/memory/memory_manager.h"
#include "src/sim/simulation.h"

namespace demi {

constexpr TimeNs kWaitForever = -1;

// Direct completion delivery for event-driven consumers (DemiEventLoop): instead of
// scanning tokens for OpDone, a watcher registered on a pending token is called the
// moment the operation completes. Exactly one consumer sees each completion — a
// watched token's completion bypasses the shared ready ring.
class CompletionWatcher {
 public:
  virtual ~CompletionWatcher() = default;
  virtual void OnTokenComplete(QToken token, QDesc qd) = 0;
};

// A completion claimed off the ready ring (LibOS::PopReady): the finished
// operation's identity plus its moved-out result. Claiming releases the qtoken, so
// a later TakeResult on it fails with kBadDescriptor — that is the stale-token
// contract that makes completion stealing safe (at most one consumer ever sees a
// completion, DESIGN.md §13).
struct ReadyCompletion {
  QToken token = kInvalidQToken;
  QDesc qd = kInvalidQDesc;
  OpType op = OpType::kPush;
  QResult result;
};

class LibOS : public Poller, public CompletionSink {
 public:
  LibOS(HostCpu* host, MemoryConfig mem_config = MemoryConfig{});
  ~LibOS() override;
  LibOS(const LibOS&) = delete;
  LibOS& operator=(const LibOS&) = delete;

  virtual std::string name() const = 0;

  // --- control path: network (Figure 3, top-left) ---

  Result<QDesc> Socket();
  // Datagram socket: each datagram is one queue element (no framing needed). Only
  // libOSes whose substrate has datagram semantics implement this.
  virtual Result<QDesc> SocketUdp() {
    return Status(ErrorCode::kUnsupported, name() + ": no datagram support");
  }
  Status Bind(QDesc qd, std::uint16_t port);
  Status Listen(QDesc qd);
  // Non-blocking accept, Figure 3 form: new connection qd or kWouldBlock.
  Result<QDesc> Accept(QDesc qd);
  // Token form: completes with QResult::new_qd once a connection arrives.
  Result<QToken> AcceptAsync(QDesc qd);
  // Starts a connect; redeem completion with ConnectAsync or poll ConnectDone.
  Status Connect(QDesc qd, Endpoint remote);
  Result<QToken> ConnectAsync(QDesc qd, Endpoint remote);
  // Closes the queue; every op still pending on `qd` completes with kCancelled.
  Status Close(QDesc qd);

  // --- control path: files (Figure 3, bottom-left) ---

  Result<QDesc> Open(const std::string& path);
  Result<QDesc> Creat(const std::string& path);

  // --- control path: queue calls (Figure 3, right) ---

  Result<QDesc> QueueCreate();  // queue()
  Result<QDesc> Merge(QDesc qd1, QDesc qd2);
  Result<QDesc> Filter(QDesc qd, ElementPredicate pred);
  Result<QDesc> Sort(QDesc qd, ElementComparator cmp);
  Result<QDesc> MapQueue(QDesc qd, ElementTransform transform);
  // Splices qdin's pops into pushes on qdout, continuously, inside the libOS.
  Status QConnect(QDesc qdin, QDesc qdout);

  // --- data path (Figure 3, bottom) ---

  Result<QToken> Push(QDesc qd, const SgArray& sga);
  Result<QToken> Pop(QDesc qd);

  // Non-stepping completion check (safe inside simulation actors).
  bool OpDone(QToken token) const;
  // Removes and returns a completed result; kWouldBlock if still pending.
  Result<QResult> TakeResult(QToken token);
  // Same, but does not count an application wakeup — used by combinator queues and
  // qconnect splices driving *internal* operations, so C3-style wakeup accounting
  // reflects only application waits.
  Result<QResult> TakeResultInternal(QToken token);

  // Blocking forms: drive the simulation until completion or timeout.
  Result<QResult> Wait(QToken token, TimeNs timeout = kWaitForever);
  // Completes when ANY token finishes; returns (index, result). Exactly one waiter
  // consumes each completion — no thundering herd (§4.4).
  Result<std::pair<std::size_t, QResult>> WaitAny(std::span<const QToken> tokens,
                                                  TimeNs timeout = kWaitForever);
  Result<std::vector<QResult>> WaitAll(std::span<const QToken> tokens,
                                       TimeNs timeout = kWaitForever);
  // Bounded-time even across a failover in progress: on timeout the operation is
  // cancelled (never a hung qtoken) and kTimedOut is returned.
  Result<QResult> BlockingPush(QDesc qd, const SgArray& sga, TimeNs timeout = kWaitForever);
  Result<QResult> BlockingPop(QDesc qd, TimeNs timeout = kWaitForever);
  // Abandons a pending operation: its result (if it ever arrives) is dropped and the
  // token is forgotten. kNotFound for unknown tokens.
  Status CancelOp(QToken token);

  // Registers `watcher` for direct delivery when `token` completes; fires immediately
  // if the token already completed. kNotFound for unknown tokens. The watcher must
  // outlive the token or call UnwatchToken first.
  Status WatchToken(QToken token, CompletionWatcher* watcher);
  void UnwatchToken(QToken token);

  // --- memory (§4.5) ---

  SgArray SgaAlloc(std::size_t bytes);
  MemoryManager& memory() { return memory_; }
  HostCpu& host() { return *host_; }
  Simulation& sim() { return host_->sim(); }

  // --- plumbing ---

  // --- completion stealing (ZygOS-style, DESIGN.md §13) ---

  // Claims the next live completion off the ready ring in completion (FIFO) order,
  // releasing its token; false when the ring holds no live completions. Stale ring
  // hints (tokens already claimed elsewhere) are skipped and discarded. Does NOT
  // count an application wakeup — callers (worker loops, cross-core thieves)
  // account on the consuming side so exactly-one-wakeup holds per completion.
  bool PopReady(ReadyCompletion* out);
  // Ready-ring occupancy, stale hints included. This is the steal-victim load
  // signal: cheap to read cross-core, and safe to over-estimate because thieves
  // re-validate every entry against the slot table on pop.
  std::size_t ready_size() const { return ready_ring_.size(); }

  // Fires whenever an unwatched completion lands in the ready ring, with the
  // op's identity and whether it succeeded. SMP workers use this to re-arm the
  // next pop at DELIVERY time rather than at handling time: under overload the
  // backlog then accumulates in the ready ring — where ready_size() and thieves
  // can see it — instead of invisibly in transport receive buffers. The
  // observer may start new operations (the completed slot is not touched after
  // the call); it must not claim the delivered token.
  using ReadyObserver = std::function<void(QToken, QDesc, OpType, bool ok)>;
  void set_ready_observer(ReadyObserver obs) { ready_observer_ = std::move(obs); }

  // --- sparse (dirty-set) polling, DESIGN.md §13 ---

  // Opt-in for sharded workers holding many mostly-idle connections: Poll() visits
  // only queues in the dirty set instead of sweeping the whole qtable, making the
  // poll loop O(active) rather than O(open). Queues enter the set on submission and
  // on device readiness edges (MarkDirty), and leave it only when a visit makes no
  // progress AND the queue reports Quiescent(). Only valid when every queue type in
  // use marks itself (Catnip TCP queues do); combinator queues and recovery
  // sessions require the dense sweep.
  void EnableSparsePolling() { sparse_polling_ = true; }
  bool sparse_polling() const { return sparse_polling_; }
  void MarkDirty(IoQueue* queue);
  // Safety net for device-wide edges a per-queue hook cannot see (e.g. NIC death
  // failing every connection at once): puts every open queue in the dirty set.
  void MarkAllDirty();

  bool Poll() override;
  void CompleteOp(QToken token, QResult result) override;
  std::size_t open_queues() const { return qtable_.size(); }
  // Operations started but not yet completed (the no-hung-qtoken invariant checks
  // this is 0 after a WaitAll sweep).
  std::size_t pending_ops() const { return pending_count_; }
  // Tokens holding a slot: pending, completed but unclaimed, or abandoned.
  std::size_t live_tokens() const { return ops_.live(); }

 protected:
  // Queue factories each libOS provides for its device type.
  virtual Result<std::unique_ptr<IoQueue>> NewSocketQueue() = 0;
  virtual Result<std::unique_ptr<IoQueue>> NewFileQueue(const std::string& path,
                                                        bool create) {
    return Status(ErrorCode::kUnsupported, name() + " has no storage device");
  }
  // Per-libOS extra polling (e.g. draining device CQs shared across queues).
  virtual bool PollDevice() { return false; }

  // Charges the Demikernel "syscall" cost: a function call plus table lookups — the
  // libOS shares the address space, so this is tens of ns, not hundreds (§3.1).
  void ChargeCall();

  QDesc InstallQueue(std::unique_ptr<IoQueue> queue);
  IoQueue* GetQueue(QDesc qd) const;
  QToken NewToken(QDesc qd, OpType type);
  // Drops a token that never started (StartPush/StartPop/StartPushdown failed
  // synchronously).
  void ReleaseFailedToken(QToken token);

  // Destroys all open queues. A derived libOS whose queues reference derived-owned
  // state in their destructors (e.g. catnip's UDP unbind touching the net stack) must
  // call this from its own destructor, before that state is torn down — the base
  // destructor would run the queue destructors only after derived members are gone.
  void DestroyQueues() {
    qtable_.clear();
    dirty_queues_.clear();
  }

  HostCpu* host_;
  MemoryManager memory_;

 private:
  enum class OpState : std::uint8_t {
    kPending,
    kCompleted,  // result parked in the slot, waiting to be claimed
    kAbandoned,  // cancelled; the eventual completion is swallowed
  };

  // One pending/completed operation. Qtokens pack (generation << 32 | slot index), so
  // every lookup on the wait path is one array access + one generation compare — no
  // hashing, no per-op map nodes.
  struct OpSlot {
    QDesc qd = kInvalidQDesc;
    OpType type = OpType::kPush;
    OpState state = OpState::kPending;
    bool control = false;  // accept/connect polled by PollControlOps
    TimeNs start_ns = 0;   // sim time at submission, for completion-latency tracing
    std::uint64_t done_seq = 0;  // completion order, for wait_any FIFO fairness
    QResult result;
    CompletionWatcher* watcher = nullptr;
  };

  struct Splice {
    QDesc in;
    QDesc out;
    QToken pop_token = kInvalidQToken;   // outstanding internal pop
    QToken push_token = kInvalidQToken;  // outstanding internal push
  };

  static std::size_t TokenIndex(QToken token) {
    return static_cast<std::size_t>(token & 0xFFFFFFFFu);
  }
  static std::uint32_t TokenGeneration(QToken token) {
    return static_cast<std::uint32_t>(token >> 32);
  }
  // The token naming slot `index`'s current incarnation.
  QToken TokenAt(std::size_t index) const {
    return static_cast<QToken>(ops_.generation(index)) << 32 | index;
  }

  // Slot for `token`, or nullptr if the token is stale/unknown.
  OpSlot* FindSlot(QToken token) {
    const std::size_t index = TokenIndex(token);
    if (!ops_.Alive(index, TokenGeneration(token))) {
      return nullptr;
    }
    return &ops_[index];
  }
  const OpSlot* FindSlot(QToken token) const {
    const std::size_t index = TokenIndex(token);
    if (!ops_.Alive(index, TokenGeneration(token))) {
      return nullptr;
    }
    return &ops_[index];
  }
  void ReleaseSlot(QToken token) { ops_.Release(TokenIndex(token)); }
  void PushReady(QToken token);

  bool PollControlOps();
  bool PollSplices();
  // Wait with a deadline that cancels the op on timeout (never a hung qtoken).
  Result<QResult> WaitBounded(QToken token, TimeNs timeout);

  std::unordered_map<QDesc, std::unique_ptr<IoQueue>> qtable_;
  QDesc next_qd_ = 1;
  // Cached metrics handle for this libOS's per-op latency histograms. Lazily bound
  // (name() is virtual, so it cannot be resolved in the base constructor).
  std::array<Histogram, kNumOpKinds>* op_hists_ = nullptr;
  SlotPool<OpSlot> ops_;             // every issued token, pending or parked-completed
  std::size_t pending_count_ = 0;    // ops started and not yet completed/cancelled
  std::size_t abandoned_count_ = 0;  // cancelled ops whose completion is still due
  std::uint64_t done_seq_counter_ = 0;
  // Completion ready ring: CompleteOp pushes finished tokens here; Wait/WaitAny/
  // WaitAll consume in completion (FIFO) order instead of rescanning their token sets
  // every simulation step. Entries are hints — the slot table is the source of truth,
  // so stale entries (already claimed via TakeResult) are skipped on pop.
  RingBuffer<QToken> ready_ring_{256};
  ReadyObserver ready_observer_;
  std::vector<QToken> control_tokens_;  // pending accepts/connects, lazily compacted
  std::vector<Splice> splices_;
  std::vector<IoQueue*> poll_scratch_;  // reused per Poll(); avoids per-poll allocation
  bool sparse_polling_ = false;
  std::vector<IoQueue*> dirty_queues_;  // sparse-poll visit set; membership via dirty_listed
};

}  // namespace demi

#endif  // SRC_CORE_LIBOS_H_
