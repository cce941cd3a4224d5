// Multi-core scale-out: RSS-sharded libOS workers with ZygOS-style completion
// stealing (DESIGN.md §13).
//
// WorkerPool builds N shared-nothing workers on one host. Worker w is pinned to
// simulation core w+1 (core 0 stays the driver/client context), owns NIC queue pair
// w, and runs its own kernel-less Catnip libOS — its own NetStack, flow table,
// connection shard, header arena, and op-slot pool. Every worker listens on the
// same port; the NIC's RSS hash (not ntuple steering) decides which shard a flow
// lands on, so no two workers ever touch the same connection state.
//
// The load-balancing hole in pure RSS sharding is skew: a hot shard's tail latency
// collapses while its neighbours idle. The fix is ZygOS-style work stealing at the
// *completion* layer: a worker that finds its own ready ring empty executes ready
// completions (popped requests) for a backed-up peer. A pool-wide steal hint — one
// word, bit w set while worker w's ring holds at least the steal threshold — tells
// an idle worker which peers are worth probing, so with no flagged peer it goes
// idle instead of spinning on empty rings. Thieves pay explicit cross-core costs
// from the cost model: cacheline_transfer_ns to re-read a hint that changed,
// steal_probe_ns per probe of a flagged victim, ipi_wakeup_ns per steal batch and
// cacheline_transfer_ns per migrated completion.
// Claiming a completion releases its qtoken (LibOS::PopReady), so exactly one
// consumer ever handles it and a stale token is rejected with kBadDescriptor.
// Responses are pushed back through the *owner's* libOS: the connection, its
// buffers, and its NIC queue stay home, preserving per-flow ordering exactly as
// ZygOS returns stolen work to its home flow group for egress.

#ifndef SRC_CORE_SMP_H_
#define SRC_CORE_SMP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/catnip.h"
#include "src/core/libos.h"
#include "src/hw/nic.h"
#include "src/net/packet.h"
#include "src/sim/simulation.h"

namespace demi {

struct SmpConfig {
  // One shard per worker: worker w runs on sim core w+1 and drives NIC queue w.
  // The NIC must be configured with at least this many queues.
  int workers = 1;
  std::uint16_t port = 7;  // every worker listens here; RSS spreads the flows
  Ipv4Address ip;
  TcpConfig tcp;
  std::uint64_t seed = 31;
  // Application service time charged on whichever core executes the request (the
  // thief's core for stolen completions — that is the point of stealing).
  TimeNs request_cpu_ns = 500;
  // Completion stealing (ZygOS). Off = pure RSS sharding, the skew baseline.
  bool steal = true;
};

class WorkerPool;

// One sharded worker: Catnip libOS + request loop on a dedicated core.
class SmpWorker final : public Poller, public CompletionWatcher {
 public:
  // Mirrors WorkloadModel::kMaxResponseBytes — the shared wire protocol's clamp on
  // the 4-byte little-endian response-length header.
  static constexpr std::uint32_t kMaxResponseBytes = 4096;

  SmpWorker(WorkerPool* pool, Simulation* sim, SimNic* nic, int index,
            const SmpConfig& cfg);
  ~SmpWorker() override;
  SmpWorker(const SmpWorker&) = delete;
  SmpWorker& operator=(const SmpWorker&) = delete;

  // Worker loop, polled on core index()+1: dispatch deferred watched completions
  // (accepts, push acks), consume a bounded batch of own ready completions,
  // publish the ring depth to the steal hint, then steal from a flagged peer if
  // idle.
  bool Poll() override;
  // Watched-token delivery (fires inside the libOS poll); deferred to our own Poll
  // so completion handling never re-enters libOS machinery mid-poll.
  void OnTokenComplete(QToken token, QDesc qd) override;

  int index() const { return index_; }
  CatnipLibOS& libos() { return *libos_; }
  HostCpu& cpu() { return cpu_; }
  std::uint64_t requests_served() const { return served_; }
  // Completions this worker claimed from a peer's ring (thief-side count).
  std::uint64_t completions_stolen() const { return stolen_executed_; }
  std::uint64_t accepted() const { return accepted_; }

 private:
  friend class WorkerPool;

  void ArmAccept();
  bool HandleWatched(QToken token);
  // Executes one claimed completion on THIS core for `owner`'s shard (owner ==
  // this for home work, a peer for stolen work).
  void HandleCompletion(ReadyCompletion& rc, SmpWorker* owner);
  bool TrySteal();
  // Sets or clears `w`'s steal-hint bit from its current ring depth. When the bit
  // flips this worker is the writer, so its own copy of the hint is current.
  void RefreshHint(const SmpWorker& w);
  SgArray ResponseSga(std::uint32_t bytes);

  WorkerPool* pool_;
  const SmpConfig& cfg_;  // owned by the pool, which outlives every worker
  int index_;
  HostCpu cpu_;
  std::unique_ptr<CatnipLibOS> libos_;
  QDesc listen_qd_ = kInvalidQDesc;
  QToken accept_token_ = kInvalidQToken;
  Buffer response_blob_;  // shared storage for every response payload (zero alloc)
  std::vector<QToken> watched_done_;  // deferred watched completions
  std::vector<QToken> watched_scratch_;
  std::vector<SmpWorker*> victims_;  // steal order, built lazily on first probe
  std::size_t victim_cursor_ = 0;    // round-robin start within victims_
  std::uint64_t hint_seen_ = 0;      // steal-hint version this worker last read or wrote
  std::uint64_t served_ = 0;
  std::uint64_t stolen_executed_ = 0;
  std::uint64_t accepted_ = 0;
};

class WorkerPool {
 public:
  // Configures the simulation for workers+1 cores (at most 64 workers: one steal
  // hint bit each) and builds every worker. The NIC is the (already multi-queue)
  // bypass device all shards share.
  WorkerPool(Simulation* sim, SimNic* nic, SmpConfig cfg);

  int size() const { return static_cast<int>(workers_.size()); }
  SmpWorker& worker(int i) { return *workers_[i]; }
  const SmpConfig& config() const { return cfg_; }

  std::uint64_t total_served() const;
  std::uint64_t total_stolen() const;
  std::uint64_t total_accepted() const;
  // Sum of pending qtokens across every worker libOS — 0 after a full drain is the
  // no-hung-qtoken invariant under stealing and NIC death alike.
  std::size_t total_pending_ops() const;

 private:
  friend class SmpWorker;

  // Whether workers steal (and so maintain the hint): 1-worker pools never do.
  bool stealing() const { return cfg_.steal && cfg_.workers > 1; }

  SmpConfig cfg_;
  std::vector<std::unique_ptr<SmpWorker>> workers_;
  // Steal hint: bit w is set while worker w's ready ring holds at least the steal
  // threshold. The version counts the stores that changed it, so a thief can tell
  // whether its cached copy is still current.
  std::uint64_t steal_hint_ = 0;
  std::uint64_t steal_hint_version_ = 0;
};

}  // namespace demi

#endif  // SRC_CORE_SMP_H_
