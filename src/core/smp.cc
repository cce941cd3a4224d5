#include "src/core/smp.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/sim/counters.h"

namespace demi {

namespace {

// Victim ready-ring depth that justifies a steal, and the depth at which a worker
// raises its steal-hint bit.
constexpr std::size_t kStealThreshold = 4;
// Max completions moved per successful steal (one IPI per batch).
constexpr std::size_t kStealBatch = 8;
// Max completions a worker consumes from its own ring per poll — bounded so a
// flooded worker's backlog stays visible to thieves between its bubbles instead
// of draining whole in one.
constexpr std::size_t kConsumeBatch = 16;
// RX frames the worker's stack ingests per poll. Must comfortably exceed
// kConsumeBatch in wire frames, or ingest and consumption lock in balance and an
// overloaded shard's queue hides in the NIC ring where thieves cannot see it.
// Catnip clients send a small request as one frame, but SmpHarness clients write
// the framing header and payload separately, so theirs arrive as 2.
constexpr std::size_t kRxBatch = 128;

std::uint64_t HintBit(int worker) { return std::uint64_t{1} << worker; }

// Wire protocol of src/load/workload.h: the first 4 payload bytes carry the
// response length, little-endian, clamped so a corrupt header cannot ask for
// unbounded data. The header may straddle sga segments after reassembly.
std::uint32_t DecodeResponseBytes(const SgArray& sga) {
  std::uint8_t hdr[4] = {};
  std::size_t got = 0;
  for (const Buffer& seg : sga) {
    const auto bytes = seg.span();
    for (std::size_t i = 0; i < bytes.size() && got < 4; ++i) {
      hdr[got++] = std::to_integer<std::uint8_t>(bytes[i]);
    }
    if (got == 4) {
      break;
    }
  }
  const std::uint32_t v = static_cast<std::uint32_t>(hdr[0]) |
                          static_cast<std::uint32_t>(hdr[1]) << 8 |
                          static_cast<std::uint32_t>(hdr[2]) << 16 |
                          static_cast<std::uint32_t>(hdr[3]) << 24;
  return std::min(v, SmpWorker::kMaxResponseBytes);
}

}  // namespace

SmpWorker::SmpWorker(WorkerPool* pool, Simulation* sim, SimNic* nic, int index,
                     const SmpConfig& cfg)
    : pool_(pool),
      cfg_(cfg),
      index_(index),
      cpu_(sim, "worker" + std::to_string(index), /*charges_clock=*/true,
           /*core=*/index + 1) {
  // Everything this worker registers (its own poller, the libOS, the NetStack)
  // homes on core index+1; construction itself runs in the core-0 context.
  HomeCoreScope scope(*sim, index_ + 1);
  CatnipConfig ccfg;
  ccfg.ip = cfg_.ip;
  ccfg.tcp = cfg_.tcp;
  ccfg.seed = cfg_.seed ^ (0x517e0000ull + static_cast<std::uint64_t>(index));
  ccfg.nic_queue = index_;
  ccfg.rss_steering = true;  // N listeners on one port: the hash is the demux
  ccfg.rx_batch = kRxBatch;
  libos_ = std::make_unique<CatnipLibOS>(&cpu_, nic, /*control_kernel=*/nullptr,
                                         std::move(ccfg));
  // Sharded workers hold one mostly-idle connection per client: poll the dirty
  // set, not the whole shard.
  libos_->EnableSparsePolling();
  // Re-arm the next pop the moment a pop DELIVERS, not when the app gets around
  // to handling it. With handling-time re-arm, ring production is coupled 1:1 to
  // consumption and an overloaded shard's backlog hides in transport receive
  // buffers where ready_size() — the steal-victim load signal — cannot see it.
  // Delivery-time re-arm drains that backlog into the ready ring, which is the
  // completion queue ZygOS-style thieves actually steal from. Failed pops do not
  // re-arm: the terminal completion rides the ring and its consumer closes the
  // queue, so a dead device or peer never leaves an armed pop behind.
  libos_->set_ready_observer([this](QToken, QDesc qd, OpType op, bool ok) {
    if (op == OpType::kPop && ok) {
      (void)libos_->Pop(qd);
    }
    if (pool_->stealing()) {
      RefreshHint(*this);  // the ring just grew: maybe worth a thief's probe now
    }
  });
  response_blob_ = Buffer::Allocate(kMaxResponseBytes);
  std::memset(response_blob_.mutable_data(), 0, response_blob_.size());
  sim->AddPollerOn(index_ + 1, this);

  auto qd = libos_->Socket();
  DEMI_CHECK(qd.ok());
  listen_qd_ = *qd;
  DEMI_CHECK(libos_->Bind(listen_qd_, cfg_.port).ok());
  DEMI_CHECK(libos_->Listen(listen_qd_).ok());
  ArmAccept();
}

SmpWorker::~SmpWorker() { cpu_.sim().RemovePoller(this); }

void SmpWorker::ArmAccept() {
  auto token = libos_->AcceptAsync(listen_qd_);
  if (!token.ok()) {
    accept_token_ = kInvalidQToken;
    return;
  }
  accept_token_ = *token;
  (void)libos_->WatchToken(accept_token_, this);
}

void SmpWorker::OnTokenComplete(QToken token, QDesc qd) {
  (void)qd;
  watched_done_.push_back(token);
}

bool SmpWorker::HandleWatched(QToken token) {
  auto r = libos_->TakeResultInternal(token);
  if (!r.ok()) {
    return false;  // claimed elsewhere or still pending (should not happen)
  }
  if (r->op == OpType::kAccept) {
    if (token == accept_token_) {
      accept_token_ = kInvalidQToken;
    }
    if (r->status.ok()) {
      ++accepted_;
      // Arm the connection's first pop; every later one is re-armed at delivery
      // time by the ready observer. Completions (requests) land in the ready
      // ring where home worker and thieves alike can claim them.
      auto pop = libos_->Pop(r->new_qd);
      if (!pop.ok()) {
        (void)libos_->Close(r->new_qd);
      }
      ArmAccept();
    } else if (r->status.code() != ErrorCode::kDeviceFailed) {
      ArmAccept();  // transient accept failure; a dead device ends accepting
    }
    return true;
  }
  // Push acknowledgments need no action. A failed push means the connection died;
  // the outstanding pop surfaces the terminal error and closes the queue, so the
  // qd is not torn down here while that pop is still registered.
  return true;
}

void SmpWorker::HandleCompletion(ReadyCompletion& rc, SmpWorker* owner) {
  // Exactly-one-wakeup: the consumer that claimed the completion accounts it.
  cpu_.Count(Counter::kWakeups);
  if (rc.op != OpType::kPop) {
    return;  // only pops route through the ring in this pool
  }
  LibOS& owner_libos = *owner->libos_;
  if (!rc.result.status.ok()) {
    // EOF / reset / device death: retire the connection on its home shard.
    (void)owner_libos.Close(rc.qd);
    return;
  }
  const std::uint32_t resp_bytes = DecodeResponseBytes(rc.result.sga);
  cpu_.Work(cfg_.request_cpu_ns);  // app service time, on the executing core
  ++served_;
  if (owner != this) {
    ++stolen_executed_;
  }
  // Egress goes home: the connection and its NIC queue belong to the owner shard.
  // The next pop is already armed (re-armed at delivery time by the ready
  // observer), so handling a request is push-only — thieves included.
  auto push = owner_libos.Push(rc.qd, owner->ResponseSga(resp_bytes));
  if (push.ok()) {
    (void)owner_libos.WatchToken(*push, owner);
  }
}

SgArray SmpWorker::ResponseSga(std::uint32_t bytes) {
  return SgArray(response_blob_.Slice(0, bytes));
}

void SmpWorker::RefreshHint(const SmpWorker& w) {
  const std::uint64_t bit = HintBit(w.index_);
  const bool flagged = w.libos_->ready_size() >= kStealThreshold;
  if (((pool_->steal_hint_ & bit) != 0) == flagged) {
    return;  // unchanged: no store, nobody's cached copy goes stale
  }
  pool_->steal_hint_ ^= bit;
  hint_seen_ = ++pool_->steal_hint_version_;
}

bool SmpWorker::TrySteal() {
  if (victims_.empty()) {
    for (int i = 1; i < pool_->size(); ++i) {
      victims_.push_back(&pool_->worker((index_ + i) % pool_->size()));
    }
  }
  const CostModel& cost = cpu_.cost();
  // The hint word lives on its own cache line, written only when a ring crosses
  // the threshold. A copy this worker already holds is a local hit, free like
  // polling its own empty ring; a hint some peer changed since comes over as one
  // cache-line transfer.
  if (hint_seen_ != pool_->steal_hint_version_) {
    cpu_.Work(cost.cacheline_transfer_ns);
    hint_seen_ = pool_->steal_hint_version_;
  }
  const std::uint64_t flagged = pool_->steal_hint_ & ~HintBit(index_);
  if (flagged == 0) {
    return false;  // no peer backed up: go idle rather than probe empty rings
  }
  for (std::size_t k = 0; k < victims_.size(); ++k) {
    SmpWorker& victim = *victims_[(victim_cursor_ + k) % victims_.size()];
    if ((flagged & HintBit(victim.index_)) == 0) {
      continue;
    }
    // Reading a flagged peer's ready ring is a cross-core cache probe. The flag
    // may be stale (the owner or another thief drained the ring since), so the
    // probe re-checks the depth and heals the bit when it finds too little.
    cpu_.Work(cost.steal_probe_ns);
    cpu_.Count(Counter::kStealAttempts);
    if (victim.libos_->ready_size() < kStealThreshold) {
      cpu_.Count(Counter::kStealAborts);
      RefreshHint(victim);
      continue;
    }
    // One cross-core kick per batch: the victim's next poll sees its rings and
    // dirty lists mutated under it and must resynchronize.
    cpu_.Work(cost.ipi_wakeup_ns);
    std::size_t moved = 0;
    ReadyCompletion rc;
    while (moved < kStealBatch && victim.libos_->PopReady(&rc)) {
      // The completion record and its op slot migrate to this core's cache.
      cpu_.Work(cost.cacheline_transfer_ns);
      cpu_.Count(Counter::kCompletionsStolen);
      HandleCompletion(rc, &victim);
      ++moved;
    }
    RefreshHint(victim);
    victim_cursor_ = (victim_cursor_ + k + 1) % victims_.size();
    if (moved > 0) {
      return true;
    }
    cpu_.Count(Counter::kStealAborts);  // the ring held only stale hints
  }
  return false;
}

bool SmpWorker::Poll() {
  bool progress = false;
  if (accept_token_ != kInvalidQToken && libos_->stack().device_failed()) {
    // A dead bypass NIC can never deliver another connection; retire the armed
    // accept so no qtoken outlives the device (the no-hung-qtoken invariant).
    (void)libos_->CancelOp(accept_token_);
    accept_token_ = kInvalidQToken;
    progress = true;
  }
  if (!watched_done_.empty()) {
    watched_scratch_.swap(watched_done_);
    for (const QToken token : watched_scratch_) {
      progress |= HandleWatched(token);
    }
    watched_scratch_.clear();
  }
  std::size_t handled = 0;
  ReadyCompletion rc;
  while (handled < kConsumeBatch && libos_->PopReady(&rc)) {
    HandleCompletion(rc, this);
    ++handled;
    progress = true;
  }
  if (pool_->stealing()) {
    RefreshHint(*this);
    if (handled == 0) {
      progress |= TrySteal();
    }
  }
  return progress;
}

WorkerPool::WorkerPool(Simulation* sim, SimNic* nic, SmpConfig cfg)
    : cfg_(std::move(cfg)) {
  DEMI_CHECK(cfg_.workers >= 1);
  DEMI_CHECK(cfg_.workers <= 64 && "one steal-hint bit per worker");
  DEMI_CHECK(nic->config().num_queues >= cfg_.workers &&
             "one NIC queue pair per sharded worker");
  sim->ConfigureCores(cfg_.workers + 1);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.push_back(std::make_unique<SmpWorker>(this, sim, nic, w, cfg_));
  }
}

std::uint64_t WorkerPool::total_served() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->served_;
  }
  return n;
}

std::uint64_t WorkerPool::total_stolen() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->stolen_executed_;
  }
  return n;
}

std::uint64_t WorkerPool::total_accepted() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->accepted_;
  }
  return n;
}

std::size_t WorkerPool::total_pending_ops() const {
  std::size_t n = 0;
  for (const auto& w : workers_) {
    n += w->libos_->pending_ops();
  }
  return n;
}

}  // namespace demi
