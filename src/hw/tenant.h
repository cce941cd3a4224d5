// Tenant isolation for shared kernel-bypass devices (DESIGN.md "Tenant isolation
// model").
//
// The paper's architecture gives each application its own libOS, but production NICs
// are shared by nontrusting tenants. This module is the policy state the OS installs
// on the device at control-path time so the device can enforce protection and
// resource policy by itself on the data path — the kernel never sees a descriptor:
//
//   * TenantId: minted by SimKernel (CreateTenant) on the control path; device queues
//     are bound to a tenant when leased. Queues left unbound (kNoTenant) keep the
//     trusted single-owner fast path, bit-for-bit.
//   * Capability sets: a tenant may only reference memory it registered through its
//     MemoryManager (or that the kernel granted explicitly). The device validates
//     every posted descriptor against this set; violations complete with the typed
//     kCapabilityViolation status and never touch another tenant's memory. Frames the
//     device itself DMA'd into a tenant's RX ring are granted to that tenant, so
//     echoing received data stays legal (the bytes landed in tenant memory).
//   * Token buckets: per-tenant doorbell and descriptor rate limits, refilled from
//     virtual time — deterministic under a fixed seed and schedule.
//   * DWRR weights: the shared TX/RX DMA engines schedule tenant queues by
//     deficit-weighted round robin, so a flooding tenant degrades only itself.
//   * Quotas: registration and QP caps defend against hoarding and churn attacks on
//     device table space.
//
// The registry's master switch (`set_isolation_enabled`) turns enforcement — checks,
// buckets, DWRR — on or off in one place; off reproduces the unprotected
// first-come-first-served device the chaos suite uses as its vulnerable baseline.

#ifndef SRC_HW_TENANT_H_
#define SRC_HW_TENANT_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/buffer.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace demi {

// Identifies one tenant sharing a kernel-bypass device. 0 is reserved: queues bound
// to kNoTenant bypass every tenant check (the single-owner fast path).
using TenantId = std::uint32_t;
constexpr TenantId kNoTenant = 0;

// Per-tenant QoS policy, fixed at CreateTenant time.
struct TenantQosConfig {
  std::string name = "tenant";
  std::uint32_t weight = 1;  // DWRR share of the shared TX/RX DMA engines
  // Token buckets; rate 0 means unlimited.
  double doorbells_per_sec = 0.0;
  double doorbell_burst = 16.0;
  double descriptors_per_sec = 0.0;
  double descriptor_burst = 64.0;
  // Device-table quotas; 0 means unlimited.
  std::size_t max_registrations = 0;  // defense against registration hoarding
  std::size_t max_qps = 0;            // defense against QP churn
  std::size_t max_flow_slots = 0;     // bypass-path flows (NIC queue slots) at once;
                                      // the adaptive path policy acquires one per
                                      // promoted flow and releases it on demotion
};

struct TenantStats {
  std::uint64_t capability_violations = 0;
  std::uint64_t doorbells_throttled = 0;
  std::uint64_t descriptors_throttled = 0;
  std::uint64_t registrations_denied = 0;
  std::uint64_t qps_denied = 0;
  std::uint64_t tx_frames = 0;  // frames that reached the wire
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_frames = 0;  // frames DMA'd into the tenant's RX ring
  std::uint64_t rx_bytes = 0;
  std::uint64_t regions_granted = 0;
  std::size_t live_registrations = 0;
  std::size_t live_qps = 0;
  // Adaptive path placement (DESIGN.md §15): bypass flow slots held right now, denials
  // when the quota was full, and cumulative releases (demotions returning capacity).
  std::size_t live_flow_slots = 0;
  std::uint64_t flow_slots_denied = 0;
  std::uint64_t flow_slots_released = 0;
};

// Deterministic token bucket refilled lazily from elapsed virtual time.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst)
      : rate_per_ns_(rate_per_sec / 1e9), burst_(burst), tokens_(burst) {}

  bool unlimited() const { return rate_per_ns_ <= 0.0; }

  // Takes `n` tokens if available at virtual time `now`; false leaves the bucket
  // untouched (the caller throttles).
  bool TryTake(TimeNs now, double n = 1.0) {
    if (unlimited()) {
      return true;
    }
    Refill(now);
    if (tokens_ + 1e-9 < n) {
      return false;
    }
    tokens_ -= n;
    return true;
  }

  // Takes as many of `want` whole tokens as the bucket holds at `now`.
  std::size_t TakeUpTo(TimeNs now, std::size_t want) {
    if (unlimited()) {
      return want;
    }
    Refill(now);
    const std::size_t got =
        std::min(want, static_cast<std::size_t>(tokens_ + 1e-9));
    tokens_ -= static_cast<double>(got);
    return got;
  }

  double tokens_at(TimeNs now) {
    Refill(now);
    return tokens_;
  }

 private:
  void Refill(TimeNs now) {
    if (now > last_) {
      tokens_ = std::min(burst_, tokens_ + static_cast<double>(now - last_) * rate_per_ns_);
      last_ = now;
    }
  }

  double rate_per_ns_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  TimeNs last_ = 0;
};

// Shared per-device tenant state: policy, capability sets, buckets, quotas, stats.
// One registry is attached to the device(s) it governs; SimKernel owns the registry
// for its bypass NIC and mints ids through it.
class TenantRegistry {
 public:
  explicit TenantRegistry(Simulation* sim) : sim_(sim) {}

  TenantId Create(TenantQosConfig config);
  bool Has(TenantId t) const { return t >= 1 && t <= tenants_.size(); }
  std::size_t tenant_count() const { return tenants_.size(); }

  // Master enforcement switch: capability checks, token buckets, and DWRR. Off
  // reproduces an unprotected shared device (FIFO service, no validation).
  void set_isolation_enabled(bool on) { isolation_enabled_ = on; }
  bool isolation_enabled() const { return isolation_enabled_; }

  const TenantQosConfig& config(TenantId t) const { return Slot(t).config; }
  const TenantStats& stats(TenantId t) const { return Slot(t).stats; }
  TenantStats& mutable_stats(TenantId t) { return Slot(t).stats; }

  // --- capability set ---
  void GrantRegion(TenantId t, const BufferStorage* root);
  void RevokeRegion(TenantId t, const BufferStorage* root);
  // Records that the device DMA'd a frame backed by `root` into the tenant's RX
  // memory; the tenant may reference it in later descriptors (echo servers).
  void GrantRxRegion(TenantId t, const BufferStorage* root);
  bool MayAccess(TenantId t, const BufferStorage* root) const;
  // Every part of the frame must be reachable through the tenant's capabilities.
  bool ValidateFrame(TenantId t, const FrameChain& chain) const;

  // --- rate limiting (counts throttle stats internally) ---
  bool TakeDoorbell(TenantId t);
  std::size_t TakeDescriptors(TenantId t, std::size_t want);

  // --- quotas ---
  bool TryAcquireRegistration(TenantId t);
  void ReleaseRegistration(TenantId t);
  bool TryAcquireQp(TenantId t);
  void ReleaseQp(TenantId t);
  // Bypass flow slots: one per flow the path policy keeps on the fast path. Demotion
  // releases the slot so the QoS layer sees the freed capacity immediately.
  bool TryAcquireFlowSlot(TenantId t);
  void ReleaseFlowSlot(TenantId t);

  // DWRR byte quantum for one scheduler visit: base quantum scaled by weight.
  std::uint64_t quantum_bytes(TenantId t) const {
    return kBaseQuantumBytes * Slot(t).config.weight;
  }

  // Stable per-tenant latency histogram ("tenant/<name>/tx_queue_delay_ns"): time a
  // frame spent queued in the shared TX engine before service.
  Histogram* tx_delay_histogram(TenantId t);

  // Cross-tenant totals (conservation invariants in the chaos suite).
  std::uint64_t total_capability_violations() const;
  std::uint64_t total_doorbells_throttled() const;

 private:
  // A frame payload's wire life is short; RX grants are kept in two generations and
  // rotated so the set stays bounded no matter how long a run floods frames.
  static constexpr std::size_t kRxGrantGenerationCap = 1 << 20;
  static constexpr std::uint64_t kBaseQuantumBytes = 2048;  // >= one full frame

  struct Slot_ {
    TenantQosConfig config;
    TenantStats stats;
    TokenBucket doorbells;
    TokenBucket descriptors;
    std::unordered_set<const BufferStorage*> owned;
    std::unordered_set<const BufferStorage*> rx_granted;
    std::unordered_set<const BufferStorage*> rx_granted_prev;
    Histogram* tx_delay_hist = nullptr;
  };

  Slot_& Slot(TenantId t) { return tenants_.at(t - 1); }
  const Slot_& Slot(TenantId t) const { return tenants_.at(t - 1); }

  Simulation* sim_;
  bool isolation_enabled_ = true;
  std::vector<Slot_> tenants_;
};

}  // namespace demi

#endif  // SRC_HW_TENANT_H_
