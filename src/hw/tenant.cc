#include "src/hw/tenant.h"

#include <cstdio>

#include "src/common/logging.h"

namespace demi {

TenantId TenantRegistry::Create(TenantQosConfig config) {
  DEMI_CHECK(config.weight >= 1);
  Slot_ slot;
  slot.doorbells = TokenBucket(config.doorbells_per_sec, config.doorbell_burst);
  slot.descriptors = TokenBucket(config.descriptors_per_sec, config.descriptor_burst);
  slot.config = std::move(config);
  tenants_.push_back(std::move(slot));
  return static_cast<TenantId>(tenants_.size());
}

void TenantRegistry::GrantRegion(TenantId t, const BufferStorage* root) {
  if (root == nullptr) {
    return;
  }
  Slot_& slot = Slot(t);
  if (slot.owned.insert(root).second) {
    ++slot.stats.regions_granted;
  }
}

void TenantRegistry::RevokeRegion(TenantId t, const BufferStorage* root) {
  Slot(t).owned.erase(root);
}

void TenantRegistry::GrantRxRegion(TenantId t, const BufferStorage* root) {
  if (root == nullptr) {
    return;
  }
  Slot_& slot = Slot(t);
  if (slot.rx_granted.size() >= kRxGrantGenerationCap) {
    slot.rx_granted_prev = std::move(slot.rx_granted);
    slot.rx_granted.clear();
  }
  slot.rx_granted.insert(root);
}

bool TenantRegistry::MayAccess(TenantId t, const BufferStorage* root) const {
  if (root == nullptr) {
    return false;
  }
  const Slot_& slot = Slot(t);
  return slot.owned.contains(root) || slot.rx_granted.contains(root) ||
         slot.rx_granted_prev.contains(root);
}

bool TenantRegistry::ValidateFrame(TenantId t, const FrameChain& chain) const {
  for (const Buffer& part : chain.parts()) {
    if (part.storage() == nullptr || !MayAccess(t, part.storage()->registration_root())) {
      return false;
    }
  }
  return chain.part_count() > 0;
}

bool TenantRegistry::TakeDoorbell(TenantId t) {
  Slot_& slot = Slot(t);
  if (slot.doorbells.TryTake(sim_->now())) {
    return true;
  }
  ++slot.stats.doorbells_throttled;
  return false;
}

std::size_t TenantRegistry::TakeDescriptors(TenantId t, std::size_t want) {
  Slot_& slot = Slot(t);
  const std::size_t got = slot.descriptors.TakeUpTo(sim_->now(), want);
  slot.stats.descriptors_throttled += want - got;
  return got;
}

bool TenantRegistry::TryAcquireRegistration(TenantId t) {
  Slot_& slot = Slot(t);
  if (isolation_enabled_ && slot.config.max_registrations != 0 &&
      slot.stats.live_registrations >= slot.config.max_registrations) {
    ++slot.stats.registrations_denied;
    return false;
  }
  ++slot.stats.live_registrations;
  return true;
}

void TenantRegistry::ReleaseRegistration(TenantId t) {
  Slot_& slot = Slot(t);
  DEMI_CHECK(slot.stats.live_registrations > 0);
  --slot.stats.live_registrations;
}

bool TenantRegistry::TryAcquireQp(TenantId t) {
  Slot_& slot = Slot(t);
  if (isolation_enabled_ && slot.config.max_qps != 0 &&
      slot.stats.live_qps >= slot.config.max_qps) {
    ++slot.stats.qps_denied;
    return false;
  }
  ++slot.stats.live_qps;
  return true;
}

void TenantRegistry::ReleaseQp(TenantId t) {
  Slot_& slot = Slot(t);
  DEMI_CHECK(slot.stats.live_qps > 0);
  --slot.stats.live_qps;
}

bool TenantRegistry::TryAcquireFlowSlot(TenantId t) {
  Slot_& slot = Slot(t);
  if (isolation_enabled_ && slot.config.max_flow_slots != 0 &&
      slot.stats.live_flow_slots >= slot.config.max_flow_slots) {
    ++slot.stats.flow_slots_denied;
    return false;
  }
  ++slot.stats.live_flow_slots;
  return true;
}

void TenantRegistry::ReleaseFlowSlot(TenantId t) {
  Slot_& slot = Slot(t);
  DEMI_CHECK(slot.stats.live_flow_slots > 0);
  --slot.stats.live_flow_slots;
  ++slot.stats.flow_slots_released;
}

Histogram* TenantRegistry::tx_delay_histogram(TenantId t) {
  Slot_& slot = Slot(t);
  if (slot.tx_delay_hist == nullptr) {
    slot.tx_delay_hist =
        sim_->metrics().NamedHistogram("tenant/" + slot.config.name + "/tx_queue_delay_ns");
  }
  return slot.tx_delay_hist;
}

std::uint64_t TenantRegistry::total_capability_violations() const {
  std::uint64_t n = 0;
  for (const Slot_& slot : tenants_) {
    n += slot.stats.capability_violations;
  }
  return n;
}

}  // namespace demi
