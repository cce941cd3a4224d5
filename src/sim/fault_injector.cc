#include "src/sim/fault_injector.h"

#include "src/common/logging.h"

namespace demi {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kLinkUp:
      return "link_up";
    case FaultKind::kDeviceFailed:
      return "device_failed";
    case FaultKind::kQpError:
      return "qp_error";
    case FaultKind::kMediaError:
      return "media_error";
    case FaultKind::kOpTimeout:
      return "op_timeout";
    case FaultKind::kRegExhausted:
      return "reg_exhausted";
    case FaultKind::kQpRestored:
      return "qp_restored";
    case FaultKind::kRegRestored:
      return "reg_restored";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kHostileBurst:
      return "hostile_burst";
    case FaultKind::kHostileQuiet:
      return "hostile_quiet";
  }
  return "?";
}

FaultInjector::FaultInjector(Simulation* sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

FaultDeviceId FaultInjector::Register(std::string name, FaultHandler handler) {
  Device dev;
  dev.name = std::move(name);
  dev.handler = std::move(handler);
  devices_.push_back(std::move(dev));
  return static_cast<FaultDeviceId>(devices_.size() - 1);
}

FaultInjector::Device& FaultInjector::Dev(FaultDeviceId dev) {
  DEMI_CHECK(dev < devices_.size());
  return devices_[dev];
}

const FaultInjector::Device& FaultInjector::Dev(FaultDeviceId dev) const {
  DEMI_CHECK(dev < devices_.size());
  return devices_[dev];
}

bool FaultInjector::link_up(FaultDeviceId dev) const {
  const Device& d = Dev(dev);
  return d.link_up && !d.failed;
}

bool FaultInjector::device_failed(FaultDeviceId dev) const { return Dev(dev).failed; }

bool FaultInjector::reg_exhausted(FaultDeviceId dev) const { return Dev(dev).reg_exhausted; }

std::optional<FaultKind> FaultInjector::NextOpFault(FaultDeviceId dev) {
  Device& d = Dev(dev);
  std::optional<FaultKind> hit;
  if (!d.one_shot_ops.empty()) {
    hit = d.one_shot_ops.front();
    d.one_shot_ops.pop_front();
  } else {
    for (const auto& [kind, rate] : d.op_rates) {
      if (rng_.NextBool(rate)) {
        hit = kind;
        break;
      }
    }
  }
  if (hit) {
    sim_->counters().Add(Counter::kOpsFailed);
    LOG_DEBUG << "fault: op fault " << FaultKindName(*hit) << " on " << d.name << " @ "
              << sim_->now();
  }
  return hit;
}

std::uint64_t FaultInjector::PairKey(std::uint32_t a, std::uint32_t b) {
  if (a > b) {
    std::swap(a, b);
  }
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

bool FaultInjector::Partitioned(std::uint32_t port_a, std::uint32_t port_b) const {
  auto it = partitions_.find(PairKey(port_a, port_b));
  return it != partitions_.end() && it->second > 0;
}

void FaultInjector::Fire(FaultEvent event) {
  event.at = sim_->now();
  ++faults_fired_;
  sim_->counters().Add(Counter::kFaultsInjected);
  sim_->metrics().Trace(TraceKind::kFaultInjected, event.at, event.device,
                        static_cast<std::uint64_t>(event.kind));
  if (event.device != kInvalidFaultDevice) {
    Device& d = Dev(event.device);
    switch (event.kind) {
      case FaultKind::kLinkDown:
        if (d.link_up) {
          sim_->counters().Add(Counter::kLinkFlaps);
          sim_->metrics().Trace(TraceKind::kLinkFlap, event.at, event.device);
        }
        d.link_up = false;
        break;
      case FaultKind::kLinkUp:
        d.link_up = true;
        break;
      case FaultKind::kDeviceFailed:
        d.failed = true;
        break;
      case FaultKind::kRegExhausted:
        d.reg_exhausted = true;
        break;
      case FaultKind::kRegRestored:
        d.reg_exhausted = false;
        break;
      case FaultKind::kMediaError:
      case FaultKind::kOpTimeout:
        d.one_shot_ops.push_back(event.kind);
        break;
      case FaultKind::kQpError:
      case FaultKind::kQpRestored:
      case FaultKind::kPartition:
      case FaultKind::kHeal:
      case FaultKind::kHostileBurst:
      case FaultKind::kHostileQuiet:
        break;  // no latched per-device state; the handler/partition map carries it
    }
    LOG_DEBUG << "fault: " << FaultKindName(event.kind) << " on " << d.name << " @ "
              << event.at;
    if (d.handler) {
      d.handler(event);
    }
  }
}

void FaultInjector::ScheduleLinkDown(FaultDeviceId dev, TimeNs at) {
  sim_->ScheduleAt(at, [this, dev] { Fire({FaultKind::kLinkDown, dev}); });
}

void FaultInjector::ScheduleLinkUp(FaultDeviceId dev, TimeNs at) {
  sim_->ScheduleAt(at, [this, dev] { Fire({FaultKind::kLinkUp, dev}); });
}

void FaultInjector::ScheduleLinkFlap(FaultDeviceId dev, TimeNs at, TimeNs down_for) {
  ScheduleLinkDown(dev, at);
  ScheduleLinkUp(dev, at + down_for);
}

void FaultInjector::ScheduleDeviceFailure(FaultDeviceId dev, TimeNs at) {
  sim_->ScheduleAt(at, [this, dev] { Fire({FaultKind::kDeviceFailed, dev}); });
}

void FaultInjector::ScheduleQpError(FaultDeviceId dev, TimeNs at) {
  sim_->ScheduleAt(at, [this, dev] { Fire({FaultKind::kQpError, dev}); });
}

void FaultInjector::ScheduleRegExhaustion(FaultDeviceId dev, TimeNs at) {
  sim_->ScheduleAt(at, [this, dev] { Fire({FaultKind::kRegExhausted, dev}); });
}

void FaultInjector::ScheduleTransientQpError(FaultDeviceId dev, TimeNs at,
                                             TimeNs recover_after) {
  ScheduleQpError(dev, at);
  sim_->ScheduleAt(at + recover_after, [this, dev] { Fire({FaultKind::kQpRestored, dev}); });
}

void FaultInjector::ScheduleTransientRegExhaustion(FaultDeviceId dev, TimeNs at,
                                                   TimeNs recover_after) {
  ScheduleRegExhaustion(dev, at);
  sim_->ScheduleAt(at + recover_after, [this, dev] { Fire({FaultKind::kRegRestored, dev}); });
}

void FaultInjector::ScheduleOpFault(FaultDeviceId dev, FaultKind kind, TimeNs at) {
  DEMI_CHECK(kind == FaultKind::kMediaError || kind == FaultKind::kOpTimeout);
  sim_->ScheduleAt(at, [this, dev, kind] { Fire({kind, dev}); });
}

void FaultInjector::ScheduleHostileBurst(FaultDeviceId dev, TimeNs at, TimeNs for_ns) {
  sim_->ScheduleAt(at, [this, dev] { Fire({FaultKind::kHostileBurst, dev}); });
  sim_->ScheduleAt(at + for_ns, [this, dev] { Fire({FaultKind::kHostileQuiet, dev}); });
}

void FaultInjector::SchedulePartition(std::uint32_t port_a, std::uint32_t port_b, TimeNs at,
                                      TimeNs heal_after) {
  const std::uint64_t key = PairKey(port_a, port_b);
  sim_->ScheduleAt(at, [this, key] {
    ++partitions_[key];
    Fire({FaultKind::kPartition, kInvalidFaultDevice});
  });
  sim_->ScheduleAt(at + heal_after, [this, key] {
    auto it = partitions_.find(key);
    if (it != partitions_.end() && --it->second <= 0) {
      partitions_.erase(it);
    }
    Fire({FaultKind::kHeal, kInvalidFaultDevice});
  });
}

void FaultInjector::SetOpFaultRate(FaultDeviceId dev, FaultKind kind, double rate) {
  DEMI_CHECK(kind == FaultKind::kMediaError || kind == FaultKind::kOpTimeout);
  Device& d = Dev(dev);
  auto& rates = d.op_rates;
  for (auto it = rates.begin(); it != rates.end(); ++it) {
    if (it->first == kind) {
      if (rate <= 0) {
        rates.erase(it);
      } else {
        it->second = rate;
      }
      return;
    }
  }
  if (rate > 0) {
    rates.emplace_back(kind, rate);
  }
}

}  // namespace demi
