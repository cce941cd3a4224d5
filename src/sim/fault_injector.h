// Seeded, schedulable device-fault injection (§4.4 wait correctness, §4.5 protection).
//
// The simulated devices in src/hw are wired to an optional FaultInjector and consult it
// on every operation. Faults come from two sources that share one virtual-time ordering:
//
//   * Scripts: "at time T, fail device D" / "at T, partition ports A<->B for W ns".
//     Scripted events ride the Simulation event queue, so they interleave with device
//     and stack events exactly as a real failure would.
//   * Rates: per-device, per-kind probabilities consulted on each operation, drawn from
//     a dedicated Rng so a given seed always produces the same fault sequence.
//
// Devices pull state (link_up / device_failed / NextOpFault / Partitioned); the injector
// additionally pushes a FaultEvent to the device's registered handler when a scripted or
// latched fault fires, so devices can flush queues and complete pending work with typed
// errors at the moment of failure rather than on the next poll.
//
// Determinism contract: with the same seed, the same script calls, and the same workload,
// the full fault sequence — times, kinds, victims — is bit-for-bit reproducible.

#ifndef SRC_SIM_FAULT_INJECTOR_H_
#define SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace demi {

enum class FaultKind : std::uint8_t {
  kLinkDown,      // NIC link goes down; frames are dropped at the wire.
  kLinkUp,        // NIC link restored.
  kDeviceFailed,  // permanent device death; all pending and future ops fail.
  kQpError,       // RDMA NIC forces all queue pairs into the error state.
  kMediaError,    // block device: next matching op fails with kMediaError.
  kOpTimeout,     // block device: next matching op completes late with kTimedOut.
  kRegExhausted,  // memory-registration table is full; RegisterMemory fails.
  kQpRestored,    // RDMA NIC recovered: queue pairs may be re-created.
  kRegRestored,   // memory-registration table has room again.
  kPartition,     // fabric stops forwarding between a port pair.
  kHeal,          // fabric partition removed.
  kHostileBurst,  // a hostile tenant driver opens fire (load generators subscribe).
  kHostileQuiet,  // the hostile tenant goes quiet again.
};

std::string_view FaultKindName(FaultKind kind);

// Identifies one registered device inside the injector. Stable for the injector's life.
using FaultDeviceId = std::uint32_t;
constexpr FaultDeviceId kInvalidFaultDevice = ~0u;

struct FaultEvent {
  FaultKind kind;
  FaultDeviceId device = kInvalidFaultDevice;
  TimeNs at = 0;
};

class FaultInjector {
 public:
  // Called synchronously when a scripted fault fires against the device.
  using FaultHandler = std::function<void(const FaultEvent&)>;

  explicit FaultInjector(Simulation* sim, std::uint64_t seed = 1);

  // Registers a device (NIC, RDMA NIC, block device) and its fault handler.
  FaultDeviceId Register(std::string name, FaultHandler handler = nullptr);

  // ---- Pull-side state queries (cheap; devices call these on every operation) ----
  bool link_up(FaultDeviceId dev) const;
  bool device_failed(FaultDeviceId dev) const;
  bool reg_exhausted(FaultDeviceId dev) const;

  // Consumes and returns the next one-shot per-op fault queued for the device, if any;
  // otherwise rolls the per-kind rates. Counts kOpsFailed when a fault is returned.
  // Only kMediaError / kOpTimeout are delivered through this path.
  std::optional<FaultKind> NextOpFault(FaultDeviceId dev);

  // True while any active partition separates the two fabric ports (order-insensitive).
  bool Partitioned(std::uint32_t port_a, std::uint32_t port_b) const;

  // ---- Scripted faults (virtual-time scheduled) ----
  void ScheduleLinkFlap(FaultDeviceId dev, TimeNs at, TimeNs down_for);
  void ScheduleLinkDown(FaultDeviceId dev, TimeNs at);
  void ScheduleLinkUp(FaultDeviceId dev, TimeNs at);
  void ScheduleDeviceFailure(FaultDeviceId dev, TimeNs at);
  void ScheduleQpError(FaultDeviceId dev, TimeNs at);
  void ScheduleRegExhaustion(FaultDeviceId dev, TimeNs at);
  // Auto-recovering variants: the fault fires at `at` and the matching restore event
  // (kQpRestored / kRegRestored) fires at `at + recover_after`, so retry success and
  // retry exhaustion are both reachable from a seeded script.
  void ScheduleTransientQpError(FaultDeviceId dev, TimeNs at, TimeNs recover_after);
  void ScheduleTransientRegExhaustion(FaultDeviceId dev, TimeNs at, TimeNs recover_after);
  // Queues a one-shot per-operation fault (kMediaError or kOpTimeout) armed at `at`.
  void ScheduleOpFault(FaultDeviceId dev, FaultKind kind, TimeNs at);
  // Hostile-tenant chaos phases: kHostileBurst fires at `at` and kHostileQuiet at
  // `at + for_ns`. The injector keeps no state for these; a registered hostile load
  // generator (src/load/hostile_tenant) starts and stops flooding in its handler, so
  // attack windows share the same seeded virtual-time script as device faults.
  void ScheduleHostileBurst(FaultDeviceId dev, TimeNs at, TimeNs for_ns);
  void SchedulePartition(std::uint32_t port_a, std::uint32_t port_b, TimeNs at,
                         TimeNs heal_after);

  // ---- Rate-based faults ----
  // Every NextOpFault() consult returns `kind` with probability `rate` (first match wins,
  // in the order the rates were set). Rate 0 removes the entry.
  void SetOpFaultRate(FaultDeviceId dev, FaultKind kind, double rate);

  std::size_t num_devices() const { return devices_.size(); }
  std::uint64_t faults_fired() const { return faults_fired_; }

 private:
  struct Device {
    std::string name;
    FaultHandler handler;
    bool link_up = true;
    bool failed = false;
    bool reg_exhausted = false;
    std::deque<FaultKind> one_shot_ops;           // armed per-op faults, FIFO
    std::vector<std::pair<FaultKind, double>> op_rates;
  };

  Device& Dev(FaultDeviceId dev);
  const Device& Dev(FaultDeviceId dev) const;

  // Applies a fault now: mutates device state, bumps counters, notifies the handler.
  void Fire(FaultEvent event);

  static std::uint64_t PairKey(std::uint32_t a, std::uint32_t b);

  Simulation* sim_;
  Rng rng_;
  std::vector<Device> devices_;
  // Normalized port pair -> number of active partitions covering it (overlaps stack).
  std::map<std::uint64_t, int> partitions_;
  std::uint64_t faults_fired_ = 0;
};

}  // namespace demi

#endif  // SRC_SIM_FAULT_INJECTOR_H_
