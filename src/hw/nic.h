// SimNic: a DPDK-style kernel-bypass NIC.
//
// The driver-visible interface is descriptor rings: Transmit() posts a raw Ethernet
// frame to a TX ring and rings a doorbell; received frames appear in per-queue RX rings
// drained by PollRx(). RSS spreads flows across RX queues. There is no interrupt on the
// fast path (poll-mode); an optional rx-notify hook exists for the legacy-kernel driver,
// which charges interrupt costs in its handler.
//
// When configured with `supports_offload`, the NIC models a SmartNIC (Table 1, right
// column): filter/map programs installed on the device run per-packet at
// `device_compute_factor` times the host cost, consuming zero host CPU — this is the
// substrate for the paper's offloadable queue filter/map calls (§4.3).

#ifndef SRC_HW_NIC_H_
#define SRC_HW_NIC_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <optional>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/result.h"
#include "src/common/ring_buffer.h"
#include "src/hw/device.h"
#include "src/hw/fabric.h"
#include "src/hw/mac.h"
#include "src/hw/tenant.h"
#include "src/sim/simulation.h"

namespace demi {

struct NicConfig {
  int num_queues = 1;
  std::size_t ring_size = 256;    // per-queue RX/TX descriptor ring slots
  bool supports_offload = false;  // SmartNIC: can run filter/map programs on-device
  bool checksum_offload = true;   // stack may skip software checksum work
};

// A packet program the NIC can run on the device (or that a libOS runs on the CPU).
struct NicProgram {
  enum class Kind { kFilter, kMap };
  Kind kind = Kind::kFilter;
  // kFilter: return false to drop the frame before host DMA.
  std::function<bool(const Buffer& frame)> filter;
  // kMap: transform the frame before host DMA.
  std::function<Buffer(const Buffer& frame)> map;
  // What this program would cost per packet on the host CPU; on-device execution takes
  // host_cost_ns * cost().device_compute_factor of device time instead.
  TimeNs host_cost_ns = 0;
};

class SimNic {
 public:
  SimNic(HostCpu* host, Fabric* fabric, MacAddress mac, NicConfig config = NicConfig{});
  ~SimNic();
  SimNic(const SimNic&) = delete;
  SimNic& operator=(const SimNic&) = delete;

  const MacAddress& mac() const { return mac_; }
  const NicConfig& config() const { return config_; }
  DeviceCaps caps() const;

  // --- Driver interface (runs on the host CPU; charges host costs) ---

  // Posts a frame for transmission on `queue`. Returns kWouldBlock when the TX ring is
  // full (callers must back off, as a real PMD must).
  Status Transmit(int queue, Buffer frame);

  // Scatter-gather form: the frame is a chain of Buffer parts (header buffers + payload
  // slices). The device holds a reference on every part until wire time, then gathers
  // them with its own DMA engine — no host CPU copy is charged, which is the zero-copy
  // TX contract (§4.5 free-protection plus NIC scatter-gather).
  Status Transmit(int queue, FrameChain chain);

  // Burst transmit (DPDK tx_burst semantics): posts as many of `frames` as the TX ring
  // accepts under a SINGLE doorbell, consuming the accepted chains, and returns the
  // accepted count. The first descriptor pays the full DMA round trip; each subsequent
  // one pipelines behind it at pcie_dma_batch_descriptor_ns — this is the amortization
  // that makes per-I/O software cost, not the device, the bottleneck (§3.2). Frames
  // beyond ring space are left in `frames` untouched (callers back off, as with a real
  // PMD). Returns 0 without ringing the doorbell when the NIC is dead or `frames` is
  // empty.
  std::size_t TransmitBurst(int queue, std::span<FrameChain> frames);

  // Drains one received frame from `queue`'s RX ring, if any. Free of charge: the
  // caller (kernel driver or libOS) charges its own per-packet processing cost.
  std::optional<Buffer> PollRx(int queue);

  // Burst receive (rx_burst semantics): appends up to `max` frames from `queue`'s RX
  // ring to `out` and returns how many were drained. Like PollRx, free of charge.
  std::size_t PollRxBurst(int queue, std::vector<Buffer>& out, std::size_t max);

  std::size_t RxPending(int queue) const;

  // Installs a per-packet program on the RX path of `queue`. Requires
  // config().supports_offload; charges the control-path setup cost.
  Status InstallRxProgram(int queue, NicProgram program);

  // Flow steering (ntuple / Flow Director): IPv4 frames whose L4 protocol and
  // destination port match a rule bypass RSS and land on the rule's queue. This is
  // how a kernel stack (queue 0) and a kernel-bypass libOS stack (leased queue)
  // coexist on one port without stealing each other's flows. ARP frames are
  // replicated to every queue, since every stack needs resolution traffic.
  void AddSteeringRule(std::uint8_t ip_proto, std::uint16_t dst_port, int queue);
  void RemoveSteeringRule(std::uint8_t ip_proto, std::uint16_t dst_port);

  // Optional: invoked (at most once per empty->non-empty transition) when a frame is
  // deposited into an RX ring. The legacy kernel uses this as its interrupt line;
  // poll-mode drivers leave it unset.
  void SetRxNotify(std::function<void(int queue)> notify) { rx_notify_ = std::move(notify); }

  // Registers this NIC with the fault injector. Link state is consulted at wire time
  // (frames in flight when the link drops are lost); a kDeviceFailed fault latches the
  // NIC dead, fails all future Transmit calls, and clears the RX rings so device-held
  // buffers are released back to free-protection accounting (§4.5).
  FaultDeviceId AttachFaultInjector(FaultInjector* faults);

  bool failed() const { return failed_; }
  bool link_up() const;
  PortId port() const { return port_; }
  FaultDeviceId fault_device() const { return fault_dev_; }

  std::uint64_t rx_ring_drops() const { return rx_ring_drops_; }

  // Per-queue doorbell/DMA accounting (DESIGN.md §13): with RSS-sharded workers each
  // owning a queue pair, these show whether load — and device work — actually spread
  // across the shards.
  struct QueueStats {
    std::uint64_t doorbells = 0;  // MMIO doorbell writes on this queue
    std::uint64_t dma_ops = 0;    // completed descriptor DMAs (TX wire + RX deposit)
    std::uint64_t tx_frames = 0;  // frames that reached the wire from this queue
    std::uint64_t rx_frames = 0;  // frames deposited into this queue's RX ring
  };
  const QueueStats& queue_stats(int queue) const;

  // Predicts the RSS queue for a flow without building a frame: `tuple` is the 12
  // wire-order bytes the hardware hashes (src IP, dst IP, src port, dst port — all
  // big-endian, the IPv4 frame region [eth+12, eth+24)). Load generators use this to
  // know which queue — hence which RSS-sharded worker — a flow will land on. Must
  // stay in lockstep with the private RssQueue().
  static int RssForTuple(const std::array<std::uint8_t, 12>& tuple, int num_queues);

  // --- Multi-tenant sharing (DESIGN.md "Tenant isolation model") ---
  //
  // With a registry attached, queues bound to a tenant route their descriptors
  // through shared, serialized TX/RX DMA engines: every posted frame is validated
  // against the tenant's capability set (violations are consumed, dropped, and
  // counted — single-frame Transmit returns the typed kCapabilityViolation status),
  // doorbells and descriptors pass per-tenant token buckets, and the engines
  // schedule tenants by deficit-weighted round robin. When the registry's isolation
  // switch is off, the engines degrade to unchecked FIFO — the vulnerable shared
  // device the chaos suite contrasts against. Queues left unbound (and NICs with no
  // registry) keep the original single-owner direct path, bit-for-bit.
  void AttachTenantRegistry(TenantRegistry* registry) { tenants_ = registry; }
  TenantRegistry* tenant_registry() { return tenants_; }
  void BindQueueTenant(int queue, TenantId tenant);
  TenantId queue_tenant(int queue) const;
  std::size_t tx_engine_depth() const { return tx_engine_.depth; }
  std::size_t rx_engine_depth() const { return rx_engine_.depth; }

 private:
  // One descriptor queued in a shared tenant DMA engine.
  struct EngineItem {
    FrameChain chain;
    int queue = 0;
    TenantId tenant = kNoTenant;
    TimeNs enqueued_at = 0;
    std::size_t bytes = 0;
  };
  // A serialized DMA engine shared by all tenant-bound queues of one direction.
  struct Engine {
    bool busy = false;
    std::deque<EngineItem> fifo;  // isolation off
    struct TenantQueue {
      std::deque<EngineItem> items;
      std::uint64_t deficit = 0;
      bool active = false;
    };
    std::unordered_map<TenantId, TenantQueue> per_tenant;
    std::deque<TenantId> rr;  // active tenants, round-robin order
    std::size_t depth = 0;
  };

  void DeliverFromWire(Buffer frame);
  void DepositToQueue(int queue, Buffer frame);
  int RssQueue(const Buffer& frame) const;
  void OnFault(const FaultEvent& event);

  std::size_t TransmitBurstTenant(int queue, TenantId tenant, std::span<FrameChain> frames);
  void EnqueueEngine(Engine& engine, EngineItem item, bool is_tx);
  bool PopEngine(Engine& engine, EngineItem& out);
  void ServeTxEngine();
  void ServeRxEngine();
  void FinishRxDeposit(int queue, TenantId tenant, Buffer frame);

  HostCpu* host_;
  Fabric* fabric_;
  MacAddress mac_;
  NicConfig config_;
  PortId port_;
  FaultInjector* faults_ = nullptr;
  FaultDeviceId fault_dev_ = kInvalidFaultDevice;
  bool failed_ = false;

  struct Queue {
    explicit Queue(std::size_t ring) : rx(ring), tx_in_flight(0) {}
    RingBuffer<Buffer> rx;
    std::size_t tx_in_flight;
    std::vector<NicProgram> rx_programs;
    QueueStats stats;
  };
  std::vector<Queue> queues_;
  std::function<void(int queue)> rx_notify_;
  std::unordered_map<std::uint32_t, int> steering_;  // (proto<<16 | port) -> queue
  std::uint64_t rx_ring_drops_ = 0;

  TenantRegistry* tenants_ = nullptr;
  std::vector<TenantId> queue_tenant_;  // per-queue binding; kNoTenant = unbound
  Engine tx_engine_;
  Engine rx_engine_;
};

}  // namespace demi

#endif  // SRC_HW_NIC_H_
