#include "src/hw/nic.h"

#include "src/common/logging.h"

namespace demi {

SimNic::SimNic(HostCpu* host, Fabric* fabric, MacAddress mac, NicConfig config)
    : host_(host), fabric_(fabric), mac_(mac), config_(config) {
  DEMI_CHECK(config_.num_queues >= 1);
  for (int i = 0; i < config_.num_queues; ++i) {
    queues_.emplace_back(config_.ring_size);
  }
  queue_tenant_.assign(static_cast<std::size_t>(config_.num_queues), kNoTenant);
  port_ = fabric_->AttachPort(mac_, [this](Buffer frame) { DeliverFromWire(std::move(frame)); });
}

SimNic::~SimNic() { fabric_->DetachPort(port_); }

DeviceCaps SimNic::caps() const {
  return DeviceCaps{
      .device = config_.supports_offload ? "SimNic (SmartNIC-style)" : "SimNic (DPDK-style)",
      .category = config_.supports_offload ? "+other features" : "kernel-bypass only",
      .kernel_bypass = true,
      .multiplexing = true,
      .addr_translation = true,
      .transport_offload = false,
      .needs_explicit_mem_reg = false,
      .program_offload = config_.supports_offload,
      .tenant_isolation = tenants_ != nullptr,
  };
}

void SimNic::BindQueueTenant(int queue, TenantId tenant) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  DEMI_CHECK(tenants_ != nullptr);
  DEMI_CHECK(tenant == kNoTenant || tenants_->Has(tenant));
  queue_tenant_[queue] = tenant;
}

TenantId SimNic::queue_tenant(int queue) const {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  return queue_tenant_[queue];
}

const SimNic::QueueStats& SimNic::queue_stats(int queue) const {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  return queues_[queue].stats;
}

Status SimNic::Transmit(int queue, Buffer frame) {
  DEMI_CHECK(frame.size() >= kEthHeaderSize);
  return Transmit(queue, FrameChain(std::move(frame)));
}

Status SimNic::Transmit(int queue, FrameChain chain) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  DEMI_CHECK(chain.size() >= kEthHeaderSize);
  if (failed_) {
    return DeviceFailed("nic is dead");
  }
  // Single-frame posts surface capability violations as a typed status instead of
  // silently consuming the frame: the caller learns exactly why the device refused.
  const TenantId tenant = queue_tenant_[queue];
  if (tenants_ != nullptr && tenant != kNoTenant && tenants_->isolation_enabled() &&
      !tenants_->ValidateFrame(tenant, chain)) {
    ++tenants_->mutable_stats(tenant).capability_violations;
    host_->Count(Counter::kCapabilityViolations);
    return CapabilityViolation("frame references memory outside the tenant's capability set");
  }
  FrameChain burst[] = {std::move(chain)};
  if (TransmitBurst(queue, burst) == 0) {
    host_->Count(Counter::kPacketsDropped);
    return ResourceExhausted("tx ring full or tenant throttled");
  }
  return OkStatus();
}

std::size_t SimNic::TransmitBurst(int queue, std::span<FrameChain> frames) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  if (failed_ || frames.empty()) {
    return 0;
  }
  if (const TenantId tenant = queue_tenant_[queue]; tenants_ != nullptr && tenant != kNoTenant) {
    return TransmitBurstTenant(queue, tenant, frames);
  }
  Queue& q = queues_[queue];
  const std::size_t space = config_.ring_size - q.tx_in_flight;
  const std::size_t n = std::min(space, frames.size());
  if (n == 0) {
    return 0;
  }

  // Driver side: all n descriptors are written back to back, then ONE posted MMIO
  // write rings the doorbell for the whole burst — tx_burst's amortization of the
  // fixed per-I/O PCIe cost.
  host_->Work(host_->cost().pcie_doorbell_ns);
  host_->Count(Counter::kDoorbells);
  host_->Count(Counter::kTxBursts);
  host_->Count(Counter::kFramesPerDoorbell, n);
  ++q.stats.doorbells;
  host_->sim().metrics().RecordStat(SimStat::kTxBurstFrames, n);

  // Device side: each chain is captured by value, so every part's refcount pins its
  // slot until wire time — the application can "free" payload buffers immediately and
  // free-protection (§4.5) keeps them alive. Gathers run on the NIC's DMA engine, so
  // they charge no host CPU and no kBytesCopied. Descriptor i's fetch pipelines
  // behind descriptor 0's full PCIe round trip; link state is still sampled per frame
  // at its own wire time, so a link-down (or device death) mid-burst loses exactly
  // the frames that had not yet hit the wire.
  const TimeNs base_delay = host_->cost().pcie_dma_ns + host_->cost().nic_process_ns;
  for (std::size_t i = 0; i < n; ++i) {
    DEMI_CHECK(frames[i].size() >= kEthHeaderSize);
    ++q.tx_in_flight;
    const TimeNs device_delay =
        base_delay + static_cast<TimeNs>(i) * host_->cost().pcie_dma_batch_descriptor_ns;
    host_->sim().Schedule(device_delay, [this, queue, chain = std::move(frames[i])]() mutable {
      Queue& dq = queues_[queue];
      --dq.tx_in_flight;
      if (failed_ || !link_up()) {
        host_->Count(Counter::kPacketsDropped);
        return;
      }
      host_->Count(Counter::kDmaOps);
      host_->Count(Counter::kPacketsTx);
      ++dq.stats.dma_ops;
      ++dq.stats.tx_frames;
      fabric_->Transmit(port_, chain.Gather());
    });
  }
  return n;
}

// Tenant-bound queues share serialized TX/RX DMA engines instead of the private
// per-queue pipeline above: the device is one piece of silicon, and how it arbitrates
// between nontrusting tenants is exactly what isolation on/off changes. With
// enforcement on, every doorbell and descriptor passes the tenant's token buckets,
// every frame part is checked against the tenant's capability set, and service order
// is deficit-weighted round robin. With enforcement off the same engine is an
// unchecked FIFO — a flooding tenant heads-of-line-blocks everyone (the chaos suite's
// vulnerable baseline).
std::size_t SimNic::TransmitBurstTenant(int queue, TenantId tenant, std::span<FrameChain> frames) {
  Queue& q = queues_[queue];
  const bool enforce = tenants_->isolation_enabled();

  // The MMIO doorbell write is charged whether or not the device honors it; a
  // throttled doorbell costs the tenant its own CPU time and nothing else.
  host_->Work(host_->cost().pcie_doorbell_ns);
  if (enforce && !tenants_->TakeDoorbell(tenant)) {
    host_->Count(Counter::kDoorbellsThrottled);
    return 0;
  }
  host_->Count(Counter::kDoorbells);
  host_->Count(Counter::kTxBursts);
  ++q.stats.doorbells;

  const std::size_t space = config_.ring_size - q.tx_in_flight;
  std::size_t n = std::min(space, frames.size());
  if (enforce && n > 0) {
    const std::size_t granted = tenants_->TakeDescriptors(tenant, n);
    if (granted < n) {
      host_->Count(Counter::kDescriptorsThrottled, n - granted);
    }
    n = granted;
  }
  if (n == 0) {
    return 0;
  }
  host_->Count(Counter::kFramesPerDoorbell, n);
  host_->sim().metrics().RecordStat(SimStat::kTxBurstFrames, n);

  std::size_t accepted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    DEMI_CHECK(frames[i].size() >= kEthHeaderSize);
    FrameChain chain = std::move(frames[i]);
    ++accepted;  // consumed either way: a refused descriptor still burns a burst slot
    if (enforce && !tenants_->ValidateFrame(tenant, chain)) {
      // The device read a descriptor pointing outside the tenant's capability set;
      // it refuses the DMA and drops the frame. The victim tenant's memory is never
      // touched.
      ++tenants_->mutable_stats(tenant).capability_violations;
      host_->Count(Counter::kCapabilityViolations);
      host_->Count(Counter::kPacketsDropped);
      continue;
    }
    ++q.tx_in_flight;
    EngineItem item;
    item.queue = queue;
    item.tenant = tenant;
    item.enqueued_at = host_->sim().now();
    item.bytes = chain.size();
    item.chain = std::move(chain);
    EnqueueEngine(tx_engine_, std::move(item), /*is_tx=*/true);
  }
  return accepted;
}

void SimNic::EnqueueEngine(Engine& engine, EngineItem item, bool is_tx) {
  if (tenants_->isolation_enabled()) {
    Engine::TenantQueue& tq = engine.per_tenant[item.tenant];
    if (!tq.active) {
      tq.active = true;
      tq.deficit = 0;
      engine.rr.push_back(item.tenant);
    }
    tq.items.push_back(std::move(item));
  } else {
    engine.fifo.push_back(std::move(item));
  }
  ++engine.depth;
  if (!engine.busy) {
    // First descriptor after idle pays the full fetch round trip; while the engine
    // stays busy, successors pipeline at the batch-descriptor rate (ServeTxEngine /
    // ServeRxEngine reschedule themselves).
    engine.busy = true;
    const TimeNs first = host_->cost().pcie_dma_ns + host_->cost().nic_process_ns;
    if (is_tx) {
      host_->sim().Schedule(first, [this] { ServeTxEngine(); });
    } else {
      host_->sim().Schedule(first, [this] { ServeRxEngine(); });
    }
  }
}

bool SimNic::PopEngine(Engine& engine, EngineItem& out) {
  if (engine.depth == 0) {
    return false;
  }
  --engine.depth;
  // Items enqueued while isolation was off sit in the FIFO; drain them first so a
  // mid-run policy flip never strands descriptors.
  if (!engine.fifo.empty()) {
    out = std::move(engine.fifo.front());
    engine.fifo.pop_front();
    return true;
  }
  // DWRR, one descriptor per call with persistent deficits: the tenant at the head
  // of the round-robin list is served while its deficit covers the head frame; when
  // it cannot, the tenant rotates to the back and banks one weight-scaled quantum
  // for its next visit. Every full rotation therefore hands each backlogged tenant
  // bytes proportional to its weight.
  while (true) {
    DEMI_CHECK(!engine.rr.empty());
    const TenantId t = engine.rr.front();
    Engine::TenantQueue& tq = engine.per_tenant[t];
    DEMI_CHECK(!tq.items.empty());
    const std::uint64_t bytes = tq.items.front().bytes;
    if (tq.deficit >= bytes) {
      tq.deficit -= bytes;
      out = std::move(tq.items.front());
      tq.items.pop_front();
      if (tq.items.empty()) {
        // Classic DWRR zeroes an emptied queue so idle tenants cannot bank credit.
        tq.active = false;
        tq.deficit = 0;
        engine.rr.pop_front();
      }
      return true;
    }
    engine.rr.pop_front();
    engine.rr.push_back(t);
    tq.deficit += tenants_->quantum_bytes(t);
  }
}

void SimNic::ServeTxEngine() {
  EngineItem item;
  if (!PopEngine(tx_engine_, item)) {
    tx_engine_.busy = false;
    return;
  }
  --queues_[item.queue].tx_in_flight;
  if (failed_ || !link_up()) {
    host_->Count(Counter::kPacketsDropped);
  } else {
    host_->Count(Counter::kDmaOps);
    host_->Count(Counter::kPacketsTx);
    ++queues_[item.queue].stats.dma_ops;
    ++queues_[item.queue].stats.tx_frames;
    TenantStats& stats = tenants_->mutable_stats(item.tenant);
    ++stats.tx_frames;
    stats.tx_bytes += item.bytes;
    host_->sim().metrics().RecordNamed(tenants_->tx_delay_histogram(item.tenant),
                                       host_->sim().now() - item.enqueued_at);
    fabric_->Transmit(port_, item.chain.Gather());
  }
  if (tx_engine_.depth > 0) {
    host_->sim().Schedule(host_->cost().pcie_dma_batch_descriptor_ns, [this] { ServeTxEngine(); });
  } else {
    tx_engine_.busy = false;
  }
}

void SimNic::ServeRxEngine() {
  EngineItem item;
  if (!PopEngine(rx_engine_, item)) {
    rx_engine_.busy = false;
    return;
  }
  FinishRxDeposit(item.queue, item.tenant, item.chain.Gather());
  if (rx_engine_.depth > 0) {
    host_->sim().Schedule(host_->cost().pcie_dma_batch_descriptor_ns, [this] { ServeRxEngine(); });
  } else {
    rx_engine_.busy = false;
  }
}

bool SimNic::link_up() const {
  if (failed_) {
    return false;
  }
  return faults_ == nullptr || faults_->link_up(fault_dev_);
}

FaultDeviceId SimNic::AttachFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  fault_dev_ = faults->Register("nic/" + host_->name(),
                                [this](const FaultEvent& event) { OnFault(event); });
  return fault_dev_;
}

void SimNic::OnFault(const FaultEvent& event) {
  if (event.kind != FaultKind::kDeviceFailed || failed_) {
    return;  // link state lives in the injector; we only latch permanent death
  }
  failed_ = true;
  // Free-protection (§4.5): the dead device no longer holds RX buffers — drain every
  // ring so their refcounts drop and the memory manager can reclaim the slots.
  for (Queue& q : queues_) {
    while (q.rx.Pop()) {
      host_->Count(Counter::kPacketsDropped);
    }
  }
}

std::optional<Buffer> SimNic::PollRx(int queue) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  return queues_[queue].rx.Pop();
}

std::size_t SimNic::PollRxBurst(int queue, std::vector<Buffer>& out, std::size_t max) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  Queue& q = queues_[queue];
  std::size_t n = 0;
  while (n < max) {
    auto frame = q.rx.Pop();
    if (!frame) {
      break;
    }
    out.push_back(std::move(*frame));
    ++n;
  }
  if (n > 0) {
    host_->sim().metrics().RecordStat(SimStat::kRxBurstFrames, n);
  }
  return n;
}

std::size_t SimNic::RxPending(int queue) const {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  return queues_[queue].rx.size();
}

std::size_t SimNic::TxSpace(int queue) const {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  return config_.ring_size - queues_[queue].tx_in_flight;
}

Status SimNic::InstallRxProgram(int queue, NicProgram program) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  if (!config_.supports_offload) {
    return Unsupported("device cannot run offloaded programs");
  }
  // Control path: reprogramming the device is slow but happens once (§4.3).
  host_->Work(host_->cost().offload_setup_ns);
  queues_[queue].rx_programs.push_back(std::move(program));
  return OkStatus();
}

int SimNic::RssQueue(const Buffer& frame) const {
  if (config_.num_queues == 1) {
    return 0;
  }
  // Toeplitz-in-spirit: hash the L3/L4 region of an IPv4 frame (addresses + ports).
  const auto bytes = frame.span();
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const std::size_t begin = kEthHeaderSize + 12;  // src/dst IP then ports
  const std::size_t end = std::min(frame.size(), kEthHeaderSize + 24);
  for (std::size_t i = begin; i < end && i < bytes.size(); ++i) {
    h = (h ^ std::to_integer<std::uint8_t>(bytes[i])) * 1099511628211ULL;
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(config_.num_queues));
}

int SimNic::RssForTuple(const std::array<std::uint8_t, 12>& tuple, int num_queues) {
  if (num_queues <= 1) {
    return 0;
  }
  std::uint64_t h = 1469598103934665603ULL;  // same FNV-1a as RssQueue()
  for (const std::uint8_t b : tuple) {
    h = (h ^ b) * 1099511628211ULL;
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(num_queues));
}

void SimNic::AddSteeringRule(std::uint8_t ip_proto, std::uint16_t dst_port, int queue) {
  DEMI_CHECK(queue >= 0 && queue < config_.num_queues);
  steering_[static_cast<std::uint32_t>(ip_proto) << 16 | dst_port] = queue;
}

void SimNic::RemoveSteeringRule(std::uint8_t ip_proto, std::uint16_t dst_port) {
  steering_.erase(static_cast<std::uint32_t>(ip_proto) << 16 | dst_port);
}

void SimNic::DeliverFromWire(Buffer frame) {
  if (failed_ || !link_up()) {
    host_->Count(Counter::kPacketsDropped);
    return;
  }
  const EthHeader eth = ParseEthHeader(frame.span());
  if (!(eth.dst == mac_) && !eth.dst.IsBroadcast()) {
    return;  // not for us (flooded by the switch)
  }

  // ARP is replicated to every queue: each stack keeps its own resolution state.
  if (eth.ethertype == kEtherTypeArp && config_.num_queues > 1) {
    for (int q = 0; q < config_.num_queues; ++q) {
      DepositToQueue(q, frame);
    }
    return;
  }

  // Flow steering first (exact proto/port match), then RSS.
  int queue = -1;
  if (!steering_.empty() && eth.ethertype == kEtherTypeIpv4 &&
      frame.size() >= kEthHeaderSize + 20 + 4) {
    const auto bytes = frame.span();
    const std::uint8_t proto = std::to_integer<std::uint8_t>(bytes[kEthHeaderSize + 9]);
    const std::size_t ihl =
        (std::to_integer<std::uint8_t>(bytes[kEthHeaderSize]) & 0x0F) * 4;
    const std::size_t l4 = kEthHeaderSize + ihl;
    if (frame.size() >= l4 + 4) {
      const std::uint16_t dst_port =
          static_cast<std::uint16_t>(std::to_integer<std::uint8_t>(bytes[l4 + 2]) << 8 |
                                     std::to_integer<std::uint8_t>(bytes[l4 + 3]));
      if (auto it = steering_.find(static_cast<std::uint32_t>(proto) << 16 | dst_port);
          it != steering_.end()) {
        queue = it->second;
      }
    }
  }
  if (queue < 0) {
    queue = RssQueue(frame);
  }
  DepositToQueue(queue, std::move(frame));
}

void SimNic::DepositToQueue(int queue, Buffer frame) {
  Queue& q = queues_[queue];

  // On-device programs run before host DMA: a dropped frame costs the host nothing.
  TimeNs program_delay = 0;
  for (const NicProgram& prog : q.rx_programs) {
    const TimeNs device_ns = static_cast<TimeNs>(static_cast<double>(prog.host_cost_ns) *
                                                 host_->cost().device_compute_factor);
    program_delay += device_ns;
    host_->Count(Counter::kDeviceComputeNs, static_cast<std::uint64_t>(device_ns));
    if (prog.kind == NicProgram::Kind::kFilter) {
      if (!prog.filter(frame)) {
        return;  // filtered on-device; never reaches the host
      }
    } else {
      frame = prog.map(frame);
    }
  }

  // Tenant-bound queues share the serialized RX DMA engine (see TransmitBurstTenant):
  // host DMA of received frames contends across tenants exactly like TX descriptors,
  // and the engine's service delay replaces the private-path DMA delay below.
  if (const TenantId tenant = queue_tenant_[queue]; tenants_ != nullptr && tenant != kNoTenant) {
    EngineItem item;
    item.queue = queue;
    item.tenant = tenant;
    item.enqueued_at = host_->sim().now();
    item.bytes = frame.size();
    item.chain = FrameChain(std::move(frame));
    EnqueueEngine(rx_engine_, std::move(item), /*is_tx=*/false);
    return;
  }

  const TimeNs delay = program_delay + host_->cost().nic_process_ns + host_->cost().pcie_dma_ns;
  host_->sim().Schedule(delay, [this, queue, frame = std::move(frame)]() mutable {
    FinishRxDeposit(queue, kNoTenant, std::move(frame));
  });
}

void SimNic::FinishRxDeposit(int queue, TenantId tenant, Buffer frame) {
  if (failed_) {
    host_->Count(Counter::kPacketsDropped);
    return;  // died between wire arrival and host DMA
  }
  Queue& dq = queues_[queue];
  const bool was_empty = dq.rx.empty();
  host_->Count(Counter::kDmaOps);
  ++dq.stats.dma_ops;
  const std::size_t bytes = frame.size();
  if (tenants_ != nullptr && tenant != kNoTenant && frame.storage() != nullptr) {
    // The device just DMA'd these bytes into the tenant's RX ring: the tenant may
    // legally reference this memory in later TX descriptors (echo servers forward
    // the very storage the frame arrived in).
    tenants_->GrantRxRegion(tenant, frame.storage()->registration_root());
  }
  if (!dq.rx.Push(std::move(frame))) {
    ++rx_ring_drops_;
    host_->Count(Counter::kPacketsDropped);
    return;
  }
  host_->Count(Counter::kPacketsRx);
  ++dq.stats.rx_frames;
  if (tenants_ != nullptr && tenant != kNoTenant) {
    TenantStats& stats = tenants_->mutable_stats(tenant);
    ++stats.rx_frames;
    stats.rx_bytes += bytes;
  }
  if (rx_notify_ && was_empty) {
    rx_notify_(queue);
  }
}

}  // namespace demi
