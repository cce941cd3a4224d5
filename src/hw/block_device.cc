#include "src/hw/block_device.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>

#include "src/common/logging.h"

namespace demi {

BlockDevice::BlockDevice(HostCpu* host, BlockDeviceConfig config)
    : host_(host), config_(config), cq_(config.queue_depth * 2) {}

DeviceCaps BlockDevice::caps() const {
  return DeviceCaps{
      .device = "BlockDevice (SPDK/NVMe-style)",
      .category = "kernel-bypass only",
      .kernel_bypass = true,
      .multiplexing = false,  // namespaces are single-owner here, like SPDK claiming
      .addr_translation = true,
      .transport_offload = false,
      .needs_explicit_mem_reg = false,
      .program_offload = config_.pushdown_enabled,
  };
}

FaultDeviceId BlockDevice::AttachFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  fault_dev_ = faults->Register("blk/" + host_->name(), [this](const FaultEvent& event) {
    if (event.kind == FaultKind::kDeviceFailed) {
      failed_ = true;
    }
  });
  return fault_dev_;
}

Status BlockDevice::ConsultOpFault(TimeNs* extra_delay) {
  *extra_delay = 0;
  if (faults_ == nullptr) {
    return OkStatus();
  }
  const auto fault = faults_->NextOpFault(fault_dev_);
  if (!fault) {
    return OkStatus();
  }
  if (*fault == FaultKind::kOpTimeout) {
    // The command hangs in the controller and is eventually aborted; the completion
    // shows up late with a timeout status.
    *extra_delay = 5 * kMillisecond;
    return TimedOut("nvme command timeout");
  }
  return MediaError("uncorrectable media error");
}

void BlockDevice::Complete(std::uint64_t id, Status status, TimeNs service_ns) {
  ++inflight_;
  host_->sim().Schedule(service_ns, [this, id, status = std::move(status)] {
    --inflight_;
    host_->Count(Counter::kNvmeOps);
    BlockCompletion c;
    c.id = id;
    c.status = status;
    if (!cq_.Push(std::move(c))) {
      // CQ overrun: devices treat this as a controller-level failure; we panic because
      // the CQ is sized so a correct driver can never overrun it.
      PanicImpl(__FILE__, __LINE__, "NVMe completion queue overrun");
    }
  });
}

Status BlockDevice::SubmitRead(std::uint64_t id, std::uint64_t lba, std::uint32_t count,
                               Buffer dest) {
  if (failed_) {
    return DeviceFailed("block device is dead");
  }
  if (inflight_ >= config_.queue_depth) {
    return ResourceExhausted("submission queue full");
  }
  if (lba + count > config_.num_blocks) {
    return InvalidArgument("read beyond device");
  }
  if (dest.size() != static_cast<std::size_t>(count) * config_.block_size) {
    return InvalidArgument("destination size != count * block_size");
  }
  host_->Work(host_->cost().pcie_doorbell_ns);
  host_->Count(Counter::kDoorbells);

  TimeNs fault_delay = 0;
  if (Status fault = ConsultOpFault(&fault_delay); !fault.ok()) {
    // Faulted read: no data is transferred; the CQ entry carries the error.
    Complete(id, std::move(fault),
             host_->cost().NvmeNs(/*is_write=*/false, dest.size()) + fault_delay);
    return OkStatus();
  }

  // Device DMAs straight into `dest` (no host CPU involvement). The data is deposited
  // immediately in simulation memory; the completion carries the timing.
  for (std::uint32_t i = 0; i < count; ++i) {
    auto it = blocks_.find(lba + i);
    std::byte* out = dest.mutable_data() + static_cast<std::size_t>(i) * config_.block_size;
    if (it != blocks_.end()) {
      std::memcpy(out, it->second.data(), config_.block_size);
    } else {
      std::memset(out, 0, config_.block_size);
    }
  }
  host_->Count(Counter::kDmaOps, count);
  Complete(id, OkStatus(), host_->cost().NvmeNs(/*is_write=*/false, dest.size()));
  return OkStatus();
}

Status BlockDevice::SubmitWrite(std::uint64_t id, std::uint64_t lba, Buffer src) {
  if (failed_) {
    return DeviceFailed("block device is dead");
  }
  if (inflight_ >= config_.queue_depth) {
    return ResourceExhausted("submission queue full");
  }
  if (src.empty() || src.size() % config_.block_size != 0) {
    return InvalidArgument("write must be whole blocks");
  }
  const std::uint64_t count = src.size() / config_.block_size;
  if (lba + count > config_.num_blocks) {
    return InvalidArgument("write beyond device");
  }
  host_->Work(host_->cost().pcie_doorbell_ns);
  host_->Count(Counter::kDoorbells);

  TimeNs fault_delay = 0;
  if (Status fault = ConsultOpFault(&fault_delay); !fault.ok()) {
    // Faulted write: the media is untouched.
    Complete(id, std::move(fault),
             host_->cost().NvmeNs(/*is_write=*/true, src.size()) + fault_delay);
    return OkStatus();
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    blocks_.insert_or_assign(
        lba + i, src.Slice(static_cast<std::size_t>(i) * config_.block_size,
                           config_.block_size));
  }
  host_->Count(Counter::kDmaOps, count);
  const TimeNs service = host_->cost().NvmeNs(/*is_write=*/true, src.size());
  last_write_done_ = std::max(last_write_done_, host_->now() + service);
  Complete(id, OkStatus(), service);
  return OkStatus();
}

Status BlockDevice::SubmitFlush(std::uint64_t id) {
  if (failed_) {
    return DeviceFailed("block device is dead");
  }
  if (inflight_ >= config_.queue_depth) {
    return ResourceExhausted("submission queue full");
  }
  host_->Work(host_->cost().pcie_doorbell_ns);
  host_->Count(Counter::kDoorbells);
  const TimeNs barrier = std::max<TimeNs>(last_write_done_ - host_->now(), 0);

  // Flush is an op like any other: a seeded per-op fault aimed at it must land on it,
  // not silently slide to the next read/write (chaos-schedule determinism).
  TimeNs fault_delay = 0;
  if (Status fault = ConsultOpFault(&fault_delay); !fault.ok()) {
    Complete(id, std::move(fault),
             barrier + host_->cost().nvme_write_ns / 4 + fault_delay);
    return OkStatus();
  }
  Complete(id, OkStatus(), barrier + host_->cost().nvme_write_ns / 4);
  return OkStatus();
}

std::vector<BlockCompletion> BlockDevice::PollCompletions(std::size_t max) {
  std::vector<BlockCompletion> out;
  while (out.size() < max) {
    auto c = cq_.Pop();
    if (!c) {
      break;
    }
    out.push_back(std::move(*c));
  }
  if (!out.empty()) {
    host_->Count(Counter::kBlockHostCompletions, out.size());
  }
  return out;
}

// --- push-down program engine (DESIGN.md §14) ---

Result<PushdownProgramId> BlockDevice::InstallProgram(PushdownProgram program) {
  if (!config_.pushdown_enabled) {
    return PushdownUnsupported("device has no program engine");
  }
  if (program.fn == nullptr) {
    return InvalidArgument("pushdown program has no step function");
  }
  if (programs_.size() >= config_.pushdown_max_programs) {
    return ResourceExhausted("pushdown program table full");
  }
  // Installing a program is a control-path operation, like installing a NIC filter.
  host_->Work(host_->cost().offload_setup_ns);
  programs_.push_back(std::move(program));
  return static_cast<PushdownProgramId>(programs_.size() - 1);
}

Status BlockDevice::SubmitPushdown(std::uint64_t id, std::uint64_t root_lba,
                                   PushdownProgramId program, Buffer arg) {
  if (failed_) {
    return DeviceFailed("block device is dead");
  }
  if (!config_.pushdown_enabled) {
    return PushdownUnsupported("device has no program engine");
  }
  if (program >= programs_.size()) {
    return InvalidArgument("unknown pushdown program");
  }
  if (inflight_ >= config_.queue_depth) {
    return ResourceExhausted("submission queue full");
  }
  if (root_lba >= config_.num_blocks) {
    return InvalidArgument("pushdown root beyond device");
  }
  // One doorbell for the whole chain — that is the point.
  host_->Work(host_->cost().pcie_doorbell_ns);
  host_->Count(Counter::kDoorbells);
  host_->Count(Counter::kPushdownChains);

  auto chain = std::make_shared<PushdownChain>();
  chain->id = id;
  chain->program = program;
  chain->arg = std::move(arg);
  chain->lba = root_lba;
  ++inflight_;
  // The root fetch starts immediately; its service time is charged inside the step.
  host_->sim().Schedule(0, [this, chain] { PushdownStep(chain); });
  return OkStatus();
}

void BlockDevice::CompletePushdown(std::uint64_t id, Status status, Buffer payload,
                                   std::uint32_t steps, TimeNs service_ns) {
  host_->sim().Schedule(service_ns, [this, id, status = std::move(status),
                                     payload = std::move(payload), steps] {
    --inflight_;
    BlockCompletion c;
    c.id = id;
    c.status = status;
    c.payload = payload;
    c.pushdown_steps = steps;
    if (!cq_.Push(std::move(c))) {
      PanicImpl(__FILE__, __LINE__, "NVMe completion queue overrun");
    }
  });
}

void BlockDevice::PushdownStep(std::shared_ptr<PushdownChain> chain) {
  const CostModel& cost = host_->cost();
  const TimeNs read_ns = cost.NvmeNs(/*is_write=*/false, config_.block_size);

  // A controller death mid-chain kills the chain like any inflight command.
  if (failed_) {
    CompletePushdown(chain->id, DeviceFailed("block device died mid-chain"), Buffer{},
                     chain->steps, 0);
    return;
  }
  if (chain->lba >= config_.num_blocks) {
    CompletePushdown(chain->id, InvalidArgument("pushdown chain read beyond device"),
                     Buffer{}, chain->steps, 0);
    return;
  }

  // This step's media read happens now (even a faulted one consumed the flash access);
  // each device-side read is a real NVMe op, it just never crosses PCIe.
  ++chain->steps;
  host_->Count(Counter::kPushdownSteps);
  host_->Count(Counter::kNvmeOps);

  // Each device-side read consults the injector exactly as a host-submitted read
  // would: a mid-chain media error or timeout aborts the chain and surfaces through
  // the one host completion.
  TimeNs fault_delay = 0;
  if (Status fault = ConsultOpFault(&fault_delay); !fault.ok()) {
    CompletePushdown(chain->id, std::move(fault), Buffer{}, chain->steps,
                     read_ns + fault_delay);
    return;
  }

  // Fetch the block into device-local scratch (no host DMA, no host copy charge).
  const auto it = blocks_.find(chain->lba);
  if (zero_block_.size() < config_.block_size) {
    zero_block_.assign(config_.block_size, std::byte{0});
  }
  std::span<const std::byte> block =
      it != blocks_.end()
          ? it->second.span()
          : std::span<const std::byte>(zero_block_.data(), config_.block_size);

  // Execute the program on the device's (wimpier) cores.
  const PushdownProgram& prog = programs_[chain->program];
  const TimeNs exec_ns = static_cast<TimeNs>(
      static_cast<double>(prog.host_step_cost_ns) * cost.device_compute_factor);
  chain->exec_spent_ns += exec_ns;
  host_->Count(Counter::kDeviceComputeNs, static_cast<std::uint64_t>(exec_ns));

  PushdownContext ctx;
  ctx.block = block;
  ctx.arg = chain->arg.span();
  ctx.lba = chain->lba;
  ctx.step = chain->steps - 1;
  Result<PushdownAction> action = prog.fn(ctx);
  if (!action.ok()) {
    CompletePushdown(chain->id, action.status(), Buffer{}, chain->steps,
                     read_ns + exec_ns);
    return;
  }
  if (action->done) {
    // Final value DMAs to the host with the completion.
    host_->Count(Counter::kDmaOps);
    CompletePushdown(chain->id, OkStatus(), std::move(action->result), chain->steps,
                     read_ns + exec_ns);
    return;
  }
  if (chain->steps >= config_.pushdown_max_depth) {
    CompletePushdown(
        chain->id,
        PushdownDepthExceeded("chain exceeded " +
                              std::to_string(config_.pushdown_max_depth) + " reads"),
        Buffer{}, chain->steps, read_ns + exec_ns);
    return;
  }
  if (chain->exec_spent_ns > config_.pushdown_step_budget_ns) {
    CompletePushdown(chain->id,
                     PushdownDepthExceeded("chain exceeded its on-device step budget"),
                     Buffer{}, chain->steps, read_ns + exec_ns);
    return;
  }
  // Resubmit the dependent read device-side: no doorbell, no host completion.
  chain->lba = action->next_lba;
  host_->sim().Schedule(read_ns + exec_ns + cost.nvme_pushdown_resubmit_ns,
                        [this, chain] { PushdownStep(chain); });
}

}  // namespace demi
