// BlockDevice: an SPDK-style NVMe device.
//
// The driver interface is a submission queue + completion queue pair, polled (never
// interrupt-driven on the fast path). Reads and writes DMA directly between device and
// caller-provided buffers — zero copies on the host. Data lives in an in-memory sparse
// block store; service times follow the NVMe entries of the cost model.
//
// The store keeps the Buffers it is given: a write's blocks become zero-copy slices of
// the caller's Buffer, held by refcount as a device holds a buffer under
// free-protection (§4.5). A writer must therefore never modify a Buffer after
// submitting it; to change a block it has written, it writes a fresh copy (Catfish
// copies a cached block on write while the device still shares it).
//
// The legacy kernel's VFS (src/kernel) drives the same device through its own layer
// (page cache + copies + syscalls), which is exactly the contrast experiment E3 measures.

#ifndef SRC_HW_BLOCK_DEVICE_H_
#define SRC_HW_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/result.h"
#include "src/common/ring_buffer.h"
#include "src/hw/device.h"
#include "src/hw/pushdown.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulation.h"

namespace demi {

struct BlockDeviceConfig {
  std::uint64_t num_blocks = 1 << 20;  // 4 GiB at 4 KiB blocks
  std::uint32_t block_size = 4096;
  std::size_t queue_depth = 64;  // outstanding commands
  // --- push-down program engine (DESIGN.md §14) ---
  bool pushdown_enabled = true;          // device ships an on-device program engine
  std::uint32_t pushdown_max_depth = 16; // device-side reads per chain (root included)
  TimeNs pushdown_step_budget_ns = 200 * kMicrosecond;  // total on-device program
                                                        // execution time per chain
  std::size_t pushdown_max_programs = 32;
};

struct BlockCompletion {
  std::uint64_t id = 0;
  Status status;
  // Push-down chains only: the program's final value and how many device-side reads
  // the chain consumed (1 = the root fetch alone; host completions are always 1).
  Buffer payload;
  std::uint32_t pushdown_steps = 0;
};

class BlockDevice {
 public:
  BlockDevice(HostCpu* host, BlockDeviceConfig config = BlockDeviceConfig{});

  DeviceCaps caps() const;
  const BlockDeviceConfig& config() const { return config_; }
  std::uint32_t block_size() const { return config_.block_size; }
  std::uint64_t num_blocks() const { return config_.num_blocks; }

  // Submits a read of `count` blocks starting at `lba` into `dest` (size must be
  // count*block_size). Completion arrives in the CQ. Returns kResourceExhausted when
  // the queue is at depth (caller backs off).
  Status SubmitRead(std::uint64_t id, std::uint64_t lba, std::uint32_t count, Buffer dest);

  // Submits a write of `src` (whole blocks) at `lba`. On success the written blocks
  // are slices of `src`, which the caller must not modify from now on.
  Status SubmitWrite(std::uint64_t id, std::uint64_t lba, Buffer src);

  // Submits a flush barrier: completes after every previously submitted write.
  Status SubmitFlush(std::uint64_t id);

  // --- push-down program engine (DESIGN.md §14) ---

  // Installs a device-side program; charges the offload setup cost.
  // kPushdownUnsupported when the engine is disabled, kResourceExhausted when the
  // program table is full.
  Result<PushdownProgramId> InstallProgram(PushdownProgram program);

  // Submits a push-down chain rooted at `root_lba`: the device fetches the block,
  // runs `program` on it, and either completes to the host (one CQ entry carrying the
  // program's final value) or resubmits the dependent read *device-side*. The chain is
  // bounded by pushdown_max_depth and pushdown_step_budget_ns; exceeding either
  // surfaces kPushdownDepthExceeded in the completion. An injected per-op fault
  // (kMediaError/kOpTimeout) on any step — the injector is consulted once per
  // device-side read, exactly as for host-submitted reads — aborts the chain and
  // surfaces through the same single completion.
  Status SubmitPushdown(std::uint64_t id, std::uint64_t root_lba,
                        PushdownProgramId program, Buffer arg);

  // Drains up to `max` completions.
  std::vector<BlockCompletion> PollCompletions(std::size_t max = 16);

  std::size_t inflight() const { return inflight_; }

  // Registers this device with the injector. Per-op faults (kMediaError, kOpTimeout)
  // are consulted on every submission; a kDeviceFailed fault latches the controller
  // dead and all future submissions return kDeviceFailed.
  FaultDeviceId AttachFaultInjector(FaultInjector* faults);
  bool failed() const { return failed_; }
  FaultDeviceId fault_device() const { return fault_dev_; }

  // Test/debug access to the backing store.
  bool BlockExists(std::uint64_t lba) const { return blocks_.contains(lba); }

 private:
  // One in-flight push-down chain. Heap-allocated and owned by the step events.
  struct PushdownChain {
    std::uint64_t id = 0;
    PushdownProgramId program = kInvalidPushdownProgram;
    Buffer arg;
    std::uint64_t lba = 0;        // block the next step fetches
    std::uint32_t steps = 0;      // device-side reads consumed so far
    TimeNs exec_spent_ns = 0;     // on-device program time consumed so far
  };

  void Complete(std::uint64_t id, Status status, TimeNs service_ns);
  void CompletePushdown(std::uint64_t id, Status status, Buffer payload,
                        std::uint32_t steps, TimeNs service_ns);
  // Runs one device-side step of `chain` (fetch chain->lba, execute the program,
  // finish or resubmit). Called from a scheduled event at the step's start time.
  void PushdownStep(std::shared_ptr<PushdownChain> chain);
  // Consults the injector for a per-op fault; returns the Status the op should complete
  // with (and the extra delay for timeouts), or kOk when the op proceeds normally.
  Status ConsultOpFault(TimeNs* extra_delay);

  HostCpu* host_;
  BlockDeviceConfig config_;
  FaultInjector* faults_ = nullptr;
  FaultDeviceId fault_dev_ = kInvalidFaultDevice;
  bool failed_ = false;
  std::unordered_map<std::uint64_t, Buffer> blocks_;  // one block_size slice each
  std::vector<PushdownProgram> programs_;
  std::vector<std::byte> zero_block_;  // device-local scratch for unwritten LBAs
  RingBuffer<BlockCompletion> cq_;
  std::size_t inflight_ = 0;
  TimeNs last_write_done_ = 0;  // flush barrier tracking
};

}  // namespace demi

#endif  // SRC_HW_BLOCK_DEVICE_H_
