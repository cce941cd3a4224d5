// Open-loop load harness for the RSS-sharded multi-core worker pool (DESIGN.md §13).
//
// Topology (one Simulation, one fabric):
//   - one server host: a multi-queue bypass NIC shared by a WorkerPool of N
//     kernel-less Catnip workers, worker w on sim core w+1 driving NIC queue w;
//   - the shared LoadDriver's `client_stacks` load-generator hosts on core 0.
//
// The client fleet — arrivals, intended-send-time accounting, ramp and sweep
// points — is LoadDriver (load_driver.h). A WorkerPool pops Demikernel frames, so
// the wire protocol is the open-loop harness protocol (src/load/workload.h) carried
// over Demikernel framing: each request is one framed element whose first 4
// payload bytes name the response length; each response is one framed element of
// that length.
//
// Shard-skew model: every connection's RSS queue — hence its worker shard — is
// computed at connect time with SimNic::RssForTuple from its 4-tuple. With
// shard_skew s > 0, each connection's arrival weight is 1/(shard+1)^s,
// concentrating load on shard 0's connections while the aggregate offered rate
// stays fixed. That is the imbalance completion stealing exists to absorb: steal
// off, the hot shard's tail collapses; steal on, idle shards execute its ready
// completions.

#ifndef SRC_LOAD_SMP_HARNESS_H_
#define SRC_LOAD_SMP_HARNESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/smp.h"
#include "src/hw/nic.h"
#include "src/load/load_driver.h"
#include "src/load/workload.h"
#include "src/net/stack.h"
#include "src/sim/simulation.h"

namespace demi {

struct SmpHarnessConfig {
  int workers = 4;
  std::size_t connections = 256;
  std::size_t client_stacks = 8;
  WorkloadConfig workload;  // echo or KV; defines request/response sizes
  TcpConfig tcp;            // both sides; listen_backlog raised to >= 4096
  // Per-request service time charged on the executing worker core.
  TimeNs server_request_cpu_ns = 500;
  // Completion stealing, passed through to SmpConfig.
  bool steal = true;
  // Zipf-ish exponent over shard index: connection weight 1/(shard+1)^skew.
  // 0 = uniform offered load across shards.
  double shard_skew = 0.0;
  std::size_t ramp_batch = 1024;  // connections opened per ramp wave
  std::uint64_t seed = 1;
};

class SmpHarness final : public LoadDriver {
 public:
  explicit SmpHarness(SmpHarnessConfig cfg);

  WorkerPool& pool() { return *pool_; }
  SimNic& server_nic() { return *server_nic_; }
  const SmpHarnessConfig& config() const { return cfg_; }

  std::uint64_t accepted_connections() const override { return pool_->total_accepted(); }
  // Connections whose flows hash to `shard` (set during Ramp).
  std::size_t shard_connections(int shard) const;

 private:
  void OnConnectionOpened(std::size_t i, const TcpConnection& tcp) override;
  double ArrivalWeight(std::size_t i) const override;

  SmpHarnessConfig cfg_;
  std::vector<double> weights_;           // arrival weight per connection
  std::vector<std::size_t> shard_conns_;  // connection count per shard

  // Hardware and pool last: destroyed first, while the state above is alive.
  std::unique_ptr<HostCpu> server_host_;  // charges the clock: NIC driver work
  std::unique_ptr<SimNic> server_nic_;
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace demi

#endif  // SRC_LOAD_SMP_HARNESS_H_
