// Open-loop load harness for the RSS-sharded multi-core worker pool (DESIGN.md §13).
//
// Topology (one Simulation, one fabric):
//   - one server host: a multi-queue bypass NIC shared by a WorkerPool of N
//     kernel-less Catnip workers, worker w on sim core w+1 driving NIC queue w;
//   - `client_stacks` load-generator hosts on core 0, marked charges_clock=false so
//     generator CPU can never throttle offered load or perturb worker timing.
//
// The wire protocol is the open-loop harness protocol (src/load/workload.h) carried
// over Demikernel framing: each request is one framed element whose first 4 payload
// bytes name the response length; each response is one framed element of that
// length. Latency is measured from the *intended* send time (the arrival-timer
// schedule), never from socket entry — the coordinated-omission-free discipline of
// OpenLoopRunner.
//
// Shard-skew model: every connection's RSS queue — hence its worker shard — is
// computed up front with SimNic::RssForTuple from its 4-tuple. With shard_skew s >
// 0, per-connection arrival rates are weighted 1/(shard+1)^s, concentrating load on
// shard 0's connections while the aggregate offered rate stays fixed. That is the
// imbalance completion stealing exists to absorb: steal off, the hot shard's tail
// collapses; steal on, idle shards execute its ready completions.

#ifndef SRC_LOAD_SMP_HARNESS_H_
#define SRC_LOAD_SMP_HARNESS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/smp.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/load/open_loop_runner.h"  // SweepPoint
#include "src/load/workload.h"
#include "src/net/framing.h"
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

class SmpHarness final {
 public:
  explicit SmpHarness(SmpHarnessConfig cfg);
  ~SmpHarness();
  SmpHarness(const SmpHarness&) = delete;
  SmpHarness& operator=(const SmpHarness&) = delete;

  Simulation& sim() { return sim_; }
  WorkerPool& pool() { return *pool_; }
  SimNic& server_nic() { return *server_nic_; }
  const SmpHarnessConfig& config() const { return cfg_; }

  // Opens all connections in paced waves; true once every one is established on
  // the client side AND accepted by its worker shard.
  bool Ramp(TimeNs deadline = 120 * kSecond);

  // One measured point: retarget the aggregate rate (shard-skew weighted), warm
  // up, measure. Latencies land in histogram "smp/<label>/<rate>rps/latency_ns".
  SweepPoint RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                      const std::string& label = "run");

  void StopLoad();

  std::size_t established_connections() const { return established_; }
  std::uint64_t issued_total() const { return issued_total_; }
  std::uint64_t completed_total() const { return completed_total_; }
  // Connections whose flows hash to `shard` (set during Ramp).
  std::size_t shard_connections(int shard) const;

 private:
  struct Pending {
    TimeNs intended;
    std::uint32_t resp_bytes;
  };
  struct LoadConn {
    TcpConnection* tcp = nullptr;
    std::uint16_t stack = 0;
    int shard = 0;
    bool established = false;
    bool dead = false;
    double rate_rps = 0;  // this connection's share of the offered load
    TimerId arrival = kInvalidTimer;
    std::deque<Pending> pending;  // outstanding requests, oldest first
    std::deque<Buffer> backlog;   // wire parts the send buffer rejected
    FrameDecoder decoder;         // reassembles framed responses
  };

  void OpenConnection(std::size_t i);
  void OnClientReady(std::size_t i);
  void DrainClient(std::size_t i);
  void FlushClientBacklog(std::size_t i);
  void IssueRequest(std::size_t i, TimeNs intended);
  void ArmArrival(std::size_t i, TimeNs due);
  void AssignRates(double offered_rps);
  void CancelTimer(TimerId& id);

  SmpHarnessConfig cfg_;
  Simulation sim_;
  Fabric fabric_;
  WorkloadModel workload_;
  Rng rng_;
  Ipv4Address server_ip_;

  std::vector<LoadConn> conns_;
  std::vector<std::size_t> shard_conns_;  // connection count per shard
  bool point_active_ = false;
  bool measuring_ = false;
  Histogram* hist_ = nullptr;
  std::size_t established_ = 0;
  std::uint64_t dead_conns_ = 0;
  std::uint64_t issued_total_ = 0;
  std::uint64_t issued_window_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t completed_window_ = 0;

  // Hardware/stacks last: destroyed first, while the state above is alive.
  std::unique_ptr<HostCpu> server_host_;  // charges the clock: NIC driver work
  std::unique_ptr<SimNic> server_nic_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<HostCpu>> client_hosts_;
  std::vector<std::unique_ptr<SimNic>> client_nics_;
  std::vector<std::unique_ptr<NetStack>> client_stacks_;
};

}  // namespace demi

#endif  // SRC_LOAD_SMP_HARNESS_H_
