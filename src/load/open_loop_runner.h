// Open-loop load harness: 10^5..10^6 concurrent TCP connections against a lean
// echo/KV server, driven entirely by arrival timers and TCP ready callbacks.
//
// Topology (one Simulation, one fabric):
//   - one server host (charges the clock: it IS the system under test) with a
//     multi-queue-capable NIC and one NetStack listening on `server_ports` ports;
//   - `client_stacks` load-generator hosts, each with its own NIC + NetStack,
//     marked charges_clock=false so generator CPU can never throttle offered load.
//
// Connection capacity: each client stack owns a 2048-port ephemeral partition and
// ports are free per 4-tuple, so capacity = client_stacks * server_ports * 2048
// (8 * 64 * 2048 = 1,048,576 at the defaults). Connection i maps to stack i %
// client_stacks and server port (i / client_stacks) % server_ports.
//
// Event-driven, not polled: at a million connections any per-connection poll loop
// is O(N) per step and dominates the run. The harness polls nothing per
// connection — clients react to TcpConnection ready callbacks, arrivals are
// scheduler events, and the only Poller is the accept-queue drain on the server side.
//
// Intended-send-time accounting (coordinated-omission-free): a request's latency is
// measured from the instant its arrival timer fired — NOT from when the bytes made
// it into the socket, which under overload can be much later (the request waits in
// an application backlog while the send buffer is full). Queueing delay anywhere in
// the pipeline therefore lands in the reported tail, exactly as a real open-loop
// client fleet would experience it.
//
// A sweep point (RunPoint) retargets the aggregate rate: every connection's pending
// arrival timer is cancelled and redrawn at the new rate (valid because exponential
// gaps are memoryless — and a deliberate million-entry cancel/schedule storm on the
// scheduler), runs a warmup, then records completions into a named histogram
// "openloop/<rate>rps/latency_ns" in the simulation's MetricsRegistry for the
// measurement window.
//
// Optional stressors, all seeded and deterministic:
//   - churn: an exponential clock closes a random established connection; the
//     replacement reconnects (exercising 4-tuple port reuse and TIME_WAIT);
//   - incast: every `incast_period_ns`, `incast_fanin` connections fire a request
//     at the same instant (fan-in microburst);
//   - slow clients: a fraction of connections delay draining responses, filling
//     their receive windows and backpressuring the server;
//   - MMPP arrivals: on/off bursty load with a global phase flip that redraws every
//     arrival timer (see arrival.h).

#ifndef SRC_LOAD_OPEN_LOOP_RUNNER_H_
#define SRC_LOAD_OPEN_LOOP_RUNNER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/hw/tenant.h"
#include "src/load/arrival.h"
#include "src/load/hostile_tenant.h"
#include "src/load/workload.h"
#include "src/memory/memory_manager.h"
#include "src/net/stack.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace demi {

// Multi-tenant chaos mode for the load harness. When enabled, the server NIC
// becomes a two-queue shared device governed by a TenantRegistry: the echo
// server is the *victim* tenant on queue 0 (its stack's listen ports are flow-
// steered there) and a HostileTenant co-tenant floods queue 1 with raw frames
// aimed at a dedicated sink NIC that never drains. The victim's capability set
// is covered three ways: a MemoryManager bound to the tenant supplies every
// protocol header (transparent registration), the shared response blob is
// granted explicitly, and echoed request payloads are legal via device RX
// grants. `isolation_on` is the experiment knob: on, the device contains the
// hostile tenant (buckets + DWRR + capability checks); off reproduces the
// unprotected first-come-first-served device.
struct OpenLoopTenantConfig {
  bool enabled = false;
  bool isolation_on = true;
  TenantQosConfig victim{.name = "victim", .weight = 8};
  TenantQosConfig hostile{.name = "hostile",
                          .weight = 1,
                          .doorbells_per_sec = 50'000.0,
                          .doorbell_burst = 32.0,
                          .descriptors_per_sec = 2'000'000.0,
                          .descriptor_burst = 256.0};
  HostileTenantConfig hostile_load;
};

struct OpenLoopConfig {
  std::size_t connections = 100'000;
  std::size_t client_stacks = 8;
  std::size_t server_ports = 64;
  WorkloadConfig workload;
  ArrivalConfig arrival;
  TcpConfig tcp;  // applied to both sides; listen_backlog is raised to >= 4096
  FabricConfig fabric;  // loss/reorder knobs for lossy-sweep experiments
  // Stressors (0 / unset disables each).
  double churn_per_sec = 0.0;
  double slow_client_fraction = 0.0;
  TimeNs slow_drain_delay_ns = 1 * kMillisecond;
  std::size_t incast_fanin = 0;
  TimeNs incast_period_ns = 10 * kMillisecond;
  // Application-level service time charged to the server host per request.
  TimeNs server_work_per_request_ns = 500;
  // Connections opened per ramp wave. Each wave's SYNs land on the server NIC
  // within ~a wire latency of each other, so the wave must fit well inside the
  // 4096-slot RX ring or synchronized SYN retransmits collapse in lockstep.
  std::size_t ramp_batch = 2048;
  std::uint64_t seed = 1;
  OpenLoopTenantConfig tenant;  // disabled by default; see struct comment
};

// One measured point of an offered-load sweep.
struct SweepPoint {
  double offered_rps = 0;
  double achieved_rps = 0;
  std::uint64_t issued = 0;     // arrival-timer firings inside the window
  std::uint64_t completed = 0;  // responses fully delivered inside the window
  HistogramStats latency;       // completion time minus intended send time
  std::string histogram_name;   // where the full histogram lives in the registry
};

class OpenLoopRunner final : public Poller {
 public:
  // Ephemeral ports each client stack may use per server port (per-4-tuple reuse).
  static constexpr std::size_t kEphemeralPartition = 2048;

  // Validates capacity and stressor parameters without building anything.
  // Returns kInvalidArgument — with the offending numbers in the message — when
  // `connections` exceeds the 4-tuple capacity client_stacks * server_ports *
  // kEphemeralPartition, or when a required count is zero. The constructor
  // panics on an invalid config; callers that take untrusted configs should
  // call this first and surface the typed error instead.
  static Status ValidateConfig(const OpenLoopConfig& cfg);

  explicit OpenLoopRunner(OpenLoopConfig cfg);
  ~OpenLoopRunner() override;
  OpenLoopRunner(const OpenLoopRunner&) = delete;
  OpenLoopRunner& operator=(const OpenLoopRunner&) = delete;

  Simulation& sim() { return sim_; }

  // Opens all connections in paced waves and runs the simulation until every one
  // is established and accepted. Returns false if that does not happen within
  // `deadline` of simulated time.
  bool Ramp(TimeNs deadline = 120 * kSecond);

  // One sweep point: retarget the rate, warm up, measure. Callable repeatedly with
  // increasing rates to trace a throughput-vs-tail-latency curve.
  SweepPoint RunPoint(double offered_rps, TimeNs warmup, TimeNs measure);

  // Stops all load (arrival/churn/incast/phase timers). RunPoint calls this first.
  void StopLoad();

  // Server-side accept drain + amortized connection reaping.
  bool Poll() override;

  // --- introspection (tests, benches) ---
  std::size_t established_connections() const { return established_; }
  std::uint64_t accepted_connections() const { return accepted_; }
  std::uint64_t issued_total() const { return issued_total_; }
  std::uint64_t completed_total() const { return completed_total_; }
  std::uint64_t served_total() const { return served_; }
  std::uint64_t churn_initiated() const { return churn_initiated_; }
  std::uint64_t churn_completed() const { return churn_cycles_; }
  std::uint64_t unexpected_deaths() const { return dead_unexpected_; }
  std::uint64_t lost_in_flight() const { return lost_in_flight_; }
  std::uint64_t phase_flips() const { return phase_flips_; }
  std::uint64_t stray_response_bytes() const { return stray_bytes_; }
  NetStack& server_stack() { return *server_stack_; }
  NetStack& client_stack(std::size_t i) { return *client_stacks_[i]; }
  std::size_t client_stack_count() const { return client_stacks_.size(); }
  SimNic& client_nic(std::size_t i) { return *client_nics_[i]; }
  SimNic& server_nic() { return *server_nic_; }
  const OpenLoopConfig& config() const { return cfg_; }

  // --- tenant mode (null / kNoTenant unless cfg.tenant.enabled) ---
  TenantRegistry* tenant_registry() { return tenant_registry_.get(); }
  TenantId victim_tenant() const { return victim_tenant_; }
  TenantId hostile_tenant() const { return hostile_tenant_; }
  HostileTenant* hostile() { return hostile_.get(); }
  SimNic* sink_nic() { return sink_nic_.get(); }

  // Test hook: observe every completion as (intended send time, completion time).
  using CompletionProbe = std::function<void(TimeNs intended, TimeNs completed)>;
  void set_completion_probe(CompletionProbe probe) { probe_ = std::move(probe); }

 private:
  struct Pending {
    TimeNs intended;
    std::uint32_t resp_remaining;
  };
  struct LoadConn {
    TcpConnection* tcp = nullptr;
    std::uint16_t stack = 0;
    bool established = false;
    bool dead = false;
    bool closing = false;  // churn close in flight; guards against double-close
    bool slow = false;
    bool drain_scheduled = false;
    Endpoint server;
    TimerId arrival = kInvalidTimer;
    std::deque<Pending> pending;  // outstanding requests, oldest first
    std::deque<Buffer> backlog;   // requests not yet accepted by the send buffer
  };
  struct SrvConn {
    std::size_t got = 0;  // bytes of the current request consumed so far
    std::uint8_t hdr[WorkloadModel::kHeaderBytes] = {};
    std::deque<Buffer> backlog;  // responses awaiting send-buffer space
  };

  void OpenConnection(std::size_t i);
  void ReopenConnection(std::size_t i);
  void OnClientReady(std::size_t i);
  void OnClientDead(std::size_t i);
  void DrainClient(std::size_t i);
  void FlushClientBacklog(std::size_t i);
  void CompleteRequest(std::size_t i, TimeNs intended);
  void IssueRequest(std::size_t i, TimeNs intended);
  void ScheduleArrival(std::size_t i);
  void ArmArrival(std::size_t i, TimeNs due);
  void RedrawAllArrivals();
  void ScheduleChurn();
  void ChurnTick();
  void ScheduleIncast();
  void ArmIncast(TimeNs due);
  void SchedulePhaseFlip();
  void CancelTimer(TimerId& id);

  void OnServerReady(TcpConnection* tc);
  void ConsumeRequestBytes(TcpConnection* tc, SrvConn& sc, const Buffer& b);
  void ServeRequest(TcpConnection* tc, SrvConn& sc, std::uint32_t resp_bytes);
  void FlushServerBacklog(TcpConnection* tc, SrvConn& sc);

  OpenLoopConfig cfg_;
  Simulation sim_;
  Fabric fabric_;
  WorkloadModel workload_;
  ArrivalProcess arrival_;
  Rng rng_;

  Ipv4Address server_ip_;
  Buffer response_blob_;  // shared storage for all response payloads

  // Load state (declared before the stacks so callbacks into it stay valid while
  // the stacks destruct; NetStack clears connection callbacks in its dtor anyway).
  std::vector<LoadConn> conns_;
  std::unordered_map<TcpConnection*, SrvConn> srv_conns_;
  std::vector<TcpListener*> listeners_;
  bool point_active_ = false;
  bool measuring_ = false;
  Histogram* hist_ = nullptr;
  CompletionProbe probe_;
  TimerId churn_timer_ = kInvalidTimer;
  TimerId incast_timer_ = kInvalidTimer;
  TimerId phase_timer_ = kInvalidTimer;
  std::size_t incast_cursor_ = 0;

  std::size_t established_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t issued_total_ = 0;
  std::uint64_t issued_window_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t completed_window_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t churn_initiated_ = 0;
  std::uint64_t churn_cycles_ = 0;
  std::uint64_t dead_unexpected_ = 0;
  std::uint64_t lost_in_flight_ = 0;
  std::uint64_t phase_flips_ = 0;
  std::uint64_t stray_bytes_ = 0;

  // Tenant mode. Declared before the hardware so the registry and allocator are
  // destroyed after the device and stack that reference them.
  std::unique_ptr<TenantRegistry> tenant_registry_;
  std::unique_ptr<MemoryManager> server_memory_;
  TenantId victim_tenant_ = kNoTenant;
  TenantId hostile_tenant_ = kNoTenant;

  // Hardware and stacks last: destroyed first, while the state above is alive.
  std::unique_ptr<HostCpu> server_host_;
  std::unique_ptr<SimNic> server_nic_;
  std::vector<std::unique_ptr<HostCpu>> client_hosts_;
  std::vector<std::unique_ptr<SimNic>> client_nics_;
  std::unique_ptr<NetStack> server_stack_;
  std::vector<std::unique_ptr<NetStack>> client_stacks_;
  // Hostile co-tenant and its traffic sink (tenant mode only); destroyed before
  // the shared NIC they reference.
  std::unique_ptr<HostCpu> sink_host_;
  std::unique_ptr<SimNic> sink_nic_;
  std::unique_ptr<HostileTenant> hostile_;
};

}  // namespace demi

#endif  // SRC_LOAD_OPEN_LOOP_RUNNER_H_
