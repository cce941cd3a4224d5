// The open-loop client fleet shared by the load harnesses (DESIGN.md §11.2).
//
// A LoadDriver owns one Simulation and one fabric, `client_stacks` load-generator
// hosts (each with its own NIC + NetStack, marked charges_clock=false so generator
// CPU can never throttle offered load), and one TCP connection per fleet slot. A
// derived harness builds the server under test — a lean NetStack server
// (OpenLoopRunner) or a WorkerPool (SmpHarness) — and then calls BuildClients(),
// so the server's pollers run before the clients'.
//
// Connection capacity: each client stack owns a 2048-port ephemeral partition and
// ports are free per 4-tuple, so capacity = client_stacks * endpoints * 2048, where
// `endpoints` is the number of server ports. Connection i maps to stack
// i % client_stacks and server port base + (i / client_stacks) % endpoints.
//
// Event-driven, not polled: at a million connections any per-connection poll loop
// is O(N) per step and dominates the run. The driver polls nothing per connection
// — clients react to TcpConnection ready callbacks and arrivals are scheduler
// events.
//
// Intended-send-time accounting (coordinated-omission-free): a request's latency is
// measured from the instant its arrival timer was scheduled to fire — NOT from when
// the bytes made it into the socket, which under overload can be much later (the
// request waits in an application backlog while the send buffer is full). Queueing
// delay anywhere in the pipeline therefore lands in the reported tail, exactly as a
// real open-loop client fleet would experience it.
//
// Arrivals: connection i draws exponential gaps with mean 1e9 * W / (rate * w_i),
// where w_i = ArrivalWeight(i) and W is the sum of all weights, so the aggregate
// offered rate stays `rate` however the harness skews it (uniform by default).
//
// A sweep point (RunPoint) retargets the aggregate rate: every connection's pending
// arrival timer is cancelled and redrawn at the new rate (valid because exponential
// gaps are memoryless — and a deliberate million-entry cancel/schedule storm on the
// scheduler), runs a warmup, then records completions into a named histogram
// "<prefix>[/<label>]/<rate>rps/latency_ns" in the simulation's MetricsRegistry for
// the measurement window.
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

#ifndef SRC_LOAD_LOAD_DRIVER_H_
#define SRC_LOAD_LOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fifo.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/load/arrival.h"
#include "src/load/workload.h"
#include "src/net/framing.h"
#include "src/net/stack.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace demi {

struct LoadDriverConfig {
  std::size_t connections = 100'000;
  std::size_t client_stacks = 8;
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
  // Connections opened per ramp wave. Each wave's SYNs land on the server NIC
  // within ~a wire latency of each other, so the wave must fit well inside the
  // 4096-slot RX ring or synchronized SYN retransmits collapse in lockstep.
  std::size_t ramp_batch = 2048;
  std::uint64_t seed = 1;
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

class LoadDriver {
 public:
  // Ephemeral ports each client stack may use per server port (per-4-tuple reuse).
  static constexpr std::size_t kEphemeralPartition = 2048;

  // How requests and responses ride the TCP stream. The server under test fixes it.
  enum class WireCodec {
    kRaw,     // fixed-size requests; responses counted by length
    kFramed,  // Demikernel framing: one EncodeFrame element per message
  };

  // Returns kInvalidArgument — with the offending numbers in the message — when a
  // count is zero or `connections` exceeds the 4-tuple capacity
  // client_stacks * endpoints * kEphemeralPartition.
  static Status ValidateFleet(const LoadDriverConfig& cfg, std::size_t endpoints);

  virtual ~LoadDriver();
  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  Simulation& sim() { return sim_; }

  // Opens all connections in paced waves and runs the simulation until every one
  // is established and accepted by the server. Returns false if that does not
  // happen within `deadline` of simulated time.
  bool Ramp(TimeNs deadline = 120 * kSecond);

  // One sweep point: retarget the rate, warm up, measure. Callable repeatedly with
  // increasing rates to trace a throughput-vs-tail-latency curve. A non-empty
  // `label` becomes a path component of the histogram name.
  SweepPoint RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                      const std::string& label = "");

  // Stops all load (arrival/churn/incast/phase timers). RunPoint calls this first.
  void StopLoad();

  // Connections the server under test has accepted.
  virtual std::uint64_t accepted_connections() const = 0;

  // --- introspection (tests, benches) ---
  std::size_t established_connections() const { return established_; }
  std::uint64_t issued_total() const { return issued_total_; }
  std::uint64_t completed_total() const { return completed_total_; }
  std::uint64_t churn_initiated() const { return churn_initiated_; }
  std::uint64_t churn_completed() const { return churn_cycles_; }
  std::uint64_t unexpected_deaths() const { return dead_unexpected_; }
  std::uint64_t lost_in_flight() const { return lost_in_flight_; }
  std::uint64_t phase_flips() const { return phase_flips_; }
  std::uint64_t stray_response_bytes() const { return stray_bytes_; }
  NetStack& client_stack(std::size_t i) { return *client_stacks_[i]; }
  std::size_t client_stack_count() const { return client_stacks_.size(); }
  SimNic& client_nic(std::size_t i) { return *client_nics_[i]; }

  // Test hook: observe every completion as (intended send time, completion time).
  using CompletionProbe = std::function<void(TimeNs intended, TimeNs completed)>;
  void set_completion_probe(CompletionProbe probe) { probe_ = std::move(probe); }

 protected:
  // Panics if ValidateFleet fails. Connections dial `endpoints` consecutive ports
  // starting at `server`; `histogram_prefix` names RunPoint's histograms and
  // `rng_seed` seeds the arrival, workload and stressor draws.
  LoadDriver(const LoadDriverConfig& cfg, WireCodec codec, const char* histogram_prefix,
             Endpoint server, std::size_t endpoints, std::uint64_t rng_seed);

  // Builds the client hosts, NICs and stacks; stack s is seeded
  // mix(seed, 0xc11e + s). The derived harness calls this after building its
  // server, because construction order is poller order.
  void BuildClients(std::uint64_t (*mix)(std::uint64_t seed, std::uint64_t salt));

  Fabric& fabric() { return fabric_; }
  const WorkloadModel& workload() const { return workload_; }
  // cfg.tcp with listen_backlog raised to >= 4096; the server should use it too.
  const TcpConfig& tcp_config() const { return tcp_; }

  // Called once per connect, right after the client stack allocated the local port.
  virtual void OnConnectionOpened(std::size_t i, const TcpConnection& tcp) {}
  // Connection i's share of the offered load, relative to the others.
  virtual double ArrivalWeight(std::size_t i) const { return 1.0; }

 private:
  struct Pending {
    TimeNs intended;
    std::uint32_t resp_remaining;
  };
  struct LoadConn {
    TcpConnection* tcp = nullptr;
    bool established = false;
    bool dead = false;
    bool closing = false;  // churn close in flight; guards against double-close
    bool slow = false;
    bool drain_scheduled = false;
    TimerId arrival = kInvalidTimer;
    Fifo<Pending> pending;  // outstanding requests, oldest first
    Fifo<Buffer> backlog;   // wire parts not yet accepted by the send buffer
  };

  void OpenConnection(std::size_t i);
  void OnClientReady(std::size_t i);
  void OnClientDead(std::size_t i);
  void DrainClient(std::size_t i);
  void FlushClientBacklog(std::size_t i);
  void CompleteRequest(TimeNs intended);
  void IssueRequest(std::size_t i, TimeNs intended);
  void ScheduleArrival(std::size_t i);
  void ArmArrival(std::size_t i, TimeNs due);
  TimeNs NextGap(std::size_t i);
  void RedrawAllArrivals();
  void ScheduleChurn();
  void ChurnTick();
  void ScheduleIncast();
  void ArmIncast(TimeNs due);
  void SchedulePhaseFlip();
  void CancelTimer(TimerId& id);

  LoadDriverConfig cfg_;
  WireCodec codec_;
  std::string histogram_prefix_;
  Endpoint server_;
  std::size_t endpoints_;
  TcpConfig tcp_;
  Simulation sim_;
  Fabric fabric_;
  WorkloadModel workload_;
  ArrivalProcess arrival_;
  Rng rng_;

  // Load state (declared before the stacks so callbacks into it stay valid while
  // the stacks destruct; NetStack clears connection callbacks in its dtor anyway).
  std::vector<LoadConn> conns_;
  std::vector<FrameDecoder> decoders_;  // per connection; framed codec only
  double total_weight_ = 0;             // sum of ArrivalWeight over the fleet
  bool point_active_ = false;
  bool measuring_ = false;
  Histogram* hist_ = nullptr;
  CompletionProbe probe_;
  TimerId churn_timer_ = kInvalidTimer;
  TimerId incast_timer_ = kInvalidTimer;
  TimerId phase_timer_ = kInvalidTimer;
  std::size_t incast_cursor_ = 0;

  std::size_t established_ = 0;
  std::uint64_t issued_total_ = 0;
  std::uint64_t issued_window_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t completed_window_ = 0;
  std::uint64_t churn_initiated_ = 0;
  std::uint64_t churn_cycles_ = 0;
  std::uint64_t dead_unexpected_ = 0;
  std::uint64_t lost_in_flight_ = 0;
  std::uint64_t phase_flips_ = 0;
  std::uint64_t stray_bytes_ = 0;

  // Client hardware and stacks last: destroyed first, while the state above is
  // alive. The derived harness's server is destroyed before all of them.
  std::vector<std::unique_ptr<HostCpu>> client_hosts_;
  std::vector<std::unique_ptr<SimNic>> client_nics_;
  std::vector<std::unique_ptr<NetStack>> client_stacks_;
};

}  // namespace demi

#endif  // SRC_LOAD_LOAD_DRIVER_H_
