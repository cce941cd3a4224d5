// Open-loop load harness: 10^5..10^6 concurrent TCP connections against a lean
// echo/KV server. The client fleet — arrivals, intended-send-time accounting,
// stressors, ramp and sweep points — is the shared LoadDriver (load_driver.h);
// this file is the server under test.
//
// Topology (one Simulation, one fabric):
//   - one server host (charges the clock: it IS the system under test) with a
//     multi-queue-capable NIC and one NetStack listening on `server_ports` ports;
//   - the driver's `client_stacks` load-generator hosts.
//
// The server speaks raw bytes: every request is exactly `request_bytes` long and
// its first 4 bytes name the response length; responses are counted by length.
// The only Poller is the server's accept-queue drain.

#ifndef SRC_LOAD_OPEN_LOOP_RUNNER_H_
#define SRC_LOAD_OPEN_LOOP_RUNNER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/fifo.h"
#include "src/common/status.h"
#include "src/hw/nic.h"
#include "src/hw/tenant.h"
#include "src/load/hostile_tenant.h"
#include "src/load/load_driver.h"
#include "src/load/workload.h"
#include "src/memory/memory_manager.h"
#include "src/net/stack.h"
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

// The fleet fields (connections, client_stacks, workload, arrival, tcp, fabric,
// the stressors, ramp_batch, seed) live in LoadDriverConfig.
struct OpenLoopConfig : LoadDriverConfig {
  std::size_t server_ports = 64;
  // Application-level service time charged to the server host per request.
  TimeNs server_work_per_request_ns = 500;
  OpenLoopTenantConfig tenant;  // disabled by default; see struct comment
};

class OpenLoopRunner final : public LoadDriver, public Poller {
 public:
  // Validates capacity and stressor parameters without building anything.
  // Returns kInvalidArgument — with the offending numbers in the message — when
  // `connections` exceeds the 4-tuple capacity client_stacks * server_ports *
  // kEphemeralPartition, or when a required count is zero. The constructor
  // panics on an invalid config; callers that take untrusted configs should
  // call this first and surface the typed error instead.
  static Status ValidateConfig(const OpenLoopConfig& cfg);

  explicit OpenLoopRunner(OpenLoopConfig cfg);
  ~OpenLoopRunner() override;

  // Server-side accept drain.
  bool Poll() override;

  std::uint64_t accepted_connections() const override { return accepted_; }
  std::uint64_t served_total() const { return served_; }
  NetStack& server_stack() { return *server_stack_; }
  SimNic& server_nic() { return *server_nic_; }
  const OpenLoopConfig& config() const { return cfg_; }

  // --- tenant mode (null / kNoTenant unless cfg.tenant.enabled) ---
  TenantRegistry* tenant_registry() { return tenant_registry_.get(); }
  TenantId victim_tenant() const { return victim_tenant_; }
  TenantId hostile_tenant() const { return hostile_tenant_; }
  HostileTenant* hostile() { return hostile_.get(); }
  SimNic* sink_nic() { return sink_nic_.get(); }

 private:
  struct SrvConn {
    std::size_t got = 0;  // bytes of the current request consumed so far
    std::uint8_t hdr[WorkloadModel::kHeaderBytes] = {};
    Fifo<Buffer> backlog;  // responses awaiting send-buffer space
  };

  void OnServerReady(TcpConnection* tc);
  void ConsumeRequestBytes(TcpConnection* tc, SrvConn& sc, const Buffer& b);
  void ServeRequest(TcpConnection* tc, SrvConn& sc, std::uint32_t resp_bytes);
  void FlushServerBacklog(TcpConnection* tc, SrvConn& sc);

  OpenLoopConfig cfg_;
  Buffer response_blob_;  // shared storage for all response payloads

  // Server state (declared before the stack so callbacks into it stay valid while
  // the stack destructs).
  std::unordered_map<TcpConnection*, SrvConn> srv_conns_;
  std::vector<TcpListener*> listeners_;
  std::uint64_t accepted_ = 0;
  std::uint64_t served_ = 0;

  // Tenant mode. Declared before the hardware so the registry and allocator are
  // destroyed after the device and stack that reference them.
  std::unique_ptr<TenantRegistry> tenant_registry_;
  std::unique_ptr<MemoryManager> server_memory_;
  TenantId victim_tenant_ = kNoTenant;
  TenantId hostile_tenant_ = kNoTenant;

  // Hardware and stack last: destroyed first, while the state above is alive.
  std::unique_ptr<HostCpu> server_host_;
  std::unique_ptr<SimNic> server_nic_;
  std::unique_ptr<NetStack> server_stack_;
  // Hostile co-tenant and its traffic sink (tenant mode only); destroyed before
  // the shared NIC they reference.
  std::unique_ptr<HostCpu> sink_host_;
  std::unique_ptr<SimNic> sink_nic_;
  std::unique_ptr<HostileTenant> hostile_;
};

}  // namespace demi

#endif  // SRC_LOAD_OPEN_LOOP_RUNNER_H_
