// NetStack: a user-level network stack bound to one NIC queue.
//
// This is the poll-mode I/O stack a kernel-bypass NIC leaves missing (§2): Ethernet
// framing, ARP resolution, IPv4, UDP, and the TCP of src/net/tcp.h. The same class
// serves two masters at different costs:
//   - the Catnip libOS runs it at user-level cost (cost.user_stack_*) with zero copies;
//   - the simulated kernel (src/kernel) runs another instance at kernel cost
//     (cost.kernel_stack_*) and adds syscalls + copies at its socket layer.
//
// Routing model: one L2 segment (the simulated rack); every host is a neighbour, so
// there is ARP but no IP routing. That matches the paper's intra-datacenter focus.

#ifndef SRC_NET_STACK_H_
#define SRC_NET_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/result.h"
#include "src/hw/nic.h"
#include "src/net/flow_table.h"
#include "src/net/packet.h"
#include "src/net/tcp.h"
#include "src/sim/simulation.h"

namespace demi {

class MemoryManager;

struct NetStackConfig {
  Ipv4Address ip;
  int nic_queue = 0;
  // Per-segment protocol processing cost; negative means "use the cost model's
  // user_stack_{tx,rx}_ns defaults".
  TimeNs stack_tx_ns = -1;
  TimeNs stack_rx_ns = -1;
  std::size_t rx_batch = 32;
  TcpConfig tcp;
  std::uint64_t seed = 7;  // ISS / ephemeral port randomization
  // When set, protocol headers come from the manager's pre-registered header pool
  // (zero-copy libOS TX path); when null, headers fall back to heap buffers (the
  // legacy kernel stack, which copies at the socket layer anyway).
  MemoryManager* memory = nullptr;
  // RSS-sharded worker mode (DESIGN.md §13): don't install an ntuple steering rule
  // for listened/connected ports — flows reach this stack's queue by RSS hash alone.
  // Required when N sharded stacks listen on the SAME port of one NIC: a steering
  // rule is a single map entry, so the last registrant would capture every flow.
  bool rss_steering = false;
};

class NetStack final : public Poller, public TcpIo {
 public:
  NetStack(HostCpu* host, SimNic* nic, NetStackConfig config);
  ~NetStack() override;
  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  Ipv4Address ip() const { return config_.ip; }

  // Drains an RX burst from the NIC and feeds the protocol machinery, then flushes
  // all frames staged during the step as one TX burst (a single doorbell). Registered
  // with the Simulation automatically; returns true if any frame was processed.
  bool Poll() override;

  // Posts every staged outbound frame to the NIC as one TransmitBurst (chunked only
  // by ring space). Called automatically at the end of Poll(); latency-sensitive
  // paths (TCP control segments, blocking pushes) call it directly via TcpIo::FlushTx
  // so batching never delays them.
  void Flush();

  // --- UDP ---
  using UdpRecvFn = std::function<void(Endpoint from, Buffer payload)>;
  Status UdpBind(std::uint16_t port, UdpRecvFn on_recv);
  void UdpUnbind(std::uint16_t port);
  Status UdpSend(std::uint16_t src_port, Endpoint dst, Buffer payload);
  // Scatter-gather form: each payload part rides to the NIC as a referenced slice; no
  // flattening of multi-segment sgarrays.
  Status UdpSend(std::uint16_t src_port, Endpoint dst, std::span<const Buffer> payload_parts);

  // --- TCP ---
  //
  // Connection lifetime (DESIGN.md §8): the stack owns every TcpConnection, and each
  // has exactly one holder at a time. TcpConnect's caller holds what it returns;
  // a listener holds its embryos and its accepted-but-unclaimed connections, and
  // TcpListener::Accept hands one on to the caller. The holder calls Release once it
  // is done with the connection, and the stack frees it at its first Poll after it
  // is both CLOSED and released. Freeing charges no simulated time, schedules
  // nothing and is never poll progress; it never happens inside a TcpConnection call.
  Result<TcpListener*> TcpListen(std::uint16_t port);
  // Stops listening on the listener's port: the port and its steering rule are free
  // again, and the embryos and unclaimed connections the listener held are reset and
  // released. The listener is destroyed.
  void CloseListener(TcpListener* listener);
  Result<TcpConnection*> TcpConnect(Endpoint remote);
  // The holder lets go of `conn`. It may still be open (a graceful close still
  // draining, or never closed); the stack frees it once it reaches CLOSED.
  void Release(TcpConnection* conn);
  // Connections allocated: open ones, and CLOSED ones not yet released or freed.
  std::size_t live_connections() const { return conns_.size() - free_slots_; }
  const FlowTable& flow_table() const { return flow_table_; }

  // --- TcpIo ---
  void SendSegment(Ipv4Address dst, FrameChain segment) override;
  Buffer AllocateHeader(std::size_t size) override;
  void FlushTx() override { Flush(); }
  Simulation& sim() override { return host_->sim(); }
  HostCpu& host() override { return *host_; }
  const TcpConfig& tcp_config() const override { return config_.tcp; }
  void OnTcpClosed(TcpConnection* conn) override;

  std::uint64_t frames_rx() const { return frames_rx_; }
  std::uint64_t frames_tx() const { return frames_tx_; }

  // True once the backing NIC has died. Latched by Poll(): on first observation every
  // live connection is aborted, which releases the buffers the stack held for
  // retransmission (§4.5 free-protection) and lets pending pops fail fast instead of
  // spinning through RTO cycles that can never succeed.
  bool device_failed() const { return device_failed_; }

 private:
  struct ArpPending {
    std::vector<FrameChain> frames;  // complete frames awaiting a destination MAC patch
    int retries_left = 3;
    TimerId timer = kInvalidTimer;
  };

  TimeNs tx_cost() const;
  TimeNs rx_cost() const;
  // Appends a wire-ready frame to the staging ring; Flush() posts the ring as one
  // burst. All TX paths (ARP, UDP, TCP, RST) funnel through here so frames produced
  // while processing one RX burst share a doorbell.
  void StageFrame(FrameChain frame);
  void HandleFrame(Buffer frame);
  void HandleArp(Buffer frame);
  void HandleIpv4(Buffer frame);
  void HandleTcp(const Ipv4Header& ip, Buffer l4);
  void HandleUdp(const Ipv4Header& ip, Buffer l4);
  // Fills the destination MAC and transmits, or parks the frame on ARP resolution.
  // The chain's first part is always the mutable eth+ip header buffer.
  void ResolveAndTransmit(Ipv4Address next_hop, FrameChain frame);
  void SendArpRequest(Ipv4Address target);
  // Builds an ARP frame from the header allocator so it stays inside the
  // stack's tenant capability set (see the comment at the definition).
  Buffer BuildArp(MacAddress dst, const ArpPacket& arp);
  void ArpRetryTick(Ipv4Address next_hop);
  void FlushArpPending(Ipv4Address ip, MacAddress mac);
  // Picks a free local port for a connection to `remote`. Ports are free per
  // 4-tuple (BSD-style reuse): the same local port can serve flows to distinct
  // remotes, so the ~2048-port per-queue partition does not cap concurrent
  // connections — only concurrent connections to one remote endpoint. O(1) per
  // candidate via the flow table, against the old O(live flows) scan.
  std::uint16_t AllocateEphemeralPort(const Endpoint& remote);
  void SendRst(const Ipv4Header& ip, const TcpHeader& h, std::size_t payload_len);
  void AddConnection(std::unique_ptr<TcpConnection> conn);
  // Frees the connections that are CLOSED and released; called first thing in Poll.
  void FreeClosedReleased();

  HostCpu* host_;
  SimNic* nic_;
  NetStackConfig config_;
  Rng rng_;

  std::unordered_map<Ipv4Address, MacAddress, Ipv4Hash> arp_cache_;
  std::unordered_map<Ipv4Address, ArpPending, Ipv4Hash> arp_pending_;
  std::unordered_map<std::uint16_t, UdpRecvFn> udp_ports_;
  std::unordered_map<std::uint16_t, std::unique_ptr<TcpListener>> listeners_;
  FlowTable flow_table_;  // demultiplexes RX segments; flat and O(1) at 10^6 flows
  std::unordered_map<TcpConnection*, TcpListener*> embryos_;
  // Every allocated connection, in creation order, which the device-failure abort
  // and teardown walk: it must never follow heap addresses. A freed connection
  // leaves a null slot; once half the slots are null they are compacted away,
  // keeping the order, so each free costs O(1) amortized.
  std::vector<std::unique_ptr<TcpConnection>> conns_;
  std::size_t free_slots_ = 0;
  std::vector<TcpConnection*> closed_released_;  // freed at the next Poll
  std::uint16_t next_ephemeral_ = 49152;
  std::vector<FrameChain> tx_staged_;  // outbound frames awaiting the next burst flush
  std::vector<Buffer> rx_scratch_;     // reused RX burst landing area (no per-poll alloc)
  std::uint64_t frames_rx_ = 0;
  std::uint64_t frames_tx_ = 0;
  bool device_failed_ = false;
};

}  // namespace demi

#endif  // SRC_NET_STACK_H_
