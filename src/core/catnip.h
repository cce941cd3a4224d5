// Catnip: the DPDK-style library OS.
//
// The device gives nothing but kernel bypass (Table 1, left column), so Catnip brings
// the entire networking stack (src/net) into the application's address space and runs
// it at user-level cost with zero copies:
//   - control path: the legacy kernel leases a NIC queue to the libOS (Figure 2) —
//     paid once at startup;
//   - data path: poll-mode rings, user-level TCP, length-prefix framing to preserve
//     queue-element boundaries over the byte stream (§5.2);
//   - memory: buffers come from the §4.5 memory manager; frames are sliced, never
//     copied, on receive; scatter-gather referenced, never copied, on transmit.
//
// Catnip also offers UDP queues where one datagram = one queue element. Those are the
// offload showcase: on a SmartNIC-capable device, a filter() over a UDP queue is
// installed as an on-NIC program and filtered packets never cost host CPU (§4.3).
//
// TCP sockets take one of two data paths, each its own queue class, chosen once per
// socket by CatnipLibOS::NewSocketQueue:
//   - CatnipTcpQueue (plain): framed elements over one user-level TCP connection.
//   - CatnipSessionQueue (recovery mode, opt-in via CatnipConfig::recovery): a
//     *session* that survives the death of the transport underneath it. Pushed
//     elements carry a sequence number and are retained in a bounded replay log until
//     transport-level acknowledgment; when the bypass NIC dies or a flapped link kills
//     the connection, the connecting side re-dials — fast path first with backoff,
//     then the legacy kernel stack once a circuit breaker trips — replays the
//     unacknowledged suffix, and resumes pending qtokens. Session listeners accept on
//     both paths, route a reattach HELLO to the live session, and hand a peer whose
//     first frame is not a HELLO off to a CatnipTcpQueue. See src/core/recovery.h and
//     DESIGN.md "Recovery model".

#ifndef SRC_CORE_CATNIP_H_
#define SRC_CORE_CATNIP_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/libos.h"
#include "src/core/recovery.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/net/framing.h"
#include "src/net/stack.h"

namespace demi {

class CatnipSessionQueue;

// Load-adaptive path placement (DESIGN.md §15): off, path changes happen only on
// failure; on, client sessions move between the bypass and kernel paths by their
// op rate (the rule and its constants are in catnip.cc).
struct PathPolicyConfig {
  bool enabled = false;
};

struct CatnipConfig {
  Ipv4Address ip;
  TcpConfig tcp;
  std::uint64_t seed = 11;
  // Kernel-less hosts only: which NIC queue pair this libOS drives (with a control
  // kernel the queue comes from the lease instead). RSS-sharded workers (DESIGN.md
  // §13) each pass their shard index here.
  int nic_queue = 0;
  // Rely on the NIC's RSS hash instead of ntuple steering rules to direct flows to
  // nic_queue. Required when N sharded stacks serve the SAME port on one NIC; see
  // NetStackConfig::rss_steering.
  bool rss_steering = false;
  // RX frames ingested per stack poll (NetStackConfig::rx_batch). Overloaded
  // servers need ingest to outpace app-side consumption, or queueing stays in
  // the NIC ring where completion-queue load signals cannot see it.
  std::size_t rx_batch = 32;
  RecoveryConfig recovery;  // disabled by default: TCP sockets take the plain path
  // Load-adaptive path placement; requires recovery mode (the switch rides
  // FailoverTransport's live migration).
  PathPolicyConfig adaptive;
  // When set (and a control kernel exists), the libOS runs as this tenant on a
  // shared bypass device: the kernel mints a TenantId, leases a tenant-bound queue,
  // and grants every memory-manager arena into the tenant's capability set. Absent,
  // the libOS gets the trusted single-owner path, byte-identical to before.
  std::optional<TenantQosConfig> tenant;
};

class CatnipLibOS final : public LibOS {
 public:
  // `control_kernel` may be null (no kernel on the host); then the libOS takes NIC
  // queue 0 directly. With a kernel, the queue is leased through the control path.
  // Recovery mode requires a kernel (the legacy path runs through it).
  CatnipLibOS(HostCpu* host, SimNic* nic, SimKernel* control_kernel, CatnipConfig config);
  // Queue destructors (UDP unbind) reach into the stack; drop them while it lives.
  ~CatnipLibOS() override { DestroyQueues(); }

  std::string name() const override { return "catnip"; }
  NetStack& stack() { return *stack_; }
  SimNic& nic() { return *nic_; }
  int nic_queue() const { return nic_queue_; }
  SimKernel* kernel() { return kernel_; }
  TenantId tenant() const { return tenant_; }  // kNoTenant unless config.tenant set
  const RecoveryConfig& recovery() const { return config_.recovery; }
  const PathPolicyConfig& adaptive() const { return config_.adaptive; }

  Result<QDesc> SocketUdp() override;

  // --- session registry (recovery listeners route reattach HELLOs here) ---
  std::uint64_t NewSessionId() { return session_rng_.NextU64() | 1; }  // never 0
  void RegisterSession(std::uint64_t sid, CatnipSessionQueue* queue) {
    sessions_[sid] = queue;
  }
  void UnregisterSession(std::uint64_t sid) { sessions_.erase(sid); }
  CatnipSessionQueue* FindSession(std::uint64_t sid) {
    auto it = sessions_.find(sid);
    return it == sessions_.end() ? nullptr : it->second;
  }

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override;
  // Sparse polling only: latches the stack's device-failure edge and marks every
  // queue dirty once, so connections killed wholesale by a NIC death are visited
  // even though no per-queue submission re-marked them.
  bool PollDevice() override;

 private:
  SimNic* nic_;
  SimKernel* kernel_ = nullptr;
  CatnipConfig config_;
  int nic_queue_ = 0;
  TenantId tenant_ = kNoTenant;
  std::unique_ptr<NetStack> stack_;
  Rng session_rng_;
  std::unordered_map<std::uint64_t, CatnipSessionQueue*> sessions_;
  bool device_failure_marked_ = false;
};

// TCP socket queue on the plain data path: framed atomic units over the user-level
// byte stream.
class CatnipTcpQueue final : public IoQueue {
 public:
  // `conn` is null for a fresh socket, or an accepted connection.
  CatnipTcpQueue(CatnipLibOS* libos, TcpConnection* conn);
  // Plain-peer handoff from a session listener: the embryo's decoder state and the
  // element it already decoded, which the first pop receives.
  CatnipTcpQueue(CatnipLibOS* libos, TcpConnection* conn, FrameDecoder decoder,
                 SgArray first);
  ~CatnipTcpQueue() override;

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

  Status Bind(std::uint16_t port) override;
  Status Listen() override;
  Result<std::unique_ptr<IoQueue>> TryAccept() override;
  Status StartConnect(Endpoint remote) override;
  Status ConnectStatus() override;
  Status Cancel(QToken token) override;
  Status Close() override;
  // Sparse polling: quiescent when the queue has no pending work and its connection
  // has no undelivered readiness — the connection's on-ready hook (AttachReadyHook)
  // re-marks the queue when bytes, death, or window edges arrive.
  bool Quiescent() const override;

 private:
  struct PendingPush {
    QToken token;
    std::vector<Buffer> parts;  // unwritten wire parts
    bool started = false;       // part of the frame is in the stream: not cancellable
  };

  // Under sparse polling, wires conn_'s on-ready callback to MarkDirty and marks the
  // queue once; no-op under dense polling or without a connection.
  void AttachReadyHook();

  CatnipLibOS* libos_;
  TcpConnection* conn_ = nullptr;  // null until connect/accept
  TcpListener* listener_ = nullptr;
  std::uint16_t bound_port_ = 0;
  bool closed_ = false;
  bool ready_hook_attached_ = false;  // conn_'s on_ready points at this queue
  FrameDecoder decoder_;
  Status stream_error_;
  std::deque<PendingPush> pending_pushes_;
  std::deque<QToken> pending_pops_;
  // The element a session listener decoded before handing this peer off.
  std::optional<SgArray> preloaded_;
};

// TCP socket queue in recovery mode: a session whose byte stream can migrate between
// the bypass path and the legacy-kernel path (see file header). Completions go
// through libos_ rather than Progress's sink, because timers complete ops too. The
// default Quiescent() (false) stands: session timers and handshakes need visits, so
// recovery uses dense polling.
class CatnipSessionQueue final : public IoQueue {
 public:
  explicit CatnipSessionQueue(CatnipLibOS* libos);
  ~CatnipSessionQueue() override;

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

  // A listening session queue accepts on the fast path and on a kernel-stack twin of
  // the same port; each connection's first frame decides what it becomes.
  Status Bind(std::uint16_t port) override;
  Status Listen() override;
  Result<std::unique_ptr<IoQueue>> TryAccept() override;
  Status StartConnect(Endpoint remote) override;
  Status ConnectStatus() override;
  Status Cancel(QToken token) override;
  Status Close() override;

 private:
  // A just-accepted connection whose first frame decides its fate: a HELLO makes it
  // a recovery session (new, or a reattach to a live one); any other frame means a
  // plain-mode peer and the embryo becomes a CatnipTcpQueue.
  struct Embryo {
    FailoverTransport transport;
    FrameDecoder decoder;
  };

  enum class Phase : std::uint8_t {
    kIdle,        // between reconnect attempts (a timer owns the next step)
    kConnecting,  // transport dialing
    kHandshake,   // transport up; HELLO sent, replay started, waiting for the ACK
    kActive,      // session attached and flowing
    kParked,      // server side: transport died, waiting for the peer to reattach
    kFailed,      // recovery gave up; stream_error_ is terminal
  };
  enum class Target : std::uint8_t { kFast, kLegacy };

  // --- listener ---
  bool ProgressListener();
  bool PumpEmbryo(Embryo& embryo);
  // --- connecting-side state machine ---
  void BeginAttempt();
  void OnAttemptEstablished();
  void OnAttemptFailed();
  void OnHandshakeComplete();
  void StartOutage();  // client: transport died mid-session; start re-dialing
  // Drops the current transport and dials `target` afresh. `count_as_outage`
  // distinguishes forced reconnects (counted as retries) from voluntary
  // re-promotion dials.
  void Redial(Target target, bool count_as_outage);
  void Park();         // server: transport died; wait for the peer to reattach
  // --- adaptive path placement (client side; DESIGN.md §15) ---
  // Judges the op-count window once it is kPolicyWindowNs old, at the tail of an
  // active poll; returns true when a voluntary switch started.
  bool CheckPolicyWindow();
  // Claims a bypass flow slot + memory registration from the tenant pool before a
  // flow may live on the fast path; false leaves nothing held.
  bool AcquireFastResources();
  // Returns the claimed slot/registration so the QoS layer sees the freed capacity.
  void ReleaseFastResources();
  void AdoptTransport(FailoverTransport transport, FrameDecoder decoder,
                      std::uint64_t peer_last_rx);
  void GiveUp(Status cause);
  // --- session data path ---
  void SalvageDrain();  // drain acknowledged bytes off a dead transport
  bool StageToLog();    // staged pushes -> replay log (completes their tokens)
  bool PumpWriter();    // control frames + next unwritten log entry -> transport
  // One transport write of a frame's parts; advances bytes_sent_ and keeps the
  // unwritten tail in `parts`. True once the frame is fully written.
  bool WriteFrameParts(std::vector<Buffer>& parts, bool* progress);
  bool PumpReader(bool force);
  void ProcessFrame(const SgArray& body);
  bool ServePops();
  void QueueControlFrame(const HelloFrame& hello);
  // Keepalive: probe an idle peer we owe a pop from, so a silently dead one turns
  // into transport death. The timer outlives attempt epochs (it guards the whole
  // session, not one attempt), re-arming itself while the session is active.
  void ArmKeepalive();
  void KeepaliveTick();
  void ArmAttemptTimer();
  void ScheduleGuarded(TimeNs delay, std::function<void()> fn);
  bool TransportDied() const;
  TimeNs now() const;
  TimeNs OutageDeadline() const;

  CatnipLibOS* libos_;
  TcpListener* listener_ = nullptr;
  std::uint16_t bound_port_ = 0;
  bool closed_ = false;
  FrameDecoder decoder_;
  Status stream_error_;
  std::deque<QToken> pending_pops_;

  // --- session state ---
  bool is_client_ = false;
  std::uint64_t session_id_ = 0;
  Endpoint primary_remote_{};
  Phase phase_ = Phase::kIdle;
  Target target_ = Target::kFast;
  FailoverTransport transport_;
  ReplayLog log_;
  std::uint64_t next_seq_ = 1;      // sequence for the next staged element
  std::uint64_t last_rx_seq_ = 0;   // highest element sequence delivered
  std::uint64_t bytes_sent_ = 0;    // stream offset on the current transport
  std::uint64_t wire_seq_ = 0;      // log entry the wire parts belong to
  std::vector<Buffer> control_parts_;  // unwritten control-frame bytes
  std::vector<Buffer> wire_parts_;     // unwritten bytes of log entry wire_seq_
  std::deque<std::pair<QToken, SgArray>> staged_pushes_;
  std::deque<SgArray> ready_elements_;
  int attempt_ = 0;
  bool in_outage_ = false;  // reconnecting after an established session died
  TimeNs outage_start_ = 0;
  CircuitBreaker breaker_;
  HealthMonitor health_;
  bool failed_over_ = false;   // currently running on the legacy path
  bool clean_eof_ = false;     // peer FIN consumed: stream end, not an outage
  TimeNs path_since_ = 0;              // when the flow landed on its current path
  // --- adaptive path placement (read only when the libOS policy is enabled) ---
  TimeNs window_start_ = 0;            // when the current op-count window began
  std::uint64_t window_ops_ = 0;       // pushes + pops since window_start_
  bool policy_switch_ = false;         // the in-flight redial is a policy decision
  bool holds_fast_resources_ = false;  // tenant flow slot + registration held
  TimeNs last_rx_activity_ = 0;   // when bytes last arrived on the transport
  bool keepalive_armed_ = false;  // at most one keepalive timer in flight
  Rng rng_;
  // Guards timer callbacks against queue destruction (weak) and stale attempts
  // (epoch: bumped whenever the state machine moves past what a timer armed).
  std::shared_ptr<bool> alive_;
  std::uint64_t attempt_epoch_ = 0;

  // --- listener state ---
  int kernel_listen_fd_ = -1;
  std::deque<Embryo> embryos_;
  std::deque<std::unique_ptr<IoQueue>> accept_ready_;
};

// UDP datagram queue: one datagram = one element; filter-offload capable.
class CatnipUdpQueue final : public IoQueue {
 public:
  explicit CatnipUdpQueue(CatnipLibOS* libos) : libos_(libos) {}
  ~CatnipUdpQueue() override;

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

  Status Bind(std::uint16_t port) override;
  Status StartConnect(Endpoint remote) override;  // sets the default destination
  Status ConnectStatus() override { return OkStatus(); }
  Status Close() override;

  bool SupportsFilterOffload() const override;
  Status InstallOffloadFilter(const ElementPredicate& pred) override;

 private:
  CatnipLibOS* libos_;
  std::uint16_t bound_port_ = 0;
  bool bound_ = false;
  bool closed_ = false;
  Endpoint remote_;
  bool has_remote_ = false;
  std::deque<std::pair<Endpoint, Buffer>> inbound_;
  std::deque<QToken> pending_pops_;
  std::deque<std::pair<QToken, QResult>> ready_;
};

}  // namespace demi

#endif  // SRC_CORE_CATNIP_H_
