// Recovery: transparent device failover and deadline-aware retry for libOS queues.
//
// The paper's thesis is that the legacy kernel stays *beside* the kernel-bypass data
// path as the reliable slow path. PR 1 made device death visible as typed completions;
// this subsystem makes it survivable. Recovery-enabled Catnip socket queues keep a
// bounded in-flight log of pushed elements and a per-element sequence number on the
// wire. When the bypass device dies (or a flapped link kills the TCP connection), the
// connecting side re-establishes the session — first over the fast path with
// exponential backoff, then, once a circuit breaker trips, over the legacy kernel
// stack (the LibrettOS-style live session migration of PAPERS.md) — replays the
// unacknowledged suffix of the log, and resumes pending qtokens. Receivers dedup by
// sequence number, so a replayed element is delivered exactly once.
//
// Everything here rides the simulation's virtual clock and a seeded Rng, so recovery
// schedules are bit-deterministic, like the fault schedules they respond to.

#ifndef SRC_CORE_RECOVERY_H_
#define SRC_CORE_RECOVERY_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "src/common/buffer.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/kernel/kernel.h"
#include "src/memory/sgarray.h"
#include "src/net/packet.h"
#include "src/net/tcp.h"
#include "src/sim/time.h"

namespace demi {

// --- retry policy ---------------------------------------------------------------

// Deadline-aware exponential backoff. Attempt 0 fires immediately (the first retry
// after a failure costs nothing extra); attempt n >= 1 waits
// initial * multiplier^(n-1), jittered by +/- `jitter` and capped at `max_backoff`.
// All delays ride the simulated clock; jitter comes from the caller's seeded Rng so
// a given seed always produces the same retry schedule.
struct RetryPolicy {
  int max_attempts = 8;                            // per-target attempts before exhaustion
  TimeNs initial_backoff_ns = 50 * kMicrosecond;
  TimeNs max_backoff_ns = 5 * kMillisecond;
  double multiplier = 2.0;
  double jitter = 0.2;                             // fraction of the backoff, +/-
  TimeNs attempt_timeout_ns = 2 * kMillisecond;    // per connect/handshake attempt
  TimeNs deadline_ns = 500 * kMillisecond;         // absolute budget for one outage

  TimeNs BackoffBeforeAttempt(int attempt, Rng& rng) const;
};

// Opt-in recovery configuration, attached at queue creation through the libOS config.
struct RecoveryConfig {
  bool enabled = false;
  RetryPolicy retry;
  std::size_t replay_log_limit = 64;   // max unacknowledged elements held for replay
  int breaker_threshold = 2;           // consecutive fast-path exhaustions before failover
  TimeNs repromote_after_ns = 10 * kMillisecond;  // continuous healthy time before
                                                  // re-promoting to the fast path
  // Legacy-path target: the peer's kernel-stack listener (usually on the peer's
  // dedicated kernel NIC). When unset, the legacy path dials the primary remote,
  // which suffices when only the local device died.
  Endpoint fallback_remote;
  bool has_fallback_remote = false;
  // Dead-peer detection: an active session that owes the application a pop and has
  // received nothing for this long sends a PING control frame. The probe's bytes
  // must be acknowledged at the transport level, so a silently dead peer (its NIC
  // died with nothing of ours in flight — TCP alone would wait forever) turns into
  // retransmission exhaustion, which the outage machinery already handles. 0 turns
  // probing off.
  TimeNs keepalive_idle_ns = 5 * kMillisecond;
  std::uint64_t seed = 29;             // session ids + backoff jitter
};

// --- circuit breaker ------------------------------------------------------------

// Trips after `threshold` consecutive retry exhaustions; a tripped breaker sends the
// session to the legacy path instead of burning more fast-path attempts.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(int threshold) : threshold_(threshold) {}

  // Records one exhausted retry sequence; returns true exactly when this record
  // trips the breaker (callers count Counter::kBreakerTrips on true).
  bool RecordExhaustion();
  void RecordSuccess();  // any success closes the breaker
  bool tripped() const { return tripped_; }
  int consecutive_exhaustions() const { return consecutive_; }

 private:
  int threshold_;
  int consecutive_ = 0;
  bool tripped_ = false;
};

// --- health monitor -------------------------------------------------------------

enum class DeviceHealth : std::uint8_t {
  kHealthy,   // link up, device alive
  kDegraded,  // link down / transient trouble; may recover
  kDead,      // permanent device failure
};

// Watchdog over one device's pull-side fault state. Observed every poll; tracks how
// long the device has been *continuously* healthy, which gates fast-path
// re-promotion after a flap.
class HealthMonitor {
 public:
  void Observe(bool link_up, bool failed, TimeNs now);
  DeviceHealth health() const { return health_; }
  // Continuous healthy time as of `now`; 0 unless currently healthy.
  TimeNs HealthyFor(TimeNs now) const;
  // Ok / Degraded / DeviceFailed, for surfacing health as a Status.
  Status AsStatus() const;

 private:
  DeviceHealth health_ = DeviceHealth::kHealthy;
  TimeNs healthy_since_ = 0;
  bool observed_ = false;
};

// --- replay log -----------------------------------------------------------------

// Bounded log of pushed elements not yet acknowledged by the peer's transport. An
// element enters when its push is accepted (and its qtoken completes — the recovery
// layer has taken responsibility for delivery) and leaves once the bytes that carried
// it were acknowledged at the transport level. On failover the remaining suffix is
// replayed on the new transport; receivers drop duplicates by sequence number, so
// replaying acknowledged-but-unevicted entries is safe.
class ReplayLog {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    SgArray element;
    std::uint64_t end_offset = 0;  // transport stream offset after the entry's last byte
    bool written = false;          // fully handed to the *current* transport
  };

  explicit ReplayLog(std::size_t limit) : limit_(limit) {}

  bool full() const { return entries_.size() >= limit_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  void Append(std::uint64_t seq, SgArray element);
  // Drops entries the peer confirmed by sequence number (reattach handshake).
  void EvictThroughSeq(std::uint64_t seq);
  // Drops written entries whose bytes the transport has acknowledged.
  void EvictAcked(std::uint64_t acked_offset);
  // New transport: every entry must be re-sent; offsets are stale.
  void MarkAllUnwritten();
  // First entry not yet handed to the current transport, or nullptr.
  Entry* NextUnwritten();

  std::deque<Entry>& entries() { return entries_; }

 private:
  std::size_t limit_;
  std::deque<Entry> entries_;
};

// --- session control frames -----------------------------------------------------

// Recovery sessions prefix every framed element with a u64 sequence number. Control
// frames use the reserved sequence ~0 and carry the session handshake:
//   HELLO      connecting side -> listener: {session_id, last_rx_seq}
//   HELLO_ACK  listener -> connecting side: {session_id, last_rx_seq}
//   PING       either side -> peer: liveness probe; ignored on receipt (the
//              transport-level ACK of its bytes is the liveness signal)
// A listener routes a HELLO for a known session to the live queue (reattach) and
// creates a fresh queue otherwise. Both sides replay their log suffix after attach.
constexpr std::uint64_t kRecoveryControlSeq = ~0ull;
constexpr std::uint32_t kRecoveryMagic = 0x52435652;  // "RCVR"
constexpr std::size_t kRecoverySeqHeader = 8;         // u64 seq before each element

struct HelloFrame {
  bool is_ack = false;
  bool is_ping = false;  // keepalive probe, not a handshake
  std::uint64_t session_id = 0;
  std::uint64_t last_rx_seq = 0;
};

// Body of a HELLO/HELLO_ACK frame (the 4-byte length prefix is added by EncodeFrame).
Buffer EncodeHello(const HelloFrame& hello);
// Parses a decoded frame body; nullopt if it is not a control frame.
std::optional<HelloFrame> ParseHello(const SgArray& body);

// Reads the leading u64 sequence header of a decoded frame (false if too short).
bool ReadSeqHeader(const SgArray& body, std::uint64_t* seq);
// Returns `body` minus its first `n` bytes as zero-copy slices.
SgArray StripBytes(const SgArray& body, std::size_t n);

// --- failover transport ---------------------------------------------------------

// One byte-stream endpoint that is either a fast-path user-level TCP connection
// (Catnip's NetStack) or a legacy kernel socket fd. The recovery state machine swaps
// the backing transport across failover/re-promotion; the queue above it only sees
// Write/Recv/established/dead. The transport holds its fast-path connection
// (DESIGN.md §8): Reset, Abort and destruction release it to the stack.
class FailoverTransport {
 public:
  enum class Kind : std::uint8_t { kNone, kFast, kLegacy };

  FailoverTransport() = default;
  // Moves transfer the endpoint without closing it (listener embryos hand their
  // transport to the adopting session queue). Sources are left detached.
  FailoverTransport(FailoverTransport&& other) noexcept;
  FailoverTransport& operator=(FailoverTransport&& other) noexcept;
  FailoverTransport(const FailoverTransport&) = delete;
  FailoverTransport& operator=(const FailoverTransport&) = delete;
  // Releases a fast-path connection without closing it; a legacy fd stays open
  // (closing it would charge a crossing).
  ~FailoverTransport();

  void AttachFast(NetStack* stack, TcpConnection* conn);
  // Starts a legacy connect through `kernel` (non-blocking, like connect(2)).
  Status ConnectLegacy(SimKernel* kernel, Endpoint remote);
  // Adopts an already-accepted kernel socket.
  void AttachLegacyAccepted(SimKernel* kernel, int fd);
  // Gracefully closes and detaches the current transport (safe to call repeatedly).
  void Reset();
  // Hard-kills the transport (RST on the wire) and detaches. The recovery machinery
  // uses this so the peer sees an outage — never a clean close it would mistake for
  // end-of-stream.
  void Abort();
  // Detaches and returns the fast-path connection without closing or releasing it:
  // the caller becomes its holder (embryo -> plain-queue handoff). Null unless
  // kind() == kFast.
  TcpConnection* ReleaseFast();

  Kind kind() const { return kind_; }
  bool attached() const { return kind_ != Kind::kNone; }
  bool established() const;
  bool dead() const;
  // Peer sent FIN and all its data was consumed (clean close, not an outage).
  bool recv_eof() const;

  // Writes the parts of one frame and returns the bytes taken. The fast path queues
  // them with one gathered TcpConnection::Write; the legacy path copies the joined
  // frame into the kernel with one WriteSock crossing, as Catnap does. Fewer bytes
  // than offered (0, or kResourceExhausted from the legacy path) mean the send
  // buffer is full and the caller keeps the tail; other errors are fatal to this
  // transport.
  Result<std::size_t> Write(std::span<const Buffer> parts);
  // Returns up to `max` received bytes (empty when none). Also used to salvage
  // buffered bytes off a dead transport before switching — TCP keeps in-order
  // (i.e. acknowledged) data readable after a reset, so nothing the peer's log
  // already evicted can be lost.
  Buffer Recv(std::size_t max);
  // Bytes handed to Write but not yet acknowledged by the peer.
  std::size_t unacked_bytes() const;

 private:
  TcpConnection* Conn() const;
  // Forgets the endpoint without closing it (the moved-from state).
  void Detach();

  Kind kind_ = Kind::kNone;
  NetStack* stack_ = nullptr;      // fast path
  TcpConnection* conn_ = nullptr;  // fast path
  SimKernel* kernel_ = nullptr;    // legacy path
  int fd_ = -1;
};

}  // namespace demi

#endif  // SRC_CORE_RECOVERY_H_
