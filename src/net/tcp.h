// A user-level TCP: full handshake, sliding-window flow control, Reno congestion
// control, RTO with exponential backoff + Karn's algorithm, fast retransmit on three
// duplicate ACKs, out-of-order reassembly, FIN/RST teardown with TIME_WAIT.
//
// This is the "entire networking stack" a DPDK-class device forces someone to supply
// (§2, Table 1). In the Demikernel architecture it lives inside the Catnip libOS; in
// the traditional architecture the same protocol code runs inside the simulated kernel
// at kernel cost. Both run over lossy simulated fabric, so correctness here is tested
// with packet loss/reorder/duplication property tests (tests/net_tcp_test.cc).
//
// ACK generation follows RFC 1122 delayed ACKs: in-order data is acknowledged every
// `ack_every_segments` segments or after a short delayed-ack timer (well under the
// minimum RTO, so coalescing can never stall a sender into a timeout), and any
// outgoing data segment piggybacks the pending ACK. Out-of-order or duplicate
// segments, gap fills, FINs, and window reopenings still ACK immediately — those
// ACKs drive fast retransmit and teardown and must not wait.
//
// Simplifications relative to a production stack (documented non-goals): no TCP
// options (MSS comes from config), no SACK, no Nagle, no window scaling (64 KB
// default windows are plenty at simulated RTTs), no urgent data.

#ifndef SRC_NET_TCP_H_
#define SRC_NET_TCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/fifo.h"
#include "src/common/result.h"
#include "src/net/packet.h"
#include "src/sim/simulation.h"

namespace demi {

// Wrap-safe sequence arithmetic (RFC 793 comparison semantics).
inline bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool SeqLe(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool SeqGt(std::uint32_t a, std::uint32_t b) { return SeqLt(b, a); }
inline bool SeqGe(std::uint32_t a, std::uint32_t b) { return SeqLe(b, a); }

struct TcpConfig {
  std::size_t mss = 1460;
  std::size_t send_buf_bytes = 256 * 1024;
  std::size_t recv_buf_bytes = 64 * 1024;  // also the advertised window cap (no scaling)
  std::uint32_t init_cwnd_segments = 10;   // RFC 6928
  TimeNs init_rto_ns = 3 * kMillisecond;
  TimeNs min_rto_ns = 500 * kMicrosecond;  // datacenter-tuned
  TimeNs max_rto_ns = 200 * kMillisecond;
  int max_retries = 10;
  TimeNs time_wait_ns = 5 * kMillisecond;  // shortened 2MSL for simulation
  TimeNs persist_interval_ns = 1 * kMillisecond;
  std::size_t listen_backlog = 64;
  // RFC 1122 delayed ACKs: defer pure ACKs for in-order data until
  // `ack_every_segments` segments accumulate or the delack timer fires. The timeout
  // must stay well below min_rto_ns or coalescing would push senders into RTO.
  bool delayed_ack = true;
  TimeNs delayed_ack_timeout_ns = 100 * kMicrosecond;
  int ack_every_segments = 2;
};

// Back-channel from a connection to its owning stack.
class TcpIo {
 public:
  virtual ~TcpIo() = default;
  // Transmits a finished TCP segment (header buffer + payload slices, as a chain) to
  // `dst`; the stack prepends IP/Ethernet headers, resolves ARP, and charges
  // per-segment stack cost. The payload parts ride to the device by reference.
  virtual void SendSegment(Ipv4Address dst, FrameChain segment) = 0;
  // Allocates a protocol-header buffer; stacks with a memory manager serve this from
  // the pre-registered header pool, others fall back to the heap.
  virtual Buffer AllocateHeader(std::size_t size) = 0;
  // Pushes any segments staged by SendSegment to the device immediately instead of
  // waiting for the stack's end-of-poll burst flush. Connections call this on
  // latency-critical transitions (SYN/FIN, retransmits, delayed-ack fire, window
  // updates) so batching never adds a timer's worth of latency to them. Default:
  // no-op, for stacks that transmit synchronously.
  virtual void FlushTx() {}
  virtual Simulation& sim() = 0;
  virtual HostCpu& host() = 0;
  virtual const TcpConfig& tcp_config() const = 0;
  // Notifies that `conn` reached CLOSED and may be reaped.
  virtual void OnTcpClosed(class TcpConnection* conn) = 0;
};

class TcpConnection {
 public:
  enum class State {
    kListen,  // only used by listener-embryo bookkeeping
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kClosing,
    kLastAck,
    kTimeWait,
    kClosed,
  };

  TcpConnection(TcpIo* io, Endpoint local, Endpoint remote, bool active_open,
                std::uint32_t iss);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  // True in the states that transmit data: established, and CLOSE_WAIT, where the
  // peer has closed its side but still reads ours.
  bool can_send() const {
    return state_ == State::kEstablished || state_ == State::kCloseWait;
  }
  bool closed() const { return state_ == State::kClosed; }
  // True once the connection can never again produce data for the application.
  bool dead() const {
    return state_ == State::kClosed || state_ == State::kTimeWait || reset_;
  }
  bool reset() const { return reset_; }
  const Endpoint& local() const { return local_; }
  const Endpoint& remote() const { return remote_; }

  // --- application send side (zero-copy: data buffers are referenced, not copied) ---

  // Gathered write: queues the parts of one element, in order, then runs the sender
  // once, so the parts share MSS-sized segments instead of leaving one segment each.
  // Takes as much as the send buffer holds (a part that does not fit contributes the
  // zero-copy slice that does) and returns the bytes queued: fewer than offered, and
  // 0 when the buffer is full. kConnectionReset/kNotConnected on dead connections.
  Result<std::size_t> Write(std::span<const Buffer> parts);
  // All-or-nothing write of one buffer through Write: kResourceExhausted when it does
  // not fit whole (the caller retries after draining).
  Status Send(Buffer data);
  std::size_t send_buffer_space() const;
  // Bytes queued or in flight, not yet acknowledged.
  std::size_t unacked_bytes() const;

  // --- application receive side ---

  std::size_t recv_available() const { return recv_ready_bytes_; }
  // True when Recv would return data, or EOF/RST is pending.
  bool readable() const { return recv_ready_bytes_ > 0 || recv_eof_ready() || reset_; }
  // Pops up to `max_bytes` of in-order data as zero-copy slices. Empty result means
  // "nothing available"; use recv_eof()/reset() to distinguish stream end.
  Buffer Recv(std::size_t max_bytes);
  // True when the peer's FIN has been delivered and all data consumed.
  bool recv_eof() const { return fin_received_ && recv_ready_bytes_ == 0 && ooo_.empty(); }

  // --- teardown ---

  // Graceful close (FIN after queued data drains). Receiving still works (half-close).
  void Close();
  // Hard reset.
  void Abort();

  // --- driven by the stack ---

  void OnSegment(const TcpHeader& h, Buffer payload);
  void StartActiveOpen();

  // Optional edge notification for event-driven applications: fires after an event
  // leaves the connection readable, newly established, or dead — the three
  // transitions an open-loop harness with 10^6 connections cannot afford to poll
  // for. The callback may fire more than once per logical transition (receivers
  // dedup, e.g. with a per-connection "already queued" flag) and runs inside
  // segment/timer processing, so it must not reenter the stack (mark state or
  // enqueue; do the work at the next poll).
  using ReadyFn = std::function<void(TcpConnection*)>;
  void set_on_ready(ReadyFn fn) { on_ready_ = std::move(fn); }

  // Exposed for tests & stats.
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  TimeNs rto() const { return rto_; }
  std::uint64_t retransmits() const { return retransmits_; }

 private:
  bool recv_eof_ready() const { return fin_received_ && recv_ready_bytes_ == 0; }
  // Why the application may not queue data now; ok when it may.
  Status WritableStatus() const;

  struct InflightSegment {
    std::uint32_t seq;
    FrameChain payload;  // empty for bare SYN/FIN; parts are refcounted slices
    std::uint8_t flags;  // SYN/FIN consume sequence space
    TimeNs sent_at;
    bool retransmitted;
  };

  // Segment length in sequence space (payload + SYN/FIN).
  static std::uint32_t SeqLen(const InflightSegment& s) {
    return static_cast<std::uint32_t>(s.payload.size()) +
           ((s.flags & (kTcpSyn | kTcpFin)) ? 1 : 0);
  }

  void OnSegmentImpl(const TcpHeader& h, Buffer payload);
  void EnterState(State s);
  void SendFlags(std::uint8_t flags);                       // pure control segment
  void EmitSegment(std::uint32_t seq, FrameChain payload, std::uint8_t flags, bool track);
  void SendAck();
  void AckNow();            // immediate ACK, clearing any deferred-ack obligation
  void DeferAck();          // delayed-ack bookkeeping for in-order data
  void CancelDelayedAck();
  void OnDelayedAckTimer();
  void TrySend();       // move bytes from the send queue into flight (cwnd/rwnd gated)
  void MaybeSendFin();  // emit FIN once the queue drains after Close()
  void ProcessAck(const TcpHeader& h, std::size_t payload_len);
  void ProcessPayload(const TcpHeader& h, Buffer payload);
  void MaybeConsumeFin();
  void DeliverInOrder();
  // RFC 6298 timer management, re-armed lazily: ACK progress only moves
  // rtx_restart_base_; the scheduled event checks the live deadline when it fires and
  // sleeps the remainder, so steady ACK streams cost zero Schedule/Cancel churn.
  void EnsureRetransmitTimer();   // arm if not armed (new data sent, timer idle)
  void RestartRetransmitTimer();  // move the deadline base to now, arming if needed
  void CancelRetransmitTimer();
  void OnRetransmitTimeout();
  void FastRetransmit();
  void UpdateRtt(TimeNs measured);
  void StartTimeWait();
  void BecomeClosed();
  std::uint16_t AdvertisedWindow() const;

  TcpIo* io_;
  Endpoint local_;
  Endpoint remote_;
  State state_;
  bool reset_ = false;

  // Send state.
  std::uint32_t iss_;
  std::uint32_t snd_una_;   // oldest unacknowledged
  std::uint32_t snd_nxt_;   // next sequence to send
  std::uint32_t snd_wnd_ = 0;  // peer's advertised window
  Fifo<Buffer> send_queue_;
  std::size_t send_queue_bytes_ = 0;
  Fifo<InflightSegment> inflight_;
  bool fin_queued_ = false;  // Close() called; FIN not yet sent
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Congestion control (Reno).
  std::uint32_t cwnd_;
  std::uint32_t ssthresh_;
  int dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint32_t recover_ = 0;

  // RTT estimation (RFC 6298).
  bool rtt_valid_ = false;
  double srtt_ns_ = 0;
  double rttvar_ns_ = 0;
  TimeNs rto_;
  int retries_ = 0;
  TimerId rtx_timer_ = kInvalidTimer;
  TimeNs rtx_restart_base_ = 0;  // deadline is base + rto_; ACKs move only the base
  TimerId persist_timer_ = kInvalidTimer;
  TimerId time_wait_timer_ = kInvalidTimer;

  // Receive state.
  std::uint32_t rcv_nxt_ = 0;
  bool fin_received_ = false;
  bool pending_fin_ = false;          // FIN seen but data before it still missing
  std::uint32_t pending_fin_seq_ = 0;
  std::map<std::uint32_t, Buffer> ooo_;  // seq -> payload, out-of-order stash
  Fifo<Buffer> recv_ready_;
  std::size_t recv_ready_bytes_ = 0;
  std::size_t ooo_bytes_ = 0;
  bool advertised_zero_window_ = false;

  // Delayed-ACK state (RFC 1122).
  bool ack_pending_ = false;     // an ACK is owed but deferred
  int unacked_segments_ = 0;     // in-order segments since the last ACK we sent
  TimerId delack_timer_ = kInvalidTimer;

  std::uint64_t retransmits_ = 0;

  ReadyFn on_ready_;
};

// A passive listener. Owned by the stack.
class TcpListener {
 public:
  TcpListener(std::uint16_t port, std::size_t backlog) : port_(port), backlog_(backlog) {}

  std::uint16_t port() const { return port_; }
  std::size_t pending() const { return accept_queue_.size(); }

  // Pops one fully established connection, or nullptr.
  TcpConnection* Accept() {
    if (accept_queue_.empty()) {
      return nullptr;
    }
    TcpConnection* c = accept_queue_.front();
    accept_queue_.pop_front();
    return c;
  }

 private:
  friend class NetStack;
  std::uint16_t port_;
  std::size_t backlog_;
  std::deque<TcpConnection*> accept_queue_;
  std::size_t embryos_ = 0;  // half-open connections counted against the backlog
};

}  // namespace demi

#endif  // SRC_NET_TCP_H_
