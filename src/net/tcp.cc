#include "src/net/tcp.h"

#include <algorithm>

#include "src/common/logging.h"

namespace demi {

TcpConnection::TcpConnection(TcpIo* io, Endpoint local, Endpoint remote, bool active_open,
                             std::uint32_t iss)
    : io_(io),
      local_(local),
      remote_(remote),
      state_(active_open ? State::kSynSent : State::kListen),
      iss_(iss),
      snd_una_(iss),
      snd_nxt_(iss),
      rto_(io->tcp_config().init_rto_ns) {
  const auto& cfg = io_->tcp_config();
  cwnd_ = static_cast<std::uint32_t>(cfg.init_cwnd_segments * cfg.mss);
  ssthresh_ = 0x7FFFFFFF;
}

TcpConnection::~TcpConnection() {
  CancelRetransmitTimer();
  CancelDelayedAck();
  if (persist_timer_ != kInvalidTimer) {
    io_->sim().Cancel(persist_timer_);
  }
  if (time_wait_timer_ != kInvalidTimer) {
    io_->sim().Cancel(time_wait_timer_);
  }
}

void TcpConnection::EnterState(State s) { state_ = s; }

std::uint16_t TcpConnection::AdvertisedWindow() const {
  const std::size_t buffered = recv_ready_bytes_ + ooo_bytes_;
  const std::size_t cap = io_->tcp_config().recv_buf_bytes;
  const std::size_t free_space = cap > buffered ? cap - buffered : 0;
  return static_cast<std::uint16_t>(std::min<std::size_t>(free_space, 65535));
}

void TcpConnection::EmitSegment(std::uint32_t seq, FrameChain payload, std::uint8_t flags,
                                bool track) {
  // Any ACK-bearing segment carries the current rcv_nxt_, so a deferred pure ACK
  // riding out on data (or a control segment) costs nothing extra: the piggyback of
  // RFC 1122. AckNow() clears this state before emitting, so the explicit ACK it
  // sends is never miscounted as a coalesced one.
  if ((flags & kTcpAck) && ack_pending_) {
    io_->host().Count(Counter::kAcksCoalesced,
                      static_cast<std::uint64_t>(std::max(unacked_segments_, 1)));
    CancelDelayedAck();
    unacked_segments_ = 0;
  }
  TcpHeader h;
  h.src_port = local_.port;
  h.dst_port = remote_.port;
  h.seq = seq;
  h.ack = (flags & kTcpAck) ? rcv_nxt_ : 0;
  h.flags = flags;
  h.window = AdvertisedWindow();
  if (h.window == 0) {
    advertised_zero_window_ = true;
  }

  // Zero-copy TX: the header comes from the stack's pooled header arena and the
  // payload slices are chained behind it untouched — no flattening, no memcpy. The
  // checksum streams over the parts.
  Buffer header = io_->AllocateHeader(kTcpHeaderSize);
  WriteTcpHeaderSg(header.mutable_span(), h, local_.ip, remote_.ip, payload.parts_span());

  FrameChain segment(std::move(header));
  for (const Buffer& part : payload.parts()) {
    segment.Append(part);
  }

  if (track) {
    // Keeping the chain for retransmit costs refcount bumps on the payload slices
    // (shared with `segment` above), never byte copies.
    const bool was_empty = inflight_.empty();
    inflight_.push_back(
        InflightSegment{seq, std::move(payload), flags, io_->sim().now(), false});
    if (was_empty) {
      RestartRetransmitTimer();
    } else {
      EnsureRetransmitTimer();
    }
  }
  io_->SendSegment(remote_.ip, std::move(segment));
}

void TcpConnection::SendFlags(std::uint8_t flags) {
  EmitSegment(snd_nxt_, FrameChain(), flags, false);
}

void TcpConnection::SendAck() { SendFlags(kTcpAck); }

void TcpConnection::AckNow() {
  CancelDelayedAck();
  unacked_segments_ = 0;
  SendAck();
}

void TcpConnection::DeferAck() {
  const auto& cfg = io_->tcp_config();
  ++unacked_segments_;
  if (unacked_segments_ >= cfg.ack_every_segments) {
    // One cumulative ACK covers the whole run of deferred segments.
    io_->host().Count(Counter::kAcksCoalesced,
                      static_cast<std::uint64_t>(unacked_segments_ - 1));
    AckNow();
    return;
  }
  ack_pending_ = true;
  if (delack_timer_ == kInvalidTimer) {
    delack_timer_ = io_->sim().Schedule(cfg.delayed_ack_timeout_ns, [this] {
      delack_timer_ = kInvalidTimer;
      OnDelayedAckTimer();
    });
  }
}

void TcpConnection::CancelDelayedAck() {
  ack_pending_ = false;
  if (delack_timer_ != kInvalidTimer) {
    io_->sim().Cancel(delack_timer_);
    delack_timer_ = kInvalidTimer;
  }
}

void TcpConnection::OnDelayedAckTimer() {
  if (!ack_pending_ || state_ == State::kClosed) {
    return;
  }
  ack_pending_ = false;
  unacked_segments_ = 0;
  io_->host().Count(Counter::kDelayedAcks);
  SendAck();
  // Timer context: no poll step is processing this connection, so push the ACK to
  // the device now instead of waiting for the stack's next burst flush.
  io_->FlushTx();
}

void TcpConnection::StartActiveOpen() {
  DEMI_CHECK(state_ == State::kSynSent);
  EmitSegment(snd_nxt_, FrameChain(), kTcpSyn, /*track=*/true);
  snd_nxt_ += 1;
  // Connect latency matters more than batching: push the SYN (or its ARP request)
  // out now rather than at the stack's next poll.
  io_->FlushTx();
}

// --- application send path ---

std::size_t TcpConnection::send_buffer_space() const {
  const std::size_t used = send_queue_bytes_ + (snd_nxt_ - snd_una_);
  const std::size_t cap = io_->tcp_config().send_buf_bytes;
  return cap > used ? cap - used : 0;
}

std::size_t TcpConnection::unacked_bytes() const {
  return send_queue_bytes_ + (snd_nxt_ - snd_una_);
}

Status TcpConnection::WritableStatus() const {
  if (reset_) {
    return ConnectionReset("connection reset");
  }
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kSynSent && state_ != State::kSynReceived) {
    return NotConnected("send after close");
  }
  if (fin_queued_ || fin_sent_) {
    return NotConnected("send after shutdown");
  }
  return OkStatus();
}

Result<std::size_t> TcpConnection::Write(std::span<const Buffer> parts) {
  RETURN_IF_ERROR(WritableStatus());
  std::size_t queued = 0;
  for (const Buffer& part : parts) {
    const std::size_t take = std::min(part.size(), send_buffer_space());
    if (take > 0) {
      send_queue_.push_back(take == part.size() ? part : part.Slice(0, take));
      send_queue_bytes_ += take;
      queued += take;
    }
    if (take < part.size()) {
      break;  // send buffer full: the caller keeps the tail
    }
  }
  if (queued > 0) {
    TrySend();
  }
  return queued;
}

Status TcpConnection::Send(Buffer data) {
  RETURN_IF_ERROR(WritableStatus());
  if (data.size() > send_buffer_space()) {
    return ResourceExhausted("send buffer full");
  }
  return Write(std::span<const Buffer>(&data, 1)).status();
}

void TcpConnection::TrySend() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) {
    return;
  }
  const auto& cfg = io_->tcp_config();
  while (!send_queue_.empty()) {
    const std::uint32_t in_flight = snd_nxt_ - snd_una_;
    const std::uint32_t window = std::min<std::uint32_t>(cwnd_, snd_wnd_);
    if (window <= in_flight) {
      break;
    }
    const std::size_t usable = window - in_flight;
    const std::size_t take = std::min({send_queue_bytes_, cfg.mss, usable});
    if (take == 0) {
      break;
    }
    // Gather up to one MSS across queued buffers into a single segment (NICs do this
    // with scatter-gather descriptors, so it costs the host nothing): a gathered
    // Write's framing header and element segments leave together, never as
    // tinygrams. Each queued buffer contributes a zero-copy slice to the chain.
    FrameChain payload;
    std::size_t gathered = 0;
    while (gathered < take) {
      Buffer& front = send_queue_.front();
      const std::size_t part = std::min(front.size(), take - gathered);
      payload.Append(front.Slice(0, part));
      gathered += part;
      if (part == front.size()) {
        send_queue_.pop_front();
      } else {
        front = front.Slice(part);
      }
    }
    send_queue_bytes_ -= take;
    EmitSegment(snd_nxt_, std::move(payload), kTcpAck | kTcpPsh, /*track=*/true);
    snd_nxt_ += static_cast<std::uint32_t>(take);
  }

  // Zero-window deadlock avoidance: probe the peer periodically.
  if (!send_queue_.empty() && snd_wnd_ == 0 && inflight_.empty() &&
      persist_timer_ == kInvalidTimer) {
    persist_timer_ = io_->sim().Schedule(cfg.persist_interval_ns, [this] {
      persist_timer_ = kInvalidTimer;
      if (send_queue_.empty() || state_ == State::kClosed) {
        return;
      }
      // 1-byte window probe, taken from the queue and tracked like normal data.
      Buffer& front2 = send_queue_.front();
      Buffer probe = front2.Slice(0, 1);
      if (front2.size() == 1) {
        send_queue_.pop_front();
      } else {
        front2 = front2.Slice(1);
      }
      send_queue_bytes_ -= 1;
      EmitSegment(snd_nxt_, FrameChain(std::move(probe)), kTcpAck | kTcpPsh, /*track=*/true);
      snd_nxt_ += 1;
      io_->FlushTx();  // timer context: probe leaves now, not at the next poll
    });
  }

  MaybeSendFin();
}

void TcpConnection::MaybeSendFin() {
  if (!fin_queued_ || fin_sent_ || !send_queue_.empty()) {
    return;
  }
  fin_sent_ = true;
  fin_seq_ = snd_nxt_;
  EmitSegment(snd_nxt_, FrameChain(), kTcpFin | kTcpAck, /*track=*/true);
  snd_nxt_ += 1;
  if (state_ == State::kEstablished) {
    EnterState(State::kFinWait1);
  } else if (state_ == State::kCloseWait) {
    EnterState(State::kLastAck);
  }
}

void TcpConnection::Close() {
  switch (state_) {
    case State::kSynSent:
    case State::kListen:
      BecomeClosed();
      return;
    case State::kSynReceived:
    case State::kEstablished:
    case State::kCloseWait:
      fin_queued_ = true;
      TrySend();
      if (state_ == State::kSynReceived) {
        // FIN will flow once established; nothing else to do now.
        MaybeSendFin();
      }
      // Application context: teardown progress should not wait for the next poll.
      io_->FlushTx();
      return;
    default:
      return;  // already closing or closed
  }
}

void TcpConnection::Abort() {
  if (state_ != State::kClosed) {
    SendFlags(kTcpRst | kTcpAck);
    io_->FlushTx();
  }
  reset_ = true;
  send_queue_.clear();
  send_queue_bytes_ = 0;
  inflight_.clear();
  BecomeClosed();
}

// --- timers ---

void TcpConnection::EnsureRetransmitTimer() {
  if (rtx_timer_ == kInvalidTimer) {
    rtx_timer_ = io_->sim().Schedule(rto_, [this] {
      rtx_timer_ = kInvalidTimer;
      OnRetransmitTimeout();
    });
  }
}

void TcpConnection::RestartRetransmitTimer() {
  rtx_restart_base_ = io_->sim().now();
  EnsureRetransmitTimer();
}

void TcpConnection::CancelRetransmitTimer() {
  if (rtx_timer_ != kInvalidTimer) {
    io_->sim().Cancel(rtx_timer_);
    rtx_timer_ = kInvalidTimer;
  }
}

void TcpConnection::OnRetransmitTimeout() {
  if (inflight_.empty() || state_ == State::kClosed) {
    return;
  }
  // Lazy re-arm: ACK progress since the timer was scheduled only advanced
  // rtx_restart_base_ (a plain store, no Cancel/Schedule churn). If the live
  // deadline moved past us, this firing is not a timeout — sleep the remainder.
  const TimeNs deadline = rtx_restart_base_ + rto_;
  const TimeNs now = io_->sim().now();
  if (now < deadline) {
    rtx_timer_ = io_->sim().Schedule(deadline - now, [this] {
      rtx_timer_ = kInvalidTimer;
      OnRetransmitTimeout();
    });
    return;
  }
  const auto& cfg = io_->tcp_config();
  if (++retries_ > cfg.max_retries) {
    reset_ = true;
    BecomeClosed();
    return;
  }
  // Classic Reno timeout response: collapse to one segment, back off the timer.
  const std::uint32_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint32_t>(flight / 2, 2 * static_cast<std::uint32_t>(cfg.mss));
  cwnd_ = static_cast<std::uint32_t>(cfg.mss);
  dup_acks_ = 0;
  in_fast_recovery_ = false;

  InflightSegment& seg = inflight_.front();
  seg.retransmitted = true;
  seg.sent_at = io_->sim().now();
  ++retransmits_;
  io_->host().Count(Counter::kRetransmissions);
  EmitSegment(seg.seq, seg.payload, seg.flags, /*track=*/false);

  rto_ = std::min<TimeNs>(rto_ * 2, cfg.max_rto_ns);
  RestartRetransmitTimer();
  // Timer context: the retransmitted segment must not sit staged until the next poll.
  io_->FlushTx();
}

void TcpConnection::FastRetransmit() {
  if (inflight_.empty()) {
    return;
  }
  InflightSegment& seg = inflight_.front();
  seg.retransmitted = true;
  seg.sent_at = io_->sim().now();
  ++retransmits_;
  io_->host().Count(Counter::kRetransmissions);
  EmitSegment(seg.seq, seg.payload, seg.flags, /*track=*/false);
}

void TcpConnection::UpdateRtt(TimeNs measured) {
  const auto& cfg = io_->tcp_config();
  const auto m = static_cast<double>(measured);
  if (!rtt_valid_) {
    srtt_ns_ = m;
    rttvar_ns_ = m / 2;
    rtt_valid_ = true;
  } else {
    rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(srtt_ns_ - m);
    srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * m;
  }
  rto_ = std::clamp<TimeNs>(static_cast<TimeNs>(srtt_ns_ + 4 * rttvar_ns_), cfg.min_rto_ns,
                            cfg.max_rto_ns);
}

void TcpConnection::StartTimeWait() {
  EnterState(State::kTimeWait);
  CancelRetransmitTimer();
  if (time_wait_timer_ == kInvalidTimer) {
    time_wait_timer_ = io_->sim().Schedule(io_->tcp_config().time_wait_ns, [this] {
      time_wait_timer_ = kInvalidTimer;
      BecomeClosed();
    });
  }
}

void TcpConnection::BecomeClosed() {
  CancelRetransmitTimer();
  CancelDelayedAck();
  if (persist_timer_ != kInvalidTimer) {
    io_->sim().Cancel(persist_timer_);
    persist_timer_ = kInvalidTimer;
  }
  if (time_wait_timer_ != kInvalidTimer) {
    io_->sim().Cancel(time_wait_timer_);
    time_wait_timer_ = kInvalidTimer;
  }
  if (state_ != State::kClosed) {
    EnterState(State::kClosed);
    io_->OnTcpClosed(this);
    // Death can arrive outside segment processing (RTO exhaustion, TIME_WAIT
    // expiry, Abort): notify here so event-driven owners always learn of it.
    if (on_ready_) {
      on_ready_(this);
    }
  }
}

// --- segment input ---

void TcpConnection::OnSegment(const TcpHeader& h, Buffer payload) {
  const bool was_established = established();
  const std::uint32_t una_before = snd_una_;
  OnSegmentImpl(h, std::move(payload));
  // Edge notification after the whole segment is absorbed, so the callback sees the
  // settled state (data delivered, ACKs processed, state transitions done). The
  // snd_una edge covers "send-buffer space opened": a backlogged sender may get
  // nothing but pure ACKs from its peer, and without it could stall forever. Death
  // paths may additionally notify from BecomeClosed(); receivers dedup.
  if (on_ready_ && (readable() || dead() || (established() && !was_established) ||
                    snd_una_ != una_before)) {
    on_ready_(this);
  }
}

void TcpConnection::OnSegmentImpl(const TcpHeader& h, Buffer payload) {
  if (state_ == State::kClosed) {
    return;
  }

  // Passive-open embryo: first segment must be the SYN.
  if (state_ == State::kListen) {
    if (!(h.flags & kTcpSyn) || (h.flags & kTcpAck)) {
      SendFlags(kTcpRst | kTcpAck);
      return;
    }
    rcv_nxt_ = h.seq + 1;
    snd_wnd_ = h.window;
    EnterState(State::kSynReceived);
    EmitSegment(snd_nxt_, FrameChain(), kTcpSyn | kTcpAck, /*track=*/true);
    snd_nxt_ += 1;
    return;
  }

  if (state_ == State::kSynSent) {
    if (h.flags & kTcpRst) {
      reset_ = true;  // connection refused
      BecomeClosed();
      return;
    }
    if ((h.flags & (kTcpSyn | kTcpAck)) != (kTcpSyn | kTcpAck) || h.ack != iss_ + 1) {
      return;  // not our SYN-ACK; wait for retransmit
    }
    rcv_nxt_ = h.seq + 1;
    snd_una_ = h.ack;
    snd_wnd_ = h.window;
    inflight_.clear();  // the SYN is acknowledged
    CancelRetransmitTimer();
    retries_ = 0;
    EnterState(State::kEstablished);
    SendAck();
    TrySend();
    return;
  }

  if (h.flags & kTcpRst) {
    // In-window RST kills the connection (we accept any RST at/above rcv_nxt_).
    if (SeqGe(h.seq, rcv_nxt_)) {
      reset_ = true;
      BecomeClosed();
    }
    return;
  }

  if (h.flags & kTcpSyn) {
    // Retransmitted SYN while in kSynReceived: our tracked SYN-ACK timer covers it,
    // but answering immediately avoids a full RTO stall.
    if (state_ == State::kSynReceived && !inflight_.empty()) {
      EmitSegment(inflight_.front().seq, FrameChain(), kTcpSyn | kTcpAck, /*track=*/false);
    }
    return;
  }

  ProcessAck(h, payload.size());
  if (state_ == State::kClosed) {
    return;
  }
  ProcessPayload(h, std::move(payload));
}

void TcpConnection::ProcessAck(const TcpHeader& h, std::size_t payload_len) {
  if (!(h.flags & kTcpAck)) {
    return;
  }
  const std::uint32_t ack = h.ack;
  if (SeqGt(ack, snd_nxt_)) {
    SendAck();  // acking data we never sent
    return;
  }

  const bool window_changed = h.window != snd_wnd_;
  snd_wnd_ = h.window;
  if (snd_wnd_ > 0 && persist_timer_ != kInvalidTimer) {
    io_->sim().Cancel(persist_timer_);
    persist_timer_ = kInvalidTimer;
  }

  const auto& cfg = io_->tcp_config();
  const auto mss32 = static_cast<std::uint32_t>(cfg.mss);

  if (SeqGt(ack, snd_una_)) {
    // New data acknowledged.
    retries_ = 0;
    std::optional<TimeNs> rtt_sample;
    while (!inflight_.empty() &&
           SeqLe(inflight_.front().seq + SeqLen(inflight_.front()), ack)) {
      if (!inflight_.front().retransmitted) {
        rtt_sample = io_->sim().now() - inflight_.front().sent_at;
      }
      inflight_.pop_front();
    }
    snd_una_ = ack;
    if (rtt_sample) {
      UpdateRtt(*rtt_sample);
    }

    if (in_fast_recovery_) {
      if (SeqGe(ack, recover_)) {
        in_fast_recovery_ = false;
        cwnd_ = ssthresh_;
        dup_acks_ = 0;
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += mss32;  // slow start
    } else {
      cwnd_ += std::max<std::uint32_t>(1, mss32 * mss32 / cwnd_);  // congestion avoidance
    }
    dup_acks_ = 0;

    if (inflight_.empty()) {
      CancelRetransmitTimer();
    } else {
      // RFC 6298 5.3: restart on new-data ACK. Lazily — just move the base.
      rtx_restart_base_ = io_->sim().now();
    }

    // State machinery tied to our FIN being acknowledged.
    if (fin_sent_ && SeqGt(ack, fin_seq_)) {
      if (state_ == State::kFinWait1) {
        EnterState(State::kFinWait2);
      } else if (state_ == State::kClosing) {
        StartTimeWait();
      } else if (state_ == State::kLastAck) {
        BecomeClosed();
        return;
      }
    }
    if (state_ == State::kSynReceived) {
      EnterState(State::kEstablished);
    }
  } else if (ack == snd_una_ && !inflight_.empty() && payload_len == 0 &&
             !window_changed && !(h.flags & (kTcpSyn | kTcpFin))) {
    // Duplicate ACK in the RFC 5681 sense: no data, no window update, nothing else.
    if (++dup_acks_ == 3 && !in_fast_recovery_) {
      const std::uint32_t flight = snd_nxt_ - snd_una_;
      ssthresh_ = std::max<std::uint32_t>(flight / 2, 2 * mss32);
      FastRetransmit();
      cwnd_ = ssthresh_ + 3 * mss32;
      in_fast_recovery_ = true;
      recover_ = snd_nxt_;
    } else if (in_fast_recovery_) {
      cwnd_ += mss32;  // inflate during recovery
    }
  }

  TrySend();
}

void TcpConnection::ProcessPayload(const TcpHeader& h, Buffer payload) {
  const bool has_fin = (h.flags & kTcpFin) != 0;
  if (payload.empty() && !has_fin) {
    return;  // pure ACK
  }

  // The FIN occupies the sequence slot right after this segment's (untrimmed) payload.
  if (has_fin && !fin_received_) {
    pending_fin_ = true;
    pending_fin_seq_ = h.seq + static_cast<std::uint32_t>(payload.size());
  }

  const std::size_t original_size = payload.size();
  std::uint32_t seq = h.seq;
  // Trim anything already received.
  if (SeqLt(seq, rcv_nxt_)) {
    const std::uint32_t overlap = rcv_nxt_ - seq;
    if (overlap >= payload.size()) {
      payload = Buffer();
      seq = rcv_nxt_;
    } else {
      payload = payload.Slice(overlap);
      seq = rcv_nxt_;
    }
  }

  // RFC 1122/5681 ACK policy: only clean in-order data may defer its ACK. Duplicates
  // and out-of-order arrivals must ACK immediately (the dup ACKs are what fuels the
  // peer's fast retransmit), and a segment that fills a reassembly gap must ACK
  // immediately so the retransmitting peer learns of the repair at once.
  bool force_immediate = !io_->tcp_config().delayed_ack || state_ != State::kEstablished;
  if (payload.empty() && original_size > 0) {
    force_immediate = true;  // entirely duplicate data
  }

  bool in_order_data = false;
  if (!payload.empty()) {
    const std::size_t cap = io_->tcp_config().recv_buf_bytes;
    if (seq == rcv_nxt_) {
      if (recv_ready_bytes_ + ooo_bytes_ + payload.size() > cap + 65535) {
        // Receiver truly out of space (sender ignored the window); drop.
        AckNow();
        return;
      }
      if (!ooo_.empty()) {
        force_immediate = true;  // this arrival may repair (part of) a gap
      }
      in_order_data = true;
      rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
      recv_ready_bytes_ += payload.size();
      recv_ready_.push_back(std::move(payload));
      DeliverInOrder();
    } else if (SeqGt(seq, rcv_nxt_)) {
      force_immediate = true;  // out of order
      // Stash for later, bounded by the receive buffer.
      auto it = ooo_.find(seq);
      if (it == ooo_.end()) {
        if (ooo_bytes_ + payload.size() <= cap) {
          ooo_bytes_ += payload.size();
          ooo_.emplace(seq, std::move(payload));
        }
      } else if (payload.size() > it->second.size() &&
                 ooo_bytes_ - it->second.size() + payload.size() <= cap) {
        // A retransmission can carry MORE data at the same seq (the sender
        // coalesced segments). Keeping the shorter cached copy would leave the
        // extra bytes permanently missing, since later duplicates all get
        // trimmed against rcv_nxt_ first and dropped here. Keep the longer one.
        ooo_bytes_ += payload.size() - it->second.size();
        it->second = std::move(payload);
      }
    }
  }

  MaybeConsumeFin();
  // FINs (seen or still pending behind a gap) always ACK immediately: teardown and
  // the peer's FIN retransmit timer should never wait on a delack timer.
  if (has_fin || fin_received_ || pending_fin_) {
    force_immediate = true;
  }
  if (force_immediate || !in_order_data) {
    AckNow();
  } else {
    DeferAck();
  }
}

void TcpConnection::MaybeConsumeFin() {
  if (!pending_fin_ || fin_received_) {
    return;
  }
  if (SeqGt(rcv_nxt_, pending_fin_seq_)) {
    pending_fin_ = false;  // stale duplicate
    return;
  }
  if (rcv_nxt_ != pending_fin_seq_) {
    return;  // data before the FIN still missing
  }
  fin_received_ = true;
  pending_fin_ = false;
  rcv_nxt_ += 1;
  switch (state_) {
    case State::kEstablished:
      EnterState(State::kCloseWait);
      break;
    case State::kFinWait1:
      // Our FIN is unacknowledged: simultaneous close.
      EnterState(State::kClosing);
      break;
    case State::kFinWait2:
      StartTimeWait();
      break;
    default:
      break;
  }
}

void TcpConnection::DeliverInOrder() {
  // Drain contiguous out-of-order segments.
  auto it = ooo_.begin();
  while (it != ooo_.end()) {
    if (SeqGt(it->first, rcv_nxt_)) {
      break;
    }
    Buffer seg = std::move(it->second);
    const std::uint32_t seg_seq = it->first;
    it = ooo_.erase(it);
    ooo_bytes_ -= seg.size();
    if (SeqLt(seg_seq + static_cast<std::uint32_t>(seg.size()), rcv_nxt_)) {
      continue;  // entirely duplicate
    }
    if (SeqLt(seg_seq, rcv_nxt_)) {
      seg = seg.Slice(rcv_nxt_ - seg_seq);
    }
    rcv_nxt_ += static_cast<std::uint32_t>(seg.size());
    recv_ready_bytes_ += seg.size();
    recv_ready_.push_back(std::move(seg));
    it = ooo_.begin();
  }
}

Buffer TcpConnection::Recv(std::size_t max_bytes) {
  if (recv_ready_.empty() || max_bytes == 0) {
    return Buffer();
  }
  const bool was_zero = AdvertisedWindow() == 0;
  Buffer& front = recv_ready_.front();
  Buffer out;
  if (front.size() <= max_bytes) {
    out = std::move(front);
    recv_ready_.pop_front();
  } else {
    out = front.Slice(0, max_bytes);
    front = front.Slice(max_bytes);
  }
  recv_ready_bytes_ -= out.size();
  if ((was_zero || advertised_zero_window_) && AdvertisedWindow() > 0) {
    advertised_zero_window_ = false;
    AckNow();  // window update so the sender's persist probe isn't needed
    io_->FlushTx();  // application context: unblock the stalled sender now
  }
  return out;
}

}  // namespace demi
