#include "src/net/stack.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/memory/memory_manager.h"

namespace demi {

NetStack::NetStack(HostCpu* host, SimNic* nic, NetStackConfig config)
    : host_(host), nic_(nic), config_(config), rng_(config.seed) {
  // Stacks sharing one host IP (kernel on queue 0, libOSes on leased queues) partition
  // the ephemeral port space so their flow-steering rules can never collide — the
  // control-path coordination a real kernel provides when leasing queues.
  next_ephemeral_ = static_cast<std::uint16_t>(49152 + config_.nic_queue * 2048);
  host_->sim().AddPoller(this);
}

NetStack::~NetStack() {
  // Connections hold timers referencing themselves; kill them before destruction.
  // Ready callbacks are dropped first: the applications they point into may be
  // tearing down alongside the stack, and teardown aborts are not events.
  for (auto& c : conns_) {
    if (c == nullptr) {
      continue;
    }
    c->set_on_ready(nullptr);
    if (!c->closed()) {
      c->Abort();
    }
  }
  host_->sim().RemovePoller(this);
}

TimeNs NetStack::tx_cost() const {
  return config_.stack_tx_ns >= 0 ? config_.stack_tx_ns : host_->cost().user_stack_tx_ns;
}

TimeNs NetStack::rx_cost() const {
  return config_.stack_rx_ns >= 0 ? config_.stack_rx_ns : host_->cost().user_stack_rx_ns;
}

Buffer NetStack::AllocateHeader(std::size_t size) {
  if (config_.memory != nullptr) {
    return config_.memory->AllocateHeader(size);
  }
  // No memory manager (legacy kernel stack): plain heap header. Still counted so the
  // alloc-rate difference between the paths is visible.
  host_->Count(Counter::kBufferAllocs);
  host_->Count(Counter::kHeaderPoolMisses);
  return Buffer::Allocate(size);
}

bool NetStack::Poll() {
  FreeClosedReleased();
  if (nic_->failed() && !device_failed_) {
    device_failed_ = true;
    // The NIC is gone for good: no retransmission can ever be acknowledged. Abort every
    // connection now so pending operations complete with errors and the stack's
    // send-queue/in-flight buffer references are dropped. Staged frames can never be
    // posted either; dropping them releases their payload references (§4.5).
    for (auto& c : conns_) {
      if (c != nullptr && !c->closed()) {
        c->Abort();
      }
    }
    if (!tx_staged_.empty()) {
      host_->Count(Counter::kPacketsDropped, tx_staged_.size());
      tx_staged_.clear();
    }
    return true;
  }
  bool progress = false;
  rx_scratch_.clear();
  nic_->PollRxBurst(config_.nic_queue, rx_scratch_, config_.rx_batch);
  for (Buffer& frame : rx_scratch_) {
    progress = true;
    ++frames_rx_;
    HandleFrame(std::move(frame));
  }
  rx_scratch_.clear();
  // End-of-step burst flush: everything the burst above produced (ACKs, echoes,
  // retransmit-free data) leaves under a single doorbell.
  if (!tx_staged_.empty()) {
    Flush();
    progress = true;
  }
  return progress;
}

void NetStack::StageFrame(FrameChain frame) {
  ++frames_tx_;
  tx_staged_.push_back(std::move(frame));
}

void NetStack::Flush() {
  if (tx_staged_.empty()) {
    return;
  }
  std::span<FrameChain> rest(tx_staged_);
  while (!rest.empty()) {
    const std::size_t sent = nic_->TransmitBurst(config_.nic_queue, rest);
    if (sent == 0) {
      // Dead NIC or full TX ring: the remainder is lost, exactly as per-frame
      // Transmit calls would have dropped them. Transport retransmission recovers.
      host_->Count(Counter::kPacketsDropped, rest.size());
      break;
    }
    rest = rest.subspan(sent);
  }
  tx_staged_.clear();
}

void NetStack::HandleFrame(Buffer frame) {
  if (frame.size() < kEthHeaderSize) {
    return;
  }
  const EthHeader eth = ParseEthHeader(frame.span());
  switch (eth.ethertype) {
    case kEtherTypeArp:
      HandleArp(std::move(frame));
      break;
    case kEtherTypeIpv4:
      HandleIpv4(std::move(frame));
      break;
    default:
      break;
  }
}

// --- ARP ---

void NetStack::SendArpRequest(Ipv4Address target) {
  ArpPacket req;
  req.is_request = true;
  req.sender_mac = nic_->mac();
  req.sender_ip = config_.ip;
  req.target_mac = MacAddress{};
  req.target_ip = target;
  StageFrame(FrameChain(BuildArp(MacAddress::Broadcast(), req)));
}

// ARP frames must come from the stack's header allocator, not the plain heap:
// on a tenant-bound queue the device validates every TX descriptor against the
// tenant's capability set, and a heap-allocated ARP reply would be refused —
// leaving the stack unable to resolve anything.
Buffer NetStack::BuildArp(MacAddress dst, const ArpPacket& arp) {
  Buffer frame = AllocateHeader(kEthHeaderSize + kArpPacketSize);
  WriteEthHeader(frame.mutable_span(), EthHeader{dst, nic_->mac(), kEtherTypeArp});
  WriteArpPacket(frame.mutable_span().subspan(kEthHeaderSize), arp);
  return frame;
}

void NetStack::HandleArp(Buffer frame) {
  auto arp = ParseArpPacket(frame.span().subspan(kEthHeaderSize));
  if (!arp) {
    return;
  }
  // Learn the sender mapping opportunistically (both requests and replies).
  arp_cache_[arp->sender_ip] = arp->sender_mac;
  FlushArpPending(arp->sender_ip, arp->sender_mac);

  if (arp->is_request && arp->target_ip == config_.ip) {
    ArpPacket reply;
    reply.is_request = false;
    reply.sender_mac = nic_->mac();
    reply.sender_ip = config_.ip;
    reply.target_mac = arp->sender_mac;
    reply.target_ip = arp->sender_ip;
    StageFrame(FrameChain(BuildArp(arp->sender_mac, reply)));
  }
}

void NetStack::FlushArpPending(Ipv4Address ip, MacAddress mac) {
  auto it = arp_pending_.find(ip);
  if (it == arp_pending_.end()) {
    return;
  }
  if (it->second.timer != kInvalidTimer) {
    host_->sim().Cancel(it->second.timer);
  }
  std::vector<FrameChain> frames = std::move(it->second.frames);
  arp_pending_.erase(it);
  for (FrameChain& f : frames) {
    WriteEthHeader(f.front().mutable_span(), EthHeader{mac, nic_->mac(), kEtherTypeIpv4});
    StageFrame(std::move(f));
  }
}

void NetStack::ResolveAndTransmit(Ipv4Address next_hop, FrameChain frame) {
  if (auto it = arp_cache_.find(next_hop); it != arp_cache_.end()) {
    WriteEthHeader(frame.front().mutable_span(),
                   EthHeader{it->second, nic_->mac(), kEtherTypeIpv4});
    StageFrame(std::move(frame));
    return;
  }
  ArpPending& pending = arp_pending_[next_hop];
  pending.frames.push_back(std::move(frame));
  if (pending.frames.size() > 1) {
    return;  // request already outstanding
  }
  pending.retries_left = 3;
  SendArpRequest(next_hop);
  // After retries are exhausted the parked frames are dropped; transport-level
  // retransmission will try again and re-trigger resolution.
  pending.timer = host_->sim().Schedule(kMillisecond, [this, next_hop] { ArpRetryTick(next_hop); });
}

void NetStack::ArpRetryTick(Ipv4Address next_hop) {
  auto it = arp_pending_.find(next_hop);
  if (it == arp_pending_.end()) {
    return;
  }
  if (it->second.retries_left-- <= 0) {
    host_->Count(Counter::kPacketsDropped, it->second.frames.size());
    arp_pending_.erase(it);
    return;
  }
  SendArpRequest(next_hop);
  it->second.timer =
      host_->sim().Schedule(kMillisecond, [this, next_hop] { ArpRetryTick(next_hop); });
}

// --- IPv4 / UDP ---

void NetStack::HandleIpv4(Buffer frame) {
  host_->Work(rx_cost());
  auto ip = ParseIpv4Header(frame.span().subspan(kEthHeaderSize));
  if (!ip || !(ip->dst == config_.ip)) {
    return;
  }
  Buffer l4 = frame.Slice(kEthHeaderSize + kIpv4HeaderSize,
                          ip->total_length - kIpv4HeaderSize);
  switch (ip->protocol) {
    case kIpProtoTcp:
      HandleTcp(*ip, std::move(l4));
      break;
    case kIpProtoUdp:
      HandleUdp(*ip, std::move(l4));
      break;
    default:
      break;
  }
}

Status NetStack::UdpBind(std::uint16_t port, UdpRecvFn on_recv) {
  if (udp_ports_.contains(port)) {
    return Status(ErrorCode::kAddressInUse, "udp port in use");
  }
  udp_ports_[port] = std::move(on_recv);
  nic_->AddSteeringRule(kIpProtoUdp, port, config_.nic_queue);
  return OkStatus();
}

void NetStack::UdpUnbind(std::uint16_t port) {
  if (udp_ports_.erase(port) > 0) {
    nic_->RemoveSteeringRule(kIpProtoUdp, port);
  }
}

Status NetStack::UdpSend(std::uint16_t src_port, Endpoint dst, Buffer payload) {
  const Buffer parts[] = {payload};
  return UdpSend(src_port, dst, parts);
}

Status NetStack::UdpSend(std::uint16_t src_port, Endpoint dst,
                         std::span<const Buffer> payload_parts) {
  std::size_t payload_size = 0;
  for (const Buffer& p : payload_parts) {
    payload_size += p.size();
  }
  if (payload_size + kUdpHeaderSize + kIpv4HeaderSize > 1500) {
    return InvalidArgument("UDP datagram exceeds MTU (no fragmentation support)");
  }
  host_->Work(tx_cost());
  // One pooled header buffer carries eth+ip+udp; the payload parts chain behind it by
  // reference (zero-copy all the way to the wire).
  constexpr std::size_t kHdr = kEthHeaderSize + kIpv4HeaderSize + kUdpHeaderSize;
  Buffer hdr = AllocateHeader(kHdr);
  Ipv4Header ip;
  ip.protocol = kIpProtoUdp;
  ip.src = config_.ip;
  ip.dst = dst.ip;
  WriteEthIpv4Headers(hdr.mutable_span(), nic_->mac(), MacAddress{}, ip,
                      kUdpHeaderSize + payload_size);
  WriteUdpHeader(hdr.mutable_span().subspan(kEthHeaderSize + kIpv4HeaderSize),
                 UdpHeader{src_port, dst.port,
                           static_cast<std::uint16_t>(kUdpHeaderSize + payload_size)});
  FrameChain frame(std::move(hdr));
  for (const Buffer& p : payload_parts) {
    if (!p.empty()) {
      frame.Append(p);
    }
  }
  ResolveAndTransmit(dst.ip, std::move(frame));
  return OkStatus();
}

void NetStack::HandleUdp(const Ipv4Header& ip, Buffer l4) {
  auto h = ParseUdpHeader(l4.span());
  if (!h) {
    return;
  }
  auto it = udp_ports_.find(h->dst_port);
  if (it == udp_ports_.end()) {
    return;  // no ICMP port-unreachable in this stack
  }
  it->second(Endpoint{ip.src, h->src_port}, l4.Slice(kUdpHeaderSize, h->length - kUdpHeaderSize));
}

// --- TCP ---

Result<TcpListener*> NetStack::TcpListen(std::uint16_t port) {
  if (listeners_.contains(port)) {
    return Status(ErrorCode::kAddressInUse, "tcp port in use");
  }
  auto listener = std::make_unique<TcpListener>(port, config_.tcp.listen_backlog);
  TcpListener* out = listener.get();
  listeners_[port] = std::move(listener);
  if (!config_.rss_steering) {
    nic_->AddSteeringRule(kIpProtoTcp, port, config_.nic_queue);
  }
  return out;
}

void NetStack::CloseListener(TcpListener* listener) {
  const std::uint16_t port = listener->port();
  auto lit = listeners_.find(port);
  DEMI_CHECK(lit != listeners_.end() && lit->second.get() == listener);
  if (!config_.rss_steering) {
    nic_->RemoveSteeringRule(kIpProtoTcp, port);
  }
  // The listener held these connections and nobody else will: reset each, embryos
  // in creation order and then the accept queue in arrival order, so the RSTs leave
  // in an order that never depends on heap addresses. An aborted embryo is let go in
  // OnTcpClosed; the accepted ones are released here.
  std::vector<TcpConnection*> embryos;
  for (std::size_t i = 0; embryos.size() < listener->embryos_ && i < conns_.size(); ++i) {
    TcpConnection* c = conns_[i].get();
    if (auto eit = embryos_.find(c); eit != embryos_.end() && eit->second == listener) {
      embryos.push_back(c);
    }
  }
  for (TcpConnection* c : embryos) {
    c->Abort();
  }
  for (TcpConnection* c : listener->accept_queue_) {
    c->Abort();
    Release(c);
  }
  listeners_.erase(lit);
}

std::uint16_t NetStack::AllocateEphemeralPort(const Endpoint& remote) {
  const auto base = static_cast<std::uint16_t>(49152 + config_.nic_queue * 2048);
  const auto limit = static_cast<std::uint16_t>(base + 2047);
  // A port is reusable when this exact 4-tuple is free: one pass over the partition
  // suffices, and each candidate costs one O(1) flow-table lookup.
  for (int tries = 0; tries < 2048; ++tries) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= limit ? base : next_ephemeral_ + 1;
    if (!flow_table_.Contains(port, remote) && !listeners_.contains(port)) {
      return port;
    }
  }
  return 0;
}

Result<TcpConnection*> NetStack::TcpConnect(Endpoint remote) {
  const std::uint16_t port = AllocateEphemeralPort(remote);
  if (port == 0) {
    return ResourceExhausted("no ephemeral ports");
  }
  const auto iss = static_cast<std::uint32_t>(rng_.NextU64());
  auto conn = std::make_unique<TcpConnection>(this, Endpoint{config_.ip, port}, remote,
                                              /*active_open=*/true, iss);
  TcpConnection* out = conn.get();
  nic_->AddSteeringRule(kIpProtoTcp, port, config_.nic_queue);
  flow_table_.Insert(port, remote, out);
  AddConnection(std::move(conn));
  out->StartActiveOpen();
  return out;
}

void NetStack::AddConnection(std::unique_ptr<TcpConnection> conn) {
  conn->slot_ = static_cast<std::uint32_t>(conns_.size());
  conns_.push_back(std::move(conn));
}

void NetStack::Release(TcpConnection* conn) {
  DEMI_CHECK(!conn->released_);
  conn->released_ = true;
  if (conn->closed()) {
    closed_released_.push_back(conn);
  }
}

void NetStack::FreeClosedReleased() {
  if (closed_released_.empty()) {
    return;
  }
  for (TcpConnection* c : closed_released_) {
    conns_[c->slot_].reset();
  }
  free_slots_ += closed_released_.size();
  closed_released_.clear();
  if (2 * free_slots_ <= conns_.size()) {
    return;
  }
  std::erase(conns_, nullptr);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    conns_[i]->slot_ = static_cast<std::uint32_t>(i);
  }
  free_slots_ = 0;
}

void NetStack::SendRst(const Ipv4Header& ip, const TcpHeader& h, std::size_t payload_len) {
  TcpHeader rst;
  rst.src_port = h.dst_port;
  rst.dst_port = h.src_port;
  rst.flags = kTcpRst | kTcpAck;
  rst.seq = (h.flags & kTcpAck) ? h.ack : 0;
  rst.ack = h.seq + static_cast<std::uint32_t>(payload_len) +
            ((h.flags & (kTcpSyn | kTcpFin)) ? 1 : 0);
  Buffer seg = AllocateHeader(kTcpHeaderSize);
  WriteTcpHeader(seg.mutable_span(), rst, config_.ip, ip.src, {});
  SendSegment(ip.src, FrameChain(std::move(seg)));
}

void NetStack::HandleTcp(const Ipv4Header& ip, Buffer l4) {
  if (!VerifyTcpChecksum(l4.span(), ip.src, ip.dst)) {
    return;  // corrupted segment
  }
  auto h = ParseTcpHeader(l4.span());
  if (!h) {
    return;
  }
  Buffer payload = l4.Slice(kTcpHeaderSize);

  const Endpoint peer{ip.src, h->src_port};
  if (TcpConnection* conn = flow_table_.Find(h->dst_port, peer); conn != nullptr) {
    conn->OnSegment(*h, std::move(payload));
    // Embryo promotion: passive connections reach the accept queue once established.
    // (An embryo that died left embryos_ in OnTcpClosed.)
    if (auto eit = embryos_.find(conn); eit != embryos_.end() && conn->established()) {
      TcpListener* listener = eit->second;
      --listener->embryos_;
      listener->accept_queue_.push_back(conn);
      embryos_.erase(eit);
    }
    return;
  }

  // No connection: maybe a listener?
  if (auto lit = listeners_.find(h->dst_port); lit != listeners_.end()) {
    TcpListener* listener = lit->second.get();
    if ((h->flags & kTcpSyn) && !(h->flags & kTcpAck)) {
      if (listener->embryos_ + listener->accept_queue_.size() >= listener->backlog_) {
        return;  // SYN queue overflow: drop, client retransmits
      }
      const auto iss = static_cast<std::uint32_t>(rng_.NextU64());
      auto conn = std::make_unique<TcpConnection>(this, Endpoint{config_.ip, h->dst_port},
                                                  peer, /*active_open=*/false, iss);
      TcpConnection* raw = conn.get();
      flow_table_.Insert(h->dst_port, peer, raw);
      AddConnection(std::move(conn));
      embryos_[raw] = listener;
      ++listener->embryos_;
      raw->OnSegment(*h, std::move(payload));
      return;
    }
    // Non-SYN to a listening port without a connection: reset.
  }
  if (!(h->flags & kTcpRst)) {
    SendRst(ip, *h, payload.size());
  }
}

void NetStack::SendSegment(Ipv4Address dst, FrameChain segment) {
  host_->Work(tx_cost());
  Ipv4Header ip;
  ip.protocol = kIpProtoTcp;
  ip.src = config_.ip;
  ip.dst = dst;
  Buffer hdr = AllocateHeader(kEthHeaderSize + kIpv4HeaderSize);
  WriteEthIpv4Headers(hdr.mutable_span(), nic_->mac(), MacAddress{}, ip, segment.size());
  FrameChain frame(std::move(hdr));
  for (const Buffer& part : segment.parts()) {
    frame.Append(part);
  }
  ResolveAndTransmit(dst, std::move(frame));
}

void NetStack::OnTcpClosed(TcpConnection* conn) {
  flow_table_.Erase(conn->local().port, conn->remote());
  if (auto eit = embryos_.find(conn); eit != embryos_.end()) {
    // An embryo that dies before it is accepted has no holder but its listener,
    // which lets go of it here.
    --eit->second->embryos_;
    embryos_.erase(eit);
    conn->released_ = true;
  }
  if (conn->released_) {
    closed_released_.push_back(conn);
  }
}

}  // namespace demi
