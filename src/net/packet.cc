#include "src/net/packet.h"

#include <cstdio>

#include "src/common/logging.h"

namespace demi {

Ipv4Address Ipv4Address::Parse(const std::string& dotted) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4 || a > 255 ||
      b > 255 || c > 255 || d > 255) {
    return Ipv4Address{};
  }
  return FromOctets(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                    static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

std::string Ipv4Address::ToString() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", addr >> 24 & 0xFF, addr >> 16 & 0xFF,
                addr >> 8 & 0xFF, addr & 0xFF);
  return buf;
}

void WriteIpv4Header(std::span<std::byte> out, const Ipv4Header& h) {
  DEMI_CHECK(out.size() >= kIpv4HeaderSize);
  ByteWriter w(out);
  w.U8(0x45);  // version 4, IHL 5
  w.U8(0);     // DSCP/ECN
  w.U16(h.total_length);
  w.U16(0);  // identification
  w.U16(0x4000);  // DF, no fragmentation (we never fragment)
  w.U8(h.ttl);
  w.U8(h.protocol);
  w.U16(0);  // checksum placeholder
  w.U32(h.src.addr);
  w.U32(h.dst.addr);
  const std::uint16_t csum = InternetChecksum(out.first(kIpv4HeaderSize));
  out[10] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  out[11] = std::byte{static_cast<std::uint8_t>(csum & 0xFF)};
}

std::optional<Ipv4Header> ParseIpv4Header(std::span<const std::byte> in) {
  if (in.size() < kIpv4HeaderSize) {
    return std::nullopt;
  }
  if (InternetChecksum(in.first(kIpv4HeaderSize)) != 0) {
    return std::nullopt;  // corrupted header
  }
  ByteReader r(in);
  const std::uint8_t ver_ihl = r.U8();
  if (ver_ihl != 0x45) {
    return std::nullopt;  // we only produce/consume option-less IPv4
  }
  r.Skip(1);
  Ipv4Header h;
  h.total_length = r.U16();
  r.Skip(4);  // id, frag
  h.ttl = r.U8();
  h.protocol = r.U8();
  r.Skip(2);  // checksum (verified above)
  h.src.addr = r.U32();
  h.dst.addr = r.U32();
  if (h.total_length < kIpv4HeaderSize || h.total_length > in.size()) {
    return std::nullopt;
  }
  return h;
}

void WriteUdpHeader(std::span<std::byte> out, const UdpHeader& h) {
  DEMI_CHECK(out.size() >= kUdpHeaderSize);
  ByteWriter w(out);
  w.U16(h.src_port);
  w.U16(h.dst_port);
  w.U16(h.length);
  w.U16(0);  // checksum optional in IPv4; we rely on the NIC's checksum offload
}

std::optional<UdpHeader> ParseUdpHeader(std::span<const std::byte> in) {
  if (in.size() < kUdpHeaderSize) {
    return std::nullopt;
  }
  ByteReader r(in);
  UdpHeader h;
  h.src_port = r.U16();
  h.dst_port = r.U16();
  h.length = r.U16();
  if (h.length < kUdpHeaderSize || h.length > in.size()) {
    return std::nullopt;
  }
  return h;
}

namespace {

std::uint32_t TcpPseudoHeaderSum(Ipv4Address src, Ipv4Address dst, std::size_t tcp_len) {
  std::uint32_t acc = 0;
  acc += src.addr >> 16;
  acc += src.addr & 0xFFFF;
  acc += dst.addr >> 16;
  acc += dst.addr & 0xFFFF;
  acc += kIpProtoTcp;
  acc += static_cast<std::uint32_t>(tcp_len);
  return acc;
}

}  // namespace

void WriteTcpHeader(std::span<std::byte> out, const TcpHeader& h, Ipv4Address src,
                    Ipv4Address dst, std::span<const std::byte> payload) {
  DEMI_CHECK(out.size() >= kTcpHeaderSize);
  ByteWriter w(out);
  w.U16(h.src_port);
  w.U16(h.dst_port);
  w.U32(h.seq);
  w.U32(h.ack);
  w.U8(5 << 4);  // data offset 5 words, no options
  w.U8(h.flags);
  w.U16(h.window);
  w.U16(0);  // checksum placeholder
  w.U16(0);  // urgent pointer
  std::uint32_t acc = TcpPseudoHeaderSum(src, dst, kTcpHeaderSize + payload.size());
  acc = ChecksumPartial(out.first(kTcpHeaderSize), acc);
  acc = ChecksumPartial(payload, acc);
  const std::uint16_t csum = FoldChecksum(acc);
  out[16] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  out[17] = std::byte{static_cast<std::uint8_t>(csum & 0xFF)};
}

void WriteTcpHeaderSg(std::span<std::byte> out, const TcpHeader& h, Ipv4Address src,
                      Ipv4Address dst, std::span<const Buffer> payload_parts) {
  DEMI_CHECK(out.size() >= kTcpHeaderSize);
  ByteWriter w(out);
  w.U16(h.src_port);
  w.U16(h.dst_port);
  w.U32(h.seq);
  w.U32(h.ack);
  w.U8(5 << 4);  // data offset 5 words, no options
  w.U8(h.flags);
  w.U16(h.window);
  w.U16(0);  // checksum placeholder
  w.U16(0);  // urgent pointer
  std::size_t payload_size = 0;
  for (const Buffer& p : payload_parts) {
    payload_size += p.size();
  }
  ChecksumAccumulator acc(TcpPseudoHeaderSum(src, dst, kTcpHeaderSize + payload_size));
  acc.Add(out.first(kTcpHeaderSize));
  for (const Buffer& p : payload_parts) {
    acc.Add(p.span());
  }
  const std::uint16_t csum = acc.Fold();
  out[16] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  out[17] = std::byte{static_cast<std::uint8_t>(csum & 0xFF)};
}

std::optional<TcpHeader> ParseTcpHeader(std::span<const std::byte> in) {
  if (in.size() < kTcpHeaderSize) {
    return std::nullopt;
  }
  ByteReader r(in);
  TcpHeader h;
  h.src_port = r.U16();
  h.dst_port = r.U16();
  h.seq = r.U32();
  h.ack = r.U32();
  const std::uint8_t offset = r.U8() >> 4;
  if (offset != 5) {
    return std::nullopt;  // options unsupported by this stack
  }
  h.flags = r.U8();
  h.window = r.U16();
  return h;
}

bool VerifyTcpChecksum(std::span<const std::byte> segment, Ipv4Address src,
                       Ipv4Address dst) {
  std::uint32_t acc = TcpPseudoHeaderSum(src, dst, segment.size());
  acc = ChecksumPartial(segment, acc);
  return FoldChecksum(acc) == 0;
}

void WriteArpPacket(std::span<std::byte> out, const ArpPacket& p) {
  DEMI_CHECK(out.size() >= kArpPacketSize);
  ByteWriter w(out);
  w.U16(1);       // HTYPE ethernet
  w.U16(kEtherTypeIpv4);
  w.U8(6);        // HLEN
  w.U8(4);        // PLEN
  w.U16(p.is_request ? 1 : 2);
  for (std::uint8_t b : p.sender_mac.bytes) {
    w.U8(b);
  }
  w.U32(p.sender_ip.addr);
  for (std::uint8_t b : p.target_mac.bytes) {
    w.U8(b);
  }
  w.U32(p.target_ip.addr);
}

std::optional<ArpPacket> ParseArpPacket(std::span<const std::byte> in) {
  if (in.size() < kArpPacketSize) {
    return std::nullopt;
  }
  ByteReader r(in);
  if (r.U16() != 1 || r.U16() != kEtherTypeIpv4 || r.U8() != 6 || r.U8() != 4) {
    return std::nullopt;
  }
  const std::uint16_t oper = r.U16();
  if (oper != 1 && oper != 2) {
    return std::nullopt;
  }
  ArpPacket p;
  p.is_request = oper == 1;
  for (auto& b : p.sender_mac.bytes) {
    b = r.U8();
  }
  p.sender_ip.addr = r.U32();
  for (auto& b : p.target_mac.bytes) {
    b = r.U8();
  }
  p.target_ip.addr = r.U32();
  return p;
}

Buffer BuildIpv4Frame(MacAddress src_mac, MacAddress dst_mac, const Ipv4Header& ip,
                      std::span<const Buffer> l4_parts) {
  std::size_t l4_size = 0;
  for (const Buffer& b : l4_parts) {
    l4_size += b.size();
  }
  Buffer frame = Buffer::Allocate(kEthHeaderSize + kIpv4HeaderSize + l4_size);
  WriteEthHeader(frame.mutable_span(), EthHeader{dst_mac, src_mac, kEtherTypeIpv4});
  Ipv4Header ip_full = ip;
  ip_full.total_length = static_cast<std::uint16_t>(kIpv4HeaderSize + l4_size);
  WriteIpv4Header(frame.mutable_span().subspan(kEthHeaderSize), ip_full);
  std::size_t at = kEthHeaderSize + kIpv4HeaderSize;
  for (const Buffer& b : l4_parts) {
    if (!b.empty()) {
      std::memcpy(frame.mutable_data() + at, b.data(), b.size());
      at += b.size();
    }
  }
  return frame;
}

void WriteEthIpv4Headers(std::span<std::byte> hdr, MacAddress src_mac, MacAddress dst_mac,
                         const Ipv4Header& ip, std::size_t l4_size) {
  DEMI_CHECK(hdr.size() >= kEthHeaderSize + kIpv4HeaderSize);
  WriteEthHeader(hdr, EthHeader{dst_mac, src_mac, kEtherTypeIpv4});
  Ipv4Header ip_full = ip;
  ip_full.total_length = static_cast<std::uint16_t>(kIpv4HeaderSize + l4_size);
  WriteIpv4Header(hdr.subspan(kEthHeaderSize), ip_full);
}

}  // namespace demi
