// Wire formats: IPv4 addresses, IPv4/UDP/TCP/ARP headers (real layouts, real
// checksums). Shared by the user-level stack (src/net) and the legacy kernel stack
// (src/kernel), which differ in *where* and *at what cost* they run this code, not in
// the protocol itself.

#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/buffer.h"
#include "src/common/byte_order.h"
#include "src/common/checksum.h"
#include "src/hw/mac.h"

namespace demi {

struct Ipv4Address {
  std::uint32_t addr = 0;  // host byte order

  static Ipv4Address FromOctets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                                std::uint8_t d) {
    return Ipv4Address{static_cast<std::uint32_t>(a) << 24 | static_cast<std::uint32_t>(b) << 16 |
                       static_cast<std::uint32_t>(c) << 8 | d};
  }
  // "10.0.0.1"-style parsing; returns 0.0.0.0 on malformed input.
  static Ipv4Address Parse(const std::string& dotted);

  std::string ToString() const;
  friend bool operator==(const Ipv4Address& x, const Ipv4Address& y) = default;
};

struct Ipv4Hash {
  std::size_t operator()(const Ipv4Address& a) const {
    return std::hash<std::uint32_t>()(a.addr);
  }
};

// A (ip, port) endpoint.
struct Endpoint {
  Ipv4Address ip;
  std::uint16_t port = 0;
  std::string ToString() const { return ip.ToString() + ":" + std::to_string(port); }
  friend bool operator==(const Endpoint& x, const Endpoint& y) = default;
};

struct EndpointHash {
  std::size_t operator()(const Endpoint& e) const {
    return std::hash<std::uint64_t>()(static_cast<std::uint64_t>(e.ip.addr) << 16 | e.port);
  }
};

constexpr std::uint8_t kIpProtoTcp = 6;
constexpr std::uint8_t kIpProtoUdp = 17;

constexpr std::size_t kIpv4HeaderSize = 20;  // no options
constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::size_t kTcpHeaderSize = 20;   // no options (MSS is configured, not negotiated)
constexpr std::size_t kArpPacketSize = 28;

struct Ipv4Header {
  std::uint8_t protocol = 0;
  std::uint8_t ttl = 64;
  std::uint16_t total_length = 0;  // header + payload
  Ipv4Address src;
  Ipv4Address dst;
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload
};

// TCP flag bits.
constexpr std::uint8_t kTcpFin = 0x01;
constexpr std::uint8_t kTcpSyn = 0x02;
constexpr std::uint8_t kTcpRst = 0x04;
constexpr std::uint8_t kTcpPsh = 0x08;
constexpr std::uint8_t kTcpAck = 0x10;

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
};

struct ArpPacket {
  bool is_request = true;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;
};

// --- serialization (all return/accept exact-size spans) ---

void WriteIpv4Header(std::span<std::byte> out, const Ipv4Header& h);
std::optional<Ipv4Header> ParseIpv4Header(std::span<const std::byte> in);

void WriteUdpHeader(std::span<std::byte> out, const UdpHeader& h);
std::optional<UdpHeader> ParseUdpHeader(std::span<const std::byte> in);

// TCP checksum needs the pseudo-header; Write computes it over header+payload.
void WriteTcpHeader(std::span<std::byte> out, const TcpHeader& h, Ipv4Address src,
                    Ipv4Address dst, std::span<const std::byte> payload);
// Scatter-gather form: the payload stays a Buffer chain; the checksum streams across
// part boundaries (odd-length middle parts included) without flattening.
void WriteTcpHeaderSg(std::span<std::byte> out, const TcpHeader& h, Ipv4Address src,
                      Ipv4Address dst, std::span<const Buffer> payload_parts);
std::optional<TcpHeader> ParseTcpHeader(std::span<const std::byte> in);
// Verifies the TCP checksum of `segment` (header+payload) for the given address pair.
bool VerifyTcpChecksum(std::span<const std::byte> segment, Ipv4Address src, Ipv4Address dst);

void WriteArpPacket(std::span<std::byte> out, const ArpPacket& p);
std::optional<ArpPacket> ParseArpPacket(std::span<const std::byte> in);

// Builds a complete Ethernet+IPv4 frame around `l4` (the L4 header+payload bytes).
// Frame assembly models NIC scatter-gather DMA, so no host copy cost is charged here;
// callers charge their own per-segment protocol-processing cost.
Buffer BuildIpv4Frame(MacAddress src_mac, MacAddress dst_mac, const Ipv4Header& ip,
                      std::span<const Buffer> l4_parts);

// Writes the Ethernet and IPv4 headers for a frame carrying `l4_size` bytes of L4
// content into `hdr` (which must hold kEthHeaderSize + kIpv4HeaderSize bytes). The
// zero-copy TX path writes headers into a pooled buffer and chains the payload
// behind them instead of flattening the frame (BuildIpv4Frame's copying shape).
void WriteEthIpv4Headers(std::span<std::byte> hdr, MacAddress src_mac, MacAddress dst_mac,
                         const Ipv4Header& ip, std::size_t l4_size);

}  // namespace demi

#endif  // SRC_NET_PACKET_H_
