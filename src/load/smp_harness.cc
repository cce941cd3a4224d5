#include "src/load/smp_harness.h"

#include <array>
#include <cmath>

#include "src/common/logging.h"

namespace demi {

namespace {

const Ipv4Address kServerIp = Ipv4Address::FromOctets(10, 0, 0, 1);
constexpr std::uint16_t kSmpServerPort = 7777;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

LoadDriverConfig FleetConfig(const SmpHarnessConfig& cfg) {
  LoadDriverConfig fleet;
  fleet.connections = cfg.connections;
  fleet.client_stacks = cfg.client_stacks;
  fleet.workload = cfg.workload;
  fleet.tcp = cfg.tcp;
  fleet.ramp_batch = cfg.ramp_batch;
  fleet.seed = cfg.seed;
  return fleet;
}

}  // namespace

SmpHarness::SmpHarness(SmpHarnessConfig cfg)
    : LoadDriver(FleetConfig(cfg), WireCodec::kFramed, "smp",
                 Endpoint{kServerIp, kSmpServerPort}, /*endpoints=*/1,
                 Mix(cfg.seed, 0x50ad)),
      cfg_(cfg) {
  DEMI_CHECK(cfg_.workers >= 1);

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves must fit inside the RX ring
  nic_cfg.num_queues = cfg_.workers;
  server_host_ = std::make_unique<HostCpu>(&sim(), "server-nic", /*charges_clock=*/true);
  server_nic_ = std::make_unique<SimNic>(server_host_.get(), &fabric(),
                                         MacAddress::ForHost(1), nic_cfg);

  SmpConfig smp;
  smp.workers = cfg_.workers;
  smp.port = kSmpServerPort;
  smp.ip = kServerIp;
  smp.tcp = tcp_config();
  smp.seed = Mix(cfg_.seed, 0x5e71);
  smp.request_cpu_ns = cfg_.server_request_cpu_ns;
  smp.steal = cfg_.steal;
  pool_ = std::make_unique<WorkerPool>(&sim(), server_nic_.get(), smp);

  BuildClients(&Mix);

  weights_.assign(cfg_.connections, 1.0);
  shard_conns_.assign(static_cast<std::size_t>(cfg_.workers), 0);
}

std::size_t SmpHarness::shard_connections(int shard) const {
  return shard_conns_.at(static_cast<std::size_t>(shard));
}

void SmpHarness::OnConnectionOpened(std::size_t i, const TcpConnection& tcp) {
  // The flow's worker shard is fixed by its 4-tuple the moment the local port is
  // allocated — compute it the same way the NIC will hash the SYN.
  const std::uint32_t src = tcp.local().ip.addr;
  const std::uint32_t dst = tcp.remote().ip.addr;
  const std::uint16_t sport = tcp.local().port;
  const std::uint16_t dport = tcp.remote().port;
  const std::array<std::uint8_t, 12> tuple = {
      static_cast<std::uint8_t>(src >> 24), static_cast<std::uint8_t>(src >> 16),
      static_cast<std::uint8_t>(src >> 8),  static_cast<std::uint8_t>(src),
      static_cast<std::uint8_t>(dst >> 24), static_cast<std::uint8_t>(dst >> 16),
      static_cast<std::uint8_t>(dst >> 8),  static_cast<std::uint8_t>(dst),
      static_cast<std::uint8_t>(sport >> 8), static_cast<std::uint8_t>(sport),
      static_cast<std::uint8_t>(dport >> 8), static_cast<std::uint8_t>(dport)};
  const int shard = SimNic::RssForTuple(tuple, cfg_.workers);
  ++shard_conns_[static_cast<std::size_t>(shard)];
  weights_[i] = std::pow(1.0 / static_cast<double>(shard + 1), cfg_.shard_skew);
}

double SmpHarness::ArrivalWeight(std::size_t i) const { return weights_[i]; }

}  // namespace demi
