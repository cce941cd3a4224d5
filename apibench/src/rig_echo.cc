// echo-skew-4w: a WorkerPool of 4 Catnip workers on 4 simulated cores, RSS
// sharding with completion stealing on (the shipped default).
//
// ~4k connections from a few client hosts send 64 B requests whose first 4
// bytes name the response length, drawn from the size classes up to 4 KB. Each
// connection's share of the load is weighted 1/(shard+1)^skew by the worker
// shard its 4-tuple hashes to, so one shard is hot while the aggregate rate
// stays fixed. The pool answers with that many zero bytes; every answer's
// length and bytes are compared.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apibench/src/clients.h"
#include "apibench/src/driver.h"
#include "apibench/src/trace.h"
#include "src/core/harness.h"
#include "src/core/smp.h"

namespace apibench {
namespace {

constexpr std::uint16_t kEchoPort = 7777;
constexpr std::uint32_t kSizeClasses[] = {64, 96, 128, 192, 256, 512, 1024, 4096};
constexpr std::size_t kRequestBytes = 64;
constexpr int kWorkers = 4;
constexpr int kClientHosts = 8;
constexpr std::size_t kConnections = 4096;
constexpr double kShardSkew = 1.5;
// Connections opened per ramp wave: one wave's SYNs fit the NICs' receive rings.
constexpr std::size_t kRampWave = 256;
// Client libOSes without a kernel take NIC queue 0, whose ephemeral ports are
// allocated sequentially from 49152 (src/net/stack.cc).
constexpr std::uint16_t kFirstEphemeralPort = 49152;

int ShardOf(demi::Ipv4Address src, std::uint16_t sport, demi::Ipv4Address dst, int workers) {
  const std::uint32_t s = src.addr;
  const std::uint32_t d = dst.addr;
  const std::array<std::uint8_t, 12> tuple = {
      static_cast<std::uint8_t>(s >> 24), static_cast<std::uint8_t>(s >> 16),
      static_cast<std::uint8_t>(s >> 8),  static_cast<std::uint8_t>(s),
      static_cast<std::uint8_t>(d >> 24), static_cast<std::uint8_t>(d >> 16),
      static_cast<std::uint8_t>(d >> 8),  static_cast<std::uint8_t>(d),
      static_cast<std::uint8_t>(sport >> 8), static_cast<std::uint8_t>(sport),
      static_cast<std::uint8_t>(kEchoPort >> 8), static_cast<std::uint8_t>(kEchoPort)};
  return demi::SimNic::RssForTuple(tuple, workers);
}

class EchoRig final : public Rig {
 public:
  explicit EchoRig(std::uint64_t seed)
      : seed_(seed), rng_(seed * 0x9E3779B97F4A7C15ULL + 0xec40) {}

  void Setup() override {
    demi::FabricConfig fabric;
    fabric.seed = seed_;
    env_ = std::make_unique<demi::TestHarness>(demi::CostModel{}, fabric);
    demi::HostOptions sopts;
    sopts.with_kernel = false;
    sopts.nic_queues = kWorkers;
    server_ = &env_->AddHost("server", "10.0.0.1", sopts);
    demi::SmpConfig smp;
    smp.workers = kWorkers;
    smp.port = kEchoPort;
    smp.ip = server_->ip;
    smp.tcp.listen_backlog = std::max<std::size_t>(smp.tcp.listen_backlog, 4096);
    smp.seed = seed_ ^ 0x5e71;
    pool_ = std::make_unique<demi::WorkerPool>(&env_->sim(), server_->nic.get(), smp);

    clients_ = std::make_unique<Clients>(
        env_->sim(), [](const Clients::Pending& p, const demi::SgArray& answer,
                        std::string* why) { return Check(p, answer, why); });
    std::vector<demi::CatnipLibOS*> libs;
    std::vector<demi::Ipv4Address> ips;
    for (int h = 0; h < kClientHosts; ++h) {
      demi::HostOptions copts;
      copts.with_kernel = false;
      copts.charges_clock = false;
      auto& host = env_->AddHost("client" + std::to_string(h),
                                 "10.0.1." + std::to_string(h + 1), copts);
      demi::CatnipLibOS& lib = env_->Catnip(host);
      lib.EnableSparsePolling();
      libs.push_back(&lib);
      ips.push_back(host.ip);
    }
    std::vector<std::size_t> per_shard(static_cast<std::size_t>(kWorkers), 0);
    std::vector<std::size_t> per_host(libs.size(), 0);
    std::vector<double> weights;
    for (std::size_t i = 0; i < kConnections; ++i) {
      const std::size_t h = i % libs.size();
      const auto port = static_cast<std::uint16_t>(kFirstEphemeralPort + per_host[h]++);
      const int shard = ShardOf(ips[h], port, server_->ip, kWorkers);
      ++per_shard[static_cast<std::size_t>(shard)];
      weights.push_back(1.0 / std::pow(static_cast<double>(shard + 1), kShardSkew));
      clients_->Connect(*libs[h], demi::Endpoint{server_->ip, kEchoPort});
      if ((i + 1) % kRampWave == 0 || i + 1 == kConnections) {
        const std::size_t target = i + 1;
        DEMI_CHECK(env_->RunUntil(
            [&] { return clients_->settled() == target && pool_->total_accepted() == target; },
            env_->sim().now() + 10 * demi::kSecond));
      }
    }
    DEMI_CHECK(clients_->connected() == kConnections);
    // The predicted shard of every connection must match where the pool put it.
    for (int w = 0; w < kWorkers; ++w) {
      DEMI_CHECK(pool_->worker(w).accepted() == per_shard[static_cast<std::size_t>(w)]);
    }
    double acc = 0;
    for (const double w : weights) {
      acc += w;
      cumulative_.push_back(acc);
    }
  }

  demi::Simulation& sim() override { return env_->sim(); }

  std::vector<Stream> Streams(Driver* driver) override {
    driver_ = driver;
    clients_->set_driver(driver);
    served0_.clear();
    for (int w = 0; w < kWorkers; ++w) {
      served0_.push_back(pool_->worker(w).requests_served());
    }
    return {Stream{1.0, [this] { Issue(); }}};
  }

  LayerSample Sample() override {
    std::vector<demi::HostCpu*> cpus = {server_->cpu.get()};
    for (int w = 0; w < kWorkers; ++w) {
      cpus.push_back(&pool_->worker(w).cpu());
    }
    return SampleCpus(env_->sim(), cpus);
  }

  void Finish(WindowResult& r, bool full_checks) override {
    double max_served = 0;
    double sum_served = 0;
    for (int w = 0; w < kWorkers; ++w) {
      const double served =
          static_cast<double>(pool_->worker(w).requests_served() - served0_[static_cast<std::size_t>(w)]);
      max_served = std::max(max_served, served);
      sum_served += served;
    }
    r.extra["core.smp.worker_served_max_over_mean"] =
        sum_served > 0 ? max_served / (sum_served / kWorkers) : 0.0;

    clients_->CloseAll();
    const std::size_t armed_accepts = static_cast<std::size_t>(kWorkers);
    env_->RunUntil([&] { return pool_->total_pending_ops() <= armed_accepts; },
                   env_->sim().now() + demi::kSecond);
    std::vector<demi::LibOS*> libs = clients_->liboses();
    CheckDrained(libs, 0, r);
    const double client_pending = r.extra["core.pending_ops_end"];
    // Every worker keeps exactly one accept armed on its listening queue.
    std::vector<demi::LibOS*> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.push_back(&pool_->worker(w).libos());
    }
    CheckDrained(workers, 1, r);
    r.extra["core.pending_ops_end"] += client_pending;
    CheckClientHealth(*clients_, r);
    CheckCapabilities(env_->sim(), r);
  }

 private:
  static bool Check(const Clients::Pending& p, const demi::SgArray& answer, std::string* why) {
    if (answer.total_bytes() != p.a) {
      *why = "echo answered " + std::to_string(answer.total_bytes()) + " bytes, want " +
             std::to_string(p.a);
      return false;
    }
    for (const demi::Buffer& seg : answer) {
      for (const std::byte b : seg.span()) {
        if (b != std::byte{0}) {
          *why = "echo answer bytes differ from the response pattern";
          return false;
        }
      }
    }
    return true;
  }

  void Issue() {
    const double u = rng_.NextDouble() * cumulative_.back();
    const std::size_t conn = std::min<std::size_t>(
        cumulative_.size() - 1,
        static_cast<std::size_t>(std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
                                 cumulative_.begin()));
    const std::uint32_t resp = kSizeClasses[rng_.NextBelow(std::size(kSizeClasses))];
    demi::LibOS& lib = clients_->libos(conn);
    demi::SgArray sga;
    {
      Span span("memory.client_sgaalloc");
      sga = lib.SgaAlloc(kRequestBytes);
    }
    std::byte* out = sga.segment(0).mutable_data();
    std::memset(out, 0xab, kRequestBytes);
    for (int i = 0; i < 4; ++i) {
      out[i] = static_cast<std::byte>((resp >> (8 * i)) & 0xff);
    }
    clients_->Send(driver_, conn, sga, kRead, resp, 0);
  }

  std::uint64_t seed_;
  demi::Rng rng_;
  std::vector<double> cumulative_;  // connection weights, running sum
  std::vector<std::uint64_t> served0_;
  Driver* driver_ = nullptr;
  std::unique_ptr<demi::TestHarness> env_;
  demi::TestHarness::Host* server_ = nullptr;
  std::unique_ptr<demi::WorkerPool> pool_;
  std::unique_ptr<Clients> clients_;
};

}  // namespace

std::unique_ptr<Rig> MakeEchoRig(std::uint64_t seed) {
  return std::make_unique<EchoRig>(seed);
}

}  // namespace apibench
