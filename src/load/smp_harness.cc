#include "src/load/smp_harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"

namespace demi {

namespace {

constexpr std::uint16_t kSmpServerPort = 7777;
// Ephemeral ports per client stack toward ONE server endpoint (all connections
// share the same remote 4-tuple half, so per-4-tuple port reuse cannot help).
constexpr std::size_t kEphemeralPartition = 2048;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

}  // namespace

SmpHarness::SmpHarness(SmpHarnessConfig cfg)
    : cfg_(cfg),
      fabric_(&sim_, FabricConfig{}),
      workload_(cfg.workload),
      rng_(Mix(cfg.seed, 0x50ad)) {
  DEMI_CHECK(cfg_.workers >= 1 && cfg_.connections > 0 && cfg_.client_stacks > 0);
  DEMI_CHECK(cfg_.connections <= cfg_.client_stacks * kEphemeralPartition &&
             "connections exceed client ephemeral-port capacity");

  server_ip_ = Ipv4Address::FromOctets(10, 0, 0, 1);
  TcpConfig tcp = cfg_.tcp;
  tcp.listen_backlog = std::max<std::size_t>(tcp.listen_backlog, 4096);

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves must fit inside the RX ring
  nic_cfg.num_queues = cfg_.workers;
  server_host_ = std::make_unique<HostCpu>(&sim_, "server-nic", /*charges_clock=*/true);
  server_nic_ = std::make_unique<SimNic>(server_host_.get(), &fabric_,
                                         MacAddress::ForHost(1), nic_cfg);

  SmpConfig smp;
  smp.workers = cfg_.workers;
  smp.port = kSmpServerPort;
  smp.ip = server_ip_;
  smp.tcp = tcp;
  smp.seed = Mix(cfg_.seed, 0x5e71);
  smp.request_cpu_ns = cfg_.server_request_cpu_ns;
  smp.steal = cfg_.steal;
  pool_ = std::make_unique<WorkerPool>(&sim_, server_nic_.get(), smp);

  NicConfig client_nic_cfg;
  client_nic_cfg.ring_size = 4096;
  client_hosts_.reserve(cfg_.client_stacks);
  client_nics_.reserve(cfg_.client_stacks);
  client_stacks_.reserve(cfg_.client_stacks);
  for (std::size_t s = 0; s < cfg_.client_stacks; ++s) {
    client_hosts_.push_back(std::make_unique<HostCpu>(
        &sim_, "loadgen" + std::to_string(s), /*charges_clock=*/false));
    client_nics_.push_back(std::make_unique<SimNic>(
        client_hosts_.back().get(), &fabric_,
        MacAddress::ForHost(static_cast<std::uint32_t>(10 + s)), client_nic_cfg));
    NetStackConfig ccfg;
    ccfg.ip = Ipv4Address::FromOctets(10, 0, 1, static_cast<std::uint8_t>(s + 1));
    ccfg.rx_batch = 256;
    ccfg.tcp = tcp;
    ccfg.seed = Mix(cfg_.seed, 0xc11e + s);
    client_stacks_.push_back(std::make_unique<NetStack>(
        client_hosts_.back().get(), client_nics_.back().get(), ccfg));
  }

  conns_.resize(cfg_.connections);
  shard_conns_.assign(static_cast<std::size_t>(cfg_.workers), 0);
}

SmpHarness::~SmpHarness() { StopLoad(); }

std::size_t SmpHarness::shard_connections(int shard) const {
  return shard_conns_.at(static_cast<std::size_t>(shard));
}

// ---------------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------------

void SmpHarness::OpenConnection(std::size_t i) {
  LoadConn& c = conns_[i];
  const std::size_t s = i % cfg_.client_stacks;
  c.stack = static_cast<std::uint16_t>(s);
  auto r = client_stacks_[s]->TcpConnect(Endpoint{server_ip_, kSmpServerPort});
  DEMI_CHECK(r.ok());
  c.tcp = r.value();
  // The flow's worker shard is fixed by its 4-tuple the moment the local port is
  // allocated — compute it the same way the NIC will hash the SYN.
  const std::uint32_t src = client_stacks_[s]->ip().addr;
  const std::uint32_t dst = server_ip_.addr;
  const std::uint16_t sport = c.tcp->local().port;
  const std::array<std::uint8_t, 12> tuple = {
      static_cast<std::uint8_t>(src >> 24), static_cast<std::uint8_t>(src >> 16),
      static_cast<std::uint8_t>(src >> 8),  static_cast<std::uint8_t>(src),
      static_cast<std::uint8_t>(dst >> 24), static_cast<std::uint8_t>(dst >> 16),
      static_cast<std::uint8_t>(dst >> 8),  static_cast<std::uint8_t>(dst),
      static_cast<std::uint8_t>(sport >> 8), static_cast<std::uint8_t>(sport),
      static_cast<std::uint8_t>(kSmpServerPort >> 8),
      static_cast<std::uint8_t>(kSmpServerPort)};
  c.shard = SimNic::RssForTuple(tuple, cfg_.workers);
  ++shard_conns_[static_cast<std::size_t>(c.shard)];
  c.tcp->set_on_ready([this, i](TcpConnection*) { OnClientReady(i); });
}

void SmpHarness::OnClientReady(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr) {
    return;
  }
  if (c.tcp->dead()) {
    if (!c.dead) {
      c.dead = true;
      ++dead_conns_;
      CancelTimer(c.arrival);
      c.pending.clear();
      c.backlog.clear();
      if (c.established) {
        c.established = false;
        --established_;
      }
      c.tcp = nullptr;
    }
    return;
  }
  if (!c.established && c.tcp->established()) {
    c.established = true;
    ++established_;
    if (point_active_ && c.rate_rps > 0) {
      const TimeNs gap = std::max<TimeNs>(
          1, static_cast<TimeNs>(rng_.NextExponential(1e9 / c.rate_rps)));
      ArmArrival(i, sim_.now() + gap);
    }
  }
  if (c.tcp->readable()) {
    DrainClient(i);
  }
  FlushClientBacklog(i);
}

void SmpHarness::DrainClient(std::size_t i) {
  LoadConn& c = conns_[i];
  while (true) {
    Buffer got = c.tcp->Recv(1 << 20);
    if (got.empty()) {
      break;
    }
    c.decoder.Feed(std::move(got));
  }
  while (true) {
    auto decoded = c.decoder.Next();
    if (!decoded.ok() || !decoded->has_value()) {
      break;
    }
    if (c.pending.empty()) {
      continue;  // response raced a pending-clear; drop it
    }
    const TimeNs intended = c.pending.front().intended;
    c.pending.pop_front();
    ++completed_total_;
    if (measuring_) {
      ++completed_window_;
      sim_.metrics().RecordNamed(hist_,
                                 static_cast<std::uint64_t>(sim_.now() - intended));
    }
  }
}

void SmpHarness::FlushClientBacklog(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || c.tcp->dead()) {
    return;
  }
  while (!c.backlog.empty()) {
    if (!c.tcp->Send(c.backlog.front()).ok()) {
      break;
    }
    c.backlog.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Request generation
// ---------------------------------------------------------------------------

void SmpHarness::IssueRequest(std::size_t i, TimeNs intended) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || !c.established || c.tcp->dead()) {
    return;
  }
  ++issued_total_;
  if (measuring_) {
    ++issued_window_;
  }
  WorkloadModel::Request req = workload_.Sample(rng_);
  c.pending.push_back(Pending{intended, req.response_bytes});
  // One framed element per request; the frame parts ride the stream in order, so
  // any part the send buffer rejects parks the rest in the backlog behind it.
  std::vector<Buffer> parts = EncodeFrame(SgArray(std::move(req.payload)));
  std::size_t sent = 0;
  if (c.backlog.empty()) {
    while (sent < parts.size() && c.tcp->Send(parts[sent]).ok()) {
      ++sent;
    }
  }
  for (; sent < parts.size(); ++sent) {
    c.backlog.push_back(std::move(parts[sent]));
  }
}

void SmpHarness::ArmArrival(std::size_t i, TimeNs due) {
  // Absolute-time self-rescheduling: the next arrival is drawn from the previous
  // SCHEDULED arrival, never the (possibly late) fire time — open-loop discipline.
  conns_[i].arrival = sim_.ScheduleAt(due, [this, i, due] {
    LoadConn& c = conns_[i];
    c.arrival = kInvalidTimer;
    IssueRequest(i, due);
    if (point_active_ && c.rate_rps > 0) {
      const TimeNs gap = std::max<TimeNs>(
          1, static_cast<TimeNs>(rng_.NextExponential(1e9 / c.rate_rps)));
      ArmArrival(i, due + gap);
    }
  });
}

void SmpHarness::AssignRates(double offered_rps) {
  // Shard-skew weighting: weight 1/(shard+1)^skew per connection, normalized so
  // the aggregate stays `offered_rps`.
  double total_weight = 0;
  for (const LoadConn& c : conns_) {
    total_weight += std::pow(1.0 / static_cast<double>(c.shard + 1), cfg_.shard_skew);
  }
  DEMI_CHECK(total_weight > 0);
  for (LoadConn& c : conns_) {
    const double w = std::pow(1.0 / static_cast<double>(c.shard + 1), cfg_.shard_skew);
    c.rate_rps = offered_rps * w / total_weight;
  }
}

void SmpHarness::CancelTimer(TimerId& id) {
  if (id != kInvalidTimer) {
    sim_.Cancel(id);
    id = kInvalidTimer;
  }
}

// ---------------------------------------------------------------------------
// Drive
// ---------------------------------------------------------------------------

bool SmpHarness::Ramp(TimeNs deadline) {
  const TimeNs t_end = sim_.now() + deadline;
  std::size_t created = 0;
  while (created < cfg_.connections) {
    const std::size_t batch = std::min(cfg_.ramp_batch, cfg_.connections - created);
    for (std::size_t k = 0; k < batch; ++k) {
      OpenConnection(created + k);
    }
    created += batch;
    if (!sim_.RunUntil([&] { return established_ + dead_conns_ >= created; },
                       t_end)) {
      return false;
    }
  }
  // Client-side established; every worker shard must have accepted its flows too.
  return sim_.RunUntil(
      [&] { return pool_->total_accepted() + dead_conns_ >= established_; }, t_end);
}

SweepPoint SmpHarness::RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                                const std::string& label) {
  StopLoad();
  AssignRates(offered_rps);
  point_active_ = true;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    LoadConn& c = conns_[i];
    if (c.tcp != nullptr && c.established && c.rate_rps > 0) {
      const TimeNs gap = std::max<TimeNs>(
          1, static_cast<TimeNs>(rng_.NextExponential(1e9 / c.rate_rps)));
      ArmArrival(i, sim_.now() + gap);
    }
  }
  sim_.RunFor(warmup);

  char name[96];
  std::snprintf(name, sizeof(name), "smp/%s/%.0frps/latency_ns", label.c_str(),
                offered_rps);
  hist_ = sim_.metrics().NamedHistogram(name);
  const Histogram baseline = *hist_;
  measuring_ = true;
  issued_window_ = 0;
  completed_window_ = 0;
  const TimeNs t0 = sim_.now();
  sim_.RunFor(measure);
  measuring_ = false;
  const TimeNs elapsed = sim_.now() - t0;

  const Histogram window = hist_->DiffSince(baseline);
  SweepPoint pt;
  pt.offered_rps = offered_rps;
  pt.issued = issued_window_;
  pt.completed = completed_window_;
  pt.achieved_rps =
      elapsed > 0 ? 1e9 * static_cast<double>(completed_window_) / elapsed : 0.0;
  pt.latency = SummarizeHistogram(window);
  pt.histogram_name = name;
  return pt;
}

void SmpHarness::StopLoad() {
  point_active_ = false;
  measuring_ = false;
  for (LoadConn& c : conns_) {
    CancelTimer(c.arrival);
  }
}

}  // namespace demi
