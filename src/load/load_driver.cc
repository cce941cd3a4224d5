#include "src/load/load_driver.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"

namespace demi {

Status LoadDriver::ValidateFleet(const LoadDriverConfig& cfg, std::size_t endpoints) {
  if (cfg.connections == 0) {
    return InvalidArgument("load config: connections must be > 0");
  }
  if (cfg.client_stacks == 0 || endpoints == 0) {
    return InvalidArgument("load config: client stacks and server ports must be > 0");
  }
  // Each (client stack, server port) pair supports one ephemeral partition of
  // connections thanks to per-4-tuple port reuse.
  const std::size_t capacity = cfg.client_stacks * endpoints * kEphemeralPartition;
  if (cfg.connections > capacity) {
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "load config: %zu connections exceed 4-tuple capacity %zu "
                  "(%zu client stacks x %zu server ports x %zu ephemeral ports)",
                  cfg.connections, capacity, cfg.client_stacks, endpoints,
                  kEphemeralPartition);
    return InvalidArgument(msg);
  }
  return OkStatus();
}

LoadDriver::LoadDriver(const LoadDriverConfig& cfg, WireCodec codec,
                       const char* histogram_prefix, Endpoint server,
                       std::size_t endpoints, std::uint64_t rng_seed)
    : cfg_(cfg),
      codec_(codec),
      histogram_prefix_(histogram_prefix),
      server_(server),
      endpoints_(endpoints),
      tcp_(cfg.tcp),
      fabric_(&sim_, cfg.fabric),
      workload_(cfg.workload),
      arrival_(cfg.arrival),
      rng_(rng_seed) {
  if (const Status valid = ValidateFleet(cfg_, endpoints_); !valid.ok()) {
    PanicImpl(__FILE__, __LINE__, valid.message());
  }
  tcp_.listen_backlog = std::max<std::size_t>(tcp_.listen_backlog, 4096);
  conns_.resize(cfg_.connections);
  if (codec_ == WireCodec::kFramed) {
    decoders_.resize(cfg_.connections);
  }
}

LoadDriver::~LoadDriver() { StopLoad(); }

void LoadDriver::BuildClients(std::uint64_t (*mix)(std::uint64_t seed,
                                                   std::uint64_t salt)) {
  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves and incast bursts exceed the 256 default
  client_hosts_.reserve(cfg_.client_stacks);
  client_nics_.reserve(cfg_.client_stacks);
  client_stacks_.reserve(cfg_.client_stacks);
  for (std::size_t s = 0; s < cfg_.client_stacks; ++s) {
    client_hosts_.push_back(std::make_unique<HostCpu>(
        &sim_, "loadgen" + std::to_string(s), /*charges_clock=*/false));
    client_nics_.push_back(std::make_unique<SimNic>(
        client_hosts_.back().get(), &fabric_,
        MacAddress::ForHost(static_cast<std::uint32_t>(10 + s)), nic_cfg));
    NetStackConfig ccfg;
    ccfg.ip = Ipv4Address::FromOctets(10, 0, 1, static_cast<std::uint8_t>(s + 1));
    ccfg.rx_batch = 256;
    ccfg.tcp = tcp_;
    ccfg.seed = mix(cfg_.seed, 0xc11e + s);
    client_stacks_.push_back(std::make_unique<NetStack>(
        client_hosts_.back().get(), client_nics_.back().get(), ccfg));
  }
}

// ---------------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------------

void LoadDriver::OpenConnection(std::size_t i) {
  LoadConn& c = conns_[i];
  c = LoadConn{};
  if (codec_ == WireCodec::kFramed) {
    decoders_[i] = FrameDecoder{};
  }
  const std::size_t s = i % cfg_.client_stacks;
  const Endpoint server{
      server_.ip,
      static_cast<std::uint16_t>(server_.port + (i / cfg_.client_stacks) % endpoints_)};
  // Deterministic slow-client assignment: the same connection indices are slow in
  // every run with the same config.
  c.slow = cfg_.slow_client_fraction > 0 &&
           static_cast<double>(i % 1024) < cfg_.slow_client_fraction * 1024.0;
  auto r = client_stacks_[s]->TcpConnect(server);
  DEMI_CHECK(r.ok());
  c.tcp = r.value();
  OnConnectionOpened(i, *c.tcp);
  c.tcp->set_on_ready([this, i](TcpConnection*) { OnClientReady(i); });
}

void LoadDriver::OnClientReady(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr) {
    return;
  }
  if (c.tcp->dead()) {
    OnClientDead(i);
    return;
  }
  if (!c.established && c.tcp->established()) {
    c.established = true;
    ++established_;
    if (point_active_) {
      ScheduleArrival(i);
    }
  }
  if (c.tcp->readable()) {
    if (c.slow) {
      // Slow client: sit on delivered data for a while, keeping the receive
      // window pinched and backpressuring the server's send side.
      if (!c.drain_scheduled) {
        c.drain_scheduled = true;
        sim_.Schedule(cfg_.slow_drain_delay_ns, [this, i] {
          conns_[i].drain_scheduled = false;
          DrainClient(i);
        });
      }
    } else {
      DrainClient(i);
    }
  }
  FlushClientBacklog(i);
}

void LoadDriver::OnClientDead(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.dead || c.tcp == nullptr) {
    return;
  }
  c.dead = true;
  // The driver holds the connection from connect to death (DESIGN.md §8).
  client_stacks_[i % cfg_.client_stacks]->Release(c.tcp);
  c.tcp = nullptr;
  CancelTimer(c.arrival);
  lost_in_flight_ += c.pending.size();
  c.pending.clear();
  c.backlog.clear();
  if (c.established) {
    c.established = false;
    --established_;
  }
  if (c.closing) {
    ++churn_cycles_;
    // Reconnect from a clean top-level context: the death callback runs inside
    // segment/timer processing where TcpConnect must not reenter the stack.
    sim_.Schedule(0, [this, i] { OpenConnection(i); });
  } else {
    ++dead_unexpected_;
  }
}

void LoadDriver::DrainClient(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || c.tcp->dead()) {
    return;
  }
  while (true) {
    Buffer got = c.tcp->Recv(1 << 20);
    if (got.empty()) {
      break;
    }
    if (codec_ == WireCodec::kFramed) {
      decoders_[i].Feed(std::move(got));
      continue;
    }
    std::size_t n = got.size();
    while (n > 0 && !c.pending.empty()) {
      Pending& p = c.pending.front();
      const std::uint32_t take =
          static_cast<std::uint32_t>(std::min<std::size_t>(n, p.resp_remaining));
      p.resp_remaining -= take;
      n -= take;
      if (p.resp_remaining == 0) {
        const TimeNs intended = p.intended;
        c.pending.pop_front();
        CompleteRequest(intended);
      }
    }
    // Bytes with no matching pending request (e.g. a response racing a churn
    // close's pending-clear) are counted, not silently dropped.
    stray_bytes_ += n;
  }
  if (codec_ == WireCodec::kFramed) {
    // One decoded element is one whole response.
    while (true) {
      auto decoded = decoders_[i].Next();
      if (!decoded.ok() || !decoded->has_value()) {
        break;
      }
      if (c.pending.empty()) {
        stray_bytes_ += (*decoded)->total_bytes();
        continue;
      }
      const TimeNs intended = c.pending.front().intended;
      c.pending.pop_front();
      CompleteRequest(intended);
    }
  }
}

void LoadDriver::FlushClientBacklog(std::size_t i) {
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

void LoadDriver::CompleteRequest(TimeNs intended) {
  const TimeNs now = sim_.now();
  ++completed_total_;
  if (measuring_) {
    ++completed_window_;
    sim_.metrics().RecordNamed(hist_, static_cast<std::uint64_t>(now - intended));
  }
  if (probe_) {
    probe_(intended, now);
  }
}

// ---------------------------------------------------------------------------
// Request generation
// ---------------------------------------------------------------------------

void LoadDriver::IssueRequest(std::size_t i, TimeNs intended) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || !c.established || c.closing || c.tcp->dead()) {
    return;
  }
  ++issued_total_;
  if (measuring_) {
    ++issued_window_;
  }
  WorkloadModel::Request req = workload_.Sample(rng_);
  // The intended send time is the *scheduled* arrival instant — not now() (the
  // timer may have fired late when server work dragged the shared clock forward)
  // and not the instant bytes reached the socket (the request may sit in the
  // backlog below). Measuring from anything later than the schedule is
  // coordinated omission. That is the whole point of open loop.
  c.pending.push_back(Pending{intended, req.response_bytes});
  std::vector<Buffer> parts;
  if (codec_ == WireCodec::kFramed) {
    parts = EncodeFrame(SgArray(std::move(req.payload)));
  } else {
    parts.push_back(std::move(req.payload));
  }
  // The parts ride the stream in order, so any part the send buffer rejects parks
  // the rest in the backlog behind it.
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

TimeNs LoadDriver::NextGap(std::size_t i) {
  return arrival_.NextGapNs(rng_, ArrivalWeight(i), total_weight_);
}

void LoadDriver::ScheduleArrival(std::size_t i) {
  LoadConn& c = conns_[i];
  CancelTimer(c.arrival);
  const TimeNs gap = NextGap(i);
  if (gap == ArrivalProcess::kNever) {
    return;
  }
  ArmArrival(i, sim_.now() + gap);
}

void LoadDriver::ArmArrival(std::size_t i, TimeNs due) {
  // Self-rescheduling at absolute times: the next arrival is drawn from the
  // PREVIOUS SCHEDULED arrival, never from the (possibly late) fire time.
  // Rescheduling from fire times would silently clamp the offered rate to
  // whatever the system under test can absorb — closing the loop.
  conns_[i].arrival = sim_.ScheduleAt(due, [this, i, due] {
    conns_[i].arrival = kInvalidTimer;
    IssueRequest(i, due);
    const TimeNs gap = NextGap(i);
    if (gap != ArrivalProcess::kNever) {
      ArmArrival(i, due + gap);
    }
  });
}

void LoadDriver::RedrawAllArrivals() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    LoadConn& c = conns_[i];
    if (c.tcp != nullptr && c.established && !c.closing) {
      ScheduleArrival(i);
    }
  }
}

// ---------------------------------------------------------------------------
// Stressor clocks
// ---------------------------------------------------------------------------

void LoadDriver::ScheduleChurn() {
  if (cfg_.churn_per_sec <= 0) {
    return;
  }
  const TimeNs gap = std::max<TimeNs>(
      1, static_cast<TimeNs>(rng_.NextExponential(1e9 / cfg_.churn_per_sec)));
  churn_timer_ = sim_.Schedule(gap, [this] {
    churn_timer_ = kInvalidTimer;
    ChurnTick();
    ScheduleChurn();
  });
}

void LoadDriver::ChurnTick() {
  // Pick a random established victim; a bounded number of probes keeps the tick
  // O(1) even when most of the fleet is mid-reconnect.
  for (int tries = 0; tries < 16; ++tries) {
    const std::size_t i = static_cast<std::size_t>(rng_.NextBelow(conns_.size()));
    LoadConn& c = conns_[i];
    if (c.tcp != nullptr && c.established && !c.closing && !c.dead) {
      c.closing = true;
      ++churn_initiated_;
      CancelTimer(c.arrival);
      c.tcp->Close();
      return;
    }
  }
}

void LoadDriver::ScheduleIncast() {
  if (cfg_.incast_fanin == 0) {
    return;
  }
  ArmIncast(sim_.now() + cfg_.incast_period_ns);
}

void LoadDriver::ArmIncast(TimeNs due) {
  // Absolute-time self-rescheduling, same open-loop discipline as ArmArrival.
  incast_timer_ = sim_.ScheduleAt(due, [this, due] {
    incast_timer_ = kInvalidTimer;
    // A rotating window of connections all fire at the same instant.
    for (std::size_t k = 0; k < cfg_.incast_fanin; ++k) {
      IssueRequest(incast_cursor_, due);
      incast_cursor_ = (incast_cursor_ + 1) % conns_.size();
    }
    ArmIncast(due + cfg_.incast_period_ns);
  });
}

void LoadDriver::SchedulePhaseFlip() {
  if (!arrival_.bursty()) {
    return;
  }
  phase_timer_ = sim_.Schedule(arrival_.NextDwellNs(rng_), [this] {
    phase_timer_ = kInvalidTimer;
    arrival_.FlipPhase();
    ++phase_flips_;
    // Every connection's next gap must come from the new phase rate: cancel and
    // redraw the whole fleet's arrival timers (a deliberate scheduler storm).
    RedrawAllArrivals();
    SchedulePhaseFlip();
  });
}

void LoadDriver::CancelTimer(TimerId& id) {
  if (id != kInvalidTimer) {
    sim_.Cancel(id);
    id = kInvalidTimer;
  }
}

// ---------------------------------------------------------------------------
// Drive
// ---------------------------------------------------------------------------

bool LoadDriver::Ramp(TimeNs deadline) {
  const TimeNs t_end = sim_.now() + deadline;
  std::size_t created = 0;
  while (created < cfg_.connections) {
    const std::size_t batch = std::min(cfg_.ramp_batch, cfg_.connections - created);
    for (std::size_t k = 0; k < batch; ++k) {
      OpenConnection(created + k);
    }
    created += batch;
    // Wait for the wave to establish before launching the next one so SYN floods
    // stay inside the listen backlog and the NIC rings.
    if (!sim_.RunUntil(
            [&] { return established_ + dead_unexpected_ >= created; }, t_end)) {
      return false;
    }
  }
  // All client-side established; make sure the server accepted every one too.
  return sim_.RunUntil([&] { return accepted_connections() >= established_; }, t_end);
}

SweepPoint LoadDriver::RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                                const std::string& label) {
  StopLoad();
  arrival_.SetRate(offered_rps);
  total_weight_ = 0;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    total_weight_ += ArrivalWeight(i);
  }
  DEMI_CHECK(total_weight_ > 0);
  point_active_ = true;
  RedrawAllArrivals();
  ScheduleChurn();
  ScheduleIncast();
  SchedulePhaseFlip();
  sim_.RunFor(warmup);

  const std::string scope = label.empty() ? histogram_prefix_
                                          : histogram_prefix_ + "/" + label;
  char name[128];
  std::snprintf(name, sizeof(name), "%s/%.0frps/latency_ns", scope.c_str(),
                offered_rps);
  hist_ = sim_.metrics().NamedHistogram(name);
  const Histogram baseline = *hist_;  // repeated points at one rate share the name
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

void LoadDriver::StopLoad() {
  point_active_ = false;
  measuring_ = false;
  CancelTimer(churn_timer_);
  CancelTimer(incast_timer_);
  CancelTimer(phase_timer_);
  for (LoadConn& c : conns_) {
    CancelTimer(c.arrival);
  }
}

}  // namespace demi
