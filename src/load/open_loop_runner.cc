#include "src/load/open_loop_runner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace demi {

namespace {

constexpr std::uint16_t kServerBasePort = 5000;
// Reap dead connections once this many have piled up on a stack. ReapClosed is
// O(live), so at 10^6 connections reaping every handful of deaths would be
// quadratic; this threshold amortizes the sweep.
constexpr std::size_t kReapThreshold = 65'536;

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Status OpenLoopRunner::ValidateConfig(const OpenLoopConfig& cfg) {
  if (cfg.connections == 0) {
    return InvalidArgument("open-loop config: connections must be > 0");
  }
  if (cfg.client_stacks == 0 || cfg.server_ports == 0) {
    return InvalidArgument(
        "open-loop config: client_stacks and server_ports must be > 0");
  }
  // Each (client stack, server port) pair supports one ephemeral partition of
  // connections thanks to per-4-tuple port reuse.
  const std::size_t capacity =
      cfg.client_stacks * cfg.server_ports * kEphemeralPartition;
  if (cfg.connections > capacity) {
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "open-loop config: %zu connections exceed 4-tuple capacity %zu "
                  "(%zu client stacks x %zu server ports x %zu ephemeral ports)",
                  cfg.connections, capacity, cfg.client_stacks, cfg.server_ports,
                  kEphemeralPartition);
    return InvalidArgument(msg);
  }
  if (cfg.tenant.enabled && cfg.tenant.victim.weight == 0) {
    return InvalidArgument("open-loop config: victim tenant weight must be > 0");
  }
  return OkStatus();
}

OpenLoopRunner::OpenLoopRunner(OpenLoopConfig cfg)
    : cfg_(cfg),
      fabric_(&sim_, cfg.fabric),
      workload_(cfg.workload),
      arrival_(cfg.arrival, cfg.connections),
      rng_(MixSeed(cfg.seed, 0x10adul)) {
  if (const Status valid = ValidateConfig(cfg_); !valid.ok()) {
    PanicImpl(__FILE__, __LINE__, valid.message());
  }

  server_ip_ = Ipv4Address::FromOctets(10, 0, 0, 1);
  response_blob_ = Buffer::Allocate(WorkloadModel::kMaxResponseBytes);
  std::memset(response_blob_.mutable_data(), 0, response_blob_.size());

  TcpConfig tcp = cfg_.tcp;
  tcp.listen_backlog = std::max<std::size_t>(tcp.listen_backlog, 4096);

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves and incast bursts exceed the 256 default

  NicConfig server_nic_cfg = nic_cfg;
  if (cfg_.tenant.enabled) {
    server_nic_cfg.num_queues = 2;  // queue 0: victim stack; queue 1: hostile tenant
  }
  server_host_ = std::make_unique<HostCpu>(&sim_, "loadsrv", /*charges_clock=*/true);
  server_nic_ = std::make_unique<SimNic>(server_host_.get(), &fabric_,
                                         MacAddress::ForHost(1), server_nic_cfg);
  NetStackConfig scfg;
  scfg.ip = server_ip_;
  scfg.rx_batch = 256;
  scfg.tcp = tcp;
  scfg.seed = MixSeed(cfg_.seed, 0x5e71);
  if (cfg_.tenant.enabled) {
    tenant_registry_ = std::make_unique<TenantRegistry>(&sim_);
    tenant_registry_->set_isolation_enabled(cfg_.tenant.isolation_on);
    server_nic_->AttachTenantRegistry(tenant_registry_.get());
    victim_tenant_ = tenant_registry_->Create(cfg_.tenant.victim);
    hostile_tenant_ = tenant_registry_->Create(cfg_.tenant.hostile);
    server_nic_->BindQueueTenant(0, victim_tenant_);
    server_nic_->BindQueueTenant(1, hostile_tenant_);
    // Victim capability coverage: the stack draws every protocol header from
    // this manager (BindTenant grants each arena, current and future), response
    // payloads are zero-copy slices of the blob granted below, and echoed
    // request bytes are covered by device RX grants. Nothing the victim posts
    // should ever trip a capability check.
    server_memory_ = std::make_unique<MemoryManager>(server_host_.get());
    server_memory_->BindTenant(tenant_registry_.get(), victim_tenant_);
    tenant_registry_->GrantRegion(victim_tenant_,
                                  response_blob_.storage()->registration_root());
    scfg.memory = server_memory_.get();
  }
  server_stack_ = std::make_unique<NetStack>(server_host_.get(), server_nic_.get(), scfg);
  for (std::size_t p = 0; p < cfg_.server_ports; ++p) {
    auto l = server_stack_->TcpListen(static_cast<std::uint16_t>(kServerBasePort + p));
    DEMI_CHECK(l.ok());
    listeners_.push_back(l.value());
  }

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
    ccfg.tcp = tcp;
    ccfg.seed = MixSeed(cfg_.seed, 0xc11e + s);
    client_stacks_.push_back(std::make_unique<NetStack>(
        client_hosts_.back().get(), client_nics_.back().get(), ccfg));
  }

  if (cfg_.tenant.enabled) {
    // The hostile tenant floods raw frames at a sink NIC that never drains its
    // rings, so attack traffic exercises the shared device without involving
    // any stack. The sink host charges no clock: it is scenery.
    sink_host_ = std::make_unique<HostCpu>(&sim_, "sink", /*charges_clock=*/false);
    sink_nic_ = std::make_unique<SimNic>(sink_host_.get(), &fabric_,
                                         MacAddress::ForHost(99), nic_cfg);
    hostile_ = std::make_unique<HostileTenant>(
        &sim_, server_nic_.get(), /*queue=*/1, hostile_tenant_,
        tenant_registry_.get(), sink_nic_->mac(), cfg_.tenant.hostile_load);
  }

  conns_.resize(cfg_.connections);
  sim_.AddPoller(this);
}

OpenLoopRunner::~OpenLoopRunner() {
  StopLoad();
  sim_.RemovePoller(this);
}

// ---------------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------------

void OpenLoopRunner::OpenConnection(std::size_t i) {
  LoadConn& c = conns_[i];
  c = LoadConn{};
  const std::size_t s = i % cfg_.client_stacks;
  c.stack = static_cast<std::uint16_t>(s);
  c.server = Endpoint{server_ip_,
                      static_cast<std::uint16_t>(
                          kServerBasePort + (i / cfg_.client_stacks) % cfg_.server_ports)};
  // Deterministic slow-client assignment: the same connection indices are slow in
  // every run with the same config.
  c.slow = cfg_.slow_client_fraction > 0 &&
           static_cast<double>(i % 1024) < cfg_.slow_client_fraction * 1024.0;
  auto r = client_stacks_[s]->TcpConnect(c.server);
  DEMI_CHECK(r.ok());
  c.tcp = r.value();
  c.tcp->set_on_ready([this, i](TcpConnection*) { OnClientReady(i); });
}

void OpenLoopRunner::ReopenConnection(std::size_t i) { OpenConnection(i); }

void OpenLoopRunner::OnClientReady(std::size_t i) {
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

void OpenLoopRunner::OnClientDead(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.dead || c.tcp == nullptr) {
    return;
  }
  c.dead = true;
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
    sim_.Schedule(0, [this, i] { ReopenConnection(i); });
  } else {
    ++dead_unexpected_;
  }
}

void OpenLoopRunner::DrainClient(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || c.tcp->dead()) {
    return;
  }
  while (true) {
    Buffer got = c.tcp->Recv(1 << 20);
    if (got.empty()) {
      break;
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
        CompleteRequest(i, intended);
      }
    }
    // Bytes with no matching pending request (e.g. a response racing a churn
    // close's pending-clear) are counted, not silently dropped.
    stray_bytes_ += n;
  }
}

void OpenLoopRunner::FlushClientBacklog(std::size_t i) {
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

void OpenLoopRunner::CompleteRequest(std::size_t i, TimeNs intended) {
  (void)i;
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

void OpenLoopRunner::IssueRequest(std::size_t i, TimeNs intended) {
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
  if (!c.backlog.empty() || !c.tcp->Send(req.payload).ok()) {
    c.backlog.push_back(std::move(req.payload));
  }
}

void OpenLoopRunner::ScheduleArrival(std::size_t i) {
  LoadConn& c = conns_[i];
  CancelTimer(c.arrival);
  const TimeNs gap = arrival_.NextGapNs(rng_);
  if (gap == ArrivalProcess::kNever) {
    return;
  }
  ArmArrival(i, sim_.now() + gap);
}

void OpenLoopRunner::ArmArrival(std::size_t i, TimeNs due) {
  // Self-rescheduling at absolute times: the next arrival is drawn from the
  // PREVIOUS SCHEDULED arrival, never from the (possibly late) fire time.
  // Rescheduling from fire times would silently clamp the offered rate to
  // whatever the system under test can absorb — closing the loop.
  conns_[i].arrival = sim_.ScheduleAt(due, [this, i, due] {
    conns_[i].arrival = kInvalidTimer;
    IssueRequest(i, due);
    const TimeNs gap = arrival_.NextGapNs(rng_);
    if (gap != ArrivalProcess::kNever) {
      ArmArrival(i, due + gap);
    }
  });
}

void OpenLoopRunner::RedrawAllArrivals() {
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

void OpenLoopRunner::ScheduleChurn() {
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

void OpenLoopRunner::ChurnTick() {
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

void OpenLoopRunner::ScheduleIncast() {
  if (cfg_.incast_fanin == 0) {
    return;
  }
  ArmIncast(sim_.now() + cfg_.incast_period_ns);
}

void OpenLoopRunner::ArmIncast(TimeNs due) {
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

void OpenLoopRunner::SchedulePhaseFlip() {
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

void OpenLoopRunner::CancelTimer(TimerId& id) {
  if (id != kInvalidTimer) {
    sim_.Cancel(id);
    id = kInvalidTimer;
  }
}

// ---------------------------------------------------------------------------
// Drive
// ---------------------------------------------------------------------------

bool OpenLoopRunner::Ramp(TimeNs deadline) {
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
  return sim_.RunUntil([&] { return accepted_ >= established_; }, t_end);
}

SweepPoint OpenLoopRunner::RunPoint(double offered_rps, TimeNs warmup, TimeNs measure) {
  StopLoad();
  arrival_.SetRate(offered_rps);
  point_active_ = true;
  RedrawAllArrivals();
  ScheduleChurn();
  ScheduleIncast();
  SchedulePhaseFlip();
  sim_.RunFor(warmup);

  char name[64];
  std::snprintf(name, sizeof(name), "openloop/%.0frps/latency_ns", offered_rps);
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

void OpenLoopRunner::StopLoad() {
  point_active_ = false;
  measuring_ = false;
  CancelTimer(churn_timer_);
  CancelTimer(incast_timer_);
  CancelTimer(phase_timer_);
  for (LoadConn& c : conns_) {
    CancelTimer(c.arrival);
  }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

bool OpenLoopRunner::Poll() {
  bool did = false;
  for (TcpListener* l : listeners_) {
    while (TcpConnection* tc = l->Accept()) {
      ++accepted_;
      srv_conns_.emplace(tc, SrvConn{});
      tc->set_on_ready([this](TcpConnection* c) { OnServerReady(c); });
      // Data (or a reset) may have landed between establishment and this accept.
      if (tc->readable() || tc->dead()) {
        OnServerReady(tc);
      }
      did = true;
    }
  }
  // Amortized reaping from a top-level context (never from inside a callback):
  // each sweep is O(live), so trigger it once per kReapThreshold deaths.
  if (server_stack_->closed_unreaped() > kReapThreshold) {
    server_stack_->ReapClosed();
    did = true;
  }
  for (auto& s : client_stacks_) {
    if (s->closed_unreaped() > kReapThreshold) {
      s->ReapClosed();
      did = true;
    }
  }
  return did;
}

void OpenLoopRunner::OnServerReady(TcpConnection* tc) {
  auto it = srv_conns_.find(tc);
  if (it == srv_conns_.end()) {
    return;
  }
  SrvConn& sc = it->second;
  if (tc->dead()) {
    srv_conns_.erase(it);
    return;
  }
  while (tc->readable()) {
    Buffer b = tc->Recv(1 << 20);
    if (b.empty()) {
      break;
    }
    ConsumeRequestBytes(tc, sc, b);
  }
  if (tc->recv_eof()) {
    tc->Close();  // half-close from the client: finish our side
  }
  FlushServerBacklog(tc, sc);
}

void OpenLoopRunner::ConsumeRequestBytes(TcpConnection* tc, SrvConn& sc,
                                         const Buffer& b) {
  const std::size_t req_bytes = workload_.request_bytes();
  const std::byte* data = b.data();
  std::size_t off = 0;
  const std::size_t n = b.size();
  while (off < n) {
    if (sc.got < WorkloadModel::kHeaderBytes) {
      const std::size_t hdr_take = std::min<std::size_t>(
          WorkloadModel::kHeaderBytes - sc.got, n - off);
      std::memcpy(sc.hdr + sc.got, data + off, hdr_take);
    }
    const std::size_t take = std::min(req_bytes - sc.got, n - off);
    sc.got += take;
    off += take;
    if (sc.got == req_bytes) {
      sc.got = 0;
      ServeRequest(tc, sc, WorkloadModel::DecodeResponseBytes(sc.hdr));
    }
  }
}

void OpenLoopRunner::ServeRequest(TcpConnection* tc, SrvConn& sc,
                                  std::uint32_t resp_bytes) {
  server_host_->Work(cfg_.server_work_per_request_ns);
  ++served_;
  Buffer resp = response_blob_.Slice(0, resp_bytes);
  // Responses must stay in order behind any backlogged predecessors.
  if (!sc.backlog.empty() || !tc->Send(resp).ok()) {
    sc.backlog.push_back(std::move(resp));
  }
}

void OpenLoopRunner::FlushServerBacklog(TcpConnection* tc, SrvConn& sc) {
  while (!sc.backlog.empty()) {
    if (!tc->Send(sc.backlog.front()).ok()) {
      break;
    }
    sc.backlog.pop_front();
  }
}

}  // namespace demi
