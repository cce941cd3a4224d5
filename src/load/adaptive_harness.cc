#include "src/load/adaptive_harness.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace demi {

namespace {

constexpr std::uint16_t kFlowPort = 7;   // recovery Catnip echo (fast + fallback)
constexpr std::uint16_t kChurnPort = 9;  // Catnap echo (kernel path only)

SgArray Message(LibOS& libos, std::size_t bytes) {
  SgArray sga = libos.SgaAlloc(bytes);
  std::memset(sga.segment(0).mutable_data(), 'a', bytes);
  return sga;
}

}  // namespace

AdaptiveEchoHarness::AdaptiveEchoHarness(AdaptiveHarnessConfig cfg) : cfg_(cfg) {
  FabricConfig fabric;
  fabric.seed = cfg_.seed;
  h_ = std::make_unique<TestHarness>(CostModel{}, fabric);

  HostOptions sopts;
  sopts.with_kernel_nic = true;
  server_host_ = &h_->AddHost("server", "10.0.0.1", sopts);
  HostOptions copts = sopts;
  copts.charges_clock = false;
  client_host_ = &h_->AddHost("client", "10.0.0.2", copts);

  if (cfg_.fastcall) {
    server_host_->kernel->SetFastcallEnabled(true);
    client_host_->kernel->SetFastcallEnabled(true);
  }

  // Server: recovery-enabled so demoted clients can land on the kernel listener.
  server_libos_ = &h_->Catnip(*server_host_, RecoveryConfig{});

  CatnipConfig ccfg;
  ccfg.tcp = client_host_->options.tcp;
  ccfg.seed = cfg_.seed + 17;
  ccfg.recovery.enabled = true;
  ccfg.recovery.fallback_remote = Endpoint{server_host_->kernel_ip, kFlowPort};
  ccfg.recovery.has_fallback_remote = true;
  ccfg.adaptive.enabled = cfg_.adaptive;
  if (cfg_.max_flow_slots > 0) {
    TenantQosConfig tenant;
    tenant.name = "adaptive";
    tenant.max_flow_slots = cfg_.max_flow_slots;
    ccfg.tenant = tenant;
  }
  client_libos_ = &h_->Catnip(*client_host_, std::move(ccfg));

  churn_server_libos_ = &h_->Catnap(*server_host_);
  churn_client_libos_ = &h_->Catnap(*client_host_);

  echo_server_ = std::make_unique<DemiEchoServer>(server_libos_, kFlowPort);
  churn_echo_server_ = std::make_unique<DemiEchoServer>(churn_server_libos_, kChurnPort);

  // Flows arrive staggered by a seed-derived jitter, like real clients. This is also
  // what couples the seed to the timeline: a different seed shifts every connect, so
  // the run digest genuinely distinguishes seeds (SameSeedIsBitDeterministic).
  Rng stagger(cfg_.seed * 0x9E3779B97F4A7C15ULL + 0x5eed);
  flows_.resize(cfg_.hot_flows + cfg_.cold_flows);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    flow.hot = i < cfg_.hot_flows;
    flow.period = flow.hot ? cfg_.hot_period_ns : cfg_.cold_period_ns;
    flow.qd = *client_libos_->Socket();
    const TimeNs offset = static_cast<TimeNs>(stagger.NextBelow(5 * kMicrosecond));
    h_->sim().Schedule(offset, [this, i] {
      Flow& f = flows_[i];
      f.connect =
          *client_libos_->ConnectAsync(f.qd, Endpoint{server_host_->ip, kFlowPort});
    });
  }

  h_->sim().AddPoller(this);

  if (cfg_.cold_hot_flip_ns > 0) {
    h_->sim().ScheduleAt(cfg_.cold_hot_flip_ns, [this] {
      for (Flow& flow : flows_) {
        if (!flow.hot) {
          flow.period = cfg_.hot_period_ns;
        }
      }
    });
  }
  if (cfg_.churn_waves > 0) {
    h_->sim().Schedule(cfg_.churn_period_ns, [this] { SpawnChurnWave(); });
  }
}

AdaptiveEchoHarness::~AdaptiveEchoHarness() { h_->sim().RemovePoller(this); }

void AdaptiveEchoHarness::ArmFlowTimer(std::size_t i) {
  h_->sim().Schedule(flows_[i].period, [this, i] {
    if (stopping_) {
      return;
    }
    flows_[i].due = true;
    SendIfReady(i);
    ArmFlowTimer(i);
  });
}

void AdaptiveEchoHarness::SendIfReady(std::size_t i) {
  Flow& flow = flows_[i];
  if (!flow.connected || !flow.due || flow.push != kInvalidQToken ||
      flow.pop != kInvalidQToken) {
    return;
  }
  flow.due = false;
  flow.sent_at = h_->sim().now();
  auto push = client_libos_->Push(flow.qd, Message(*client_libos_, cfg_.msg_bytes));
  if (!push.ok()) {
    return;  // transient (e.g. replay log full mid-switch): the next tick retries
  }
  flow.push = *push;
  if (auto pop = client_libos_->Pop(flow.qd); pop.ok()) {
    flow.pop = *pop;
  }
}

void AdaptiveEchoHarness::SpawnChurnWave() {
  if (stopping_ || churn_waves_spawned_ >= cfg_.churn_waves) {
    return;
  }
  ++churn_waves_spawned_;
  for (std::size_t i = 0; i < cfg_.churn_wave_size; ++i) {
    ChurnConn conn;
    auto qd = churn_client_libos_->Socket();
    if (!qd.ok()) {
      continue;
    }
    conn.qd = *qd;
    auto token = churn_client_libos_->ConnectAsync(
        conn.qd, Endpoint{server_host_->kernel_ip, kChurnPort});
    if (!token.ok()) {
      (void)churn_client_libos_->Close(conn.qd);
      continue;
    }
    conn.token = *token;
    churn_.push_back(conn);
  }
  if (churn_waves_spawned_ < cfg_.churn_waves) {
    h_->sim().Schedule(cfg_.churn_period_ns, [this] { SpawnChurnWave(); });
  }
}

bool AdaptiveEchoHarness::Poll() {
  bool progress = false;

  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (flow.connect != kInvalidQToken && client_libos_->OpDone(flow.connect)) {
      auto r = client_libos_->TakeResult(flow.connect);
      flow.connect = kInvalidQToken;
      DEMI_CHECK(r.ok() && r->status.ok());
      flow.connected = true;
      flow.due = true;  // first request goes out immediately; the timer paces the rest
      SendIfReady(i);
      ArmFlowTimer(i);
      progress = true;
    }
    if (flow.push != kInvalidQToken && client_libos_->OpDone(flow.push)) {
      (void)client_libos_->TakeResult(flow.push);
      flow.push = kInvalidQToken;
      progress = true;
    }
    if (flow.push == kInvalidQToken && flow.pop != kInvalidQToken &&
        client_libos_->OpDone(flow.pop)) {
      auto r = client_libos_->TakeResult(flow.pop);
      flow.pop = kInvalidQToken;
      progress = true;
      if (r.ok() && r->status.ok()) {
        const std::uint64_t latency =
            static_cast<std::uint64_t>(h_->sim().now() - flow.sent_at);
        (flow.hot ? hot_latency_ : cold_latency_).Record(latency);
        ++flow.completed;
        Mix(i);
        Mix(latency);
        Mix(static_cast<std::uint64_t>(h_->sim().now()));
      }
      SendIfReady(i);  // a tick may have come due while the round was in flight
    }
  }

  for (ChurnConn& conn : churn_) {
    if (conn.token == kInvalidQToken || !churn_client_libos_->OpDone(conn.token)) {
      continue;
    }
    auto r = churn_client_libos_->TakeResult(conn.token);
    conn.token = kInvalidQToken;
    progress = true;
    if (!r.ok() || !r->status.ok()) {
      (void)churn_client_libos_->Close(conn.qd);
      conn.qd = kInvalidQDesc;
      continue;
    }
    if (conn.stage == 0) {  // connected: send the one request
      if (auto push = churn_client_libos_->Push(conn.qd, Message(*churn_client_libos_,
                                                                 cfg_.msg_bytes));
          push.ok()) {
        conn.token = *push;
        conn.stage = 1;
      }
    } else if (conn.stage == 1) {  // pushed: await the echo
      if (auto pop = churn_client_libos_->Pop(conn.qd); pop.ok()) {
        conn.token = *pop;
        conn.stage = 2;
      }
    } else {  // echoed: one round trip done, hang up
      (void)churn_client_libos_->Close(conn.qd);
      conn.qd = kInvalidQDesc;
      ++churn_completed_;
      Mix(0x4348u);  // 'CH'
      Mix(static_cast<std::uint64_t>(h_->sim().now()));
    }
  }
  while (!churn_.empty() && churn_.front().qd == kInvalidQDesc) {
    churn_.erase(churn_.begin());
  }
  return progress;
}

AdaptiveScenarioResult AdaptiveEchoHarness::Run() {
  Simulation& sim = h_->sim();
  sim.RunFor(cfg_.run_ns);
  stopping_ = true;  // timers stop re-arming; drain what is still in flight
  const bool drained = sim.RunUntil(
      [this] {
        for (const Flow& flow : flows_) {
          if (flow.push != kInvalidQToken || flow.pop != kInvalidQToken) {
            return false;
          }
        }
        return churn_.empty();
      },
      sim.now() + 10 * kSecond);
  DEMI_CHECK(drained);

  // Snapshot the tenant pool BEFORE closing the flows: the point of the scenario is
  // what capacity the policy freed while flows were still open.
  AdaptiveScenarioResult out;
  if (client_libos_->tenant() != kNoTenant) {
    const TenantStats& stats =
        client_host_->kernel->tenant_registry()->stats(client_libos_->tenant());
    out.live_flow_slots = stats.live_flow_slots;
    out.flow_slots_released = stats.flow_slots_released;
    out.flow_slots_denied = stats.flow_slots_denied;
  }
  for (Flow& flow : flows_) {
    (void)client_libos_->Close(flow.qd);
  }
  sim.RunFor(1 * kMillisecond);  // let closes and server-side teardown settle

  out.hot_p50_ns = hot_latency_.P50();
  out.hot_p99_ns = hot_latency_.P99();
  out.cold_p50_ns = cold_latency_.P50();
  out.cold_p99_ns = cold_latency_.P99();
  for (const Flow& flow : flows_) {
    (flow.hot ? out.hot_completed : out.cold_completed) += flow.completed;
  }
  out.churn_completed = churn_completed_;
  out.churn_conns_per_sec =
      static_cast<double>(churn_completed_) * 1e9 / static_cast<double>(cfg_.run_ns);
  auto& counters = sim.counters();
  out.promotions = counters.Get(Counter::kPromotions);
  out.demotions = counters.Get(Counter::kDemotions);
  out.fastcall_crossings = counters.Get(Counter::kFastcallCrossings);
  out.syscalls = counters.Get(Counter::kSyscalls);
  out.accepts_batched = counters.Get(Counter::kAcceptsBatched);
  Mix(out.promotions);
  Mix(out.demotions);
  Mix(out.fastcall_crossings);
  Mix(out.syscalls);
  Mix(out.hot_completed);
  Mix(out.cold_completed);
  Mix(out.churn_completed);
  out.digest = digest_;
  return out;
}

}  // namespace demi
