// churn-recovery: one server with a bypass NIC plus a kernel NIC, fastcalls on.
//
// A recovery-mode Catnip echo server carries a few hot and many cold long-lived
// flows from a recovery-mode Catnip client with load-adaptive path placement on
// (the client is a metered tenant, so demoted flows hand back bypass flow
// slots). Short-lived connections (connect, one 64 B echo, close) arrive
// open-loop at a Catnap echo server on the same host, through the legacy
// kernel. Every echo is compared byte for byte with what was sent.

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apibench/src/clients.h"
#include "apibench/src/driver.h"
#include "apibench/src/server_loop.h"
#include "apibench/src/trace.h"
#include "src/core/harness.h"

namespace apibench {
namespace {

constexpr std::uint16_t kFlowPort = 7;
constexpr std::uint16_t kShortPort = 9;
constexpr std::size_t kMessageBytes = 64;
constexpr std::size_t kHotFlows = 4;
constexpr std::size_t kColdFlows = 28;
// Shares of the arrival rate; the cold flows take the rest.
constexpr double kHotShare = 0.7;
constexpr double kShortShare = 0.07;

// The 64 B message `seq` of connection `conn` (short connections use the high
// half of the connection space).
void FillMessage(std::byte* out, std::uint64_t conn, std::uint64_t seq) {
  std::uint64_t h = Fnv(Fnv(kFnvBasis, conn), seq);
  for (std::size_t i = 0; i < kMessageBytes; i += 8) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    std::memcpy(out + i, &h, 8);
  }
}

bool SameMessage(const demi::SgArray& answer, std::uint64_t conn, std::uint64_t seq) {
  if (answer.total_bytes() != kMessageBytes) {
    return false;
  }
  std::byte want[kMessageBytes];
  FillMessage(want, conn, seq);
  const demi::Buffer flat = answer.Flatten();
  return std::memcmp(flat.data(), want, kMessageBytes) == 0;
}

class ChurnRig final : public Rig, public demi::Poller {
 public:
  explicit ChurnRig(std::uint64_t seed)
      : seed_(seed), rng_(seed * 0x9E3779B97F4A7C15ULL + 0xc4c4) {}

  ~ChurnRig() override {
    if (env_ != nullptr) {
      env_->sim().RemovePoller(this);
    }
  }

  void Setup() override {
    demi::FabricConfig fabric;
    fabric.seed = seed_;
    env_ = std::make_unique<demi::TestHarness>(demi::CostModel{}, fabric);
    demi::HostOptions sopts;
    sopts.with_kernel_nic = true;
    server_ = &env_->AddHost("server", "10.0.0.1", sopts);
    demi::HostOptions copts = sopts;
    copts.charges_clock = false;
    client_ = &env_->AddHost("client", "10.0.0.2", copts);
    server_->kernel->SetFastcallEnabled(true);
    client_->kernel->SetFastcallEnabled(true);

    auto echo = [](const demi::SgArray& request, std::uint64_t) { return request; };
    flow_server_ = std::make_unique<ServerLoop>(env_->Catnip(*server_, demi::RecoveryConfig{}),
                                                kFlowPort, echo);
    short_server_ = std::make_unique<ServerLoop>(env_->Catnap(*server_), kShortPort, echo);

    demi::CatnipConfig ccfg;
    ccfg.tcp = client_->options.tcp;
    ccfg.seed = seed_ + 17;
    ccfg.recovery.enabled = true;
    ccfg.recovery.fallback_remote = demi::Endpoint{server_->kernel_ip, kFlowPort};
    ccfg.recovery.has_fallback_remote = true;
    ccfg.adaptive.enabled = true;
    demi::TenantQosConfig tenant;
    tenant.name = "flows";
    tenant.max_flow_slots = kHotFlows + kColdFlows;
    ccfg.tenant = tenant;
    flow_client_ = &env_->Catnip(*client_, std::move(ccfg));
    short_client_ = &env_->Catnap(*client_);

    flows_ = std::make_unique<Clients>(
        env_->sim(), [](const Clients::Pending& p, const demi::SgArray& answer,
                        std::string* why) {
          if (!SameMessage(answer, p.a, p.b)) {
            *why = "flow " + std::to_string(p.a) + " echo differs from the request";
            return false;
          }
          return true;
        });
    const std::size_t n = kHotFlows + kColdFlows;
    for (std::size_t i = 0; i < n; ++i) {
      flows_->Connect(*flow_client_, demi::Endpoint{server_->ip, kFlowPort});
    }
    DEMI_CHECK(env_->RunUntil(
        [&] { return flows_->settled() == n && flow_server_->accepted() == n; },
        env_->sim().now() + 10 * demi::kSecond));
    DEMI_CHECK(flows_->connected() == n);
    flow_seq_.assign(n, 0);
    env_->sim().AddPoller(this);
  }

  demi::Simulation& sim() override { return env_->sim(); }

  std::vector<Stream> Streams(Driver* driver) override {
    driver_ = driver;
    flows_->set_driver(driver);
    return {Stream{kHotShare, [this] { FlowRequest(rng_.NextBelow(kHotFlows)); }},
            Stream{1.0 - kHotShare - kShortShare,
                   [this] { FlowRequest(kHotFlows + rng_.NextBelow(kColdFlows)); }},
            Stream{kShortShare, [this] { ShortConnect(); }}};
  }

  LayerSample Sample() override { return SampleCpus(env_->sim(), {server_->cpu.get()}); }

  // Drives short-lived connections: connect, push + pop, check, close.
  bool Poll() override {
    bool progress = false;
    demi::ReadyCompletion rc;
    while (short_client_->PopReady(&rc)) {
      progress = true;
      auto it = shorts_.find(rc.qd);
      if (it == shorts_.end()) {
        continue;
      }
      ShortConn& sc = it->second;
      Span span("driver.client_completion", kShortBase | sc.seq);
      if (!rc.result.status.ok()) {
        driver_->Fail(sc.id);
        CloseShort(it);
        continue;
      }
      if (rc.op == demi::OpType::kConnect) {
        demi::SgArray sga = short_client_->SgaAlloc(kMessageBytes);
        FillMessage(sga.segment(0).mutable_data(), kShortBase, sc.seq);
        Span push("core.client_push", kShortBase | sc.seq);
        if (!short_client_->Push(rc.qd, sga).ok() || !short_client_->Pop(rc.qd).ok()) {
          driver_->Fail(sc.id);
          CloseShort(it);
        }
      } else if (rc.op == demi::OpType::kPop) {
        const bool same = SameMessage(rc.result.sga, kShortBase, sc.seq);
        const std::uint64_t id = sc.id;
        const std::uint64_t seq = sc.seq;
        CloseShort(it);
        if (same) {
          ++short_completed_;
          driver_->Complete(id, kShortBase, seq);
        } else {
          driver_->Wrong(id, "short connection echo differs from the request");
        }
      }
    }
    return progress;
  }

  void Finish(WindowResult& r, bool full_checks) override {
    r.extra["kernel.short_connections"] = static_cast<double>(short_completed_);
    const demi::TenantStats& stats =
        client_->kernel->tenant_registry()->stats(flow_client_->tenant());
    r.extra["hw.tenant.flow_slots_live"] = static_cast<double>(stats.live_flow_slots);
    r.extra["hw.tenant.flow_slots_released"] = static_cast<double>(stats.flow_slots_released);
    if (!shorts_.empty()) {
      Violation(r, std::to_string(shorts_.size()) + " short connections never finished");
    }
    flows_->CloseAll();
    env_->RunUntil(
        [&] {
          return flow_server_->open_connections() == 0 && short_server_->open_connections() == 0;
        },
        env_->sim().now() + 1 * demi::kSecond);
    flow_server_->StopAccepting();
    short_server_->StopAccepting();
    env_->sim().RunFor(10 * demi::kMicrosecond);
    CheckDrained({&flow_server_->libos(), &short_server_->libos(), flow_client_, short_client_},
                 0, r);
    CheckClientHealth(*flows_, r);
    if (flow_server_->push_failures() + short_server_->push_failures() > 0) {
      Violation(r, "server push failed");
    }
    CheckCapabilities(env_->sim(), r);
  }

 private:
  static constexpr std::uint64_t kShortBase = 1ULL << 31;
  struct ShortConn {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
  };

  void FlowRequest(std::size_t flow) {
    const std::uint64_t seq = flow_seq_[flow]++;
    demi::SgArray sga;
    {
      Span span("memory.client_sgaalloc");
      sga = flow_client_->SgaAlloc(kMessageBytes);
    }
    FillMessage(sga.segment(0).mutable_data(), flow, seq);
    flows_->Send(driver_, flow, sga, kRead, flow, seq);
  }

  void ShortConnect() {
    ShortConn sc{driver_->Begin(kShort), short_seq_++};
    Span span("core.client_connect", kShortBase | sc.seq);
    auto qd = short_client_->Socket();
    if (!qd.ok()) {
      driver_->Fail(sc.id);
      return;
    }
    if (!short_client_->ConnectAsync(*qd, demi::Endpoint{server_->kernel_ip, kShortPort}).ok()) {
      driver_->Fail(sc.id);
      (void)short_client_->Close(*qd);
      return;
    }
    shorts_[*qd] = sc;
  }

  void CloseShort(std::unordered_map<demi::QDesc, ShortConn>::iterator it) {
    Span span("core.client_close", kShortBase | it->second.seq);
    (void)short_client_->Close(it->first);
    shorts_.erase(it);
  }

  std::uint64_t seed_;
  demi::Rng rng_;
  Driver* driver_ = nullptr;
  std::unique_ptr<demi::TestHarness> env_;
  demi::TestHarness::Host* server_ = nullptr;
  demi::TestHarness::Host* client_ = nullptr;
  std::unique_ptr<ServerLoop> flow_server_;
  std::unique_ptr<ServerLoop> short_server_;
  demi::CatnipLibOS* flow_client_ = nullptr;
  demi::CatnapLibOS* short_client_ = nullptr;
  std::unique_ptr<Clients> flows_;
  std::vector<std::uint64_t> flow_seq_;
  std::unordered_map<demi::QDesc, ShortConn> shorts_;
  std::uint64_t short_seq_ = 0;
  std::uint64_t short_completed_ = 0;
};

}  // namespace

std::unique_ptr<Rig> MakeChurnRig(std::uint64_t seed) {
  return std::make_unique<ChurnRig>(seed);
}

}  // namespace apibench
