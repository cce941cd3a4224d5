#include "src/load/open_loop_runner.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace demi {

namespace {

const Ipv4Address kServerIp = Ipv4Address::FromOctets(10, 0, 0, 1);
constexpr std::uint16_t kServerBasePort = 5000;
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Status OpenLoopRunner::ValidateConfig(const OpenLoopConfig& cfg) {
  RETURN_IF_ERROR(ValidateFleet(cfg, cfg.server_ports));
  if (cfg.tenant.enabled && cfg.tenant.victim.weight == 0) {
    return InvalidArgument("open-loop config: victim tenant weight must be > 0");
  }
  return OkStatus();
}

OpenLoopRunner::OpenLoopRunner(OpenLoopConfig cfg)
    : LoadDriver(cfg, WireCodec::kRaw, "openloop", Endpoint{kServerIp, kServerBasePort},
                 cfg.server_ports, MixSeed(cfg.seed, 0x10adul)),
      cfg_(cfg) {
  // The driver checked the fleet; the tenant weight is this harness's own.
  DEMI_CHECK(!cfg_.tenant.enabled || cfg_.tenant.victim.weight > 0);

  response_blob_ = Buffer::Allocate(WorkloadModel::kMaxResponseBytes);
  std::memset(response_blob_.mutable_data(), 0, response_blob_.size());

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves and incast bursts exceed the 256 default

  NicConfig server_nic_cfg = nic_cfg;
  if (cfg_.tenant.enabled) {
    server_nic_cfg.num_queues = 2;  // queue 0: victim stack; queue 1: hostile tenant
  }
  server_host_ = std::make_unique<HostCpu>(&sim(), "loadsrv", /*charges_clock=*/true);
  server_nic_ = std::make_unique<SimNic>(server_host_.get(), &fabric(),
                                         MacAddress::ForHost(1), server_nic_cfg);
  NetStackConfig scfg;
  scfg.ip = kServerIp;
  scfg.rx_batch = 256;
  scfg.tcp = tcp_config();
  scfg.seed = MixSeed(cfg_.seed, 0x5e71);
  if (cfg_.tenant.enabled) {
    tenant_registry_ = std::make_unique<TenantRegistry>(&sim());
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

  BuildClients(&MixSeed);

  if (cfg_.tenant.enabled) {
    // The hostile tenant floods raw frames at a sink NIC that never drains its
    // rings, so attack traffic exercises the shared device without involving
    // any stack. The sink host charges no clock: it is scenery.
    sink_host_ = std::make_unique<HostCpu>(&sim(), "sink", /*charges_clock=*/false);
    sink_nic_ = std::make_unique<SimNic>(sink_host_.get(), &fabric(),
                                         MacAddress::ForHost(99), nic_cfg);
    hostile_ = std::make_unique<HostileTenant>(
        &sim(), server_nic_.get(), /*queue=*/1, hostile_tenant_,
        tenant_registry_.get(), sink_nic_->mac(), cfg_.tenant.hostile_load);
  }

  sim().AddPoller(this);
}

OpenLoopRunner::~OpenLoopRunner() { sim().RemovePoller(this); }

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
  return did;
}

void OpenLoopRunner::OnServerReady(TcpConnection* tc) {
  auto it = srv_conns_.find(tc);
  if (it == srv_conns_.end()) {
    return;
  }
  SrvConn& sc = it->second;
  if (tc->dead()) {
    // The server map holds each accepted connection until it dies (DESIGN.md §8).
    srv_conns_.erase(it);
    server_stack_->Release(tc);
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
  const std::size_t req_bytes = workload().request_bytes();
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
