// Shared runners for the echo benches (F1, C5, E1, A1) and the KV benches (C1, C2,
// E2, A2): a server in the given architecture, closed-loop clients, and the latency
// plus the server host's counters for cost breakdowns. Each run owns a private
// simulation.

#ifndef BENCH_RUNNERS_H_
#define BENCH_RUNNERS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/actors.h"
#include "src/core/harness.h"

namespace demi::bench {

constexpr std::uint16_t kEchoPort = 7;
constexpr std::uint16_t kKvPort = 6379;

// Host options for one side of a run of `kind`: Catmint hosts carry an RDMA NIC and
// no kernel, an mTCP server replaces the kernel stack, and clients do not charge the
// clock, so only server and network time is measured.
inline HostOptions RunHostOptions(const std::string& kind, bool client) {
  HostOptions opts;
  opts.charges_clock = !client;
  if (kind == "catmint") {
    opts.with_rdma = true;
    opts.with_nic = false;
    opts.with_kernel = false;
  }
  if (kind == "mtcp" && !client) {
    opts.with_kernel = false;
  }
  return opts;
}

// The libOS of `kind` ("catnip" | "catnap" | "catmint") on `host`.
inline LibOS* RunLibOS(TestHarness& env, TestHarness::Host& host, const std::string& kind) {
  if (kind == "catnip") {
    return &env.Catnip(host);
  }
  if (kind == "catnap") {
    return &env.Catnap(host);
  }
  return &env.Catmint(host);
}

struct EchoRun {
  Histogram latency;
  std::uint64_t completed = 0;
  Counters server_counters;
  std::uint64_t server_cpu_ns = 0;
  TimeNs elapsed = 0;
  // End-of-run observability snapshot (per-op latency quantiles, sim internals,
  // recovery trace) of this run's private simulation.
  MetricsSnapshot metrics;
  bool ok = false;
};

// One closed-loop client, a server in the given architecture, N request-response
// round trips. kind: "catnip" | "catnap" | "catmint" | "posix" | "mtcp"
inline EchoRun RunEcho(const std::string& kind, std::size_t msg_bytes,
                       std::uint64_t requests, CostModel cost = CostModel{}) {
  TestHarness env(cost);
  auto& sh = env.AddHost("server", "10.0.0.1", RunHostOptions(kind, /*client=*/false));
  auto& ch = env.AddHost("client", "10.0.0.2", RunHostOptions(kind, /*client=*/true));
  const Endpoint server{sh.ip, kEchoPort};

  // Declared in this order so the server goes before the mTCP stack it uses.
  std::unique_ptr<MtcpStack> mtcp;
  std::unique_ptr<Poller> echo_server;
  std::unique_ptr<ClosedLoopClient> client;
  if (kind == "posix") {
    echo_server = std::make_unique<PosixEchoServer>(sh.kernel.get(), kEchoPort, msg_bytes);
    client = std::make_unique<PosixEchoClient>(ch.kernel.get(), server, msg_bytes, requests);
  } else if (kind == "mtcp") {
    MtcpConfig mcfg;
    mcfg.ip = sh.ip;
    mtcp = std::make_unique<MtcpStack>(sh.cpu.get(), sh.nic.get(), mcfg);
    echo_server = std::make_unique<MtcpEchoServer>(mtcp.get(), kEchoPort, msg_bytes);
    client = std::make_unique<PosixEchoClient>(ch.kernel.get(), server, msg_bytes, requests);
  } else {
    LibOS* sl = RunLibOS(env, sh, kind);
    LibOS* cl = RunLibOS(env, ch, kind);
    echo_server = std::make_unique<DemiEchoServer>(sl, kEchoPort);
    client = std::make_unique<DemiEchoClient>(cl, server, msg_bytes, requests);
  }

  EchoRun out;
  const TimeNs start = env.sim().now();
  out.ok = env.RunUntil([&] { return client->done(); }, 3600 * kSecond) && !client->failed();
  out.elapsed = env.sim().now() - start;
  out.latency = client->latency();
  out.completed = client->completed();
  out.server_counters = sh.cpu->counters();
  out.server_cpu_ns = sh.cpu->busy_ns();
  out.metrics = env.sim().metrics().Snapshot(env.sim().counters(), env.sim().now());
  return out;
}

struct KvRunOptions {
  std::string kind = "catnip";  // catnip | catnap | catmint | posix
  int clients = 1;
  std::uint64_t requests_per_client = 1000;
  KvWorkloadConfig workload;
  CostModel cost;
  int client_fragments = 1;       // posix only: split each request into N writes
  TimeNs fragment_gap_ns = 0;     // posix only: spacing between fragments
};

struct KvRunResult {
  Histogram latency;
  std::uint64_t completed = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t incomplete_scans = 0;
  Counters server_counters;
  std::uint64_t server_cpu_ns = 0;
  TimeNs elapsed = 0;
  bool ok = false;

  double throughput_rps() const {
    return elapsed > 0 ? static_cast<double>(completed) / ToSeconds(elapsed) : 0.0;
  }
};

// A KV server in the given architecture, a preloaded store, and a fleet of
// closed-loop clients.
inline KvRunResult RunKv(KvRunOptions opt) {
  TestHarness env(opt.cost);
  auto& sh = env.AddHost("server", "10.0.0.1", RunHostOptions(opt.kind, /*client=*/false));
  const Endpoint server{sh.ip, kKvPort};

  const bool posix = opt.kind == "posix";
  std::unique_ptr<PosixKvServer> posix_server;
  std::unique_ptr<DemiKvServer> demi_server;
  if (posix) {
    posix_server = std::make_unique<PosixKvServer>(sh.kernel.get(), kKvPort);
  } else {
    demi_server = std::make_unique<DemiKvServer>(RunLibOS(env, sh, opt.kind), kKvPort);
  }
  KvEngine& engine = posix ? posix_server->engine() : demi_server->engine();

  // Preload the store (control path; not measured).
  {
    KvWorkload loader(opt.workload);
    for (std::uint64_t k = 0; k < opt.workload.num_keys; ++k) {
      (void)engine.Execute(loader.LoadCommand(k));
    }
  }
  const std::uint64_t cpu0 = sh.cpu->busy_ns();

  std::vector<std::unique_ptr<KvWorkload>> workloads;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients;
  for (int i = 0; i < opt.clients; ++i) {
    auto& ch = env.AddHost("client" + std::to_string(i), "10.0.1." + std::to_string(1 + i),
                           RunHostOptions(opt.kind, /*client=*/true));
    KvWorkloadConfig wcfg = opt.workload;
    wcfg.seed = opt.workload.seed + 7919 * static_cast<std::uint64_t>(i + 1);
    workloads.push_back(std::make_unique<KvWorkload>(wcfg));
    if (posix) {
      clients.push_back(std::make_unique<PosixKvClient>(
          ch.kernel.get(), server, workloads.back().get(), opt.requests_per_client,
          opt.client_fragments, opt.fragment_gap_ns));
    } else {
      clients.push_back(std::make_unique<DemiKvClient>(
          RunLibOS(env, ch, opt.kind), server, workloads.back().get(),
          opt.requests_per_client));
    }
  }

  KvRunResult out;
  const TimeNs start = env.sim().now();
  out.ok = env.RunUntil(
      [&] { return std::ranges::all_of(clients, [](const auto& c) { return c->done(); }); },
      3600 * kSecond);
  out.elapsed = env.sim().now() - start;
  for (const auto& c : clients) {
    out.latency.Merge(c->latency());
    out.completed += c->completed();
    out.ok = out.ok && !c->failed();
  }
  out.server_requests = posix ? posix_server->served() : demi_server->served();
  out.incomplete_scans = posix ? posix_server->incomplete_scans() : 0;
  out.server_counters = sh.cpu->counters();
  out.server_cpu_ns = sh.cpu->busy_ns() - cpu0;
  return out;
}

}  // namespace demi::bench

#endif  // BENCH_RUNNERS_H_
