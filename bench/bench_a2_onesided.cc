// A2 — ablation/extension: one-sided RDMA GETs (Pilaf/FaRM-style, §6) vs the
// Demikernel's portable two-sided queue design (catmint).
//
// The paper: "the Demikernel targets applications that want the benefits of
// kernel-bypass and are willing to sacrifice access to hardware-specific features for
// portability." This bench measures exactly what is sacrificed (and what isn't):
// one-sided GETs skip the server CPU entirely, but couple every client to the server's
// memory layout, rkey, and slot geometry.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/runners.h"
#include "src/apps/onesided_kv.h"

namespace demi {
namespace {

struct OneSidedResult {
  Histogram latency;
  std::uint64_t server_cpu_per_get = 0;
  bool ok = false;
};

OneSidedResult RunOneSided(int num_gets) {
  TestHarness env;
  HostOptions opts;
  opts.with_rdma = true;
  opts.with_nic = false;
  opts.with_kernel = false;
  auto& sh = env.AddHost("server", "10.0.0.1", opts);
  HostOptions copts = opts;
  copts.charges_clock = false;
  auto& ch = env.AddHost("client", "10.0.0.2", copts);

  OneSidedKvServer server(sh.cpu.get(), sh.rdma.get(), "kv", 4096);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 512;
  wcfg.value_bytes = 64;
  KvWorkload loader(wcfg);
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    const RespCommand cmd = loader.LoadCommand(k);
    (void)server.Put(cmd[1], cmd[2]);  // tolerate rare collisions: skip
  }

  auto qp = ch.rdma->Connect("kv");
  env.RunUntil([&] { return qp->connected(); }, kSecond);
  (void)server.Accept();
  OneSidedKvClient client(ch.cpu.get(), ch.rdma.get(), qp, server.rkey(),
                          server.slots());

  const std::uint64_t server_cpu0 = sh.cpu->busy_ns();
  OneSidedResult out;
  out.ok = true;
  KvWorkload picker(wcfg);
  int hits = 0;
  for (int i = 0; i < num_gets; ++i) {
    const RespCommand cmd = picker.LoadCommand(static_cast<std::uint64_t>(i) %
                                               wcfg.num_keys);
    const TimeNs start = env.sim().now();
    auto v = client.Get(env.sim(), cmd[1]);
    if (v.ok()) {
      ++hits;
      out.latency.Record(static_cast<std::uint64_t>(env.sim().now() - start));
    }
  }
  out.server_cpu_per_get = (sh.cpu->busy_ns() - server_cpu0) / num_gets;
  out.ok = hits > num_gets * 9 / 10;  // collisions may drop a few keys at load time
  return out;
}

int Run() {
  bench::Header("A2", "one-sided RDMA GET vs portable two-sided queues (Section 6)",
                "hardware-specialized one-sided reads beat even the fastest portable "
                "design on latency and server CPU — the portability trade the "
                "Demikernel explicitly makes");
  CostModel cost;
  bench::PrintCostModel(cost);

  constexpr int kGets = 1500;
  const OneSidedResult onesided = RunOneSided(kGets);

  // The portable comparison: catmint GET over Demikernel queues (two-sided RPC).
  bench::KvRunOptions opt;
  opt.cost = cost;
  opt.kind = "catmint";
  opt.requests_per_client = kGets;
  opt.workload.num_keys = 512;
  opt.workload.get_ratio = 1.0;
  opt.workload.value_bytes = 64;
  auto twosided = bench::RunKv(opt);
  const std::uint64_t twosided_cpu =
      twosided.server_cpu_ns / std::max<std::uint64_t>(twosided.completed, 1);

  bench::Row("%-34s %12s %12s %16s\n", "design", "p50 ns", "p99 ns", "server cpu/GET");
  bench::Row("--------------------------------------------------------------------------------\n");
  bench::Row("%-34s %12llu %12llu %13llu ns\n", "one-sided READ (layout-coupled)",
             static_cast<unsigned long long>(onesided.latency.P50()),
             static_cast<unsigned long long>(onesided.latency.P99()),
             static_cast<unsigned long long>(onesided.server_cpu_per_get));
  bench::Row("%-34s %12llu %12llu %13llu ns\n", "catmint queues (portable)",
             static_cast<unsigned long long>(twosided.latency.P50()),
             static_cast<unsigned long long>(twosided.latency.P99()),
             static_cast<unsigned long long>(twosided_cpu));

  std::printf("\none-sided wins: no server CPU (%llu ns/GET) and no request "
              "processing in the RTT.\nwhat it costs: clients hard-code the slot "
              "layout, table size, and rkey — the hardware\ncoupling and engineering "
              "effort the paper's Section 1 warns about. catmint keeps the\n"
              "application portable across every libOS for a %.1fx latency premium.\n",
              static_cast<unsigned long long>(onesided.server_cpu_per_get),
              static_cast<double>(twosided.latency.P50()) /
                  static_cast<double>(onesided.latency.P50()));

  bench::Verdict(onesided.ok && twosided.ok &&
                     onesided.latency.P50() < twosided.latency.P50() &&
                     onesided.server_cpu_per_get < 100,
                 "one-sided GETs cost ~zero server CPU and less latency; the "
                 "Demikernel trades that for portability, as the paper states");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
