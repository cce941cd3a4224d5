// E2 — SOSP'21-style headline: a Redis-like KV store (90% GET, Zipf keys) over every
// library OS vs the POSIX baseline, sweeping the closed-loop client count for a
// throughput/latency picture.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("E2", "KV store throughput/latency across library OSes",
                "the Demikernel KV server outperforms the POSIX baseline in both "
                "throughput and latency; the application code is identical across "
                "libOSes");
  CostModel cost;
  bench::PrintCostModel(cost);

  KvWorkloadConfig wcfg;
  wcfg.num_keys = 2000;
  wcfg.get_ratio = 0.9;
  wcfg.zipf_theta = 0.99;
  wcfg.value_bytes = 256;

  std::printf("90%% GET / 10%% SET, zipf(0.99) over %llu keys, 256B values\n\n",
              static_cast<unsigned long long>(wcfg.num_keys));
  bench::Row("%-9s %-9s | %12s %10s %10s %10s\n", "libOS", "clients", "req/s", "p50 ns",
             "p99 ns", "cpu/req");
  bench::Row("--------------------------------------------------------------------\n");

  bool shape_ok = true;
  double posix_peak = 0, catnip_peak = 0, catmint_p50_1 = 0, posix_p50_1 = 0;
  for (const char* kind : {"posix", "catnap", "catnip", "catmint"}) {
    for (const int clients : {1, 4, 8}) {
      bench::KvRunOptions opt;
      opt.cost = cost;
      opt.kind = kind;
      opt.clients = clients;
      opt.requests_per_client = 1200 / clients + 200;
      opt.workload = wcfg;
      auto r = bench::RunKv(opt);
      const double cpu_per_req =
          static_cast<double>(r.server_cpu_ns) / static_cast<double>(r.completed);
      bench::Row("%-9s %-9d | %12.0f %10llu %10llu %10.0f\n", kind, clients,
                 r.throughput_rps(), static_cast<unsigned long long>(r.latency.P50()),
                 static_cast<unsigned long long>(r.latency.P99()), cpu_per_req);
      shape_ok = shape_ok && r.ok;
      if (std::string(kind) == "posix" && clients == 8) {
        posix_peak = r.throughput_rps();
      }
      if (std::string(kind) == "catnip" && clients == 8) {
        catnip_peak = r.throughput_rps();
      }
      if (std::string(kind) == "catmint" && clients == 1) {
        catmint_p50_1 = static_cast<double>(r.latency.P50());
      }
      if (std::string(kind) == "posix" && clients == 1) {
        posix_p50_1 = static_cast<double>(r.latency.P50());
      }
    }
    bench::Row("--------------------------------------------------------------------\n");
  }

  std::printf("\npeak throughput: catnip/posix = %.2fx; unloaded latency: "
              "posix/catmint = %.2fx\n",
              catnip_peak / posix_peak, posix_p50_1 / catmint_p50_1);
  bench::Verdict(shape_ok && catnip_peak > 1.3 * posix_peak &&
                     catmint_p50_1 < posix_p50_1,
                 "kernel-bypass libOSes deliver higher peak throughput and lower "
                 "latency than the POSIX baseline for the same application");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
