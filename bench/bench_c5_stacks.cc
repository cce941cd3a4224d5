// C5 — §6's stack comparison: "We explored mTCP but found it to be too expensive; for
// example, its latency was higher than the Linux kernel's." Catnip, by dropping the
// POSIX abstraction rather than just the kernel, beats both.
//
// Echo RTT at several message sizes: legacy kernel vs mTCP-style user stack (POSIX
// API preserved: copies + batching) vs Catnip (Demikernel queues, zero copy).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("C5", "kernel vs mTCP-style vs Catnip echo RTT (Section 6)",
                "keeping the POSIX API on a user-level stack (mTCP) yields WORSE "
                "latency than the kernel; the new abstraction is what wins");
  CostModel cost;
  bench::PrintCostModel(cost);

  constexpr std::uint64_t kRequests = 1500;
  bench::Row("%-8s | %-12s %-12s | %-12s %-12s | %-12s %-12s\n", "msg", "kernel",
             "kernel", "mtcp", "mtcp", "catnip", "catnip");
  bench::Row("%-8s | %-12s %-12s | %-12s %-12s | %-12s %-12s\n", "bytes", "p50 ns",
             "p99 ns", "p50 ns", "p99 ns", "p50 ns", "p99 ns");
  bench::Row("------------------------------------------------------------------------------------\n");

  bool shape_ok = true;
  double ratio_mtcp_kernel = 0;
  double ratio_kernel_catnip = 0;
  for (const std::size_t msg : {64u, 512u, 1024u, 1408u}) {
    auto kernel = bench::RunEcho("posix", msg, kRequests, cost);
    auto mtcp = bench::RunEcho("mtcp", msg, kRequests, cost);
    auto catnip = bench::RunEcho("catnip", msg, kRequests, cost);
    bench::Row("%-8zu | %12llu %12llu | %12llu %12llu | %12llu %12llu\n", msg,
               static_cast<unsigned long long>(kernel.latency.P50()),
               static_cast<unsigned long long>(kernel.latency.P99()),
               static_cast<unsigned long long>(mtcp.latency.P50()),
               static_cast<unsigned long long>(mtcp.latency.P99()),
               static_cast<unsigned long long>(catnip.latency.P50()),
               static_cast<unsigned long long>(catnip.latency.P99()));
    shape_ok = shape_ok && kernel.ok && mtcp.ok && catnip.ok &&
               mtcp.latency.P50() > kernel.latency.P50() &&
               catnip.latency.P50() < kernel.latency.P50();
    if (msg == 64) {
      ratio_mtcp_kernel = static_cast<double>(mtcp.latency.P50()) /
                          static_cast<double>(kernel.latency.P50());
      ratio_kernel_catnip = static_cast<double>(kernel.latency.P50()) /
                            static_cast<double>(catnip.latency.P50());
    }
  }

  std::printf("\nat 64B: mTCP RTT = %.2fx the kernel's (its batching delay dominates "
              "unloaded latency);\n        kernel RTT = %.2fx Catnip's.\n",
              ratio_mtcp_kernel, ratio_kernel_catnip);
  std::printf("mTCP removed the syscalls but kept the abstraction; Catnip removed the "
              "abstraction too.\n");
  bench::Verdict(shape_ok,
                 "mtcp > kernel > catnip in RTT at every size (the paper's ordering)");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
