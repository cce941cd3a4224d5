// A1 — ablation: how robust are the paper's claims to the cost-model calibration?
//
// Three sweeps:
//   1. syscall cost: the kernel's echo-RTT penalty vs Catnip as crossings get cheaper
//      (the "can't we just make syscalls fast?" rebuttal — even at 0ns the kernel
//      stack + interrupt costs keep the gap open);
//   2. mTCP batch delay: where the mTCP-vs-kernel latency crossover sits (the §6 claim
//      holds whenever batching exceeds ~the syscall savings);
//   3. wire latency: as the network gets slower, the host-side advantage of
//      kernel-bypass shrinks relative to end-to-end RTT (datacenter-scale wires are
//      exactly where the paper's argument bites).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("A1", "cost-model sensitivity ablation",
                "the architectural orderings (catnip < kernel < mtcp; bypass wins) "
                "hold across wide cost-model ranges, not just at the calibration point");

  constexpr std::uint64_t kRequests = 800;
  constexpr std::size_t kMsg = 64;

  std::printf("sweep 1: syscall crossing cost (kernel path) — 64B echo RTT p50 (ns)\n\n");
  bench::Row("%-14s %12s %12s %10s\n", "syscall ns", "kernel", "catnip", "ratio");
  bool kernel_always_slower = true;
  for (const TimeNs syscall_ns : {0L, 100L, 250L, 500L, 1000L, 2000L}) {
    CostModel cost;
    cost.syscall_ns = syscall_ns;
    auto kernel = bench::RunEcho("posix", kMsg, kRequests, cost);
    auto catnip = bench::RunEcho("catnip", kMsg, kRequests, cost);
    const double ratio = static_cast<double>(kernel.latency.P50()) /
                         static_cast<double>(catnip.latency.P50());
    bench::Row("%-14lld %12llu %12llu %9.2fx\n", static_cast<long long>(syscall_ns),
               static_cast<unsigned long long>(kernel.latency.P50()),
               static_cast<unsigned long long>(catnip.latency.P50()), ratio);
    kernel_always_slower = kernel_always_slower && ratio > 1.0;
  }
  std::printf("\n-> even with FREE syscalls the kernel path loses: its stack runs at "
              "kernel cost and\n   its receive path is interrupt-driven. The syscall "
              "is only part of the tax (Section 3.1).\n\n");

  std::printf("sweep 2: mTCP batch delay — where the Section 6 claim holds\n\n");
  bench::Row("%-14s %12s %12s %14s\n", "batch ns", "mtcp p50", "kernel p50",
             "mtcp slower?");
  TimeNs crossover = -1;
  for (const TimeNs batch : {0L, 1000L, 2000L, 4000L, 8000L, 16000L}) {
    CostModel cost;
    cost.mtcp_batch_delay_ns = batch;
    auto mtcp = bench::RunEcho("mtcp", kMsg, kRequests, cost);
    auto kernel = bench::RunEcho("posix", kMsg, kRequests, cost);
    const bool slower = mtcp.latency.P50() > kernel.latency.P50();
    bench::Row("%-14lld %12llu %12llu %14s\n", static_cast<long long>(batch),
               static_cast<unsigned long long>(mtcp.latency.P50()),
               static_cast<unsigned long long>(kernel.latency.P50()),
               slower ? "yes" : "no");
    if (!slower) {
      crossover = batch;
    }
  }
  std::printf("\n-> with batching disabled mTCP beats the kernel (it IS a user-level "
              "stack); with its\n   real batched design it loses — the paper's point "
              "is that the POSIX API forces that design.\n\n");

  std::printf("sweep 3: wire latency — how much of the RTT the host can still save\n\n");
  bench::Row("%-14s %12s %12s %10s\n", "wire ns", "kernel", "catnip", "ratio");
  double ratio_fast = 0, ratio_slow = 0;
  for (const TimeNs wire : {200L, 1000L, 5000L, 20000L, 100000L}) {
    CostModel cost;
    cost.wire_latency_ns = wire;
    auto kernel = bench::RunEcho("posix", kMsg, kRequests, cost);
    auto catnip = bench::RunEcho("catnip", kMsg, kRequests, cost);
    const double ratio = static_cast<double>(kernel.latency.P50()) /
                         static_cast<double>(catnip.latency.P50());
    bench::Row("%-14lld %12llu %12llu %9.2fx\n", static_cast<long long>(wire),
               static_cast<unsigned long long>(kernel.latency.P50()),
               static_cast<unsigned long long>(catnip.latency.P50()), ratio);
    if (wire == 200) {
      ratio_fast = ratio;
    }
    if (wire == 100000) {
      ratio_slow = ratio;
    }
  }
  std::printf("\n-> the bypass advantage is %.2fx at 200ns wires but only %.2fx at "
              "100us wires: the faster\n   the network, the more the host software is "
              "the bottleneck — the paper's opening trend.\n",
              ratio_fast, ratio_slow);

  bench::Verdict(kernel_always_slower && crossover >= 0 && ratio_fast > ratio_slow,
                 "orderings persist across the sweeps, and the crossovers land where "
                 "the architecture predicts");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
