// E1 — SOSP'21-style headline: echo RTT for the same Demikernel application over
// every library OS, against the POSIX baseline. The application code is IDENTICAL
// across Catnap/Catnip/Catmint — only the libOS (and thus the device) changes, which
// is the portability claim of the paper's abstract.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/echo_runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("E1", "echo RTT across library OSes (SOSP'21-style headline)",
                "every Demikernel libOS beats the POSIX baseline; RDMA (catmint) has "
                "the lowest latency; catnap pays kernel costs and only buys portability");
  CostModel cost;
  bench::PrintCostModel(cost);

  constexpr std::uint64_t kRequests = 2000;
  constexpr std::size_t kMsg = 64;

  struct Line {
    const char* key;  // metrics-export key (RunEcho kind)
    const char* name;
    const char* substrate;
    bench::EchoRun run;
  };
  Line lines[] = {
      {"posix", "posix (baseline)", "kernel TCP + epoll",
       bench::RunEcho("posix", kMsg, kRequests, cost)},
      {"catnap", "catnap", "kernel sockets", bench::RunEcho("catnap", kMsg, kRequests, cost)},
      {"catnip", "catnip", "DPDK-style NIC + user TCP",
       bench::RunEcho("catnip", kMsg, kRequests, cost)},
      {"catmint", "catmint", "RDMA verbs", bench::RunEcho("catmint", kMsg, kRequests, cost)},
  };

  bench::Row("%-18s %-26s %10s %10s %10s %9s %10s %9s %9s\n", "libOS", "substrate",
             "p50 ns", "p99 ns", "mean ns", "sys/req", "copyB/req", "dbell/req",
             "pkts/req");
  bench::Row("--------------------------------------------------------------------------------------------------------------------\n");
  const double n = static_cast<double>(kRequests);
  const auto server_packets_per_req = [&](const Line& line) {
    return static_cast<double>(line.run.server_counters.Get(Counter::kPacketsTx) +
                               line.run.server_counters.Get(Counter::kPacketsRx)) /
           n;
  };
  for (const Line& line : lines) {
    // Doorbells and packets per request on the server: the doorbell-coalescing and
    // delayed-ACK win shows up here as fewer MMIOs and fewer wire packets for the
    // same request count.
    bench::Row("%-18s %-26s %10llu %10llu %10.0f %9.1f %10.0f %9.2f %9.2f\n", line.name,
               line.substrate, static_cast<unsigned long long>(line.run.latency.P50()),
               static_cast<unsigned long long>(line.run.latency.P99()),
               line.run.latency.mean(),
               static_cast<double>(line.run.server_counters.Get(Counter::kSyscalls)) / n,
               static_cast<double>(line.run.server_counters.Get(Counter::kBytesCopied)) / n,
               static_cast<double>(line.run.server_counters.Get(Counter::kDoorbells)) / n,
               server_packets_per_req(line));
  }

  // One metrics snapshot per run (each RunEcho owns a private simulation), keyed by
  // the libOS kind, so the bench harness can fold per-op latency quantiles into
  // BENCH_datapath.json.
  std::string metrics = "{";
  bool first = true;
  for (const Line& line : lines) {
    metrics += first ? "\"" : ",\"";
    first = false;
    metrics += line.key;
    metrics += "\":";
    metrics += line.run.metrics.ToJson();
  }
  metrics += "}";
  bench::WriteMetricsFile("bench_e1_echo", metrics);

  const auto p50 = [&](int i) { return lines[i].run.latency.P50(); };
  const bool all_ok =
      lines[0].run.ok && lines[1].run.ok && lines[2].run.ok && lines[3].run.ok;
  const bool ordering = p50(3) < p50(2) && p50(2) < p50(0) &&  // catmint < catnip < posix
                        p50(1) <= p50(0) * 12 / 10;            // catnap ~ posix (10-20%)
  // One push, one write: a 64 B echo costs the Catnip server one request frame, one
  // reply frame and at most one ACK. A writer that sends each part of an element (the
  // length header, then each segment) as its own TCP segment doubles that.
  const bool gathered = server_packets_per_req(lines[2]) <= 3.0;

  std::printf("\ncatnap tracks the baseline (it still pays syscalls+copies — it buys "
              "portability, not speed);\ncatnip beats the kernel by %.1fx; catmint's "
              "NIC-offloaded transport is lowest at %.1fx.\n",
              static_cast<double>(p50(0)) / static_cast<double>(p50(2)),
              static_cast<double>(p50(0)) / static_cast<double>(p50(3)));
  bench::Verdict(all_ok && ordering && gathered,
                 "catmint < catnip < posix ~ catnap in RTT, same application code; "
                 "catnip server <= 3 packets per echo");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
