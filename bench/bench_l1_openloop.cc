// L1 — open-loop million-connection load harness with SLO-grade tail reporting.
//
// The claim, a prerequisite for credible "is the OS dead?" load experiments: an
// open-loop sweep over offered load traces the classic throughput-vs-tail curve.
// Achieved throughput tracks offered load until the server saturates, and p99/p99.9
// latency explodes past the knee. Latency is measured from the *intended* send time
// (the arrival-timer due time), so queueing anywhere in the pipeline — including the
// client-side backlog — lands in the tail (no coordinated omission).
//
// Environment:
//   BENCH_SMOKE=1         10^4 connections and fewer sweep points (ctest smoke);
//                         default is the full 10^6-connection sweep.
//   BENCH_METRICS_DIR     where to drop bench_l1_openloop.metrics.json, the sweep
//                         json (run_benches.sh assembles BENCH_openloop.json from
//                         it).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/load/open_loop_runner.h"
#include "src/sim/simulation.h"

namespace demi {
namespace {

double WallNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

std::string Json(const std::vector<SweepPoint>& sweep, const OpenLoopConfig& cfg,
                 bool ramp_ok) {
  char buf[512];
  std::string j = "{\n  \"config\": {";
  std::snprintf(buf, sizeof(buf),
                "\"connections\": %zu, \"client_stacks\": %zu, \"server_ports\": %zu, "
                "\"server_work_ns\": %llu, \"seed\": %llu, \"ramp_ok\": %s",
                cfg.connections, cfg.client_stacks, cfg.server_ports,
                static_cast<unsigned long long>(cfg.server_work_per_request_ns),
                static_cast<unsigned long long>(cfg.seed), ramp_ok ? "true" : "false");
  j += buf;
  j += "},\n  \"sweep\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"offered_rps\": %.0f, \"achieved_rps\": %.0f, \"issued\": %llu, "
        "\"completed\": %llu, \"latency_ns\": {\"p50\": %llu, \"p99\": %llu, "
        "\"p999\": %llu, \"mean\": %.0f, \"max\": %llu}}",
        i ? "," : "", p.offered_rps, p.achieved_rps,
        static_cast<unsigned long long>(p.issued),
        static_cast<unsigned long long>(p.completed),
        static_cast<unsigned long long>(p.latency.p50),
        static_cast<unsigned long long>(p.latency.p99),
        static_cast<unsigned long long>(p.latency.p999), p.latency.mean,
        static_cast<unsigned long long>(p.latency.max));
    j += buf;
  }
  j += "\n  ]\n}\n";
  return j;
}

int Run() {
  const bool smoke = []() {
    const char* s = std::getenv("BENCH_SMOKE");
    return s != nullptr && s[0] == '1';
  }();

  bench::Header("L1", "open-loop load harness: offered-load sweep",
                "the sweep shows throughput tracking offered load to the knee and the "
                "p99/p99.9 tail exploding past it");

  OpenLoopConfig cfg;
  cfg.connections = smoke ? 10'000 : 1'000'000;
  cfg.client_stacks = 8;
  cfg.server_ports = 64;
  cfg.server_work_per_request_ns = 500;
  cfg.workload.request_bytes = 64;
  cfg.seed = 1;

  // Rates bracket the server's service capacity (~500ns app work + per-packet
  // stack costs put the knee in the high hundreds of krps); the last point is
  // deliberately past it so the tail blow-up is on the curve.
  const std::vector<double> rates =
      smoke ? std::vector<double>{25'000, 100'000, 400'000, 1'200'000}
            : std::vector<double>{50'000, 100'000, 200'000, 400'000, 800'000,
                                  1'600'000};
  const TimeNs warmup = smoke ? 5 * kMillisecond : 20 * kMillisecond;
  const TimeNs measure = smoke ? 20 * kMillisecond : 50 * kMillisecond;

  std::printf("\nramping %zu connections over %zu client stacks x %zu server ports "
              "(batch %zu)...\n",
              cfg.connections, cfg.client_stacks, cfg.server_ports, cfg.ramp_batch);
  const double ramp_t0 = WallNs();
  OpenLoopRunner runner(cfg);
  const bool ramp_ok = runner.Ramp();
  std::printf("ramp: %s, %zu established / %llu accepted (%.1fs wall)\n\n",
              ramp_ok ? "ok" : "FAILED", runner.established_connections(),
              static_cast<unsigned long long>(runner.accepted_connections()),
              (WallNs() - ramp_t0) / 1e9);

  std::vector<SweepPoint> sweep;
  bench::Row("%14s %14s %10s %10s %10s %10s %10s\n", "offered rps", "achieved rps",
             "p50 us", "p99 us", "p99.9 us", "max us", "completed");
  bench::Row("-----------------------------------------------------------------"
             "-----------------\n");
  for (double rate : rates) {
    SweepPoint pt = runner.RunPoint(rate, warmup, measure);
    bench::Row("%14.0f %14.0f %10.1f %10.1f %10.1f %10.1f %10llu\n", pt.offered_rps,
               pt.achieved_rps, static_cast<double>(pt.latency.p50) / 1e3,
               static_cast<double>(pt.latency.p99) / 1e3,
               static_cast<double>(pt.latency.p999) / 1e3,
               static_cast<double>(pt.latency.max) / 1e3,
               static_cast<unsigned long long>(pt.completed));
    sweep.push_back(pt);
  }
  runner.StopLoad();

  bench::WriteMetricsFile("bench_l1_openloop", Json(sweep, cfg, ramp_ok));

  // Shape checks. The first point must be comfortably under the knee and the last
  // comfortably past it; in between the curve must behave like an open-loop system:
  // achieved throughput tracks offered load until saturation, then plateaus while
  // the tail explodes.
  const SweepPoint& lo = sweep.front();
  const SweepPoint& hi = sweep.back();
  const bool under_knee_tracks = lo.achieved_rps > 0.85 * lo.offered_rps;
  const bool saturates = hi.achieved_rps < 0.9 * hi.offered_rps;
  const bool tail_explodes = hi.latency.p99 > 8 * lo.latency.p99;
  const bool tail_ordered = hi.latency.p999 >= hi.latency.p99 &&
                            hi.latency.p99 >= hi.latency.p50;
  bench::Verdict(ramp_ok && under_knee_tracks && saturates && tail_explodes &&
                     tail_ordered,
                 "throughput tracks offered load to the knee; p99/p99.9 blows up "
                 "past saturation");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
