// C1 — §3.2's copy claim: "copying a 4KB page takes 1µs on a 4GHz CPU, adding 50%
// overhead to Redis" (which spends ~2µs of CPU per request).
//
// GET-heavy KV over the POSIX path (kernel copies on both read and write) vs Catnip
// (zero copy), sweeping the value size. We report server CPU per request and the copy
// share, and check the 4KB row against the paper's arithmetic.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("C1", "copy overhead vs value size (Section 3.2)",
                "a 4KB copy costs ~1us at 4GHz; on a ~2us Redis request the POSIX "
                "copies add ~50% overhead, growing with value size");
  CostModel cost;
  bench::PrintCostModel(cost);

  bench::Row("%-8s | %-10s %-12s %-12s | %-10s %-12s %-10s | %-9s\n", "value", "posix",
             "posix", "copy", "catnip", "catnip", "catnip", "copy-tax");
  bench::Row("%-8s | %-10s %-12s %-12s | %-10s %-12s %-10s | %-9s\n", "bytes",
             "cpu/req", "p50 rtt", "ns/req", "cpu/req", "p50 rtt", "copies", "vs app");
  bench::Row("--------------------------------------------------------------------------------------------\n");

  bool shape_ok = true;
  double copy_tax_4k = 0;
  for (const std::size_t value_bytes : {64u, 512u, 1024u, 4096u, 16384u}) {
    bench::KvRunOptions opt;
    opt.cost = cost;
    opt.requests_per_client = 1500;
    opt.workload.num_keys = 500;
    opt.workload.get_ratio = 1.0;  // pure GET: reply carries the value
    opt.workload.value_bytes = value_bytes;

    opt.kind = "posix";
    auto posix = bench::RunKv(opt);
    opt.kind = "catnip";
    auto catnip = bench::RunKv(opt);

    const double n = static_cast<double>(posix.completed);
    const double posix_cpu = static_cast<double>(posix.server_cpu_ns) / n;
    const double copy_ns =
        static_cast<double>(posix.server_counters.Get(Counter::kBytesCopied)) *
        cost.copy_ns_per_byte / n;
    const double catnip_cpu =
        static_cast<double>(catnip.server_cpu_ns) / static_cast<double>(catnip.completed);
    const double copy_tax = copy_ns / static_cast<double>(cost.kv_request_cpu_ns);

    bench::Row("%-8zu | %7.0f ns %9llu ns %9.0f ns | %7.0f ns %9llu ns %10llu | %8.0f%%\n",
               value_bytes, posix_cpu,
               static_cast<unsigned long long>(posix.latency.P50()), copy_ns, catnip_cpu,
               static_cast<unsigned long long>(catnip.latency.P50()),
               static_cast<unsigned long long>(
                   catnip.server_counters.Get(Counter::kBytesCopied)),
               copy_tax * 100.0);

    shape_ok = shape_ok && posix.ok && catnip.ok &&
               catnip.server_counters.Get(Counter::kBytesCopied) == 0 &&
               posix_cpu > catnip_cpu;
    if (value_bytes == 4096) {
      copy_tax_4k = copy_tax;
    }
  }

  std::printf("\npaper arithmetic at 4KB: copy ~1000ns on a %lld ns request = ~50%%; "
              "measured copy tax: %.0f%%\n",
              static_cast<long long>(cost.kv_request_cpu_ns), copy_tax_4k * 100.0);
  std::printf("(POSIX pays the copy twice per GET — request in, 4KB reply out — so "
              "the end-to-end overhead exceeds the single-copy figure.)\n");

  // The per-GET reply copy alone should be ~45-60% of the app's 2us.
  shape_ok = shape_ok && copy_tax_4k > 0.45;
  bench::Verdict(shape_ok, "catnip copies zero bytes at every size; POSIX copy cost "
                           "grows linearly and reaches ~50%+ of app time at 4KB");
  return 0;
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
