#include "src/sim/counters.h"

#include <cstdio>
#include <iterator>

namespace demi {

namespace {

// Indexed by Counter: one name per counter, in declaration order.
constexpr std::string_view kCounterNames[] = {
    "syscalls",
    "libos_calls",
    "copies",
    "bytes_copied",
    "interrupts",
    "context_switches",
    "wakeups",
    "spurious_wakeups",
    "packets_tx",
    "packets_rx",
    "packets_dropped",
    "retransmissions",
    "doorbells",
    "tx_bursts",
    "frames_per_doorbell",
    "delayed_acks",
    "acks_coalesced",
    "dma_ops",
    "mem_registrations",
    "bytes_pinned",
    "nvme_ops",
    "device_compute_ns",
    "host_cpu_ns",
    "kv_requests",
    "stream_scans",
    "faults_injected",
    "ops_failed",
    "link_flaps",
    "failovers",
    "fast_path_repromotions",
    "retries_attempted",
    "retry_giveups",
    "breaker_trips",
    "buffer_allocs",
    "header_pool_hits",
    "header_pool_misses",
    "capability_violations",
    "doorbells_throttled",
    "descriptors_throttled",
    "steal_attempts",
    "completions_stolen",
    "steal_aborts",
    "pushdown_chains",
    "pushdown_steps",
    "block_host_completions",
    "promotions",
    "demotions",
    "fastcall_crossings",
    "accepts_batched",
};
static_assert(std::size(kCounterNames) == kNumCounters, "one name per Counter");

}  // namespace

std::string_view CounterName(Counter c) {
  const auto i = static_cast<std::size_t>(c);
  return i < kNumCounters ? kCounterNames[i] : "?";
}

std::string Counters::Describe(std::string_view indent) const {
  std::string out;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (v_[i] == 0) {
      continue;
    }
    char line[128];
    std::snprintf(line, sizeof(line), "%.*s%s=%llu\n", static_cast<int>(indent.size()),
                  indent.data(), CounterName(static_cast<Counter>(i)).data(),
                  static_cast<unsigned long long>(v_[i]));
    out += line;
  }
  return out;
}

}  // namespace demi
