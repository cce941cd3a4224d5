// apibench: one command that drives a workload through the Demikernel API, checks
// every answer, and prints every metric by name with its unit.
//
//   apibench --workload kv-zipf --seed 1 --seconds 10 --trace 0
//            --set ref_rps=100000 --set slo_us=200 --set warmup=2000 ...
//
// A workload's shape is fixed in its rig; the settings (--set, from
// workloads.json) are its calibrated rates and latency limit and the window
// sizes. Every setting a workload uses must be given; none has a default.
//
// One run builds a fresh set of simulated hosts for every window it measures:
//   1. the reference window at the workload's fixed rate gives the latency
//      quantiles, the per-request server CPU and every per-layer count;
//   2. the rate ladder gives the highest rate that meets the latency limit;
//   3. the overload window (~2x the knee) gives goodput under overload;
//   4. with --trace 1, the reference window again with spans recorded; its
//      simulated results must equal the untraced reference exactly, and the
//      per-layer metrics come from it;
//   5. short windows at the reference rate are repeated until --seconds of
//      process CPU have passed; each must reproduce the first one's completion
//      digest, and the simulator speed is the upper quartile over them. Traced
//      runs alternate traced and untraced windows to measure tracing overhead.
// The last line of standard output is one JSON object with the result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apibench/src/driver.h"
#include "apibench/src/trace.h"
#include "src/sim/cost_model.h"

namespace apibench {
namespace {

// Spans written to the trace file (the rest stay counted in memory only).
constexpr std::size_t kSpansWritten = 200000;
// How long a window waits after its last arrival for the answers.
constexpr TimeNs kDrainNs = 60 * demi::kSecond;

using Settings = std::map<std::string, std::string>;

// Returns why `s` is not a complete, known set of settings, or "" if it is.
// The ladder and the overload window are optional; each needs its window size.
std::string CheckSettings(const Settings& s) {
  static const char* const kKnown[] = {"ref_rps",        "slo_us",          "warmup",
                                       "measured",       "speed_measured",  "ladder",
                                       "ladder_measured", "overload_rps",   "overload_measured"};
  for (const auto& [key, value] : s) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) == std::end(kKnown)) {
      return "unknown setting '" + key + "'";
    }
  }
  std::vector<std::string> required = {"ref_rps", "slo_us", "warmup", "measured",
                                       "speed_measured"};
  if (s.count("ladder") != 0) {
    required.push_back("ladder_measured");
  }
  if (s.count("overload_rps") != 0) {
    required.push_back("overload_measured");
  }
  for (const std::string& key : required) {
    if (s.count(key) == 0) {
      return "missing setting '" + key + "'";
    }
  }
  return "";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  Settings settings;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::vector<double> ParseList(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) {
      end = s.size();
    }
    if (end > pos) {
      out.push_back(std::strtod(s.substr(pos, end - pos).c_str(), nullptr));
    }
    pos = end + 1;
  }
  return out;
}

// Nearest-rank quantile of an unsorted sample, in ns.
double Quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The simulator's speed over a run: the upper quartile of its windows, so a
// transient slowdown of the shared machine during a few windows does not move it.
double UpperQuartile(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = 0.75 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<std::int64_t> RequestLatencies(const WindowResult& w) {
  std::vector<std::int64_t> all = w.latency_ns[kRead];
  all.insert(all.end(), w.latency_ns[kWrite].begin(), w.latency_ns[kWrite].end());
  return all;
}

// p99 over every measured request, counting failed and unanswered requests as
// missing any limit.
double P99WithMisses(const WindowResult& w) {
  std::vector<std::int64_t> all = RequestLatencies(w);
  for (std::uint64_t i = 0; i < w.failed + w.unanswered; ++i) {
    all.push_back(INT64_MAX);
  }
  return Quantile(std::move(all), 0.99);
}

double BusyRatioMax(const WindowResult& w) {
  const double elapsed = static_cast<double>(w.after.at - w.before.at);
  double best = 0;
  for (std::size_t i = 0; i < w.after.busy_ns.size(); ++i) {
    best = std::max(best, static_cast<double>(w.after.busy_ns[i] - w.before.busy_ns[i]) /
                              std::max(elapsed, 1.0));
  }
  return best;
}

class Bench {
 public:
  explicit Bench(Options opt) : opt_(std::move(opt)) {}

  int Run();

 private:
  // A numeric setting; CheckSettings has made sure every one used is given.
  double S(const std::string& key) const {
    return std::strtod(opt_.settings.at(key).c_str(), nullptr);
  }
  bool Has(const std::string& key) const { return opt_.settings.count(key) != 0; }

  std::unique_ptr<Rig> NewRig() const {
    if (opt_.workload == "kv-zipf") {
      return MakeKvRig(opt_.seed);
    }
    if (opt_.workload == "echo-skew-4w") {
      return MakeEchoRig(opt_.seed);
    }
    if (opt_.workload == "storage-mixed") {
      return MakeStorageRig(opt_.seed);
    }
    if (opt_.workload == "churn-recovery") {
      return MakeChurnRig(opt_.seed);
    }
    return nullptr;
  }

  // Builds a fresh rig and measures one window at `rps`.
  WindowResult RunWindow(double rps, std::uint64_t measured, bool traced, bool full_checks,
                         std::unique_ptr<Tracer>* tracer_out);

  void Emit(std::vector<Metric>* out, const std::string& name, double value,
            const std::string& unit) {
    out->push_back(Metric{name, value, unit});
  }
  std::vector<Metric> LayerMetrics(const WindowResult& ref, const Tracer& tracer,
                                   const WindowResult& knee, double overhead);

  Options opt_;
  std::vector<double> setups_;
};

WindowResult Bench::RunWindow(double rps, std::uint64_t measured, bool traced,
                              bool full_checks, std::unique_ptr<Tracer>* tracer_out) {
  std::unique_ptr<Rig> rig = NewRig();
  const double cpu0 = ProcessCpuSeconds();
  rig->Setup();
  const double cpu1 = ProcessCpuSeconds();

  WindowSpec spec;
  spec.offered_rps = rps;
  spec.warmup = static_cast<std::uint64_t>(S("warmup"));
  spec.measured = measured;
  spec.drain_ns = kDrainNs;
  Driver driver(rig->sim(), opt_.seed, spec);
  const std::vector<Stream> streams = rig->Streams(&driver);
  driver.result().before = rig->Sample();

  std::unique_ptr<Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<Tracer>(&rig->sim());
    g_tracer = tracer.get();
  }
  const double cpu2 = ProcessCpuSeconds();
  driver.Run(streams);
  const double cpu3 = ProcessCpuSeconds();
  g_tracer = nullptr;

  WindowResult& r = driver.result();
  r.after = rig->Sample();
  r.setup_cpu_s = cpu1 - cpu0;
  r.run_cpu_s = cpu3 - cpu2;
  rig->Finish(r, full_checks);
  if (tracer_out != nullptr) {
    *tracer_out = std::move(tracer);
  }
  setups_.push_back(r.setup_cpu_s);
  return std::move(r);
}

std::vector<Metric> Bench::LayerMetrics(const WindowResult& ref, const Tracer& tracer,
                                        const WindowResult& knee, double overhead) {
  std::vector<Metric> m;
  using demi::Counter;
  const double reqs = std::max<double>(1.0, static_cast<double>(ref.window_completed));
  const demi::Counters& a = ref.after.counters;
  const demi::Counters& b = ref.before.counters;
  auto d = [&](Counter c) { return static_cast<double>(a.Get(c) - b.Get(c)); };
  auto per_req = [&](Counter c) { return d(c) / reqs; };
  const demi::MetricsSnapshot snap =
      demi::MetricsRegistry::Delta(ref.after.metrics, ref.before.metrics);
  auto extra = [&](const std::string& key) {
    auto it = ref.extra.find(key);
    return it == ref.extra.end() ? 0.0 : it->second;
  };
  const std::map<std::string, Tracer::Totals> by_name = tracer.ByName();
  const std::map<std::string, Tracer::Totals> by_layer = tracer.ByLayer();
  auto span_total = [&](const std::string& name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? Tracer::Totals{} : it->second;
  };
  const double traced_reqs = std::max(1.0, extra("trace.window_completed"));

  // driver
  Emit(&m, "driver.send_lateness_max_ns", static_cast<double>(ref.lateness_max_ns), "ns");
  Emit(&m, "driver.client_backlog_max", static_cast<double>(ref.backlog_max), "count");

  // per-layer self time from the spans (sim and apps are reported below under
  // the names of their own sections)
  for (const char* layer : {"driver", "core", "memory"}) {
    auto it = by_layer.find(layer);
    const Tracer::Totals t = it == by_layer.end() ? Tracer::Totals{} : it->second;
    Emit(&m, std::string(layer) + ".self_cpu_ns_per_req", t.self_cpu_ns / traced_reqs, "ns");
    Emit(&m, std::string(layer) + ".self_sim_ns_per_req", t.self_sim_ns / traced_reqs, "ns");
  }

  // apps: KvEngine::Execute plus RESP parse/encode, per request (these spans
  // have no children, so this is also the apps layer's self time)
  {
    double sim_ns = 0;
    double cpu_ns = 0;
    for (const char* name : {"apps.parse", "apps.execute", "apps.encode"}) {
      const Tracer::Totals t = span_total(name);
      sim_ns += t.sim_ns;
      cpu_ns += t.cpu_ns;
    }
    Emit(&m, "apps.sim_ns_per_req", sim_ns / traced_reqs, "ns");
    Emit(&m, "apps.cpu_ns_per_req", cpu_ns / traced_reqs, "ns");
  }

  // core: server-loop calls, bracketed
  for (const char* op : {"push", "pop", "accept", "close"}) {
    const Tracer::Totals t = span_total(std::string("core.") + op);
    const double calls = std::max<double>(1.0, static_cast<double>(t.calls));
    Emit(&m, std::string("core.") + op + ".sim_ns_per_call", t.sim_ns / calls, "ns");
    Emit(&m, std::string("core.") + op + ".cpu_ns_per_call", t.cpu_ns / calls, "ns");
  }
  // core: per-libOS qtoken latency from the metrics registry (clients included)
  static const char* kOps[] = {"push", "pop", "accept", "connect"};
  for (const char* libos : {"catnip", "catnap", "catfish"}) {
    auto it = snap.op_latency.find(libos);
    for (std::size_t op = 0; op < demi::kNumOpKinds; ++op) {
      double p50 = 0;
      double p99 = 0;
      if (it != snap.op_latency.end()) {
        p50 = static_cast<double>(it->second[op].P50());
        p99 = static_cast<double>(it->second[op].P99());
      }
      Emit(&m, std::string("core.") + libos + "." + kOps[op] + "_p50_ns", p50, "ns");
      Emit(&m, std::string("core.") + libos + "." + kOps[op] + "_p99_ns", p99, "ns");
    }
  }
  Emit(&m, "core.libos_calls_per_req", per_req(Counter::kLibosCalls), "count");
  Emit(&m, "core.wakeups_per_req", per_req(Counter::kWakeups), "count");
  Emit(&m, "core.spurious_wakeups_per_req", per_req(Counter::kSpuriousWakeups), "count");
  Emit(&m, "core.ready_ring_depth_p99",
       static_cast<double>(
           snap.sim_stats[static_cast<std::size_t>(demi::SimStat::kReadyRingDepth)].P99()),
       "count");
  Emit(&m, "core.pending_ops_end", extra("core.pending_ops_end"), "count");
  const double attempts = d(Counter::kStealAttempts);
  const double stolen = d(Counter::kCompletionsStolen);
  Emit(&m, "core.smp.steal_attempts_per_req", attempts / reqs, "count");
  Emit(&m, "core.smp.stolen_per_req", stolen / reqs, "count");
  Emit(&m, "core.smp.steal_hit_ratio", attempts > 0 ? stolen / attempts : 0.0, "ratio");
  Emit(&m, "core.smp.worker_served_max_over_mean", extra("core.smp.worker_served_max_over_mean"),
       "ratio");
  Emit(&m, "core.recovery.promotions", d(Counter::kPromotions), "count");
  Emit(&m, "core.recovery.demotions", d(Counter::kDemotions), "count");
  Emit(&m, "core.recovery.failovers", d(Counter::kFailovers), "count");
  Emit(&m, "core.recovery.retries", d(Counter::kRetriesAttempted), "count");
  {
    auto it = snap.op_latency.find("catfish");
    const bool has = it != snap.op_latency.end();
    Emit(&m, "core.catfish.append_p99_ns",
         has ? static_cast<double>(it->second[static_cast<std::size_t>(demi::OpKind::kPush)].P99())
             : 0.0,
         "ns");
    Emit(&m, "core.catfish.pushdown_p99_ns",
         has ? static_cast<double>(it->second[static_cast<std::size_t>(demi::OpKind::kPop)].P99())
             : 0.0,
         "ns");
  }

  // net (server side)
  Emit(&m, "net.packets_per_req",
       (d(Counter::kPacketsTx) + d(Counter::kPacketsRx)) / reqs, "count");
  Emit(&m, "net.retransmissions", d(Counter::kRetransmissions), "count");
  Emit(&m, "net.delayed_acks_per_req", per_req(Counter::kDelayedAcks), "count");
  Emit(&m, "net.acks_coalesced_per_req", per_req(Counter::kAcksCoalesced), "count");
  Emit(&m, "net.copies_per_req", per_req(Counter::kCopies), "count");
  Emit(&m, "net.bytes_copied_per_req", per_req(Counter::kBytesCopied), "B");
  Emit(&m, "net.buffer_allocs_per_req", per_req(Counter::kBufferAllocs), "count");
  {
    const double hits = d(Counter::kHeaderPoolHits);
    const double misses = d(Counter::kHeaderPoolMisses);
    Emit(&m, "net.header_pool_miss_ratio", hits + misses > 0 ? misses / (hits + misses) : 0.0,
         "ratio");
  }

  // hw
  // Doorbells and DMA operations count NIC and block-device ones alike.
  Emit(&m, "hw.doorbells_per_req", per_req(Counter::kDoorbells), "count");
  Emit(&m, "hw.nic.frames_per_doorbell",
       d(Counter::kTxBursts) > 0 ? d(Counter::kFramesPerDoorbell) / d(Counter::kTxBursts) : 0.0,
       "count");
  Emit(&m, "hw.dma_ops_per_req", per_req(Counter::kDmaOps), "count");
  Emit(&m, "hw.nic.rx_burst_p50",
       static_cast<double>(
           snap.sim_stats[static_cast<std::size_t>(demi::SimStat::kRxBurstFrames)].P50()),
       "count");
  Emit(&m, "hw.nic.packets_dropped", d(Counter::kPacketsDropped), "count");
  Emit(&m, "hw.block.nvme_ops_per_req", per_req(Counter::kNvmeOps), "count");
  Emit(&m, "hw.block.host_completions_per_req", per_req(Counter::kBlockHostCompletions),
       "count");
  Emit(&m, "hw.block.pushdown_steps_per_lookup",
       d(Counter::kPushdownChains) > 0
           ? d(Counter::kPushdownSteps) / d(Counter::kPushdownChains)
           : 0.0,
       "count");
  Emit(&m, "hw.tenant.flow_slots_live", extra("hw.tenant.flow_slots_live"), "count");
  Emit(&m, "hw.tenant.flow_slots_released", extra("hw.tenant.flow_slots_released"), "count");
  Emit(&m, "hw.tenant.capability_violations", extra("hw.tenant.capability_violations"), "count");

  // kernel
  Emit(&m, "kernel.syscalls_per_req", per_req(Counter::kSyscalls), "count");
  {
    const double conns = extra("kernel.short_connections");
    Emit(&m, "kernel.fastcalls_per_conn",
         conns > 0 ? d(Counter::kFastcallCrossings) / conns : 0.0, "count");
    auto it = snap.named.find("kernel/accept_batch_size");
    Emit(&m, "kernel.accepts_per_batch", it == snap.named.end() ? 0.0 : it->second.mean(),
         "count");
  }
  Emit(&m, "kernel.context_switches_per_req", per_req(Counter::kContextSwitches), "count");
  Emit(&m, "kernel.interrupts_per_req", per_req(Counter::kInterrupts), "count");

  // memory
  Emit(&m, "memory.registrations", static_cast<double>(a.Get(Counter::kMemRegistrations)),
       "count");
  Emit(&m, "memory.mb_pinned",
       static_cast<double>(a.Get(Counter::kBytesPinned)) / (1024.0 * 1024.0), "MB");
  Emit(&m, "memory.registrations_per_req", per_req(Counter::kMemRegistrations), "count");

  // sim
  const double elapsed = static_cast<double>(std::max<TimeNs>(1, ref.after.at - ref.before.at));
  Emit(&m, "sim.schedule_calls_per_req",
       static_cast<double>(ref.after.schedule_calls - ref.before.schedule_calls) / reqs,
       "count");
  Emit(&m, "sim.sched_depth_p99",
       static_cast<double>(
           snap.sim_stats[static_cast<std::size_t>(demi::SimStat::kSchedHeapDepth)].P99()),
       "count");
  Emit(&m, "sim.dispatch_batch_p50",
       static_cast<double>(
           snap.sim_stats[static_cast<std::size_t>(demi::SimStat::kDispatchBatch)].P50()),
       "count");
  {
    const demi::Histogram& idle =
        snap.sim_stats[static_cast<std::size_t>(demi::SimStat::kIdleJumpNs)];
    Emit(&m, "sim.idle_jump_share",
         idle.mean() * static_cast<double>(idle.count()) / elapsed, "ratio");
  }
  double busy_sum = 0;
  for (std::size_t i = 0; i < ref.after.busy_ns.size(); ++i) {
    busy_sum += static_cast<double>(ref.after.busy_ns[i] - ref.before.busy_ns[i]) / elapsed;
  }
  Emit(&m, "sim.busy_ratio_max", BusyRatioMax(ref), "ratio");
  Emit(&m, "sim.busy_ratio_mean",
       busy_sum / static_cast<double>(std::max<std::size_t>(1, ref.after.busy_ns.size())),
       "ratio");
  // The first ladder rung that missed the limit: was the server saturated, and
  // did completion stealing engage there?
  const bool has_knee = !knee.after.busy_ns.empty();
  Emit(&m, "sim.busy_ratio_at_knee", has_knee ? BusyRatioMax(knee) : 0.0, "ratio");
  {
    const double knee_reqs = std::max<double>(1.0, static_cast<double>(knee.window_completed));
    const double stolen_at_knee =
        has_knee ? static_cast<double>(knee.after.counters.Get(Counter::kCompletionsStolen) -
                                       knee.before.counters.Get(Counter::kCompletionsStolen))
                 : 0.0;
    Emit(&m, "core.smp.stolen_per_req_at_knee", stolen_at_knee / knee_reqs, "count");
  }
  // The sim layer's self time: the simulator and the library work it polls,
  // outside the benchmark's callbacks.
  {
    auto it = by_layer.find("sim");
    Emit(&m, "sim.cpu_ns_per_req",
         it == by_layer.end() ? 0.0 : it->second.self_cpu_ns / traced_reqs, "ns");
  }
  Emit(&m, "trace.overhead_ratio", overhead, "ratio");
  Emit(&m, "trace.spans", static_cast<double>(tracer.size()), "count");
  return m;
}

int Bench::Run() {
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu_start = ProcessCpuSeconds();
  if (NewRig() == nullptr) {
    std::fprintf(stderr, "apibench: unknown workload '%s'\n", opt_.workload.c_str());
    return 2;
  }
  const std::string bad = CheckSettings(opt_.settings);
  if (!bad.empty()) {
    std::fprintf(stderr, "apibench: %s\n", bad.c_str());
    return 2;
  }
  const double ref_rps = S("ref_rps");
  const double slo_ns = S("slo_us") * 1000.0;
  const auto measured = static_cast<std::uint64_t>(S("measured"));
  const std::vector<double> ladder = ParseList(Has("ladder") ? opt_.settings.at("ladder") : "");
  const auto ladder_measured =
      Has("ladder") ? static_cast<std::uint64_t>(S("ladder_measured")) : 0;
  const double overload_rps = Has("overload_rps") ? S("overload_rps") : 0;

  const std::string model = demi::CostModel{}.Describe();
  std::uint64_t model_fp = kFnvBasis;
  for (const char ch : model) {
    model_fp = Fnv(model_fp, static_cast<unsigned char>(ch));
  }
  std::printf("apibench workload=%s seed=%llu seconds=%g trace=%d\n", opt_.workload.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.seconds, opt_.trace ? 1 : 0);
  std::printf("cost model (fingerprint %016llx):\n%s\n",
              static_cast<unsigned long long>(model_fp), model.c_str());

  // 1. reference window. Peak memory is read right after it: later windows
  // are no larger, and only heap fragmentation they leave behind would add to it.
  WindowResult ref = RunWindow(ref_rps, measured, false, true, nullptr);
  const double peak_rss_mb = PeakRssMb();
  std::uint64_t attempted = ref.attempted;
  std::uint64_t failed = ref.errors();
  std::vector<std::string> violations = ref.violations;
  bool correct = ref.errors() == 0;

  // 2. rate ladder: highest rate whose p99 (misses counted) meets the limit with
  // no growing backlog; rungs above the first failing one are not run.
  double max_rps = 0;
  WindowResult knee;
  bool knee_inside = ladder.empty();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    WindowResult w = RunWindow(ladder[i], ladder_measured, false, false, nullptr);
    if (w.wrong > 0) {
      correct = false;
      violations.insert(violations.end(), w.violations.begin(), w.violations.end());
    }
    const double p99 = P99WithMisses(w);
    const bool pass = p99 <= slo_ns && !w.backlog_growing;
    std::printf("ladder %.0f rps: p99 %.1f us, backlog_max %llu%s, busy %.3f -> %s\n",
                ladder[i], p99 >= static_cast<double>(INT64_MAX) ? -1.0 : p99 / 1000.0,
                static_cast<unsigned long long>(w.backlog_max),
                w.backlog_growing ? " (growing)" : "", BusyRatioMax(w), pass ? "meets" : "misses");
    if (!pass) {
      knee_inside = i > 0;
      knee = std::move(w);
      break;
    }
    max_rps = ladder[i];
  }

  // 3. overload goodput: answers within the limit per simulated second.
  double goodput = 0;
  if (overload_rps > 0) {
    const auto overload_measured = static_cast<std::uint64_t>(S("overload_measured"));
    WindowResult w = RunWindow(overload_rps, overload_measured, false, false, nullptr);
    if (w.wrong > 0) {
      correct = false;
      violations.insert(violations.end(), w.violations.begin(), w.violations.end());
    }
    std::uint64_t good = 0;
    for (const std::int64_t l : RequestLatencies(w)) {
      good += static_cast<double>(l) <= slo_ns ? 1 : 0;
    }
    goodput = static_cast<double>(good) /
              (static_cast<double>(std::max<TimeNs>(1, w.last_arrival - w.measure_start)) * 1e-9);
    std::printf("overload %.0f rps: %llu of %llu answered within the limit, %llu failed, "
                "%llu unanswered, p99 %.1f us\n",
                overload_rps, static_cast<unsigned long long>(good),
                static_cast<unsigned long long>(w.attempted),
                static_cast<unsigned long long>(w.failed),
                static_cast<unsigned long long>(w.unanswered), P99WithMisses(w) / 1000.0);
  }

  // 4. traced run only: the reference window again, with spans. Its simulated
  // results must equal the untraced reference exactly.
  std::unique_ptr<Tracer> tracer;
  WindowResult tref;
  if (opt_.trace) {
    tref = RunWindow(ref_rps, measured, true, false, &tracer);
    if (tref.digest != ref.digest || tref.window_completed != ref.window_completed ||
        RequestLatencies(tref) != RequestLatencies(ref) ||
        tref.after.busy_ns != ref.after.busy_ns) {
      correct = false;
      violations.push_back("traced reference window differs from the untraced one");
    }
  }

  // 5. the simulator's speed: short windows at the reference rate, repeated until
  // --seconds of process CPU have passed. Every one must reproduce the first
  // one's completion digest; traced runs alternate traced and untraced windows.
  std::vector<double> traced_speeds;
  std::vector<double> untraced_speeds;
  const auto speed_measured = static_cast<std::uint64_t>(S("speed_measured"));
  const int min_windows = opt_.trace ? 6 : 4;
  // Keeps a run inside its time limit on a slow machine.
  constexpr double kWallCapSeconds = 120;
  std::uint64_t speed_digest = 0;
  std::uint64_t speed_completed = 0;
  for (int i = 0;; ++i) {
    const double spent = ProcessCpuSeconds() - cpu_start;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    if (i >= min_windows && (spent >= opt_.seconds || opt_.smoke || wall >= kWallCapSeconds)) {
      break;
    }
    const bool traced = opt_.trace && i % 2 == 1;
    WindowResult w = RunWindow(ref_rps, speed_measured, traced, false, nullptr);
    attempted += w.attempted;
    failed += w.errors();
    if (w.errors() > 0) {
      correct = false;
      violations.insert(violations.end(), w.violations.begin(), w.violations.end());
    }
    if (i == 0) {
      speed_digest = w.digest;
      speed_completed = w.window_completed;
    } else if (w.digest != speed_digest || w.window_completed != speed_completed) {
      correct = false;
      violations.push_back(std::string(traced ? "traced" : "untraced") +
                           " speed window diverged from the first one (same seed)");
    }
    const double speed = static_cast<double>(w.window_completed) / w.run_cpu_s;
    (traced ? traced_speeds : untraced_speeds).push_back(speed);
  }
  correct = correct && violations.empty();

  // --- end-to-end metrics ---
  const std::vector<std::int64_t> lat = RequestLatencies(ref);
  const double ref_reqs = std::max<double>(1.0, static_cast<double>(ref.window_completed));
  double server_busy = 0;
  for (std::size_t i = 0; i < ref.after.busy_ns.size(); ++i) {
    server_busy += static_cast<double>(ref.after.busy_ns[i] - ref.before.busy_ns[i]);
  }
  std::vector<Metric> e2e;
  Emit(&e2e, "p50_us", Quantile(lat, 0.50) / 1000.0, "us");
  Emit(&e2e, "p99_us", Quantile(lat, 0.99) / 1000.0, "us");
  Emit(&e2e, "p999_us", Quantile(lat, 0.999) / 1000.0, "us");
  Emit(&e2e, "server_cpu_ns_per_req", server_busy / ref_reqs, "ns");
  Emit(&e2e, "setup_s", Median(setups_), "s");
  Emit(&e2e, "peak_rss_mb", peak_rss_mb, "MB");

  // Workload-specific end-to-end metrics: printed, not part of the JSON result
  // (a metric in the result must apply to every workload and never be 0).
  // The simulator's own speed is printed with them: on a shared machine its
  // run-to-run spread is too wide for it to gate a change.
  std::vector<Metric> specific;
  const double speed = UpperQuartile(untraced_speeds);
  Emit(&specific, "sim_req_per_cpu_s", speed, "1/s");
  const double attempted_ref = std::max<double>(1.0, static_cast<double>(ref.attempted));
  Emit(&specific, "error_rate", static_cast<double>(ref.errors()) / attempted_ref, "ratio");
  if (!ref.latency_ns[kWrite].empty()) {
    Emit(&specific, "read_p99_us", Quantile(ref.latency_ns[kRead], 0.99) / 1000.0, "us");
    Emit(&specific, "write_p99_us", Quantile(ref.latency_ns[kWrite], 0.99) / 1000.0, "us");
  }
  if (!ref.latency_ns[kShort].empty()) {
    Emit(&specific, "shortconn_p99_us", Quantile(ref.latency_ns[kShort], 0.99) / 1000.0, "us");
  }
  if (!ladder.empty()) {
    Emit(&specific, "max_rps_at_slo", max_rps, "1/s");
  }
  if (overload_rps > 0) {
    Emit(&specific, "overload_goodput_rps", goodput, "1/s");
  }

  std::printf("\nreference window: %.0f rps offered, %llu measured requests (%zu read, %zu "
              "write, %zu short), %llu failed, %llu unanswered, %llu wrong, latency limit %.0f us\n",
              ref_rps, static_cast<unsigned long long>(ref.attempted),
              ref.latency_ns[kRead].size(), ref.latency_ns[kWrite].size(),
              ref.latency_ns[kShort].size(), static_cast<unsigned long long>(ref.failed),
              static_cast<unsigned long long>(ref.unanswered),
              static_cast<unsigned long long>(ref.wrong),
              slo_ns / 1000.0);
  std::printf("digest %016llx  knee_in_ladder %d  speed windows %zu (+%zu traced)\n",
              static_cast<unsigned long long>(ref.digest), knee_inside ? 1 : 0,
              untraced_speeds.size(), traced_speeds.size());
  std::printf("simulator speed per speed window (req/cpu-s):");
  for (const double v : untraced_speeds) {
    std::printf(" %.0f", v);
  }
  std::printf("\nset-up CPU seconds per window:");
  for (const double v : setups_) {
    std::printf(" %.4f", v);
  }
  std::printf("\n");
  for (const Metric& mt : e2e) {
    std::printf("  %-34s %16.4f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
  }
  for (const Metric& mt : specific) {
    std::printf("  %-34s %16.4f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
  }

  std::vector<Metric> out = e2e;
  if (opt_.trace) {
    if (tracer == nullptr) {
      std::fprintf(stderr, "apibench: traced run recorded no spans\n");
      return 1;
    }
    const double overhead = 1.0 - UpperQuartile(traced_speeds) / UpperQuartile(untraced_speeds);
    tref.extra["trace.window_completed"] = static_cast<double>(tref.window_completed);
    out = LayerMetrics(tref, *tracer, knee, overhead);
    Emit(&out, "sim.req_per_cpu_s", speed, "1/s");
    std::printf("\nper-layer (reference window; self times from %zu spans):\n", tracer->size());
    for (const Metric& mt : out) {
      std::printf("  %-40s %16.4f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
    }
    if (!opt_.trace_out.empty() &&
        !tracer->WriteTsv(opt_.trace_out, kSpansWritten)) {
      std::fprintf(stderr, "apibench: could not write %s\n", opt_.trace_out.c_str());
    }
  }
  for (const std::string& v : violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].name.c_str(),
                  std::isfinite(out[i].value) ? out[i].value : 0.0, out[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      opt->workload = value();
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = value() == "1";
    } else if (arg == "--trace-out") {
      opt->trace_out = value();
    } else if (arg == "--smoke") {
      opt->smoke = true;
    } else if (arg == "--set") {
      const std::string kv = value();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        return false;
      }
      opt->settings[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace
}  // namespace apibench

int main(int argc, char** argv) {
  apibench::Options opt;
  if (!apibench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: apibench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--smoke] [--set key=value]...\n");
    return 2;
  }
  return apibench::Bench(std::move(opt)).Run();
}
