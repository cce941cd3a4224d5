#include "src/sim/metrics.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace demi {

namespace {
constexpr std::size_t kDefaultTraceCapacity = 256;
}  // namespace

std::string_view OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kPush:
      return "push";
    case OpKind::kPop:
      return "pop";
    case OpKind::kAccept:
      return "accept";
    case OpKind::kConnect:
      return "connect";
  }
  return "?";
}

std::string_view SimStatName(SimStat s) {
  switch (s) {
    case SimStat::kStepPollNs:
      return "step_poll_ns";
    case SimStat::kStepDispatchNs:
      return "step_dispatch_ns";
    case SimStat::kIdleJumpNs:
      return "idle_jump_ns";
    case SimStat::kDispatchBatch:
      return "dispatch_batch";
    case SimStat::kSchedHeapDepth:
      return "sched_heap_depth";
    case SimStat::kReadyRingDepth:
      return "ready_ring_depth";
    case SimStat::kEventLoopBatch:
      return "event_loop_batch";
    case SimStat::kTxBurstFrames:
      return "tx_burst_frames";
    case SimStat::kRxBurstFrames:
      return "rx_burst_frames";
    case SimStat::kNumSimStats:
      break;
  }
  return "?";
}

std::string_view TraceKindName(TraceKind k) {
  switch (k) {
    case TraceKind::kFaultInjected:
      return "fault_injected";
    case TraceKind::kLinkFlap:
      return "link_flap";
    case TraceKind::kRetryAttempt:
      return "retry_attempt";
    case TraceKind::kBreakerTrip:
      return "breaker_trip";
    case TraceKind::kFailover:
      return "failover";
    case TraceKind::kRepromotion:
      return "repromotion";
    case TraceKind::kRetryGiveup:
      return "retry_giveup";
    case TraceKind::kPathPromotion:
      return "path_promotion";
    case TraceKind::kPathDemotion:
      return "path_demotion";
  }
  return "?";
}

// --- TraceRing ------------------------------------------------------------------

void TraceRing::Append(TraceEvent ev) {
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (events_.size() < capacity_) {
    events_.push_back(ev);
    return;
  }
  events_[head_] = ev;  // overwrite the oldest retained event
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRing::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

void TraceRing::Clear() {
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

// --- snapshot -------------------------------------------------------------------

HistogramStats SummarizeHistogram(const Histogram& h) {
  HistogramStats s;
  s.count = h.count();
  s.min = h.min();
  s.max = h.max();
  s.mean = h.mean();
  s.p50 = h.P50();
  s.p99 = h.P99();
  s.p999 = h.P999();
  return s;
}

namespace {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void AppendHistJson(std::string& out, const Histogram& h) {
  const HistogramStats s = SummarizeHistogram(h);
  AppendF(out,
          "{\"n\":%llu,\"min\":%llu,\"max\":%llu,\"mean\":%.1f,"
          "\"p50\":%llu,\"p99\":%llu,\"p999\":%llu}",
          static_cast<unsigned long long>(s.count),
          static_cast<unsigned long long>(s.min),
          static_cast<unsigned long long>(s.max), s.mean,
          static_cast<unsigned long long>(s.p50),
          static_cast<unsigned long long>(s.p99),
          static_cast<unsigned long long>(s.p999));
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(2048);
  AppendF(out, "{\"taken_at_ns\":%lld", static_cast<long long>(taken_at));

  out += ",\"counters\":{";
  const char* sep = "";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (counters[i] == 0) {
      continue;
    }
    AppendF(out, "%s\"%.*s\":%llu", sep,
            static_cast<int>(CounterName(static_cast<Counter>(i)).size()),
            CounterName(static_cast<Counter>(i)).data(),
            static_cast<unsigned long long>(counters[i]));
    sep = ",";
  }
  out += "}";

  out += ",\"op_latency_ns\":{";
  sep = "";
  for (const auto& [libos, by_op] : op_latency) {
    bool any = false;
    for (const Histogram& h : by_op) {
      any |= h.count() > 0;
    }
    if (!any) {
      continue;
    }
    AppendF(out, "%s\"%s\":{", sep, libos.c_str());
    const char* op_sep = "";
    for (std::size_t op = 0; op < kNumOpKinds; ++op) {
      if (by_op[op].count() == 0) {
        continue;
      }
      AppendF(out, "%s\"%.*s\":", op_sep,
              static_cast<int>(OpKindName(static_cast<OpKind>(op)).size()),
              OpKindName(static_cast<OpKind>(op)).data());
      AppendHistJson(out, by_op[op]);
      op_sep = ",";
    }
    out += "}";
    sep = ",";
  }
  out += "}";

  out += ",\"sim_stats\":{";
  sep = "";
  for (std::size_t i = 0; i < kNumSimStats; ++i) {
    if (sim_stats[i].count() == 0) {
      continue;
    }
    AppendF(out, "%s\"%.*s\":", sep,
            static_cast<int>(SimStatName(static_cast<SimStat>(i)).size()),
            SimStatName(static_cast<SimStat>(i)).data());
    AppendHistJson(out, sim_stats[i]);
    sep = ",";
  }
  out += "}";

  out += ",\"named\":{";
  sep = "";
  for (const auto& [name, h] : named) {
    if (h.count() == 0) {
      continue;
    }
    AppendF(out, "%s\"%s\":", sep, name.c_str());
    AppendHistJson(out, h);
    sep = ",";
  }
  out += "}";

  AppendF(out, ",\"trace\":{\"dropped\":%llu,\"events\":[",
          static_cast<unsigned long long>(trace_dropped));
  sep = "";
  for (const TraceEvent& ev : trace) {
    AppendF(out, "%s{\"at_ns\":%lld,\"event\":\"%.*s\",\"a\":%llu,\"b\":%llu}", sep,
            static_cast<long long>(ev.at),
            static_cast<int>(TraceKindName(ev.kind).size()),
            TraceKindName(ev.kind).data(), static_cast<unsigned long long>(ev.a),
            static_cast<unsigned long long>(ev.b));
    sep = ",";
  }
  out += "]}}";
  return out;
}

// --- registry -------------------------------------------------------------------

MetricsRegistry::MetricsRegistry() : trace_(kDefaultTraceCapacity) {}

std::array<Histogram, kNumOpKinds>* MetricsRegistry::OpLatencyHandle(
    std::string_view libos) {
  auto it = op_latency_.find(libos);
  if (it == op_latency_.end()) {
    it = op_latency_.emplace(std::string(libos),
                             std::array<Histogram, kNumOpKinds>{}).first;
  }
  return &it->second;
}

const Histogram* MetricsRegistry::op_latency(std::string_view libos, OpKind op) const {
  auto it = op_latency_.find(libos);
  if (it == op_latency_.end()) {
    return nullptr;
  }
  return &it->second[static_cast<std::size_t>(op)];
}

Histogram* MetricsRegistry::NamedHistogram(std::string_view name) {
  auto it = named_.find(name);
  if (it == named_.end()) {
    it = named_.emplace(std::string(name), Histogram{}).first;
  }
  return &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot(const Counters& counters, TimeNs now) const {
  MetricsSnapshot snap;
  snap.taken_at = now;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    snap.counters[i] = counters.Get(static_cast<Counter>(i));
  }
  for (const auto& [libos, by_op] : op_latency_) {
    snap.op_latency.emplace(libos, by_op);
  }
  for (const auto& [name, h] : named_) {
    snap.named.emplace(name, h);
  }
  snap.sim_stats = sim_stats_;
  snap.trace = trace_.Events();
  snap.trace_dropped = trace_.dropped();
  return snap;
}

void MetricsRegistry::MergeHistogramsInto(MetricsSnapshot& snap) const {
  for (const auto& [libos, by_op] : op_latency_) {
    auto [it, inserted] = snap.op_latency.try_emplace(libos, by_op);
    if (!inserted) {
      for (std::size_t op = 0; op < kNumOpKinds; ++op) {
        it->second[op].Merge(by_op[op]);
      }
    }
  }
  for (std::size_t i = 0; i < kNumSimStats; ++i) {
    snap.sim_stats[i].Merge(sim_stats_[i]);
  }
  for (const auto& [name, h] : named_) {
    auto [it, inserted] = snap.named.try_emplace(name, h);
    if (!inserted) {
      it->second.Merge(h);
    }
  }
  for (const TraceEvent& ev : trace_.Events()) {
    snap.trace.push_back(ev);
  }
  snap.trace_dropped += trace_.dropped();
}

MetricsSnapshot MetricsRegistry::Delta(const MetricsSnapshot& later,
                                       const MetricsSnapshot& earlier) {
  MetricsSnapshot out;
  out.taken_at = later.taken_at;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.counters[i] = later.counters[i] - earlier.counters[i];
  }
  for (const auto& [libos, by_op] : later.op_latency) {
    auto prev = earlier.op_latency.find(libos);
    std::array<Histogram, kNumOpKinds> diff;
    for (std::size_t op = 0; op < kNumOpKinds; ++op) {
      diff[op] = prev == earlier.op_latency.end()
                     ? by_op[op]
                     : by_op[op].DiffSince(prev->second[op]);
    }
    out.op_latency.emplace(libos, std::move(diff));
  }
  for (std::size_t i = 0; i < kNumSimStats; ++i) {
    out.sim_stats[i] = later.sim_stats[i].DiffSince(earlier.sim_stats[i]);
  }
  for (const auto& [name, h] : later.named) {
    auto prev = earlier.named.find(name);
    out.named.emplace(name, prev == earlier.named.end() ? h : h.DiffSince(prev->second));
  }
  for (const TraceEvent& ev : later.trace) {
    if (ev.at > earlier.taken_at) {
      out.trace.push_back(ev);
    }
  }
  out.trace_dropped = later.trace_dropped - earlier.trace_dropped;
  return out;
}

}  // namespace demi
