// Data-path observability: where the nanoseconds go.
//
// The paper's claims are latency-shaped (single-digit-microsecond I/O, exactly-one
// wakeup with data in hand), so counting events is not enough — this registry times
// them. It holds
//   - per-libOS, per-operation completion-latency histograms (push/pop/accept/connect,
//     stamped at qtoken creation in LibOS::NewToken and recorded when CompleteOp
//     transitions the slot to completed),
//   - simulator-internals histograms (poll/dispatch/idle time per step, ready-ring and
//     scheduler-heap depth, dispatch batch sizes),
//   - a bounded trace ring of recovery events (failover, retry, breaker trip, injected
//     fault) so a chaos run can explain *when* a latency spike happened,
// and serializes all of it — plus the simulation counters — as a JSON snapshot with
// p50/p99/p99.9/max quantiles for the bench harness.
//
// Cost model: recording charges ZERO simulated time. Nothing here calls
// HostCpu::Work or advances the clock, so a run with tracing enabled is
// bit-identical (same virtual timeline, same counters) to one with it disabled;
// tests/metrics_test.cc asserts this. Disabling only saves host wall clock.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/sim/counters.h"
#include "src/sim/time.h"

namespace demi {

// Operation kinds tracked per libOS. Mirrors OpType (core/types.h) by value so the
// sim layer does not depend on core; LibOS casts its OpType straight across.
enum class OpKind : std::uint8_t { kPush = 0, kPop, kAccept, kConnect };
constexpr std::size_t kNumOpKinds = 4;
std::string_view OpKindName(OpKind op);

// Simulator-internals statistics (values are ns for *Ns entries, plain counts
// otherwise).
enum class SimStat : std::size_t {
  kStepPollNs = 0,    // clock advance during the poller phase of one step
  kStepDispatchNs,    // clock advance during the RunDue phase of one step
  kIdleJumpNs,        // clock jump to the next event when a step found no work
  kDispatchBatch,     // events run per non-empty RunDue
  kSchedHeapDepth,    // scheduler heap size sampled at each step
  kReadyRingDepth,    // libOS completion ready-ring depth after each push
  kEventLoopBatch,    // completions dispatched per non-empty DemiEventLoop round
  kTxBurstFrames,     // frames posted per NIC TransmitBurst doorbell
  kRxBurstFrames,     // frames drained per non-empty NIC PollRxBurst
  kNumSimStats,
};
constexpr std::size_t kNumSimStats = static_cast<std::size_t>(SimStat::kNumSimStats);
std::string_view SimStatName(SimStat s);

// One recovery-visible moment on the virtual timeline.
enum class TraceKind : std::uint8_t {
  kFaultInjected = 0,  // a=fault device id, b=FaultKind
  kLinkFlap,           // a=fault device id
  kRetryAttempt,       // a=session id, b=attempt number
  kBreakerTrip,        // a=session id
  kFailover,           // a=session id (bypass -> legacy kernel path)
  kRepromotion,        // a=session id (legacy -> bypass path)
  kRetryGiveup,        // a=session id
  kPathPromotion,      // a=session id (policy moved a hot flow legacy -> bypass)
  kPathDemotion,       // a=session id (policy moved a cold flow bypass -> legacy)
};
std::string_view TraceKindName(TraceKind k);

struct TraceEvent {
  TimeNs at = 0;
  TraceKind kind = TraceKind::kFaultInjected;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

// Bounded ring of TraceEvents: appending past capacity drops the oldest entry and
// counts it, so a long chaos run keeps the most recent window plus an honest tally
// of what fell off.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {}

  void Append(TraceEvent ev);
  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }
  // Oldest-first copy of the retained window.
  std::vector<TraceEvent> Events() const;
  void Clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest retained event once full
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

// Read-only rollup of one histogram, as exported in snapshots.
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};
HistogramStats SummarizeHistogram(const Histogram& h);

// Point-in-time copy of everything the registry (plus the simulation counters)
// knows. Holds full histograms, not just quantiles, so two snapshots can be
// subtracted bucket-exactly into a window delta.
struct MetricsSnapshot {
  TimeNs taken_at = 0;
  std::array<std::uint64_t, kNumCounters> counters{};
  // op_latency["catnip"][OpKind::kPush] etc. Only libOSes that completed at least
  // one operation appear.
  std::map<std::string, std::array<Histogram, kNumOpKinds>> op_latency;
  std::array<Histogram, kNumSimStats> sim_stats;
  // Free-form histograms registered via MetricsRegistry::NamedHistogram.
  std::map<std::string, Histogram> named;
  std::vector<TraceEvent> trace;
  std::uint64_t trace_dropped = 0;

  // JSON object: {"taken_at_ns", "counters", "op_latency_ns", "sim_stats",
  // "named", "trace"}. Histograms serialize as {n, min, max, mean, p50, p99,
  // p999}; zero-count histograms and zero counters are omitted.
  std::string ToJson() const;
};

// The registry. One per Simulation; reached via sim().metrics().
class MetricsRegistry {
 public:
  MetricsRegistry();

  // Master switch. Recording with the registry disabled is a branch and nothing
  // else. Flipping it never changes simulated behavior (see header comment).
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Stable per-libOS handle for the hot completion path: one map lookup per libOS
  // lifetime, then recording is an array index. The pointer stays valid for the
  // registry's lifetime (map nodes do not move).
  std::array<Histogram, kNumOpKinds>* OpLatencyHandle(std::string_view libos);

  void RecordOpLatency(std::array<Histogram, kNumOpKinds>* handle, OpKind op,
                       TimeNs latency_ns) {
    if (!enabled_ || handle == nullptr || latency_ns < 0) {
      return;
    }
    (*handle)[static_cast<std::size_t>(op)].Record(
        static_cast<std::uint64_t>(latency_ns));
  }

  void RecordStat(SimStat stat, std::uint64_t value) {
    if (!enabled_) {
      return;
    }
    sim_stats_[static_cast<std::size_t>(stat)].Record(value);
  }

  // Free-form named histogram for subsystems whose series are not known at compile
  // time (the open-loop load harness registers one per sweep point, e.g.
  // "openloop/50000rps/latency_ns"). Same handle discipline as OpLatencyHandle: one
  // map lookup up front, stable pointer for the registry's lifetime, then recording
  // is an inlined branch + bucket increment via RecordNamed.
  Histogram* NamedHistogram(std::string_view name);

  void RecordNamed(Histogram* h, std::uint64_t value) {
    if (!enabled_ || h == nullptr) {
      return;
    }
    h->Record(value);
  }

  void Trace(TraceKind kind, TimeNs at, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) {
      return;
    }
    trace_.Append(TraceEvent{at, kind, a, b});
  }

  // Read access for tests and reporting.
  const Histogram& sim_stat(SimStat stat) const {
    return sim_stats_[static_cast<std::size_t>(stat)];
  }
  const Histogram* op_latency(std::string_view libos, OpKind op) const;
  const Histogram* named(std::string_view name) const;
  const TraceRing& trace() const { return trace_; }

  // Captures everything, pairing the registry's histograms/trace with the
  // caller-supplied counters (per-host or simulation-wide) and timestamp.
  MetricsSnapshot Snapshot(const Counters& counters, TimeNs now) const;
  // Folds this registry's histograms and trace into `snap` bucket-wise, leaving
  // snap.counters untouched — the merge path for per-core registries
  // (Simulation::MergedSnapshot), where counters are simulation-global and must
  // not be added once per core.
  void MergeHistogramsInto(MetricsSnapshot& snap) const;
  // Window view: this snapshot minus `earlier` (counters and histogram buckets
  // subtract; trace keeps only events after earlier.taken_at).
  static MetricsSnapshot Delta(const MetricsSnapshot& later,
                               const MetricsSnapshot& earlier);

 private:
  bool enabled_ = true;
  std::map<std::string, std::array<Histogram, kNumOpKinds>, std::less<>> op_latency_;
  std::array<Histogram, kNumSimStats> sim_stats_;
  std::map<std::string, Histogram, std::less<>> named_;
  TraceRing trace_;
};

}  // namespace demi

#endif  // SRC_SIM_METRICS_H_
