// In-memory span recorder for the traced run.
//
// A span brackets one call the benchmark makes into a layer (or one of its own
// callbacks). Each span keeps its name, parent, request id (connection << 32 |
// per-connection sequence) and start/end on both the virtual clock and the
// thread's CPU clock. Spans nest strictly (the simulation is single-threaded),
// so a span's self time is its duration minus the summed durations of its
// direct children. Reading either clock has no effect on the simulation, so a
// traced window is bit-identical to an untraced one.

#ifndef APIBENCH_SRC_TRACE_H_
#define APIBENCH_SRC_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/simulation.h"

namespace apibench {

// Thread CPU time in ns (the simulation runs on one thread).
std::int64_t ThreadCpuNs();
// Process CPU time (user + system) in seconds.
double ProcessCpuSeconds();

class Tracer {
 public:
  explicit Tracer(demi::Simulation* sim);

  std::uint32_t Open(const char* name, std::uint64_t req);
  void Close(std::uint32_t index);

  struct Totals {
    std::uint64_t calls = 0;
    double cpu_ns = 0;       // summed span durations
    double sim_ns = 0;
    double self_cpu_ns = 0;  // durations minus time covered by child spans
    double self_sim_ns = 0;
  };
  // Keyed by span name ("core.push") and by layer (the name's first component).
  std::map<std::string, Totals> ByName() const;
  std::map<std::string, Totals> ByLayer() const;
  std::size_t size() const { return spans_.size(); }

  // One tab-separated line per span for the first `max_spans` spans: name,
  // parent index (-1 for roots), request id, virtual start/end ns, CPU
  // start/end ns.
  bool WriteTsv(const std::string& path, std::size_t max_spans) const;

 private:
  struct SpanRec {
    const char* name = nullptr;
    std::int64_t parent = -1;
    std::uint64_t req = 0;
    demi::TimeNs sim_start = 0;
    demi::TimeNs sim_end = 0;
    std::int64_t cpu_start = 0;
    std::int64_t cpu_end = 0;
    std::int64_t child_cpu = 0;
    demi::TimeNs child_sim = 0;
  };

  demi::Simulation* sim_;
  std::vector<SpanRec> spans_;
  std::vector<std::uint32_t> stack_;
};

// The active tracer, or null in untraced windows. Set only between windows.
extern Tracer* g_tracer;

// RAII span; a branch and nothing else when no tracer is active.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t req = 0) {
    if (g_tracer != nullptr) {
      index_ = g_tracer->Open(name, req);
      active_ = true;
    }
  }
  ~Span() {
    if (active_ && g_tracer != nullptr) {
      g_tracer->Close(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t index_ = 0;
  bool active_ = false;
};

}  // namespace apibench

#endif  // APIBENCH_SRC_TRACE_H_
