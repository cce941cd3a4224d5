// The benchmark's open-loop load driver and the interface every workload rig
// implements.
//
// Arrivals are one seeded Poisson process at the window's offered rate; each
// arrival picks a stream (a request class with a fixed share of the rate), and
// the request that stream issues is stamped with the arrival's intended send
// time. Latency runs from that intended time to the moment the answer is seen,
// so a stalled server or a late generator shows up in the latency instead of
// hiding it. The first `warmup` arrivals are issued and checked but not
// measured.

#ifndef APIBENCH_SRC_DRIVER_H_
#define APIBENCH_SRC_DRIVER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/libos.h"
#include "src/sim/counters.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace apibench {

using demi::TimeNs;

inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

// Request classes. kRead and kWrite make up the p50/p99/p999 population.
enum Kind : int { kRead = 0, kWrite, kShort, kNumKinds };

struct WindowSpec {
  double offered_rps = 0;
  std::uint64_t warmup = 0;    // arrivals issued before measuring
  std::uint64_t measured = 0;  // measured arrivals
  TimeNs drain_ns = 0;         // wait after the last arrival for answers
};

struct Stream {
  double share = 1.0;           // of the offered rate
  std::function<void()> issue;  // must call Driver::Begin once
};

// Server-side layer counters at one instant (summed over the server's CPUs).
struct LayerSample {
  demi::Counters counters;
  std::vector<std::uint64_t> busy_ns;  // per server CPU
  demi::MetricsSnapshot metrics;
  std::uint64_t schedule_calls = 0;
  TimeNs at = 0;
};

struct WindowResult {
  std::uint64_t attempted = 0;   // measured arrivals
  std::uint64_t failed = 0;      // measured, failed or refused
  std::uint64_t unanswered = 0;  // measured, no answer by the drain deadline
  std::uint64_t wrong = 0;       // any arrival answered incorrectly
  std::uint64_t window_completed = 0;  // warmup included
  std::array<std::vector<std::int64_t>, kNumKinds> latency_ns;
  TimeNs measure_start = 0;      // intended time of the first measured arrival
  TimeNs last_arrival = 0;
  std::int64_t lateness_max_ns = 0;
  std::uint64_t backlog_max = 0;
  bool backlog_growing = false;
  std::uint64_t digest = kFnvBasis;
  double setup_cpu_s = 0;
  double run_cpu_s = 0;
  LayerSample before;
  LayerSample after;
  std::vector<std::string> violations;  // correctness failures, human readable
  std::map<std::string, double> extra;  // rig-specific per-layer values

  std::uint64_t errors() const { return failed + unanswered + wrong; }
};

class Driver {
 public:
  Driver(demi::Simulation& sim, std::uint64_t seed, WindowSpec spec);

  // Called from a stream's issue callback: registers one request of `kind` sent
  // at the current arrival's intended time. Returns its id.
  std::uint64_t Begin(Kind kind);
  // The request's answer arrived and was checked. `conn`/`seq` name it for the
  // completion digest.
  void Complete(std::uint64_t id, std::uint64_t conn, std::uint64_t seq);
  // The request failed or was refused (counts as an error, not a wrong answer).
  void Fail(std::uint64_t id);
  // The answer was wrong: a correctness violation.
  void Wrong(std::uint64_t id, const std::string& what);

  // Issues the whole window, then waits for the answers.
  void Run(const std::vector<Stream>& streams);

  WindowResult& result() { return result_; }

 private:
  struct Req {
    TimeNs intended = 0;
    Kind kind = kRead;
    bool measured = false;
    bool done = false;
  };
  void Arrive();
  void Settle(std::uint64_t id);

  demi::Simulation& sim_;
  demi::Rng rng_;
  WindowSpec spec_;
  const std::vector<Stream>* streams_ = nullptr;
  std::vector<double> cumulative_;
  std::vector<Req> reqs_;
  std::uint64_t arrivals_ = 0;
  double next_offset_ns_ = 0;
  TimeNs start_ = 0;
  TimeNs current_intended_ = 0;
  bool current_measured_ = false;
  std::uint64_t outstanding_ = 0;
  double backlog_sum_[2] = {0, 0};
  WindowResult result_;
};

// One workload: a set of simulated hosts, the benchmark's server loops and
// clients, and the checks that their answers are right.
class Rig {
 public:
  virtual ~Rig() = default;
  // Builds hosts, opens connections, preloads data. Timed as set-up.
  virtual void Setup() = 0;
  virtual demi::Simulation& sim() = 0;
  // The request streams, bound to `driver` for the coming window.
  virtual std::vector<Stream> Streams(Driver* driver) = 0;
  // Server-side counters and per-CPU busy time right now.
  virtual LayerSample Sample() = 0;
  // After the window: invariants (no pending ops, no capability violations,
  // read-back checks) and rig-specific per-layer values.
  virtual void Finish(WindowResult& result, bool full_checks) = 0;
};

// The four workloads (rig_*.cc). Each one's shape is fixed in its file.
std::unique_ptr<Rig> MakeKvRig(std::uint64_t seed);
std::unique_ptr<Rig> MakeEchoRig(std::uint64_t seed);
std::unique_ptr<Rig> MakeStorageRig(std::uint64_t seed);
std::unique_ptr<Rig> MakeChurnRig(std::uint64_t seed);

// Shared helpers for rigs.
LayerSample SampleCpus(demi::Simulation& sim, const std::vector<demi::HostCpu*>& cpus);
// Records a violation unless every libOS has at most `allowed` pending operations
// left; stores the total above `allowed` as core.pending_ops_end.
void CheckDrained(const std::vector<demi::LibOS*>& liboses, std::size_t allowed,
                  WindowResult& r);
// Records a violation for any capability-check rejection in the simulation.
void CheckCapabilities(demi::Simulation& sim, WindowResult& r);
void Violation(WindowResult& r, const std::string& what);

}  // namespace apibench

#endif  // APIBENCH_SRC_DRIVER_H_
