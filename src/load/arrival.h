// Open-loop arrival processes for the load harness.
//
// Open-loop means arrivals are drawn from a clock, not from completions: a request
// is "sent" (its intended send time stamped) the instant the process fires, whether
// or not the connection, the stack, or the server has caught up. This is the
// methodology that exposes coordinated omission — a closed-loop generator silently
// stops offering load exactly when the system under test stalls, which is when the
// tail matters most.
//
// Two processes:
//   - Poisson: independent exponential inter-arrival gaps at a fixed aggregate rate,
//     split across connections by weight. Memoryless, so redrawing every pending gap
//     at a rate change (the per-sweep-point reschedule) is statistically identical
//     to letting old draws run out — and deliberately storms the scheduler.
//   - MMPP (Markov-modulated Poisson): a two-phase on/off modulator. The process
//     dwells exponentially in a quiet phase and a bursty phase whose rate is
//     `burst_factor` times higher; phase rates are normalized so the long-run
//     average equals the configured offered load. Models the on/off burstiness of
//     real datacenter traffic that a fixed-rate Poisson curve hides.

#ifndef SRC_LOAD_ARRIVAL_H_
#define SRC_LOAD_ARRIVAL_H_

#include <cstddef>

#include "src/common/random.h"
#include "src/sim/time.h"

namespace demi {

struct ArrivalConfig {
  enum class Process { kPoisson, kMmpp };
  Process process = Process::kPoisson;
  // MMPP modulator: rate multiplier of the bursty phase relative to the quiet one,
  // and mean exponential dwell time in each phase.
  double mmpp_burst_factor = 8.0;
  TimeNs mmpp_on_mean_ns = 2 * kMillisecond;
  TimeNs mmpp_off_mean_ns = 8 * kMillisecond;
};

class ArrivalProcess {
 public:
  explicit ArrivalProcess(ArrivalConfig cfg);

  // Sets the aggregate offered load and resets the modulator to the quiet phase.
  void SetRate(double offered_rps);
  double offered_rps() const { return offered_rps_; }
  bool bursty() const { return cfg_.process == ArrivalConfig::Process::kMmpp; }
  bool on_phase() const { return on_phase_; }

  // Exponential gap (>= 1 ns) to the next arrival on a connection that carries
  // `weight` of the fleet's `total_weight`: mean 1e9 * total_weight / (rate *
  // weight) at the current phase rate. Returns kNever when that connection's share
  // of the offered load is zero (no arrivals).
  static constexpr TimeNs kNever = -1;
  TimeNs NextGapNs(Rng& rng, double weight, double total_weight) const;

  // Exponential dwell remaining in the current phase (MMPP only).
  TimeNs NextDwellNs(Rng& rng) const;
  void FlipPhase() { on_phase_ = !on_phase_; }

  // Current aggregate rate (phase-adjusted), requests/sec. Exposed for tests.
  double current_rps() const;

 private:
  ArrivalConfig cfg_;
  double offered_rps_ = 0;
  bool on_phase_ = false;
};

}  // namespace demi

#endif  // SRC_LOAD_ARRIVAL_H_
