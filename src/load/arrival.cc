#include "src/load/arrival.h"

#include <algorithm>

#include "src/common/logging.h"

namespace demi {

ArrivalProcess::ArrivalProcess(ArrivalConfig cfg) : cfg_(cfg) {
  DEMI_CHECK(cfg_.mmpp_burst_factor >= 1.0);
  DEMI_CHECK(cfg_.mmpp_on_mean_ns > 0 && cfg_.mmpp_off_mean_ns > 0);
}

void ArrivalProcess::SetRate(double offered_rps) {
  DEMI_CHECK(offered_rps >= 0);
  offered_rps_ = offered_rps;
  on_phase_ = false;
}

double ArrivalProcess::current_rps() const {
  if (!bursty()) {
    return offered_rps_;
  }
  // Normalize the two phase rates so the dwell-weighted average equals the offered
  // load:  (off_mean * quiet + on_mean * burst_factor * quiet) / (off_mean + on_mean)
  // == offered  =>  quiet = offered * (off_mean + on_mean) / (off_mean + bf * on_mean).
  const double on = static_cast<double>(cfg_.mmpp_on_mean_ns);
  const double off = static_cast<double>(cfg_.mmpp_off_mean_ns);
  const double quiet = offered_rps_ * (off + on) / (off + cfg_.mmpp_burst_factor * on);
  return on_phase_ ? quiet * cfg_.mmpp_burst_factor : quiet;
}

TimeNs ArrivalProcess::NextGapNs(Rng& rng, double weight, double total_weight) const {
  const double rps = current_rps() * weight;
  if (rps <= 0) {
    return kNever;
  }
  const double mean_gap_ns = 1e9 * total_weight / rps;
  const double gap = rng.NextExponential(mean_gap_ns);
  // Clamp into the representable range; a sub-ns draw schedules 1 ns out.
  return std::max<TimeNs>(static_cast<TimeNs>(std::min(gap, 9.0e18)), 1);
}

TimeNs ArrivalProcess::NextDwellNs(Rng& rng) const {
  const TimeNs mean = on_phase_ ? cfg_.mmpp_on_mean_ns : cfg_.mmpp_off_mean_ns;
  const double dwell = rng.NextExponential(static_cast<double>(mean));
  return std::max<TimeNs>(static_cast<TimeNs>(std::min(dwell, 9.0e18)), 1);
}

}  // namespace demi
