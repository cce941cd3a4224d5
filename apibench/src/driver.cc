#include "apibench/src/driver.h"

#include <algorithm>
#include <cmath>

#include "apibench/src/trace.h"

namespace apibench {

Driver::Driver(demi::Simulation& sim, std::uint64_t seed, WindowSpec spec)
    : sim_(sim), rng_(seed ^ 0xA7417A1ULL), spec_(spec) {
  reqs_.reserve(spec_.warmup + spec_.measured + 16);
}

std::uint64_t Driver::Begin(Kind kind) {
  Req req;
  req.intended = current_intended_;
  req.kind = kind;
  req.measured = current_measured_;
  reqs_.push_back(req);
  ++outstanding_;
  result_.backlog_max = std::max<std::uint64_t>(result_.backlog_max, outstanding_);
  if (req.measured) {
    ++result_.attempted;
  }
  return reqs_.size() - 1;
}

void Driver::Settle(std::uint64_t id) {
  reqs_[id].done = true;
  --outstanding_;
}

void Driver::Complete(std::uint64_t id, std::uint64_t conn, std::uint64_t seq) {
  Req& req = reqs_.at(id);
  if (req.done) {
    Wrong(id, "request answered twice");
    return;
  }
  const TimeNs now = sim_.now();
  if (req.measured) {
    result_.latency_ns[req.kind].push_back(now - req.intended);
  }
  ++result_.window_completed;
  result_.digest = Fnv(Fnv(Fnv(result_.digest, conn), seq), static_cast<std::uint64_t>(now));
  Settle(id);
}

void Driver::Fail(std::uint64_t id) {
  Req& req = reqs_.at(id);
  if (req.done) {
    return;
  }
  if (req.measured) {
    ++result_.failed;
  }
  Settle(id);
}

void Driver::Wrong(std::uint64_t id, const std::string& what) {
  Violation(result_, what);
  if (id < reqs_.size() && !reqs_[id].done) {
    Settle(id);
  }
}

void Driver::Arrive() {
  const std::uint64_t total = spec_.warmup + spec_.measured;
  const TimeNs intended = start_ + std::llround(next_offset_ns_);
  result_.lateness_max_ns = std::max<std::int64_t>(result_.lateness_max_ns, sim_.now() - intended);
  current_intended_ = intended;
  current_measured_ = arrivals_ >= spec_.warmup;
  if (current_measured_) {
    const std::uint64_t k = arrivals_ - spec_.warmup;
    if (k == 0) {
      result_.measure_start = intended;
    }
    backlog_sum_[k * 2 < spec_.measured ? 0 : 1] += static_cast<double>(outstanding_);
  }
  const double u = rng_.NextDouble();
  const std::size_t stream = static_cast<std::size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), u) - cumulative_.begin());
  {
    Span span("driver.arrival", arrivals_);
    (*streams_)[std::min(stream, streams_->size() - 1)].issue();
  }
  ++arrivals_;
  result_.last_arrival = intended;
  if (arrivals_ < total) {
    next_offset_ns_ += rng_.NextExponential(1e9 / spec_.offered_rps);
    sim_.ScheduleAt(start_ + std::llround(next_offset_ns_), [this] { Arrive(); });
  }
}

void Driver::Run(const std::vector<Stream>& streams) {
  streams_ = &streams;
  double sum = 0;
  for (const Stream& s : streams) {
    sum += s.share;
  }
  double acc = 0;
  cumulative_.clear();
  for (const Stream& s : streams) {
    acc += s.share / sum;
    cumulative_.push_back(acc);
  }
  const std::uint64_t total = spec_.warmup + spec_.measured;
  start_ = sim_.now() + demi::kMicrosecond;
  next_offset_ns_ = rng_.NextExponential(1e9 / spec_.offered_rps);
  sim_.ScheduleAt(start_ + std::llround(next_offset_ns_), [this] { Arrive(); });
  const TimeNs horizon = static_cast<TimeNs>(
      static_cast<double>(total) * 1e9 / spec_.offered_rps * 4.0) + 10 * demi::kSecond;
  {
    Span span("sim.run");
    sim_.RunUntil([&] { return arrivals_ >= total; }, start_ + horizon);
    sim_.RunUntil([&] { return outstanding_ == 0; }, result_.last_arrival + spec_.drain_ns);
  }
  for (const Req& req : reqs_) {
    if (req.measured && !req.done) {
      ++result_.unanswered;
    }
  }
  if (arrivals_ < total) {
    Violation(result_, "arrival schedule did not finish");
  }
  const double half = static_cast<double>(std::max<std::uint64_t>(spec_.measured / 2, 1));
  const double first = backlog_sum_[0] / half;
  const double second = backlog_sum_[1] / half;
  result_.backlog_growing = second > 1.5 * first + 8.0;
}

void Violation(WindowResult& r, const std::string& what) {
  ++r.wrong;
  if (r.violations.size() < 8) {
    r.violations.push_back(what);
  }
}

void CheckDrained(const std::vector<demi::LibOS*>& liboses, std::size_t allowed,
                  WindowResult& r) {
  std::size_t extra = 0;
  for (demi::LibOS* libos : liboses) {
    const std::size_t pending = libos->pending_ops();
    if (pending > allowed) {
      extra += pending - allowed;
      Violation(r, libos->name() + " left " + std::to_string(pending) +
                       " operations pending after drain");
    }
  }
  r.extra["core.pending_ops_end"] = static_cast<double>(extra);
}

void CheckCapabilities(demi::Simulation& sim, WindowResult& r) {
  const std::uint64_t v = sim.counters().Get(demi::Counter::kCapabilityViolations);
  r.extra["hw.tenant.capability_violations"] = static_cast<double>(v);
  if (v != 0) {
    Violation(r, std::to_string(v) + " capability violations");
  }
}

LayerSample SampleCpus(demi::Simulation& sim, const std::vector<demi::HostCpu*>& cpus) {
  LayerSample s;
  for (demi::HostCpu* cpu : cpus) {
    for (std::size_t c = 0; c < demi::kNumCounters; ++c) {
      const auto counter = static_cast<demi::Counter>(c);
      s.counters.Add(counter, cpu->counters().Get(counter));
    }
    s.busy_ns.push_back(cpu->busy_ns());
  }
  s.metrics = sim.MergedSnapshot();
  s.schedule_calls = sim.schedule_calls();
  s.at = sim.now();
  return s;
}

}  // namespace apibench
