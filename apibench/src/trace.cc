#include "apibench/src/trace.h"

#include <time.h>

#include <cstdio>

namespace apibench {

Tracer* g_tracer = nullptr;

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Tracer(demi::Simulation* sim) : sim_(sim) { spans_.reserve(1 << 20); }

std::uint32_t Tracer::Open(const char* name, std::uint64_t req) {
  SpanRec rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  rec.req = req;
  rec.sim_start = sim_->now();
  rec.cpu_start = ThreadCpuNs();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(rec);
  stack_.push_back(index);
  return index;
}

void Tracer::Close(std::uint32_t index) {
  SpanRec& rec = spans_[index];
  rec.cpu_end = ThreadCpuNs();
  rec.sim_end = sim_->now();
  // Spans close in LIFO order; anything above `index` was left open by an
  // early return and closes with it.
  while (!stack_.empty() && stack_.back() != index) {
    stack_.pop_back();
  }
  if (!stack_.empty()) {
    stack_.pop_back();
  }
  if (rec.parent >= 0) {
    SpanRec& parent = spans_[static_cast<std::size_t>(rec.parent)];
    parent.child_cpu += rec.cpu_end - rec.cpu_start;
    parent.child_sim += rec.sim_end - rec.sim_start;
  }
}

std::map<std::string, Tracer::Totals> Tracer::ByName() const {
  std::map<std::string, Totals> out;
  for (const SpanRec& rec : spans_) {
    Totals& t = out[rec.name];
    const double cpu = static_cast<double>(rec.cpu_end - rec.cpu_start);
    const double sim = static_cast<double>(rec.sim_end - rec.sim_start);
    ++t.calls;
    t.cpu_ns += cpu;
    t.sim_ns += sim;
    t.self_cpu_ns += cpu - static_cast<double>(rec.child_cpu);
    t.self_sim_ns += sim - static_cast<double>(rec.child_sim);
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::ByLayer() const {
  std::map<std::string, Totals> out;
  for (const auto& [name, t] : ByName()) {
    Totals& layer = out[name.substr(0, name.find('.'))];
    layer.calls += t.calls;
    layer.cpu_ns += t.cpu_ns;
    layer.sim_ns += t.sim_ns;
    layer.self_cpu_ns += t.self_cpu_ns;
    layer.self_sim_ns += t.self_sim_ns;
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name\tparent\treq\tsim_start_ns\tsim_end_ns\tcpu_start_ns\tcpu_end_ns\n");
  for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const SpanRec& rec = spans_[i];
    std::fprintf(f, "%s\t%lld\t%llu\t%lld\t%lld\t%lld\t%lld\n", rec.name,
                 static_cast<long long>(rec.parent),
                 static_cast<unsigned long long>(rec.req),
                 static_cast<long long>(rec.sim_start), static_cast<long long>(rec.sim_end),
                 static_cast<long long>(rec.cpu_start), static_cast<long long>(rec.cpu_end));
  }
  return std::fclose(f) == 0;
}

}  // namespace apibench
