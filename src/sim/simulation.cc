#include "src/sim/simulation.h"

#include <algorithm>

namespace demi {

Simulation::Simulation(CostModel cost) : cost_(cost) { ConfigureCores(1); }

void Simulation::ConfigureCores(int n) {
  DEMI_CHECK(n >= 1);
  while (num_cores() < n) {
    CoreCtx ctx;
    ctx.metrics = std::make_unique<MetricsRegistry>();
    if (!cores_.empty()) {
      ctx.metrics->set_enabled(cores_[0].metrics->enabled());
    }
    cores_.push_back(std::move(ctx));
  }
}

MetricsRegistry& Simulation::metrics(int core) {
  DEMI_CHECK(core >= 0 && core < num_cores());
  return *Core(core).metrics;
}

void Simulation::SetMetricsEnabled(bool enabled) {
  for (CoreCtx& ctx : cores_) {
    ctx.metrics->set_enabled(enabled);
  }
}

MetricsSnapshot Simulation::MergedSnapshot() {
  MetricsSnapshot snap = cores_[0].metrics->Snapshot(counters_, now_);
  // Counters are simulation-global and appear exactly once (from the snapshot
  // above); only the other cores' histograms and traces need folding in.
  for (std::size_t c = 1; c < cores_.size(); ++c) {
    cores_[c].metrics->MergeHistogramsInto(snap);
  }
  std::stable_sort(snap.trace.begin(), snap.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  return snap;
}

TimeNs Simulation::core_busy_until(int core) const {
  DEMI_CHECK(core >= 0 && core < num_cores());
  // Core 0 runs on the global clock itself.
  return core == 0 ? now_ : cores_[static_cast<std::size_t>(core)].busy_until;
}

int Simulation::SetHomeCore(int core) {
  DEMI_CHECK(core >= 0 && core < num_cores());
  const int prev = home_core_;
  home_core_ = core;
  return prev;
}

TimerId Simulation::Schedule(TimeNs delay, std::function<void()> fn) {
  return ScheduleAt(now_ + std::max<TimeNs>(delay, 0), std::move(fn));
}

TimerId Simulation::ScheduleAt(TimeNs when, std::function<void()> fn) {
  const int core = current_core_ != 0 ? current_core_ : home_core_;
  return ScheduleAtOn(core, when, std::move(fn));
}

TimerId Simulation::ScheduleOn(int core, TimeNs delay, std::function<void()> fn) {
  return ScheduleAtOn(core, now_ + std::max<TimeNs>(delay, 0), std::move(fn));
}

TimerId Simulation::ScheduleAtOn(int core, TimeNs when, std::function<void()> fn) {
  DEMI_CHECK(core >= 0 && core < num_cores());
  ++schedule_calls_;
  const TimerId id = AllocSlot(std::move(fn));
  Core(core).events.push(SchedEntry{std::max(when, now_), next_seq_++, id});
  return id;
}

TimerId Simulation::AllocSlot(std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_fn_slots_.empty()) {
    slot = free_fn_slots_.back();
    free_fn_slots_.pop_back();
    event_fns_[slot].fn = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(event_fns_.size());
    event_fns_.push_back(FnSlot{std::move(fn), 1});
  }
  return static_cast<TimerId>(event_fns_[slot].gen) << 32 | slot;
}

std::function<void()> Simulation::TakeSlot(std::uint32_t slot) {
  FnSlot& s = event_fns_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;  // drop captures now, not at slot reuse
  if (++s.gen == 0) {
    s.gen = 1;  // gen 0 + slot 0 would collide with kInvalidTimer
  }
  free_fn_slots_.push_back(slot);
  return fn;
}

void Simulation::Cancel(TimerId id) {
  if (id == kInvalidTimer) {
    return;
  }
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= event_fns_.size()) {
    return;
  }
  FnSlot& s = event_fns_[slot];
  if (s.gen != gen || !s.fn) {
    return;  // already fired, slot reused, or already cancelled
  }
  s.fn = nullptr;  // tombstone: the heap entry pops as a no-op at its due time
  ++cancelled_count_;
}

void Simulation::AddPoller(Poller* poller) {
  AddPollerOn(current_core_ != 0 ? current_core_ : home_core_, poller);
}

void Simulation::AddPollerOn(int core, Poller* poller) {
  DEMI_CHECK(poller != nullptr);
  DEMI_CHECK(core >= 0 && core < num_cores());
  Core(core).pollers.push_back(poller);
}

void Simulation::RemovePoller(Poller* poller) {
  for (CoreCtx& ctx : cores_) {
    std::erase(ctx.pollers, poller);
  }
}

bool Simulation::idle() const {
  return std::all_of(cores_.begin(), cores_.end(),
                     [](const CoreCtx& ctx) { return ctx.events.empty(); });
}

std::size_t Simulation::pending_events() const {
  std::size_t total = 0;
  for (const CoreCtx& ctx : cores_) {
    total += ctx.events.size();
  }
  return total - cancelled_count_;
}

int Simulation::EarliestCore() {
  int best = -1;
  const SchedEntry* best_top = nullptr;
  for (int core = 0; core < num_cores(); ++core) {
    EventHeap& heap = Core(core).events;
    // Release cancelled tombstones at the top so they neither win the comparison
    // nor linger as phantom next-event times for the idle jump.
    while (!heap.empty() && !event_fns_[static_cast<std::uint32_t>(heap.top().id)].fn) {
      TakeSlot(static_cast<std::uint32_t>(heap.top().id));
      --cancelled_count_;
      heap.pop();
    }
    if (heap.empty()) {
      continue;
    }
    const SchedEntry* top = &heap.top();
    if (best_top == nullptr || SchedLater{}(*best_top, *top)) {
      best = core;
      best_top = top;
    }
  }
  return best;
}

void Simulation::RunInBubble(int core, const std::function<void()>& fn) {
  CoreCtx& ctx = Core(core);
  const TimeNs saved = now_;
  const int prev_core = current_core_;
  current_core_ = core;
  fn();
  current_core_ = prev_core;
  ctx.busy_until = std::max(ctx.busy_until, now_);
  now_ = saved;
}

bool Simulation::RunDue() {
  std::uint64_t ran = 0;
  while (true) {
    const int core = EarliestCore();
    if (core < 0 || Core(core).events.top().due > now_) {
      break;
    }
    EventHeap& heap = Core(core).events;
    const SchedEntry ev = heap.top();
    heap.pop();
    // Take the callback out of the pool before running it: it may reschedule
    // (growing the pool). EarliestCore already released any tombstone on top.
    std::function<void()> fn = TakeSlot(static_cast<std::uint32_t>(ev.id));
    ++ran;
    if (core == 0) {
      fn();
    } else {
      // The event runs in its core's context at the global due time: device-side
      // completions (which charge no CPU) keep their exact timing, while CPU an
      // event callback does charge extends the core's busy horizon from here —
      // interrupt-style preemption rather than queueing behind the poll loop.
      RunInBubble(core, fn);
    }
  }
  if (ran > 0) {
    cores_[0].metrics->RecordStat(SimStat::kDispatchBatch, ran);
  }
  return ran > 0;
}

bool Simulation::StepOnce() {
  DEMI_CHECK(!in_step_ && "blocking waits may not nest inside Poller::Poll");
  in_step_ = true;
  // Simulator-internal stats go to core 0's registry (boxed, so the reference
  // survives a poller growing the core vector).
  MetricsRegistry& stats = *cores_[0].metrics;
  stats.RecordStat(SimStat::kSchedHeapDepth, pending_events());
  const TimeNs poll_start = now_;
  bool progress = false;
  // Core 0 polls on the global clock. Iterate by index: pollers may be added during
  // polling (e.g. accept spawns actors).
  for (std::size_t i = 0; i < cores_[0].pollers.size(); ++i) {
    progress |= cores_[0].pollers[i]->Poll();
  }
  // Bubble cores, in fixed index order (the deterministic interleaving rule): a
  // core polls only once the global clock has caught up with its busy horizon, and
  // the clock advance its poll causes becomes the new horizon.
  for (int core = 1; core < num_cores(); ++core) {
    CoreCtx& ctx = Core(core);
    if (ctx.pollers.empty() || now_ < ctx.busy_until) {
      continue;
    }
    bool core_progress = false;
    RunInBubble(core, [&] {
      for (std::size_t i = 0; i < ctx.pollers.size(); ++i) {
        core_progress |= ctx.pollers[i]->Poll();
      }
    });
    progress |= core_progress;
  }
  const TimeNs dispatch_start = now_;
  stats.RecordStat(SimStat::kStepPollNs,
                   static_cast<std::uint64_t>(dispatch_start - poll_start));
  progress |= RunDue();
  stats.RecordStat(SimStat::kStepDispatchNs,
                   static_cast<std::uint64_t>(now_ - dispatch_start));
  in_step_ = false;
  if (progress) {
    return true;
  }
  // Nothing runnable now: jump to the next wakeup. Candidates are the earliest
  // scheduled event across all cores and the nearest busy horizon of a bubble core
  // that still has pollers waiting to run (its next poll is the wakeup).
  const int core = EarliestCore();
  TimeNs target = core >= 0 ? Core(core).events.top().due : -1;
  for (int c = 1; c < num_cores(); ++c) {
    const CoreCtx& ctx = Core(c);
    if (!ctx.pollers.empty() && ctx.busy_until > now_ &&
        (target < 0 || ctx.busy_until < target)) {
      target = ctx.busy_until;
    }
  }
  if (target < 0) {
    return false;  // completely idle
  }
  if (target > now_) {
    stats.RecordStat(SimStat::kIdleJumpNs, static_cast<std::uint64_t>(target - now_));
  }
  now_ = std::max(now_, target);
  RunDue();
  return true;  // time advanced (and/or events ran): the next step can make progress
}

bool Simulation::RunUntil(const std::function<bool()>& pred, TimeNs deadline) {
  while (!pred()) {
    if (now_ > deadline) {
      return false;
    }
    if (!StepOnce()) {
      return pred();
    }
  }
  return true;
}

void Simulation::RunFor(TimeNs duration) {
  const TimeNs end = now_ + duration;
  while (now_ < end) {
    if (!StepOnce()) {
      now_ = end;  // idle: nothing will ever happen; just advance time.
      return;
    }
  }
}

}  // namespace demi
