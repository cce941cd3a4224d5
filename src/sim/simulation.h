// The discrete-event simulation context.
//
// Execution model: everything is single-threaded and polled, like a DPDK poll-mode
// application. Components that need to make progress (NIC drivers, network stacks,
// application actors) register as Pollers; device and timer futures are Events on a
// virtual clock. CPU work on the measured path advances the clock (HostCpu::Work);
// device-side work never blocks the CPU — it schedules completion events instead,
// exactly the overlap a real kernel-bypass device gives you.
//
// Scheduler: every core owns one binary heap of (due, seq, id) entries
// (event_queue.h); callbacks live in a pooled slot table addressed by
// generation-tagged TimerIds. Cancel tombstones the slot, and the heap entry is
// dropped unrun once it reaches the top. Dispatch takes the globally earliest
// (due, seq) across the cores' heaps.
//
// Multi-core model (DESIGN.md §13): ConfigureCores(N) adds execution contexts
// 1..N-1 next to core 0. Core 0's pollers and events advance the global clock
// directly. A core c > 0 executes in *bubbles*: its pollers run only once the
// global clock has caught up to the core's busy horizon (busy_until), the clock
// advance its work causes is recorded as the new horizon, and the global clock is
// then restored — so N cores doing independent work overlap in virtual time instead
// of serializing. Each core owns an event heap (timers armed inside a bubble stay
// on that core) and a MetricsRegistry. Determinism: cores are polled in fixed
// index order and events dispatch in global (due, seq) order, so a run is a pure
// function of the seed — at any core count.
//
// Blocking convenience calls (LibOS::Wait in examples) drive Simulation::StepOnce in a
// loop; they may only be used from top-level driver code, never from inside a Poller.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/cost_model.h"
#include "src/sim/counters.h"
#include "src/sim/event_queue.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"

namespace demi {

// Anything that makes forward progress when polled (a NIC driver loop, a stack, an
// application actor). Poll() returns true if any work was done.
class Poller {
 public:
  virtual ~Poller() = default;
  virtual bool Poll() = 0;
};

class Simulation {
 public:
  explicit Simulation(CostModel cost = CostModel{});

  TimeNs now() const { return now_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }
  Counters& counters() { return counters_; }
  // The current execution context's registry: core 0's outside any bubble, the
  // bubble core's inside one — so per-core recordings (op latency, ring depth)
  // land in per-core histograms and merge without double-counting.
  MetricsRegistry& metrics() { return metrics(current_core_); }
  const MetricsRegistry& metrics() const {
    return const_cast<Simulation*>(this)->metrics(current_core_);
  }
  MetricsRegistry& metrics(int core);
  // One export view: core 0's snapshot (with the global counters) plus every other
  // core's histograms/trace merged in bucket-wise.
  MetricsSnapshot MergedSnapshot();
  void SetMetricsEnabled(bool enabled);

  // --- multi-core execution contexts ---

  // Declares `n` cores (including core 0). Call once, before any ScheduleOn /
  // AddPollerOn targeting cores > 0. Idempotent growth: a larger n adds cores.
  void ConfigureCores(int n);
  int num_cores() const { return static_cast<int>(cores_.size()); }
  // The core whose bubble is executing; 0 outside any bubble.
  int current_core() const { return current_core_; }
  // How far ahead of the global clock core `c`'s serial work has run.
  TimeNs core_busy_until(int core) const;
  // Construction-time default core for AddPoller/Schedule issued outside any
  // bubble (e.g. a worker libOS constructor registering its pollers). Returns the
  // previous value so scoped setters can restore it.
  int SetHomeCore(int core);

  // Schedules `fn` to run at now()+delay (clamped to >= now). Returns a cancellable id.
  // The event lands on the calling context's core: inside a bubble, the bubble's
  // core (a TCP retransmit timer armed by a worker fires on that worker); outside,
  // the home core (default 0).
  TimerId Schedule(TimeNs delay, std::function<void()> fn);
  TimerId ScheduleAt(TimeNs when, std::function<void()> fn);
  // Explicit-core forms, for cross-core messages (e.g. a steal notification).
  TimerId ScheduleOn(int core, TimeNs delay, std::function<void()> fn);
  TimerId ScheduleAtOn(int core, TimeNs when, std::function<void()> fn);
  void Cancel(TimerId id);

  // Registers/unregisters a poller. Pollers are polled once per StepOnce round, on
  // the registering context's core (see Schedule). RemovePoller searches all cores.
  void AddPoller(Poller* poller);
  void AddPollerOn(int core, Poller* poller);
  void RemovePoller(Poller* poller);

  // Advances the clock by `ns` of CPU work on the measured path.
  void AdvanceClock(TimeNs ns) { now_ += ns; }

  // Runs every event due at or before now().
  // Returns true if at least one event ran.
  bool RunDue();

  // One scheduling round: poll all pollers, run due events; if nothing happened, jump
  // the clock to the next pending event and run it. Returns false only when the
  // simulation is completely idle (no progress possible).
  bool StepOnce();

  // Steps until pred() is true or the clock passes `deadline`.
  // Returns true if pred() held before the deadline.
  bool RunUntil(const std::function<bool()>& pred, TimeNs deadline);

  // Steps until the clock has advanced by `duration` (or the simulation idles out).
  void RunFor(TimeNs duration);

  bool idle() const;
  std::size_t pending_events() const;
  // Lifetime total of Schedule/ScheduleAt calls; lets tests assert that hot paths
  // (e.g. the TCP retransmit timer) are not rescheduling per event.
  std::uint64_t schedule_calls() const { return schedule_calls_; }

 private:
  // Queue entries are trivially copyable; the callback lives in a pooled side table.
  // Keeping std::function out of the scheduler means entry moves are plain 24-byte
  // copies (no move-manager indirect calls) and dispatching an event never copies a
  // callback's captured state — with refcounted buffers in flight, a per-dispatch
  // std::function copy would clone every captured Buffer reference.
  //
  // Pooled callback slot. `gen` identifies the live incarnation: it is baked into
  // the TimerId at alloc and bumped at release, so Cancel on a dead or reused id
  // misses without any lookup structure. A cancelled slot keeps its (nulled) fn
  // until its heap entry reaches the top and is released — null fn is the tombstone.
  struct FnSlot {
    std::function<void()> fn;
    std::uint32_t gen = 1;
  };

  // One execution context: its event heap and poller list (the shard of the
  // simulation that core runs), a busy horizon (unused by core 0, which runs on the
  // global clock), and a metrics registry, boxed so references to it survive
  // ConfigureCores growing the vector.
  struct CoreCtx {
    EventHeap events;
    std::vector<Poller*> pollers;
    TimeNs busy_until = 0;
    std::unique_ptr<MetricsRegistry> metrics;
  };

  TimerId AllocSlot(std::function<void()> fn);
  // Removes and returns the callback, releasing the slot (and its captures).
  std::function<void()> TakeSlot(std::uint32_t slot);
  CoreCtx& Core(int core) { return cores_[static_cast<std::size_t>(core)]; }
  // The core whose heap holds the globally earliest (due, seq) event, or -1.
  // Skips cancelled tombstones at each heap top (releasing them) on the way.
  int EarliestCore();
  // Runs `fn` in core `c`'s bubble starting at the current global clock, then
  // records the bubble end as the core's new busy horizon and restores the clock.
  void RunInBubble(int core, const std::function<void()>& fn);

  CostModel cost_;
  Counters counters_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t schedule_calls_ = 0;
  std::vector<FnSlot> event_fns_;
  std::vector<std::uint32_t> free_fn_slots_;
  std::size_t cancelled_count_ = 0;
  bool in_step_ = false;
  std::vector<CoreCtx> cores_;  // cores 0..N-1
  int current_core_ = 0;        // bubble being executed (0 = none)
  int home_core_ = 0;           // default core for out-of-bubble registration
};

// The CPU of one simulated host. Work on a host that `charges_clock` advances the global
// clock (it is on the measured critical path); a non-charging host (e.g. a load-generator
// fleet) only accounts its work. Every host keeps its own counters; the simulation-wide
// aggregate is updated too.
class HostCpu {
 public:
  HostCpu(Simulation* sim, std::string name, bool charges_clock = true, int core = 0)
      : sim_(sim), name_(std::move(name)), charges_clock_(charges_clock), core_(core) {}

  Simulation& sim() { return *sim_; }
  const CostModel& cost() const { return sim_->cost(); }
  const std::string& name() const { return name_; }
  TimeNs now() const { return sim_->now(); }

  // Charges `ns` of CPU work to this host.
  void Work(TimeNs ns) {
    if (ns <= 0) {
      return;
    }
    busy_ns_ += ns;
    counters_.Add(Counter::kHostCpuNs, static_cast<std::uint64_t>(ns));
    sim_->counters().Add(Counter::kHostCpuNs, static_cast<std::uint64_t>(ns));
    if (charges_clock_) {
      sim_->AdvanceClock(ns);
    }
  }

  // Charges a memory copy of `bytes` and counts it. Returns the cost charged.
  TimeNs CopyBytes(std::size_t bytes) {
    const TimeNs ns = cost().CopyNs(bytes);
    Count(Counter::kCopies);
    Count(Counter::kBytesCopied, bytes);
    Work(ns);
    return ns;
  }

  void Count(Counter c, std::uint64_t n = 1) {
    counters_.Add(c, n);
    sim_->counters().Add(c, n);
  }

  Counters& counters() { return counters_; }
  std::uint64_t busy_ns() const { return busy_ns_; }
  bool charges_clock() const { return charges_clock_; }
  void set_charges_clock(bool v) { charges_clock_ = v; }
  // The simulation core this host's work executes on (0 unless pinned by an SMP
  // worker pool). Informational: the clock a Work() call advances is decided by
  // the executing bubble, not this field.
  int core() const { return core_; }
  void set_core(int core) { core_ = core; }

 private:
  Simulation* sim_;
  std::string name_;
  bool charges_clock_;
  int core_ = 0;
  Counters counters_;
  std::uint64_t busy_ns_ = 0;
};

// Scoped home-core override: pollers/timers registered while alive land on `core`.
// Used when constructing per-core components (a worker's libOS and NetStack register
// themselves from their constructors, which know nothing about cores).
class HomeCoreScope {
 public:
  HomeCoreScope(Simulation& sim, int core) : sim_(sim), prev_(sim.SetHomeCore(core)) {}
  ~HomeCoreScope() { sim_.SetHomeCore(prev_); }
  HomeCoreScope(const HomeCoreScope&) = delete;
  HomeCoreScope& operator=(const HomeCoreScope&) = delete;

 private:
  Simulation& sim_;
  int prev_;
};

}  // namespace demi

#endif  // SRC_SIM_SIMULATION_H_
