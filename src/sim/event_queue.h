// The scheduler's event heap.
//
// The Simulation keeps its event callbacks in a pooled side table (simulation.h);
// what the scheduler itself orders is only the trivially-copyable SchedEntry
// {due, seq, id}, one binary heap of them per core. Entries come out ordered by
// (due, seq) — seq is the global schedule order, so same-time events run in the
// order they were scheduled — and the top is the exact earliest entry, so idle
// jumps land the clock on precisely the next due time.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/sim/time.h"

namespace demi {

// Opaque handle for cancelling a scheduled event: (slot generation << 32) | slot.
using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;

struct SchedEntry {
  TimeNs due;
  std::uint64_t seq;  // tie-break: same-time events run in schedule order
  TimerId id;
};

// Max-heap comparator that puts the earliest (due, seq) on top.
struct SchedLater {
  bool operator()(const SchedEntry& a, const SchedEntry& b) const {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }
};

using EventHeap = std::priority_queue<SchedEntry, std::vector<SchedEntry>, SchedLater>;

}  // namespace demi

#endif  // SRC_SIM_EVENT_QUEUE_H_
