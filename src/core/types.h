// Core Demikernel types: queue descriptors, queue tokens, and operation results.
//
// Figure 3 of the paper: system calls that used to return file descriptors return
// queue descriptors (qd); non-blocking data-path operations return qtokens that are
// redeemed through wait/wait_any/wait_all. Because every qtoken names exactly one
// operation on one queue, completions wake exactly one waiter and carry the data with
// them (§4.4) — the two fixes over POSIX epoll.

#ifndef SRC_CORE_TYPES_H_
#define SRC_CORE_TYPES_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "src/common/status.h"
#include "src/memory/sgarray.h"
#include "src/sim/time.h"

namespace demi {

// Queue descriptor: the Demikernel analogue of a file descriptor.
using QDesc = int;
constexpr QDesc kInvalidQDesc = -1;

// Queue token: names one pending queue operation.
using QToken = std::uint64_t;
constexpr QToken kInvalidQToken = 0;

enum class OpType : std::uint8_t {
  kPush,
  kPop,
  kAccept,
  kConnect,
};

// What wait() hands back: the operation, its status, and — directly, with no second
// system call — the popped data or the accepted connection's queue descriptor.
struct QResult {
  OpType op = OpType::kPush;
  QDesc qd = kInvalidQDesc;
  Status status;
  SgArray sga;                  // kPop: the atomic unit that arrived
  QDesc new_qd = kInvalidQDesc; // kAccept: the new connection's queue
};

// The result of a completed push or pop: its status and, for a pop, the element.
inline QResult MakeQResult(OpType op, Status status = OkStatus(),
                           SgArray sga = SgArray()) {
  QResult res;
  res.op = op;
  res.status = std::move(status);
  res.sga = std::move(sga);
  return res;
}

// A user function applied to queue elements by filter/sort/map queues. The host-cost
// estimate drives the cost model and the libOS's offload decision (§4.3: filters run
// on the device when the accelerator supports it, on the CPU otherwise).
struct ElementPredicate {
  std::function<bool(const SgArray&)> fn;
  TimeNs host_cost_ns = 100;
};

struct ElementTransform {
  std::function<SgArray(const SgArray&)> fn;
  TimeNs host_cost_ns = 100;
};

struct ElementComparator {
  // Returns true when `a` has higher priority than `b` (pops first).
  std::function<bool(const SgArray&, const SgArray&)> fn;
  TimeNs host_cost_ns = 50;
};

}  // namespace demi

#endif  // SRC_CORE_TYPES_H_
