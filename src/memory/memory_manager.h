// MemoryManager: the libOS-integrated allocator of §4.5.
//
// Three properties from the paper:
//
//  1. *Transparent registration.* The manager carves buffers out of large arenas and
//     registers each arena once with every attached device, so applications never call
//     a registration API and the per-I/O registration cost drops to zero (experiment C4
//     quantifies the difference against per-op and explicit schemes).
//
//  2. *Free-protection.* Buffers are refcounted; a device doing DMA holds a reference.
//     An application may "free" (drop) a buffer while the device still uses it — the
//     arena slot is recycled only when the last reference dies. There is deliberately
//     NO write-protection (§4.5): the paper judges it too expensive, and so do we.
//
//  3. *Size-class pooling*, jemalloc-style, so hot allocations are O(1) pointer pops.
//     A pool carves slots from its newest arena on demand, so host memory follows the
//     slots a run actually uses rather than the arenas it reserves.
//
// The trade-off the paper concedes — applications cannot bring their own allocator —
// is visible here: everything on the I/O path must come from this manager to stay
// zero-copy.

#ifndef SRC_MEMORY_MEMORY_MANAGER_H_
#define SRC_MEMORY_MEMORY_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/buffer.h"
#include "src/hw/tenant.h"
#include "src/memory/sgarray.h"
#include "src/sim/simulation.h"

namespace demi {

class MemoryManager {
 public:
  // A device registration hook: called once per arena (existing and future).
  using RegisterRegionFn = std::function<void(std::shared_ptr<BufferStorage> arena)>;

  explicit MemoryManager(HostCpu* host);
  ~MemoryManager();
  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  // Attaches a kernel-bypass device: every arena (current and future) is registered
  // with it, making *all* manager memory transparently usable for I/O (§3.1).
  void AttachDevice(RegisterRegionFn register_region);

  // Multi-tenant form of transparent registration: every arena (current and future)
  // lands in `tenant`'s device capability set, so buffers this manager hands out are
  // legal in that tenant's descriptors with no per-allocation work — the §4.5
  // allocator contract extended to an untrusted shared device.
  void BindTenant(TenantRegistry* registry, TenantId tenant);

  // Allocates a buffer of exactly `size` bytes from the pools.
  Buffer Allocate(std::size_t size);

  // Allocates a protocol-header buffer from the dedicated pre-registered header pool,
  // a pool of kHeaderSlotSize slots in small arenas of its own. Headers (eth+ip, tcp,
  // udp, framing) all fit one slot, so there is no size-class dispatch; oversized
  // requests fall back to Allocate() and count as pool misses.
  Buffer AllocateHeader(std::size_t size);

  // Largest request the header pool serves from its own slots.
  static constexpr std::size_t kHeaderSlotSize = 64;

  // Allocates a single-segment scatter-gather array (the public sgaalloc).
  SgArray AllocateSga(std::size_t size);

  // --- statistics ---
  std::uint64_t bytes_reserved() const { return bytes_reserved_; }  // arena footprint
  std::uint64_t allocs() const { return allocs_; }
  std::uint64_t pool_hits() const { return pool_hits_; }  // served without growing
  std::size_t arena_count() const { return arenas_.size(); }
  std::uint64_t live_slots() const { return live_slots_; }
  std::uint64_t header_pool_hits() const { return header_pool_hits_; }
  std::uint64_t header_pool_misses() const { return header_pool_misses_; }

 private:
  class Arena;
  class PooledStorage;
  // Equal slots carved from arenas of `arena_bytes`: a slot comes off the newest arena
  // by advancing `carved`, and the pool grows by an arena only once every slot of every
  // arena it has is live. `free_slots` holds only slots handed out and then returned;
  // each carries its arena's shared_ptr, so reusing one is a pure pop.
  struct Pool {
    std::size_t slot_size = 0;
    std::size_t arena_bytes = 0;
    std::shared_ptr<Arena> newest;
    std::size_t carved = 0;  // bytes of `newest` handed out
    std::vector<std::pair<std::shared_ptr<Arena>, std::size_t>> free_slots;

    bool exhausted() const;
  };

  static constexpr std::array<std::size_t, 8> kSlotSizes = {64,    256,    1024,   4096,
                                                            16384, 65536,  262144, 1048576};

  Pool& ClassFor(std::size_t size);
  void Grow(Pool& pool);
  // Hands out a returned slot of `pool` if one is free (LIFO), else the next uncarved
  // one; the pool must not be exhausted.
  Buffer Take(Pool& pool, std::size_t size);

  HostCpu* host_;
  std::vector<std::shared_ptr<Arena>> arenas_;
  std::array<Pool, kSlotSizes.size()> classes_;
  Pool header_pool_;
  std::vector<RegisterRegionFn> devices_;
  std::uint64_t bytes_reserved_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t pool_hits_ = 0;
  std::uint64_t live_slots_ = 0;
  std::uint64_t header_pool_hits_ = 0;
  std::uint64_t header_pool_misses_ = 0;
  // Set false on destruction; PooledStorage destructors skip recycling afterwards
  // (their arena shared_ptr keeps the memory itself valid).
  std::shared_ptr<bool> alive_;
};

}  // namespace demi

#endif  // SRC_MEMORY_MEMORY_MANAGER_H_
