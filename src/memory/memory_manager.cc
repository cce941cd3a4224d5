#include "src/memory/memory_manager.h"

#include <tuple>

#include "src/common/logging.h"

namespace demi {

namespace {
constexpr std::size_t kArenaBytes = 2 * 1024 * 1024;  // size-class arenas (hugepage-sized)
constexpr std::size_t kHeaderArenaBytes = 64 * 1024;  // the header pool's arenas
constexpr TimeNs kAllocNs = 25;                       // pooled alloc/free CPU cost
}  // namespace

// A large registered region. Outlives the manager if buffers are still referenced
// (e.g. a device completion event still holds one).
class MemoryManager::Arena final : public BufferStorage {
 public:
  explicit Arena(std::size_t capacity) : BufferStorage(new std::byte[capacity], capacity) {}
  ~Arena() override { delete[] data_; }
};

// One allocation carved out of an arena. Destruction returns the slot to the pool it
// came from — this destructor IS the free-protection mechanism: it only runs once the
// application and every device reference are gone. An oversized allocation has no
// pool; its dedicated arena dies with it.
class MemoryManager::PooledStorage final : public BufferStorage {
 public:
  PooledStorage(MemoryManager* mgr, std::shared_ptr<bool> mgr_alive, Pool* pool,
                std::shared_ptr<Arena> arena, std::size_t offset, std::size_t capacity)
      : BufferStorage(arena->data() + offset, capacity),
        mgr_(mgr),
        mgr_alive_(std::move(mgr_alive)),
        pool_(pool),
        arena_(std::move(arena)),
        offset_(offset) {}

  ~PooledStorage() override {
    if (*mgr_alive_) {
      --mgr_->live_slots_;
      if (pool_ != nullptr) {
        pool_->free_slots.emplace_back(std::move(arena_), offset_);
      }
    }
  }

  const BufferStorage* registration_root() const override { return arena_.get(); }

 private:
  MemoryManager* mgr_;
  std::shared_ptr<bool> mgr_alive_;
  Pool* pool_;
  std::shared_ptr<Arena> arena_;
  std::size_t offset_;
};

bool MemoryManager::Pool::exhausted() const {
  return free_slots.empty() && (newest == nullptr || carved + slot_size > arena_bytes);
}

MemoryManager::MemoryManager(HostCpu* host) : host_(host) {
  static_assert(kSlotSizes.back() <= kArenaBytes && kHeaderSlotSize <= kHeaderArenaBytes);
  for (std::size_t i = 0; i < kSlotSizes.size(); ++i) {
    classes_[i].slot_size = kSlotSizes[i];
    classes_[i].arena_bytes = kArenaBytes;
  }
  header_pool_.slot_size = kHeaderSlotSize;
  header_pool_.arena_bytes = kHeaderArenaBytes;
  alive_ = std::make_shared<bool>(true);
}

MemoryManager::~MemoryManager() { *alive_ = false; }

void MemoryManager::AttachDevice(RegisterRegionFn register_region) {
  for (const auto& arena : arenas_) {
    register_region(arena);
  }
  devices_.push_back(std::move(register_region));
}

void MemoryManager::BindTenant(TenantRegistry* registry, TenantId tenant) {
  AttachDevice([registry, tenant](std::shared_ptr<BufferStorage> arena) {
    registry->GrantRegion(tenant, arena->registration_root());
  });
}

MemoryManager::Pool& MemoryManager::ClassFor(std::size_t size) {
  for (auto& cls : classes_) {
    if (size <= cls.slot_size) {
      return cls;
    }
  }
  // Oversized allocations get a dedicated class-of-one arena below; callers of
  // ClassFor guarantee size fits the largest class.
  PanicImpl(__FILE__, __LINE__, "ClassFor: size exceeds largest size class");
}

void MemoryManager::Grow(Pool& pool) {
  auto arena = std::make_shared<Arena>(pool.arena_bytes);
  bytes_reserved_ += pool.arena_bytes;
  // Transparent registration: the new arena is registered with every attached device
  // before any buffer from it is handed out.
  for (const auto& dev : devices_) {
    dev(arena);
  }
  pool.newest = arena;
  pool.carved = 0;
  arenas_.push_back(std::move(arena));
}

Buffer MemoryManager::Take(Pool& pool, std::size_t size) {
  std::shared_ptr<Arena> arena;
  std::size_t offset;
  if (pool.free_slots.empty()) {
    arena = pool.newest;
    offset = pool.carved;
    pool.carved += pool.slot_size;
  } else {
    std::tie(arena, offset) = std::move(pool.free_slots.back());
    pool.free_slots.pop_back();
  }
  auto storage = std::make_shared<PooledStorage>(this, alive_, &pool, std::move(arena),
                                                 offset, pool.slot_size);
  return Buffer::FromStorage(std::move(storage), 0, size);
}

Buffer MemoryManager::AllocateHeader(std::size_t size) {
  DEMI_CHECK(size > 0);
  if (size > kHeaderSlotSize) {
    ++header_pool_misses_;
    host_->Count(Counter::kHeaderPoolMisses);
    return Allocate(size);
  }
  // No size-class dispatch, so no CPU is charged: the pop is subsumed by the
  // per-segment stack processing cost the caller already charges.
  host_->Count(Counter::kBufferAllocs);
  ++allocs_;
  ++live_slots_;
  if (header_pool_.exhausted()) {
    ++header_pool_misses_;
    host_->Count(Counter::kHeaderPoolMisses);
    Grow(header_pool_);
  } else {
    ++header_pool_hits_;
    ++pool_hits_;
    host_->Count(Counter::kHeaderPoolHits);
  }
  return Take(header_pool_, size);
}

Buffer MemoryManager::Allocate(std::size_t size) {
  DEMI_CHECK(size > 0);
  host_->Work(kAllocNs);
  host_->Count(Counter::kBufferAllocs);
  ++allocs_;
  ++live_slots_;

  if (size > kSlotSizes.back()) {
    // Oversized: dedicated registered arena owned solely by this allocation — it is
    // NOT retained in arenas_, so it dies (and unreserves) with its last reference.
    // Devices attached later will not see it; devices attach at startup, before any
    // oversized traffic exists.
    auto arena = std::make_shared<Arena>(size);
    bytes_reserved_ += size;
    for (const auto& dev : devices_) {
      dev(arena);
    }
    auto storage = std::make_shared<PooledStorage>(this, alive_, /*pool=*/nullptr,
                                                   std::move(arena), 0, size);
    return Buffer::FromStorage(std::move(storage), 0, size);
  }

  Pool& pool = ClassFor(size);
  if (pool.exhausted()) {
    Grow(pool);
  } else {
    ++pool_hits_;
  }
  return Take(pool, size);
}

SgArray MemoryManager::AllocateSga(std::size_t size) { return SgArray(Allocate(size)); }

}  // namespace demi
