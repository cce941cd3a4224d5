// Heap footprint of a plain Catnip socket. Plain queues carry only the plain data
// path's state; a recovery session's replay log, transport and listener state live
// in CatnipSessionQueue. This binary replaces the global operator new to count the
// allocations one LibOS::Socket() call makes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/core/harness.h"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace demi {
namespace {

TEST(CatnipFootprintTest, PlainSocketAllocatesOnlyPlainState) {
  TestHarness h;
  auto& host = h.AddHost("server", "10.0.0.1");
  auto& libos = h.Catnip(host);
  ASSERT_TRUE(libos.Socket().ok());  // the first socket also sizes the qtable

  g_allocations = 0;
  g_counting = true;
  auto qd = libos.Socket();
  g_counting = false;
  ASSERT_TRUE(qd.ok());
  // The queue object, the storage of its frame decoder and two op deques, and the
  // qtable entry: 8 with libstdc++. A queue that also carried a recovery session's
  // state would need 24.
  EXPECT_LE(g_allocations, 10u);
}

}  // namespace
}  // namespace demi
