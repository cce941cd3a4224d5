// Unit tests for src/common: Status/Result, Buffer slicing & refcounts, RingBuffer
// and Fifo invariants, ObjectPool reuse, byte-order codecs, checksums, histograms,
// and the deterministic random sources (including Zipf skew properties).

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/byte_order.h"
#include "src/common/checksum.h"
#include "src/common/fifo.h"
#include "src/common/histogram.h"
#include "src/common/pool.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/ring_buffer.h"
#include "src/common/status.h"

namespace demi {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad qd");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad qd");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> QuarterEven(int x) {
  ASSIGN_OR_RETURN(int half, HalveEven(x));
  ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterEven(8), 2);
  EXPECT_EQ(QuarterEven(6).code(), ErrorCode::kInvalidArgument);
}

// --- Buffer ---

TEST(BufferTest, EmptyBuffer) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(BufferTest, CopyOfString) {
  Buffer b = Buffer::CopyOf("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.AsStringView(), "hello");
}

TEST(BufferTest, SliceSharesStorage) {
  Buffer b = Buffer::CopyOf("hello world");
  Buffer s = b.Slice(6, 5);
  EXPECT_EQ(s.AsStringView(), "world");
  EXPECT_EQ(s.storage(), b.storage());
  EXPECT_EQ(b.use_count(), 2);
}

TEST(BufferTest, SliceClampsToBounds) {
  Buffer b = Buffer::CopyOf("abc");
  EXPECT_EQ(b.Slice(1, 100).AsStringView(), "bc");
  EXPECT_TRUE(b.Slice(10, 5).empty());
}

TEST(BufferTest, RefcountDropsWhenViewsDie) {
  Buffer b = Buffer::CopyOf("data");
  {
    Buffer v = b.Slice(0, 2);
    EXPECT_EQ(b.use_count(), 2);
  }
  EXPECT_EQ(b.use_count(), 1);
}

TEST(BufferTest, MutationVisibleThroughSlices) {
  Buffer b = Buffer::Allocate(4);
  std::memcpy(b.mutable_data(), "aaaa", 4);
  Buffer s = b.Slice(2, 2);
  b.mutable_data()[2] = std::byte{'z'};
  EXPECT_EQ(s.AsStringView(), "za");
}

TEST(BufferTest, ConcatCopy) {
  std::vector<Buffer> parts = {Buffer::CopyOf("foo"), Buffer(), Buffer::CopyOf("bar")};
  EXPECT_EQ(ConcatCopy(parts).AsStringView(), "foobar");
}

// --- RingBuffer ---

TEST(RingBufferTest, CapacityRoundsToPowerOfTwo) {
  RingBuffer<int> r(100);
  EXPECT_EQ(r.capacity(), 128u);
}

TEST(RingBufferTest, FifoOrder) {
  RingBuffer<int> r(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(r.Push(i));
  }
  EXPECT_TRUE(r.full());
  EXPECT_FALSE(r.Push(99));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.Pop(), i);
  }
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Pop(), std::nullopt);
}

TEST(RingBufferTest, WraparoundManyTimes) {
  RingBuffer<int> r(8);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (!r.full()) {
      ASSERT_TRUE(r.Push(next_in++));
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(r.Pop(), next_out++);
    }
  }
}

TEST(RingBufferTest, FrontPeeksWithoutConsuming) {
  RingBuffer<std::string> r(2);
  ASSERT_TRUE(r.Push("x"));
  ASSERT_NE(r.Front(), nullptr);
  EXPECT_EQ(*r.Front(), "x");
  EXPECT_EQ(r.size(), 1u);
}

// --- Fifo ---

// Pushes 0, 1, 2, ... until a ring of at least `min_capacity` slots is full.
Fifo<int> FullRing(std::size_t min_capacity) {
  Fifo<int> f;
  int next = 0;
  while (f.capacity() < min_capacity || f.size() < f.capacity()) {
    f.push_back(next++);
  }
  return f;
}

TEST(FifoTest, FifoOrderThroughWraparoundAndGrowth) {
  Fifo<int> f = FullRing(4);
  const std::size_t cap = f.capacity();
  int next_in = static_cast<int>(cap), next_out = 0;
  // Pop half, then refill so the ring wraps and is full again.
  for (std::size_t i = 0; i < cap / 2; ++i) {
    ASSERT_EQ(f.front(), next_out++);
    f.pop_front();
  }
  while (f.size() < cap) {
    f.push_back(next_in++);
  }
  ASSERT_EQ(f.capacity(), cap);
  // Growing a wrapped ring keeps the order.
  f.push_back(next_in++);
  EXPECT_EQ(f.capacity(), 2 * cap);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f[i], next_out + static_cast<int>(i));
  }
  // Many more laps through the grown ring.
  for (int round = 0; round < 1000; ++round) {
    f.push_back(next_in++);
    ASSERT_EQ(f.front(), next_out++);
    f.pop_front();
  }
  while (!f.empty()) {
    ASSERT_EQ(f.front(), next_out++);
    f.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(FifoTest, EraseAtFrontMiddleAndBack) {
  Fifo<std::string> f;
  for (const char* s : {"a", "b", "c", "d", "e"}) {
    f.push_back(s);
  }
  f.erase(0);          // front
  f.erase(1);          // middle: "c"
  f.erase(2);          // back: "e"
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], "b");
  EXPECT_EQ(f[1], "d");
  f.erase(1);
  f.erase(0);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.capacity(), 0u);
}

TEST(FifoTest, EraseInAWrappedRingKeepsOrder) {
  Fifo<int> f = FullRing(4);
  const int cap = static_cast<int>(f.capacity());
  f.pop_front();
  f.pop_front();
  f.push_back(100);  // wraps to the ring's first slot
  f.push_back(101);
  f.erase(f.size() - 3);  // the last element before the wrap point
  std::vector<int> got;
  for (std::size_t i = 0; i < f.size(); ++i) {
    got.push_back(f[i]);
  }
  std::vector<int> want;
  for (int i = 2; i < cap - 1; ++i) {
    want.push_back(i);
  }
  want.push_back(100);
  want.push_back(101);
  EXPECT_EQ(got, want);
}

TEST(FifoTest, MovedFromFifoIsEmpty) {
  Fifo<int> a;
  a.push_back(1);
  a.push_back(2);
  Fifo<int> b(std::move(a));
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.capacity(), 0u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.front(), 1);

  Fifo<int> c;
  c.push_back(7);
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.capacity(), 0u);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1], 2);
}

TEST(FifoTest, NewAndDrainedFifosHoldNoStorage) {
  Fifo<int> f;
  EXPECT_EQ(f.capacity(), 0u);
  for (int i = 0; i < 100; ++i) {
    f.push_back(i);
  }
  EXPECT_GE(f.capacity(), 100u);
  while (!f.empty()) {
    f.pop_front();
  }
  EXPECT_EQ(f.capacity(), 0u);
  f.push_back(1);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.capacity(), 0u);
}

TEST(FifoTest, PoppedBufferReleasesItsStorageAtOnce) {
  Buffer held = Buffer::CopyOf("payload");
  Fifo<Buffer> f;
  f.push_back(held);
  f.push_back(Buffer::CopyOf("next"));
  EXPECT_EQ(held.use_count(), 2);
  f.pop_front();  // not drained, so only destroying the element can drop the count
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(f.size(), 1u);

  f.push_back(held);
  f.erase(1);
  EXPECT_EQ(held.use_count(), 1);
}

// --- ObjectPool ---

TEST(ObjectPoolTest, ReusesReleasedObjects) {
  ObjectPool<int> pool(4);
  int* a = pool.Acquire();
  pool.Release(a);
  int* b = pool.Acquire();
  EXPECT_EQ(a, b);  // LIFO free list reuses the hot object
  EXPECT_EQ(pool.live(), 1u);
}

TEST(ObjectPoolTest, GrowsInChunks) {
  ObjectPool<int> pool(2);
  std::set<int*> ptrs;
  for (int i = 0; i < 7; ++i) {
    ptrs.insert(pool.Acquire());
  }
  EXPECT_EQ(ptrs.size(), 7u);
  EXPECT_EQ(pool.allocated(), 8u);  // 4 chunks of 2
}

// --- ByteWriter / ByteReader ---

TEST(ByteOrderTest, RoundTripAllWidths) {
  Buffer b = Buffer::Allocate(15);
  ByteWriter w(b.mutable_span());
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFULL);
  ByteReader r(b.span());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteOrderTest, BigEndianLayout) {
  Buffer b = Buffer::Allocate(2);
  ByteWriter w(b.mutable_span());
  w.U16(0x0102);
  EXPECT_EQ(std::to_integer<int>(b.span()[0]), 1);
  EXPECT_EQ(std::to_integer<int>(b.span()[1]), 2);
}

// --- Checksums ---

TEST(ChecksumTest, InternetChecksumKnownVector) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t csum = InternetChecksum(std::as_bytes(std::span(data)));
  EXPECT_EQ(csum, 0x220d);
}

TEST(ChecksumTest, ChecksumOfDataPlusChecksumIsZero) {
  Buffer b = Buffer::CopyOf("the quick brown fox!");  // even length
  const std::uint16_t csum = InternetChecksum(b.span());
  Buffer with = Buffer::Allocate(b.size() + 2);
  std::memcpy(with.mutable_data(), b.data(), b.size());
  with.mutable_data()[b.size()] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  with.mutable_data()[b.size() + 1] = std::byte{static_cast<std::uint8_t>(csum & 0xFF)};
  EXPECT_EQ(InternetChecksum(with.span()), 0);
}

TEST(ChecksumTest, AccumulatorMatchesFlatChecksumForEverySplit) {
  // The scatter-gather TX path (WriteTcpHeaderSg over a FrameChain) checksums the
  // payload part by part via ChecksumAccumulator. RFC 1071 is positional — bytes
  // alternate high/low in the 16-bit words — so an odd-length part shifts the parity
  // of everything after it. Every 2-part and 3-part split of a buffer, odd or even,
  // must fold to exactly the flat single-span checksum.
  std::uint8_t raw[31];
  for (std::size_t i = 0; i < sizeof(raw); ++i) {
    raw[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const auto data = std::as_bytes(std::span(raw));
  const std::uint16_t flat = InternetChecksum(data);

  for (std::size_t a = 0; a <= data.size(); ++a) {
    ChecksumAccumulator acc2;
    acc2.Add(data.subspan(0, a));
    acc2.Add(data.subspan(a));
    EXPECT_EQ(acc2.Fold(), flat) << "2-part split at " << a;
    for (std::size_t b = a; b <= data.size(); ++b) {
      ChecksumAccumulator acc3;
      acc3.Add(data.subspan(0, a));
      acc3.Add(data.subspan(a, b - a));
      acc3.Add(data.subspan(b));
      ASSERT_EQ(acc3.Fold(), flat) << "3-part split at " << a << "," << b;
    }
  }
}

TEST(ChecksumTest, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 (iSCSI test vector).
  Buffer b = Buffer::CopyOf("123456789");
  EXPECT_EQ(Crc32c(b.span()), 0xE3069283u);
}

TEST(ChecksumTest, Crc32cDetectsBitFlip) {
  Buffer b = Buffer::CopyOf("some storage payload");
  const std::uint32_t good = Crc32c(b.span());
  b.mutable_data()[3] ^= std::byte{0x01};
  EXPECT_NE(Crc32c(b.span()), good);
}

// --- Histogram ---

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 63u);
}

TEST(HistogramTest, QuantilesWithinRelativePrecision) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) {
    h.Record(v);
  }
  // ~1.5% relative precision from the 64-sub-bucket layout.
  EXPECT_NEAR(static_cast<double>(h.P50()), 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99000.0, 99000.0 * 0.02);
  EXPECT_EQ(h.max(), 100000u);
}

TEST(HistogramTest, MergeCombinesPopulations) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  h.Record(1000);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.P50(), 1000u);
}

// Buckets grow on demand, so histograms that recorded different ranges hold different
// numbers of buckets. The figures pinned below were read from a histogram that
// allocated every bucket up front; growing on demand must not change any of them.
struct HistogramFigures {
  std::uint64_t count, min, max, p0, p50, p90, p99, p999;
};

HistogramFigures FiguresOf(const Histogram& h) {
  return {h.count(), h.min(), h.max(), h.Quantile(0.0), h.P50(), h.P90(), h.P99(), h.P999()};
}

void ExpectFigures(const Histogram& h, const HistogramFigures& want) {
  const HistogramFigures got = FiguresOf(h);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.p0, want.p0);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_EQ(got.p999, want.p999);
}

Histogram HistogramOf(std::initializer_list<std::uint64_t> values) {
  Histogram h;
  for (const std::uint64_t v : values) {
    h.Record(v);
  }
  return h;
}

TEST(HistogramTest, MergeAWiderHistogramIntoAnEmptyAndANarrowerOne) {
  const Histogram wide = HistogramOf({3, 70, 1000, 123456, 9876543210ULL});
  Histogram empty;
  empty.Merge(wide);
  ExpectFigures(empty, {5, 3, 9876543210ULL, 3, 1007, 123903, 123903, 123903});
  EXPECT_DOUBLE_EQ(empty.mean(), wide.mean());

  Histogram narrow = HistogramOf({1, 2, 50});
  narrow.Merge(wide);
  const HistogramFigures merged{8, 1, 9876543210ULL, 1, 50, 123903, 123903, 123903};
  ExpectFigures(narrow, merged);
  EXPECT_DOUBLE_EQ(narrow.mean(), 1234583474.0);

  Histogram wider = wide;
  wider.Merge(HistogramOf({1, 2, 50}));
  ExpectFigures(wider, merged);
}

TEST(HistogramTest, DiffSinceAnEarlierShorterCopy) {
  Histogram h = HistogramOf({5, 60});
  const Histogram earlier = h;  // holds only the buckets up to 60
  h.Record(5000);
  h.Record(70000);
  h.RecordN(1ULL << 40, 3);
  const Histogram window = h.DiffSince(earlier);
  // min is the lowest differing bucket's lower bound, as the window cannot tell 5000
  // from the rest of its bucket.
  ExpectFigures(window, {5, 4992, 1ULL << 40, 5055, 1ULL << 40, 1ULL << 40, 1ULL << 40,
                         1ULL << 40});
  EXPECT_DOUBLE_EQ(window.mean(), (5000.0 + 70000.0 + 3.0 * (1ULL << 40)) / 5.0);

  ExpectFigures(h.DiffSince(Histogram{}), {7, 5, 1ULL << 40, 5, 70655, 1ULL << 40,
                                           1ULL << 40, 1ULL << 40});
  EXPECT_EQ(h.DiffSince(h).count(), 0u);
}

TEST(HistogramTest, QuantilesMatchPinnedFigures) {
  Histogram h;
  std::uint64_t x = 12345;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    h.Record((x >> 33) % (1U << ((i % 24) + 1)));
  }
  ExpectFigures(h, {20000, 0, 16678280, 0, 2047, 1769471, 12582911, 16383999});
  EXPECT_DOUBLE_EQ(h.mean(), 693334.5595);
  EXPECT_EQ(h.Quantile(1.0), 16678280u);
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(500.0);
  }
  EXPECT_NEAR(sum / n, 500.0, 15.0);
}

// --- Zipf ---

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(13);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 600);
  }
}

// Property sweep: for every skew level, draws stay in range and skew orders hot keys.
class ZipfSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewTest, HotKeysDominateInProportionToTheta) {
  const double theta = GetParam();
  Rng rng(17);
  ZipfGenerator zipf(1000, theta);
  std::map<std::uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = zipf.Next(rng);
    ASSERT_LT(k, 1000u);
    ++counts[k];
  }
  // Rank 0 must be the hottest key for any positive skew.
  int max_count = 0;
  for (const auto& [k, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_EQ(counts[0], max_count);
  // Hotter theta concentrates more mass on the top key.
  const double top_frac = static_cast<double>(counts[0]) / n;
  if (theta >= 0.99) {
    EXPECT_GT(top_frac, 0.05);
  } else if (theta >= 0.5) {
    EXPECT_GT(top_frac, 0.005);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewTest, ::testing::Values(0.2, 0.5, 0.8, 0.99));

}  // namespace
}  // namespace demi
