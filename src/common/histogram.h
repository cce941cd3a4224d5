// Log-bucketed latency histogram for experiment reporting (p50/p99/p99.9, mean, max).
//
// Uses HdrHistogram-style sub-bucketing: values are grouped by magnitude with a fixed
// relative precision (~1.5%), so recording is amortised O(1) and memory is bounded
// regardless of the latency range — the standard tool for tail-latency reporting in
// systems papers. Buckets grow on demand: a histogram holds buckets only up to the
// highest one it has recorded, so an empty one allocates nothing, and every bucket
// past the end counts as zero.

#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace demi {

class Histogram {
 public:
  void Record(std::uint64_t value);
  void RecordN(std::uint64_t value, std::uint64_t count);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }

  // Value at quantile q in [0, 1]; approximate to the bucket's relative precision.
  std::uint64_t Quantile(double q) const;

  std::uint64_t P50() const { return Quantile(0.50); }
  std::uint64_t P90() const { return Quantile(0.90); }
  std::uint64_t P99() const { return Quantile(0.99); }
  std::uint64_t P999() const { return Quantile(0.999); }

  void Merge(const Histogram& other);
  // Bucket-exact window difference: *this minus `earlier`, where `earlier` is a
  // previous copy of this histogram (recording is append-only, so `earlier` has no
  // more buckets than this one and each is <= the same bucket here). count and sum
  // subtract exactly; min/max are reconstructed from the differing buckets to the
  // bucket's relative precision.
  Histogram DiffSince(const Histogram& earlier) const;
  void Reset();

  // "n=... mean=... p50=... p99=... p99.9=... max=..." with values in the given unit.
  std::string Summary(const std::string& unit) const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per power of two.

  static std::size_t BucketFor(std::uint64_t value);
  static std::uint64_t BucketUpperBound(std::size_t index);

  std::vector<std::uint64_t> buckets_;  // up to the highest bucket recorded
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

}  // namespace demi

#endif  // SRC_COMMON_HISTOGRAM_H_
