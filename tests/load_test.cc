// Tests for the open-loop load harness (src/load): deterministic replay,
// Zipfian key-popularity shape, churn accounting, and intended-send-time
// (coordinated-omission-free) latency measurement.

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/load/open_loop_runner.h"
#include "src/load/workload.h"
#include "src/sim/time.h"

namespace demi {
namespace {

OpenLoopConfig SmallConfig() {
  OpenLoopConfig cfg;
  cfg.connections = 512;
  cfg.client_stacks = 2;
  cfg.server_ports = 8;
  cfg.ramp_batch = 256;
  cfg.seed = 7;
  return cfg;
}

TEST(OpenLoopRamp, EstablishesAndAcceptsEveryConnection) {
  OpenLoopConfig cfg = SmallConfig();
  cfg.connections = 4096;
  OpenLoopRunner r(cfg);
  ASSERT_TRUE(r.Ramp());
  EXPECT_EQ(r.established_connections(), cfg.connections);
  EXPECT_EQ(r.accepted_connections(), cfg.connections);
  EXPECT_EQ(r.unexpected_deaths(), 0u);
}

// Everything random in the harness draws from seeded generators, so two runs
// with the same config must produce the same arrival sequence, the same
// completions, and the same latency distribution — bit for bit.
struct RunDigest {
  std::uint64_t issued;
  std::uint64_t completed;
  std::uint64_t served;
  std::uint64_t churned;
  std::uint64_t flips;
  std::uint64_t lat_count;
  std::uint64_t lat_p50;
  std::uint64_t lat_p99;
  std::uint64_t lat_max;
  TimeNs end_clock;
  std::vector<TimeNs> first_intents;  // first 64 (intended, completed) pairs

  bool operator==(const RunDigest&) const = default;
};

RunDigest RunOnce(std::uint64_t seed) {
  OpenLoopConfig cfg = SmallConfig();
  cfg.seed = seed;
  cfg.workload.kind = WorkloadKind::kKv;
  cfg.arrival.process = ArrivalConfig::Process::kMmpp;
  cfg.churn_per_sec = 2000;
  cfg.incast_fanin = 32;
  cfg.incast_period_ns = 2 * kMillisecond;
  OpenLoopRunner r(cfg);

  RunDigest d{};
  r.set_completion_probe([&](TimeNs intended, TimeNs completed) {
    if (d.first_intents.size() < 64) {
      d.first_intents.push_back(intended);
      d.first_intents.push_back(completed);
    }
  });
  EXPECT_TRUE(r.Ramp());
  const SweepPoint pt = r.RunPoint(40'000, 2 * kMillisecond, 10 * kMillisecond);
  d.issued = r.issued_total();
  d.completed = r.completed_total();
  d.served = r.served_total();
  d.churned = r.churn_completed();
  d.flips = r.phase_flips();
  d.lat_count = pt.latency.count;
  d.lat_p50 = pt.latency.p50;
  d.lat_p99 = pt.latency.p99;
  d.lat_max = pt.latency.max;
  d.end_clock = r.sim().now();
  return d;
}

// FNV-1a over the recorded (intended, completed) pairs.
std::uint64_t IntentsDigest(const std::vector<TimeNs>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const TimeNs t : v) {
    h = (h ^ static_cast<std::uint64_t>(t)) * 0x100000001b3ull;
  }
  return h;
}

// Seed 42 is also pinned to golden constants: any change to the client fleet's
// arrival draws, backlog, response drain or stressor clocks moves them.
TEST(OpenLoopDeterminism, SameSeedSameRunBitForBit) {
  const RunDigest a = RunOnce(42);
  const RunDigest b = RunOnce(42);
  EXPECT_GT(a.issued, 0u);
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a, b);

  EXPECT_EQ(a.issued, 474u);
  EXPECT_EQ(a.completed, 442u);
  EXPECT_EQ(a.served, 442u);
  EXPECT_EQ(a.churned, 22u);
  EXPECT_EQ(a.flips, 3u);
  EXPECT_EQ(a.lat_count, 411u);
  EXPECT_EQ(a.lat_p50, 7'231u);
  EXPECT_EQ(a.lat_p99, 51'711u);
  EXPECT_EQ(a.lat_max, 55'198u);
  EXPECT_EQ(a.end_clock, 12'448'576);
  EXPECT_EQ(a.first_intents.size(), 64u);
  EXPECT_EQ(IntentsDigest(a.first_intents), 0x0696bfdfdf6f41a6ull);
}

TEST(OpenLoopDeterminism, DifferentSeedDiverges) {
  const RunDigest a = RunOnce(42);
  const RunDigest c = RunOnce(43);
  EXPECT_NE(a, c);
}

// The Zipf sampler must actually produce the configured skew: rank-k popularity
// proportional to 1/k^theta. Checked against the exact normalization constant.
TEST(OpenLoopWorkload, ZipfKeyFrequenciesMatchConfiguredSkew) {
  constexpr std::uint64_t kKeys = 1024;
  constexpr double kTheta = 0.99;
  constexpr std::uint64_t kSamples = 400'000;
  WorkloadConfig wcfg;
  wcfg.kind = WorkloadKind::kKv;
  wcfg.kv_keys = kKeys;
  wcfg.zipf_theta = kTheta;
  WorkloadModel model(wcfg);
  Rng rng(123);

  std::map<std::uint64_t, std::uint64_t> freq;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    const std::uint64_t key = model.SampleKey(rng);
    ASSERT_LT(key, kKeys);
    ++freq[key];
  }

  double zetan = 0;
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    zetan += 1.0 / std::pow(static_cast<double>(k), kTheta);
  }
  // Gray et al. samplers emit rank r as key r (0 = hottest) and compute the two
  // hottest ranks exactly; ranks beyond that come from a continuous
  // approximation. Check ranks 1-2 against exact theory, then shape properties.
  for (std::uint64_t rank = 1; rank <= 2; ++rank) {
    const double expect = 1.0 / (std::pow(static_cast<double>(rank), kTheta) * zetan);
    const double got = static_cast<double>(freq[rank - 1]) / kSamples;
    EXPECT_NEAR(got, expect, expect * 0.10)
        << "rank " << rank << " expected " << expect << " got " << got;
  }
  // Popularity decays with rank (gaps wide enough to swamp sampling noise).
  EXPECT_GT(freq[0], freq[3]);
  EXPECT_GT(freq[3], freq[15]);
  EXPECT_GT(freq[15], freq[63]);
  EXPECT_GT(freq[63], freq[255]);
  // Head mass matches the configured skew: the top 16 of 1024 keys should carry
  // zeta_16/zeta_n of the traffic (approximation + sampling tolerance).
  double zeta16 = 0;
  for (std::uint64_t k = 1; k <= 16; ++k) {
    zeta16 += 1.0 / std::pow(static_cast<double>(k), kTheta);
  }
  std::uint64_t head = 0;
  for (std::uint64_t k = 0; k < 16; ++k) {
    head += freq[k];
  }
  const double head_expect = zeta16 / zetan;
  EXPECT_NEAR(static_cast<double>(head) / kSamples, head_expect, head_expect * 0.15);
}

TEST(OpenLoopWorkload, ZipfThetaZeroIsUniform) {
  constexpr std::uint64_t kKeys = 64;
  WorkloadConfig wcfg;
  wcfg.kv_keys = kKeys;
  wcfg.zipf_theta = 0.0;
  WorkloadModel model(wcfg);
  Rng rng(5);
  std::vector<std::uint64_t> freq(kKeys, 0);
  constexpr std::uint64_t kSamples = 128'000;
  for (std::uint64_t i = 0; i < kSamples; ++i) {
    ++freq[model.SampleKey(rng)];
  }
  const double uniform = static_cast<double>(kSamples) / kKeys;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_NEAR(static_cast<double>(freq[k]), uniform, uniform * 0.25) << "key " << k;
  }
}

// Churn must close each victim exactly once (the `closing` latch) and replace it
// with a fresh connection: after the load stops and reconnects drain, the fleet
// is fully re-established and every initiated close produced exactly one cycle.
TEST(OpenLoopChurn, NeverDoubleClosesAndFleetRecovers) {
  OpenLoopConfig cfg = SmallConfig();
  cfg.connections = 1024;
  cfg.churn_per_sec = 50'000;  // ~500 closes over the 10ms point: heavy churn
  OpenLoopRunner r(cfg);
  ASSERT_TRUE(r.Ramp());
  r.RunPoint(20'000, 1 * kMillisecond, 10 * kMillisecond);
  r.StopLoad();
  // Drain in-flight closes and reconnects.
  r.sim().RunUntil(
      [&] {
        return r.churn_completed() == r.churn_initiated() &&
               r.established_connections() == cfg.connections;
      },
      r.sim().now() + 5 * kSecond);

  EXPECT_GT(r.churn_initiated(), 100u);
  // Exactly one completed cycle per initiated close — a double Close() on one
  // victim would either crash or leave these counters unequal.
  EXPECT_EQ(r.churn_completed(), r.churn_initiated());
  EXPECT_EQ(r.established_connections(), cfg.connections);
  EXPECT_EQ(r.unexpected_deaths(), 0u);
}

// Intended-send-time accounting, against a hand-computed schedule: with Poisson
// arrivals off and a 1-connection incast firing every P ns, request k's intended
// time is exactly t_start + (k+1)*P no matter when the bytes moved or completed.
TEST(OpenLoopLatency, IntendedSendTimesMatchHandComputedSchedule) {
  OpenLoopConfig cfg;
  cfg.connections = 1;
  cfg.client_stacks = 1;
  cfg.server_ports = 1;
  cfg.ramp_batch = 1;
  cfg.incast_fanin = 1;
  cfg.incast_period_ns = 500 * kMicrosecond;
  OpenLoopRunner r(cfg);
  ASSERT_TRUE(r.Ramp());

  std::vector<TimeNs> intents;
  std::vector<TimeNs> completions;
  r.set_completion_probe([&](TimeNs intended, TimeNs completed) {
    intents.push_back(intended);
    completions.push_back(completed);
  });
  const TimeNs t_start = r.sim().now();
  r.RunPoint(/*offered_rps=*/0, /*warmup=*/0, /*measure=*/10 * kMillisecond);
  r.StopLoad();
  // Drain the request issued at the tail of the window.
  r.sim().RunUntil([&] { return r.completed_total() == r.issued_total(); },
                   r.sim().now() + 1 * kSecond);

  ASSERT_GE(intents.size(), 16u);
  for (std::size_t k = 0; k < intents.size(); ++k) {
    // The incast timer self-reschedules from its own fire time, so intended
    // times form an exact arithmetic sequence.
    EXPECT_EQ(intents[k], t_start + static_cast<TimeNs>(k + 1) * cfg.incast_period_ns)
        << "request " << k;
    EXPECT_GT(completions[k], intents[k]) << "request " << k;
  }
  EXPECT_EQ(r.issued_total(), r.completed_total());
}

// Backlogged requests still measure from their arrival instant: pile requests on
// one connection faster than the server drains them and the tail must reflect
// the queueing delay (monotonically growing completion - intended).
TEST(OpenLoopLatency, QueueingDelayLandsInTheMeasuredTail) {
  OpenLoopConfig cfg;
  cfg.connections = 1;
  cfg.client_stacks = 1;
  cfg.server_ports = 1;
  cfg.ramp_batch = 1;
  cfg.server_work_per_request_ns = 100 * kMicrosecond;  // server is the bottleneck
  // Deterministic arrivals (one per 50us via incast; Poisson off below) make the
  // offered rate exactly 2x the service rate: the queue grows one request per
  // service time, without sampling noise.
  cfg.incast_fanin = 1;
  cfg.incast_period_ns = 50 * kMicrosecond;
  OpenLoopRunner r(cfg);
  ASSERT_TRUE(r.Ramp());

  std::vector<TimeNs> latencies;
  r.set_completion_probe([&](TimeNs intended, TimeNs completed) {
    latencies.push_back(completed - intended);
  });
  const SweepPoint pt =
      r.RunPoint(/*offered_rps=*/0, /*warmup=*/0, /*measure=*/20 * kMillisecond);
  ASSERT_GE(latencies.size(), 32u);
  // Later completions waited longer than early ones — the signature of an
  // open-loop measurement. Per-request latency sawtooths within a server batch
  // (the earliest-intended request of a burst waits longest), so compare block
  // means, which isolate the queue-growth trend. A closed-loop
  // (coordinated-omission) measurement would show flat latency here.
  const std::size_t n = latencies.size();
  TimeNs early_sum = 0;
  TimeNs late_sum = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    early_sum += latencies[k];
    late_sum += latencies[n - 1 - k];
  }
  EXPECT_GT(late_sum, early_sum * 4);
  EXPECT_GT(pt.latency.p999, pt.latency.p50);
}

TEST(OpenLoopValidate, AcceptsConfigsWithinFourTupleCapacity) {
  OpenLoopConfig cfg;  // defaults: 100k connections, capacity 8 * 64 * 2048
  EXPECT_TRUE(OpenLoopRunner::ValidateConfig(cfg).ok());
  cfg.connections = cfg.client_stacks * cfg.server_ports *
                    OpenLoopRunner::kEphemeralPartition;  // exactly full
  EXPECT_TRUE(OpenLoopRunner::ValidateConfig(cfg).ok());
}

TEST(OpenLoopValidate, OverCapacityIsTypedWithTheOffendingNumbers) {
  OpenLoopConfig cfg;
  cfg.client_stacks = 2;
  cfg.server_ports = 3;
  cfg.connections = 2 * 3 * OpenLoopRunner::kEphemeralPartition + 1;
  const Status s = OpenLoopRunner::ValidateConfig(cfg);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  // The message names both the request and the capacity so operators can size
  // the sweep without reading the source.
  EXPECT_NE(s.message().find("12289"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("12288"), std::string::npos) << s.message();
}

TEST(OpenLoopValidate, ZeroCountsAreRejected) {
  OpenLoopConfig cfg;
  cfg.connections = 0;
  EXPECT_EQ(OpenLoopRunner::ValidateConfig(cfg).code(), ErrorCode::kInvalidArgument);
  cfg = OpenLoopConfig{};
  cfg.client_stacks = 0;
  EXPECT_EQ(OpenLoopRunner::ValidateConfig(cfg).code(), ErrorCode::kInvalidArgument);
  cfg = OpenLoopConfig{};
  cfg.server_ports = 0;
  EXPECT_EQ(OpenLoopRunner::ValidateConfig(cfg).code(), ErrorCode::kInvalidArgument);
}

TEST(OpenLoopValidate, TenantModeRequiresAWeightedVictim) {
  OpenLoopConfig cfg;
  cfg.tenant.enabled = true;
  EXPECT_TRUE(OpenLoopRunner::ValidateConfig(cfg).ok());
  cfg.tenant.victim.weight = 0;
  EXPECT_EQ(OpenLoopRunner::ValidateConfig(cfg).code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace demi
