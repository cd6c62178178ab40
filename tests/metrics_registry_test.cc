// MetricsRegistry tests. The concurrency tests are the TSan proof for the
// counter-race fix: many ThreadPool lanes hammering the same named counter
// must produce exact totals and no reported races (run under
// scripts/run_sanitized_tests.sh thread). The old GlobalModelIntegrity()
// singleton of plain uint64 fields failed exactly this. Log2BucketQuantile
// is the quantile walk behind ChannelHealthTracker's windowed p99.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "util/metrics_registry.h"
#include "util/thread_pool.h"

namespace pythia {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

// Samples counted in the layout Log2BucketQuantile reads: bucket b holds the
// samples of bit width b (bucket 0 the value 0, bucket b >= 1 [2^(b-1), 2^b)),
// the way ChannelHealthTracker fills its window.
struct Log2Buckets {
  uint64_t counts[kLog2Buckets] = {};
  uint64_t n = 0;

  void Add(uint64_t sample, uint64_t times = 1) {
    counts[std::bit_width(sample)] += times;
    n += times;
  }
  double Quantile(double q, double fallback = -1.0) const {
    return Log2BucketQuantile(counts, n, q, fallback);
  }
};

TEST(Log2BucketQuantileTest, EmptyIsZero) {
  const Log2Buckets h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // not the fallback
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(Log2BucketQuantileTest, QuantileIsBucketAccurate) {
  // 100 samples at ~10us, 1 at ~10000us: p50 lands in the 10us bucket
  // [8, 16), p99.9 reaches the outlier's bucket [8192, 16384).
  Log2Buckets h;
  h.Add(10, 100);
  h.Add(10000);
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  const double p999 = h.Quantile(0.999);
  EXPECT_GE(p999, 8192.0);
  EXPECT_LT(p999, 16384.0);
}

TEST(Log2BucketQuantileTest, QuantileEndpoints) {
  Log2Buckets h;
  h.Add(5);
  EXPECT_GE(h.Quantile(0.0), 4.0);
  EXPECT_LT(h.Quantile(1.0), 8.0);
  // q is clamped to [0, 1].
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

TEST(Log2BucketQuantileTest, InterpolatesLinearlyInsideTheBucket) {
  // Four samples in [8, 16): rank r of 4 sits r/4 of the way from 8 to 15.
  Log2Buckets h;
  h.Add(9, 4);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 8.0 + 7.0 * 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 15.0);
  // The value 0 has a bucket of its own, which interpolates to 0.
  Log2Buckets zeros;
  zeros.Add(0, 3);
  EXPECT_DOUBLE_EQ(zeros.Quantile(0.5), 0.0);
}

TEST(Log2BucketQuantileTest, FallbackWhenBucketsHoldFewerSamplesThanRank) {
  // n counts 4 samples but the buckets hold only 2: a rank past the second
  // sample is not in any bucket and the caller's fallback comes back.
  Log2Buckets h;
  h.Add(100, 2);
  h.n = 4;
  EXPECT_DOUBLE_EQ(h.Quantile(0.99, /*fallback=*/123.0), 123.0);
  // A rank the buckets do cover still interpolates.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0, /*fallback=*/123.0), 64.0 + 63.0 * 0.5);
}

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);  // same name, same counter
  a.Increment();
  EXPECT_EQ(reg.counter("x").value(), 1u);
  EXPECT_NE(&reg.counter("y"), &a);
}

// The race regression: concurrent increments through the registry from
// ThreadPool lanes (the same pool model save/load/retrain runs on) must be
// exact. With the old plain-field counters this loses updates and TSan
// reports the race.
TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr size_t kTasks = 64;
  constexpr uint64_t kPerTask = 5000;
  ThreadPool::Global().ParallelFor(0, kTasks, [&](size_t) {
    Counter& c = reg.counter("contended");  // create-or-get under the mutex
    for (uint64_t i = 0; i < kPerTask; ++i) c.Increment();
  });
  EXPECT_EQ(reg.counter("contended").value(), kTasks * kPerTask);
}

// Mixed create-or-get under contention: lanes race to create distinct and
// shared names; every handle must come back usable and distinct names must
// stay distinct.
TEST(MetricsRegistryTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  constexpr size_t kTasks = 48;
  ThreadPool::Global().ParallelFor(0, kTasks, [&](size_t t) {
    reg.counter("shared").Increment();
    reg.counter("lane." + std::to_string(t % 8)).Increment();
  });
  EXPECT_EQ(reg.counter("shared").value(), kTasks);
  uint64_t lane_total = 0;
  for (int i = 0; i < 8; ++i) {
    lane_total += reg.counter("lane." + std::to_string(i)).value();
  }
  EXPECT_EQ(lane_total, kTasks);
}

TEST(ModelIntegrityTest, SnapshotReadsRegistryCounters) {
  // The snapshot is a view over the global registry's "model.*" counters.
  const ModelIntegrityCounters before = ModelIntegritySnapshot();
  MetricsRegistry::Global().counter("model.loads_ok").Increment();
  MetricsRegistry::Global().counter("model.quarantined").Increment(2);
  const ModelIntegrityCounters after = ModelIntegritySnapshot();
  EXPECT_EQ(after.loads_ok, before.loads_ok + 1);
  EXPECT_EQ(after.quarantined, before.quarantined + 2);
}

TEST(RecoveryCountersTest, SnapshotReadsRegistryCounters) {
  // Same snapshot-struct pattern over the "recovery.*" namespace that the
  // checkpoint/recovery subsystem (core/checkpoint.h, core/recovery.h)
  // increments.
  const RecoveryCounters before = RecoveryCountersSnapshot();
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.counter("recovery.checkpoints_written").Increment();
  reg.counter("recovery.quarantines").Increment(2);
  reg.counter("recovery.warm_cache_restores").Increment(3);
  reg.counter("recovery.models_from_lkg").Increment();
  reg.counter("recovery.tmp_files_removed").Increment(4);
  const RecoveryCounters after = RecoveryCountersSnapshot();
  EXPECT_EQ(after.checkpoints_written, before.checkpoints_written + 1);
  EXPECT_EQ(after.quarantines, before.quarantines + 2);
  EXPECT_EQ(after.warm_cache_restores, before.warm_cache_restores + 3);
  EXPECT_EQ(after.models_from_lkg, before.models_from_lkg + 1);
  EXPECT_EQ(after.tmp_files_removed, before.tmp_files_removed + 4);
  // Untouched fields are stable between the two snapshots.
  EXPECT_EQ(after.models_retrained, before.models_retrained);
  EXPECT_EQ(after.generations_discarded, before.generations_discarded);
}

}  // namespace
}  // namespace pythia
