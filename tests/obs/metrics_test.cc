// The observability core: fixed power-of-two histogram buckets place
// values deterministically, per-shard snapshots merge in any order to the
// unsharded result, every bucket boundary round-trips through the snapshot
// codec, and no truncated input may crash the decoder or trigger an
// unbounded allocation (the persist robustness contract).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "persist/codec.h"

namespace navarchos::obs {
namespace {

/// Deterministic value stream (an LCG, so the tests need no seed plumbing).
class ValueStream {
 public:
  std::uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    // Spread across bucket magnitudes: shift by the top bits so small and
    // huge values both occur.
    return state_ >> (state_ % 64);
  }

 private:
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  for (std::size_t b = 1; b < Histogram::kBucketCount; ++b) {
    const std::uint64_t lower = Histogram::BucketLowerBound(b);
    EXPECT_EQ(lower, std::uint64_t{1} << (b - 1));
    // The lower bound lands in its own bucket; one below lands one lower.
    EXPECT_EQ(Histogram::BucketOf(lower), b);
    EXPECT_EQ(Histogram::BucketOf(lower - 1), b - 1);
    // The top of the bucket still lands inside it.
    if (b + 1 < Histogram::kBucketCount)
      EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(b + 1) - 1), b);
  }
  // The last bucket holds everything up to the u64 maximum.
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}),
            Histogram::kBucketCount - 1);
}

TEST(HistogramTest, RecordKeepsExactCountAndSum) {
  Histogram histogram;
  std::uint64_t expected_sum = 0;
  ValueStream values;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t value = values.Next() % 100000;
    histogram.Record(value);
    expected_sum += value;
  }
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_EQ(histogram.sum(), expected_sum);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b)
    bucket_total += histogram.bucket(b);
  EXPECT_EQ(bucket_total, histogram.count());
}

TEST(CounterGaugeTest, CounterAccumulatesAndGaugeRatchets) {
  Counter counter;
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Set(7);  // the checkpoint-restore path
  EXPECT_EQ(counter.value(), 7u);

  Gauge gauge;
  gauge.UpdateMax(10);
  gauge.UpdateMax(3);  // smaller: no effect, it is a high-water mark
  EXPECT_EQ(gauge.value(), 10u);
  gauge.UpdateMax(25);
  EXPECT_EQ(gauge.value(), 25u);
  gauge.Set(1);  // Set overwrites in either direction
  EXPECT_EQ(gauge.value(), 1u);
}

TEST(RegistryTest, PointersAreStableAndSnapshotsAreNameSorted) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("z.last");
  EXPECT_EQ(registry.counter("z.last"), counter);  // create-on-first-use once
  registry.counter("a.first")->Add(1);
  registry.gauge("m.middle")->Set(5);
  registry.histogram("h.lat")->Record(3);
  counter->Add(2);

  const StatsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.first");
  EXPECT_EQ(snapshot.counters[1].name, "z.last");
  EXPECT_EQ(snapshot.CounterValue("z.last"), 2u);
  EXPECT_EQ(snapshot.CounterValue("absent"), 0u);
  EXPECT_EQ(snapshot.GaugeValue("m.middle"), 5u);
  ASSERT_NE(snapshot.FindHistogram("h.lat"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("h.lat")->count, 1u);
  EXPECT_EQ(snapshot.FindHistogram("absent"), nullptr);
}

TEST(MergeTest, AnyMergeOrderEqualsTheUnshardedRun) {
  // Partition one value stream across 3 "shards"; merging the per-shard
  // snapshots in every permutation must equal the unsharded histogram and
  // counters exactly - plain integer addition, no order sensitivity.
  constexpr int kShards = 3;
  MetricsRegistry unsharded;
  MetricsRegistry shards[kShards];
  ValueStream values;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t value = values.Next();
    unsharded.histogram("lat")->Record(value);
    unsharded.counter("events")->Increment();
    MetricsRegistry& shard = shards[i % kShards];
    shard.histogram("lat")->Record(value);
    shard.counter("events")->Increment();
  }
  // Gauges take the max across shards; give each shard a distinct peak.
  unsharded.gauge("depth")->Set(30);
  shards[0].gauge("depth")->Set(10);
  shards[1].gauge("depth")->Set(30);
  shards[2].gauge("depth")->Set(20);

  const std::string expected = FormatSnapshot(unsharded.Snapshot());
  std::vector<int> order = {0, 1, 2};
  do {
    StatsSnapshot merged;
    for (const int shard : order)
      MergeSnapshot(&merged, shards[shard].Snapshot());
    EXPECT_EQ(FormatSnapshot(merged), expected)
        << "merge order " << order[0] << order[1] << order[2];
    // The text form could theoretically hide bucket differences; compare
    // the raw cells too.
    const HistogramSample* merged_lat = merged.FindHistogram("lat");
    const StatsSnapshot reference = unsharded.Snapshot();
    ASSERT_NE(merged_lat, nullptr);
    EXPECT_EQ(merged_lat->buckets, reference.FindHistogram("lat")->buckets);
    EXPECT_EQ(merged_lat->sum, reference.FindHistogram("lat")->sum);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(MergeTest, NamesUnionAndDisjointMetricsSurvive) {
  MetricsRegistry left;
  MetricsRegistry right;
  left.counter("only.left")->Add(3);
  right.counter("only.right")->Add(4);
  left.counter("both")->Add(10);
  right.counter("both")->Add(5);

  StatsSnapshot merged = left.Snapshot();
  MergeSnapshot(&merged, right.Snapshot());
  EXPECT_EQ(merged.CounterValue("only.left"), 3u);
  EXPECT_EQ(merged.CounterValue("only.right"), 4u);
  EXPECT_EQ(merged.CounterValue("both"), 15u);
  // Still name-sorted after the union (the codec requires it).
  for (std::size_t i = 1; i < merged.counters.size(); ++i)
    EXPECT_LT(merged.counters[i - 1].name, merged.counters[i].name);
}

TEST(QuantileTest, EstimatesLandOnBucketUpperBounds) {
  HistogramSample sample;
  EXPECT_EQ(sample.ValueAtQuantile(0.5), 0u);  // empty histogram

  Histogram histogram;
  for (int i = 0; i < 99; ++i) histogram.Record(10);   // bucket [8, 16)
  histogram.Record(100000);                            // one outlier
  MetricsRegistry registry;
  Histogram* registered = registry.histogram("h");
  for (int i = 0; i < 99; ++i) registered->Record(10);
  registered->Record(100000);
  const StatsSnapshot snapshot = registry.Snapshot();
  const HistogramSample* h = snapshot.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  // p50 lands in the [8, 16) bucket: upper bound 15. p99 still does; only
  // the very top rank reaches the outlier's bucket.
  EXPECT_EQ(h->ValueAtQuantile(0.5), 15u);
  EXPECT_EQ(h->ValueAtQuantile(0.99), 15u);
  EXPECT_GT(h->ValueAtQuantile(1.0), 65535u);
}

TEST(SnapshotCodecTest, EveryBucketBoundaryRoundTrips) {
  // Record every bucket's lower bound once: the decode must reproduce the
  // exact cell pattern - one count in every bucket - plus count and sum.
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("boundaries");
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b)
    histogram->Record(Histogram::BucketLowerBound(b));
  registry.counter("c")->Add(~std::uint64_t{0});  // extreme value survives
  registry.gauge("g")->Set(1234567890123456789ull);

  persist::Encoder encoder;
  EncodeStatsSnapshot(encoder, registry.Snapshot());
  persist::Decoder decoder(encoder.bytes());
  StatsSnapshot decoded;
  ASSERT_TRUE(DecodeStatsSnapshot(decoder, &decoded));
  EXPECT_TRUE(decoder.ok());
  EXPECT_EQ(decoder.remaining(), 0u);

  const HistogramSample* round = decoded.FindHistogram("boundaries");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->count, Histogram::kBucketCount);
  for (std::size_t b = 0; b < Histogram::kBucketCount; ++b)
    EXPECT_EQ(round->buckets[b], 1u) << "bucket " << b;
  EXPECT_EQ(decoded.CounterValue("c"), ~std::uint64_t{0});
  EXPECT_EQ(decoded.GaugeValue("g"), 1234567890123456789ull);
  EXPECT_EQ(FormatSnapshot(decoded), FormatSnapshot(registry.Snapshot()));
}

TEST(SnapshotCodecTest, EveryPrefixTruncationFailsCleanly) {
  MetricsRegistry registry;
  registry.counter("service.frames_submitted")->Add(100);
  registry.gauge("service.lane.v7.depth_peak")->Set(3);
  registry.histogram("service.admission_to_release_us")->Record(250);
  persist::Encoder encoder;
  EncodeStatsSnapshot(encoder, registry.Snapshot());
  const std::vector<std::uint8_t>& bytes = encoder.bytes();

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    persist::Decoder decoder(prefix);
    StatsSnapshot out;
    EXPECT_FALSE(DecodeStatsSnapshot(decoder, &out)) << "prefix " << len;
  }
}

TEST(ConcurrentSnapshotTest, SnapshotsTakenWhileThreadsRecordAlwaysDecode) {
  // A STATS scrape snapshots the registry while pumps keep recording. The
  // snapshot's count must agree with the cells it read, or the decoder
  // rejects the scrape as corrupt ("cells do not sum to its count").
  MetricsRegistry registry;
  Histogram* latency = registry.histogram("service.admission_to_release_us");
  Histogram* depth = registry.histogram("service.lane_depth");
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&stop, latency, depth, t] {
      std::uint64_t value = static_cast<std::uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        latency->Record(value);
        depth->Record(value & 63);
        value = value * 6364136223846793005ull + 1442695040888963407ull;
        value >>= value % 64;
      }
    });
  }
  // No ASSERT inside the loop: the recorders must be joined either way.
  std::uint64_t last_count = 0;
  bool decoded_all = true;
  for (int i = 0; i < 2000 && decoded_all; ++i) {
    persist::Encoder encoder;
    EncodeStatsSnapshot(encoder, registry.Snapshot());
    persist::Decoder decoder(encoder.bytes());
    StatsSnapshot decoded;
    decoded_all = DecodeStatsSnapshot(decoder, &decoded);
    EXPECT_TRUE(decoded_all) << "snapshot " << i;
    const HistogramSample* sample =
        decoded.FindHistogram("service.admission_to_release_us");
    if (sample == nullptr) continue;
    EXPECT_GE(sample->count, last_count) << "snapshot " << i;
    last_count = sample->count;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& recorder : recorders) recorder.join();
  EXPECT_GT(latency->count(), 0u);
}

TEST(SnapshotCodecTest, UnsortedNamesAreRejected) {
  // The codec refuses an out-of-order name list (a merged snapshot must
  // stay sorted; corruption that reorders entries may not slip through).
  StatsSnapshot snapshot;
  snapshot.counters.push_back({"b", 1});
  snapshot.counters.push_back({"a", 2});
  persist::Encoder encoder;
  EncodeStatsSnapshot(encoder, snapshot);
  persist::Decoder decoder(encoder.bytes());
  StatsSnapshot out;
  EXPECT_FALSE(DecodeStatsSnapshot(decoder, &out));
}

TEST(FormatTest, RenderingIsDeterministicAndDiffable) {
  MetricsRegistry registry;
  registry.counter("server.frames_received")->Add(12);
  registry.gauge("service.lane.v3.depth_peak")->Set(4);
  registry.histogram("pool.task_us")->Record(100);
  const std::string once = FormatSnapshot(registry.Snapshot());
  const std::string twice = FormatSnapshot(registry.Snapshot());
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("counter server.frames_received 12"), std::string::npos);
  EXPECT_NE(once.find("gauge service.lane.v3.depth_peak 4"),
            std::string::npos);
  EXPECT_NE(once.find("histogram pool.task_us"), std::string::npos);
}

}  // namespace
}  // namespace navarchos::obs
