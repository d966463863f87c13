// Fleet observability: one registry of named counters, gauges and
// deterministic log-scale histograms, snapshotted into a codec-encodable
// StatsSnapshot.
//
// The system that watches vehicles must be able to watch itself. Before
// this subsystem, counters were scattered across ServiceStats, ServerStats
// and EnsembleStats with no histograms, no unified export path and no
// cross-shard view. The MetricsRegistry is the one source of truth: every
// layer (service, runtime pool, ensemble, history, net) registers its
// counters here, the existing stats structs are views over the registry,
// and a point-in-time StatsSnapshot travels through the persist codecs -
// over the wire as a STATS message, or merged across shards into one
// fleet view.
//
// Design rules, in force everywhere a metric is touched:
//   * observe-only: no code path may branch on a metric value. Metrics
//     never feed back into admission, scheduling or scoring, so the house
//     determinism invariant (bit-identical outputs at any thread count,
//     shard count, live or replayed, across kill -9 + restore) holds with
//     observability enabled - it observes the run, it never steers it.
//   * cheap on the hot path: counters and histogram buckets are relaxed
//     atomics; one increment is one uncontended fetch_add, never a lock.
//   * deterministic structure: histogram buckets are fixed powers of two,
//     so two histograms fed the same values have bit-identical bucket
//     counts regardless of threading, and merging per-shard histograms in
//     any order equals the unsharded histogram (integer addition is
//     associative and commutative - no float accumulation anywhere).
#ifndef NAVARCHOS_OBS_METRICS_H_
#define NAVARCHOS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "persist/codec.h"

/// \file
/// \brief The observability subsystem: MetricsRegistry (named counters,
/// gauges, log-scale histograms), the codec-encodable StatsSnapshot, the
/// order-independent cross-shard merge and the diffable text rendering.

/// \namespace navarchos::obs
/// \brief Fleet observability: the unified metrics registry every layer
/// reports into, and the snapshot/merge/serve machinery above it.

namespace navarchos::obs {

/// Monotonic counter: a named, relaxed-atomic event count. Increments are
/// one uncontended fetch_add - cheap enough for per-frame hot paths.
/// Counters are zeroed only by construction; Set exists solely for the
/// checkpoint-restore path, which reinstates a prior life's totals.
class Counter {
 public:
  /// Adds one.
  void Increment() { Add(1); }

  /// Adds `delta`.
  void Add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Adds one, assuming the caller serializes every writer of this counter
  /// externally (e.g. all increments happen under one mutex). Compiles to a
  /// plain load/add/store instead of a locked read-modify-write, which
  /// matters on per-frame hot paths; concurrent readers stay race-free
  /// because the load and store are still atomic. Never mix with
  /// Increment()/Add() from unserialized threads.
  void IncrementSingleWriter() {
    value_.store(value_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }

  /// Overwrites the count (checkpoint restore and snapshot-time refresh of
  /// derived counters only; never a reset path).
  void Set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }

  /// Current count.
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Gauge: a named instantaneous or high-water-mark value. Set overwrites;
/// UpdateMax ratchets upward (the lane-depth high-water use), implemented
/// as a compare-exchange loop on a relaxed atomic.
class Gauge {
 public:
  /// Overwrites the value.
  void Set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }

  /// Raises the value to `candidate` when larger (high-water mark).
  void UpdateMax(std::uint64_t candidate) {
    std::uint64_t current = value_.load(std::memory_order_relaxed);
    while (candidate > current &&
           !value_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }

  /// Current value.
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket log-scale histogram of non-negative integer values
/// (latencies in microseconds, sizes in bytes, depths in items).
///
/// Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b). The
/// boundaries are fixed powers of two - a pure function of the value, not
/// of the data seen so far - so bucket placement is deterministic, two
/// histograms fed the same values are bit-identical, and per-shard
/// histograms merge by plain bucket addition in any order. All cells are
/// relaxed atomics: recording is lock-free and safe from any thread.
class Histogram {
 public:
  /// Number of buckets: the zero bucket plus one per bit of a u64.
  static constexpr std::size_t kBucketCount = 65;

  /// Lowest value bucket `bucket` holds (0, 1, 2, 4, 8, ...).
  static std::uint64_t BucketLowerBound(std::size_t bucket);

  /// Index of the bucket holding `value`.
  static std::size_t BucketOf(std::uint64_t value);

  /// Records one observation.
  void Record(std::uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Observations recorded so far: the sum of the bucket cells. There is
  /// no separate count cell, so a reader racing Record can never see a
  /// count that disagrees with the cells it read.
  std::uint64_t count() const;

  /// Sum of all recorded values (exact: u64 addition, no floats).
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Count in bucket `bucket`.
  std::uint64_t bucket(std::size_t bucket_index) const {
    return buckets_[bucket_index].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// One named scalar sample of a snapshot (a counter or a gauge).
struct ScalarSample {
  std::string name;          ///< Registry name of the metric.
  std::uint64_t value = 0;   ///< Value at snapshot time.
};

/// One named histogram sample of a snapshot.
struct HistogramSample {
  std::string name;         ///< Registry name of the metric.
  std::uint64_t count = 0;  ///< Observations at snapshot time.
  std::uint64_t sum = 0;    ///< Sum of observed values.
  /// Per-bucket counts (Histogram's fixed power-of-two buckets).
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};

  /// Upper bucket bound covering quantile `q` in [0, 1] - the histogram
  /// estimate of e.g. p50/p99 (0 when the histogram is empty).
  std::uint64_t ValueAtQuantile(double q) const;
};

/// A point-in-time copy of one registry (or a merge of several): every
/// sample list is sorted by name, so two snapshots of equal state compare
/// and render identically. Encoded with the persist codecs for checkpoints
/// and the wire STATS message.
struct StatsSnapshot {
  std::vector<ScalarSample> counters;        ///< Name-sorted counters.
  std::vector<ScalarSample> gauges;          ///< Name-sorted gauges.
  std::vector<HistogramSample> histograms;   ///< Name-sorted histograms.

  /// Value of counter `name` (0 when absent).
  std::uint64_t CounterValue(const std::string& name) const;

  /// Value of gauge `name` (0 when absent).
  std::uint64_t GaugeValue(const std::string& name) const;

  /// Histogram sample `name` (null when absent; pointer into this
  /// snapshot, invalidated by any mutation).
  const HistogramSample* FindHistogram(const std::string& name) const;
};

/// The process-wide (or per-shard) registry of named metrics. Lookup takes
/// a mutex once per metric per call site - callers cache the returned
/// pointer and increment lock-free afterwards. Registered metrics live as
/// long as the registry; the returned pointers are stable.
class MetricsRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use.
  Counter* counter(const std::string& name);

  /// Returns the gauge named `name`, creating it on first use.
  Gauge* gauge(const std::string& name);

  /// Returns the histogram named `name`, creating it on first use.
  Histogram* histogram(const std::string& name);

  /// Point-in-time copy of every registered metric, name-sorted.
  StatsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;  ///< Guards the maps; values are atomics.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Merges `from` into `into`: counters and histogram cells add, gauges
/// take the maximum (high-water semantics), names union. Pure integer
/// arithmetic, so merging any number of snapshots in any order yields the
/// identical result - the property that makes the wire-scraped per-shard
/// merge equal the in-process fleet aggregate.
void MergeSnapshot(StatsSnapshot* into, const StatsSnapshot& from);

/// Appends the snapshot's encoding (versioned, name-sorted) to `encoder`.
void EncodeStatsSnapshot(persist::Encoder& encoder,
                         const StatsSnapshot& snapshot);

/// Decodes a snapshot written by EncodeStatsSnapshot. Returns false (with
/// the decoder failed) on any malformed input; claimed element counts are
/// bounded by the remaining payload before any allocation (the codec
/// robustness contract).
bool DecodeStatsSnapshot(persist::Decoder& decoder, StatsSnapshot* out);

/// Renders the snapshot as diffable text: one line per metric, sorted by
/// kind then name ("counter <name> <value>", "gauge <name> <value>",
/// "histogram <name> count=<n> sum=<s> p50=<v> p99=<v>"). Two equal
/// snapshots render byte-identically.
std::string FormatSnapshot(const StatsSnapshot& snapshot);

/// Monotonic wall-clock microseconds (steady clock), the time base of
/// every latency histogram. Never used for scheduling decisions - the
/// observe-only rule keeps wall clock out of all outputs.
std::uint64_t MonotonicMicros();

}  // namespace navarchos::obs

#endif  // NAVARCHOS_OBS_METRICS_H_
