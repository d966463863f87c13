#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace navarchos::obs {

namespace {

/// Layout version of the encoded StatsSnapshot, bumped on any incompatible
/// change to the encoding below.
constexpr std::uint32_t kSnapshotVersion = 1;

/// Minimum encoded size of one scalar sample: a length-prefixed name (the
/// prefix alone is 4 bytes) plus the u64 value.
constexpr std::size_t kMinScalarBytes = 4 + 8;

/// Minimum encoded size of one histogram sample: name prefix, count, sum
/// and every bucket cell.
constexpr std::size_t kMinHistogramBytes =
    4 + 8 + 8 + Histogram::kBucketCount * 8;

/// Binary search for `name` in a name-sorted sample list.
template <typename Sample>
const Sample* FindByName(const std::vector<Sample>& samples,
                         const std::string& name) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const Sample& sample, const std::string& key) {
        return sample.name < key;
      });
  if (it == samples.end() || it->name != name) return nullptr;
  return &*it;
}

/// Merges name-sorted `from` into name-sorted `into`, combining samples of
/// equal name with `combine` and inserting the rest - a linear merge that
/// keeps the result sorted.
template <typename Sample, typename Combine>
void MergeSorted(std::vector<Sample>* into, const std::vector<Sample>& from,
                 Combine combine) {
  std::vector<Sample> merged;
  merged.reserve(into->size() + from.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < into->size() && b < from.size()) {
    if ((*into)[a].name < from[b].name) {
      merged.push_back(std::move((*into)[a++]));
    } else if (from[b].name < (*into)[a].name) {
      merged.push_back(from[b++]);
    } else {
      Sample combined = std::move((*into)[a++]);
      combine(&combined, from[b++]);
      merged.push_back(std::move(combined));
    }
  }
  while (a < into->size()) merged.push_back(std::move((*into)[a++]));
  while (b < from.size()) merged.push_back(from[b++]);
  *into = std::move(merged);
}

void EncodeScalars(persist::Encoder& encoder,
                   const std::vector<ScalarSample>& samples) {
  encoder.PutU32(static_cast<std::uint32_t>(samples.size()));
  for (const ScalarSample& sample : samples) {
    encoder.PutString(sample.name);
    encoder.PutU64(sample.value);
  }
}

bool DecodeScalars(persist::Decoder& decoder,
                   std::vector<ScalarSample>* out) {
  const std::uint32_t count = decoder.GetU32();
  if (decoder.ok() && count > decoder.remaining() / kMinScalarBytes)
    decoder.Fail("scalar sample count exceeds payload size");
  if (!decoder.ok()) return false;
  out->clear();
  out->reserve(count);
  std::string previous;
  for (std::uint32_t i = 0; i < count; ++i) {
    ScalarSample sample;
    sample.name = decoder.GetString();
    sample.value = decoder.GetU64();
    if (!decoder.ok()) return false;
    // The sort order is part of the format: it makes equal snapshots
    // encode identically, and lets lookups binary-search.
    if (i > 0 && !(previous < sample.name)) {
      decoder.Fail("snapshot samples not strictly name-sorted");
      return false;
    }
    previous = sample.name;
    out->push_back(std::move(sample));
  }
  return decoder.ok();
}

}  // namespace

// ------------------------------------------------------------------ Histogram

std::uint64_t Histogram::BucketLowerBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

std::size_t Histogram::BucketOf(std::uint64_t value) {
  if (value == 0) return 0;
  return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& cell : buckets_)
    total += cell.load(std::memory_order_relaxed);
  return total;
}

// ------------------------------------------------------------ HistogramSample

std::uint64_t HistogramSample::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  // The observation with (1-based) rank ceil(q * count), found by walking
  // the cumulative bucket counts - integer arithmetic after the rank.
  std::uint64_t rank =
      static_cast<std::uint64_t>(clamped * static_cast<double>(count));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      // Upper bound of the bucket: lower bound of the next one, minus one.
      if (b == 0) return 0;
      if (b + 1 >= buckets.size()) return ~std::uint64_t{0};
      return Histogram::BucketLowerBound(b + 1) - 1;
    }
  }
  return Histogram::BucketLowerBound(buckets.size() - 1);
}

// --------------------------------------------------------------- StatsSnapshot

std::uint64_t StatsSnapshot::CounterValue(const std::string& name) const {
  const ScalarSample* sample = FindByName(counters, name);
  return sample == nullptr ? 0 : sample->value;
}

std::uint64_t StatsSnapshot::GaugeValue(const std::string& name) const {
  const ScalarSample* sample = FindByName(gauges, name);
  return sample == nullptr ? 0 : sample->value;
}

const HistogramSample* StatsSnapshot::FindHistogram(
    const std::string& name) const {
  return FindByName(histograms, name);
}

// -------------------------------------------------------------- MetricsRegistry

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

StatsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    snapshot.counters.push_back({name, counter->value()});
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_)
    snapshot.gauges.push_back({name, gauge->value()});
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.sum = histogram->sum();
    // The count is the sum of the cells this snapshot read, so it always
    // agrees with them even while other threads keep recording.
    for (std::size_t b = 0; b < Histogram::kBucketCount; ++b) {
      sample.buckets[b] = histogram->bucket(b);
      sample.count += sample.buckets[b];
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;  // std::map iteration is already name-sorted
}

// ---------------------------------------------------------------------- merge

void MergeSnapshot(StatsSnapshot* into, const StatsSnapshot& from) {
  MergeSorted(&into->counters, from.counters,
              [](ScalarSample* a, const ScalarSample& b) {
                a->value += b.value;
              });
  MergeSorted(&into->gauges, from.gauges,
              [](ScalarSample* a, const ScalarSample& b) {
                a->value = std::max(a->value, b.value);
              });
  MergeSorted(&into->histograms, from.histograms,
              [](HistogramSample* a, const HistogramSample& b) {
                a->count += b.count;
                a->sum += b.sum;
                for (std::size_t i = 0; i < a->buckets.size(); ++i)
                  a->buckets[i] += b.buckets[i];
              });
}

// ---------------------------------------------------------------------- codec

void EncodeStatsSnapshot(persist::Encoder& encoder,
                         const StatsSnapshot& snapshot) {
  encoder.PutU32(kSnapshotVersion);
  EncodeScalars(encoder, snapshot.counters);
  EncodeScalars(encoder, snapshot.gauges);
  encoder.PutU32(static_cast<std::uint32_t>(snapshot.histograms.size()));
  for (const HistogramSample& sample : snapshot.histograms) {
    encoder.PutString(sample.name);
    encoder.PutU64(sample.count);
    encoder.PutU64(sample.sum);
    for (const std::uint64_t cell : sample.buckets) encoder.PutU64(cell);
  }
}

bool DecodeStatsSnapshot(persist::Decoder& decoder, StatsSnapshot* out) {
  const std::uint32_t version = decoder.GetU32();
  if (decoder.ok() && version != kSnapshotVersion) {
    decoder.Fail("unsupported stats snapshot version " +
                 std::to_string(version));
    return false;
  }
  if (!DecodeScalars(decoder, &out->counters)) return false;
  if (!DecodeScalars(decoder, &out->gauges)) return false;
  const std::uint32_t count = decoder.GetU32();
  if (decoder.ok() && count > decoder.remaining() / kMinHistogramBytes)
    decoder.Fail("histogram sample count exceeds payload size");
  if (!decoder.ok()) return false;
  out->histograms.clear();
  out->histograms.reserve(count);
  std::string previous;
  for (std::uint32_t i = 0; i < count; ++i) {
    HistogramSample sample;
    sample.name = decoder.GetString();
    sample.count = decoder.GetU64();
    sample.sum = decoder.GetU64();
    for (std::uint64_t& cell : sample.buckets) cell = decoder.GetU64();
    if (!decoder.ok()) return false;
    if (i > 0 && !(previous < sample.name)) {
      decoder.Fail("snapshot samples not strictly name-sorted");
      return false;
    }
    // Internal consistency: the cells must account for every observation,
    // so a flipped count or bucket byte cannot slip through as a merely
    // different-looking histogram.
    std::uint64_t total = 0;
    for (const std::uint64_t cell : sample.buckets) total += cell;
    if (total != sample.count) {
      decoder.Fail("histogram bucket cells do not sum to its count");
      return false;
    }
    previous = sample.name;
    out->histograms.push_back(std::move(sample));
  }
  return decoder.ok();
}

// --------------------------------------------------------------------- render

std::string FormatSnapshot(const StatsSnapshot& snapshot) {
  std::string text;
  char line[256];
  for (const ScalarSample& sample : snapshot.counters) {
    std::snprintf(line, sizeof(line), "counter %s %" PRIu64 "\n",
                  sample.name.c_str(), sample.value);
    text += line;
  }
  for (const ScalarSample& sample : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "gauge %s %" PRIu64 "\n",
                  sample.name.c_str(), sample.value);
    text += line;
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    std::snprintf(line, sizeof(line),
                  "histogram %s count=%" PRIu64 " sum=%" PRIu64 " p50=%" PRIu64
                  " p99=%" PRIu64 "\n",
                  sample.name.c_str(), sample.count, sample.sum,
                  sample.ValueAtQuantile(0.5), sample.ValueAtQuantile(0.99));
    text += line;
  }
  return text;
}

std::uint64_t MonotonicMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace navarchos::obs
