// The history index against the directory scan it replaced. The reference
// below is the scan-based RANK / TIMELINE / COMOVE that decoded every
// vehicle's whole log for every query; the index's answers - from a live
// HistoryService, from a reopened one and from a read-only QueryEngine -
// must equal it field for field, doubles included. Small segments and
// blocks give every vehicle many sealed segments (the benchmark's logs
// never seal one), so this is where the sealed-segment paths are proved.
// Two more properties: the segments a query decodes do not grow with the
// log, and queries that race appends and seals stay consistent.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "history/history_log.h"
#include "history/history_service.h"
#include "history/query.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace navarchos::history {
namespace {

// ------------------------------------------------------------- reference

// RANK / TIMELINE / COMOVE over a whole-directory scan, as QueryEngine
// answered them before it had an index.

void ReferenceRank(const std::vector<VehicleLogData>& logs,
                   const RankQuery& query, RankResult* out) {
  out->entries.clear();
  std::int64_t end_ts = query.end_ts;
  if (end_ts == 0) {
    for (const VehicleLogData& log : logs)
      for (const HistoryRecord& record : log.records)
        end_ts = std::max(end_ts, record.timestamp);
  }
  for (const VehicleLogData& log : logs) {
    RankEntry entry;
    entry.vehicle_id = log.vehicle_id;
    double ratio_sum = 0.0;
    for (const HistoryRecord& record : log.records) {
      if (record.timestamp > end_ts) continue;
      if (query.window_minutes > 0 &&
          record.timestamp <= end_ts - query.window_minutes)
        continue;
      const double ratio = SeverityRatio(record);
      ++entry.records;
      if (record.alarm) ++entry.alarms;
      ratio_sum += ratio;
      entry.max_ratio = std::max(entry.max_ratio, ratio);
      entry.last_ts = std::max(entry.last_ts, record.timestamp);
    }
    if (entry.records == 0) continue;
    entry.mean_ratio = ratio_sum / static_cast<double>(entry.records);
    out->entries.push_back(entry);
  }
  std::sort(out->entries.begin(), out->entries.end(),
            [](const RankEntry& a, const RankEntry& b) {
              if (a.mean_ratio != b.mean_ratio)
                return a.mean_ratio > b.mean_ratio;
              if (a.max_ratio != b.max_ratio) return a.max_ratio > b.max_ratio;
              return a.vehicle_id < b.vehicle_id;
            });
  if (query.limit > 0 && out->entries.size() > query.limit)
    out->entries.resize(query.limit);
}

void ReferenceTimeline(const std::vector<VehicleLogData>& logs,
                       const TimelineQuery& query, TimelineResult* out) {
  out->records.clear();
  for (const VehicleLogData& log : logs) {
    if (log.vehicle_id != query.vehicle_id) continue;
    for (const HistoryRecord& record : log.records) {
      if (record.timestamp < query.start_ts) continue;
      if (query.end_ts != 0 && record.timestamp > query.end_ts) continue;
      out->records.push_back(record);
    }
  }
  if (query.max_records > 0 && out->records.size() > query.max_records)
    out->records.erase(out->records.begin(),
                       out->records.end() - query.max_records);
}

util::Status ReferenceComove(const std::vector<VehicleLogData>& logs,
                             const ComoveQuery& query, ComoveResult* out) {
  out->entries.clear();
  const VehicleLogData* vehicle = nullptr;
  std::size_t anchor = 0;
  for (const VehicleLogData& log : logs) {
    for (std::size_t i = 0; i < log.records.size(); ++i) {
      if (log.records[i].global_seq == query.alarm_seq &&
          log.records[i].alarm) {
        vehicle = &log;
        anchor = i;
        break;
      }
    }
    if (vehicle != nullptr) break;
  }
  if (vehicle == nullptr)
    return util::Status::Error("comove: no alarmed record with global seq " +
                               std::to_string(query.alarm_seq));
  out->vehicle_id = vehicle->vehicle_id;
  out->alarm_ts = vehicle->records[anchor].timestamp;
  const std::size_t window = query.window;
  const std::size_t first = anchor > window ? anchor - window : 0;
  const std::size_t last =
      std::min(vehicle->records.size() - 1, anchor + window);
  std::vector<ComoveEntry> entries;
  const auto entry_of = [&entries](std::uint32_t channel) -> ComoveEntry& {
    for (ComoveEntry& entry : entries)
      if (entry.channel == channel) return entry;
    entries.push_back(ComoveEntry{channel, 0, 0});
    return entries.back();
  };
  for (std::size_t i = first; i <= last; ++i) {
    const HistoryRecord& record = vehicle->records[i];
    const std::size_t k = record.top_channels.size();
    for (std::size_t p = 0; p < k; ++p) {
      ComoveEntry& entry = entry_of(record.top_channels[p]);
      ++entry.hits;
      entry.weight += static_cast<std::uint64_t>(k - p);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ComoveEntry& a, const ComoveEntry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.channel < b.channel;
            });
  out->entries = std::move(entries);
  return util::Status();
}

// ------------------------------------------------------------ equality

bool Same(const RankResult& a, const RankResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const RankEntry& x = a.entries[i];
    const RankEntry& y = b.entries[i];
    if (x.vehicle_id != y.vehicle_id || x.records != y.records ||
        x.alarms != y.alarms || x.mean_ratio != y.mean_ratio ||
        x.max_ratio != y.max_ratio || x.last_ts != y.last_ts)
      return false;
  }
  return true;
}

bool Same(const TimelineResult& a, const TimelineResult& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const HistoryRecord& x = a.records[i];
    const HistoryRecord& y = b.records[i];
    if (x.vehicle_id != y.vehicle_id || x.global_seq != y.global_seq ||
        x.timestamp != y.timestamp || x.score != y.score ||
        x.threshold != y.threshold || x.alarm != y.alarm ||
        x.top_channels != y.top_channels || x.votes != y.votes ||
        x.ensemble_live != y.ensemble_live)
      return false;
  }
  return true;
}

bool Same(const ComoveResult& a, const ComoveResult& b) {
  if (a.vehicle_id != b.vehicle_id || a.alarm_ts != b.alarm_ts ||
      a.entries.size() != b.entries.size())
    return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i)
    if (a.entries[i].channel != b.entries[i].channel ||
        a.entries[i].hits != b.entries[i].hits ||
        a.entries[i].weight != b.entries[i].weight)
      return false;
  return true;
}

// ------------------------------------------------------------- fixtures

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// A seeded stream over `vehicles` vehicles with every shape the index must
/// get right: timestamps that go backwards inside a vehicle, runs of
/// records sharing one global seq, alarms at each vehicle's first and last
/// record (and, at this density, on both sides of seals), thresholds that
/// are not positive, and alternating phases with and without ensemble
/// votes, so version-1 and version-2 segments interleave.
std::vector<HistoryRecord> SeededStream(std::uint64_t seed, std::size_t count,
                                        int vehicles) {
  util::Rng rng(seed);
  std::vector<HistoryRecord> records;
  std::map<std::int32_t, std::int64_t> clock;
  std::uint64_t seq = 100;
  for (std::size_t i = 0; i < count; ++i) {
    HistoryRecord record;
    const bool same_seq = i > 0 && rng.Bernoulli(0.2);
    record.vehicle_id = same_seq ? records.back().vehicle_id
                                 : static_cast<std::int32_t>(
                                       rng.UniformInt(0, vehicles - 1));
    if (!same_seq) seq += static_cast<std::uint64_t>(rng.UniformInt(1, 3));
    record.global_seq = seq;
    std::int64_t& ts = clock[record.vehicle_id];
    ts += rng.UniformInt(-40, 90);
    record.timestamp = ts;
    record.score = rng.Uniform(0.0, 6.0);
    record.threshold = rng.Bernoulli(0.1) ? -rng.Uniform(0.0, 1.0)
                                          : rng.Uniform(0.5, 3.0);
    record.alarm = rng.Bernoulli(0.2);
    const auto k = rng.UniformInt(0, 5);
    for (std::int64_t c = 0; c < k; ++c)
      record.top_channels.push_back(
          static_cast<std::uint32_t>(rng.UniformInt(0, 11)));
    if ((i / 150) % 2 == 1) {
      record.votes = static_cast<std::int32_t>(rng.UniformInt(0, 3));
      record.ensemble_live = 3;
    }
    records.push_back(std::move(record));
  }
  std::set<std::int32_t> seen;
  for (HistoryRecord& record : records)
    if (seen.insert(record.vehicle_id).second) record.alarm = true;
  seen.clear();
  for (auto it = records.rbegin(); it != records.rend(); ++it)
    if (seen.insert(it->vehicle_id).second) it->alarm = true;
  return records;
}

HistoryConfig SmallSegments() {
  HistoryConfig config;
  config.segment_bytes = 700;
  config.block_records = 5;
  return config;
}

/// Runs the query grid through `engine` (a HistoryService or a QueryEngine)
/// and checks every answer against the reference over `dir`. The first
/// query runs before the scan, so a service has flushed what it buffered.
template <typename Engine>
void ExpectGridMatchesScan(Engine& engine, const std::string& dir,
                           const std::string& where) {
  RankResult got_rank, want_rank;
  ASSERT_TRUE(engine.Rank(RankQuery{}, &got_rank).ok()) << where;
  std::vector<VehicleLogData> logs;
  ASSERT_TRUE(HistoryReader::ReadDir(dir, &logs).ok()) << where;
  ASSERT_FALSE(logs.empty()) << where;
  ReferenceRank(logs, RankQuery{}, &want_rank);
  EXPECT_TRUE(Same(got_rank, want_rank)) << where << ": whole-log RANK";

  std::int64_t oldest = std::numeric_limits<std::int64_t>::max();
  std::int64_t newest = std::numeric_limits<std::int64_t>::min();
  std::uint64_t max_seq = 0;
  std::set<std::uint64_t> alarmed, quiet;
  for (const VehicleLogData& log : logs)
    for (const HistoryRecord& record : log.records) {
      oldest = std::min(oldest, record.timestamp);
      newest = std::max(newest, record.timestamp);
      max_seq = std::max(max_seq, record.global_seq);
      (record.alarm ? alarmed : quiet).insert(record.global_seq);
    }
  const std::int64_t span = newest - oldest;
  const std::int64_t middle = oldest + span / 2;

  std::vector<RankQuery> ranks;
  for (const std::uint32_t limit : {1u, 3u}) {
    RankQuery query;
    query.limit = limit;
    ranks.push_back(query);
  }
  for (const std::int64_t end : {newest - 1, newest, newest + 100, middle}) {
    for (const std::int64_t window :
         std::vector<std::int64_t>{0, -5, 1, 37, 500, span / 3, span / 2}) {
      RankQuery query;
      query.end_ts = end;
      query.window_minutes = window;
      ranks.push_back(query);
      query.end_ts = 0;  // the newest timestamp, resolved by the engine
      ranks.push_back(query);
    }
  }
  for (const RankQuery& query : ranks) {
    ASSERT_TRUE(engine.Rank(query, &got_rank).ok()) << where;
    ReferenceRank(logs, query, &want_rank);
    EXPECT_TRUE(Same(got_rank, want_rank))
        << where << ": RANK end " << query.end_ts << " window "
        << query.window_minutes << " limit " << query.limit;
  }

  std::vector<std::int32_t> vehicles = {999};  // unknown
  for (const VehicleLogData& log : logs) vehicles.push_back(log.vehicle_id);
  const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
      {0, 0},
      {oldest, newest},
      {middle - span / 5, middle + span / 7},
      {middle, 0},
      {newest + 1, 0},           // empty: starts after the log
      {0, oldest - 1},           // empty: ends before it
      {middle + 10, middle - 10},  // empty: start after end
  };
  for (const std::int32_t vehicle : vehicles)
    for (const auto& [start, end] : ranges)
      for (const std::uint32_t max_records : {0u, 1u, 256u}) {
        TimelineQuery query;
        query.vehicle_id = vehicle;
        query.start_ts = start;
        query.end_ts = end;
        query.max_records = max_records;
        TimelineResult got, want;
        ASSERT_TRUE(engine.Timeline(query, &got).ok()) << where;
        ReferenceTimeline(logs, query, &want);
        EXPECT_TRUE(Same(got, want))
            << where << ": TIMELINE vehicle " << vehicle << " [" << start
            << ", " << end << "] max " << max_records;
      }

  std::vector<std::uint64_t> seqs(alarmed.begin(), alarmed.end());
  for (const std::uint64_t seq : quiet)
    if (alarmed.count(seq) == 0) {
      seqs.push_back(seq);  // logged, but never alarmed: an error
      break;
    }
  seqs.push_back(max_seq + 1000);  // never logged: an error
  for (const std::uint64_t seq : seqs)
    for (const std::uint32_t window :
         {0u, 1u, 16u, std::numeric_limits<std::uint32_t>::max()}) {
      ComoveQuery query;
      query.alarm_seq = seq;
      query.window = window;
      ComoveResult got, want;
      const util::Status got_status = engine.Comove(query, &got);
      const util::Status want_status = ReferenceComove(logs, query, &want);
      ASSERT_EQ(got_status.ok(), want_status.ok())
          << where << ": COMOVE seq " << seq;
      EXPECT_EQ(got_status.message(), want_status.message()) << where;
      if (want_status.ok()) {
        EXPECT_TRUE(Same(got, want))
            << where << ": COMOVE seq " << seq << " window " << window;
      }
    }
}

/// Appends bytes that no block CRC can verify to `vehicle`'s .part.
void TearTail(const std::string& dir, std::int32_t vehicle) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".part" ||
        name.substr(1, name.find('_') - 1) != std::to_string(vehicle))
      continue;
    std::ofstream out(entry.path(), std::ios::binary | std::ios::app);
    const char garbage[] = {0x30, 0x00, 0x00, 0x00, 0x11, 0x22, 0x33};
    out.write(garbage, sizeof garbage);
    return;
  }
  FAIL() << "vehicle " << vehicle << " has no tail to tear";
}

// ----------------------------------------------------------------- tests

TEST(HistoryIndexTest, AnswersEqualTheScanBitForBit) {
  const std::string dir = FreshDir("navhist_index_equal");
  const std::vector<HistoryRecord> stream = SeededStream(7, 2400, 5);
  const std::size_t first_part = 1500;
  {
    HistoryService live(dir, SmallSegments());
    ASSERT_TRUE(live.Open().ok());
    // The grids run mid-block, so each starts with unflushed records that
    // the first query must flush.
    for (std::size_t i = 0; i < first_part; ++i) {
      live.Append(stream[i]);
      if (i == 402 || i == 911 || i + 1 == first_part)
        ExpectGridMatchesScan(live, dir, "live at " + std::to_string(i + 1));
    }
    ASSERT_TRUE(live.first_error().ok());
  }

  // The log has the shapes the grid is meant to cover.
  HistoryIndex index;
  ASSERT_TRUE(HistoryIndex::Scan(dir, &index).ok());
  ASSERT_EQ(index.vehicles().size(), 5u);
  bool alarm_across_seal = false;
  for (const auto& [vehicle, entry] : index.vehicles()) {
    EXPECT_GE(entry.segments.size(), 10u) << "vehicle " << vehicle;
    std::set<std::uint64_t> alarmed;
    for (const AlarmRef& alarm : entry.alarms) alarmed.insert(alarm.position);
    std::uint64_t end = 0;
    for (std::size_t s = 0; s + 1 < entry.segments.size(); ++s) {
      end += entry.segments[s].records;
      if (alarmed.count(end - 1) != 0 && alarmed.count(end) != 0)
        alarm_across_seal = true;
    }
  }
  EXPECT_TRUE(alarm_across_seal);
  std::set<std::uint32_t> versions;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    char header[8] = {0};
    in.read(header, sizeof header);
    versions.insert(static_cast<std::uint8_t>(header[4]));
  }
  EXPECT_EQ(versions, (std::set<std::uint32_t>{kSegmentVersion,
                                               kSegmentVersionVotes}));

  TearTail(dir, 2);
  {
    const QueryEngine scanned(dir);
    ExpectGridMatchesScan(scanned, dir, "read-only scan of a torn tail");
  }
  HistoryService reopened(dir, SmallSegments());
  ASSERT_TRUE(reopened.Open().ok());
  ExpectGridMatchesScan(reopened, dir, "reopened");
  for (std::size_t i = first_part; i < stream.size(); ++i)
    reopened.Append(stream[i]);
  ExpectGridMatchesScan(reopened, dir, "reopened and appended");
  ASSERT_TRUE(reopened.first_error().ok());
  std::filesystem::remove_all(dir);
}

TEST(HistoryIndexTest, ReopeningAClosedWriterRebuildsItsIndex) {
  const std::string dir = FreshDir("navhist_index_reopen");
  const std::vector<HistoryRecord> stream = SeededStream(3, 600, 3);
  HistoryWriter writer(SmallSegments());
  ASSERT_TRUE(writer.Open(dir).ok());
  for (std::size_t i = 0; i < 400; ++i)
    ASSERT_TRUE(writer.Append(stream[i]).ok());
  ASSERT_TRUE(writer.Close().ok());
  ASSERT_TRUE(writer.Open(dir).ok());
  for (std::size_t i = 0; i < stream.size(); ++i)  // the first 400 skip
    ASSERT_TRUE(writer.Append(stream[i]).ok());
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(writer.stats().records_skipped, 400u);
  const QueryEngine engine(&writer.index());
  ExpectGridMatchesScan(engine, dir, "reopened writer");
  std::filesystem::remove_all(dir);
}

TEST(HistoryIndexTest, SegmentsAQueryDecodesDoNotGrowWithTheLog) {
  const std::string dir = FreshDir("navhist_index_decodes");
  HistoryConfig config;
  config.segment_bytes = 4096;
  config.block_records = 8;
  obs::MetricsRegistry registry;
  HistoryService history(dir, config);
  history.AttachMetrics(&registry);
  ASSERT_TRUE(history.Open().ok());
  const obs::Counter* decoded =
      registry.counter("history.query_segments_decoded");

  // Records of one fixed encoded size, so every sealed segment holds the
  // same count. That count is learnt from the first seal; from then on
  // each segment's ninth record is an alarm.
  std::uint64_t position = 0;
  std::uint64_t per_segment = 0;
  const auto append = [&] {
    HistoryRecord record;
    record.vehicle_id = 3;
    record.global_seq = position;
    record.timestamp = 10 * static_cast<std::int64_t>(position);
    record.score = 0.5 + static_cast<double>(position % 7);
    record.threshold = 2.0;
    record.alarm = per_segment > 0 && position % per_segment == 8;
    record.top_channels = {static_cast<std::uint32_t>(position % 5),
                           static_cast<std::uint32_t>(position % 3 + 5)};
    history.Append(record);
    ++position;
  };
  while (history.writer_stats().segments_sealed < 1) append();
  per_segment = position;

  // Grows the log to `sealed` sealed segments plus a tail of two full
  // blocks (nothing left to flush), then counts what each query decodes.
  struct Decodes {
    std::uint64_t rank = 0, timeline = 0, comove = 0;
  };
  const auto measure = [&](std::uint64_t sealed) {
    while (history.writer_stats().segments_sealed < sealed) append();
    EXPECT_EQ(position, sealed * per_segment);
    for (std::size_t i = 0; i < 2 * config.block_records; ++i) append();
    Decodes decodes;
    std::uint64_t before = decoded->value();
    RankResult rank;
    EXPECT_TRUE(history.Rank(RankQuery{}, &rank).ok());
    RankQuery top;
    top.limit = 10;
    EXPECT_TRUE(history.Rank(top, &rank).ok());
    EXPECT_EQ(rank.entries.size(), 1u);
    EXPECT_EQ(rank.entries[0].records, position);
    decodes.rank = decoded->value() - before;

    before = decoded->value();
    TimelineQuery newest;
    newest.vehicle_id = 3;
    newest.max_records = 256;
    TimelineResult timeline;
    EXPECT_TRUE(history.Timeline(newest, &timeline).ok());
    EXPECT_EQ(timeline.records.size(), 256u);
    decodes.timeline = decoded->value() - before;

    before = decoded->value();
    ComoveQuery comove;
    comove.alarm_seq = sealed * per_segment + 8;  // the newest alarm
    ComoveResult result;
    EXPECT_TRUE(history.Comove(comove, &result).ok());
    decodes.comove = decoded->value() - before;
    return decodes;
  };
  const Decodes young = measure(5);
  const Decodes old = measure(50);
  EXPECT_EQ(young.rank, 0u);
  EXPECT_EQ(old.rank, 0u);
  EXPECT_GT(young.timeline, 1u);  // the tail alone holds too few records
  EXPECT_EQ(old.timeline, young.timeline);
  EXPECT_EQ(young.comove, 2u);  // the tail and the segment sealed before it
  EXPECT_EQ(old.comove, young.comove);
  std::filesystem::remove_all(dir);
}

TEST(HistoryIndexTest, QueriesRacingAppendsAndSealsStayConsistent) {
  const std::string dir = FreshDir("navhist_index_race");
  HistoryConfig config;
  config.segment_bytes = 512;  // a seal every few blocks
  config.block_records = 4;
  const std::vector<HistoryRecord> stream = SeededStream(11, 3000, 4);
  HistoryService history(dir, config);
  ASSERT_TRUE(history.Open().ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const HistoryRecord& record : stream) history.Append(record);
    done.store(true);
  });
  // EXPECT, not ASSERT: the writer thread must be joined either way.
  std::map<std::int32_t, std::uint64_t> counts;
  std::size_t round = 0;
  for (; !done.load() || round < 4; ++round) {
    RankResult rank;
    EXPECT_TRUE(history.Rank(RankQuery{}, &rank).ok());
    for (const RankEntry& entry : rank.entries) {
      EXPECT_GE(entry.records, counts[entry.vehicle_id])
          << "vehicle " << entry.vehicle_id << " round " << round;
      counts[entry.vehicle_id] = entry.records;
    }
    TimelineQuery query;
    query.vehicle_id = static_cast<std::int32_t>(round % 4);
    query.max_records = round % 2 == 0 ? 64 : 0;
    TimelineResult timeline;
    EXPECT_TRUE(history.Timeline(query, &timeline).ok());
    for (std::size_t i = 1; i < timeline.records.size(); ++i)
      EXPECT_LE(timeline.records[i - 1].global_seq,
                timeline.records[i].global_seq)
          << "round " << round;
    for (auto it = timeline.records.rbegin(); it != timeline.records.rend();
         ++it) {
      if (!it->alarm) continue;
      ComoveQuery comove;
      comove.alarm_seq = it->global_seq;
      ComoveResult result;
      EXPECT_TRUE(history.Comove(comove, &result).ok());
      break;
    }
  }
  writer.join();
  EXPECT_GT(history.writer_stats().segments_sealed, 20u);
  ExpectGridMatchesScan(history, dir, "after the race");
  ASSERT_TRUE(history.first_error().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace navarchos::history
