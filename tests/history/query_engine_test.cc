// The query engine's semantics over hand-crafted logs, where every answer
// can be computed on paper: RANK's severity-ratio aggregation, window
// filtering, ordering and tie-breaks; TIMELINE's range filter and
// newest-tail truncation; COMOVE's rank-weighted channel accumulation,
// window clamping and anchor resolution errors; and RANK windows whose
// start would fall below the int64 range.
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "history/history_log.h"
#include "history/query.h"

namespace navarchos::history {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

HistoryRecord MakeRecord(std::int32_t vehicle, std::uint64_t seq,
                         std::int64_t ts, double score, double threshold,
                         bool alarm,
                         std::vector<std::uint32_t> channels = {}) {
  HistoryRecord record;
  record.vehicle_id = vehicle;
  record.global_seq = seq;
  record.timestamp = ts;
  record.score = score;
  record.threshold = threshold;
  record.alarm = alarm;
  record.top_channels = std::move(channels);
  return record;
}

void WriteLog(const std::string& dir,
              const std::vector<HistoryRecord>& records) {
  HistoryWriter writer;
  ASSERT_TRUE(writer.Open(dir).ok());
  for (const HistoryRecord& record : records)
    ASSERT_TRUE(writer.Append(record).ok());
  ASSERT_TRUE(writer.Close().ok());
}

TEST(QueryEngineTest, SeverityRatioFallsBackToRawScore) {
  EXPECT_EQ(SeverityRatio(MakeRecord(0, 0, 0, 3.0, 2.0, false)), 1.5);
  EXPECT_EQ(SeverityRatio(MakeRecord(0, 0, 0, 3.0, 0.0, false)), 3.0);
  EXPECT_EQ(SeverityRatio(MakeRecord(0, 0, 0, 3.0, -1.0, false)), 3.0);
}

TEST(QueryEngineTest, RankAggregatesPerVehicleWorstFirst) {
  const std::string dir = FreshDir("navq_rank");
  // Vehicle 1: ratios 2.0 and 1.0 (mean 1.5, max 2.0), one alarm.
  // Vehicle 2: ratios 0.5 and 0.5 (mean 0.5), no alarms.
  // Vehicle 3: one ratio 4.0 (mean 4.0) - worst overall.
  WriteLog(dir, {
    MakeRecord(1, 10, 100, 2.0, 1.0, true),
    MakeRecord(1, 11, 110, 1.0, 1.0, false),
    MakeRecord(2, 12, 105, 1.0, 2.0, false),
    MakeRecord(2, 13, 115, 0.25, 0.5, false),
    MakeRecord(3, 14, 90, 4.0, 1.0, true),
  });
  const QueryEngine engine(dir);
  RankResult result;
  ASSERT_TRUE(engine.Rank(RankQuery{}, &result).ok());
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.entries[0].vehicle_id, 3);
  EXPECT_EQ(result.entries[0].mean_ratio, 4.0);
  EXPECT_EQ(result.entries[0].records, 1u);
  EXPECT_EQ(result.entries[0].alarms, 1u);
  EXPECT_EQ(result.entries[0].last_ts, 90);
  EXPECT_EQ(result.entries[1].vehicle_id, 1);
  EXPECT_EQ(result.entries[1].mean_ratio, 1.5);
  EXPECT_EQ(result.entries[1].max_ratio, 2.0);
  EXPECT_EQ(result.entries[1].alarms, 1u);
  EXPECT_EQ(result.entries[2].vehicle_id, 2);
  EXPECT_EQ(result.entries[2].mean_ratio, 0.5);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, RankTieBreaksOnMaxRatioThenVehicleId) {
  const std::string dir = FreshDir("navq_rank_ties");
  // All three vehicles share mean 1.0; vehicle 5 has max 1.5, vehicles 4
  // and 6 are fully identical - id ascending breaks the final tie.
  WriteLog(dir, {
    MakeRecord(4, 10, 100, 1.0, 1.0, false),
    MakeRecord(5, 11, 100, 1.5, 1.0, false),
    MakeRecord(5, 12, 110, 0.5, 1.0, false),
    MakeRecord(6, 13, 100, 1.0, 1.0, false),
  });
  const QueryEngine engine(dir);
  RankResult result;
  ASSERT_TRUE(engine.Rank(RankQuery{}, &result).ok());
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_EQ(result.entries[0].vehicle_id, 5);
  EXPECT_EQ(result.entries[1].vehicle_id, 4);
  EXPECT_EQ(result.entries[2].vehicle_id, 6);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, RankWindowFiltersAndOmitsEmptyVehicles) {
  const std::string dir = FreshDir("navq_rank_window");
  WriteLog(dir, {
    MakeRecord(1, 10, 100, 8.0, 1.0, true),   // before the window
    MakeRecord(1, 11, 160, 1.0, 1.0, false),  // inside
    MakeRecord(2, 12, 90, 2.0, 1.0, false),   // before the window
    MakeRecord(1, 13, 210, 9.0, 1.0, true),   // after end_ts
  });
  RankQuery query;
  query.end_ts = 200;
  query.window_minutes = 100;  // window is (100, 200]
  const QueryEngine engine(dir);
  RankResult result;
  ASSERT_TRUE(engine.Rank(query, &result).ok());
  ASSERT_EQ(result.entries.size(), 1u);  // vehicle 2 has nothing in window
  EXPECT_EQ(result.entries[0].vehicle_id, 1);
  EXPECT_EQ(result.entries[0].records, 1u);
  EXPECT_EQ(result.entries[0].mean_ratio, 1.0);
  EXPECT_EQ(result.entries[0].alarms, 0u);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, RankLimitKeepsTheWorst) {
  const std::string dir = FreshDir("navq_rank_limit");
  WriteLog(dir, {
    MakeRecord(1, 10, 100, 1.0, 1.0, false),
    MakeRecord(2, 11, 100, 3.0, 1.0, false),
    MakeRecord(3, 12, 100, 2.0, 1.0, false),
  });
  RankQuery query;
  query.limit = 2;
  const QueryEngine engine(dir);
  RankResult result;
  ASSERT_TRUE(engine.Rank(query, &result).ok());
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].vehicle_id, 2);
  EXPECT_EQ(result.entries[1].vehicle_id, 3);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, TimelineFiltersRangeAndKeepsNewestTail) {
  const std::string dir = FreshDir("navq_timeline");
  WriteLog(dir, {
    MakeRecord(7, 10, 100, 0.1, 1.0, false, {1}),
    MakeRecord(7, 11, 200, 0.2, 1.0, false, {2}),
    MakeRecord(7, 12, 300, 0.3, 1.0, true, {3}),
    MakeRecord(7, 13, 400, 0.4, 1.0, false, {4}),
    MakeRecord(8, 14, 250, 9.0, 1.0, true, {5}),  // other vehicle
  });
  const QueryEngine engine(dir);

  TimelineQuery query;
  query.vehicle_id = 7;
  query.start_ts = 150;
  query.end_ts = 350;
  TimelineResult result;
  ASSERT_TRUE(engine.Timeline(query, &result).ok());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].timestamp, 200);
  EXPECT_EQ(result.records[1].timestamp, 300);
  EXPECT_TRUE(result.records[1].alarm);
  EXPECT_EQ(result.records[1].top_channels, std::vector<std::uint32_t>{3});

  // max_records keeps the NEWEST of the range, not the oldest.
  TimelineQuery tail;
  tail.vehicle_id = 7;
  tail.max_records = 2;
  ASSERT_TRUE(engine.Timeline(tail, &result).ok());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].timestamp, 300);
  EXPECT_EQ(result.records[1].timestamp, 400);

  // A vehicle with no records answers empty, not an error.
  TimelineQuery absent;
  absent.vehicle_id = 99;
  ASSERT_TRUE(engine.Timeline(absent, &result).ok());
  EXPECT_TRUE(result.records.empty());
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, ComoveAccumulatesRankWeightedChannels) {
  const std::string dir = FreshDir("navq_comove");
  // Window 1 around the alarm at seq 21 covers records 20..22. Channel 3
  // appears in all three (weights 2 + 3 + 1 = 6, hits 3); channel 1 in two
  // (weights 1 + 2 = 3); channel 9 once at top of k=3 (weight 3, hits 1) -
  // equal weight to channel 1, so hits break the tie in 1's favour.
  WriteLog(dir, {
    MakeRecord(2, 19, 90, 0.1, 1.0, false, {5}),      // outside the window
    MakeRecord(2, 20, 100, 0.5, 1.0, false, {3, 1}),
    MakeRecord(2, 21, 110, 2.0, 1.0, true, {3, 1, 6}),
    MakeRecord(2, 22, 120, 0.7, 1.0, false, {9, 4, 3}),
    MakeRecord(2, 23, 130, 0.1, 1.0, false, {8}),     // outside the window
  });
  ComoveQuery query;
  query.alarm_seq = 21;
  query.window = 1;
  const QueryEngine engine(dir);
  ComoveResult result;
  ASSERT_TRUE(engine.Comove(query, &result).ok());
  EXPECT_EQ(result.vehicle_id, 2);
  EXPECT_EQ(result.alarm_ts, 110);
  ASSERT_EQ(result.entries.size(), 5u);
  EXPECT_EQ(result.entries[0].channel, 3u);
  EXPECT_EQ(result.entries[0].weight, 6u);
  EXPECT_EQ(result.entries[0].hits, 3u);
  EXPECT_EQ(result.entries[1].channel, 1u);
  EXPECT_EQ(result.entries[1].weight, 3u);
  EXPECT_EQ(result.entries[1].hits, 2u);
  EXPECT_EQ(result.entries[2].channel, 9u);
  EXPECT_EQ(result.entries[2].weight, 3u);
  EXPECT_EQ(result.entries[2].hits, 1u);
  EXPECT_EQ(result.entries[3].channel, 4u);
  EXPECT_EQ(result.entries[3].weight, 2u);
  EXPECT_EQ(result.entries[4].channel, 6u);
  EXPECT_EQ(result.entries[4].weight, 1u);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, ComoveWindowClampsAtTheLogEdges) {
  const std::string dir = FreshDir("navq_comove_clamp");
  WriteLog(dir, {
    MakeRecord(1, 30, 100, 2.0, 1.0, true, {2}),
    MakeRecord(1, 31, 110, 0.5, 1.0, false, {7}),
  });
  ComoveQuery query;
  query.alarm_seq = 30;
  query.window = 50;  // far larger than the log
  const QueryEngine engine(dir);
  ComoveResult result;
  ASSERT_TRUE(engine.Comove(query, &result).ok());
  ASSERT_EQ(result.entries.size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, ComoveRequiresAnAlarmedAnchor) {
  const std::string dir = FreshDir("navq_comove_anchor");
  WriteLog(dir, {
    MakeRecord(1, 40, 100, 0.5, 1.0, false, {2}),  // seq exists, no alarm
    MakeRecord(1, 41, 110, 2.0, 1.0, true, {3}),
  });
  const QueryEngine engine(dir);
  ComoveResult result;
  ComoveQuery query;
  query.alarm_seq = 40;
  util::Status status = engine.Comove(query, &result);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("40"), std::string::npos);
  query.alarm_seq = 999;
  EXPECT_FALSE(engine.Comove(query, &result).ok());
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, RankWindowReachingBelowInt64CoversEverythingUpToItsEnd) {
  const std::string dir = FreshDir("navq_rank_window_min");
  WriteLog(dir, {
    MakeRecord(1, 10, -10, 2.0, 1.0, true),
    MakeRecord(1, 11, -5, 1.0, 1.0, false),
    MakeRecord(1, 12, -2, 3.0, 1.0, false),
    MakeRecord(1, 13, 4, 9.0, 1.0, true),  // after end_ts
  });
  // end_ts - window_minutes would fall below INT64_MIN: the window is open
  // below, so it holds every record at or before end_ts.
  RankQuery query;
  query.window_minutes = std::numeric_limits<std::int64_t>::max();
  query.end_ts = -2;
  const QueryEngine engine(dir);
  RankResult result;
  ASSERT_TRUE(engine.Rank(query, &result).ok());
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].records, 3u);
  EXPECT_EQ(result.entries[0].alarms, 1u);
  EXPECT_EQ(result.entries[0].mean_ratio, 2.0);
  EXPECT_EQ(result.entries[0].max_ratio, 3.0);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, RankWindowEndingAtInt64MinHoldsOnlyThatInstant) {
  const std::string dir = FreshDir("navq_rank_end_min");
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  // Vehicle 2's only record sits at INT64_MIN, the first of its segment,
  // so its timestamp delta stays in range.
  WriteLog(dir, {
    MakeRecord(1, 10, 100, 2.0, 1.0, true),
    MakeRecord(1, 11, 110, 1.0, 1.0, false),
    MakeRecord(2, 12, min, 5.0, 1.0, true),
    MakeRecord(1, 13, 120, 3.0, 1.0, false),
  });
  RankQuery query;
  query.window_minutes = 1;
  query.end_ts = min;
  const QueryEngine engine(dir);
  RankResult result;
  ASSERT_TRUE(engine.Rank(query, &result).ok());
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].vehicle_id, 2);
  EXPECT_EQ(result.entries[0].records, 1u);
  EXPECT_EQ(result.entries[0].mean_ratio, 5.0);
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, MissingDirectoryAnswersEmptyRank) {
  const QueryEngine engine(FreshDir("navq_missing"));
  RankResult result;
  ASSERT_TRUE(engine.Rank(RankQuery{}, &result).ok());
  EXPECT_TRUE(result.entries.empty());
}

}  // namespace
}  // namespace navarchos::history
