#include "dashboard.h"

#include "harness.h"
#include "obs/metrics.h"
#include "persist/codec.h"

namespace navarchos::perfbench {
namespace {

/// Records a span from `start_ns` to now; returns its length in us.
double Record(SpanLog* spans, SpanName name, std::uint64_t key, std::uint64_t start_ns) {
  const std::uint64_t end = WallNanos();
  spans->Record(name, key, start_ns, end);
  return static_cast<double>(end - start_ns) / 1e3;
}

}  // namespace

util::Status RefreshDashboard(net::IngestClient* client,
                              history::HistoryService* history, bool scrape,
                              SpanLog* spans, std::uint64_t key,
                              DashboardTimes* times) {
  const std::uint64_t start = WallNanos();
  history::RankQuery rank_query;
  rank_query.limit = kRankLimit;
  history::RankResult rank;
  util::Status status = client->QueryRank(rank_query, &rank);
  if (!status.ok()) return status;

  // With nothing to explain yet, the explanation panel shows the
  // runner-up's series instead, so every refresh makes the same reads.
  history::TimelineQuery timeline_query;
  history::TimelineQuery runner_up_query;
  history::ComoveQuery comove_query;
  bool has_alarm = false;
  if (!rank.entries.empty()) {
    timeline_query.vehicle_id = rank.entries.front().vehicle_id;
    timeline_query.max_records = kTimelineRecords;
    history::TimelineResult timeline;
    status = client->QueryTimeline(timeline_query, &timeline);
    if (!status.ok()) return status;
    for (auto it = timeline.records.rbegin(); it != timeline.records.rend(); ++it) {
      if (!it->alarm) continue;
      comove_query.alarm_seq = it->global_seq;
      has_alarm = true;
      break;
    }
    if (has_alarm) {
      history::ComoveResult comove;
      status = client->QueryComove(comove_query, &comove);
    } else {
      runner_up_query = timeline_query;
      runner_up_query.vehicle_id = rank.entries[rank.entries.size() > 1 ? 1 : 0].vehicle_id;
      history::TimelineResult runner_up;
      status = client->QueryTimeline(runner_up_query, &runner_up);
    }
    if (!status.ok()) return status;
  }

  const std::uint64_t scrape_start = WallNanos();
  net::StatsMessage stats;
  if (scrape) {
    status = client->QueryStats(&stats);
    if (!status.ok()) return status;
  }
  const std::uint64_t end = WallNanos();
  if (scrape) times->scrape_us.push_back(static_cast<double>(end - scrape_start) / 1e3);
  times->refresh_us.push_back(static_cast<double>(end - start) / 1e3);
  ++times->refreshes;
  if (has_alarm) ++times->comoves;

  if (spans == nullptr) return util::Status();
  spans->Record(SpanName::kRefresh, key, start, end);
  if (scrape) {
    spans->Record(SpanName::kScrape, key, scrape_start, end);
    persist::Encoder encoder;
    obs::EncodeStatsSnapshot(encoder, stats.snapshot);
    times->snapshot_bytes = encoder.bytes().size();
  }

  // The same reads answered in process, without the wire.
  std::uint64_t t = WallNanos();
  history::RankResult local_rank;
  status = history->Rank(rank_query, &local_rank);
  if (!status.ok()) return status;
  times->rank_us.push_back(Record(spans, SpanName::kRank, key, t));
  if (rank.entries.empty()) return util::Status();
  t = WallNanos();
  history::TimelineResult local_timeline;
  status = history->Timeline(timeline_query, &local_timeline);
  if (!status.ok()) return status;
  times->timeline_us.push_back(Record(spans, SpanName::kTimeline, key, t));
  t = WallNanos();
  if (has_alarm) {
    history::ComoveResult local_comove;
    status = history->Comove(comove_query, &local_comove);
    if (!status.ok()) return status;
    times->comove_us.push_back(Record(spans, SpanName::kComove, key, t));
  } else {
    status = history->Timeline(runner_up_query, &local_timeline);
    if (!status.ok()) return status;
    times->timeline_us.push_back(Record(spans, SpanName::kTimeline, key, t));
  }
  return util::Status();
}

}  // namespace navarchos::perfbench
