#include "history/query.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace navarchos::history {

QueryEngine::QueryEngine(const std::string& dir)
    : index_(&scanned_), status_(HistoryIndex::Scan(dir, &scanned_)) {}

QueryEngine::QueryEngine(const HistoryIndex* index) : index_(index) {}

util::Status QueryEngine::Decode(std::int32_t vehicle_id,
                                 const VehicleIndex& entry,
                                 std::size_t segment,
                                 std::vector<HistoryRecord>* out) const {
  if (decoded_ != nullptr) decoded_->Increment();
  return index_->Decode(vehicle_id, entry, segment, out);
}

util::Status QueryEngine::Rank(const RankQuery& query, RankResult* out) const {
  out->entries.clear();
  if (!status_.ok()) return status_;

  // Resolve the window end: the newest timestamp anywhere in the log when
  // the query leaves it open. Deterministic because the log itself is.
  std::int64_t end_ts = query.end_ts;
  if (end_ts == 0)
    for (const auto& [vehicle_id, entry] : index_->vehicles())
      end_ts = std::max(end_ts, entry.fold.last_ts);
  // The window is (start_ts, end_ts]. A start that would fall below the
  // int64 range leaves it open below: every record at or before end_ts.
  const bool bounded =
      query.window_minutes > 0 &&
      end_ts >= std::numeric_limits<std::int64_t>::min() + query.window_minutes;
  const std::int64_t start_ts = bounded ? end_ts - query.window_minutes : 0;
  const auto in_window = [&](std::int64_t ts) {
    return ts <= end_ts && (!bounded || ts > start_ts);
  };

  std::vector<HistoryRecord> records;
  for (const auto& [vehicle_id, entry] : index_->vehicles()) {
    RankFold fold;
    if (in_window(entry.min_ts) && in_window(entry.max_ts)) {
      fold = entry.fold;  // the whole log is in the window
    } else {
      // Re-fold the in-window records in append order, decoding only the
      // segments the window overlaps: the others hold none of them.
      for (std::size_t s = 0; s < entry.segments.size(); ++s) {
        const SegmentSummary& segment = entry.segments[s];
        if (segment.records == 0 || segment.min_ts > end_ts ||
            (bounded && segment.max_ts <= start_ts))
          continue;
        const util::Status status = Decode(vehicle_id, entry, s, &records);
        if (!status.ok()) return status;
        for (const HistoryRecord& record : records)
          if (in_window(record.timestamp)) fold.Add(record);
      }
    }
    if (fold.records == 0) continue;
    RankEntry rank;
    rank.vehicle_id = vehicle_id;
    rank.records = fold.records;
    rank.alarms = fold.alarms;
    rank.mean_ratio = fold.ratio_sum / static_cast<double>(fold.records);
    rank.max_ratio = fold.max_ratio;
    rank.last_ts = fold.last_ts;
    out->entries.push_back(rank);
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
  return util::Status();
}

util::Status QueryEngine::Timeline(const TimelineQuery& query,
                                   TimelineResult* out) const {
  out->records.clear();
  if (!status_.ok()) return status_;
  const auto it = index_->vehicles().find(query.vehicle_id);
  if (it == index_->vehicles().end()) return util::Status();
  const VehicleIndex& entry = it->second;
  const auto in_range = [&query](std::int64_t ts) {
    return ts >= query.start_ts && (query.end_ts == 0 || ts <= query.end_ts);
  };

  // Keep the newest max_records: the recent tail is what triage reads. So
  // walk the chain newest first, collect backwards and stop once enough
  // are in hand.
  const std::size_t limit = query.max_records > 0
                                ? query.max_records
                                : std::numeric_limits<std::size_t>::max();
  std::vector<HistoryRecord> records;
  for (std::size_t s = entry.segments.size();
       s-- > 0 && out->records.size() < limit;) {
    const SegmentSummary& segment = entry.segments[s];
    if (segment.records == 0 || segment.max_ts < query.start_ts ||
        (query.end_ts != 0 && segment.min_ts > query.end_ts))
      continue;
    const util::Status status = Decode(query.vehicle_id, entry, s, &records);
    if (!status.ok()) return status;
    for (auto record = records.rbegin();
         record != records.rend() && out->records.size() < limit; ++record)
      if (in_range(record->timestamp))
        out->records.push_back(std::move(*record));
  }
  std::reverse(out->records.begin(), out->records.end());
  return util::Status();
}

util::Status QueryEngine::Comove(const ComoveQuery& query,
                                 ComoveResult* out) const {
  out->entries.clear();
  if (!status_.ok()) return status_;

  // Locate the anchoring alarm: the first alarmed record carrying the
  // queried global sequence number, taking vehicles in id order.
  std::int32_t vehicle_id = 0;
  const VehicleIndex* log = nullptr;
  std::uint64_t anchor = 0;
  for (const auto& [id, candidate] : index_->vehicles()) {
    const auto it = std::lower_bound(
        candidate.alarms.begin(), candidate.alarms.end(), query.alarm_seq,
        [](const AlarmRef& alarm, std::uint64_t seq) {
          return alarm.global_seq < seq;
        });
    if (it == candidate.alarms.end() || it->global_seq != query.alarm_seq)
      continue;
    vehicle_id = id;
    log = &candidate;
    anchor = it->position;
    break;
  }
  if (log == nullptr)
    return util::Status::Error("comove: no alarmed record with global seq " +
                               std::to_string(query.alarm_seq));

  const std::uint64_t window = query.window;
  const std::uint64_t first = anchor > window ? anchor - window : 0;
  const std::uint64_t last = std::min(log->fold.records - 1, anchor + window);
  out->vehicle_id = vehicle_id;

  // Rank-weighted co-occurrence of the worst channels across the window:
  // the channel at position p of a record's k worst contributes k - p.
  // All-integer accumulation, so the result is byte-identical everywhere.
  std::vector<ComoveEntry> entries;
  const auto entry_of = [&entries](std::uint32_t channel) -> ComoveEntry& {
    for (ComoveEntry& entry : entries)
      if (entry.channel == channel) return entry;
    entries.push_back(ComoveEntry{channel, 0, 0});
    return entries.back();
  };
  // Decode only the segments that hold positions first..last.
  std::vector<HistoryRecord> records;
  std::uint64_t end = 0;  // position after segment s
  for (std::size_t s = 0; s < log->segments.size() && end <= last; ++s) {
    const std::uint64_t begin = end;
    end += log->segments[s].records;
    if (end <= first || begin == end) continue;
    const util::Status status = Decode(vehicle_id, *log, s, &records);
    if (!status.ok()) return status;
    for (std::uint64_t i = std::max(first, begin); i < end && i <= last; ++i) {
      const HistoryRecord& record = records[i - begin];
      if (i == anchor) out->alarm_ts = record.timestamp;
      const std::size_t k = record.top_channels.size();
      for (std::size_t p = 0; p < k; ++p) {
        ComoveEntry& entry = entry_of(record.top_channels[p]);
        ++entry.hits;
        entry.weight += static_cast<std::uint64_t>(k - p);
      }
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

}  // namespace navarchos::history
