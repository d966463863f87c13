// Query engine over the anomaly history log: RANK / TIMELINE / COMOVE.
//
// The three queries are the fleet-triage primitives the history log
// exists for (the Anomaly-Advisor pattern): RANK orders the fleet's
// vehicles by anomaly severity over a time window, TIMELINE returns one
// vehicle's score/alarm series, and COMOVE reports which score channels
// co-moved around a given alarm. Every query answers from a HistoryIndex:
// a whole-log RANK from the per-vehicle folds alone, anything else by
// decoding only the vehicle's tail and the sealed segments its range
// overlaps, so what a query decodes is bounded by its range and the
// segment size, not by how long the log has run. Determinism is inherited
// from the log (records are in the OrderedSink total order) and from the
// engine's fixed iteration and tie-break rules - the same log yields
// byte-identical results wherever and whenever a query runs, and the same
// results a full scan would.
#ifndef NAVARCHOS_HISTORY_QUERY_H_
#define NAVARCHOS_HISTORY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "history/history_log.h"
#include "obs/metrics.h"
#include "util/status.h"

/// \file
/// \brief QueryEngine answering RANK / TIMELINE / COMOVE from a history
/// log's index, with deterministic ordering and tie-break rules.

namespace navarchos::history {

/// RANK parameters: order the fleet by severity over a trailing window.
struct RankQuery {
  /// Window length in stream minutes; 0 ranks over the whole log. A window
  /// whose start would fall below the int64 range holds every record up to
  /// end_ts.
  std::int64_t window_minutes = 0;
  /// Window end (inclusive); 0 means the latest timestamp in the log.
  std::int64_t end_ts = 0;
  /// Most entries to return; 0 means all vehicles with in-window records.
  std::uint32_t limit = 0;
};

/// One vehicle's row in a RANK result.
struct RankEntry {
  std::int32_t vehicle_id = 0;  ///< The vehicle.
  std::uint64_t records = 0;    ///< Scored samples inside the window.
  std::uint64_t alarms = 0;     ///< How many of them raised alarms.
  double mean_ratio = 0.0;      ///< Mean severity ratio over the window.
  double max_ratio = 0.0;       ///< Worst single ratio in the window.
  std::int64_t last_ts = 0;     ///< Timestamp of the newest in-window record.
};

/// RANK result: entries sorted worst first (mean ratio descending, then
/// max ratio descending, then vehicle id ascending). Vehicles with no
/// in-window records are omitted.
struct RankResult {
  std::vector<RankEntry> entries;
};

/// TIMELINE parameters: one vehicle's score/alarm series.
struct TimelineQuery {
  std::int32_t vehicle_id = 0;  ///< Vehicle to read.
  std::int64_t start_ts = 0;    ///< Inclusive range start (0 = log start).
  std::int64_t end_ts = 0;      ///< Inclusive range end (0 = log end).
  /// Most records to return; 0 means all. When the range holds more, the
  /// NEWEST max_records are kept (a dashboard wants the recent tail).
  std::uint32_t max_records = 0;
};

/// TIMELINE result: the vehicle's records in log (stream) order.
struct TimelineResult {
  std::vector<HistoryRecord> records;
};

/// COMOVE parameters: channels that co-moved around one alarm, identified
/// by the admitting frame's global sequence number (as reported in RANK /
/// TIMELINE records and in the service's alarm stream).
struct ComoveQuery {
  std::uint64_t alarm_seq = 0;  ///< Global seq of an alarmed record.
  /// Records considered on each side of the alarm (the co-movement
  /// window is 2*window + 1 records of the same vehicle).
  std::uint32_t window = 16;
};

/// One channel's co-movement evidence around the alarm.
struct ComoveEntry {
  std::uint32_t channel = 0;  ///< Score channel index.
  std::uint64_t hits = 0;     ///< Windows records listing the channel.
  /// Rank-weighted evidence: a record contributes (k - position) for the
  /// channel at `position` of its k worst channels, so channels that were
  /// repeatedly among the worst dominate. Integer arithmetic, hence
  /// trivially byte-identical everywhere.
  std::uint64_t weight = 0;
};

/// COMOVE result: the anchoring alarm plus channels sorted by evidence
/// (weight descending, hits descending, channel ascending).
struct ComoveResult {
  std::int32_t vehicle_id = 0;  ///< Vehicle of the anchoring alarm.
  std::int64_t alarm_ts = 0;    ///< Its timestamp.
  std::vector<ComoveEntry> entries;
};

/// Answers RANK / TIMELINE / COMOVE from one HistoryIndex: either a live
/// writer's (HistoryService serialises its appends and queries) or its own,
/// built by a read-only scan of a directory.
class QueryEngine {
 public:
  /// Indexes `dir` now, read-only (a torn tail's clean prefix is served,
  /// nothing on disk changes), and answers from that index; build a new
  /// engine to see later appends. A scan error is every query's answer.
  explicit QueryEngine(const std::string& dir);

  /// Answers from `index`, which the caller keeps current and must not
  /// change during a query.
  explicit QueryEngine(const HistoryIndex* index);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Ranks the fleet's vehicles by severity over the query window.
  util::Status Rank(const RankQuery& query, RankResult* out) const;

  /// Returns one vehicle's score/alarm series in the query range.
  util::Status Timeline(const TimelineQuery& query, TimelineResult* out) const;

  /// Reports the channels that co-moved around the given alarm. Fails
  /// when no alarmed record carries `alarm_seq`.
  util::Status Comove(const ComoveQuery& query, ComoveResult* out) const;

  /// Counts every segment a query decodes (an in-memory tail included)
  /// into `counter`; null stops counting.
  void set_decode_counter(obs::Counter* counter) { decoded_ = counter; }

 private:
  /// Decodes segment `segment` of one vehicle's chain and counts it.
  util::Status Decode(std::int32_t vehicle_id, const VehicleIndex& entry,
                      std::size_t segment,
                      std::vector<HistoryRecord>* out) const;

  HistoryIndex scanned_;  ///< The read-only scan's index, when there is one.
  const HistoryIndex* index_;
  util::Status status_;  ///< The read-only scan's outcome.
  obs::Counter* decoded_ = nullptr;
};

}  // namespace navarchos::history

#endif  // NAVARCHOS_HISTORY_QUERY_H_
