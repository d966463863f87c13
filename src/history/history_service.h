// Thread-safe facade over one history log: appends from the service's
// ordered release path, queries from the network front end.
//
// The FleetService history callback runs on worker threads (serialised by
// the OrderedSink, but on whichever thread released the frame), while the
// IngestServer answers QUERY messages from its own poll thread. The
// HistoryService owns the writer and a query engine over the writer's
// index behind one mutex: Append is the callback target, and each query
// first flushes buffered blocks so a result always reflects every record
// released before it. A query holds the mutex for the index lookups and
// for decoding at most the vehicle's tail and the sealed segments its
// range overlaps - never a scan of the whole log.
#ifndef NAVARCHOS_HISTORY_HISTORY_SERVICE_H_
#define NAVARCHOS_HISTORY_HISTORY_SERVICE_H_

#include <mutex>
#include <string>

#include "history/history_log.h"
#include "history/query.h"
#include "obs/metrics.h"
#include "util/status.h"

/// \file
/// \brief HistoryService: the mutex-guarded writer + index-backed query
/// engine pair that lets ingest append and the network front end query one
/// log.

namespace navarchos::history {

/// One history log served for both appends and queries. Thread-safe; the
/// first append error latches (later appends are dropped) and is surfaced
/// through first_error() and every subsequent query.
class HistoryService {
 public:
  /// Builds the service over `dir` with the given log tuning.
  explicit HistoryService(std::string dir,
                          HistoryConfig config = HistoryConfig());

  /// Opens (creating or recovering) the log directory.
  util::Status Open();

  /// Appends one record; the FleetService history-callback target.
  /// Errors latch into first_error() instead of throwing into the
  /// release path.
  void Append(const HistoryRecord& record);

  /// Flushes buffered blocks to disk.
  util::Status Flush();

  /// Flushes, then answers RANK over the log.
  util::Status Rank(const RankQuery& query, RankResult* out);

  /// Flushes, then answers TIMELINE over the log.
  util::Status Timeline(const TimelineQuery& query, TimelineResult* out);

  /// Flushes, then answers COMOVE over the log.
  util::Status Comove(const ComoveQuery& query, ComoveResult* out);

  /// First append/flush error, if any (OK otherwise).
  util::Status first_error() const;

  /// Writer counters (records appended/skipped, blocks, seals).
  WriterStats writer_stats() const;

  /// Registers the history metrics in `registry` and starts reporting:
  /// `history.append_records` (records offered and not dropped by a
  /// latched error), `history.append_bytes` (nominal encoded record bytes,
  /// a deterministic function of each record - not on-disk bytes, which
  /// delta-compression makes layout-dependent), the `history.append_us`
  /// latency histogram and `history.query_segments_decoded` (segments the
  /// queries decoded, in-memory tails included). Observe-only. Call once,
  /// before the first Append; the registry must outlive the service.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// The log directory.
  const std::string& dir() const { return dir_; }

 private:
  /// Flush + latched-error check shared by the query entry points.
  util::Status PrepareQuery();

  const std::string dir_;
  mutable std::mutex mu_;
  HistoryWriter writer_;
  QueryEngine engine_;  ///< Answers from writer_'s index.
  util::Status error_;
  obs::Counter* append_records_ = nullptr;  ///< Null until AttachMetrics.
  obs::Counter* append_bytes_ = nullptr;
  obs::Histogram* append_us_ = nullptr;
};

}  // namespace navarchos::history

#endif  // NAVARCHOS_HISTORY_HISTORY_SERVICE_H_
