#include "history/history_service.h"

#include <utility>

namespace navarchos::history {

HistoryService::HistoryService(std::string dir, HistoryConfig config)
    : dir_(std::move(dir)), writer_(config), engine_(&writer_.index()) {}

util::Status HistoryService::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  return writer_.Open(dir_);
}

void HistoryService::Append(const HistoryRecord& record) {
  const std::uint64_t start =
      append_us_ != nullptr ? obs::MonotonicMicros() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.ok()) return;  // latched: drop, surface through queries
  error_ = writer_.Append(record);
  if (append_records_ != nullptr) {
    append_records_->Increment();
    // Nominal encoded size of the record's fields (fixed fields + count
    // byte + 4 bytes per top channel); deterministic per record, unlike
    // the delta-compressed on-disk footprint.
    append_bytes_->Add(46 + 4 * record.top_channels.size());
    append_us_->Record(obs::MonotonicMicros() - start);
  }
}

util::Status HistoryService::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.ok()) return error_;
  error_ = writer_.Flush();
  return error_;
}

util::Status HistoryService::PrepareQuery() {
  if (!error_.ok()) return error_;
  error_ = writer_.Flush();
  return error_;
}

util::Status HistoryService::Rank(const RankQuery& query, RankResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  util::Status status = PrepareQuery();
  if (!status.ok()) return status;
  return engine_.Rank(query, out);
}

util::Status HistoryService::Timeline(const TimelineQuery& query,
                                      TimelineResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  util::Status status = PrepareQuery();
  if (!status.ok()) return status;
  return engine_.Timeline(query, out);
}

util::Status HistoryService::Comove(const ComoveQuery& query,
                                    ComoveResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  util::Status status = PrepareQuery();
  if (!status.ok()) return status;
  return engine_.Comove(query, out);
}

util::Status HistoryService::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

WriterStats HistoryService::writer_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writer_.stats();
}

void HistoryService::AttachMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  append_us_ = registry->histogram("history.append_us");
  append_bytes_ = registry->counter("history.append_bytes");
  append_records_ = registry->counter("history.append_records");
  engine_.set_decode_counter(
      registry->counter("history.query_segments_decoded"));
}

}  // namespace navarchos::history
