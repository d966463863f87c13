#include "net/ingest_client.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "util/check.h"

namespace navarchos::net {

namespace {

constexpr std::size_t kRecvChunkBytes = 64 * 1024;

}  // namespace

IngestClient::IngestClient(const ClientConfig& config)
    : config_(config), backoff_rng_(config.jitter_seed) {}

IngestClient::~IngestClient() { Abort(); }

IngestClient::OpBudget IngestClient::StartOp() const {
  OpBudget budget;
  budget.reconnects_left = config_.max_reconnects;
  if (config_.total_deadline_ms > 0) {
    budget.has_total = true;
    budget.total_deadline =
        Clock::now() + std::chrono::milliseconds(config_.total_deadline_ms);
  }
  return budget;
}

bool IngestClient::NextWaitDeadline(const OpBudget& budget,
                                    int* deadline_ms) const {
  *deadline_ms = config_.op_deadline_ms > 0 ? config_.op_deadline_ms : 0;
  if (!budget.has_total) return true;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      budget.total_deadline - Clock::now());
  if (left.count() <= 0) return false;
  const int total_left = static_cast<int>(
      std::min<std::int64_t>(left.count(), std::numeric_limits<int>::max()));
  *deadline_ms = *deadline_ms > 0 ? std::min(*deadline_ms, total_left)
                                  : total_left;
  return true;
}

int IngestClient::BackoffDelayMs(int attempt) {
  if (attempt <= 0) return 0;
  // Double in 64-bit and clamp: the old `backoff_ms *= 2` int walk
  // overflowed into negative (i.e. zero) waits after ~25 attempts,
  // turning a patient retry loop into a hot one.
  std::int64_t ceiling = config_.backoff_ms;
  for (int i = 1; i < attempt && ceiling < config_.max_backoff_ms; ++i)
    ceiling *= 2;
  ceiling = std::min<std::int64_t>(ceiling, config_.max_backoff_ms);
  if (ceiling <= 0) return 0;
  // Decorrelating jitter over [ceiling/2, ceiling]: a fleet of clients
  // reconnecting after one server blip spreads out instead of thundering
  // back in lockstep, while any single client stays reproducible.
  return static_cast<int>(backoff_rng_.UniformInt(ceiling / 2, ceiling));
}

util::Status IngestClient::SendWithin(OpBudget* budget,
                                      const std::vector<std::uint8_t>& bytes) {
  int deadline_ms = 0;
  if (!NextWaitDeadline(*budget, &deadline_ms))
    return util::Status::Error("total deadline exceeded");
  return SendAllWithin(transport_.get(), bytes.data(), bytes.size(),
                       deadline_ms);
}

util::Status IngestClient::NextMessage(OpBudget* budget, WireMessage* out,
                                       bool* fatal) {
  int deadline_ms = 0;
  if (!NextWaitDeadline(*budget, &deadline_ms)) {
    *fatal = true;
    return util::Status::Error("total deadline exceeded");
  }
  const Clock::time_point start = Clock::now();
  std::vector<std::uint8_t> buffer(kRecvChunkBytes);
  while (true) {
    const MessageReader::Result result = reader_.Next(out);
    if (result == MessageReader::Result::kError)
      return util::Status::Error("corrupt server stream: " + reader_.error());
    if (result == MessageReader::Result::kMessage) return util::Status();

    int remaining_ms = deadline_ms;
    if (deadline_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now() - start);
      remaining_ms = deadline_ms - static_cast<int>(elapsed.count());
      if (remaining_ms <= 0)
        return util::Status::Error("deadline expired waiting for the server");
    }
    if (!WaitReady(*transport_, /*for_write=*/false, remaining_ms))
      return util::Status::Error("deadline expired waiting for the server");
    std::size_t received = 0;
    std::string error;
    switch (transport_->Read(buffer.data(), buffer.size(), &received, &error)) {
      case IoStatus::kOk:
        reader_.Append(buffer.data(), received);
        break;
      case IoStatus::kWouldBlock:
        break;  // readiness was a hint (fault layer); re-check the deadline
      case IoStatus::kEof:
        return util::Status::Error("server closed the connection");
      case IoStatus::kError:
        return util::Status::Error(error);
    }
  }
}

util::Status IngestClient::ConnectOnce(OpBudget* budget, bool resume,
                                       bool adopt_cursor, bool* fatal) {
  *fatal = false;
  int deadline_ms = 0;
  if (!NextWaitDeadline(*budget, &deadline_ms)) {
    *fatal = true;
    return util::Status::Error("total deadline exceeded");
  }
  int connect_timeout_ms = config_.connect_timeout_ms;
  if (deadline_ms > 0 &&
      (connect_timeout_ms <= 0 || deadline_ms < connect_timeout_ms))
    connect_timeout_ms = deadline_ms;

  ++stats_.connect_attempts;
  Socket socket;
  util::Status status =
      ConnectTcp(config_.host, config_.port, &socket, connect_timeout_ms);
  if (!status.ok()) return status;
  transport_ = config_.transport_factory
                   ? config_.transport_factory(std::move(socket))
                   : MakeSocketTransport(std::move(socket));
  // A fresh connection is a fresh byte stream: drop any half-reassembled
  // message (and latched framing error) of the previous one.
  reader_ = MessageReader();

  HelloMessage hello;
  hello.session_id = config_.session_id;
  hello.resume = resume;
  hello.vehicle_ids = vehicle_ids_;
  hello.fleet_order = fleet_order_;
  status = SendWithin(budget, EncodeHello(hello));
  if (!status.ok()) {
    transport_->Close();
    return status;
  }

  WireMessage message;
  status = NextMessage(budget, &message, fatal);
  if (!status.ok()) {
    transport_->Close();
    return status;
  }
  if (message.type == MessageType::kError) {
    ErrorMessage error;
    (void)DecodeError(message.payload, &error);
    transport_->Close();
    // The server refusing HELLO (draining, bound session, bad version) is
    // a decision, not a transport fault: healing must not hammer it.
    *fatal = true;
    return util::Status::Error("server refused HELLO: " + error.message);
  }
  if (message.type != MessageType::kWelcome) {
    transport_->Close();
    return util::Status::Error(std::string("expected WELCOME, got ") +
                               MessageTypeName(message.type));
  }
  WelcomeMessage welcome;
  status = DecodeWelcome(message.payload, &welcome);
  if (!status.ok()) {
    transport_->Close();
    return status;
  }
  // The server's cursor: everything below it is decided. A healing
  // reconnect must NOT rewind next_seq_ - the frames in [cursor,
  // next_seq_) are exactly the retained in-flight batch being resent.
  acked_through_ = welcome.next_seq;
  shard_map_ = welcome.shard_map;
  if (adopt_cursor) next_seq_ = welcome.next_seq;
  return util::Status();
}

util::Status IngestClient::Connect(const std::vector<std::int32_t>& vehicle_ids,
                                   bool resume) {
  return Connect(vehicle_ids, {}, resume);
}

util::Status IngestClient::Connect(
    const std::vector<std::int32_t>& vehicle_ids,
    const std::vector<std::uint32_t>& fleet_order, bool resume) {
  NAVARCHOS_CHECK(fleet_order.empty() ||
                  fleet_order.size() == vehicle_ids.size());
  vehicle_ids_ = vehicle_ids;
  fleet_order_ = fleet_order;
  OpBudget budget = StartOp();
  util::Status status;
  for (int attempt = 0; attempt < config_.connect_attempts; ++attempt) {
    const int delay_ms = BackoffDelayMs(attempt);
    if (delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    bool fatal = false;
    status = ConnectOnce(&budget, resume, /*adopt_cursor=*/true, &fatal);
    if (status.ok()) {
      connected_once_ = true;
      pending_.first_seq = next_seq_;
      pending_.frames.clear();
      return util::Status();
    }
    if (fatal) return status;
  }
  return util::Status::Error("connect to " + config_.host + ":" +
                             std::to_string(config_.port) + " failed after " +
                             std::to_string(config_.connect_attempts) +
                             " attempts: " + status.message());
}

bool IngestClient::Heal(OpBudget* budget, util::Status* status) {
  if (!connected_once_) return false;
  if (transport_) transport_->Close();
  for (int attempt = 0;; ++attempt) {
    if (budget->reconnects_left <= 0) {
      *status = util::Status::Error("reconnect budget exhausted; last error: " +
                                    status->message());
      return false;
    }
    --budget->reconnects_left;
    const int delay_ms = BackoffDelayMs(attempt);
    if (delay_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    bool fatal = false;
    const util::Status attempt_status =
        ConnectOnce(budget, /*resume=*/true, /*adopt_cursor=*/false, &fatal);
    if (attempt_status.ok()) {
      ++stats_.reconnects;
      return true;
    }
    if (fatal) {
      *status = attempt_status;
      return false;
    }
  }
}

util::Status IngestClient::Send(const telemetry::SensorFrame& frame) {
  if (!transport_ || !transport_->valid())
    return util::Status::Error("client is not connected");
  // A sharded session (fleet seqs in flight) must not interleave plain
  // sends: the FRAMES tail is all-or-nothing per batch.
  NAVARCHOS_CHECK(pending_.fleet_seqs.empty());
  if (pending_.frames.empty()) pending_.first_seq = next_seq_;
  pending_.frames.push_back(frame);
  ++next_seq_;
  ++stats_.frames_sent;
  if (pending_.frames.size() >= config_.batch_frames) return Flush();
  return util::Status();
}

util::Status IngestClient::Send(const telemetry::SensorFrame& frame,
                                std::uint64_t fleet_seq) {
  if (!transport_ || !transport_->valid())
    return util::Status::Error("client is not connected");
  NAVARCHOS_CHECK(pending_.fleet_seqs.size() == pending_.frames.size());
  if (pending_.frames.empty()) pending_.first_seq = next_seq_;
  pending_.frames.push_back(frame);
  pending_.fleet_seqs.push_back(fleet_seq);
  ++next_seq_;
  ++stats_.frames_sent;
  if (pending_.frames.size() >= config_.batch_frames) return Flush();
  return util::Status();
}

util::Status IngestClient::Flush() {
  const util::Status status = StartFlush();
  if (!status.ok()) return status;
  return AwaitFlush();
}

util::Status IngestClient::StartFlush() {
  NAVARCHOS_CHECK(inflight_.frames.empty());  // AwaitFlush the last batch
  if (pending_.frames.empty()) return util::Status();
  if (!transport_ || !transport_->valid())
    return util::Status::Error("client is not connected");
  inflight_ = std::move(pending_);
  pending_ = FramesMessage{};
  flush_budget_ = StartOp();
  flush_send_status_ = SendInflight(&flush_budget_);
  return util::Status();
}

util::Status IngestClient::AwaitFlush() {
  if (inflight_.frames.empty()) return util::Status();
  const util::Status status =
      FlushInflight(&flush_budget_, flush_send_status_);
  inflight_ = FramesMessage{};
  return status;
}

util::Status IngestClient::SendInflight(OpBudget* budget) {
  if (acked_through_ >= inflight_.first_seq + inflight_.frames.size())
    return util::Status();
  // Rewind to the server's cursor: frames below it were decided on a
  // previous connection; resending them would only be skipped as
  // duplicates, so drop them here and keep the wire minimal.
  if (inflight_.first_seq < acked_through_) {
    const std::size_t decided =
        static_cast<std::size_t>(acked_through_ - inflight_.first_seq);
    inflight_.frames.erase(inflight_.frames.begin(),
                           inflight_.frames.begin() +
                               static_cast<std::ptrdiff_t>(decided));
    // The fleet-seq tail stays parallel to the frames through a rewind.
    if (!inflight_.fleet_seqs.empty())
      inflight_.fleet_seqs.erase(inflight_.fleet_seqs.begin(),
                                 inflight_.fleet_seqs.begin() +
                                     static_cast<std::ptrdiff_t>(decided));
    inflight_.first_seq = acked_through_;
  }
  const util::Status status = SendWithin(budget, EncodeFrames(inflight_));
  if (status.ok()) ++stats_.batches_sent;
  return status;
}

util::Status IngestClient::FlushInflight(OpBudget* budget,
                                         util::Status status) {
  const std::uint64_t target = inflight_.first_seq + inflight_.frames.size();
  while (true) {
    bool fatal = false;
    if (status.ok())
      status = AwaitAck(budget, target, /*require_ack_message=*/false, &fatal);
    if (status.ok() || fatal) return status;
    if (!Heal(budget, &status)) return status;
    status = SendInflight(budget);
  }
}

util::Status IngestClient::Finish() {
  util::Status status = Flush();
  if (!status.ok()) return status;
  if (!transport_ || !transport_->valid())
    return util::Status::Error("client is not connected");
  OpBudget budget = StartOp();
  while (true) {
    const FinMessage fin{next_seq_};
    status = SendWithin(&budget, EncodeFin(fin));
    bool fatal = false;
    if (status.ok()) {
      // Insist on a fresh ACK *message*, not just cursor coverage: after a
      // heal the cursor already covers next_seq_, but only the FIN ACK
      // proves the server actually recorded the finish (a half-open link
      // swallows the FIN silently). Retransmitted FINs are safe - the
      // server counts a session's finish once.
      status = AwaitAck(&budget, next_seq_, /*require_ack_message=*/true,
                        &fatal);
    }
    if (status.ok()) break;
    if (fatal) return status;
    if (!Heal(&budget, &status)) return status;
  }
  transport_->Close();
  return util::Status();
}

void IngestClient::Abort() {
  if (transport_) transport_->Close();
}

util::Status IngestClient::RunQuery(const QueryMessage& query,
                                    std::vector<ResultMessage>* pages) {
  pages->clear();
  OpBudget budget = StartOp();
  // When no ingest connection is live, dial a dedicated one without HELLO:
  // queries are stateless reads, so they neither need nor want a session.
  const bool ephemeral = !transport_ || !transport_->valid();
  if (ephemeral) {
    int deadline_ms = 0;
    if (!NextWaitDeadline(budget, &deadline_ms))
      return util::Status::Error("total deadline exceeded");
    int connect_timeout_ms = config_.connect_timeout_ms;
    if (deadline_ms > 0 &&
        (connect_timeout_ms <= 0 || deadline_ms < connect_timeout_ms))
      connect_timeout_ms = deadline_ms;
    ++stats_.connect_attempts;
    Socket socket;
    util::Status status =
        ConnectTcp(config_.host, config_.port, &socket, connect_timeout_ms);
    if (!status.ok()) return status;
    transport_ = config_.transport_factory
                     ? config_.transport_factory(std::move(socket))
                     : MakeSocketTransport(std::move(socket));
    reader_ = MessageReader();
  }

  util::Status status = SendWithin(&budget, EncodeQuery(query));
  while (status.ok()) {
    WireMessage message;
    bool fatal = false;
    status = NextMessage(&budget, &message, &fatal);
    if (!status.ok()) break;
    if (message.type == MessageType::kError) {
      ErrorMessage error;
      (void)DecodeError(message.payload, &error);
      status = util::Status::Error("server error: " + error.message);
      break;
    }
    if (message.type != MessageType::kResult) {
      status = util::Status::Error(std::string("unexpected ") +
                                   MessageTypeName(message.type) +
                                   " while awaiting RESULT");
      break;
    }
    ResultMessage page;
    status = DecodeResult(message.payload, &page);
    if (!status.ok()) break;
    if (page.kind != query.kind) {
      status = util::Status::Error(
          std::string("RESULT answers ") + QueryKindName(page.kind) +
          " but the query was " + QueryKindName(query.kind));
      break;
    }
    if (page.page != pages->size()) {
      status = util::Status::Error(
          "RESULT pages out of order: got page " + std::to_string(page.page) +
          ", expected " + std::to_string(pages->size()));
      break;
    }
    const bool last = page.last;
    pages->push_back(std::move(page));
    if (last) break;
  }
  if (ephemeral) transport_->Close();
  return status;
}

util::Status IngestClient::QueryRank(const history::RankQuery& query,
                                     history::RankResult* out) {
  QueryMessage message;
  message.kind = QueryKind::kRank;
  message.rank = query;
  std::vector<ResultMessage> pages;
  util::Status status = RunQuery(message, &pages);
  if (!status.ok()) return status;
  out->entries.clear();
  for (const ResultMessage& page : pages)
    out->entries.insert(out->entries.end(), page.rank_entries.begin(),
                        page.rank_entries.end());
  return util::Status();
}

util::Status IngestClient::QueryTimeline(const history::TimelineQuery& query,
                                         history::TimelineResult* out) {
  QueryMessage message;
  message.kind = QueryKind::kTimeline;
  message.timeline = query;
  std::vector<ResultMessage> pages;
  util::Status status = RunQuery(message, &pages);
  if (!status.ok()) return status;
  out->records.clear();
  for (const ResultMessage& page : pages)
    out->records.insert(out->records.end(), page.timeline_records.begin(),
                        page.timeline_records.end());
  return util::Status();
}

util::Status IngestClient::QueryComove(const history::ComoveQuery& query,
                                       history::ComoveResult* out) {
  QueryMessage message;
  message.kind = QueryKind::kComove;
  message.comove = query;
  std::vector<ResultMessage> pages;
  util::Status status = RunQuery(message, &pages);
  if (!status.ok()) return status;
  out->entries.clear();
  if (!pages.empty()) {
    out->vehicle_id = pages.front().comove_vehicle_id;
    out->alarm_ts = pages.front().comove_alarm_ts;
  }
  for (const ResultMessage& page : pages)
    out->entries.insert(out->entries.end(), page.comove_entries.begin(),
                        page.comove_entries.end());
  return util::Status();
}

util::Status IngestClient::QueryStats(StatsMessage* out) {
  OpBudget budget = StartOp();
  // Like RunQuery: a scrape is a stateless read, so when no ingest
  // connection is live it rides a short-lived dedicated dial with no HELLO.
  const bool ephemeral = !transport_ || !transport_->valid();
  if (ephemeral) {
    int deadline_ms = 0;
    if (!NextWaitDeadline(budget, &deadline_ms))
      return util::Status::Error("total deadline exceeded");
    int connect_timeout_ms = config_.connect_timeout_ms;
    if (deadline_ms > 0 &&
        (connect_timeout_ms <= 0 || deadline_ms < connect_timeout_ms))
      connect_timeout_ms = deadline_ms;
    ++stats_.connect_attempts;
    Socket socket;
    util::Status status =
        ConnectTcp(config_.host, config_.port, &socket, connect_timeout_ms);
    if (!status.ok()) return status;
    transport_ = config_.transport_factory
                     ? config_.transport_factory(std::move(socket))
                     : MakeSocketTransport(std::move(socket));
    reader_ = MessageReader();
  }

  util::Status status = SendWithin(&budget, EncodeStatsRequest());
  while (status.ok()) {
    WireMessage message;
    bool fatal = false;
    status = NextMessage(&budget, &message, &fatal);
    if (!status.ok()) break;
    if (message.type == MessageType::kError) {
      ErrorMessage error;
      (void)DecodeError(message.payload, &error);
      status = util::Status::Error("server error: " + error.message);
      break;
    }
    if (message.type != MessageType::kStats) {
      status = util::Status::Error(std::string("unexpected ") +
                                   MessageTypeName(message.type) +
                                   " while awaiting STATS");
      break;
    }
    status = DecodeStatsResponse(message.payload, out);
    break;
  }
  if (ephemeral) transport_->Close();
  return status;
}

util::Status IngestClient::AwaitAck(OpBudget* budget, std::uint64_t target,
                                    bool require_ack_message, bool* fatal) {
  *fatal = false;
  bool got_ack = false;
  while (acked_through_ < target || (require_ack_message && !got_ack)) {
    WireMessage message;
    util::Status status = NextMessage(budget, &message, fatal);
    if (!status.ok()) return status;
    switch (message.type) {
      case MessageType::kAck: {
        AckMessage ack;
        status = DecodeAck(message.payload, &ack);
        if (!status.ok()) return status;
        acked_through_ = std::max(acked_through_, ack.through_seq);
        got_ack = ack.through_seq >= target;
        break;
      }
      case MessageType::kNack: {
        NackMessage nack;
        status = DecodeNack(message.payload, &nack);
        if (!status.ok()) return status;
        nacks_.push_back(nack);
        break;
      }
      case MessageType::kError: {
        ErrorMessage error;
        (void)DecodeError(message.payload, &error);
        *fatal = true;
        return util::Status::Error("server error: " + error.message);
      }
      default:
        *fatal = true;
        return util::Status::Error(std::string("unexpected ") +
                                   MessageTypeName(message.type) +
                                   " while awaiting ACK");
    }
  }
  return util::Status();
}

}  // namespace navarchos::net
