#include "net/ingest_server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "util/check.h"

namespace navarchos::net {

namespace {

/// Receive buffer of one read call; frames reassemble across reads, so the
/// size only trades syscalls against memory.
constexpr std::size_t kRecvChunkBytes = 64 * 1024;

/// Flushed prefixes beyond this are compacted away so a long-lived slow
/// (but not yet disconnect-worthy) consumer cannot pin retired bytes.
constexpr std::size_t kOutboundCompactBytes = 64 * 1024;

}  // namespace

IngestServer::IngestServer(service::FleetService* service,
                           const ServerConfig& config)
    : service_(service), config_(config) {
  NAVARCHOS_CHECK(service != nullptr);
  // All server counters live in the served service's registry, so one
  // STATS snapshot covers the full stack and ServerStats is just a view.
  obs::MetricsRegistry* registry = service->metrics();
  counters_.connections_accepted =
      registry->counter("server.connections_accepted");
  counters_.sessions_started = registry->counter("server.sessions_started");
  counters_.resumes = registry->counter("server.resumes");
  counters_.frames_received = registry->counter("server.frames_received");
  counters_.frames_admitted = registry->counter("server.frames_admitted");
  counters_.frames_shed = registry->counter("server.frames_shed");
  counters_.duplicates_skipped =
      registry->counter("server.duplicates_skipped");
  counters_.protocol_errors = registry->counter("server.protocol_errors");
  counters_.slow_consumer_disconnects =
      registry->counter("server.slow_consumer_disconnects");
  counters_.idle_reaps = registry->counter("server.idle_reaps");
  counters_.sessions_expired = registry->counter("server.sessions_expired");
  counters_.queries_served = registry->counter("server.queries_served");
  counters_.stats_served = registry->counter("server.stats_served");
  counters_.session_bytes_in = registry->counter("server.session_bytes_in");
  counters_.session_bytes_out =
      registry->counter("server.session_bytes_out");
}

IngestServer::~IngestServer() { Stop(); }

util::Status IngestServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return util::Status::Error("server already running");
  }
  util::Status status = listener_.Bind(config_.bind_address, config_.port);
  if (!status.ok()) return status;
  if (::pipe(wake_pipe_) != 0) {
    listener_.Close();
    return util::Status::Error("cannot create wake pipe");
  }
  stop_requested_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
  }
  thread_ = std::thread([this]() { Serve(); });
  return util::Status();
}

void IngestServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  // Latch the stop flag first: the serving thread polls it per admitted
  // frame, so even a thread blocked behind kBlock lane backpressure
  // abandons its backlog as soon as the current admission completes.
  stop_requested_.store(true, std::memory_order_relaxed);
  // Wake the poll loop; the serving thread exits at the top of its cycle.
  const std::uint8_t byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  thread_.join();
  connections_.clear();
  listener_.Close();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

std::uint16_t IngestServer::port() const { return listener_.port(); }

void IngestServer::set_shard_map(const ShardMapInfo& map) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_map_ = map;
}

void IngestServer::set_shard_id(std::uint32_t shard_id) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_id_ = shard_id;
}

ServerStats IngestServer::stats() const {
  ServerStats stats;
  stats.connections_accepted = counters_.connections_accepted->value();
  stats.sessions_started = counters_.sessions_started->value();
  stats.resumes = counters_.resumes->value();
  stats.frames_received = counters_.frames_received->value();
  stats.frames_admitted = counters_.frames_admitted->value();
  stats.frames_shed = counters_.frames_shed->value();
  stats.duplicates_skipped = counters_.duplicates_skipped->value();
  stats.protocol_errors = counters_.protocol_errors->value();
  stats.slow_consumer_disconnects =
      counters_.slow_consumer_disconnects->value();
  stats.idle_reaps = counters_.idle_reaps->value();
  stats.sessions_expired = counters_.sessions_expired->value();
  stats.queries_served = counters_.queries_served->value();
  stats.stats_served = counters_.stats_served->value();
  stats.session_bytes_in = counters_.session_bytes_in->value();
  stats.session_bytes_out = counters_.session_bytes_out->value();
  return stats;
}

std::uint64_t IngestServer::finished_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_sessions_;
}

bool IngestServer::WaitForFinishedSessions(std::uint64_t count,
                                           std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto reached = [this, count]() { return finished_sessions_ >= count; };
  if (timeout_ms <= 0) {
    finished_cv_.wait(lock, reached);
    return true;
  }
  return finished_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               reached);
}

int IngestServer::PollTimeoutMs() const {
  if (config_.idle_timeout_ms <= 0 && config_.session_retention_ms <= 0)
    return -1;
  bool pending = false;
  Clock::time_point earliest{};
  const auto consider = [&pending, &earliest](Clock::time_point t) {
    if (!pending || t < earliest) earliest = t;
    pending = true;
  };
  if (config_.idle_timeout_ms > 0) {
    for (const auto& conn : connections_)
      if (!conn->closing)
        consider(conn->last_activity +
                 std::chrono::milliseconds(config_.idle_timeout_ms));
  }
  if (config_.session_retention_ms > 0) {
    for (const auto& entry : sessions_)
      if (!entry.second.bound)
        consider(entry.second.last_unbound +
                 std::chrono::milliseconds(config_.session_retention_ms));
  }
  if (!pending) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      earliest - Clock::now());
  return static_cast<int>(std::clamp<std::int64_t>(left.count(), 1, 1000));
}

void IngestServer::ReapIdleAndExpireSessions() {
  const Clock::time_point now = Clock::now();
  if (config_.idle_timeout_ms > 0) {
    const auto deadline = std::chrono::milliseconds(config_.idle_timeout_ms);
    for (auto& conn : connections_) {
      if (conn->closing || now - conn->last_activity < deadline) continue;
      // A half-open peer sends nothing and acknowledges nothing: this
      // reap is the only path that ever frees its connection + binding.
      CloseNow(conn.get());
      counters_.idle_reaps->Increment();
    }
  }
  if (config_.session_retention_ms > 0) {
    const auto retention =
        std::chrono::milliseconds(config_.session_retention_ms);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (!it->second.bound && now - it->second.last_unbound >= retention) {
        it = sessions_.erase(it);
        counters_.sessions_expired->Increment();
      } else {
        ++it;
      }
    }
  }
}

void IngestServer::Serve() {
  std::vector<std::uint8_t> buffer(kRecvChunkBytes);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!running_) return;
    }

    // Snapshot the polled connection count: the accept block below may
    // append to connections_, and those new entries have no pollfd yet.
    const std::size_t polled = connections_.size();
    std::vector<pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = 0;
      if (!conn->draining) events |= POLLIN;
      if (conn->OutboundPending() > 0) events |= POLLOUT;
      fds.push_back({conn->transport->fd(), events, 0});
    }

    if (::poll(fds.data(), fds.size(), PollTimeoutMs()) < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable poll failure; Stop() still joins cleanly
    }

    if (fds[0].revents != 0) continue;  // wake byte: re-check running_

    if (fds[1].revents != 0) {
      Socket accepted;
      if (listener_.Accept(&accepted).ok()) {
        // Not counted yet: connections_accepted counts lazily at the
        // connection's first non-STATS message, so a scrape-only dial
        // cannot perturb the snapshot it reads.
        if (connections_.size() >= config_.max_connections) {
          ErrorMessage refusal{"server connection limit reached"};
          const auto bytes = EncodeError(refusal);
          (void)accepted.SendAll(bytes.data(), bytes.size());
        } else {
          auto conn = std::make_unique<Connection>();
          conn->transport = config_.transport_factory
                                ? config_.transport_factory(std::move(accepted))
                                : MakeSocketTransport(std::move(accepted));
          conn->last_activity = Clock::now();
          connections_.push_back(std::move(conn));
        }
      }
    }

    // Readable/writable connections: fds[2 + i] mirrors connections_[i]
    // for the first `polled` entries only - connections accepted this
    // cycle were never polled and are served from the next cycle on.
    for (std::size_t i = 0; i < polled; ++i) {
      Connection* conn = connections_[i].get();
      const short revents = fds[2 + i].revents;
      if (conn->closing) continue;
      if (conn->OutboundPending() > 0 && revents != 0) FlushOutbound(conn);
      if (conn->closing) continue;
      if (conn->draining) {
        // Read side is done; the connection lives only to drain its final
        // ACK/ERROR. A peer that hangs up early just ends it now.
        if (conn->OutboundPending() == 0 || (revents & (POLLERR | POLLHUP)))
          conn->closing = true;
        continue;
      }
      if ((revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      std::size_t received = 0;
      std::string error;
      const IoStatus result =
          conn->transport->Read(buffer.data(), buffer.size(), &received, &error);
      switch (result) {
        case IoStatus::kOk:
          conn->last_activity = Clock::now();
          conn->reader.Append(buffer.data(), received);
          if (!HandleReadable(conn)) CloseGracefully(conn);
          break;
        case IoStatus::kWouldBlock:
          break;  // poll readiness was a hint (fault layer), not a promise
        case IoStatus::kEof:
        case IoStatus::kError:
          // EOF or reset: the session cursor survives for a later RESUME;
          // an incomplete trailing message is simply discarded (its frames
          // were never decided, so the resume cursor re-requests them).
          CloseNow(conn);
          break;
      }
    }

    ReapIdleAndExpireSessions();

    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& conn) {
                         return conn->closing;
                       }),
        connections_.end());
  }
}

bool IngestServer::HandleReadable(Connection* conn) {
  WireMessage message;
  while (true) {
    if (stop_requested_.load(std::memory_order_relaxed)) return true;
    const MessageReader::Result result = conn->reader.Next(&message);
    if (result == MessageReader::Result::kNeedMore) return true;
    if (result == MessageReader::Result::kError) {
      FailConnection(conn, conn->reader.error());
      return false;
    }
    if (!HandleMessage(conn, message)) return false;
  }
}

bool IngestServer::HandleMessage(Connection* conn, const WireMessage& message) {
  if (message.type != MessageType::kStats) {
    // Lazy accept counting + session byte accounting, both skipping read
    // traffic (STATS here, QUERY below) so scrapes stay self-invisible.
    if (!conn->counted_accept) {
      conn->counted_accept = true;
      counters_.connections_accepted->Increment();
    }
    if (message.type != MessageType::kQuery)
      counters_.session_bytes_in->Add(kFrameOverheadBytes +
                                      message.payload.size());
  }
  switch (message.type) {
    case MessageType::kHello: {
      HelloMessage hello;
      util::Status status = DecodeHello(message.payload, &hello);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      if (hello.protocol_version != kProtocolVersion) {
        FailConnection(conn, "unsupported protocol version " +
                                 std::to_string(hello.protocol_version));
        return false;
      }
      if (conn->session != nullptr) {
        FailConnection(conn, "duplicate HELLO on one connection");
        return false;
      }
      const bool known = sessions_.count(hello.session_id) != 0;
      Session& session = sessions_[hello.session_id];
      if (session.bound) {
        // A second connection HELLOing a bound session would interleave
        // cursor updates with the first and break exactly-once admission.
        FailConnection(conn, "session '" + hello.session_id +
                                 "' is already bound to a live connection");
        return false;
      }
      // Register the client's vehicles in its declared order, fixing the
      // serving FleetService's lane order (idempotent on resume). A
      // draining service refuses cleanly instead of aborting the server.
      for (std::size_t i = 0; i < hello.vehicle_ids.size(); ++i) {
        const std::int32_t id = hello.vehicle_ids[i];
        int lane = 0;
        const util::Status registered = service_->TryRegisterVehicle(id, &lane);
        if (!registered.ok()) {
          FailConnection(conn, registered.message());
          return false;
        }
        // Peers that predate the fleet-order tail get the identity
        // mapping: the shard-local lane index IS the fleet order on a
        // single-shard fleet (the only fleet shape legacy peers can talk
        // to).
        if (config_.registration_hook)
          config_.registration_hook(id, !hello.fleet_order.empty()
                                            ? hello.fleet_order[i]
                                            : static_cast<std::uint32_t>(lane));
      }
      session.bound = true;
      conn->session = &session;
      if (known)
        counters_.resumes->Increment();
      else
        counters_.sessions_started->Increment();
      WelcomeMessage welcome;
      welcome.next_seq = session.next_expected;
      {
        std::lock_guard<std::mutex> lock(mu_);
        welcome.shard_map = shard_map_;
      }
      const std::vector<std::uint8_t> bytes = EncodeWelcome(welcome);
      counters_.session_bytes_out->Add(bytes.size());
      QueueBytes(conn, bytes);
      return !conn->closing;
    }

    case MessageType::kFrames: {
      if (conn->session == nullptr) {
        FailConnection(conn, "FRAMES before HELLO");
        return false;
      }
      FramesMessage frames;
      util::Status status = DecodeFrames(message.payload, &frames);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      Session& session = *conn->session;
      if (frames.first_seq > session.next_expected) {
        FailConnection(conn, "sequence gap: batch starts at " +
                                 std::to_string(frames.first_seq) +
                                 " but the session expects " +
                                 std::to_string(session.next_expected));
        return false;
      }
      std::uint64_t admitted = 0;
      std::uint64_t shed = 0;
      std::uint64_t duplicates = 0;
      std::size_t decided = 0;
      bool disconnected = false;
      for (std::size_t i = 0; i < frames.frames.size(); ++i) {
        // A Stop() must not wait for the whole backlog: abandon the rest
        // of the batch un-ACKed; the resume cursor re-requests it.
        if (stop_requested_.load(std::memory_order_relaxed)) break;
        const std::uint64_t seq = frames.first_seq + i;
        ++decided;
        if (seq < session.next_expected) {
          // Overlap below the resume cursor: already decided, skip - this
          // is what makes a reconnect admit every frame exactly once.
          ++duplicates;
          continue;
        }
        // A frame with a fleet seq releases under it (a shed one skips
        // it). Tail-less (legacy) peers get the identity mapping: on a
        // single-shard fleet the local admission seq IS the fleet seq.
        const service::Admission admission =
            frames.fleet_seqs.empty()
                ? service_->Ingest(frames.frames[i])
                : service_->Ingest(frames.frames[i], frames.fleet_seqs[i]);
        session.next_expected = seq + 1;
        if (admission.accepted()) {
          ++admitted;
        } else {
          ++shed;
          ++session.sheds;
          const NackMessage nack{
              seq, admission.vehicle_id,
              admission.code == service::AdmissionCode::kShedQueueFull
                  ? NackCode::kQueueFull
                  : NackCode::kDraining};
          const std::vector<std::uint8_t> bytes = EncodeNack(nack);
          counters_.session_bytes_out->Add(bytes.size());
          QueueBytes(conn, bytes);
          if (conn->closing) {  // slow consumer disconnected mid-batch
            disconnected = true;
            break;
          }
        }
      }
      // Count even a cut-short batch exactly: everything decided above
      // went through the service, so the wire-side counters must agree
      // with the service's own.
      counters_.frames_received->Add(decided);
      counters_.frames_admitted->Add(admitted);
      counters_.frames_shed->Add(shed);
      counters_.duplicates_skipped->Add(duplicates);
      if (disconnected) return false;
      if (decided < frames.frames.size()) return true;  // stopping
      const AckMessage ack{session.next_expected, session.sheds};
      const std::vector<std::uint8_t> bytes = EncodeAck(ack);
      counters_.session_bytes_out->Add(bytes.size());
      QueueBytes(conn, bytes);
      return !conn->closing;
    }

    case MessageType::kFin: {
      if (conn->session == nullptr) {
        FailConnection(conn, "FIN before HELLO");
        return false;
      }
      FinMessage fin;
      util::Status status = DecodeFin(message.payload, &fin);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      Session& session = *conn->session;
      if (fin.total_seq != session.next_expected) {
        FailConnection(conn, "FIN claims " + std::to_string(fin.total_seq) +
                                 " frames but the session decided " +
                                 std::to_string(session.next_expected));
        return false;
      }
      const AckMessage ack{session.next_expected, session.sheds};
      const std::vector<std::uint8_t> bytes = EncodeAck(ack);
      counters_.session_bytes_out->Add(bytes.size());
      QueueBytes(conn, bytes);
      if (!session.finished) {
        session.finished = true;
        std::lock_guard<std::mutex> lock(mu_);
        ++finished_sessions_;
        finished_cv_.notify_all();
      }
      return false;  // orderly close once the final ACK drained
    }

    case MessageType::kQuery: {
      // Queries are stateless reads: no HELLO/session required, so a
      // dashboard can dial, QUERY, collect RESULT pages and hang up
      // without ever touching the ingest cursor machinery.
      QueryMessage query;
      util::Status status = DecodeQuery(message.payload, &query);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      return HandleQuery(conn, query);
    }

    case MessageType::kError: {
      ErrorMessage error;
      if (DecodeError(message.payload, &error).ok())
        counters_.protocol_errors->Increment();
      return false;
    }

    case MessageType::kStats:
      return HandleStats(conn, message);

    default:
      FailConnection(conn, std::string("unexpected ") +
                               MessageTypeName(message.type) +
                               " message on the server side");
      return false;
  }
}

bool IngestServer::HandleQuery(Connection* conn, const QueryMessage& query) {
  if (config_.history == nullptr) {
    FailConnection(conn, "history queries are not enabled on this server");
    return false;
  }
  // Answer pages are built fully before queueing: a failed query must be
  // answered with ERROR alone, never a RESULT prefix followed by ERROR.
  std::vector<ResultMessage> pages;
  switch (query.kind) {
    case QueryKind::kRank: {
      history::RankResult result;
      const util::Status status = config_.history->Rank(query.rank, &result);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      const std::size_t total = result.entries.size();
      for (std::size_t off = 0; off == 0 || off < total;
           off += kMaxResultEntriesPerPage) {
        ResultMessage page;
        page.kind = QueryKind::kRank;
        page.page = static_cast<std::uint32_t>(pages.size());
        const std::size_t end =
            std::min(total, off + kMaxResultEntriesPerPage);
        page.rank_entries.assign(result.entries.begin() + off,
                                 result.entries.begin() + end);
        page.last = end == total;
        pages.push_back(std::move(page));
      }
      break;
    }
    case QueryKind::kTimeline: {
      history::TimelineResult result;
      const util::Status status =
          config_.history->Timeline(query.timeline, &result);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      const std::size_t total = result.records.size();
      for (std::size_t off = 0; off == 0 || off < total;
           off += kMaxResultEntriesPerPage) {
        ResultMessage page;
        page.kind = QueryKind::kTimeline;
        page.page = static_cast<std::uint32_t>(pages.size());
        const std::size_t end =
            std::min(total, off + kMaxResultEntriesPerPage);
        page.timeline_records.assign(result.records.begin() + off,
                                     result.records.begin() + end);
        page.last = end == total;
        pages.push_back(std::move(page));
      }
      break;
    }
    case QueryKind::kComove: {
      history::ComoveResult result;
      const util::Status status =
          config_.history->Comove(query.comove, &result);
      if (!status.ok()) {
        FailConnection(conn, status.message());
        return false;
      }
      const std::size_t total = result.entries.size();
      for (std::size_t off = 0; off == 0 || off < total;
           off += kMaxResultEntriesPerPage) {
        ResultMessage page;
        page.kind = QueryKind::kComove;
        page.page = static_cast<std::uint32_t>(pages.size());
        page.comove_vehicle_id = result.vehicle_id;
        page.comove_alarm_ts = result.alarm_ts;
        const std::size_t end =
            std::min(total, off + kMaxResultEntriesPerPage);
        page.comove_entries.assign(result.entries.begin() + off,
                                   result.entries.begin() + end);
        page.last = end == total;
        pages.push_back(std::move(page));
      }
      break;
    }
  }
  for (const ResultMessage& page : pages) {
    QueueBytes(conn, EncodeResult(page));
    if (conn->closing) return false;  // slow consumer mid-reply
  }
  counters_.queries_served->Increment();
  return !conn->closing;
}

bool IngestServer::HandleStats(Connection* conn, const WireMessage& message) {
  if (!message.payload.empty()) {
    FailConnection(conn, "STATS request must carry an empty payload");
    return false;
  }
  StatsMessage response;
  // The snapshot covers the whole stack (service, sink, pool, ensemble,
  // history and these server counters) because they all live in the
  // served service's registry.
  response.snapshot = service_->SnapshotStats();
  {
    std::lock_guard<std::mutex> lock(mu_);
    response.shard_id = shard_id_;
    response.shard_map = shard_map_;
  }
  QueueBytes(conn, EncodeStatsResponse(response));
  // After the snapshot, so the scrape that bumps it never reports itself.
  counters_.stats_served->Increment();
  return !conn->closing;
}

void IngestServer::QueueBytes(Connection* conn,
                              const std::vector<std::uint8_t>& bytes) {
  if (conn->closing || !conn->transport->valid()) return;
  conn->outbound.insert(conn->outbound.end(), bytes.begin(), bytes.end());
  FlushOutbound(conn);
  if (conn->closing) return;
  if (conn->OutboundPending() > config_.max_outbound_bytes) {
    // The peer stopped reading while the server still owes it this much:
    // a blocking send here is exactly how a slow consumer would wedge the
    // single serving thread. Disconnect instead; the session cursor
    // survives for an honest reconnect.
    CloseNow(conn);
    counters_.slow_consumer_disconnects->Increment();
  }
}

void IngestServer::FlushOutbound(Connection* conn) {
  while (conn->OutboundPending() > 0) {
    std::size_t written = 0;
    std::string error;
    const IoStatus status = conn->transport->Write(
        conn->outbound.data() + conn->outbound_off, conn->OutboundPending(),
        &written, &error);
    if (status == IoStatus::kOk) {
      conn->outbound_off += written;
      conn->last_activity = Clock::now();
      continue;
    }
    if (status == IoStatus::kWouldBlock) break;
    CloseNow(conn);  // write error: the peer is gone
    return;
  }
  if (conn->OutboundPending() == 0) {
    conn->outbound.clear();
    conn->outbound_off = 0;
    if (conn->draining) conn->closing = true;
  } else if (conn->outbound_off > kOutboundCompactBytes) {
    conn->outbound.erase(
        conn->outbound.begin(),
        conn->outbound.begin() + static_cast<std::ptrdiff_t>(conn->outbound_off));
    conn->outbound_off = 0;
  }
}

void IngestServer::UnbindSession(Connection* conn) {
  // Release immediately (not at erase time) so that a reconnect processed
  // later in the same poll cycle can already rebind.
  if (conn->session != nullptr) {
    conn->session->bound = false;
    conn->session->last_unbound = Clock::now();
    conn->session = nullptr;
  }
}

void IngestServer::CloseGracefully(Connection* conn) {
  UnbindSession(conn);
  conn->draining = true;
  if (conn->OutboundPending() == 0) conn->closing = true;
}

void IngestServer::CloseNow(Connection* conn) {
  UnbindSession(conn);
  conn->closing = true;
}

void IngestServer::FailConnection(Connection* conn, const std::string& message) {
  counters_.protocol_errors->Increment();
  const ErrorMessage error{message};
  const std::vector<std::uint8_t> bytes = EncodeError(error);
  counters_.session_bytes_out->Add(bytes.size());
  QueueBytes(conn, bytes);
}

}  // namespace navarchos::net
