// Self-healing blocking ingest client of the network front end.
//
// IngestClient dials an IngestServer with bounded retry and capped,
// seeded-jitter exponential backoff, opens (or resumes) a session with
// HELLO, and ships SensorFrames in stop-and-wait batches: Send buffers
// frames locally, Flush writes one FRAMES message and blocks until the
// server's cumulative ACK for it arrives, collecting any NACKs (shed
// frames, attributable by wire sequence number) delivered in between. The
// stop-and-wait discipline is the client half of the flow control story: a
// server stalled on lane backpressure simply delays the ACK, and the
// client stops producing.
//
// Self-healing: a transport failure in the middle of Flush or Finish -
// connection reset, EOF, a missed per-operation deadline against a
// half-open peer - does not surface to the caller. The client retains the
// in-flight batch, reconnects under the same session id, learns the
// server's cursor from WELCOME, rewinds the batch to that cursor (frames
// below it were already decided; resending them would only be skipped as
// duplicates) and resumes. Only fatal conditions end the operation: a
// server ERROR message, the reconnect budget, or the total deadline.
//
// Deadlines: op_deadline_ms bounds every individual blocking wait (connect,
// WELCOME, ACK) so a silently dead peer costs a bounded wait instead of
// forever; total_deadline_ms bounds one whole logical operation (Connect /
// Flush / Finish) across all its healing attempts.
//
// Resume across client objects still works as before: a new client
// constructed with the same session id and resume=true learns the server's
// cursor from WELCOME (next_seq) and re-sends from exactly there.
#ifndef NAVARCHOS_NET_INGEST_CLIENT_H_
#define NAVARCHOS_NET_INGEST_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// \brief IngestClient: self-healing stop-and-wait sender with capped
/// jittered backoff, per-operation and total deadlines, automatic
/// reconnect-and-resume, NACK collection and session resume.

namespace navarchos::net {

/// Configuration of an ingest client.
struct ClientConfig {
  /// Server IPv4 address.
  std::string host = "127.0.0.1";
  /// Server port.
  std::uint16_t port = 0;
  /// Session id; reconnects under the same id resume its cursor.
  std::string session_id = "default";
  /// Frames buffered per FRAMES batch before Flush happens implicitly.
  std::size_t batch_frames = 256;
  /// Connection attempts per dial before the dial gives up.
  int connect_attempts = 5;
  /// Backoff before the second attempt; doubles per further attempt.
  int backoff_ms = 50;
  /// Ceiling of the exponential backoff: however many attempts have
  /// failed, no single wait exceeds this (the doubling is computed in
  /// 64-bit and clamped, so it cannot overflow into a negative wait).
  int max_backoff_ms = 2000;
  /// Seed of the backoff jitter stream. Jitter decorrelates reconnect
  /// storms across clients; seeding it keeps any single client's timing
  /// reproducible. Clients sharing a seed jitter identically.
  std::uint64_t jitter_seed = 1;
  /// Bound on one TCP connect (passed to ConnectTcp); 0 waits forever.
  int connect_timeout_ms = 2000;
  /// Bound on each individual blocking wait - for WELCOME, for an ACK, for
  /// outbound bytes to drain. A breached deadline counts as a transport
  /// failure and triggers healing. 0 disables (waits forever).
  int op_deadline_ms = 0;
  /// Bound on one whole logical operation (Connect / Flush / Finish)
  /// including every healing attempt inside it. 0 disables.
  int total_deadline_ms = 0;
  /// Healing reconnects allowed per logical operation before the failure
  /// is surfaced to the caller.
  int max_reconnects = 8;
  /// Wraps each dialled socket in a Transport; null uses the plain
  /// non-blocking SocketTransport. The seam for FaultySocket in the chaos
  /// suites.
  TransportFactory transport_factory;
};

/// Counters of one client's lifetime.
struct ClientStats {
  std::uint64_t frames_sent = 0;       ///< Frames handed to Send.
  std::uint64_t batches_sent = 0;      ///< FRAMES messages written.
  std::uint64_t connect_attempts = 0;  ///< Dial attempts made.
  std::uint64_t reconnects = 0;        ///< Healing reconnects that succeeded.
};

/// Self-healing stop-and-wait ingest client. Single-threaded by design:
/// all calls must come from one thread (the ingest thread of the
/// deployment).
class IngestClient {
 public:
  /// Stores the configuration; nothing is dialled yet.
  explicit IngestClient(const ClientConfig& config);

  /// Closes the connection without FIN (like Abort).
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  /// Dials the server (bounded retry with capped jittered backoff), sends
  /// HELLO with `vehicle_ids` and `resume`, and blocks for WELCOME. On
  /// success next_seq() holds the server's cursor: the first wire sequence
  /// number this client must send. The vehicle ids are retained for
  /// healing re-HELLOs.
  util::Status Connect(const std::vector<std::int32_t>& vehicle_ids,
                       bool resume = false);

  /// Connect carrying the HELLO fleet-order tail: `fleet_order[i]` is the
  /// fleet-wide registration index of `vehicle_ids[i]` (sharded sessions;
  /// see HelloMessage::fleet_order). Sizes must match.
  util::Status Connect(const std::vector<std::int32_t>& vehicle_ids,
                       const std::vector<std::uint32_t>& fleet_order,
                       bool resume);

  /// The next wire sequence number to send: the WELCOME cursor after
  /// Connect, then advancing with every Send.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Buffers one frame under the next wire sequence number; flushes
  /// implicitly when the batch is full. An implicit flush blocks for the
  /// batch's ACK (stop-and-wait) and heals like an explicit one.
  util::Status Send(const telemetry::SensorFrame& frame);

  /// Send carrying the frame's fleet-wide sequence number (the FRAMES
  /// fleet-seq tail; sharded sessions). A session must use either the
  /// plain Send or this form throughout, never a mix.
  util::Status Send(const telemetry::SensorFrame& frame,
                    std::uint64_t fleet_seq);

  /// Shard topology the server advertised in the last WELCOME; the
  /// default (unsharded) value until a Connect succeeded.
  const ShardMapInfo& shard_map() const { return shard_map_; }

  /// Sends the buffered partial batch (if any) and blocks until its ACK
  /// arrived, collecting NACKs on the way; transparently reconnects and
  /// resumes from the server's cursor on mid-stream transport failures.
  /// No-op on an empty buffer. Exactly StartFlush() then AwaitFlush().
  util::Status Flush();

  /// Send half of Flush: moves the buffered partial batch in flight and
  /// writes it once, without waiting for its ACK, so a caller driving
  /// several sessions can have every batch on the wire before it waits
  /// for any. No-op on an empty buffer. A failed write is not reported
  /// here - AwaitFlush heals it; only a client that is not connected fails.
  /// At most one batch is in flight: call AwaitFlush before the next Send.
  util::Status StartFlush();

  /// Await half of Flush: blocks until the in-flight batch's ACK arrived,
  /// collecting NACKs; on transport failures reconnects, rewinds the batch
  /// to the server's cursor and resends it. No-op with nothing in flight.
  util::Status AwaitFlush();

  /// Flushes, sends FIN and blocks for the final ACK (healing across
  /// failures like Flush; a retransmitted FIN after a reconnect is safe -
  /// the server counts a session's finish only once), then closes the
  /// connection in an orderly way.
  util::Status Finish();

  /// Simulated crash: closes the socket immediately - no flush, no FIN.
  /// The server keeps the session cursor; a new client with resume=true
  /// picks up where the last ACKed batch ended.
  void Abort();

  /// Runs a RANK query against the server's history log, collecting every
  /// RESULT page into `out`. Works on the live ingest connection (between
  /// batches - the stop-and-wait discipline leaves the stream quiet) or,
  /// when not connected, over a short-lived dedicated connection with no
  /// HELLO (queries are stateless). Queries do not heal: a transport
  /// failure or server ERROR is surfaced directly - re-issuing a read is
  /// the caller's one-line retry.
  util::Status QueryRank(const history::RankQuery& query,
                         history::RankResult* out);

  /// Runs a TIMELINE query; same connection and failure rules as QueryRank.
  util::Status QueryTimeline(const history::TimelineQuery& query,
                             history::TimelineResult* out);

  /// Runs a COMOVE query; same connection and failure rules as QueryRank.
  util::Status QueryComove(const history::ComoveQuery& query,
                           history::ComoveResult* out);

  /// Scrapes the server's metrics: sends an empty STATS request and decodes
  /// the STATS response into `out` (snapshot plus, on sharded deployments,
  /// the shard identity tail - shard id, shard count, hash seed, and the
  /// ports of every shard, from which a scraper can dial the rest of the
  /// fleet). Same connection and failure rules as QueryRank: works on the
  /// live ingest connection between batches or over a short-lived HELLO-less
  /// dial, and does not heal.
  util::Status QueryStats(StatsMessage* out);

  /// Cumulative ACK cursor: every wire seq below it was decided.
  std::uint64_t acked_through() const { return acked_through_; }

  /// Every NACK received so far (shed frames by wire sequence number).
  const std::vector<NackMessage>& nacks() const { return nacks_; }

  /// Counter snapshot.
  const ClientStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Deadline bookkeeping of one logical operation: the total budget plus
  /// the healing-reconnect allowance.
  struct OpBudget {
    Clock::time_point total_deadline{};  ///< Zero when no total deadline.
    bool has_total = false;
    int reconnects_left = 0;
  };

  /// Opens the budget of one logical operation.
  OpBudget StartOp() const;

  /// Effective deadline of the next blocking wait: op_deadline_ms capped
  /// by what remains of the operation's total budget. Returns false when
  /// the total budget is already exhausted.
  bool NextWaitDeadline(const OpBudget& budget, int* deadline_ms) const;

  /// Capped exponential backoff with seeded jitter for retry `attempt`
  /// (0-based; attempt 0 has no wait).
  int BackoffDelayMs(int attempt);

  /// Dials + HELLOs + blocks for WELCOME within `budget`; on success the
  /// transport is live and acked_through_ holds the server's cursor
  /// (adopted into next_seq_ only when `adopt_cursor` - healing reconnects
  /// keep next_seq_, since [cursor, next_seq_) is the retained in-flight
  /// batch). `fatal` reports whether a failure should stop healing (server
  /// refused HELLO, total budget exhausted) or is worth another attempt.
  util::Status ConnectOnce(OpBudget* budget, bool resume, bool adopt_cursor,
                           bool* fatal);

  /// Sends raw bytes within the operation budget (counts as one wait).
  util::Status SendWithin(OpBudget* budget,
                          const std::vector<std::uint8_t>& bytes);

  /// Blocks for the next complete server message within one wait deadline.
  util::Status NextMessage(OpBudget* budget, WireMessage* out, bool* fatal);

  /// Rewinds inflight_ to the server's cursor and writes what remains (no
  /// write when the cursor already covers the batch).
  util::Status SendInflight(OpBudget* budget);

  /// Blocks until inflight_'s ACK, healing and resending on transport
  /// failures. `status` is the outcome of the write that preceded it.
  util::Status FlushInflight(OpBudget* budget, util::Status status);

  /// Blocks until the cursor covers `target`, collecting NACKs; fails on
  /// ERROR messages (fatal), EOF, transport errors or a missed deadline
  /// (recoverable). With `require_ack_message` an ACK covering `target`
  /// must actually arrive on this connection - cursor coverage inherited
  /// from a WELCOME is not enough (the FIN case).
  util::Status AwaitAck(OpBudget* budget, std::uint64_t target,
                        bool require_ack_message, bool* fatal);

  /// Reconnects under the operation budget and rewinds `inflight_` to the
  /// server's WELCOME cursor. Returns false (with `*status` set) when
  /// healing is no longer possible: budget or reconnect cap exhausted,
  /// or the server refused the resume.
  bool Heal(OpBudget* budget, util::Status* status);

  /// Sends one QUERY and collects its RESULT pages in order (dialling a
  /// dedicated HELLO-less connection first when none is live). The shared
  /// engine under the three Query* calls.
  util::Status RunQuery(const QueryMessage& query,
                        std::vector<ResultMessage>* pages);

  const ClientConfig config_;
  std::unique_ptr<Transport> transport_;
  MessageReader reader_;
  FramesMessage pending_;   ///< The batch being built.
  FramesMessage inflight_;  ///< The batch being flushed; retained for healing.
  OpBudget flush_budget_;   ///< Budget of the flush inflight_ belongs to.
  util::Status flush_send_status_;  ///< Outcome of StartFlush's write.
  std::vector<std::int32_t> vehicle_ids_;  ///< Retained for healing re-HELLOs.
  std::vector<std::uint32_t> fleet_order_;  ///< HELLO tail; parallel to ids.
  ShardMapInfo shard_map_;  ///< From the last WELCOME (unsharded default).
  bool connected_once_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_through_ = 0;
  std::vector<NackMessage> nacks_;
  ClientStats stats_;
  util::Rng backoff_rng_;
};

}  // namespace navarchos::net

#endif  // NAVARCHOS_NET_INGEST_CLIENT_H_
