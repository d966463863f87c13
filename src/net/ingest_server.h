// Poll-based TCP ingest front end of the streaming fleet service.
//
// IngestServer accepts connections on one listening socket, reassembles
// wire messages per connection, and feeds decoded SensorFrames into a
// borrowed service::FleetService - turning the in-process ingest API into
// a network-facing one without changing any monitoring semantics.
//
// Determinism: the server runs ONE serving thread, so all admissions
// happen in wire-arrival order - exactly the single-ingest-thread
// deployment the FleetService determinism contract is defined over. A
// fleet streamed over loopback therefore produces output bit-identical to
// the in-process run at any worker thread count.
//
// Backpressure: when a vehicle's lane is full under kBlock, the Ingest
// call blocks the serving thread; the server stops reading, the kernel
// socket buffers fill, and the client's send stalls - lane backpressure
// becomes TCP backpressure with no extra machinery. Under kReject the
// shed is surfaced immediately as a NACK carrying the frame's wire
// sequence number, so the client can attribute every lost frame.
//
// Self-defence against hostile peers: all outbound traffic goes through a
// per-connection bounded non-blocking queue, so a client that never reads
// can no longer wedge the serving thread inside a blocking send - once its
// queue exceeds max_outbound_bytes it is disconnected as a slow consumer.
// Poll-driven idle deadlines reap connections whose peers died half-open
// (no FIN, no RST, just silence), releasing their session bindings for a
// clean reconnect; session retention GC expires abandoned cursors so
// sessions_ cannot grow without bound. Every defence is observable:
// ServerStats counts slow-consumer disconnects, idle reaps and expired
// sessions exactly.
//
// Resume: sessions are keyed by the HELLO session id and survive
// disconnects. The server tracks the next undecided wire sequence number
// per session; a reconnecting client is WELCOMEd with that cursor and
// re-sends from there, while anything below the cursor (overlap from a
// cut batch) is skipped as a duplicate - every frame is admitted exactly
// once, wherever the previous connection died.
#ifndef NAVARCHOS_NET_INGEST_SERVER_H_
#define NAVARCHOS_NET_INGEST_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "history/history_service.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "service/fleet_service.h"
#include "util/status.h"

/// \file
/// \brief IngestServer: the poll-based TCP acceptor that feeds a
/// FleetService, with NACK shed reporting, TCP-level backpressure,
/// per-session resume cursors, bounded outbound queues (slow-consumer
/// disconnection), idle reaping of half-open peers and session GC.

namespace navarchos::net {

/// Configuration of an ingest server.
struct ServerConfig {
  /// Address to bind; loopback by default (the quickstart deployment).
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  /// Connections above this are accepted and immediately refused with an
  /// ERROR message.
  std::size_t max_connections = 64;
  /// Bound on one connection's queued-but-unsent outbound bytes. A peer
  /// that stops reading while the server still owes it ACKs/NACKs crosses
  /// this bound and is disconnected as a slow consumer instead of wedging
  /// the serving thread in a blocking send.
  std::size_t max_outbound_bytes = 256 * 1024;
  /// >0: connections with no transport activity (no bytes in, no flush
  /// progress out) for this long are reaped - the only way a silently
  /// dead half-open peer ever frees its connection and session binding.
  /// 0 disables reaping.
  int idle_timeout_ms = 0;
  /// >0: sessions that are unbound (no live connection) for this long are
  /// garbage-collected, cursor included, and counted in sessions_expired.
  /// Must exceed the longest disconnect a client may RESUME across: a
  /// client resuming an expired session restarts from cursor 0. 0 keeps
  /// sessions forever.
  int session_retention_ms = 0;
  /// Wraps each accepted socket in a Transport; null uses the plain
  /// non-blocking SocketTransport. The seam for FaultySocket in the chaos
  /// suites.
  TransportFactory transport_factory;
  /// History log served for QUERY messages (borrowed; must outlive the
  /// server). Null refuses every QUERY with a clean protocol ERROR - the
  /// front end then serves ingest only.
  history::HistoryService* history = nullptr;
  /// Sharded serving only: called from the serving thread for each vehicle
  /// a HELLO registers with a declared fleet-wide registration index (the
  /// HELLO fleet-order tail). A shard group uses it to place the vehicle
  /// in the fleet-wide flush order. When the peer sent no tail (a
  /// pre-shard-map client) the shard-local lane index is reported instead
  /// - the identity mapping, correct on the single-shard fleets such peers
  /// are limited to. Null ignores registrations entirely.
  std::function<void(std::int32_t vehicle_id, std::uint32_t fleet_order)>
      registration_hook;
};

/// Counters of one server's lifetime; exact snapshots at any time.
///
/// Reset semantics: counters survive Stop()/Start() cycles and the served
/// service's Drain(); they are zeroed only by constructing a fresh server.
/// The values are views over `server.*` counters in the served service's
/// obs::MetricsRegistry - the single source of truth, so a wire-scraped
/// StatsSnapshot and this struct can never disagree.
///
/// Scrape self-invisibility (what makes a post-drain wire scrape equal the
/// in-process aggregate): `connections_accepted` counts a connection at
/// its first non-STATS message, not at accept time, so a scrape-only dial
/// is never counted; `stats_served` is incremented after the snapshot it
/// answers with was taken; and the session byte counters exclude
/// QUERY/RESULT/STATS traffic entirely.
struct ServerStats {
  /// Connections that spoke at least one non-STATS message (see above; a
  /// connection refused over max_connections is not counted either).
  std::uint64_t connections_accepted = 0;
  std::uint64_t sessions_started = 0;      ///< Distinct HELLO session ids.
  std::uint64_t resumes = 0;               ///< HELLOs onto a known session.
  std::uint64_t frames_received = 0;       ///< Frames decoded off the wire.
  std::uint64_t frames_admitted = 0;       ///< Accepted by the service.
  std::uint64_t frames_shed = 0;           ///< NACKed back to the client.
  std::uint64_t duplicates_skipped = 0;    ///< Below a resume cursor.
  std::uint64_t protocol_errors = 0;       ///< Connections dropped on ERROR.
  std::uint64_t slow_consumer_disconnects = 0;  ///< Outbound bound exceeded.
  std::uint64_t idle_reaps = 0;            ///< Idle-deadline disconnections.
  std::uint64_t sessions_expired = 0;      ///< Retention-GCed sessions.
  std::uint64_t queries_served = 0;        ///< QUERYs answered with RESULTs.
  std::uint64_t stats_served = 0;          ///< STATS scrapes answered.
  /// Framed bytes of session-path messages (HELLO/FRAMES/FIN/ERROR in,
  /// WELCOME/ACK/NACK/ERROR out), frame overhead included. QUERY/RESULT
  /// and STATS traffic is excluded so reads never perturb the counters
  /// they report.
  std::uint64_t session_bytes_in = 0;
  std::uint64_t session_bytes_out = 0;
};

/// TCP front end feeding one FleetService. Lifecycle:
///
/// \code
///   service::FleetService svc(config);
///   net::IngestServer server(&svc, {});
///   NAVARCHOS_CHECK(server.Start().ok());
///   ... clients stream; server.WaitForFinishedSessions(1) ...
///   server.Stop();
///   svc.Drain();
/// \endcode
///
/// Threading: Start spawns the single serving thread; Start/Stop/stats and
/// the waits may be called from any other thread. The served FleetService
/// must outlive the server and is fed only from the serving thread.
class IngestServer {
 public:
  /// Binds nothing yet; `service` is borrowed and must outlive the server.
  IngestServer(service::FleetService* service, const ServerConfig& config);

  /// Stops the serving thread (if running) and closes every socket.
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds the configured address and spawns the serving thread. Errors
  /// (address in use, invalid address) are returned, not thrown.
  util::Status Start();

  /// Wakes the serving thread, joins it, and closes all sockets. Returns
  /// promptly even when the serving thread is blocked inside a kBlock-lane
  /// Ingest: the stop flag is polled per admitted frame, so the thread
  /// abandons the remaining backlog (those frames stay below the resume
  /// cursor and are simply re-requested later). Sessions' cursors are kept
  /// (a later Start on the same server object resumes them). Idempotent.
  void Stop();

  /// Port actually bound (meaningful after a successful Start).
  std::uint16_t port() const;

  /// Installs the shard topology this server advertises in every WELCOME.
  /// A shard group sets it after all shards bound their listeners (the map
  /// needs every port); until then WELCOMEs advertise the unsharded
  /// default. Thread-safe against the serving thread.
  void set_shard_map(const ShardMapInfo& map);

  /// Installs the shard id this server reports in STATS response tails
  /// (meaningful only alongside a sharded set_shard_map; 0, the default,
  /// is what an unsharded server reports). Thread-safe.
  void set_shard_id(std::uint32_t shard_id);

  /// Counter snapshot; thread-safe at any time.
  ServerStats stats() const;

  /// Number of sessions that ended with FIN so far.
  std::uint64_t finished_sessions() const;

  /// Blocks until at least `count` sessions finished with FIN, or until
  /// `timeout_ms` elapsed (0 waits forever). Returns whether the count was
  /// reached.
  bool WaitForFinishedSessions(std::uint64_t count, std::int64_t timeout_ms = 0);

 private:
  using Clock = std::chrono::steady_clock;

  /// One client session, keyed by HELLO session id; survives disconnects.
  struct Session {
    std::uint64_t next_expected = 0;  ///< First undecided wire seq.
    std::uint64_t sheds = 0;          ///< NACKs sent so far.
    bool finished = false;            ///< FIN received.
    /// A live connection currently owns this session. A second HELLO for a
    /// bound session is refused - two connections interleaving one cursor
    /// would break the exactly-once admission contract.
    bool bound = false;
    /// When the session last lost its connection; the retention GC clock.
    Clock::time_point last_unbound{};
  };

  /// One live connection and its reassembly state.
  struct Connection {
    std::unique_ptr<Transport> transport;
    MessageReader reader;
    Session* session = nullptr;  ///< Set by HELLO; owns session->bound.
    /// Queued-but-unsent outbound bytes ([outbound_off, outbound.size())).
    std::vector<std::uint8_t> outbound;
    std::size_t outbound_off = 0;
    bool draining = false;  ///< Graceful close: flush outbound, read no more.
    bool closing = false;   ///< Marked for removal after this cycle.
    /// Already counted in `server.connections_accepted` (lazily, at the
    /// connection's first non-STATS message - scrape-only dials stay
    /// invisible to the counters they read).
    bool counted_accept = false;
    Clock::time_point last_activity{};  ///< Last byte moved either way.

    /// Unsent outbound bytes still owed to the peer.
    std::size_t OutboundPending() const { return outbound.size() - outbound_off; }

    /// Unbinds the session on destruction (covers Stop(), where live
    /// connections are dropped without passing through a close path).
    ~Connection() {
      if (session != nullptr) {
        session->bound = false;
        session->last_unbound = Clock::now();
      }
    }
  };

  /// Serving-thread main loop: poll over wake pipe + listener + conns.
  void Serve();

  /// Handles readable bytes on `conn`; returns false when the connection
  /// must be closed gracefully (protocol error, FIN).
  bool HandleReadable(Connection* conn);

  /// Dispatches one reassembled message; returns false to close.
  bool HandleMessage(Connection* conn, const WireMessage& message);

  /// Runs a decoded QUERY against the configured history service and
  /// queues its paginated RESULT pages; returns false to close.
  bool HandleQuery(Connection* conn, const QueryMessage& query);

  /// Answers a STATS request: snapshots the served service's registry and
  /// queues the response (with the shard identity tail when sharded). The
  /// scrape counter is bumped only after the snapshot was taken, so a
  /// scrape never sees itself. Returns false to close.
  bool HandleStats(Connection* conn, const WireMessage& message);

  /// Queues `bytes` for non-blocking delivery to `conn`, flushing
  /// opportunistically; disconnects the peer as a slow consumer when its
  /// pending outbound crosses the configured bound.
  void QueueBytes(Connection* conn, const std::vector<std::uint8_t>& bytes);

  /// Writes as much pending outbound as the transport accepts right now.
  void FlushOutbound(Connection* conn);

  /// Graceful close: release the session binding, stop reading, keep the
  /// connection until its outbound (final ACK / ERROR) drained.
  void CloseGracefully(Connection* conn);

  /// Hard close: release the session binding and drop the connection at
  /// the end of this poll cycle, owed bytes included.
  void CloseNow(Connection* conn);

  /// Releases `conn`'s session binding (idempotent), stamping the
  /// session's retention clock.
  void UnbindSession(Connection* conn);

  /// Sends an ERROR frame (best effort) and counts the violation.
  void FailConnection(Connection* conn, const std::string& message);

  /// Poll timeout honouring the next idle/retention deadline (-1 when
  /// neither defence is enabled).
  int PollTimeoutMs() const;

  /// Reaps idle connections and expires unbound sessions past retention.
  void ReapIdleAndExpireSessions();

  service::FleetService* const service_;
  const ServerConfig config_;

  Listener listener_;
  std::thread thread_;
  int wake_pipe_[2] = {-1, -1};  ///< Self-pipe waking poll() for Stop().
  bool running_ = false;         ///< Guarded by mu_.
  /// Stop() latch, polled lock-free per admitted frame so the serving
  /// thread leaves even mid-backlog under kBlock lane backpressure.
  std::atomic<bool> stop_requested_{false};

  mutable std::mutex mu_;
  std::condition_variable finished_cv_;
  ShardMapInfo shard_map_;            ///< Advertised in WELCOME; by mu_.
  std::uint32_t shard_id_ = 0;        ///< Reported in STATS tails; by mu_.
  std::uint64_t finished_sessions_ = 0;  ///< Guarded by mu_.

  /// The `server.*` counters, registered in the served service's registry
  /// at construction (the single source of truth behind stats()). Two
  /// servers fronting one service would share and therefore aggregate
  /// these - by design, the registry is per service.
  struct Counters {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* sessions_started = nullptr;
    obs::Counter* resumes = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* frames_admitted = nullptr;
    obs::Counter* frames_shed = nullptr;
    obs::Counter* duplicates_skipped = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* slow_consumer_disconnects = nullptr;
    obs::Counter* idle_reaps = nullptr;
    obs::Counter* sessions_expired = nullptr;
    obs::Counter* queries_served = nullptr;
    obs::Counter* stats_served = nullptr;
    obs::Counter* session_bytes_in = nullptr;
    obs::Counter* session_bytes_out = nullptr;
  };
  Counters counters_;

  /// Sessions by id; touched only by the serving thread while it runs,
  /// and by Start/Stop while it does not.
  std::map<std::string, Session> sessions_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace navarchos::net

#endif  // NAVARCHOS_NET_INGEST_SERVER_H_
