// Binary wire protocol of the network ingest front end.
//
// A connection carries a stream of length-prefixed, CRC-checksummed
// messages. Every message is framed identically:
//
//   offset 0  magic    u32 LE   kWireMagic ("NWP1") - desync tripwire
//   offset 4  type     u8       MessageType
//   offset 5  length   u32 LE   payload bytes (<= kMaxPayloadBytes)
//   offset 9  payload  length bytes (persist::Encoder encoding)
//   then      crc32    u32 LE   CRC32 over type byte + length field + payload
//
// The CRC covers the type and length as well as the payload, so a flipped
// header byte is caught even when the payload survives intact; the magic is
// outside the CRC but any flip there fails the magic check first. Payloads
// reuse the bounds-checked persist::Encoder/Decoder codecs, so the decoder
// robustness contract of the persistence layer (no crash, no unbounded
// allocation on any input) extends to every byte that arrives off the wire.
//
// Protocol flow (client -> server unless noted):
//   HELLO    session id, resume flag, vehicle registration list
//   WELCOME  (server) next expected wire sequence number for the session
//   FRAMES   a batch of SensorFrames, first_seq + count (stop-and-wait:
//            the client sends the next batch only after the ACK)
//   ACK      (server) cumulative: every wire seq < through_seq was decided
//   NACK     (server) one shed frame, attributable by wire seq
//   FIN      end of stream; the server acks and closes
//   ERROR    protocol violation, either direction; the connection closes
//   QUERY    a history query (RANK / TIMELINE / COMOVE); needs no session
//   RESULT   (server) one page of a query's result; `last` ends the reply
//   STATS    stats scrape, both directions: an empty payload asks, a
//            non-empty one answers with the shard's metrics snapshot
//            (stateless like QUERY - no session required)
//
// Wire sequence numbers count the frames of one session in submission
// order, across reconnects: a client that reconnects RESUMEs from the
// WELCOME cursor, so the server admits every frame exactly once no matter
// where the previous connection was cut.
//
// Version-1 extension rule (how sharding fields ride along without a
// version bump): a payload may grow an OPTIONAL TAIL - extra fields
// appended after the original encoding, encoded only when they differ
// from their defaults, and decoded only when payload bytes remain. A
// default-valued message therefore encodes byte-identically to the
// pre-tail protocol, and a pre-tail peer decodes it unchanged (decoders
// demand exact consumption, so a tail sent to an old peer fails loudly
// rather than being silently dropped). The normative byte layout of every
// message, tails included, is specified in docs/WIRE_PROTOCOL.md.
#ifndef NAVARCHOS_NET_WIRE_H_
#define NAVARCHOS_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "history/history_log.h"
#include "history/query.h"
#include "obs/metrics.h"
#include "persist/codec.h"
#include "telemetry/stream.h"
#include "util/status.h"

/// \file
/// \brief Wire protocol of the network ingest front end: message framing
/// with per-message CRC32, typed control/data messages, SensorFrame codecs
/// and the incremental MessageReader used by both peers.

/// \namespace navarchos::net
/// \brief The network ingest front end: binary wire protocol, the
/// poll-based IngestServer that feeds a FleetService over TCP, and the
/// blocking IngestClient with bounded retry and session resume.

namespace navarchos::net {

/// Frame magic ("NWP1" little-endian) leading every wire message.
inline constexpr std::uint32_t kWireMagic = 0x3150574Eu;

/// Protocol version negotiated in HELLO; bumped on any incompatible change.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on one message's payload, enforced before any allocation on
/// both the encode and decode paths.
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{4} << 20;

/// Bytes of framing around a payload (magic + type + length + crc32).
inline constexpr std::size_t kFrameOverheadBytes = 4 + 1 + 4 + 4;

/// Message discriminator on the wire.
enum class MessageType : std::uint8_t {
  kHello = 1,    ///< Client opens (or resumes) a session.
  kWelcome = 2,  ///< Server answers HELLO with the session's resume cursor.
  kFrames = 3,   ///< Client ships a batch of SensorFrames.
  kAck = 4,      ///< Server acknowledges every wire seq below a cursor.
  kNack = 5,     ///< Server reports one shed frame by wire seq.
  kFin = 6,      ///< Client ends the stream.
  kError = 7,    ///< Protocol violation; sender closes after this.
  kQuery = 8,    ///< Client asks a history query (no session required).
  kResult = 9,   ///< Server returns one page of a query result.
  kStats = 10,   ///< Stats scrape: empty payload = request, else response.
};

/// Reason a frame was shed, carried in a NACK.
enum class NackCode : std::uint8_t {
  kQueueFull = 1,  ///< The vehicle's ingest lane was full (kReject policy).
  kDraining = 2,   ///< The service was already draining.
};

/// HELLO payload: opens a session (or resumes one after a disconnect).
struct HelloMessage {
  /// Protocol version of the client; the server rejects mismatches.
  std::uint32_t protocol_version = kProtocolVersion;
  /// Stable session name; reconnects with the same id resume its cursor.
  std::string session_id;
  /// True when the client expects an existing session (reconnect). Purely
  /// diagnostic: the WELCOME cursor is authoritative either way.
  bool resume = false;
  /// Vehicles to register, in registration order (fixes the lane order of
  /// the serving FleetService, hence result index alignment).
  std::vector<std::int32_t> vehicle_ids;
  /// Optional tail (sharded sessions only): fleet-wide registration index
  /// of each vehicle in `vehicle_ids`, parallel to it. A sharded client
  /// tells each shard where its vehicles sit in the fleet-wide order, so
  /// the shard's end-of-stream flush records can be merged back into one
  /// fleet order. Empty (the default) encodes byte-identically to the
  /// pre-shard protocol.
  std::vector<std::uint32_t> fleet_order;
};

/// Shard topology advertised in a WELCOME (optional payload tail).
///
/// A fleet may be served by N in-process shards, each with its own
/// listener. Any shard's WELCOME advertises the full map; the client
/// re-routes each vehicle to `ports[ShardMap(shard_count, hash_seed)
/// .ShardOf(vehicle_id)]` (see src/shard/shard_router.h for the hash).
/// The default-constructed value means "unsharded" and encodes to zero
/// bytes, so single-shard WELCOMEs are byte-identical to the pre-shard
/// protocol and old clients parse them unchanged.
struct ShardMapInfo {
  /// Number of shards (1 = unsharded, the default).
  std::uint32_t shard_count = 1;
  /// Seed of the consistent-hash ring (must match across client/server).
  std::uint64_t hash_seed = 0;
  /// TCP port of each shard's listener, indexed by shard id. Empty when
  /// unsharded; otherwise size() == shard_count.
  std::vector<std::uint16_t> ports;

  /// True when this is the default "unsharded" topology.
  bool unsharded() const {
    return shard_count == 1 && hash_seed == 0 && ports.empty();
  }
};

/// WELCOME payload: the server's answer to HELLO.
struct WelcomeMessage {
  /// First wire sequence number the server has not yet decided; the client
  /// (re)starts streaming from exactly here.
  std::uint64_t next_seq = 0;
  /// Shard topology (optional tail; absent == unsharded). See ShardMapInfo.
  ShardMapInfo shard_map;
};

/// FRAMES payload: one batch of consecutive frames.
struct FramesMessage {
  /// Wire sequence number of frames[0]; frame i carries first_seq + i.
  std::uint64_t first_seq = 0;
  /// The batch, in submission order.
  std::vector<telemetry::SensorFrame> frames;
  /// Optional tail (sharded sessions only): fleet-wide sequence number of
  /// each frame, parallel to `frames`. A sharded client assigns fleet
  /// sequence numbers at submission time and carries them to each shard,
  /// and each shard releases its frames under them through the group's one
  /// ordered sink: the fleet-wide total order. Empty (the default)
  /// encodes byte-identically to the pre-shard protocol.
  std::vector<std::uint64_t> fleet_seqs;
};

/// ACK payload: cumulative acknowledgement.
struct AckMessage {
  /// Every wire sequence number < through_seq has been decided (admitted
  /// or shed); the client may discard its copies below this cursor.
  std::uint64_t through_seq = 0;
  /// Total frames the session has shed so far (NACK count).
  std::uint64_t sheds = 0;
};

/// NACK payload: one shed frame, attributable by sequence number.
struct NackMessage {
  std::uint64_t seq = 0;        ///< Wire sequence number of the shed frame.
  std::int32_t vehicle_id = 0;  ///< Vehicle the frame belonged to.
  NackCode code = NackCode::kQueueFull;  ///< Why it was shed.
};

/// FIN payload: graceful end of stream.
struct FinMessage {
  /// Total frames the session streamed (the expected final ACK cursor).
  std::uint64_t total_seq = 0;
};

/// ERROR payload: human-readable protocol violation report.
struct ErrorMessage {
  std::string message;  ///< What went wrong, for logs and Status values.
};

/// Which history query a QUERY message carries.
enum class QueryKind : std::uint8_t {
  kRank = 1,      ///< Rank the fleet by severity over a window.
  kTimeline = 2,  ///< One vehicle's score/alarm series.
  kComove = 3,    ///< Channels that co-moved around one alarm.
};

/// Entries a RESULT page carries at most; a larger result is split into
/// consecutive pages (all but the final one with `last == false`), which
/// keeps every page far below kMaxPayloadBytes.
inline constexpr std::size_t kMaxResultEntriesPerPage = 512;

/// QUERY payload: a tagged union over the three history query shapes (only
/// the member selected by `kind` is encoded on the wire). Queries need no
/// HELLO/session - reads are stateless.
struct QueryMessage {
  QueryKind kind = QueryKind::kRank;   ///< Which query this is.
  history::RankQuery rank;             ///< Parameters when kind == kRank.
  history::TimelineQuery timeline;     ///< ... when kind == kTimeline.
  history::ComoveQuery comove;         ///< ... when kind == kComove.
};

/// RESULT payload: one page of a query's answer. Pages arrive in order
/// (page 0, 1, ...) and the reply ends with the page whose `last` is true;
/// a failed query is answered with ERROR instead.
struct ResultMessage {
  QueryKind kind = QueryKind::kRank;  ///< Query this page answers.
  std::uint32_t page = 0;             ///< Page index within the reply.
  bool last = true;                   ///< True on the reply's final page.
  /// RANK entries of this page (kind == kRank).
  std::vector<history::RankEntry> rank_entries;
  /// TIMELINE records of this page (kind == kTimeline).
  std::vector<history::HistoryRecord> timeline_records;
  /// COMOVE anchor (kind == kComove; repeated on every page).
  std::int32_t comove_vehicle_id = 0;
  std::int64_t comove_alarm_ts = 0;   ///< Timestamp of the COMOVE anchor.
  /// COMOVE entries of this page (kind == kComove).
  std::vector<history::ComoveEntry> comove_entries;
};

/// STATS response payload: one shard's point-in-time metrics snapshot.
///
/// The request direction is an *empty* STATS payload (a snapshot always
/// encodes to at least its version field, so the two directions cannot be
/// confused). Like QUERY, STATS needs no HELLO/session. The response may
/// carry an optional tail - the answering shard's id plus the full shard
/// map, encoded only for sharded topologies - so a scraper that knows one
/// port can discover and scrape every shard of the fleet.
struct StatsMessage {
  /// The shard's metrics snapshot (see obs::MetricsRegistry::Snapshot).
  obs::StatsSnapshot snapshot;
  /// Optional tail: id of the answering shard (0 when unsharded).
  std::uint32_t shard_id = 0;
  /// Optional tail: shard topology, same encoding as the WELCOME tail.
  ShardMapInfo shard_map;
};

/// One reassembled wire message: its type and raw (CRC-verified) payload.
struct WireMessage {
  MessageType type = MessageType::kError;  ///< Frame type byte.
  std::vector<std::uint8_t> payload;       ///< Verified payload bytes.
};

// ------------------------------------------------------------ frame codecs

/// Appends `frame` to `encoder` (kind tag, then the record or event).
void EncodeSensorFrame(persist::Encoder& encoder,
                       const telemetry::SensorFrame& frame);

/// Decodes one SensorFrame; returns false (with the decoder failed) on any
/// malformed input - unknown kind or event type included.
bool DecodeSensorFrame(persist::Decoder& decoder, telemetry::SensorFrame* frame);

// ---------------------------------------------------------- message codecs

/// Frames `payload` of `type` into the full wire form (magic, header,
/// payload, CRC32). Payloads above kMaxPayloadBytes are a programming
/// error.
std::vector<std::uint8_t> EncodeFrame(MessageType type,
                                      const std::vector<std::uint8_t>& payload);

/// Encodes a HELLO into its full wire form.
std::vector<std::uint8_t> EncodeHello(const HelloMessage& message);
/// Encodes a WELCOME into its full wire form.
std::vector<std::uint8_t> EncodeWelcome(const WelcomeMessage& message);
/// Encodes a FRAMES batch into its full wire form.
std::vector<std::uint8_t> EncodeFrames(const FramesMessage& message);
/// Encodes an ACK into its full wire form.
std::vector<std::uint8_t> EncodeAck(const AckMessage& message);
/// Encodes a NACK into its full wire form.
std::vector<std::uint8_t> EncodeNack(const NackMessage& message);
/// Encodes a FIN into its full wire form.
std::vector<std::uint8_t> EncodeFin(const FinMessage& message);
/// Encodes an ERROR into its full wire form.
std::vector<std::uint8_t> EncodeError(const ErrorMessage& message);
/// Encodes a QUERY into its full wire form.
std::vector<std::uint8_t> EncodeQuery(const QueryMessage& message);
/// Encodes one RESULT page into its full wire form.
std::vector<std::uint8_t> EncodeResult(const ResultMessage& message);
/// Encodes a STATS request (empty payload) into its full wire form.
std::vector<std::uint8_t> EncodeStatsRequest();
/// Encodes a STATS response into its full wire form.
std::vector<std::uint8_t> EncodeStatsResponse(const StatsMessage& message);

/// Decodes a HELLO payload (as delivered by MessageReader).
util::Status DecodeHello(const std::vector<std::uint8_t>& payload,
                         HelloMessage* out);
/// Decodes a WELCOME payload.
util::Status DecodeWelcome(const std::vector<std::uint8_t>& payload,
                           WelcomeMessage* out);
/// Decodes a FRAMES payload.
util::Status DecodeFrames(const std::vector<std::uint8_t>& payload,
                          FramesMessage* out);
/// Decodes an ACK payload.
util::Status DecodeAck(const std::vector<std::uint8_t>& payload, AckMessage* out);
/// Decodes a NACK payload.
util::Status DecodeNack(const std::vector<std::uint8_t>& payload,
                        NackMessage* out);
/// Decodes a FIN payload.
util::Status DecodeFin(const std::vector<std::uint8_t>& payload, FinMessage* out);
/// Decodes an ERROR payload.
util::Status DecodeError(const std::vector<std::uint8_t>& payload,
                         ErrorMessage* out);
/// Decodes a QUERY payload.
util::Status DecodeQuery(const std::vector<std::uint8_t>& payload,
                         QueryMessage* out);
/// Decodes a RESULT payload.
util::Status DecodeResult(const std::vector<std::uint8_t>& payload,
                          ResultMessage* out);
/// Decodes a STATS response payload. An empty payload is a *request*, not
/// a response, and is rejected; callers distinguish the directions by
/// payload emptiness before decoding.
util::Status DecodeStatsResponse(const std::vector<std::uint8_t>& payload,
                                 StatsMessage* out);

// --------------------------------------------------------- stream reassembly

/// Incremental reassembler of wire messages from a TCP byte stream.
///
/// Both peers feed every received chunk through Append and then drain
/// complete messages with Next. The reader verifies magic, type, the
/// payload-length bound and the CRC32 before exposing any payload; the
/// first violation latches an error (the connection must be dropped - a
/// byte stream that framed one bad message cannot be resynchronised).
class MessageReader {
 public:
  /// Outcome of one Next() call.
  enum class Result {
    kMessage,   ///< `*out` holds the next complete, CRC-verified message.
    kNeedMore,  ///< The buffer holds no complete message yet.
    kError,     ///< The stream is corrupt; error() describes the violation.
  };

  /// Appends `size` received bytes to the reassembly buffer.
  void Append(const std::uint8_t* data, std::size_t size);

  /// Extracts the next complete message, if any. After kError every further
  /// call returns kError.
  Result Next(WireMessage* out);

  /// Description of the first framing violation; empty until one occurs.
  const std::string& error() const { return error_; }

  /// Bytes currently buffered (incomplete trailing message).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already handed out.
  std::string error_;
};

/// Human-readable name of a message type ("HELLO", "FRAMES", ...).
const char* MessageTypeName(MessageType type);

/// Human-readable name of a query kind ("RANK", "TIMELINE", "COMOVE").
const char* QueryKindName(QueryKind kind);

}  // namespace navarchos::net

#endif  // NAVARCHOS_NET_WIRE_H_
