// Append-only per-vehicle anomaly history log.
//
// The streaming service scores every live frame, but those scores used to
// leave through the ordered sink and vanish. The history log is the durable
// substrate underneath fleet-level triage ("which vehicles look worst this
// week", "what co-moved around this alarm"): one compact record per scored
// sample, appended in the deterministic OrderedSink release order, stored
// in fixed-size CRC-checked segments that survive a kill -9 mid-write.
//
// On-disk layout (one directory per log):
//
//   v<ID>_<ORDINAL>.hseg   sealed segment (immutable, strict CRC on read)
//   v<ID>_<ORDINAL>.part   the vehicle's active tail segment (append-only)
//
// Segment format (persist::Encoder little-endian encoding throughout):
//
//   header   magic "NHS1" u32 | version u32 | vehicle i32 |
//            base_seq u64 | base_ts i64 | crc32(header bytes) u32
//   block*   length u32 | payload | crc32(payload) u32
//   payload  count u32 | count x record
//   record   dseq u64 | dts i64 | score f64 | threshold f64 | flags u8 |
//            k x channel u32       (k = flags >> 1, alarm bit = flags & 1)
//
// Version-2 segments append a consensus tail to every record:
//
//   record   ... | votes_plus1 u8 | live u8
//
// votes_plus1 is 0 when the sample carried no ensemble verdict and
// votes + 1 otherwise (both fields saturate at 255). Readers accept both
// versions; version-1 records decode with votes = -1, live = 0.
//
// dseq/dts are deltas against the previous record of the segment (the
// header's base for the first one); the delta chain runs across blocks,
// which is safe because only the final block of the active tail can ever
// be torn. Each block is written with a single write() call after its CRC
// is computed, so a crash leaves at most one torn block at the very end of
// one .part file. Readers verify every block CRC: a torn tail block is
// detected, reported, and truncated - never silently served. Sealing is
// atomic via the snapshot temp-file+rename pattern: the segment's bytes
// (mirrored in memory while the .part grows) are rewritten to a temp file,
// renamed to .hseg, and the .part unlinked; a crash between rename and
// unlink leaves both, and the reader/writer prefer the sealed twin.
//
// Idempotent re-append: records carry the admitting frame's global
// sequence number, and several records may share one (a frame can release
// multiple reorder-buffered samples). The writer tracks the last
// (global_seq, sub-index) pair per vehicle - recovered from disk on Open -
// and silently skips re-appends at or below it, so a restored service
// replaying from its checkpoint regenerates the byte-identical records
// without ever duplicating a line of history.
//
// Index: the writer keeps a HistoryIndex current as blocks reach the log
// (Open rebuilds it from the records it decodes anyway). Per vehicle it
// holds RANK's whole-log fold, one summary per segment and the positions of
// alarmed records - never a decoded record. The active tail's bytes are the
// in-memory mirror the writer already keeps, so a query decodes at most
// that tail plus the sealed segments its range overlaps.
#ifndef NAVARCHOS_HISTORY_HISTORY_LOG_H_
#define NAVARCHOS_HISTORY_HISTORY_LOG_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// \brief Append-only per-vehicle anomaly history log: CRC'd delta-encoded
/// segments with torn-tail recovery, an idempotent HistoryWriter that keeps
/// a per-vehicle HistoryIndex, and the HistoryReader that scans a log
/// directory back into records.

/// \namespace navarchos::history
/// \brief The anomaly history subsystem: durable per-vehicle score/alarm
/// logs on the persist codecs plus the query engine (RANK / TIMELINE /
/// COMOVE) that turns them into fleet-level triage answers.

namespace navarchos::history {

/// Magic leading every history segment ("NHS1" little-endian).
inline constexpr std::uint32_t kSegmentMagic = 0x3153484Eu;

/// Base layout version of the segment format (records without the consensus
/// tail). Still written for streams that never carry ensemble votes, so an
/// ensemble-disabled run produces byte-identical logs to older builds.
inline constexpr std::uint32_t kSegmentVersion = 1;

/// Segment version whose records end with a two-byte consensus tail
/// (votes_plus1 u8 | live u8). Readers accept both versions; the writer
/// picks per segment from the first record it sees.
inline constexpr std::uint32_t kSegmentVersionVotes = 2;

/// Encoded size of a segment header (magic, version, vehicle, base_seq,
/// base_ts, header CRC).
inline constexpr std::size_t kSegmentHeaderBytes = 4 + 4 + 4 + 8 + 8 + 4;

/// Upper bound on one block's payload; a length field above this in a tail
/// segment is treated as torn garbage, not an allocation request.
inline constexpr std::size_t kMaxBlockBytes = std::size_t{8} << 20;

/// Most contributing channels a record can carry (flags packs k into 7
/// bits).
inline constexpr std::size_t kMaxTopChannels = 127;

/// One scored sample as logged: the anomaly bit and severity of one frame
/// release, attributable to its admitting global sequence number.
struct HistoryRecord {
  std::int32_t vehicle_id = 0;   ///< Vehicle the sample belongs to.
  std::uint64_t global_seq = 0;  ///< Admitting frame's global ingest seq.
  std::int64_t timestamp = 0;    ///< Stream time (minutes) of the sample.
  double score = 0.0;            ///< Score of the worst channel.
  double threshold = 0.0;        ///< Threshold of the worst channel.
  bool alarm = false;            ///< True when this sample raised an alarm.
  /// Contributing score channels, worst first (severity-ratio descending,
  /// ties to the lower channel index), at most kMaxTopChannels entries.
  std::vector<std::uint32_t> top_channels;
  /// Consensus votes of the rolling ensemble for this sample; -1 when the
  /// ensemble was disabled (or the record came from a version-1 segment).
  std::int32_t votes = -1;
  /// Live ensemble members at the time of the vote (0 without an ensemble).
  std::uint32_t ensemble_live = 0;
};

/// Tuning knobs of a history log.
struct HistoryConfig {
  /// Roll (seal) a vehicle's active segment once it reaches this many
  /// bytes. Small segments bound the bytes a torn tail can lose.
  std::size_t segment_bytes = 64 * 1024;
  /// Records buffered per vehicle before a block is written. Flush() writes
  /// a partial block, so durability never waits for a full one.
  std::size_t block_records = 64;
};

/// Severity of one record: score relative to its threshold (score/threshold
/// when the threshold is positive, the raw score otherwise). Dimensionless,
/// so it compares across detectors and reference cycles.
double SeverityRatio(const HistoryRecord& record);

/// RANK's aggregate of one vehicle's records. Every field starts from
/// RANK's initial value and Add folds records left to right, so folding a
/// log in append order gives RANK's doubles to the bit.
struct RankFold {
  std::uint64_t records = 0;  ///< Records folded.
  std::uint64_t alarms = 0;   ///< How many of them raised alarms.
  double ratio_sum = 0.0;     ///< Sum of SeverityRatio in append order.
  double max_ratio = 0.0;     ///< Worst ratio (0 when none is positive).
  std::int64_t last_ts = 0;   ///< Newest timestamp (0 when none is positive).

  /// Folds one more record in.
  void Add(const HistoryRecord& record);
};

/// What a HistoryIndex knows of one segment without decoding it.
struct SegmentSummary {
  std::uint32_t ordinal = 0;  ///< File ordinal in the vehicle's chain.
  std::uint64_t records = 0;  ///< Records the segment holds.
  /// Oldest timestamp of its records (INT64_MAX while it holds none).
  std::int64_t min_ts = std::numeric_limits<std::int64_t>::max();
  /// Newest timestamp of its records (INT64_MIN while it holds none).
  std::int64_t max_ts = std::numeric_limits<std::int64_t>::min();
  std::uint64_t first_seq = 0;  ///< Global seq of its first record.
  std::uint64_t last_seq = 0;   ///< Global seq of its last record.
};

/// Where one alarmed record sits in its vehicle's log.
struct AlarmRef {
  std::uint64_t global_seq = 0;  ///< The record's global seq.
  std::uint64_t position = 0;    ///< Records before it in the vehicle's log.
};

/// One vehicle's entry in a HistoryIndex.
struct VehicleIndex {
  RankFold fold;  ///< RANK over the whole log.
  /// Oldest timestamp in the whole log (INT64_MAX while it is empty).
  std::int64_t min_ts = std::numeric_limits<std::int64_t>::max();
  /// Newest timestamp in the whole log (INT64_MIN while it is empty).
  std::int64_t max_ts = std::numeric_limits<std::int64_t>::min();
  /// Every segment in chain order; the last one is the active tail while
  /// tail_bytes is non-empty.
  std::vector<SegmentSummary> segments;
  /// Verified bytes of the active tail segment - the writer's in-memory
  /// mirror of its .part - or empty when every segment is sealed.
  std::vector<std::uint8_t> tail_bytes;
  /// Alarmed records ordered by global seq, equal seqs in append order.
  std::vector<AlarmRef> alarms;

  /// Indexes one record appended to the newest segment.
  void Add(const HistoryRecord& record);
};

/// Per-vehicle index of one log directory: enough to answer a whole-log
/// RANK without decoding anything, and to pick the few segments any other
/// query must decode. A HistoryWriter keeps one current as it appends;
/// Scan builds one from a read-only scan of a directory.
class HistoryIndex {
 public:
  /// Indexes `dir` read-only, as HistoryReader::ReadDir reads it: a torn
  /// tail's clean prefix is indexed and nothing on disk changes. A missing
  /// directory indexes as an empty log.
  static util::Status Scan(const std::string& dir, HistoryIndex* out);

  /// Every vehicle with segments on disk, in id order.
  const std::map<std::int32_t, VehicleIndex>& vehicles() const {
    return vehicles_;
  }

  /// Decodes segment `segment` of `entry` (the entry of `vehicle_id`): the
  /// active tail from memory, a sealed segment from its file, which must
  /// verify and still match its summary.
  util::Status Decode(std::int32_t vehicle_id, const VehicleIndex& entry,
                      std::size_t segment,
                      std::vector<HistoryRecord>* out) const;

 private:
  friend class HistoryWriter;

  /// Indexes one decoded segment at the end of `vehicle_id`'s chain; a
  /// non-null `tail_bytes` makes it the active tail and is moved in.
  void AddSegment(std::int32_t vehicle_id, std::uint32_t ordinal,
                  const std::vector<HistoryRecord>& records,
                  std::vector<std::uint8_t>* tail_bytes);

  std::string dir_;
  std::map<std::int32_t, VehicleIndex> vehicles_;
};

/// Counters of one writer's lifetime (diagnostics and bench reporting).
struct WriterStats {
  std::uint64_t records_appended = 0;   ///< Accepted (new) records.
  std::uint64_t records_skipped = 0;    ///< Idempotent re-append skips.
  std::uint64_t blocks_written = 0;     ///< CRC'd blocks written.
  std::uint64_t segments_sealed = 0;    ///< .part files rolled to .hseg.
  std::uint64_t torn_bytes_truncated = 0;  ///< Tail bytes dropped on Open.
};

/// Appends HistoryRecords to a log directory, one segment chain per
/// vehicle. Not thread-safe: the intended caller is the FleetService
/// history callback, which the OrderedSink already serialises.
class HistoryWriter {
 public:
  /// Builds an unopened writer with the given tuning.
  explicit HistoryWriter(HistoryConfig config = HistoryConfig());

  /// Closes (best effort) without flushing buffered records; call Flush()
  /// or Close() first for durability.
  ~HistoryWriter();

  HistoryWriter(const HistoryWriter&) = delete;
  HistoryWriter& operator=(const HistoryWriter&) = delete;

  /// Opens (creating if needed) the log directory: scans existing
  /// segments, truncates any torn tail, recovers each vehicle's append
  /// cursor so re-appends of already-logged records are skipped, and
  /// rebuilds the index.
  util::Status Open(const std::string& dir);

  /// Appends one record (routing by vehicle id; unknown vehicles start a
  /// new segment chain). Records already on disk - at or below the
  /// vehicle's recovered (global_seq, sub) cursor - are skipped, which is
  /// what makes checkpoint-replay after a crash idempotent.
  util::Status Append(const HistoryRecord& record);

  /// Writes every buffered record out as (possibly partial) blocks.
  util::Status Flush();

  /// Flush, then close every file descriptor. The active tails stay
  /// .part files; a later Open resumes them in place.
  util::Status Close();

  /// Lifetime counters.
  const WriterStats& stats() const { return stats_; }

  /// The index of every record written out in blocks (buffered records
  /// join it at the next Flush).
  const HistoryIndex& index() const { return index_; }

  /// The opened directory (empty before Open).
  const std::string& dir() const { return dir_; }

 private:
  /// Per-vehicle append state: the active tail and the idempotence cursor.
  /// The tail's bytes live in the vehicle's index entry.
  struct VehicleLog {
    std::uint32_t next_ordinal = 0;  ///< Ordinal the next segment takes.
    int fd = -1;                     ///< Open .part file, -1 when none.
    std::string part_path;           ///< Path of the active .part.
    bool has_active = false;         ///< A tail segment is open.
    /// Record layout of the active tail. A resumed version-1 tail keeps
    /// encoding version-1 records until it seals, even if the stream now
    /// carries votes (they are dropped for that segment only).
    std::uint32_t segment_version = kSegmentVersion;
    std::uint64_t prev_seq = 0;      ///< Delta-chain cursor (seq).
    std::int64_t prev_ts = 0;        ///< Delta-chain cursor (timestamp).
    std::vector<HistoryRecord> pending;  ///< Records not yet in a block.
    bool has_logged = false;         ///< Any record accepted/recovered.
    std::uint64_t last_seq = 0;      ///< Idempotence cursor: last seq.
    std::uint32_t last_sub = 0;      ///< ... and its sub-index.
    bool has_incoming = false;       ///< Any record offered this lifetime.
    std::uint64_t in_seq = 0;        ///< Incoming-stream cursor (seq).
    std::uint32_t in_sub = 0;        ///< ... and its sub-index.
  };

  util::Status StartSegment(std::int32_t vehicle_id, VehicleLog* log,
                            const HistoryRecord& first);
  util::Status WriteBlock(std::int32_t vehicle_id, VehicleLog* log);
  util::Status SealSegment(VehicleLog* log,
                           std::vector<std::uint8_t>* tail_bytes);

  HistoryConfig config_;
  std::string dir_;
  bool open_ = false;
  std::map<std::int32_t, VehicleLog> vehicles_;
  HistoryIndex index_;
  WriterStats stats_;
};

/// One vehicle's decoded log: every record in append order.
struct VehicleLogData {
  std::int32_t vehicle_id = 0;
  std::vector<HistoryRecord> records;
};

/// Counters of one directory scan.
struct ReadStats {
  std::size_t segments = 0;         ///< Segments decoded (sealed + tails).
  std::size_t records = 0;          ///< Records decoded in total.
  std::size_t torn_tail_bytes = 0;  ///< Bytes rejected from torn tails.
};

/// Scans a history log directory back into per-vehicle record vectors.
class HistoryReader {
 public:
  /// Reads every vehicle's segment chain under `dir`, in vehicle-id order.
  /// Sealed segments must verify fully (any CRC or decode failure is an
  /// error); the one active tail per vehicle may be torn, in which case
  /// the valid prefix is returned and the torn bytes are counted in
  /// `stats` - torn data is detected and dropped, never served.
  static util::Status ReadDir(const std::string& dir,
                              std::vector<VehicleLogData>* out,
                              ReadStats* stats = nullptr);
};

}  // namespace navarchos::history

#endif  // NAVARCHOS_HISTORY_HISTORY_LOG_H_
