#include "history/history_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <system_error>
#include <utility>

#include "persist/codec.h"
#include "util/check.h"

namespace navarchos::history {

namespace {

/// Minimum encoded size of one record (dseq, dts, score, threshold, flags;
/// k may be zero), used to bound the record count a block claims.
constexpr std::size_t kMinRecordBytes = 8 + 8 + 8 + 8 + 1;

std::string SegmentName(std::int32_t vehicle_id, std::uint32_t ordinal,
                        const char* extension) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "v%d_%06u%s", vehicle_id, ordinal,
                extension);
  return buffer;
}

/// One segment file found by a directory scan.
struct SegmentFile {
  std::uint32_t ordinal = 0;
  std::string path;
  bool sealed = false;  ///< .hseg (immutable) vs .part (active tail).
};

/// Scans `dir` for history segments, grouped per vehicle and sorted by
/// ordinal. When a sealed segment and a .part share an ordinal (a crash
/// between seal-rename and tail unlink), the sealed twin wins; the stale
/// .part path is reported through `stale_parts` so the writer can unlink
/// it (a read-only scan just ignores it).
util::Status ScanDir(const std::string& dir,
                     std::map<std::int32_t, std::vector<SegmentFile>>* out,
                     std::vector<std::string>* stale_parts) {
  out->clear();
  std::error_code ec;
  std::map<std::int32_t, std::map<std::uint32_t, SegmentFile>> by_ordinal;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    int vehicle = 0;
    unsigned ordinal = 0;
    char extension[8] = {0};
    if (std::sscanf(name.c_str(), "v%d_%6u.%6s", &vehicle, &ordinal,
                    extension) != 3)
      continue;
    const bool sealed = std::string(extension) == "hseg";
    if (!sealed && std::string(extension) != "part") continue;
    auto& slot = by_ordinal[vehicle];
    auto it = slot.find(ordinal);
    if (it == slot.end()) {
      slot[ordinal] = SegmentFile{ordinal, entry.path().string(), sealed};
      continue;
    }
    // Twin ordinals: keep the sealed one, report the other as stale.
    if (sealed) {
      stale_parts->push_back(it->second.path);
      it->second = SegmentFile{ordinal, entry.path().string(), true};
    } else {
      stale_parts->push_back(entry.path().string());
    }
  }
  if (ec)
    return util::Status::Error("history scan: cannot list " + dir + ": " +
                               ec.message());
  for (auto& [vehicle, segments] : by_ordinal) {
    auto& list = (*out)[vehicle];
    list.reserve(segments.size());
    for (auto& [ordinal, file] : segments) list.push_back(std::move(file));
  }
  return util::Status();
}

util::Status ReadFileBytes(const std::string& path,
                           std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::Error("history read: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  in.seekg(0, std::ios::beg);
  out->resize(static_cast<std::size_t>(size));
  if (size > 0)
    in.read(reinterpret_cast<char*>(out->data()), size);
  if (!in)
    return util::Status::Error("history read: short read from " + path);
  return util::Status();
}

/// Outcome of decoding one segment's bytes.
struct SegmentParse {
  bool header_ok = false;       ///< Magic/version/CRC of the header verify.
  std::uint32_t version = kSegmentVersion;  ///< Record layout of the segment.
  std::int32_t vehicle_id = 0;  ///< From the header.
  std::uint64_t prev_seq = 0;   ///< Delta cursor after the last good record.
  std::int64_t prev_ts = 0;
  std::size_t valid_bytes = 0;  ///< Prefix covered by verified blocks.
  std::vector<HistoryRecord> records;  ///< Decoded records in order.
  bool torn = false;            ///< Bytes beyond valid_bytes failed checks.
  std::string error;            ///< What the first failure was.
};

std::uint32_t ReadU32(const std::uint8_t* data) {
  return static_cast<std::uint32_t>(data[0]) |
         (static_cast<std::uint32_t>(data[1]) << 8) |
         (static_cast<std::uint32_t>(data[2]) << 16) |
         (static_cast<std::uint32_t>(data[3]) << 24);
}

/// Decodes a segment: verified header, then CRC'd blocks until the bytes
/// run out or a check fails. A failure never discards the verified prefix
/// - it sets `torn` and leaves `valid_bytes` at the last good block.
void ParseSegment(const std::vector<std::uint8_t>& bytes, SegmentParse* out) {
  *out = SegmentParse();
  if (bytes.size() < kSegmentHeaderBytes) {
    out->torn = true;
    out->error = "segment shorter than its header";
    return;
  }
  persist::Decoder header(bytes.data(), kSegmentHeaderBytes);
  const std::uint32_t magic = header.GetU32();
  const std::uint32_t version = header.GetU32();
  const std::int32_t vehicle_id = header.GetI32();
  const std::uint64_t base_seq = header.GetU64();
  const std::int64_t base_ts = header.GetI64();
  const std::uint32_t stored_crc = header.GetU32();
  const std::uint32_t actual_crc =
      persist::Crc32(bytes.data(), kSegmentHeaderBytes - 4);
  if (!header.ok() || magic != kSegmentMagic ||
      (version != kSegmentVersion && version != kSegmentVersionVotes) ||
      stored_crc != actual_crc) {
    out->torn = true;
    out->error = "segment header corrupt";
    return;
  }
  out->header_ok = true;
  out->version = version;
  out->vehicle_id = vehicle_id;
  out->prev_seq = base_seq;
  out->prev_ts = base_ts;
  out->valid_bytes = kSegmentHeaderBytes;

  std::size_t offset = kSegmentHeaderBytes;
  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < 8) {
      out->torn = true;
      out->error = "torn block frame";
      return;
    }
    const std::uint32_t length = ReadU32(bytes.data() + offset);
    if (length > kMaxBlockBytes || remaining < 4 + std::size_t{length} + 4) {
      out->torn = true;
      out->error = "torn or oversized block length";
      return;
    }
    const std::uint8_t* payload = bytes.data() + offset + 4;
    const std::uint32_t stored = ReadU32(payload + length);
    if (persist::Crc32(payload, length) != stored) {
      out->torn = true;
      out->error = "block CRC mismatch";
      return;
    }
    // The block is CRC-verified; decode its records. Roll the delta cursor
    // back if the payload is malformed despite the CRC (disk-level
    // corruption that happened before the CRC was computed).
    const std::uint64_t saved_seq = out->prev_seq;
    const std::int64_t saved_ts = out->prev_ts;
    const std::size_t saved_count = out->records.size();
    persist::Decoder decoder(payload, length);
    const std::uint32_t count = decoder.GetU32();
    bool block_ok = decoder.ok();
    if (block_ok && count > decoder.remaining() / kMinRecordBytes)
      block_ok = false;
    for (std::uint32_t i = 0; block_ok && i < count; ++i) {
      HistoryRecord record;
      record.vehicle_id = vehicle_id;
      out->prev_seq += decoder.GetU64();
      out->prev_ts += decoder.GetI64();
      record.global_seq = out->prev_seq;
      record.timestamp = out->prev_ts;
      record.score = decoder.GetDouble();
      record.threshold = decoder.GetDouble();
      const std::uint8_t flags = decoder.GetU8();
      record.alarm = (flags & 1u) != 0;
      const std::size_t k = flags >> 1;
      if (k > decoder.remaining() / 4) {
        block_ok = false;
        break;
      }
      record.top_channels.reserve(k);
      for (std::size_t c = 0; c < k; ++c)
        record.top_channels.push_back(decoder.GetU32());
      if (version >= kSegmentVersionVotes) {
        const std::uint8_t votes_plus1 = decoder.GetU8();
        record.votes = votes_plus1 == 0
                           ? -1
                           : static_cast<std::int32_t>(votes_plus1) - 1;
        record.ensemble_live = decoder.GetU8();
      }
      if (!decoder.ok()) {
        block_ok = false;
        break;
      }
      out->records.push_back(std::move(record));
    }
    if (block_ok && (!decoder.ok() || decoder.remaining() != 0))
      block_ok = false;
    if (!block_ok) {
      out->prev_seq = saved_seq;
      out->prev_ts = saved_ts;
      out->records.resize(saved_count);
      out->torn = true;
      out->error = "block payload malformed";
      return;
    }
    offset += 4 + std::size_t{length} + 4;
    out->valid_bytes = offset;
  }
}

/// One segment of a vehicle's chain as LoadDir decoded it.
struct LoadedSegment {
  std::int32_t vehicle_id = 0;
  std::uint32_t ordinal = 0;
  std::string path;
  bool is_tail = false;             ///< The chain's active .part.
  std::vector<std::uint8_t> bytes;  ///< The segment's verified prefix.
  SegmentParse parse;
};

/// Reads every vehicle's segment chain under `dir`, in vehicle-id then
/// ordinal order, checks it and hands each segment to `visit`. A sealed
/// segment must verify fully, only the newest segment may be a .part, and
/// every header must name its file's vehicle. A torn tail is cut back to
/// its verified prefix (a tail torn inside its header is visited without
/// one) and the bytes cut are added to `*torn_bytes` when it is non-null.
/// With `writable` the scan also repairs the directory: stale .part twins
/// and header-torn tails are removed and a torn tail is truncated on disk.
/// Read-only it changes nothing, so it can run against a directory a live
/// writer still owns. A missing directory holds no segments.
util::Status LoadDir(const std::string& dir, bool writable,
                     const std::function<util::Status(LoadedSegment&)>& visit,
                     std::uint64_t* torn_bytes) {
  const std::string what = writable ? "history open: " : "history read: ";
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return util::Status();
  std::map<std::int32_t, std::vector<SegmentFile>> segments;
  std::vector<std::string> stale_parts;
  util::Status status = ScanDir(dir, &segments, &stale_parts);
  if (!status.ok()) return status;
  // Stale .part twins of sealed segments: the seal completed (the rename
  // is the commit point) but the crash hit before the unlink. Finish it.
  if (writable)
    for (const std::string& path : stale_parts)
      std::filesystem::remove(path, ec);

  for (auto& [vehicle_id, files] : segments) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      const SegmentFile& file = files[i];
      LoadedSegment segment;
      segment.vehicle_id = vehicle_id;
      segment.ordinal = file.ordinal;
      segment.path = file.path;
      segment.is_tail = i + 1 == files.size() && !file.sealed;
      if (!file.sealed && !segment.is_tail)
        return util::Status::Error(what + "stale tail segment " + file.path +
                                   " is not the newest segment");
      status = ReadFileBytes(file.path, &segment.bytes);
      if (!status.ok()) return status;
      const SegmentParse& parse = segment.parse;
      ParseSegment(segment.bytes, &segment.parse);
      if (file.sealed && (parse.torn || !parse.header_ok))
        return util::Status::Error(what + "sealed segment " + file.path +
                                   " corrupt: " + parse.error);
      if (parse.header_ok && parse.vehicle_id != vehicle_id)
        return util::Status::Error(what + "segment " + file.path +
                                   " header names vehicle " +
                                   std::to_string(parse.vehicle_id));
      if (parse.torn) {  // only the tail gets here
        if (torn_bytes != nullptr)
          *torn_bytes += segment.bytes.size() - parse.valid_bytes;
        if (writable && !parse.header_ok) {
          // The crash tore the tail inside its header: nothing of the
          // segment is trustworthy. Drop it; the next append starts fresh.
          std::filesystem::remove(file.path, ec);
        } else if (writable) {
          std::filesystem::resize_file(file.path, parse.valid_bytes, ec);
          if (ec)
            return util::Status::Error(what + "cannot truncate torn " +
                                       file.path + ": " + ec.message());
        }
        segment.bytes.resize(parse.valid_bytes);
      }
      status = visit(segment);
      if (!status.ok()) return status;
    }
  }
  return util::Status();
}

}  // namespace

double SeverityRatio(const HistoryRecord& record) {
  return record.threshold > 0.0 ? record.score / record.threshold
                                : record.score;
}

void RankFold::Add(const HistoryRecord& record) {
  const double ratio = SeverityRatio(record);
  ++records;
  if (record.alarm) ++alarms;
  ratio_sum += ratio;
  max_ratio = std::max(max_ratio, ratio);
  last_ts = std::max(last_ts, record.timestamp);
}

void VehicleIndex::Add(const HistoryRecord& record) {
  if (record.alarm) {
    const AlarmRef ref{record.global_seq, fold.records};
    alarms.insert(std::upper_bound(alarms.begin(), alarms.end(), ref,
                                   [](const AlarmRef& a, const AlarmRef& b) {
                                     return a.global_seq < b.global_seq;
                                   }),
                  ref);
  }
  fold.Add(record);
  min_ts = std::min(min_ts, record.timestamp);
  max_ts = std::max(max_ts, record.timestamp);
  SegmentSummary& segment = segments.back();
  if (segment.records++ == 0) segment.first_seq = record.global_seq;
  segment.last_seq = record.global_seq;
  segment.min_ts = std::min(segment.min_ts, record.timestamp);
  segment.max_ts = std::max(segment.max_ts, record.timestamp);
}

// -------------------------------------------------------------- HistoryIndex

util::Status HistoryIndex::Scan(const std::string& dir, HistoryIndex* out) {
  *out = HistoryIndex();
  out->dir_ = dir;
  return LoadDir(
      dir, /*writable=*/false,
      [out](LoadedSegment& segment) {
        if (segment.parse.header_ok)
          out->AddSegment(segment.vehicle_id, segment.ordinal,
                          segment.parse.records,
                          segment.is_tail ? &segment.bytes : nullptr);
        return util::Status();
      },
      nullptr);
}

void HistoryIndex::AddSegment(std::int32_t vehicle_id, std::uint32_t ordinal,
                              const std::vector<HistoryRecord>& records,
                              std::vector<std::uint8_t>* tail_bytes) {
  VehicleIndex& entry = vehicles_[vehicle_id];
  entry.segments.emplace_back();
  entry.segments.back().ordinal = ordinal;
  for (const HistoryRecord& record : records) entry.Add(record);
  if (tail_bytes != nullptr) entry.tail_bytes = std::move(*tail_bytes);
}

util::Status HistoryIndex::Decode(std::int32_t vehicle_id,
                                  const VehicleIndex& entry,
                                  std::size_t segment,
                                  std::vector<HistoryRecord>* out) const {
  const SegmentSummary& summary = entry.segments[segment];
  const bool is_tail =
      segment + 1 == entry.segments.size() && !entry.tail_bytes.empty();
  const std::string path =
      (std::filesystem::path(dir_) /
       SegmentName(vehicle_id, summary.ordinal, is_tail ? ".part" : ".hseg"))
          .string();
  SegmentParse parse;
  if (is_tail) {
    ParseSegment(entry.tail_bytes, &parse);
  } else {
    std::vector<std::uint8_t> bytes;
    const util::Status status = ReadFileBytes(path, &bytes);
    if (!status.ok()) return status;
    ParseSegment(bytes, &parse);
  }
  if (parse.torn || !parse.header_ok || parse.vehicle_id != vehicle_id)
    return util::Status::Error("history query: segment " + path +
                               " corrupt: " + parse.error);
  if (parse.records.size() != summary.records ||
      (summary.records > 0 &&
       (parse.records.front().global_seq != summary.first_seq ||
        parse.records.back().global_seq != summary.last_seq)))
    return util::Status::Error("history query: segment " + path +
                               " no longer holds the records indexed from it");
  *out = std::move(parse.records);
  return util::Status();
}

// ------------------------------------------------------------- HistoryWriter

HistoryWriter::HistoryWriter(HistoryConfig config) : config_(config) {
  NAVARCHOS_CHECK(config_.segment_bytes >= kSegmentHeaderBytes + 16);
  NAVARCHOS_CHECK(config_.block_records >= 1);
}

HistoryWriter::~HistoryWriter() {
  for (auto& [vehicle_id, log] : vehicles_)
    if (log.fd >= 0) ::close(log.fd);
}

util::Status HistoryWriter::Open(const std::string& dir) {
  if (open_) return util::Status::Error("history open: writer already open");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    return util::Status::Error("history open: cannot create " + dir + ": " +
                               ec.message());
  // A writer reopened after Close starts again from what is on disk.
  for (auto& [vehicle_id, log] : vehicles_)
    if (log.fd >= 0) ::close(log.fd);
  vehicles_.clear();
  index_ = HistoryIndex();
  index_.dir_ = dir;
  const util::Status status = LoadDir(
      dir, /*writable=*/true,
      [this](LoadedSegment& segment) {
        VehicleLog& log = vehicles_[segment.vehicle_id];
        log.next_ordinal = std::max(log.next_ordinal, segment.ordinal + 1);
        const SegmentParse& parse = segment.parse;
        if (!parse.header_ok) return util::Status();  // removed by LoadDir
        // Advance the idempotence cursor over every recovered record.
        for (const HistoryRecord& record : parse.records) {
          if (log.has_logged && record.global_seq == log.last_seq) {
            ++log.last_sub;
          } else {
            log.has_logged = true;
            log.last_seq = record.global_seq;
            log.last_sub = 0;
          }
        }
        if (segment.is_tail) {
          // Resume appending to the (now clean) tail in place.
          log.fd =
              ::open(segment.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
          if (log.fd < 0)
            return util::Status::Error("history open: cannot reopen tail " +
                                       segment.path);
          log.part_path = segment.path;
          log.has_active = true;
          log.segment_version = parse.version;
          log.prev_seq = parse.prev_seq;
          log.prev_ts = parse.prev_ts;
        }
        index_.AddSegment(segment.vehicle_id, segment.ordinal, parse.records,
                          segment.is_tail ? &segment.bytes : nullptr);
        return util::Status();
      },
      &stats_.torn_bytes_truncated);
  if (!status.ok()) return status;
  dir_ = dir;
  open_ = true;
  return util::Status();
}

util::Status HistoryWriter::Append(const HistoryRecord& record) {
  if (!open_) return util::Status::Error("history append: writer not open");
  VehicleLog& log = vehicles_[record.vehicle_id];

  // Sub-index of this record within its frame: several records can share
  // one admitting global_seq (reorder-buffer releases), and the incoming
  // stream presents them consecutively.
  if (!log.has_incoming || record.global_seq != log.in_seq) {
    log.has_incoming = true;
    log.in_seq = record.global_seq;
    log.in_sub = 0;
  } else {
    ++log.in_sub;
  }

  // Idempotent re-append: a restored service replays from its checkpoint
  // and regenerates records already on disk; skip everything at or below
  // the recovered cursor.
  if (log.has_logged &&
      (record.global_seq < log.last_seq ||
       (record.global_seq == log.last_seq && log.in_sub <= log.last_sub))) {
    ++stats_.records_skipped;
    return util::Status();
  }

  log.pending.push_back(record);
  if (log.pending.back().top_channels.size() > kMaxTopChannels)
    log.pending.back().top_channels.resize(kMaxTopChannels);
  log.has_logged = true;
  log.last_seq = record.global_seq;
  log.last_sub = log.in_sub;
  ++stats_.records_appended;
  if (log.pending.size() >= config_.block_records)
    return WriteBlock(record.vehicle_id, &log);
  return util::Status();
}

util::Status HistoryWriter::StartSegment(std::int32_t vehicle_id,
                                         VehicleLog* log,
                                         const HistoryRecord& first) {
  const std::uint32_t ordinal = log->next_ordinal++;
  log->part_path =
      (std::filesystem::path(dir_) / SegmentName(vehicle_id, ordinal, ".part"))
          .string();
  // A segment that will carry consensus votes uses the version-2 record
  // layout; vote-less streams keep writing version-1 segments, byte-
  // identical to what older builds produced.
  log->segment_version =
      first.votes >= 0 ? kSegmentVersionVotes : kSegmentVersion;
  persist::Encoder header;
  header.PutU32(kSegmentMagic);
  header.PutU32(log->segment_version);
  header.PutI32(vehicle_id);
  header.PutU64(first.global_seq);
  header.PutI64(first.timestamp);
  std::vector<std::uint8_t> bytes = header.TakeBytes();
  const std::uint32_t crc = persist::Crc32(bytes.data(), bytes.size());
  persist::Encoder tail;
  tail.PutU32(crc);
  const std::vector<std::uint8_t> crc_bytes = tail.TakeBytes();
  bytes.insert(bytes.end(), crc_bytes.begin(), crc_bytes.end());

  log->fd = ::open(log->part_path.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log->fd < 0)
    return util::Status::Error("history append: cannot create " +
                               log->part_path);
  if (::write(log->fd, bytes.data(), bytes.size()) !=
      static_cast<ssize_t>(bytes.size()))
    return util::Status::Error("history append: short write to " +
                               log->part_path);
  index_.AddSegment(vehicle_id, ordinal, {}, &bytes);
  log->prev_seq = first.global_seq;
  log->prev_ts = first.timestamp;
  log->has_active = true;
  return util::Status();
}

util::Status HistoryWriter::WriteBlock(std::int32_t vehicle_id,
                                       VehicleLog* log) {
  if (log->pending.empty()) return util::Status();
  if (!log->has_active) {
    util::Status status = StartSegment(vehicle_id, log, log->pending.front());
    if (!status.ok()) return status;
  }

  persist::Encoder payload_encoder;
  payload_encoder.PutU32(static_cast<std::uint32_t>(log->pending.size()));
  for (const HistoryRecord& record : log->pending) {
    payload_encoder.PutU64(record.global_seq - log->prev_seq);
    payload_encoder.PutI64(record.timestamp - log->prev_ts);
    payload_encoder.PutDouble(record.score);
    payload_encoder.PutDouble(record.threshold);
    const std::uint8_t flags = static_cast<std::uint8_t>(
        (record.alarm ? 1u : 0u) | (record.top_channels.size() << 1));
    payload_encoder.PutU8(flags);
    for (const std::uint32_t channel : record.top_channels)
      payload_encoder.PutU32(channel);
    if (log->segment_version >= kSegmentVersionVotes) {
      const std::uint32_t votes_plus1 =
          record.votes < 0
              ? 0u
              : std::min<std::uint32_t>(
                    static_cast<std::uint32_t>(record.votes) + 1, 255u);
      payload_encoder.PutU8(static_cast<std::uint8_t>(votes_plus1));
      payload_encoder.PutU8(static_cast<std::uint8_t>(
          std::min<std::uint32_t>(record.ensemble_live, 255u)));
    }
    log->prev_seq = record.global_seq;
    log->prev_ts = record.timestamp;
  }
  const std::vector<std::uint8_t> payload = payload_encoder.TakeBytes();
  NAVARCHOS_CHECK(payload.size() <= kMaxBlockBytes);

  persist::Encoder frame;
  frame.PutU32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::uint8_t> block = frame.TakeBytes();
  block.insert(block.end(), payload.begin(), payload.end());
  persist::Encoder crc_encoder;
  crc_encoder.PutU32(persist::Crc32(payload.data(), payload.size()));
  const std::vector<std::uint8_t> crc_bytes = crc_encoder.TakeBytes();
  block.insert(block.end(), crc_bytes.begin(), crc_bytes.end());

  // One write() per block: a kill -9 can tear at most the final block of
  // the file, which the CRC catches and recovery truncates.
  if (::write(log->fd, block.data(), block.size()) !=
      static_cast<ssize_t>(block.size()))
    return util::Status::Error("history append: short write to " +
                               log->part_path);
  VehicleIndex& entry = index_.vehicles_[vehicle_id];
  entry.tail_bytes.insert(entry.tail_bytes.end(), block.begin(), block.end());
  for (const HistoryRecord& record : log->pending) entry.Add(record);
  log->pending.clear();
  ++stats_.blocks_written;

  if (entry.tail_bytes.size() >= config_.segment_bytes)
    return SealSegment(log, &entry.tail_bytes);
  return util::Status();
}

util::Status HistoryWriter::SealSegment(VehicleLog* log,
                                        std::vector<std::uint8_t>* tail_bytes) {
  const std::string sealed_path =
      std::filesystem::path(log->part_path).replace_extension(".hseg").string();
  const std::string temp_path = sealed_path + ".tmp";
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out)
      return util::Status::Error("history seal: cannot open " + temp_path);
    out.write(reinterpret_cast<const char*>(tail_bytes->data()),
              static_cast<std::streamsize>(tail_bytes->size()));
    out.flush();
    if (!out)
      return util::Status::Error("history seal: short write to " + temp_path);
  }
  std::error_code ec;
  // The rename is the commit point; the stale .part is garbage-collected
  // here or - after a crash in between - by the next Open.
  std::filesystem::rename(temp_path, sealed_path, ec);
  if (ec) {
    std::filesystem::remove(temp_path, ec);
    return util::Status::Error("history seal: cannot publish " + sealed_path);
  }
  ::close(log->fd);
  log->fd = -1;
  std::filesystem::remove(log->part_path, ec);
  log->part_path.clear();
  log->has_active = false;
  tail_bytes->clear();
  ++stats_.segments_sealed;
  return util::Status();
}

util::Status HistoryWriter::Flush() {
  if (!open_) return util::Status::Error("history flush: writer not open");
  for (auto& [vehicle_id, log] : vehicles_) {
    util::Status status = WriteBlock(vehicle_id, &log);
    if (!status.ok()) return status;
  }
  return util::Status();
}

util::Status HistoryWriter::Close() {
  if (!open_) return util::Status();
  util::Status status = Flush();
  for (auto& [vehicle_id, log] : vehicles_) {
    if (log.fd >= 0) ::close(log.fd);
    log.fd = -1;
    log.has_active = false;
  }
  open_ = false;
  return status;
}

// ------------------------------------------------------------- HistoryReader

util::Status HistoryReader::ReadDir(const std::string& dir,
                                    std::vector<VehicleLogData>* out,
                                    ReadStats* stats) {
  out->clear();
  ReadStats counts;
  std::uint64_t torn_bytes = 0;
  const util::Status status = LoadDir(
      dir, /*writable=*/false,
      [out, &counts](LoadedSegment& segment) {
        if (out->empty() || out->back().vehicle_id != segment.vehicle_id)
          out->push_back(VehicleLogData{segment.vehicle_id, {}});
        std::vector<HistoryRecord>& records = segment.parse.records;
        ++counts.segments;
        counts.records += records.size();
        out->back().records.insert(out->back().records.end(),
                                   std::make_move_iterator(records.begin()),
                                   std::make_move_iterator(records.end()));
        return util::Status();
      },
      &torn_bytes);
  counts.torn_tail_bytes = static_cast<std::size_t>(torn_bytes);
  if (stats != nullptr) *stats = counts;
  return status;
}

}  // namespace navarchos::history
