#include "shard/shard_group.h"

#include <filesystem>
#include <utility>

#include "persist/snapshot.h"
#include "util/check.h"

namespace navarchos::shard {

namespace {

/// Layout version of the fleet manifest's "fleet" and "agg" chunks.
/// Version 2 made "agg" the fleet sink's state (service::OrderedSink::Save)
/// and the shard files' "sink" chunks alarm-free, so each released alarm
/// is stored once.
constexpr std::uint32_t kManifestVersion = 2;

/// File name of the fleet manifest inside a checkpoint directory.
const char kManifestName[] = "fleet.manifest";

/// Epoch-named per-shard snapshot file name ("shard-2.e7.snap").
std::string ShardFileName(std::uint32_t shard, std::uint64_t epoch) {
  return "shard-" + std::to_string(shard) + ".e" + std::to_string(epoch) +
         ".snap";
}

}  // namespace

ShardGroup::ShardGroup(const ShardGroupConfig& config)
    : config_(config),
      pool_(config.service.runtime.ResolveThreads()),
      map_(config.shard_count, config.hash_seed) {
  NAVARCHOS_CHECK(config.shard_count >= 1);
  shards_.reserve(config.shard_count);
  for (std::uint32_t shard = 0; shard < config.shard_count; ++shard)
    shards_.push_back(
        std::make_unique<service::FleetService>(config.service, &pool_, &sink_));
  // The shared pool and sink serve every shard, so their metrics belong to
  // no single one; by convention they live in shard 0's registry
  // (FleetSnapshot merges all registries, so the fleet view is the same
  // either way).
  obs::MetricsRegistry* metrics = shards_[0]->metrics();
  pool_.AttachMetrics(metrics);
  sink_.AttachMetrics(metrics->counter("service.alarms_emitted"),
                      metrics->histogram("service.admission_to_release_us"));
}

ShardGroup::~ShardGroup() {
  Drain();
  // The shards are destroyed before pool_ (member order), and each shard's
  // destructor drains, so no pump task outlives its lanes.
}

int ShardGroup::RegisterVehicle(std::int32_t vehicle_id) {
  std::lock_guard<std::mutex> lock(mu_);
  NAVARCHOS_CHECK(!draining_);
  const auto it = vehicle_index_.find(vehicle_id);
  if (it != vehicle_index_.end()) return static_cast<int>(it->second);
  VehicleSlot slot;
  slot.vehicle_id = vehicle_id;
  slot.shard = map_.ShardOf(vehicle_id);
  slot.lane = shards_[static_cast<std::size_t>(slot.shard)]->RegisterVehicle(
      vehicle_id);
  vehicles_.push_back(slot);
  vehicle_index_.emplace(vehicle_id, vehicles_.size() - 1);
  return static_cast<int>(vehicles_.size() - 1);
}

bool ShardGroup::Submit(const telemetry::SensorFrame& frame) {
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) return false;
  const auto it = vehicle_index_.find(frame.vehicle_id());
  int shard;
  if (it == vehicle_index_.end()) {
    // Auto-register in first-seen order, as FleetService does.
    lock.unlock();
    RegisterVehicle(frame.vehicle_id());
    lock.lock();
    if (draining_) return false;
    shard = vehicles_[vehicle_index_.at(frame.vehicle_id())].shard;
  } else {
    shard = vehicles_[it->second].shard;
  }
  // A shed frame's fleet seq is skipped by the shard, so the sink's
  // contiguous release never waits for it.
  return shards_[static_cast<std::size_t>(shard)]
      ->Ingest(frame, next_fleet_seq_++)
      .accepted();
}

void ShardGroup::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (drained_) return;
  draining_ = true;
  for (auto& shard : shards_) shard->Close();
  // One barrier for every shard: the pool they share is idle, so every
  // admitted frame was pumped and released through the sink.
  pool_.WaitIdle();
  // Flush lane by lane in fleet registration order - the lane order an
  // unsharded drain flushes in.
  for (const VehicleSlot& slot : vehicles_) {
    NAVARCHOS_CHECK(slot.shard >= 0);  // every slot filled (wire order too)
    shards_[static_cast<std::size_t>(slot.shard)]->FlushLane(slot.lane);
  }
  for (auto& shard : shards_) shard->Drain();
  drained_ = true;
}

core::FleetRunResult ShardGroup::TakeResult() {
  std::lock_guard<std::mutex> lock(mu_);
  NAVARCHOS_CHECK(drained_);
  std::vector<core::FleetRunResult> shard_results;
  shard_results.reserve(shards_.size());
  for (auto& shard : shards_) shard_results.push_back(shard->TakeResult());
  core::FleetRunResult result;
  // Threshold/persistence metadata is config-derived and identical on
  // every shard; channel names may be empty on a vehicle-less shard, so
  // take the first non-empty.
  result.persistence_window = shard_results[0].persistence_window;
  result.persistence_min = shard_results[0].persistence_min;
  result.threshold_kind = shard_results[0].threshold_kind;
  for (const core::FleetRunResult& shard_result : shard_results) {
    if (!shard_result.channel_names.empty()) {
      result.channel_names = shard_result.channel_names;
      break;
    }
  }
  result.alarms = std::move(sink_.alarms());
  result.scored_samples.resize(vehicles_.size());
  result.calibrations.resize(vehicles_.size());
  result.quality.resize(vehicles_.size());
  result.ensemble_stats.resize(vehicles_.size());
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const VehicleSlot& slot = vehicles_[i];
    core::FleetRunResult& home = shard_results[static_cast<std::size_t>(
        slot.shard)];
    const std::size_t lane = static_cast<std::size_t>(slot.lane);
    result.scored_samples[i] = std::move(home.scored_samples[lane]);
    result.calibrations[i] = std::move(home.calibrations[lane]);
    result.quality[i] = std::move(home.quality[lane]);
    result.ensemble_stats[i] = home.ensemble_stats[lane];
  }
  return result;
}

void ShardGroup::set_alarm_callback(service::AlarmCallback callback) {
  sink_.alarm_callback = std::move(callback);
}

void ShardGroup::set_history_callback(service::HistoryCallback callback) {
  // Every shard's pumps build history records while the sink has one.
  sink_.history_callback = std::move(callback);
}

void ShardGroup::set_checkpoint_barrier(
    std::function<util::Status()> barrier) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_barrier_ = std::move(barrier);
}

util::Status ShardGroup::Checkpoint(const std::string& dir) {
  // Holding mu_ blocks new submissions on every shard at once; the shared
  // pool falling idle then means every admitted frame on every shard has
  // been pumped, completed and released through the sink - the one
  // consistent fleet-wide cut the manifest describes.
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || drained_)
    return util::Status::Error("cannot checkpoint a draining fleet");
  pool_.WaitIdle();
  if (checkpoint_barrier_) {
    const util::Status barrier_status = checkpoint_barrier_();
    if (!barrier_status.ok()) return barrier_status;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    return util::Status::Error("cannot create checkpoint dir " + dir + ": " +
                               ec.message());
  const std::uint64_t epoch = checkpoint_epoch_ + 1;
  persist::Snapshot manifest;

  persist::Encoder fleet_encoder;
  fleet_encoder.PutU32(kManifestVersion);
  fleet_encoder.PutU32(config_.shard_count);
  fleet_encoder.PutU64(config_.hash_seed);
  // The fleet cursor. A wire-fed group's fleet seqs come from the client,
  // not from Submit; quiescent, every seq below the sink's release cursor
  // was released or skipped, whoever assigned it.
  fleet_encoder.PutU64(sink_.next_release());
  fleet_encoder.PutU64(epoch);
  fleet_encoder.PutU32(static_cast<std::uint32_t>(vehicles_.size()));
  for (const VehicleSlot& slot : vehicles_)
    fleet_encoder.PutI32(slot.vehicle_id);
  manifest.Add("fleet", std::move(fleet_encoder));

  persist::Encoder agg_encoder;
  sink_.Save(agg_encoder);
  manifest.Add("agg", std::move(agg_encoder));

  // Epoch-named per-shard files: the previous epoch's files stay intact
  // until the new manifest commits, so a crash mid-checkpoint cannot
  // damage the last durable fleet state.
  for (std::uint32_t shard = 0; shard < config_.shard_count; ++shard) {
    const std::string name = ShardFileName(shard, epoch);
    const std::string path = dir + "/" + name;
    const util::Status shard_status = shards_[shard]->Checkpoint(path);
    if (!shard_status.ok()) return shard_status;
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    const util::Status crc_status = persist::Crc32OfFile(path, &crc, &size);
    if (!crc_status.ok()) return crc_status;
    persist::Encoder shard_encoder;
    shard_encoder.PutString(name);
    shard_encoder.PutU64(size);
    shard_encoder.PutU32(crc);
    manifest.Add("shard." + std::to_string(shard), std::move(shard_encoder));
  }

  // The manifest's atomic rename is the commit point of the whole fleet
  // checkpoint: before it, restore sees the old epoch; after it, the new.
  const util::Status manifest_status =
      persist::WriteSnapshot(dir + "/" + kManifestName, manifest);
  if (!manifest_status.ok()) return manifest_status;
  checkpoint_epoch_ = epoch;

  // Best-effort cleanup of superseded epochs (crash-safe: losing stale
  // files is the goal, and the committed epoch's files are never touched).
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard-", 0) != 0) continue;
    bool current = false;
    for (std::uint32_t shard = 0; shard < config_.shard_count; ++shard)
      if (name == ShardFileName(shard, epoch)) current = true;
    if (!current) std::filesystem::remove(entry.path(), ec);
  }
  return util::Status();
}

util::Status ShardGroup::RestoreFromDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!vehicles_.empty() || next_fleet_seq_ != 0)
    return util::Status::Error("restore requires a fresh shard group");
  persist::Snapshot manifest;
  const std::string manifest_path = dir + "/" + kManifestName;
  util::Status status = persist::ReadSnapshot(manifest_path, &manifest);
  if (!status.ok()) return status;

  const persist::SnapshotChunk* fleet_chunk = manifest.Find("fleet");
  if (fleet_chunk == nullptr)
    return util::Status::Error("fleet manifest: missing 'fleet' chunk");
  persist::Decoder fleet_decoder(fleet_chunk->payload);
  const std::uint32_t version = fleet_decoder.GetU32();
  const std::uint32_t shard_count = fleet_decoder.GetU32();
  const std::uint64_t hash_seed = fleet_decoder.GetU64();
  const std::uint64_t next_fleet_seq = fleet_decoder.GetU64();
  const std::uint64_t epoch = fleet_decoder.GetU64();
  const std::uint32_t vehicle_count = fleet_decoder.GetU32();
  if (!fleet_decoder.ok())
    return util::Status::Error("fleet manifest: truncated 'fleet' chunk");
  if (version != kManifestVersion)
    return util::Status::Error("fleet manifest: unsupported version " +
                               std::to_string(version));
  if (shard_count != config_.shard_count)
    return util::Status::Error(
        "fleet manifest: shard count mismatch (manifest " +
        std::to_string(shard_count) + ", group " +
        std::to_string(config_.shard_count) + ")");
  if (hash_seed != config_.hash_seed)
    return util::Status::Error("fleet manifest: hash seed mismatch");
  if (vehicle_count > fleet_decoder.remaining() / 4)
    return util::Status::Error(
        "fleet manifest: vehicle count exceeds payload size");
  std::vector<std::int32_t> vehicle_order;
  vehicle_order.reserve(vehicle_count);
  for (std::uint32_t i = 0; i < vehicle_count; ++i)
    vehicle_order.push_back(fleet_decoder.GetI32());
  status = fleet_decoder.ToStatus("fleet manifest 'fleet' chunk");
  if (!status.ok()) return status;

  // Verify every per-shard file against the manifest's fingerprint BEFORE
  // restoring anything: a half-written or bit-flipped shard snapshot must
  // fail the whole fleet restore, not produce a Frankenstein fleet.
  std::vector<std::string> shard_paths(config_.shard_count);
  for (std::uint32_t shard = 0; shard < config_.shard_count; ++shard) {
    const persist::SnapshotChunk* chunk =
        manifest.Find("shard." + std::to_string(shard));
    if (chunk == nullptr)
      return util::Status::Error("fleet manifest: missing shard " +
                                 std::to_string(shard) + " chunk");
    persist::Decoder decoder(chunk->payload);
    const std::string name = decoder.GetString();
    const std::uint64_t expected_size = decoder.GetU64();
    const std::uint32_t expected_crc = decoder.GetU32();
    status = decoder.ToStatus("fleet manifest shard chunk");
    if (!status.ok()) return status;
    const std::string path = dir + "/" + name;
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    status = persist::Crc32OfFile(path, &crc, &size);
    if (!status.ok()) return status;
    if (size != expected_size || crc != expected_crc)
      return util::Status::Error(
          "fleet manifest: " + path + " does not match its fingerprint " +
          "(size " + std::to_string(size) + " vs " +
          std::to_string(expected_size) + ", crc " + std::to_string(crc) +
          " vs " + std::to_string(expected_crc) + ")");
    shard_paths[shard] = path;
  }

  for (std::uint32_t shard = 0; shard < config_.shard_count; ++shard) {
    status = shards_[shard]->RestoreFromFile(shard_paths[shard]);
    if (!status.ok()) return status;
  }

  const persist::SnapshotChunk* agg_chunk = manifest.Find("agg");
  if (agg_chunk == nullptr)
    return util::Status::Error("fleet manifest: missing 'agg' chunk");
  persist::Decoder agg_decoder(agg_chunk->payload);
  if (!sink_.Restore(agg_decoder))
    return util::Status::Error("fleet manifest: malformed 'agg' chunk");
  status = agg_decoder.ToStatus("fleet manifest 'agg' chunk");
  if (!status.ok()) return status;

  // Re-learn the routing records: the shards' restores already recreated
  // their lanes, so RegisterVehicle returns each existing lane index.
  for (const std::int32_t vehicle_id : vehicle_order) {
    VehicleSlot slot;
    slot.vehicle_id = vehicle_id;
    slot.shard = map_.ShardOf(vehicle_id);
    slot.lane =
        shards_[static_cast<std::size_t>(slot.shard)]->RegisterVehicle(
            vehicle_id);
    vehicles_.push_back(slot);
    vehicle_index_.emplace(vehicle_id, vehicles_.size() - 1);
  }

  // Cross-check the composition: every fleet seq below the cursor was
  // admitted by a shard or skipped for a shed, and the sink released up to
  // the cursor - or the manifest and shard files disagree.
  std::uint64_t accepted = 0;
  for (const auto& shard : shards_) accepted += shard->stats().frames_accepted;
  const std::uint64_t skipped = sink_.next_release() - sink_.frames_released();
  if (accepted + skipped != next_fleet_seq)
    return util::Status::Error(
        "fleet manifest: shard admissions sum to " + std::to_string(accepted) +
        " and " + std::to_string(skipped) +
        " seqs were skipped for sheds, but the fleet cursor is " +
        std::to_string(next_fleet_seq));
  if (sink_.next_release() != next_fleet_seq)
    return util::Status::Error("fleet manifest: sink cursor " +
                               std::to_string(sink_.next_release()) +
                               " disagrees with the fleet cursor " +
                               std::to_string(next_fleet_seq));
  next_fleet_seq_ = next_fleet_seq;
  checkpoint_epoch_ = epoch;
  return util::Status();
}

std::vector<core::Alarm> ShardGroup::released_alarms() const {
  return sink_.released();
}

obs::StatsSnapshot ShardGroup::FleetSnapshot() {
  obs::StatsSnapshot fleet;
  for (auto& shard : shards_)
    obs::MergeSnapshot(&fleet, shard->SnapshotStats());
  return fleet;
}

ShardGroupStats ShardGroup::stats() const {
  ShardGroupStats total;
  // Alarms are counted once, by the sink every shard releases through.
  total.alarms_emitted = sink_.alarms_emitted();
  for (const auto& shard : shards_) {
    const service::ServiceStats stats = shard->stats();
    total.frames_submitted += stats.frames_submitted;
    total.frames_accepted += stats.frames_accepted;
    total.frames_rejected += stats.frames_rejected;
    total.frames_processed += stats.frames_processed;
    total.retrains_started += stats.retrains_started;
    total.retrains_completed += stats.retrains_completed;
    total.retrains_failed += stats.retrains_failed;
    total.consensus_suppressed_alarms += stats.consensus_suppressed_alarms;
  }
  return total;
}

std::size_t ShardGroup::vehicle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return vehicles_.size();
}

service::FleetService* ShardGroup::shard_service(int shard) {
  return shards_[static_cast<std::size_t>(shard)].get();
}

void ShardGroup::OnWireRegistration(std::int32_t vehicle_id,
                                    std::uint32_t fleet_order) {
  std::lock_guard<std::mutex> lock(mu_);
  if (vehicle_index_.count(vehicle_id) != 0) return;
  const std::size_t index = fleet_order;
  if (vehicles_.size() <= index) {
    VehicleSlot empty;
    empty.shard = -1;  // unfilled sentinel; Drain CHECKs none remain
    vehicles_.resize(index + 1, empty);
  }
  VehicleSlot& slot = vehicles_[index];
  slot.vehicle_id = vehicle_id;
  slot.shard = map_.ShardOf(vehicle_id);
  slot.lane = shards_[static_cast<std::size_t>(slot.shard)]->RegisterVehicle(
      vehicle_id);
  vehicle_index_.emplace(vehicle_id, index);
}

}  // namespace navarchos::shard
