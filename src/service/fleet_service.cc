#include "service/fleet_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "transform/transformer.h"
#include "util/check.h"

namespace navarchos::service {

namespace {

/// Layout version of the service-level snapshot chunks ("service", "sink",
/// "lane.<i>"), carried in the "service" chunk and bumped whenever any of
/// their encodings changes incompatibly. Version 2 added the lane's
/// last_global_seq (history-record attribution of end-of-stream flushes).
constexpr std::uint32_t kServiceStateVersion = 2;

}  // namespace

// --------------------------------------------------------------- FleetService

FleetService::FleetService(const ServiceConfig& config)
    : FleetService(config, nullptr, nullptr) {}

FleetService::FleetService(const ServiceConfig& config,
                           runtime::ThreadPool* pool, OrderedSink* sink)
    : config_(config),
      owned_sink_(sink == nullptr ? std::make_unique<OrderedSink>() : nullptr),
      sink_(sink != nullptr ? sink : owned_sink_.get()),
      owned_pool_(pool == nullptr ? std::make_unique<runtime::ThreadPool>(
                                        config.runtime.ResolveThreads())
                                  : nullptr),
      pool_(pool != nullptr ? pool : owned_pool_.get()) {
  NAVARCHOS_CHECK(config_.queue_capacity >= 1);
  NAVARCHOS_CHECK(config_.pump_batch >= 1);
  // Wire the registry before anything can count: ingest counters, the
  // shared ensemble metrics and - for an owned sink and pool - their
  // metrics. A borrowed sink or pool is attached by its owner
  // (shard::ShardGroup), not by every sharing service.
  frames_submitted_ = metrics_.counter("service.frames_submitted");
  frames_accepted_ = metrics_.counter("service.frames_accepted");
  frames_rejected_ = metrics_.counter("service.frames_rejected");
  frames_processed_ = metrics_.counter("service.frames_processed");
  retrains_started_ = metrics_.counter("ensemble.retrains_started");
  retrains_completed_ = metrics_.counter("ensemble.retrains_completed");
  retrains_failed_ = metrics_.counter("ensemble.retrains_failed");
  suppressed_alarms_ =
      metrics_.counter("ensemble.consensus_suppressed_alarms");
  retrain_us_ = metrics_.histogram("ensemble.retrain_us");
  if (owned_sink_ != nullptr)
    owned_sink_->AttachMetrics(
        metrics_.counter("service.alarms_emitted"),
        metrics_.histogram("service.admission_to_release_us"));
  if (owned_pool_ != nullptr) owned_pool_->AttachMetrics(&metrics_);
}

FleetService::~FleetService() { Drain(); }

FleetService::VehicleLane* FleetService::LaneOfLocked(std::int32_t vehicle_id) {
  const auto it = lane_index_.find(vehicle_id);
  if (it != lane_index_.end()) return lanes_[it->second].get();
  lanes_.push_back(std::make_unique<VehicleLane>(vehicle_id, config_.monitor,
                                                 config_.queue_capacity));
  // Ensemble retrains run as background tasks on the service pool. Wired
  // before any frame (and before RestoreFrom re-posts a pending fit), so
  // every fit of this lane goes through the same pool.
  lanes_.back()->monitor.set_background_pool(pool_);
  lanes_.back()->monitor.set_retrain_histogram(retrain_us_);
  // Keyed by vehicle id, not lane index, so per-lane gauges stay unique
  // when shard snapshots merge into one fleet view.
  lanes_.back()->depth_peak = metrics_.gauge(
      "service.lane.v" + std::to_string(vehicle_id) + ".depth_peak");
  lane_index_.emplace(vehicle_id, lanes_.size() - 1);
  return lanes_.back().get();
}

int FleetService::RegisterVehicle(std::int32_t vehicle_id) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  NAVARCHOS_CHECK(!draining_);
  LaneOfLocked(vehicle_id);
  return static_cast<int>(lane_index_.at(vehicle_id));
}

util::Status FleetService::TryRegisterVehicle(std::int32_t vehicle_id,
                                              int* lane_out) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (draining_) return util::Status::Error("service is draining");
  LaneOfLocked(vehicle_id);
  if (lane_out != nullptr)
    *lane_out = static_cast<int>(lane_index_.at(vehicle_id));
  return util::Status();
}

void FleetService::SchedulePumpLocked(VehicleLane* lane) {
  std::lock_guard<std::mutex> lock(lane->pump_mu);
  if (lane->pump_scheduled) return;  // a pump is already queued or running
  lane->pump_scheduled = true;
  pool_->Post([this, lane]() { PumpLane(lane); });
}

void FleetService::PumpLane(VehicleLane* lane) {
  // Step up to pump_batch frames, then yield the worker: a flooded vehicle
  // reschedules itself behind the other lanes' pumps instead of starving
  // them. Only one pump per lane is ever scheduled (pump_scheduled), so the
  // monitor is touched by one thread at a time and sees frames in exactly
  // the admitted FIFO order - the per-vehicle half of the determinism story.
  // The batch's completions go to the sink in one deposit, so the sink lock
  // is taken once per pump task.
  const bool history = static_cast<bool>(sink_->history_callback);
  TaggedFrame tagged;
  std::vector<OrderedSink::Entry> completed;
  for (std::size_t n = 0; n < config_.pump_batch && lane->queue.TryPop(&tagged); ++n) {
    OrderedSink::Entry entry;
    entry.alarms = lane->monitor.OnFrame(tagged.frame);
    if (history)
      entry.records = BuildHistoryRecords(lane, entry.alarms, tagged.release_seq);
    entry.completion = {tagged.release_seq, tagged.vehicle_seq,
                        lane->vehicle_id, entry.alarms.size(),
                        tagged.admit_us};
    lane->last_global_seq = tagged.release_seq;
    completed.push_back(std::move(entry));
  }
  frames_processed_->Add(completed.size());
  sink_->Deposit(&completed);

  // Reschedule-or-park must see the producer's push: both sides order their
  // queue access before taking pump_mu, so either the producer observes
  // pump_scheduled == true or this pump observes the non-empty queue.
  std::lock_guard<std::mutex> lock(lane->pump_mu);
  if (!lane->queue.Empty()) {
    pool_->Post([this, lane]() { PumpLane(lane); });
  } else {
    lane->pump_scheduled = false;
  }
}

bool FleetService::Submit(const telemetry::SensorFrame& frame) {
  return Ingest(frame).accepted();
}

Admission FleetService::Ingest(const telemetry::SensorFrame& frame) {
  return Admit(frame, std::nullopt);
}

Admission FleetService::Ingest(const telemetry::SensorFrame& frame,
                               std::uint64_t fleet_seq) {
  const Admission admission = Admit(frame, fleet_seq);
  // Outside ingest_mu_: the skip may make this thread the releaser, which
  // runs the release callbacks.
  if (!admission.accepted()) sink_->Skip(fleet_seq);
  return admission;
}

Admission FleetService::Admit(const telemetry::SensorFrame& frame,
                              std::optional<std::uint64_t> fleet_seq) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  ingest_started_ = true;
  frames_submitted_->IncrementSingleWriter();
  Admission admission;
  admission.vehicle_id = frame.vehicle_id();
  if (draining_) {
    frames_rejected_->IncrementSingleWriter();
    admission.code = AdmissionCode::kShedDraining;
    return admission;
  }
  VehicleLane* lane = LaneOfLocked(frame.vehicle_id());
  admission.lane = static_cast<int>(lane_index_.at(frame.vehicle_id()));
  admission.vehicle_seq = lane->next_vehicle_seq;

  TaggedFrame tagged;
  tagged.release_seq = fleet_seq.value_or(next_global_seq_);
  tagged.vehicle_seq = lane->next_vehicle_seq;
  // Observability sampling: one frame in kLatencySamplePeriod (by release
  // sequence, so the sampled set is identical across runs) carries an
  // admission timestamp and probes the lane depth. Unsampled frames keep
  // admit_us = 0 and skip the probes entirely, which keeps the clock
  // read and the queue-mutex depth probe off the common per-frame path.
  const bool sampled = tagged.release_seq % kLatencySamplePeriod == 0;
  if (sampled) tagged.admit_us = obs::MonotonicMicros();
  tagged.frame = frame;
  const bool admitted = config_.backpressure == BackpressurePolicy::kBlock
                            ? lane->queue.Push(std::move(tagged))
                            : lane->queue.TryPush(std::move(tagged));
  if (!admitted) {
    // Shed (kReject on a full lane). The global sequence numbers were not
    // consumed, so a standalone sink's contiguous release is unaffected.
    frames_rejected_->IncrementSingleWriter();
    admission.code = AdmissionCode::kShedQueueFull;
    return admission;
  }
  admission.code = AdmissionCode::kAccepted;
  admission.global_seq = next_global_seq_;
  ++next_global_seq_;
  ++lane->next_vehicle_seq;
  frames_accepted_->IncrementSingleWriter();
  // The pump may already have popped the frame, and only sampled frames
  // probe, so this is a lower bound on the instantaneous depth - which
  // only makes the recorded high-water mark conservative, never wrong.
  if (sampled) lane->depth_peak->UpdateMax(lane->queue.size());
  SchedulePumpLocked(lane);
  return admission;
}

void FleetService::Close() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  draining_ = true;
  // Closing refuses nothing already admitted: pumps keep TryPop-draining
  // the buffered frames; only new pushes fail.
  for (auto& lane : lanes_) lane->queue.Close();
}

void FleetService::Drain() {
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    if (drained_) return;
  }
  Close();

  // Barrier: a non-empty lane always has a pump queued or running (Submit
  // schedules one on every admission; a pump re-posts itself while its lane
  // is non-empty), so an idle pool means every admitted frame has been
  // processed and completed into the sink.
  pool_->WaitIdle();

  std::lock_guard<std::mutex> lock(ingest_mu_);
  for (auto& lane : lanes_) FlushLaneLocked(lane.get());
  drained_ = true;
}

void FleetService::FlushLane(int lane) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  NAVARCHOS_CHECK(draining_);
  FlushLaneLocked(lanes_.at(static_cast<std::size_t>(lane)).get());
}

void FleetService::FlushLaneLocked(VehicleLane* lane) {
  // End-of-stream flush of the monitor's reorder buffer - deterministic
  // because the drain barrier already passed. Flush records are attributed
  // to the lane's last pumped frame (its seq never decreases within a
  // vehicle, so the log stays delta-encodable).
  if (lane->flushed) return;
  lane->flushed = true;
  std::vector<core::Alarm> alarms = lane->monitor.Flush();
  std::vector<history::HistoryRecord> records;
  if (sink_->history_callback)
    records = BuildHistoryRecords(lane, alarms, lane->last_global_seq);
  sink_->AppendUnsequenced(std::move(alarms), std::move(records));
}

core::FleetRunResult FleetService::TakeResult() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  NAVARCHOS_CHECK(drained_);
  core::FleetRunResult result;
  const auto [pw, pm] = config_.monitor.threshold.ResolvePersistence(
      transform::EffectiveStride(config_.monitor.transform,
                                 config_.monitor.transform_options));
  result.persistence_window = pw;
  result.persistence_min = pm;
  result.threshold_kind = config_.monitor.threshold.kind;
  // A shard's alarms belong to its group's sink; the group takes them.
  if (owned_sink_ != nullptr) result.alarms = std::move(owned_sink_->alarms());
  result.scored_samples.reserve(lanes_.size());
  result.calibrations.reserve(lanes_.size());
  result.quality.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    result.scored_samples.push_back(lane->monitor.scored_samples());
    result.calibrations.push_back(lane->monitor.calibrations());
    result.quality.push_back(lane->monitor.quality());
    result.ensemble_stats.push_back(lane->monitor.ensemble_stats());
    if (result.channel_names.empty())
      result.channel_names = lane->monitor.channel_names();
  }
  return result;
}

ensemble::EnsembleStats FleetService::EnsembleTotalsLocked() const {
  ensemble::EnsembleStats total;
  for (const auto& lane : lanes_) {
    const ensemble::EnsembleStats stats = lane->monitor.ensemble_stats();
    total.retrains_started += stats.retrains_started;
    total.retrains_completed += stats.retrains_completed;
    total.retrains_failed += stats.retrains_failed;
    total.consensus_suppressed_alarms += stats.consensus_suppressed_alarms;
  }
  return total;
}

ServiceStats FleetService::stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    stats.frames_submitted =
        static_cast<std::size_t>(frames_submitted_->value());
    stats.frames_accepted =
        static_cast<std::size_t>(frames_accepted_->value());
    stats.frames_rejected =
        static_cast<std::size_t>(frames_rejected_->value());
    const ensemble::EnsembleStats ensemble = EnsembleTotalsLocked();
    stats.retrains_started = ensemble.retrains_started;
    stats.retrains_completed = ensemble.retrains_completed;
    stats.retrains_failed = ensemble.retrains_failed;
    stats.consensus_suppressed_alarms = ensemble.consensus_suppressed_alarms;
  }
  stats.frames_processed =
      static_cast<std::size_t>(frames_processed_->value());
  stats.alarms_emitted = sink_->alarms_emitted();
  return stats;
}

obs::StatsSnapshot FleetService::SnapshotStats() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  // The fleet-wide ensemble totals live in per-lane atomics (they travel
  // with each lane through checkpoints); mirror them into the registry's
  // derived counters right before snapshotting so the snapshot is
  // self-contained. Set, not Add: the lane atomics stay authoritative.
  const ensemble::EnsembleStats ensemble = EnsembleTotalsLocked();
  retrains_started_->Set(ensemble.retrains_started);
  retrains_completed_->Set(ensemble.retrains_completed);
  retrains_failed_->Set(ensemble.retrains_failed);
  suppressed_alarms_->Set(ensemble.consensus_suppressed_alarms);
  return metrics_.Snapshot();
}

void FleetService::set_alarm_callback(AlarmCallback callback) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  // Before the first Submit - but a restored service carries sequence
  // numbers from its previous life, so the guard is on local ingest, not on
  // next_global_seq_.
  NAVARCHOS_CHECK(!ingest_started_);
  sink_->alarm_callback = std::move(callback);
}

void FleetService::set_completion_callback(CompletionCallback callback) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  NAVARCHOS_CHECK(!ingest_started_);
  sink_->completion_callback = std::move(callback);
}

void FleetService::set_history_callback(HistoryCallback callback) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  NAVARCHOS_CHECK(!ingest_started_);
  // Pumps read the callback without ingest_mu_, but every pump task is
  // posted under it, so the pool's task handoff publishes the write.
  sink_->history_callback = std::move(callback);
}

void FleetService::set_checkpoint_barrier(
    std::function<util::Status()> barrier) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  NAVARCHOS_CHECK(!ingest_started_);
  checkpoint_barrier_ = std::move(barrier);
}

std::vector<history::HistoryRecord> FleetService::BuildHistoryRecords(
    VehicleLane* lane, const std::vector<core::Alarm>& alarms,
    std::uint64_t seq) {
  std::vector<history::HistoryRecord> records;
  const std::vector<core::ScoredSample>& samples =
      lane->monitor.scored_samples();
  const std::vector<core::CalibrationStats>& calibrations =
      lane->monitor.calibrations();
  for (std::size_t i = lane->history_cursor; i < samples.size(); ++i) {
    const core::ScoredSample& sample = samples[i];
    history::HistoryRecord record;
    record.vehicle_id = lane->vehicle_id;
    record.global_seq = seq;
    record.timestamp = sample.timestamp;
    record.votes = sample.votes;
    record.ensemble_live = sample.ensemble_live < 0
                               ? 0u
                               : static_cast<std::uint32_t>(sample.ensemble_live);

    // Mirror the monitor's own threshold computation (constant-threshold
    // detectors use the config's constant, self-tuning ones its factor) so
    // the logged threshold is bit-identical to the alarming one.
    const std::size_t channels = sample.scores.size();
    std::vector<double> thresholds(channels, 0.0);
    if (sample.calibration_index >= 0 &&
        static_cast<std::size_t>(sample.calibration_index) <
            calibrations.size()) {
      const core::CalibrationStats& stats =
          calibrations[static_cast<std::size_t>(sample.calibration_index)];
      const double factor_or_constant = stats.constant_threshold
                                            ? config_.monitor.threshold.constant
                                            : config_.monitor.threshold.factor;
      for (std::size_t c = 0; c < channels; ++c)
        thresholds[c] =
            stats.ThresholdOf(c, config_.monitor.threshold.kind,
                              factor_or_constant);
    }

    // Channels by severity (score relative to threshold) descending, ties
    // to the lower index; non-finite ratios sort last. Deterministic by
    // construction - no float accumulation across threads.
    const auto severity = [&](std::size_t c) {
      const double ratio = thresholds[c] > 0.0
                               ? sample.scores[c] / thresholds[c]
                               : sample.scores[c];
      return std::isnan(ratio) ? -std::numeric_limits<double>::infinity()
                               : ratio;
    };
    std::vector<std::size_t> order(channels);
    for (std::size_t c = 0; c < channels; ++c) order[c] = c;
    std::sort(order.begin(), order.end(),
              [&severity](std::size_t a, std::size_t b) {
                const double sa = severity(a);
                const double sb = severity(b);
                if (sa != sb) return sa > sb;
                return a < b;
              });
    if (!order.empty()) {
      record.score = sample.scores[order[0]];
      record.threshold = thresholds[order[0]];
    }
    const std::size_t top_k = std::min(
        {config_.history_top_k, channels, history::kMaxTopChannels});
    record.top_channels.reserve(top_k);
    for (std::size_t c = 0; c < top_k; ++c)
      record.top_channels.push_back(static_cast<std::uint32_t>(order[c]));

    for (const core::Alarm& alarm : alarms) {
      if (alarm.timestamp == sample.timestamp) {
        record.alarm = true;
        break;
      }
    }
    records.push_back(std::move(record));
  }
  lane->history_cursor = samples.size();
  return records;
}

std::size_t FleetService::vehicle_count() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return lanes_.size();
}

std::size_t FleetService::ensemble_state_bytes() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->monitor.ensemble_bytes();
  return total;
}

// --------------------------------------------------------- checkpoint/restore

void FleetService::SaveLocked(persist::Snapshot* snapshot) const {
  // "service" chunk: version, cursors and counters, lane count.
  persist::Encoder service_encoder;
  service_encoder.PutU32(kServiceStateVersion);
  service_encoder.PutU64(next_global_seq_);
  service_encoder.PutU64(frames_submitted_->value());
  service_encoder.PutU64(frames_accepted_->value());
  service_encoder.PutU64(frames_rejected_->value());
  service_encoder.PutU64(lanes_.size());
  snapshot->Add("service", std::move(service_encoder));

  // "sink" chunk: release cursor, frames released and the released alarms
  // in total order. A shard's frames release through its group's sink,
  // which the fleet manifest saves; the shard saves a sink that released
  // its own frames and no alarm, so its file still restores into a
  // standalone service.
  persist::Encoder sink_encoder;
  if (owned_sink_ != nullptr) {
    owned_sink_->Save(sink_encoder);
  } else {
    sink_encoder.PutU64(next_global_seq_);
    sink_encoder.PutU64(frames_processed_->value());
    sink_encoder.PutU64(0);  // released alarms
  }
  snapshot->Add("sink", std::move(sink_encoder));

  // One "lane.<i>" chunk per registered vehicle, in registration order, so a
  // restore recreates the same lane indices (TakeResult alignment).
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const VehicleLane& lane = *lanes_[i];
    persist::Encoder lane_encoder;
    lane_encoder.PutI32(lane.vehicle_id);
    lane_encoder.PutU64(lane.next_vehicle_seq);
    lane_encoder.PutU64(lane.last_global_seq);
    lane.monitor.Save(lane_encoder);
    snapshot->Add("lane." + std::to_string(i), std::move(lane_encoder));
  }
}

util::Status FleetService::Checkpoint(const std::string& path) {
  // Holding ingest_mu_ blocks new admissions; the pumps do not need it, so
  // they drain every already-admitted frame and the pool falls idle - at
  // which point the sink has released everything (no pending completions)
  // and every monitor is between frames. That is exactly the state a
  // restarted service must resume from.
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (draining_ || drained_)
    return util::Status::Error("checkpoint: service is draining or drained");
  pool_->WaitIdle();
  if (checkpoint_barrier_) {
    // Make dependent state (the history log) durable BEFORE the snapshot:
    // whichever of the two files a crash leaves behind, the log always
    // covers at least the surviving checkpoint, so a restore's replay can
    // re-emit the difference and never has to invent lost records.
    const util::Status status = checkpoint_barrier_();
    if (!status.ok())
      return util::Status::Error("checkpoint barrier failed: " +
                                 status.message());
  }
  persist::Snapshot snapshot;
  SaveLocked(&snapshot);
  return persist::WriteSnapshot(path, snapshot);
}

util::Status FleetService::RestoreFrom(const persist::Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (ingest_started_ || next_global_seq_ != 0 || !lanes_.empty() || draining_)
    return util::Status::Error("restore: service is not fresh");

  const persist::SnapshotChunk* service_chunk = snapshot.Find("service");
  if (service_chunk == nullptr)
    return util::Status::Error("restore: snapshot has no \"service\" chunk");
  persist::Decoder service_decoder(service_chunk->payload.data(),
                                   service_chunk->payload.size());
  const std::uint32_t version = service_decoder.GetU32();
  if (service_decoder.ok() && version != kServiceStateVersion) {
    return util::Status::Error(
        "restore: unsupported service state version " + std::to_string(version) +
        " (expected " + std::to_string(kServiceStateVersion) + ")");
  }
  const std::uint64_t next_global_seq = service_decoder.GetU64();
  const std::uint64_t frames_submitted = service_decoder.GetU64();
  const std::uint64_t frames_accepted = service_decoder.GetU64();
  const std::uint64_t frames_rejected = service_decoder.GetU64();
  const std::uint64_t lane_count = service_decoder.GetU64();
  util::Status status = service_decoder.ToStatus("service chunk");
  if (!status.ok()) return status;
  if (lane_count > snapshot.chunks().size())
    return util::Status::Error("restore: service chunk claims " +
                               std::to_string(lane_count) +
                               " lanes but the snapshot has only " +
                               std::to_string(snapshot.chunks().size()) +
                               " chunks");

  // Lanes in saved registration order, each with its monitor state.
  for (std::uint64_t i = 0; i < lane_count; ++i) {
    const std::string tag = "lane." + std::to_string(i);
    const persist::SnapshotChunk* chunk = snapshot.Find(tag);
    if (chunk == nullptr)
      return util::Status::Error("restore: snapshot has no \"" + tag + "\" chunk");
    persist::Decoder decoder(chunk->payload.data(), chunk->payload.size());
    const std::int32_t vehicle_id = decoder.GetI32();
    const std::uint64_t next_vehicle_seq = decoder.GetU64();
    const std::uint64_t last_global_seq = decoder.GetU64();
    if (decoder.ok() && lane_index_.count(vehicle_id) != 0)
      decoder.Fail("duplicate vehicle id " + std::to_string(vehicle_id));
    if (!decoder.ok()) return decoder.ToStatus(tag + " chunk");
    VehicleLane* lane = LaneOfLocked(vehicle_id);
    lane->next_vehicle_seq = next_vehicle_seq;
    lane->last_global_seq = last_global_seq;
    if (!lane->monitor.Restore(decoder)) return decoder.ToStatus(tag + " chunk");
    status = decoder.ToStatus(tag + " chunk");
    if (!status.ok()) return status;
    // Samples restored with the monitor were already released (and logged,
    // when a history writer was attached) before the checkpoint.
    lane->history_cursor = lane->monitor.scored_samples().size();
  }

  const persist::SnapshotChunk* sink_chunk = snapshot.Find("sink");
  if (sink_chunk == nullptr)
    return util::Status::Error("restore: snapshot has no \"sink\" chunk");
  persist::Decoder sink_decoder(sink_chunk->payload.data(),
                                sink_chunk->payload.size());
  // A shard reads its chunk only for its frame count: its group restores
  // the shared sink from the fleet manifest.
  OrderedSink shard_sink;
  OrderedSink* sink = owned_sink_ != nullptr ? owned_sink_.get() : &shard_sink;
  if (!sink->Restore(sink_decoder)) return sink_decoder.ToStatus("sink chunk");
  status = sink_decoder.ToStatus("sink chunk");
  if (!status.ok()) return status;

  // Quiescence invariants of a checkpoint: everything admitted was released.
  const std::uint64_t frames_processed = sink->frames_released();
  if (frames_processed != frames_accepted)
    return util::Status::Error(
        "restore: snapshot inconsistent (processed " +
        std::to_string(frames_processed) + " frames, accepted " +
        std::to_string(frames_accepted) + ")");

  next_global_seq_ = next_global_seq;
  frames_submitted_->Set(frames_submitted);
  frames_accepted_->Set(frames_accepted);
  frames_rejected_->Set(frames_rejected);
  frames_processed_->Set(frames_processed);
  return util::Status();
}

util::Status FleetService::RestoreFromFile(const std::string& path) {
  persist::Snapshot snapshot;
  util::Status status = persist::ReadSnapshot(path, &snapshot);
  if (!status.ok()) return status;
  return RestoreFrom(snapshot);
}

std::vector<core::Alarm> FleetService::released_alarms() const {
  return sink_->released();
}

// ------------------------------------------------------------------- helpers

core::FleetRunResult RunStream(const std::vector<telemetry::SensorFrame>& stream,
                               const std::vector<std::int32_t>& vehicle_ids,
                               const ServiceConfig& config) {
  FleetService service(config);
  for (const std::int32_t id : vehicle_ids) service.RegisterVehicle(id);
  for (const telemetry::SensorFrame& frame : stream) service.Submit(frame);
  service.Drain();
  return service.TakeResult();
}

std::vector<std::int32_t> VehicleIdsOf(const telemetry::FleetDataset& fleet) {
  std::vector<std::int32_t> ids;
  ids.reserve(fleet.vehicles.size());
  for (const telemetry::VehicleHistory& vehicle : fleet.vehicles)
    ids.push_back(vehicle.spec.id);
  return ids;
}

}  // namespace navarchos::service
