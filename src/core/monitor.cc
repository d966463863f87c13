#include "core/monitor.h"

#include <algorithm>
#include <cmath>

#include "telemetry/filters.h"
#include "util/check.h"
#include "util/statistics.h"

namespace navarchos::core {

std::size_t MonitorConfig::ResolveProfileLength() const {
  const int stride = transform::EffectiveStride(transform, transform_options);
  const double samples = profile_minutes / static_cast<double>(stride);
  return static_cast<std::size_t>(std::clamp(samples, 16.0, 8000.0));
}

double CalibrationStats::ThresholdOf(std::size_t c,
                                     detect::ThresholdConfig::Kind kind,
                                     double factor_or_constant) const {
  if (constant_threshold) return factor_or_constant;
  switch (kind) {
    case detect::ThresholdConfig::Kind::kSelfTuning:
      return mean[c] + factor_or_constant * stddev[c];
    case detect::ThresholdConfig::Kind::kMedianMad:
      // 1.4826 makes the MAD a consistent sigma estimator under normality.
      return median[c] + factor_or_constant * 1.4826 * mad[c];
    case detect::ThresholdConfig::Kind::kMaxHealthy:
      return factor_or_constant * max[c];
    case detect::ThresholdConfig::Kind::kConstant:
      return factor_or_constant;
  }
  return factor_or_constant;
}

std::size_t DataQualityReport::RecordsDropped() const {
  return duplicates_dropped + late_dropped + non_finite_dropped +
         stationary_dropped + sensor_faulty_dropped + stuck_run_dropped;
}

void DataQualityReport::Add(const DataQualityReport& other) {
  records_seen += other.records_seen;
  duplicates_dropped += other.duplicates_dropped;
  reordered_recovered += other.reordered_recovered;
  late_dropped += other.late_dropped;
  non_finite_dropped += other.non_finite_dropped;
  stationary_dropped += other.stationary_dropped;
  sensor_faulty_dropped += other.sensor_faulty_dropped;
  stuck_run_records += other.stuck_run_records;
  stuck_run_dropped += other.stuck_run_dropped;
  non_finite_features_dropped += other.non_finite_features_dropped;
  non_finite_scores_dropped += other.non_finite_scores_dropped;
  quarantine_events += other.quarantine_events;
}

VehicleMonitor::VehicleMonitor(std::int32_t vehicle_id, const MonitorConfig& config)
    : vehicle_id_(vehicle_id), config_(config) {
  transformer_ = transform::MakeTransformer(config_.transform, config_.transform_options);
  detect::DetectorOptions options = config_.detector_options;
  if (options.feature_names.empty()) options.feature_names = transformer_->FeatureNames();
  detector_ = detect::MakeDetector(config_.detector, options);
  Initialise();
}

VehicleMonitor::VehicleMonitor(std::int32_t vehicle_id, const MonitorConfig& config,
                               std::unique_ptr<transform::Transformer> transformer,
                               std::unique_ptr<detect::Detector> detector)
    : vehicle_id_(vehicle_id), config_(config) {
  NAVARCHOS_CHECK(transformer != nullptr && detector != nullptr);
  transformer_ = std::move(transformer);
  detector_ = std::move(detector);
  Initialise();
}

void VehicleMonitor::Initialise() {
  profile_length_ = config_.ResolveProfileLength();
  NAVARCHOS_CHECK(profile_length_ >= detector_->MinReferenceSize());
  NAVARCHOS_CHECK(config_.ingest.reorder_capacity >= 0);
  quality_.vehicle_id = vehicle_id_;
  if (config_.ensemble.enabled) {
    ensemble::EnsembleRuntime runtime;
    runtime.detector = config_.detector;
    runtime.detector_options = config_.detector_options;
    if (runtime.detector_options.feature_names.empty())
      runtime.detector_options.feature_names = transformer_->FeatureNames();
    runtime.threshold = config_.threshold;
    runtime.exclusion_radius = std::max(
        1, config_.transform_options.window / config_.transform_options.stride);
    runtime.window = config_.ensemble.window > 0
                         ? static_cast<std::size_t>(config_.ensemble.window)
                         : profile_length_;
    ensemble_ =
        std::make_unique<ensemble::RollingEnsemble>(config_.ensemble, runtime);
  }
}

void VehicleMonitor::set_background_pool(runtime::ThreadPool* pool) {
  if (ensemble_ != nullptr) ensemble_->set_pool(pool);
}

void VehicleMonitor::set_retrain_histogram(obs::Histogram* histogram) {
  if (ensemble_ != nullptr) ensemble_->set_retrain_histogram(histogram);
}

ensemble::EnsembleStats VehicleMonitor::ensemble_stats() const {
  return ensemble_ != nullptr ? ensemble_->stats() : ensemble::EnsembleStats();
}

std::size_t VehicleMonitor::ensemble_bytes() const {
  return ensemble_ != nullptr ? ensemble_->EncodedBytes() : 0;
}

void VehicleMonitor::ResetReference() {
  reference_.clear();
  calibration_scores_.clear();
  fitted_ = false;
  calibrating_ = false;
  quarantined_ = false;
  persistence_.reset();
  // The raw-data buffer restarts as well: the paper discards the old data
  // when a new reference is triggered.
  transformer_->Reset();
  // Ensemble members trained on pre-maintenance data are no longer a
  // healthy reference; the ensemble rebuilds from the new cycle's stream.
  if (ensemble_ != nullptr) ensemble_->Reset();
}

std::vector<Alarm> VehicleMonitor::OnEvent(const telemetry::FleetEvent& event) {
  if (!event.recorded) return {};  // invisible to the FMS platform
  const bool triggers =
      (event.type == telemetry::EventType::kService && config_.reset_on_service) ||
      (event.type == telemetry::EventType::kRepair && config_.reset_on_repair);
  if (!triggers) return {};
  // Buffered records precede the event in stream time: release them into the
  // closing cycle before discarding it.
  std::vector<Alarm> alarms = Flush();
  ResetReference();
  return alarms;
}

std::vector<Alarm> VehicleMonitor::OnFrame(const telemetry::SensorFrame& frame) {
  if (frame.kind == telemetry::SensorFrame::Kind::kEvent) return OnEvent(frame.event);
  std::vector<Alarm> alarms;
  if (auto alarm = OnRecord(frame.record)) alarms.push_back(std::move(*alarm));
  return alarms;
}

std::vector<Alarm> VehicleMonitor::Flush() {
  std::vector<Alarm> alarms;
  while (!reorder_buffer_.empty()) {
    if (auto alarm = ReleaseOldest()) alarms.push_back(std::move(*alarm));
  }
  return alarms;
}

std::optional<Alarm> VehicleMonitor::ReleaseOldest() {
  telemetry::Record record = std::move(reorder_buffer_.front());
  reorder_buffer_.pop_front();
  watermark_ = record.timestamp;
  has_released_ = true;
  recent_released_.push_back(record);
  const std::size_t ring_size =
      static_cast<std::size_t>(std::max(4, 4 * config_.ingest.reorder_capacity));
  while (recent_released_.size() > ring_size) recent_released_.pop_front();
  return ProcessRecord(record);
}

void VehicleMonitor::FitOnReference() {
  detector_->Fit(reference_);
  channel_names_ = detector_->ChannelNames();
  calibration_scores_.clear();
  fitted_ = true;
  calibrating_ = true;
  ++fit_count_;
}

namespace {

bool AllFinite(const std::vector<double>& values) {
  for (double value : values)
    if (!std::isfinite(value)) return false;
  return true;
}

}  // namespace

void VehicleMonitor::FinishCalibration() {
  // Thresholds from two sources of honestly out-of-sample healthy scores:
  //  * burn-in scores of the period right after the maintenance event (the
  //    data most plausibly healthy), and
  //  * leave-block-out scores of the reference samples themselves, which
  //    span the full reference period's variability (usage regimes,
  //    weather) where the detector supports them.
  std::vector<std::vector<double>> calib = calibration_scores_;
  const int exclusion =
      std::max(1, config_.transform_options.window / config_.transform_options.stride);
  for (auto& row : detector_->SelfCalibrationScores(exclusion))
    calib.push_back(std::move(row));

  CalibrationStats stats;
  stats.constant_threshold = detector_->ScoresAreProbabilities();
  const std::size_t channels = detector_->ScoreChannels();
  stats.mean.assign(channels, 0.0);
  stats.stddev.assign(channels, 0.0);
  stats.median.assign(channels, 0.0);
  stats.mad.assign(channels, 0.0);
  stats.max.assign(channels, 0.0);
  std::vector<double> column(calib.size());
  std::vector<double> deviations(calib.size());
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < calib.size(); ++i) column[i] = calib[i][c];
    stats.mean[c] = util::Mean(column);
    stats.stddev[c] = util::StdDev(column);
    stats.median[c] = util::Median(column);
    for (std::size_t i = 0; i < column.size(); ++i)
      deviations[i] = std::fabs(column[i] - stats.median[c]);
    stats.mad[c] = util::Median(deviations);
    stats.max[c] = util::Max(column);
  }

  // A detector whose calibration statistics come out non-finite cannot
  // self-tune a trustworthy threshold: quarantine this reference cycle
  // (suppress alarms, discard the calibration) and wait for the next
  // maintenance reset to re-fit.
  if (!AllFinite(stats.mean) || !AllFinite(stats.stddev) ||
      !AllFinite(stats.median) || !AllFinite(stats.mad) || !AllFinite(stats.max)) {
    quarantined_ = true;
    calibrating_ = false;
    calibration_scores_.clear();
    ++quality_.quarantine_events;
    return;
  }

  std::vector<double> thresholds(channels);
  const double factor_or_constant = detector_->ScoresAreProbabilities()
                                        ? config_.threshold.constant
                                        : config_.threshold.factor;
  for (std::size_t c = 0; c < channels; ++c)
    thresholds[c] = stats.ThresholdOf(c, config_.threshold.kind, factor_or_constant);
  policy_ = detect::ThresholdPolicy::Explicit(std::move(thresholds));
  calibrations_.push_back(std::move(stats));
  calibrating_ = false;
}

std::optional<Alarm> VehicleMonitor::OnRecord(const telemetry::Record& record) {
  ++quality_.records_seen;
  if (!config_.ingest.enabled) return ProcessRecord(record);

  // Duplicate delivery: same timestamp AND identical payload as a record
  // still buffered or recently released (equal timestamps with differing
  // payloads are legitimate, e.g. sub-minute bursts, and pass through).
  const auto duplicates = [&record](const telemetry::Record& seen) {
    return seen.timestamp == record.timestamp && seen.pids == record.pids;
  };
  for (auto it = reorder_buffer_.rbegin(); it != reorder_buffer_.rend(); ++it) {
    if (it->timestamp < record.timestamp) break;
    if (duplicates(*it)) {
      ++quality_.duplicates_dropped;
      return std::nullopt;
    }
  }
  if (has_released_ && record.timestamp <= watermark_) {
    for (const auto& seen : recent_released_) {
      if (duplicates(seen)) {
        ++quality_.duplicates_dropped;
        return std::nullopt;
      }
    }
    if (record.timestamp < watermark_) {
      // Arrived after newer records were already released: beyond repair.
      ++quality_.late_dropped;
      return std::nullopt;
    }
  }

  // Resequence: insert in timestamp order (arrival order on ties).
  const telemetry::Minute newest =
      reorder_buffer_.empty() ? watermark_ : reorder_buffer_.back().timestamp;
  if ((has_released_ || !reorder_buffer_.empty()) && record.timestamp < newest)
    ++quality_.reordered_recovered;
  const auto position = std::upper_bound(
      reorder_buffer_.begin(), reorder_buffer_.end(), record,
      [](const telemetry::Record& a, const telemetry::Record& b) {
        return a.timestamp < b.timestamp;
      });
  reorder_buffer_.insert(position, record);

  std::optional<Alarm> alarm;
  while (reorder_buffer_.size() >
         static_cast<std::size_t>(config_.ingest.reorder_capacity)) {
    auto released = ReleaseOldest();
    if (released && !alarm) alarm = std::move(released);
  }
  return alarm;
}

std::optional<Alarm> VehicleMonitor::ProcessRecord(const telemetry::Record& record) {
  // Non-finite readings are classified before the range filter: NaN compares
  // false against every bound, so they would otherwise masquerade as usable.
  for (double value : record.pids) {
    if (!std::isfinite(value)) {
      ++quality_.non_finite_dropped;
      return std::nullopt;
    }
  }
  if (telemetry::IsStationary(record)) {
    ++quality_.stationary_dropped;
    return std::nullopt;
  }
  if (telemetry::IsSensorFaulty(record)) {
    ++quality_.sensor_faulty_dropped;
    return std::nullopt;
  }

  // Stuck-sensor runs: a channel repeating the exact same value across
  // consecutive usable records. Always counted; dropping is opt-in.
  bool in_stuck_run = false;
  if (config_.ingest.stuck_run_length > 0) {
    if (has_stuck_previous_) {
      for (int c = 0; c < telemetry::kNumPids; ++c) {
        const auto channel = static_cast<std::size_t>(c);
        if (record.pids[channel] == stuck_previous_[channel]) {
          if (++stuck_run_[channel] >= config_.ingest.stuck_run_length)
            in_stuck_run = true;
        } else {
          stuck_run_[channel] = 1;
        }
      }
    } else {
      stuck_run_.fill(1);
    }
    stuck_previous_ = record.pids;
    has_stuck_previous_ = true;
    if (in_stuck_run) {
      ++quality_.stuck_run_records;
      if (config_.ingest.drop_stuck_runs) {
        ++quality_.stuck_run_dropped;
        return std::nullopt;
      }
    }
  }

  auto sample = transformer_->Collect(record);
  if (!sample) return std::nullopt;
  if (!AllFinite(sample->features)) {
    ++quality_.non_finite_features_dropped;
    return std::nullopt;
  }

  // The rolling ensemble sees every usable sample - including the ones
  // still building the primary reference - so its members' windows and its
  // retrain schedule are pure functions of the stream.
  ensemble::Verdict verdict;
  if (ensemble_ != nullptr) verdict = ensemble_->OnSample(sample->features);

  if (!fitted_) {
    reference_.push_back(std::move(sample->features));
    if (reference_.size() >= profile_length_) FitOnReference();
    return std::nullopt;
  }

  // A quarantined cycle scores nothing until a maintenance reset re-fits.
  if (quarantined_) return std::nullopt;

  if (calibrating_) {
    std::vector<double> scores = detector_->Score(sample->features);
    if (!AllFinite(scores)) {
      // The detector cannot be trusted on this reference: quarantine the
      // cycle instead of folding NaN/Inf into the self-tuning thresholds.
      quarantined_ = true;
      calibrating_ = false;
      calibration_scores_.clear();
      ++quality_.quarantine_events;
      return std::nullopt;
    }
    calibration_scores_.push_back(std::move(scores));
    const int burn_in = config_.threshold.ResolveBurnIn(
        transform::EffectiveStride(config_.transform, config_.transform_options));
    if (calibration_scores_.size() >= static_cast<std::size_t>(burn_in)) {
      FinishCalibration();
    }
    return std::nullopt;
  }

  ScoredSample scored;
  scored.vehicle_id = vehicle_id_;
  scored.timestamp = sample->timestamp;
  scored.scores = detector_->Score(sample->features);
  if (!AllFinite(scored.scores)) {
    ++quality_.non_finite_scores_dropped;
    return std::nullopt;
  }
  scored.calibration_index = static_cast<int>(calibrations_.size()) - 1;
  if (ensemble_ != nullptr) {
    scored.votes = verdict.votes;
    scored.ensemble_live = verdict.live;
  }
  scored_samples_.push_back(scored);

  // Windowed persistence: only channels violating on most recent samples
  // raise an alarm (see ThresholdConfig).
  if (persistence_ == nullptr) {
    const auto [window, min_violations] = config_.threshold.ResolvePersistence(
        transform::EffectiveStride(config_.transform, config_.transform_options));
    persistence_ = std::make_unique<detect::PersistenceTracker>(
        window, min_violations, scored.scores.size());
  }
  const auto& thresholds = policy_.thresholds();
  std::vector<bool> violations(scored.scores.size());
  for (std::size_t c = 0; c < scored.scores.size(); ++c)
    violations[c] = scored.scores[c] > thresholds[c];
  const std::vector<bool> fires = persistence_->Update(violations);

  std::optional<std::size_t> worst;
  double worst_excess = 0.0;
  for (std::size_t c = 0; c < scored.scores.size(); ++c) {
    // Alarm only while the channel is both persistently and currently in
    // violation (no trailing alarms after the scores recover).
    if (!fires[c] || !violations[c]) continue;
    const double excess = scored.scores[c] - thresholds[c];
    if (!worst || excess > worst_excess) {
      worst = c;
      worst_excess = excess;
    }
  }
  if (!worst) return std::nullopt;
  // Consensus gate: the primary detector's alarm candidate passes only
  // when at least M live ensemble members independently agree the sample
  // is anomalous (a bootstrapping ensemble with no members abstains).
  if (ensemble_ != nullptr && !verdict.pass) {
    ensemble_->RecordSuppressedAlarm();
    return std::nullopt;
  }
  Alarm alarm;
  alarm.vehicle_id = vehicle_id_;
  alarm.timestamp = sample->timestamp;
  alarm.channel = *worst;
  alarm.channel_name = *worst < channel_names_.size()
                           ? channel_names_[*worst]
                           : "ch" + std::to_string(*worst);
  alarm.score = scored.scores[*worst];
  alarm.threshold = thresholds[*worst];
  return alarm;
}

void SaveAlarm(persist::Encoder& encoder, const Alarm& alarm) {
  encoder.PutI32(alarm.vehicle_id);
  encoder.PutI64(alarm.timestamp);
  encoder.PutU64(alarm.channel);
  encoder.PutString(alarm.channel_name);
  encoder.PutDouble(alarm.score);
  encoder.PutDouble(alarm.threshold);
}

bool RestoreAlarm(persist::Decoder& decoder, Alarm* alarm) {
  alarm->vehicle_id = decoder.GetI32();
  alarm->timestamp = decoder.GetI64();
  alarm->channel = static_cast<std::size_t>(decoder.GetU64());
  alarm->channel_name = decoder.GetString();
  alarm->score = decoder.GetDouble();
  alarm->threshold = decoder.GetDouble();
  return decoder.ok();
}

namespace {

// Monitor chunk-payload layout version; bumped on any change below.
// Version 2 added the scored samples' consensus votes/live fields and the
// trailing rolling-ensemble state.
constexpr std::uint32_t kMonitorStateVersion = 2;

void SaveRecord(persist::Encoder& encoder, const telemetry::Record& record) {
  encoder.PutI32(record.vehicle_id);
  encoder.PutI64(record.timestamp);
  for (double value : record.pids) encoder.PutDouble(value);
}

telemetry::Record RestoreRecord(persist::Decoder& decoder) {
  telemetry::Record record;
  record.vehicle_id = decoder.GetI32();
  record.timestamp = decoder.GetI64();
  for (double& value : record.pids) value = decoder.GetDouble();
  return record;
}

void SaveQuality(persist::Encoder& encoder, const DataQualityReport& quality) {
  encoder.PutI32(quality.vehicle_id);
  encoder.PutU64(quality.records_seen);
  encoder.PutU64(quality.duplicates_dropped);
  encoder.PutU64(quality.reordered_recovered);
  encoder.PutU64(quality.late_dropped);
  encoder.PutU64(quality.non_finite_dropped);
  encoder.PutU64(quality.stationary_dropped);
  encoder.PutU64(quality.sensor_faulty_dropped);
  encoder.PutU64(quality.stuck_run_records);
  encoder.PutU64(quality.stuck_run_dropped);
  encoder.PutU64(quality.non_finite_features_dropped);
  encoder.PutU64(quality.non_finite_scores_dropped);
  encoder.PutU64(quality.quarantine_events);
}

DataQualityReport RestoreQuality(persist::Decoder& decoder) {
  DataQualityReport quality;
  quality.vehicle_id = decoder.GetI32();
  quality.records_seen = decoder.GetU64();
  quality.duplicates_dropped = decoder.GetU64();
  quality.reordered_recovered = decoder.GetU64();
  quality.late_dropped = decoder.GetU64();
  quality.non_finite_dropped = decoder.GetU64();
  quality.stationary_dropped = decoder.GetU64();
  quality.sensor_faulty_dropped = decoder.GetU64();
  quality.stuck_run_records = decoder.GetU64();
  quality.stuck_run_dropped = decoder.GetU64();
  quality.non_finite_features_dropped = decoder.GetU64();
  quality.non_finite_scores_dropped = decoder.GetU64();
  quality.quarantine_events = decoder.GetU64();
  return quality;
}

}  // namespace

void VehicleMonitor::Save(persist::Encoder& encoder) const {
  encoder.PutU32(kMonitorStateVersion);
  // Fingerprint: enough to reject a snapshot taken under a different
  // configuration before any state is interpreted.
  encoder.PutI32(vehicle_id_);
  encoder.PutString(transformer_->Name());
  encoder.PutString(detector_->Name());
  encoder.PutU64(profile_length_);

  transformer_->SaveState(encoder);
  detector_->SaveState(encoder);

  encoder.PutDoubleMat(reference_);
  encoder.PutDoubleMat(calibration_scores_);
  encoder.PutBool(fitted_);
  encoder.PutBool(calibrating_);
  encoder.PutBool(quarantined_);
  encoder.PutI32(fit_count_);
  encoder.PutDoubleVec(policy_.thresholds());
  encoder.PutU64(channel_names_.size());
  for (const std::string& name : channel_names_) encoder.PutString(name);

  encoder.PutU64(calibrations_.size());
  for (const CalibrationStats& stats : calibrations_) {
    encoder.PutDoubleVec(stats.mean);
    encoder.PutDoubleVec(stats.stddev);
    encoder.PutDoubleVec(stats.median);
    encoder.PutDoubleVec(stats.mad);
    encoder.PutDoubleVec(stats.max);
    encoder.PutBool(stats.constant_threshold);
  }

  encoder.PutU64(scored_samples_.size());
  for (const ScoredSample& sample : scored_samples_) {
    encoder.PutI32(sample.vehicle_id);
    encoder.PutI64(sample.timestamp);
    encoder.PutDoubleVec(sample.scores);
    encoder.PutI32(sample.calibration_index);
    encoder.PutI32(sample.votes);
    encoder.PutI32(sample.ensemble_live);
  }

  encoder.PutBool(persistence_ != nullptr);
  if (persistence_ != nullptr) {
    encoder.PutU64(policy_.thresholds().size());
    persistence_->Save(encoder);
  }

  SaveQuality(encoder, quality_);
  encoder.PutU64(reorder_buffer_.size());
  for (const auto& record : reorder_buffer_) SaveRecord(encoder, record);
  encoder.PutU64(recent_released_.size());
  for (const auto& record : recent_released_) SaveRecord(encoder, record);
  encoder.PutI64(watermark_);
  encoder.PutBool(has_released_);
  for (double value : stuck_previous_) encoder.PutDouble(value);
  for (int run : stuck_run_) encoder.PutI32(run);
  encoder.PutBool(has_stuck_previous_);

  encoder.PutBool(ensemble_ != nullptr);
  if (ensemble_ != nullptr) ensemble_->Save(encoder);
}

bool VehicleMonitor::Restore(persist::Decoder& decoder) {
  const std::uint32_t version = decoder.GetU32();
  if (decoder.ok() && version != kMonitorStateVersion) {
    decoder.Fail("unsupported monitor state version " + std::to_string(version));
    return false;
  }
  const std::int32_t vehicle_id = decoder.GetI32();
  const std::string transformer_name = decoder.GetString();
  const std::string detector_name = decoder.GetString();
  const std::uint64_t profile_length = decoder.GetU64();
  if (!decoder.ok()) return false;
  if (vehicle_id != vehicle_id_ || transformer_name != transformer_->Name() ||
      detector_name != detector_->Name() || profile_length != profile_length_) {
    decoder.Fail("monitor fingerprint mismatch: snapshot is for vehicle " +
                 std::to_string(vehicle_id) + "/" + transformer_name + "/" +
                 detector_name + ", this monitor is vehicle " +
                 std::to_string(vehicle_id_) + "/" + transformer_->Name() + "/" +
                 detector_->Name());
    return false;
  }

  if (!transformer_->RestoreState(decoder)) return false;
  if (!detector_->RestoreState(decoder)) return false;

  reference_ = decoder.GetDoubleMat();
  calibration_scores_ = decoder.GetDoubleMat();
  fitted_ = decoder.GetBool();
  calibrating_ = decoder.GetBool();
  quarantined_ = decoder.GetBool();
  fit_count_ = decoder.GetI32();
  // Empty thresholds = not yet calibrated (Explicit rejects empty vectors).
  std::vector<double> thresholds = decoder.GetDoubleVec();
  policy_ = thresholds.empty() ? detect::ThresholdPolicy()
                               : detect::ThresholdPolicy::Explicit(std::move(thresholds));
  const std::uint64_t name_count = decoder.GetU64();
  if (!decoder.ok() || name_count > decoder.remaining() / 8) {
    decoder.Fail("monitor channel-name count out of bounds");
    return false;
  }
  channel_names_.clear();
  for (std::uint64_t i = 0; i < name_count; ++i)
    channel_names_.push_back(decoder.GetString());

  const std::uint64_t calibration_count = decoder.GetU64();
  if (!decoder.ok() || calibration_count > decoder.remaining() / 41) {
    decoder.Fail("monitor calibration count out of bounds");
    return false;
  }
  calibrations_.clear();
  for (std::uint64_t i = 0; i < calibration_count; ++i) {
    CalibrationStats stats;
    stats.mean = decoder.GetDoubleVec();
    stats.stddev = decoder.GetDoubleVec();
    stats.median = decoder.GetDoubleVec();
    stats.mad = decoder.GetDoubleVec();
    stats.max = decoder.GetDoubleVec();
    stats.constant_threshold = decoder.GetBool();
    if (!decoder.ok()) return false;
    calibrations_.push_back(std::move(stats));
  }

  const std::uint64_t sample_count = decoder.GetU64();
  if (!decoder.ok() || sample_count > decoder.remaining() / 32) {
    decoder.Fail("monitor scored-sample count out of bounds");
    return false;
  }
  scored_samples_.clear();
  for (std::uint64_t i = 0; i < sample_count; ++i) {
    ScoredSample sample;
    sample.vehicle_id = decoder.GetI32();
    sample.timestamp = decoder.GetI64();
    sample.scores = decoder.GetDoubleVec();
    sample.calibration_index = decoder.GetI32();
    sample.votes = decoder.GetI32();
    sample.ensemble_live = decoder.GetI32();
    if (!decoder.ok()) return false;
    if (sample.calibration_index < 0 ||
        static_cast<std::size_t>(sample.calibration_index) >= calibrations_.size()) {
      decoder.Fail("monitor scored sample references unknown calibration");
      return false;
    }
    scored_samples_.push_back(std::move(sample));
  }

  persistence_.reset();
  if (decoder.GetBool()) {
    const std::uint64_t channels = decoder.GetU64();
    if (!decoder.ok()) return false;
    if (channels == 0 || channels != policy_.thresholds().size()) {
      decoder.Fail("monitor persistence channel count mismatch");
      return false;
    }
    const auto [window, min_violations] = config_.threshold.ResolvePersistence(
        transform::EffectiveStride(config_.transform, config_.transform_options));
    persistence_ = std::make_unique<detect::PersistenceTracker>(
        window, min_violations, static_cast<std::size_t>(channels));
    if (!persistence_->Restore(decoder)) return false;
  }

  quality_ = RestoreQuality(decoder);
  const std::uint64_t buffered = decoder.GetU64();
  if (!decoder.ok() ||
      buffered > static_cast<std::uint64_t>(config_.ingest.reorder_capacity) + 1) {
    decoder.Fail("monitor reorder buffer out of bounds");
    return false;
  }
  reorder_buffer_.clear();
  for (std::uint64_t i = 0; i < buffered; ++i)
    reorder_buffer_.push_back(RestoreRecord(decoder));
  const std::uint64_t released = decoder.GetU64();
  const std::uint64_t ring_size =
      static_cast<std::uint64_t>(std::max(4, 4 * config_.ingest.reorder_capacity));
  if (!decoder.ok() || released > ring_size) {
    decoder.Fail("monitor dedup ring out of bounds");
    return false;
  }
  recent_released_.clear();
  for (std::uint64_t i = 0; i < released; ++i)
    recent_released_.push_back(RestoreRecord(decoder));
  watermark_ = decoder.GetI64();
  has_released_ = decoder.GetBool();
  for (double& value : stuck_previous_) value = decoder.GetDouble();
  for (int& run : stuck_run_) run = decoder.GetI32();
  has_stuck_previous_ = decoder.GetBool();

  const bool has_ensemble = decoder.GetBool();
  if (!decoder.ok()) return false;
  if (has_ensemble != (ensemble_ != nullptr)) {
    decoder.Fail(has_ensemble
                     ? "snapshot carries an ensemble but this monitor's "
                       "ensemble is disabled"
                     : "this monitor expects an ensemble but the snapshot "
                       "has none");
    return false;
  }
  if (ensemble_ != nullptr && !ensemble_->Restore(decoder)) return false;
  return decoder.ok();
}

std::vector<Alarm> AlarmsForThreshold(const std::vector<ScoredSample>& samples,
                                      const std::vector<CalibrationStats>& calibrations,
                                      double factor_or_constant,
                                      int persistence_window, int persistence_min,
                                      const std::vector<std::string>& channel_names,
                                      detect::ThresholdConfig::Kind kind) {
  std::vector<Alarm> alarms;
  std::unique_ptr<detect::PersistenceTracker> tracker;
  int active_cycle = -1;
  for (const ScoredSample& sample : samples) {
    NAVARCHOS_CHECK(sample.calibration_index >= 0);
    if (sample.calibration_index != active_cycle || tracker == nullptr) {
      active_cycle = sample.calibration_index;
      tracker = std::make_unique<detect::PersistenceTracker>(
          persistence_window, persistence_min, sample.scores.size());
    }
    const CalibrationStats& stats =
        calibrations[static_cast<std::size_t>(sample.calibration_index)];
    std::vector<bool> violations(sample.scores.size());
    std::vector<double> thresholds(sample.scores.size());
    for (std::size_t c = 0; c < sample.scores.size(); ++c) {
      thresholds[c] = stats.ThresholdOf(c, kind, factor_or_constant);
      violations[c] = sample.scores[c] > thresholds[c];
    }
    const std::vector<bool> fires = tracker->Update(violations);
    std::optional<std::size_t> worst;
    double worst_excess = 0.0;
    double worst_threshold = 0.0;
    for (std::size_t c = 0; c < sample.scores.size(); ++c) {
      if (!fires[c] || !violations[c]) continue;
      const double excess = sample.scores[c] - thresholds[c];
      if (!worst || excess > worst_excess) {
        worst = c;
        worst_excess = excess;
        worst_threshold = thresholds[c];
      }
    }
    if (!worst) continue;
    Alarm alarm;
    alarm.vehicle_id = sample.vehicle_id;
    alarm.timestamp = sample.timestamp;
    alarm.channel = *worst;
    alarm.channel_name = *worst < channel_names.size() ? channel_names[*worst]
                                                       : "ch" + std::to_string(*worst);
    alarm.score = sample.scores[*worst];
    alarm.threshold = worst_threshold;
    alarms.push_back(std::move(alarm));
  }
  return alarms;
}

}  // namespace navarchos::core
