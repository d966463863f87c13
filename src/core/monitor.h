// The complete solution (paper §4.2, Algorithm 1): a streaming per-vehicle
// monitor that
//   0. guards the ingest against transport corruption (duplicate and
//      out-of-order deliveries, non-finite readings, stuck sensor runs),
//   1. filters stationary / sensor-faulty records,
//   2. transforms the stream (step 1),
//   3. maintains a dynamic healthy reference profile Ref that is rebuilt
//      after every recorded maintenance event (step 2),
//   4. fits the chosen detector on Ref, calibrates thresholds on a held-out
//      slice, and scores subsequent samples (step 3).
//
// The monitor also exposes every scored sample with its calibration
// statistics, so evaluation sweeps over threshold factors can be replayed
// without re-fitting detectors (the factor only enters at comparison time),
// and a DataQualityReport counting everything the ingest guard rejected.
#ifndef NAVARCHOS_CORE_MONITOR_H_
#define NAVARCHOS_CORE_MONITOR_H_

#include <array>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/factory.h"
#include "detect/threshold.h"
#include "ensemble/ensemble.h"
#include "runtime/thread_pool.h"
#include "telemetry/stream.h"
#include "telemetry/types.h"
#include "transform/transformer.h"

/// \file
/// \brief Algorithm 1: the streaming per-vehicle monitor (ingest guard,
/// filters, transform, dynamic reference profile, detector scoring) and its
/// configuration, alarm, calibration and data-quality types.

/// \namespace navarchos::core
/// \brief The monitoring core: the per-vehicle streaming monitor
/// (Algorithm 1) and the batch fleet runner built on it.

namespace navarchos::core {

/// Ingest-guard knobs: how the monitor defends itself against corrupted
/// telemetry transport before any record reaches the pipeline.
struct IngestGuardConfig {
  /// Master switch. Disabled, records flow straight to the filters (the
  /// pre-hardening behaviour).
  bool enabled = true;
  /// Records buffered for out-of-order recovery. Deliveries are released in
  /// timestamp order with a latency of this many records; late records that
  /// still fit the buffer are resequenced, later ones are dropped. Covers
  /// clock skew up to roughly this many operating minutes.
  int reorder_capacity = 8;
  /// A channel repeating the exact same value for this many consecutive
  /// usable records counts as a stuck-sensor run. Clean simulated streams
  /// show exact-repeat runs up to 5 (speed clamping), so the default keeps a
  /// wide margin.
  int stuck_run_length = 30;
  /// Drop records inside detected stuck runs instead of only counting them.
  /// Off by default: a frozen channel is indistinguishable from a legitimate
  /// constant regime in synthetic streams, so dropping is an opt-in policy
  /// for corruption-hardened deployments (see bench/robustness_sweep).
  bool drop_stuck_runs = false;
};

/// Per-vehicle counters of everything the hardened ingest path rejected or
/// repaired. Totals are comparable against a CorruptionManifest when the
/// stream was corrupted by a CorruptionModel.
struct DataQualityReport {
  std::int32_t vehicle_id = 0;         ///< Vehicle the counters belong to.
  std::size_t records_seen = 0;        ///< All records offered to OnRecord.
  std::size_t duplicates_dropped = 0;  ///< Same timestamp + identical PIDs.
  std::size_t reordered_recovered = 0; ///< Late arrivals resequenced in-buffer.
  std::size_t late_dropped = 0;        ///< Arrived too late for the buffer.
  std::size_t non_finite_dropped = 0;  ///< Records carrying NaN/Inf PIDs.
  std::size_t stationary_dropped = 0;  ///< Parked/idling minutes (paper §3.2).
  std::size_t sensor_faulty_dropped = 0;  ///< Outside the plausible envelope.
  std::size_t stuck_run_records = 0;   ///< Records inside exact-repeat runs.
  std::size_t stuck_run_dropped = 0;   ///< Of those, dropped (opt-in policy).
  std::size_t non_finite_features_dropped = 0;  ///< Transform emitted NaN/Inf.
  std::size_t non_finite_scores_dropped = 0;    ///< Detector emitted NaN/Inf.
  std::size_t quarantine_events = 0;   ///< Reference cycles quarantined.

  /// Total records rejected before reaching the transform.
  std::size_t RecordsDropped() const;

  /// Accumulates another vehicle's counters (fleet aggregation).
  void Add(const DataQualityReport& other);
};

/// Full configuration of a monitor (one framework instantiation).
struct MonitorConfig {
  /// Ingest hardening against corrupted telemetry transport.
  IngestGuardConfig ingest;
  /// Data transformation of step 1 (paper §4.2).
  transform::TransformKind transform = transform::TransformKind::kCorrelation;
  /// Options of the transformation (window, stride, PID subset).
  transform::TransformOptions transform_options;
  /// Detection technique fitted on the reference profile (step 3).
  detect::DetectorKind detector = detect::DetectorKind::kClosestPair;
  /// Options of the detection technique.
  detect::DetectorOptions detector_options;
  /// Thresholding rule, factor and persistence configuration.
  detect::ThresholdConfig threshold;
  /// Operating minutes of transformed samples forming the reference profile
  /// (resolved to a sample count through the transform's emission stride, so
  /// per-record and windowed transforms see the same reference horizon).
  double profile_minutes = 1200.0;

  /// Opt-in rolling consensus ensemble: K staggered reference models
  /// retrained online, gating alarms on M-of-K agreement (src/ensemble).
  ensemble::EnsembleConfig ensemble;

  /// Resolved reference length in samples for this config's transform.
  std::size_t ResolveProfileLength() const;
  /// Rebuild Ref on recorded service events (Table 3 ablation sets false).
  bool reset_on_service = true;
  /// Rebuild Ref on recorded repair events.
  bool reset_on_repair = true;
};

/// An alarm raised by the monitor, attributed to a score channel.
struct Alarm {
  std::int32_t vehicle_id = 0;      ///< Vehicle that raised the alarm.
  telemetry::Minute timestamp = 0;  ///< Stream time of the violating sample.
  std::size_t channel = 0;          ///< Violating score channel index.
  std::string channel_name;         ///< Human-readable channel name.
  double score = 0.0;               ///< Score that crossed the threshold.
  double threshold = 0.0;           ///< Threshold in force at the violation.
};

/// Minimum encoded size of one alarm (fixed fields + empty name), used to
/// bound an alarm count claimed by a snapshot before allocating.
inline constexpr std::size_t kMinAlarmBytes = 4 + 8 + 8 + 4 + 8 + 8;

/// Appends `alarm` to a snapshot chunk. service::OrderedSink stores its
/// released alarms this way, in a service's "sink" chunk and in the fleet
/// manifest's "agg" chunk.
void SaveAlarm(persist::Encoder& encoder, const Alarm& alarm);

/// Reads one alarm written by SaveAlarm; false when the chunk runs short.
bool RestoreAlarm(persist::Decoder& decoder, Alarm* alarm);

/// Per-channel calibration statistics of one reference cycle.
struct CalibrationStats {
  std::vector<double> mean;    ///< Per-channel mean of the burn-in scores.
  std::vector<double> stddev;  ///< Per-channel standard deviation.
  std::vector<double> median;  ///< Per-channel median.
  std::vector<double> mad;     ///< Per-channel median absolute deviation.
  std::vector<double> max;     ///< Per-channel maximum.
  bool constant_threshold = false;  ///< True for probability-score detectors.

  /// Threshold of channel `c` under the given rule and factor. Constant-
  /// threshold detectors ignore the rule and use the factor verbatim.
  double ThresholdOf(std::size_t c, detect::ThresholdConfig::Kind kind,
                     double factor_or_constant) const;
};

/// One scored live sample (kept for threshold-sweep replay and Fig. 8).
struct ScoredSample {
  std::int32_t vehicle_id = 0;      ///< Vehicle the sample belongs to.
  telemetry::Minute timestamp = 0;  ///< Stream time of the sample.
  std::vector<double> scores;       ///< One score per detector channel.
  int calibration_index = -1;  ///< Into VehicleMonitor::calibrations().
  /// Consensus votes of the rolling ensemble for this sample (-1 when the
  /// ensemble is disabled).
  std::int32_t votes = -1;
  /// Live ensemble members that scored this sample (0 when disabled).
  std::int32_t ensemble_live = 0;
};

/// Streaming monitor for one vehicle (Algorithm 1).
class VehicleMonitor {
 public:
  /// Builds the monitor for `vehicle_id`, instantiating the transformer and
  /// detector named by `config`.
  VehicleMonitor(std::int32_t vehicle_id, const MonitorConfig& config);

  /// Dependency-injecting constructor: uses the given transformer/detector
  /// instead of building them from the config's kinds (testing seams and
  /// out-of-tree extensions). Both must be non-null.
  VehicleMonitor(std::int32_t vehicle_id, const MonitorConfig& config,
                 std::unique_ptr<transform::Transformer> transformer,
                 std::unique_ptr<detect::Detector> detector);

  /// Feeds a recorded fleet event; maintenance events reset Ref. Records
  /// still held in the reorder buffer are drained first (they precede the
  /// event in stream time); any alarms they raise are returned.
  std::vector<Alarm> OnEvent(const telemetry::FleetEvent& event);

  /// Feeds a telemetry record; returns an alarm when a threshold (at the
  /// config's factor/constant) is violated. Unusable records are ignored.
  /// With the ingest guard enabled, processing lags delivery by up to
  /// `ingest.reorder_capacity` records; call Flush() at end of stream.
  std::optional<Alarm> OnRecord(const telemetry::Record& record);

  /// Incremental stepping API for streaming feeds: dispatches one
  /// multiplexed-stream frame to OnRecord or OnEvent by its kind and
  /// returns whatever alarms it raised. Feeding a vehicle's frame sequence
  /// through OnFrame (plus a final Flush) is exactly equivalent to the
  /// batch runner's record/event walk - the streaming service and
  /// core::RunFleet share this code path.
  std::vector<Alarm> OnFrame(const telemetry::SensorFrame& frame);

  /// Drains the reorder buffer at end of stream, returning any alarms the
  /// remaining records raise. No-op when the ingest guard is disabled.
  std::vector<Alarm> Flush();

  /// All live scored samples so far (excludes reference-building samples).
  const std::vector<ScoredSample>& scored_samples() const { return scored_samples_; }

  /// Data-quality counters of everything the ingest path rejected so far.
  const DataQualityReport& quality() const { return quality_; }

  /// True while the current reference cycle is quarantined: the detector
  /// emitted non-finite scores during calibration, so its thresholds cannot
  /// be trusted. Alarms are suppressed until the next maintenance reset
  /// triggers a re-fit.
  bool quarantined() const { return quarantined_; }

  /// Calibration statistics per reference cycle.
  const std::vector<CalibrationStats>& calibrations() const { return calibrations_; }

  /// Score channel names of the underlying detector.
  const std::vector<std::string>& channel_names() const { return channel_names_; }

  /// Number of completed reference cycles (fits).
  int fit_count() const { return fit_count_; }

  /// Installs the pool the ensemble posts its background member fits to.
  /// Null (the default) runs fits inline at their activation point - same
  /// output, no overlap with ingest. No-op when the ensemble is disabled.
  void set_background_pool(runtime::ThreadPool* pool);

  /// Installs the histogram ensemble member-fit durations are recorded
  /// into (microseconds). Observe-only; the histogram must outlive the
  /// monitor. No-op when the ensemble is disabled.
  void set_retrain_histogram(obs::Histogram* histogram);

  /// The rolling consensus ensemble, or null when disabled.
  const ensemble::RollingEnsemble* consensus() const { return ensemble_.get(); }

  /// Ensemble lifetime counters (all zero when the ensemble is disabled).
  ensemble::EnsembleStats ensemble_stats() const;

  /// Encoded bytes of the ensemble state right now (0 when disabled): the
  /// bytes-per-vehicle metric of the memory-boundedness win condition.
  std::size_t ensemble_bytes() const;

  /// True while the reference profile is still filling.
  bool collecting_reference() const { return !fitted_; }

  /// Serialises the monitor's complete mutable state - ingest guard buffers,
  /// transform buffers, reference profile, detector state, calibrations,
  /// scored samples, persistence rings - prefixed with a fingerprint
  /// (transformer/detector names, profile length) that Restore validates.
  void Save(persist::Encoder& encoder) const;

  /// Restores state written by Save into a freshly constructed monitor with
  /// the same configuration. Returns false (leaving the decoder failed, with
  /// a message) on malformed input or a configuration mismatch; the monitor
  /// must not be used after a failed restore.
  bool Restore(persist::Decoder& decoder);

 private:
  void Initialise();
  void ResetReference();
  void FitOnReference();
  void FinishCalibration();
  /// The pre-guard pipeline: filter -> transform -> fit/calibrate/score.
  std::optional<Alarm> ProcessRecord(const telemetry::Record& record);
  /// Releases the oldest buffered record into ProcessRecord.
  std::optional<Alarm> ReleaseOldest();

  std::int32_t vehicle_id_;
  MonitorConfig config_;
  std::size_t profile_length_ = 0;
  std::unique_ptr<transform::Transformer> transformer_;
  std::unique_ptr<detect::Detector> detector_;
  std::vector<std::vector<double>> reference_;
  std::vector<std::vector<double>> calibration_scores_;  ///< Burn-in scores.
  bool fitted_ = false;
  bool calibrating_ = false;
  bool quarantined_ = false;
  int fit_count_ = 0;
  detect::ThresholdPolicy policy_;
  std::unique_ptr<detect::PersistenceTracker> persistence_;
  std::vector<std::string> channel_names_;
  std::vector<CalibrationStats> calibrations_;
  std::vector<ScoredSample> scored_samples_;
  std::unique_ptr<ensemble::RollingEnsemble> ensemble_;  ///< Null = disabled.

  // Ingest guard state (survives reference resets: stream time only moves
  // forward and the physical sensors do not renew at a service).
  DataQualityReport quality_;
  std::deque<telemetry::Record> reorder_buffer_;  ///< Sorted by timestamp.
  std::deque<telemetry::Record> recent_released_; ///< Dedup ring.
  telemetry::Minute watermark_ = std::numeric_limits<telemetry::Minute>::min();
  bool has_released_ = false;
  telemetry::PidVector stuck_previous_{};
  std::array<int, telemetry::kNumPids> stuck_run_{};
  bool has_stuck_previous_ = false;
};

/// Derives alarms from recorded score traces for an arbitrary threshold
/// factor (self-tuning detectors) or constant (probability detectors),
/// without re-running the pipeline. `samples` must belong to a single
/// vehicle in stream order (persistence is tracked across them; the streak
/// resets whenever the reference cycle changes). `channel_names` may be
/// empty.
std::vector<Alarm> AlarmsForThreshold(const std::vector<ScoredSample>& samples,
                                      const std::vector<CalibrationStats>& calibrations,
                                      double factor_or_constant,
                                      int persistence_window, int persistence_min,
                                      const std::vector<std::string>& channel_names,
                                      detect::ThresholdConfig::Kind kind =
                                          detect::ThresholdConfig::Kind::kSelfTuning);

}  // namespace navarchos::core

#endif  // NAVARCHOS_CORE_MONITOR_H_
