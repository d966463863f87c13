// Traced mode of the benchmark: spans around the calls the benchmark makes
// into each layer, kept in memory and written out at exit, plus timing
// wrappers that give the monitor's transformer and detector spans of their
// own without touching the library.
#ifndef NAVARCHOS_PERFBENCH_TRACE_H_
#define NAVARCHOS_PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "obs/metrics.h"
#include "detect/detector.h"
#include "telemetry/stream.h"
#include "transform/transformer.h"

namespace navarchos::perfbench {

/// The layer calls the benchmark times.
enum class SpanName : std::uint8_t {
  kOnFrame,          ///< core: VehicleMonitor::OnFrame (serial pass).
  kCollect,          ///< transform: Transformer::Collect.
  kScore,            ///< detect: Detector::Score.
  kFit,              ///< detect: Detector::Fit.
  kSelfCalibration,  ///< detect: Detector::SelfCalibrationScores.
  kSubmit,           ///< service: FleetService::Submit.
  kFlush,            ///< net/shard: ShardedClient::Flush of one batch.
  kAppend,           ///< history: HistoryService::Append.
  kRank,             ///< history: in-process HistoryService::Rank.
  kTimeline,         ///< history: in-process HistoryService::Timeline.
  kComove,           ///< history: in-process HistoryService::Comove.
  kScrape,           ///< obs: IngestClient::QueryStats.
  kRefresh,          ///< One dashboard refresh over the wire.
  kCount,
};

/// Name of a span kind as written to the span file.
const char* SpanNameText(SpanName name);

/// Sentinel parent of a root span.
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One timed call. `key` is the frame sequence number, batch index or
/// refresh index the call served; spans of one frame share it.
struct Span {
  std::uint64_t key = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t parent = kNoParent;  ///< Index of the causing span.
  SpanName name = SpanName::kCount;
};

/// In-memory span store, safe to record into from several threads.
class SpanLog {
 public:
  /// Appends a finished span; returns its index.
  std::uint32_t Record(SpanName name, std::uint64_t key,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       std::uint32_t parent = kNoParent);
  /// Opens a span whose children are recorded before it ends; returns its
  /// index for End. Call it before reading the span's start time, so its
  /// own cost stays outside the span.
  std::uint32_t Begin(SpanName name, std::uint64_t key);
  /// Sets the times of a span opened by Begin.
  void End(std::uint32_t index, std::uint64_t start_ns, std::uint64_t end_ns);
  /// Makes room for `spans` more spans, so recording does not reallocate.
  void Reserve(std::size_t spans);
  /// Durations (microseconds) of every span of one kind.
  std::vector<double> DurationsUs(SpanName name) const;
  /// Sum of durations (nanoseconds) and count of one kind, optionally only
  /// spans that have a parent.
  std::uint64_t TotalNs(SpanName name, bool children_only = false) const;
  std::size_t Count(SpanName name, bool children_only = false) const;
  /// Writes every span as tab-separated text (name, key, start, duration,
  /// parent) to `path`. Returns false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Where the wrappers attach their spans: the enclosing OnFrame span and
/// its frame key, maintained by the serial core pass, plus the per-fit
/// cost the detector wrappers collect.
struct SpanCursor {
  SpanLog* log = nullptr;
  std::uint32_t parent = kNoParent;
  std::uint64_t key = 0;
  /// Microseconds per reference fit: Fit plus the self-calibration scoring
  /// that completes the same reference cycle.
  std::vector<double> fit_us;
};

/// Transformer decorator timing Collect; everything else forwards.
class TimedTransformer : public transform::Transformer {
 public:
  TimedTransformer(std::unique_ptr<transform::Transformer> inner,
                   SpanCursor* cursor);
  std::string Name() const override;
  std::vector<std::string> FeatureNames() const override;
  std::optional<transform::TransformedSample> Collect(
      const telemetry::Record& record) override;
  void Reset() override;
  void SaveState(persist::Encoder& encoder) const override;
  bool RestoreState(persist::Decoder& decoder) override;

 private:
  std::unique_ptr<transform::Transformer> inner_;
  SpanCursor* cursor_;
};

/// Detector decorator timing Fit, SelfCalibrationScores and Score.
class TimedDetector : public detect::Detector {
 public:
  TimedDetector(std::unique_ptr<detect::Detector> inner, SpanCursor* cursor);
  std::string Name() const override;
  void Fit(const std::vector<std::vector<double>>& ref) override;
  std::vector<double> Score(const std::vector<double>& sample) override;
  std::size_t ScoreChannels() const override;
  std::vector<std::string> ChannelNames() const override;
  std::size_t MinReferenceSize() const override;
  std::vector<std::vector<double>> SelfCalibrationScores(
      int exclusion_radius) const override;
  bool ScoresAreProbabilities() const override;
  void SaveState(persist::Encoder& encoder) const override;
  bool RestoreState(persist::Decoder& decoder) override;
  /// Books a fit whose reference cycle ended before its self-calibration
  /// (a maintenance reset, or the end of the stream).
  void FlushPendingFit() const;

 private:
  std::unique_ptr<detect::Detector> inner_;
  SpanCursor* cursor_;
  /// Duration of the latest Fit until its self-calibration is booked.
  mutable std::uint64_t pending_fit_ns_ = 0;
  mutable bool fit_pending_ = false;
};

/// What timing a call costs, from empty spans recorded the way the
/// wrappers record theirs (median of a few rounds into a reserved log).
struct SpanCost {
  /// Duration an empty span reads: part of its two clock reads. Every
  /// span's duration includes it.
  double inside_ns = 0.0;
  /// Time a wrapper spends in its caller's span but outside its own: the
  /// rest of the clock reads and the SpanLog::Record call.
  double outside_ns = 0.0;
};
SpanCost MeasureSpanCost();

/// What the traced serial core pass measured, net of the tracer's own cost
/// (SpanCost): per-call means less inside_ns, and OnFrame's self time less
/// its own inside_ns, its children's spans and outside_ns per child.
struct CorePassResult {
  std::vector<core::Alarm> alarms;  ///< Per vehicle in stream order.
  double self_us_per_frame = 0.0;   ///< OnFrame minus transform/detect.
  SpanCost span_cost;
  double transform_us_per_record = 0.0;
  double score_us_per_sample = 0.0;
  double fit_ms_p50 = 0.0;          ///< Fit plus its self-calibration.
  std::size_t fits = 0;
  /// Rolling-ensemble member fits completed (inline on this thread).
  std::uint64_t ensemble_retrains = 0;
  double retrain_ms_p50 = 0.0;
};

/// Steps `frames` (an interleaved stream or its prefix) through one
/// VehicleMonitor per vehicle on the calling thread, each built with the
/// dependency-injecting constructor around timed copies of the configured
/// transformer and detector, then flushes every monitor.
CorePassResult RunTracedCorePass(const std::vector<telemetry::SensorFrame>& frames,
                                 std::size_t count,
                                 const std::vector<std::int32_t>& ids,
                                 const core::MonitorConfig& config,
                                 SpanLog* log);

}  // namespace navarchos::perfbench

#endif  // NAVARCHOS_PERFBENCH_TRACE_H_
