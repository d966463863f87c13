#include "trace.h"

#include <cstdio>
#include <map>

#include "detect/factory.h"
#include "harness.h"

namespace navarchos::perfbench {
namespace {

constexpr const char* kSpanNames[] = {
    "core.on_frame",   "transform.collect", "detect.score",
    "detect.fit",      "detect.self_calibration",
    "service.submit",  "net.flush",         "history.append",
    "history.rank",    "history.timeline",  "history.comove",
    "obs.scrape",      "dashboard.refresh",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(SpanName::kCount));

}  // namespace

const char* SpanNameText(SpanName name) {
  return kSpanNames[static_cast<std::size_t>(name)];
}

std::uint32_t SpanLog::Record(SpanName name, std::uint64_t key,
                              std::uint64_t start_ns, std::uint64_t end_ns,
                              std::uint32_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({key, start_ns, end_ns - start_ns, parent, name});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t SpanLog::Begin(SpanName name, std::uint64_t key) {
  return Record(name, key, 0, 0);
}

void SpanLog::End(std::uint32_t index, std::uint64_t start_ns, std::uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[index];
  span.start_ns = start_ns;
  span.duration_ns = end_ns - start_ns;
}

void SpanLog::Reserve(std::size_t spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.reserve(spans_.size() + spans);
}

std::vector<double> SpanLog::DurationsUs(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(static_cast<double>(span.duration_ns) / 1e3);
  return out;
}

std::uint64_t SpanLog::TotalNs(SpanName name, bool children_only) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Span& span : spans_)
    if (span.name == name && (!children_only || span.parent != kNoParent))
      total += span.duration_ns;
  return total;
}

std::size_t SpanLog::Count(SpanName name, bool children_only) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const Span& span : spans_)
    if (span.name == name && (!children_only || span.parent != kNoParent)) ++count;
  return count;
}

bool SpanLog::WriteTo(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name\tkey\tstart_ns\tduration_ns\tparent\n");
  for (const Span& span : spans_) {
    std::fprintf(out, "%s\t%llu\t%llu\t%llu\t%lld\n", SpanNameText(span.name),
                 static_cast<unsigned long long>(span.key),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.duration_ns),
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent));
  }
  return std::fclose(out) == 0;
}

TimedTransformer::TimedTransformer(std::unique_ptr<transform::Transformer> inner,
                                   SpanCursor* cursor)
    : inner_(std::move(inner)), cursor_(cursor) {}

std::string TimedTransformer::Name() const { return inner_->Name(); }

std::vector<std::string> TimedTransformer::FeatureNames() const {
  return inner_->FeatureNames();
}

std::optional<transform::TransformedSample> TimedTransformer::Collect(
    const telemetry::Record& record) {
  const std::uint64_t start = WallNanos();
  auto sample = inner_->Collect(record);
  cursor_->log->Record(SpanName::kCollect, cursor_->key, start, WallNanos(),
                       cursor_->parent);
  return sample;
}

void TimedTransformer::Reset() { inner_->Reset(); }

void TimedTransformer::SaveState(persist::Encoder& encoder) const {
  inner_->SaveState(encoder);
}

bool TimedTransformer::RestoreState(persist::Decoder& decoder) {
  return inner_->RestoreState(decoder);
}

TimedDetector::TimedDetector(std::unique_ptr<detect::Detector> inner,
                             SpanCursor* cursor)
    : inner_(std::move(inner)), cursor_(cursor) {}

std::string TimedDetector::Name() const { return inner_->Name(); }

void TimedDetector::Fit(const std::vector<std::vector<double>>& ref) {
  FlushPendingFit();
  const std::uint64_t start = WallNanos();
  inner_->Fit(ref);
  const std::uint64_t end = WallNanos();
  cursor_->log->Record(SpanName::kFit, cursor_->key, start, end, cursor_->parent);
  pending_fit_ns_ = end - start;
  fit_pending_ = true;
}

void TimedDetector::FlushPendingFit() const {
  if (!fit_pending_) return;
  cursor_->fit_us.push_back(static_cast<double>(pending_fit_ns_) / 1e3);
  fit_pending_ = false;
}

std::vector<double> TimedDetector::Score(const std::vector<double>& sample) {
  const std::uint64_t start = WallNanos();
  std::vector<double> scores = inner_->Score(sample);
  cursor_->log->Record(SpanName::kScore, cursor_->key, start, WallNanos(),
                       cursor_->parent);
  return scores;
}

std::size_t TimedDetector::ScoreChannels() const { return inner_->ScoreChannels(); }

std::vector<std::string> TimedDetector::ChannelNames() const {
  return inner_->ChannelNames();
}

std::size_t TimedDetector::MinReferenceSize() const {
  return inner_->MinReferenceSize();
}

std::vector<std::vector<double>> TimedDetector::SelfCalibrationScores(
    int exclusion_radius) const {
  const std::uint64_t start = WallNanos();
  auto scores = inner_->SelfCalibrationScores(exclusion_radius);
  const std::uint64_t end = WallNanos();
  cursor_->log->Record(SpanName::kSelfCalibration, cursor_->key, start, end,
                       cursor_->parent);
  if (fit_pending_) {
    cursor_->fit_us.push_back(static_cast<double>(pending_fit_ns_ + (end - start)) / 1e3);
    fit_pending_ = false;
  }
  return scores;
}

bool TimedDetector::ScoresAreProbabilities() const {
  return inner_->ScoresAreProbabilities();
}

void TimedDetector::SaveState(persist::Encoder& encoder) const {
  inner_->SaveState(encoder);
}

bool TimedDetector::RestoreState(persist::Decoder& decoder) {
  return inner_->RestoreState(decoder);
}

SpanCost MeasureSpanCost() {
  constexpr int kRounds = 5;
  constexpr int kSpans = 100000;
  std::vector<double> inside, outside;
  for (int round = 0; round < kRounds; ++round) {
    SpanLog scratch;
    scratch.Reserve(kSpans);
    std::uint64_t inside_ns = 0;
    const std::uint64_t begin = WallNanos();
    for (int i = 0; i < kSpans; ++i) {
      // The wrappers' shape: read the clock, (call), record [start, now].
      const std::uint64_t start = WallNanos();
      const std::uint64_t end = WallNanos();
      scratch.Record(SpanName::kCollect, static_cast<std::uint64_t>(i), start, end, 0);
      inside_ns += end - start;
    }
    const std::uint64_t total_ns = WallNanos() - begin;
    inside.push_back(static_cast<double>(inside_ns) / kSpans);
    outside.push_back(static_cast<double>(total_ns - inside_ns) / kSpans);
  }
  return {Median(inside), Median(outside)};
}

CorePassResult RunTracedCorePass(const std::vector<telemetry::SensorFrame>& frames,
                                 std::size_t count,
                                 const std::vector<std::int32_t>& ids,
                                 const core::MonitorConfig& config,
                                 SpanLog* log) {
  SpanCursor cursor;
  cursor.log = log;
  obs::MetricsRegistry registry;
  obs::Histogram* retrain_us = registry.histogram("ensemble.retrain_us");
  std::map<std::int32_t, std::unique_ptr<core::VehicleMonitor>> monitors;
  std::vector<const TimedDetector*> detectors;
  for (const std::int32_t id : ids) {
    auto transformer = transform::MakeTransformer(config.transform,
                                                  config.transform_options);
    detect::DetectorOptions options = config.detector_options;
    if (options.feature_names.empty())
      options.feature_names = transformer->FeatureNames();
    auto detector = std::make_unique<TimedDetector>(
        detect::MakeDetector(config.detector, options), &cursor);
    detectors.push_back(detector.get());
    monitors[id] = std::make_unique<core::VehicleMonitor>(
        id, config,
        std::make_unique<TimedTransformer>(std::move(transformer), &cursor),
        std::move(detector));
    monitors[id]->set_retrain_histogram(retrain_us);
  }

  const SpanCost cost = MeasureSpanCost();
  // An OnFrame span per frame, and at most a Collect and a Score under it.
  log->Reserve(3 * count);
  std::map<std::int32_t, std::vector<core::Alarm>> alarms_by_vehicle;
  std::uint64_t on_frame_ns = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const telemetry::SensorFrame& frame = frames[i];
    core::VehicleMonitor& monitor = *monitors.at(frame.vehicle_id());
    cursor.key = i;
    cursor.parent = log->Begin(SpanName::kOnFrame, i);
    const std::uint64_t start = WallNanos();
    std::vector<core::Alarm> raised = monitor.OnFrame(frame);
    const std::uint64_t end = WallNanos();
    on_frame_ns += end - start;
    log->End(cursor.parent, start, end);
    auto& sink = alarms_by_vehicle[frame.vehicle_id()];
    for (core::Alarm& alarm : raised) sink.push_back(std::move(alarm));
  }
  cursor.parent = kNoParent;
  for (const std::int32_t id : ids) {
    auto& sink = alarms_by_vehicle[id];
    for (core::Alarm& alarm : monitors.at(id)->Flush()) sink.push_back(std::move(alarm));
  }
  for (const TimedDetector* detector : detectors) detector->FlushPendingFit();

  CorePassResult result;
  for (const std::int32_t id : ids)
    for (core::Alarm& alarm : alarms_by_vehicle[id]) result.alarms.push_back(std::move(alarm));

  // Children of OnFrame spans only: flush-time work has no frame parent.
  std::uint64_t child_ns = 0;
  std::size_t children = 0;
  for (const SpanName name : {SpanName::kCollect, SpanName::kScore, SpanName::kFit,
                              SpanName::kSelfCalibration}) {
    child_ns += log->TotalNs(name, true);
    children += log->Count(name, true);
  }
  result.span_cost = cost;
  // Mean per call, less the clock time that even an empty span reads.
  const auto per_call_us = [&cost](double total_ns, std::size_t calls) {
    return calls == 0 ? 0.0
                      : (total_ns / static_cast<double>(calls) - cost.inside_ns) / 1e3;
  };
  result.self_us_per_frame =
      per_call_us(static_cast<double>(on_frame_ns) - static_cast<double>(child_ns) -
                      static_cast<double>(children) * cost.outside_ns,
                  count);
  result.transform_us_per_record =
      per_call_us(static_cast<double>(log->TotalNs(SpanName::kCollect)),
                  log->Count(SpanName::kCollect));
  result.score_us_per_sample = per_call_us(
      static_cast<double>(log->TotalNs(SpanName::kScore)), log->Count(SpanName::kScore));
  result.fits = cursor.fit_us.size();
  for (const auto& [id, monitor] : monitors)
    result.ensemble_retrains += monitor->ensemble_stats().retrains_completed;
  result.retrain_ms_p50 =
      HistogramQuantile(registry.Snapshot(), "ensemble.retrain_us", 0.50) / 1e3;
  result.fit_ms_p50 = Median(cursor.fit_us) / 1e3;
  return result;
}

}  // namespace navarchos::perfbench
