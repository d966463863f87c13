// Cost/benefit sweep of the rolling consensus ensemble.
//
// Streams the interleaved fig4/fig5 fleets (setting40 and its reporting
// subset setting26) through service::FleetService three ways - the paper's
// single-*Ref* baseline and two consensus configurations (K=3/M=2,
// K=4/M=3) - at worker thread counts {1, 4}. Per run it measures the
// event-level false-alarm count and detection lead time (PH = 30 days),
// the p50/p99 frame latency from admission to ordered release (the
// retrain-stall probe: background fits must not stall the pumps), and the
// encoded ensemble bytes per vehicle (memory boundedness). Every run
// fingerprints its complete output - alarms plus per-sample consensus
// votes - and the exit code asserts the fingerprints are identical across
// thread counts: online background retraining must not cost a single byte
// of determinism.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "eval/metrics.h"
#include "service/fleet_service.h"
#include "telemetry/stream.h"

namespace navarchos {
namespace {

constexpr double kMinutesPerDay = 24.0 * 60.0;
constexpr int kHorizonDays = 30;

/// One (config, thread-count) service run.
struct Measurement {
  int threads = 0;
  int false_alarms = 0;
  int detected = 0;
  int total_failures = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f05 = 0.0;
  double mean_lead_days = 0.0;  ///< Over detected repairs; 0 if none.
  double latency_p50_ms = 0.0;  ///< Admission -> ordered release.
  double latency_p99_ms = 0.0;
  double ensemble_bytes_per_vehicle = 0.0;
  std::uint64_t retrains_started = 0;
  std::uint64_t retrains_completed = 0;
  std::uint64_t suppressed_alarms = 0;
  std::uint64_t fingerprint = 0;  ///< Alarms + votes, order-sensitive.
};

/// An ensemble configuration under test ("baseline" = disabled).
struct Variant {
  std::string name;
  ensemble::EnsembleConfig ensemble;
};

double PercentileMs(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  const std::size_t rank =
      static_cast<std::size_t>(q * static_cast<double>(samples->size() - 1));
  std::nth_element(samples->begin(),
                   samples->begin() + static_cast<std::ptrdiff_t>(rank),
                   samples->end());
  return (*samples)[rank];
}

/// Mean days from the earliest in-horizon alarm to its repair, over the
/// repairs that had one (the detection lead the operator actually gets).
double MeanLeadDays(const std::vector<core::Alarm>& alarms,
                    const telemetry::FleetDataset& fleet) {
  double total = 0.0;
  int detected = 0;
  for (const telemetry::VehicleHistory& vehicle : fleet.vehicles) {
    for (const telemetry::Minute repair : vehicle.RecordedRepairTimes()) {
      const std::int64_t horizon =
          repair - static_cast<std::int64_t>(kHorizonDays * kMinutesPerDay);
      std::int64_t earliest = -1;
      for (const core::Alarm& alarm : alarms) {
        if (alarm.vehicle_id != vehicle.spec.id) continue;
        if (alarm.timestamp < horizon || alarm.timestamp > repair) continue;
        if (earliest < 0 || alarm.timestamp < earliest)
          earliest = alarm.timestamp;
      }
      if (earliest < 0) continue;
      total += static_cast<double>(repair - earliest) / kMinutesPerDay;
      ++detected;
    }
  }
  return detected > 0 ? total / detected : 0.0;
}

Measurement MeasureAt(int threads, const Variant& variant,
                      const telemetry::FleetDataset& fleet,
                      const std::vector<telemetry::SensorFrame>& stream,
                      const std::vector<std::int32_t>& ids) {
  Measurement m;
  m.threads = threads;

  service::ServiceConfig config;
  config.monitor.ensemble = variant.ensemble;
  config.runtime = runtime::RuntimeConfig{threads};

  // Admission-to-release latency per frame, stamped in the completion
  // callback (which the ordered sink serialises).
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> submitted(stream.size());
  std::vector<double> latencies_ms;
  latencies_ms.reserve(stream.size());

  service::FleetService svc(config);
  svc.set_completion_callback(
      [&submitted, &latencies_ms](const service::FrameCompletion& done) {
        const auto elapsed = Clock::now() - submitted[done.global_seq];
        latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(elapsed).count());
      });
  for (const std::int32_t id : ids) svc.RegisterVehicle(id);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Clean stream + blocking backpressure: every frame is admitted, so
    // global_seq == submission index and the stamp slot is pre-assignable.
    submitted[i] = Clock::now();
    svc.Submit(stream[i]);
  }
  svc.Drain();

  const service::ServiceStats stats = svc.stats();
  m.retrains_started = stats.retrains_started;
  m.retrains_completed = stats.retrains_completed;
  m.suppressed_alarms = stats.consensus_suppressed_alarms;
  m.ensemble_bytes_per_vehicle =
      ids.empty() ? 0.0
                  : static_cast<double>(svc.ensemble_state_bytes()) /
                        static_cast<double>(ids.size());
  const core::FleetRunResult result = svc.TakeResult();

  const eval::EvalResult metrics =
      eval::EvaluateAlarms(result.alarms, fleet, kHorizonDays);
  m.false_alarms = metrics.false_positive_episodes;
  m.detected = metrics.detected_failures;
  m.total_failures = metrics.total_failures;
  m.precision = metrics.precision;
  m.recall = metrics.recall;
  m.f05 = metrics.f05;
  m.mean_lead_days = MeanLeadDays(result.alarms, fleet);
  m.latency_p50_ms = PercentileMs(&latencies_ms, 0.50);
  m.latency_p99_ms = PercentileMs(&latencies_ms, 0.99);

  // The shared run fingerprint, plus every sample's consensus vote and
  // every vehicle's retrain and veto counters.
  bench::Fingerprint fp;
  fp.AddRun(result);
  for (const auto& samples : result.scored_samples) {
    for (const core::ScoredSample& sample : samples) {
      fp.Add(static_cast<std::int64_t>(sample.votes));
      fp.Add(static_cast<std::int64_t>(sample.ensemble_live));
    }
  }
  for (const auto& lane : result.ensemble_stats) {
    fp.Add(lane.retrains_started);
    fp.Add(lane.retrains_completed);
    fp.Add(lane.retrains_failed);
    fp.Add(lane.consensus_suppressed_alarms);
  }
  m.fingerprint = fp.value();
  return m;
}

std::vector<Variant> MakeVariants() {
  std::vector<Variant> variants;
  variants.push_back({"baseline", {}});  // single *Ref*, ensemble off
  ensemble::EnsembleConfig k3m2;
  k3m2.enabled = true;
  k3m2.k = 3;
  k3m2.m = 2;
  variants.push_back({"k3m2", k3m2});
  ensemble::EnsembleConfig k4m3;
  k4m3.enabled = true;
  k4m3.k = 4;
  k4m3.m = 3;
  variants.push_back({"k4m3", k4m3});
  return variants;
}

int Main(int argc, char** argv) {
  const util::Args args(argc, argv);
  auto options = bench::BenchOptions::FromArgs(args);
  // Twelve full service runs (2 settings x 3 variants x 2 thread counts):
  // default to a reduced horizon so the sweep stays in bench territory.
  if (!args.Has("days")) options.days = 45;
  bench::PrintHeader(
      "Ensemble sweep - false alarms, detection lead, pump-stall latency "
      "and memory of the rolling consensus ensemble", options);

  struct Row {
    std::string setting;
    std::string variant;
    Measurement m;
  };
  std::vector<Row> rows;
  bool deterministic = true;
  bool win = true;

  for (const char* setting_name : {"setting40", "setting26"}) {
    const std::string setting = setting_name;
    const telemetry::FleetDataset fleet =
        setting == "setting26" ? bench::MakeSetting26(options)
                               : bench::MakeSetting40(options);
    const auto stream = telemetry::InterleaveFleetStream(fleet);
    const auto ids = service::VehicleIdsOf(fleet);
    std::printf("%s: %zu frames, %zu vehicles\n", setting.c_str(),
                stream.size(), ids.size());

    Measurement baseline;
    for (const Variant& variant : MakeVariants()) {
      Measurement first;
      for (const int threads : {1, 4}) {
        const Measurement m =
            MeasureAt(threads, variant, fleet, stream, ids);
        if (threads == 1) {
          first = m;
        } else if (m.fingerprint != first.fingerprint) {
          deterministic = false;
        }
        std::printf(
            "  %-9s t=%d  FP %3d  detected %d/%d  lead %5.1fd  f05 %.3f  "
            "latency p50 %6.3fms p99 %6.3fms  %7.0f B/vehicle  "
            "retrains %" PRIu64 "  suppressed %" PRIu64 "\n",
            variant.name.c_str(), m.threads, m.false_alarms, m.detected,
            m.total_failures, m.mean_lead_days, m.f05, m.latency_p50_ms,
            m.latency_p99_ms, m.ensemble_bytes_per_vehicle,
            m.retrains_started, m.suppressed_alarms);
        std::fflush(stdout);
        rows.push_back({setting, variant.name, m});
      }
      if (variant.name == "baseline") {
        baseline = first;
      } else if (first.false_alarms > baseline.false_alarms ||
                 first.detected < baseline.detected) {
        // The win condition: strictly no more false alarms at
        // no-worse event detection than the single-*Ref* baseline.
        win = false;
      }
    }
  }

  std::printf("\noutput across thread counts: %s\n",
              deterministic ? "IDENTICAL" : "MISMATCH");
  std::printf("consensus vs baseline (<= false alarms, >= detections): %s\n",
              win ? "HOLDS" : "DOES NOT HOLD");

  std::FILE* json = std::fopen("BENCH_ensemble.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ensemble.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"ensemble_sweep\",\n");
  bench::WriteBuildMetadata(json);
  std::fprintf(json, "  \"days\": %d,\n  \"seed\": %" PRIu64 ",\n",
               options.days, options.seed);
  std::fprintf(json, "  \"threads\": %d,\n", options.threads);
  std::fprintf(json, "  \"ph_days\": %d,\n", kHorizonDays);
  std::fprintf(json, "  \"identical_across_threads\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"consensus_win_holds\": %s,\n", win ? "true" : "false");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        json,
        "    {\"setting\": \"%s\", \"config\": \"%s\", \"threads\": %d, "
        "\"false_alarms\": %d, \"detected\": %d, \"total_failures\": %d, "
        "\"precision\": %.4f, \"recall\": %.4f, \"f05\": %.4f, "
        "\"mean_lead_days\": %.2f, \"latency_p50_ms\": %.4f, "
        "\"latency_p99_ms\": %.4f, \"ensemble_bytes_per_vehicle\": %.1f, "
        "\"retrains_started\": %" PRIu64 ", \"retrains_completed\": %" PRIu64
        ", \"suppressed_alarms\": %" PRIu64 ", \"fingerprint\": \"%016" PRIx64
        "\"}%s\n",
        row.setting.c_str(), row.variant.c_str(), row.m.threads,
        row.m.false_alarms, row.m.detected, row.m.total_failures,
        row.m.precision, row.m.recall, row.m.f05, row.m.mean_lead_days,
        row.m.latency_p50_ms, row.m.latency_p99_ms,
        row.m.ensemble_bytes_per_vehicle, row.m.retrains_started,
        row.m.retrains_completed, row.m.suppressed_alarms, row.m.fingerprint,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("measurements written to BENCH_ensemble.json\n");
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace navarchos

int main(int argc, char** argv) { return navarchos::Main(argc, argv); }
