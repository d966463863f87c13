// Throughput and latency of the streaming fleet service.
//
// Replays the interleaved setting40 feed through service::FleetService at
// threads in {1, 2, 4, hardware_concurrency}, measuring end-to-end
// frames/sec and the per-frame latency distribution (submit to ordered
// release, p50/p99) via the service's completion callback. Every thread
// count must produce a bit-identical run result - the replay-equals-live
// invariant - and the exit code reflects exactly that; speedups are
// reported for the perf trajectory but depend on the host's core count
// (a single-core host necessarily measures ~1x). A serial core::RunFleet
// row over the same fleet comes first, and every worker count prints its
// frames/sec as a ratio to it: the gap between what the pipeline costs and
// what the service around it costs.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <vector>

#include "bench/common.h"
#include "core/fleet_runner.h"
#include "service/fleet_service.h"
#include "telemetry/stream.h"
#include "util/timer.h"

namespace navarchos {
namespace {

struct Measurement {
  int threads = 0;
  double seconds = 0.0;
  double frames_per_sec = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  std::uint64_t fingerprint = 0;
};

double PercentileUs(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies->size() - 1));
  std::nth_element(latencies->begin(),
                   latencies->begin() + static_cast<std::ptrdiff_t>(rank),
                   latencies->end());
  return (*latencies)[rank];
}

Measurement MeasureAt(int threads,
                      const std::vector<telemetry::SensorFrame>& stream,
                      const std::vector<std::int32_t>& ids,
                      const core::MonitorConfig& monitor) {
  using Clock = std::chrono::steady_clock;
  Measurement m;
  m.threads = threads;

  service::ServiceConfig config;
  config.monitor = monitor;
  config.runtime = runtime::RuntimeConfig{threads};
  service::FleetService svc(config);

  // Under kBlock every frame is admitted, so global_seq == submission
  // index: submit timestamps land in a plain index-aligned vector and the
  // completion callback (serialised by the sink) reads its own slot.
  std::vector<Clock::time_point> submitted(stream.size());
  std::vector<double> latencies_us(stream.size(), 0.0);
  svc.set_completion_callback(
      [&submitted, &latencies_us](const service::FrameCompletion& c) {
        const auto delta = Clock::now() - submitted[c.global_seq];
        latencies_us[c.global_seq] =
            std::chrono::duration<double, std::micro>(delta).count();
      });
  for (const std::int32_t id : ids) svc.RegisterVehicle(id);

  util::Timer timer;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    submitted[i] = Clock::now();
    svc.Submit(stream[i]);
  }
  svc.Drain();
  m.seconds = timer.ElapsedSeconds();
  m.frames_per_sec =
      m.seconds > 0 ? static_cast<double>(stream.size()) / m.seconds : 0.0;
  m.p50_latency_us = PercentileUs(&latencies_us, 0.50);
  m.p99_latency_us = PercentileUs(&latencies_us, 0.99);
  m.fingerprint = bench::RunFingerprint(svc.TakeResult());
  return m;
}

int Main(int argc, char** argv) {
  const util::Args args(argc, argv);
  auto options = bench::BenchOptions::FromArgs(args);
  // Four full passes over the feed: default to a reduced fleet-quarter so
  // the sweep stays in bench territory. --days overrides as usual.
  if (!args.Has("days")) options.days = 90;
  bench::PrintHeader("Streaming throughput - frames/sec and per-frame "
                     "latency of the fleet service", options);

  const auto fleet = bench::MakeSetting40(options);
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  core::MonitorConfig monitor;
  const int hardware = runtime::RuntimeConfig::AllCores().ResolveThreads();
  std::printf("frames: %zu   vehicles: %zu   hardware threads: %d\n\n",
              stream.size(), ids.size(), hardware);

  // The pipeline alone: the batch runner over the same fleet, serially.
  util::Timer batch_timer;
  (void)core::RunFleet(fleet, monitor, runtime::RuntimeConfig{1});
  const double batch_seconds = batch_timer.ElapsedSeconds();
  const double batch_frames_per_sec =
      batch_seconds > 0 ? static_cast<double>(stream.size()) / batch_seconds
                        : 0.0;
  std::printf("RunFleet    %8.2fs   %9.0f frames/s   (serial batch runner)\n",
              batch_seconds, batch_frames_per_sec);
  const auto ratio_to_batch = [batch_frames_per_sec](const Measurement& m) {
    return batch_frames_per_sec > 0 ? m.frames_per_sec / batch_frames_per_sec
                                    : 0.0;
  };

  std::set<int> counts = {1, 2, 4, hardware};
  std::vector<Measurement> measurements;
  for (int threads : counts) {
    const Measurement m = MeasureAt(threads, stream, ids, monitor);
    std::printf("threads=%-3d %8.2fs   %9.0f frames/s   p50 %8.1fus   "
                "p99 %9.1fus   %.2fx RunFleet\n",
                m.threads, m.seconds, m.frames_per_sec, m.p50_latency_us,
                m.p99_latency_us, ratio_to_batch(m));
    std::fflush(stdout);
    measurements.push_back(m);
  }

  // Replay-equals-live: every thread count must produce the identical run.
  bool identical = true;
  for (const auto& m : measurements)
    identical = identical && m.fingerprint == measurements[0].fingerprint;
  std::printf("\ndeterminism across thread counts: %s\n",
              identical ? "IDENTICAL" : "MISMATCH");

  const Measurement& serial = measurements.front();
  std::FILE* json = std::fopen("BENCH_streaming.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_streaming.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"streaming_throughput\",\n");
  bench::WriteBuildMetadata(json);
  std::fprintf(json, "  \"days\": %d,\n  \"seed\": %" PRIu64 ",\n",
               options.days, options.seed);
  std::fprintf(json, "  \"threads\": %d,\n", options.threads);
  std::fprintf(json, "  \"hardware_concurrency\": %d,\n", hardware);
  std::fprintf(json, "  \"frames\": %zu,\n", stream.size());
  std::fprintf(json, "  \"deterministic_across_thread_counts\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(json, "  \"run_fleet_seconds\": %.3f,\n", batch_seconds);
  std::fprintf(json, "  \"run_fleet_frames_per_sec\": %.1f,\n",
               batch_frames_per_sec);
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"seconds\": %.3f, "
                 "\"frames_per_sec\": %.1f, \"p50_latency_us\": %.1f, "
                 "\"p99_latency_us\": %.1f, \"speedup_vs_1\": %.2f, "
                 "\"ratio_to_run_fleet\": %.3f}%s\n",
                 m.threads, m.seconds, m.frames_per_sec, m.p50_latency_us,
                 m.p99_latency_us,
                 m.seconds > 0 ? serial.seconds / m.seconds : 0.0,
                 ratio_to_batch(m), i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("measurements written to BENCH_streaming.json\n");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace navarchos

int main(int argc, char** argv) { return navarchos::Main(argc, argv); }
