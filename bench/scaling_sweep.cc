// Thread-scaling sweep of the parallel execution runtime.
//
// Measures the wall-clock of the three parallelised hot layers - fleet
// synthesis (telemetry::GenerateFleet), fleet monitoring (core::RunFleet),
// and the paper's 4x4 experiment grid (eval::RunGrid) - at threads in
// {1, 2, 4, hardware_concurrency}, verifies that every thread count produces
// bit-identical results (the runtime's determinism invariant), and writes
// the measurements to BENCH_scaling.json for the repo's perf trajectory.
//
// Speedups are relative to threads=1 on the same machine; on a single-core
// host every configuration necessarily measures ~1x.
#include <cinttypes>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "util/timer.h"

namespace navarchos {
namespace {

std::uint64_t FleetFingerprint(const telemetry::FleetDataset& fleet) {
  bench::Fingerprint fp;
  for (const auto& vehicle : fleet.vehicles) {
    fp.Add(static_cast<std::int64_t>(vehicle.spec.id));
    fp.Add(vehicle.events.size());
    for (const auto& event : vehicle.events) fp.Add(event.timestamp);
    fp.Add(vehicle.records.size());
    for (const auto& record : vehicle.records) {
      fp.Add(record.timestamp);
      for (double pid : record.pids) fp.Add(pid);
    }
  }
  return fp.value();
}

std::uint64_t GridFingerprint(const std::vector<eval::CellResult>& cells) {
  bench::Fingerprint fp;
  fp.Add(cells.size());
  for (const auto& cell : cells) {
    fp.Add(static_cast<std::int64_t>(cell.ph_days));
    fp.Add(cell.best_threshold);
    fp.Add(cell.metrics.f05);
    fp.Add(cell.metrics.precision);
    fp.Add(cell.metrics.recall);
    fp.Add(static_cast<std::int64_t>(cell.metrics.false_positive_episodes));
    // runtime_seconds deliberately excluded: wall-clock, not a result.
  }
  return fp.value();
}

struct Measurement {
  int threads = 0;
  double generate_seconds = 0.0;
  double run_fleet_seconds = 0.0;
  double run_grid_seconds = 0.0;
  std::uint64_t fleet_fingerprint = 0;
  std::uint64_t run_fingerprint = 0;
  std::uint64_t grid_fingerprint = 0;
};

int Main(int argc, char** argv) {
  const util::Args args(argc, argv);
  auto options = bench::BenchOptions::FromArgs(args);
  // The grid runs 16 cells per thread count; default to a reduced fleet so
  // the whole sweep stays in bench territory. --days overrides as usual.
  if (!args.Has("days")) options.days = 60;
  bench::PrintHeader("Scaling sweep - runtime speedup at 1/2/4/N threads",
                     options);

  const int hardware = runtime::RuntimeConfig::AllCores().ResolveThreads();
  std::set<int> counts = {1, 2, 4, hardware};
  std::printf("hardware threads: %d\n\n", hardware);

  std::vector<Measurement> measurements;
  for (int threads : counts) {
    bench::BenchOptions at = options;
    at.threads = threads;
    Measurement m;
    m.threads = threads;

    util::Timer timer;
    const auto fleet = bench::MakeSetting40(at);
    m.generate_seconds = timer.ElapsedSeconds();
    m.fleet_fingerprint = FleetFingerprint(fleet);

    core::MonitorConfig base;
    timer.Reset();
    const auto run = core::RunFleet(fleet, base, at.Runtime());
    m.run_fleet_seconds = timer.ElapsedSeconds();
    m.run_fingerprint = bench::RunFingerprint(run);

    eval::SweepConfig sweep;
    timer.Reset();
    const auto cells = eval::RunGrid(fleet, sweep, base, at.Runtime());
    m.run_grid_seconds = timer.ElapsedSeconds();
    m.grid_fingerprint = GridFingerprint(cells);

    std::printf("threads=%-3d generate %7.2fs   run_fleet %7.2fs   "
                "run_grid %8.2fs\n",
                threads, m.generate_seconds, m.run_fleet_seconds,
                m.run_grid_seconds);
    std::fflush(stdout);
    measurements.push_back(m);
  }

  // Determinism: every thread count must produce bit-identical outputs.
  bool identical = true;
  for (const auto& m : measurements) {
    identical = identical &&
                m.fleet_fingerprint == measurements[0].fleet_fingerprint &&
                m.run_fingerprint == measurements[0].run_fingerprint &&
                m.grid_fingerprint == measurements[0].grid_fingerprint;
  }
  std::printf("\ndeterminism across thread counts: %s\n",
              identical ? "IDENTICAL" : "MISMATCH");

  const Measurement& serial = measurements.front();
  std::FILE* json = std::fopen("BENCH_scaling.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_scaling.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"scaling_sweep\",\n");
  bench::WriteBuildMetadata(json);
  std::fprintf(json, "  \"days\": %d,\n  \"seed\": %" PRIu64 ",\n",
               options.days, options.seed);
  std::fprintf(json, "  \"threads\": %d,\n", options.threads);
  std::fprintf(json, "  \"hardware_concurrency\": %d,\n", hardware);
  std::fprintf(json, "  \"deterministic_across_thread_counts\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"generate_seconds\": %.3f, "
                 "\"run_fleet_seconds\": %.3f, \"run_grid_seconds\": %.3f, "
                 "\"generate_speedup\": %.2f, \"run_fleet_speedup\": %.2f, "
                 "\"run_grid_speedup\": %.2f}%s\n",
                 m.threads, m.generate_seconds, m.run_fleet_seconds,
                 m.run_grid_seconds,
                 m.generate_seconds > 0 ? serial.generate_seconds / m.generate_seconds : 0.0,
                 m.run_fleet_seconds > 0 ? serial.run_fleet_seconds / m.run_fleet_seconds : 0.0,
                 m.run_grid_seconds > 0 ? serial.run_grid_seconds / m.run_grid_seconds : 0.0,
                 i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("measurements written to BENCH_scaling.json\n");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace navarchos

int main(int argc, char** argv) { return navarchos::Main(argc, argv); }
