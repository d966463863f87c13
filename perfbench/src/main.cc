// fleet_perf: runs one named workload of the fleet benchmark.
//
//   fleet_perf --workload backfill|live --seed N --seconds S
//              --trace 0|1 --workdir DIR
//
// Progress goes to stderr; the last line on stdout is one JSON object with
// the run's correctness, operation counts and metrics (end-to-end metrics
// untraced, per-layer metrics traced). perfbench/run.py builds this binary
// and gives every run a fresh working directory.
#include <cstdio>
#include <filesystem>
#include <string>

#include "harness.h"
#include "util/args.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace navarchos::perfbench;
  const navarchos::util::Args args(argc, argv);
  RunSettings settings;
  settings.workload = args.GetString("workload", "");
  settings.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  settings.seconds = args.GetDouble("seconds", 0.0);
  const std::int64_t trace = args.GetInt("trace", 0);
  settings.trace = trace == 1;
  settings.workdir = args.GetString("workdir", "");
  if (settings.workdir.empty() || settings.seconds <= 0.0 || (trace != 0 && trace != 1) ||
      (settings.workload != "backfill" && settings.workload != "live")) {
    std::fprintf(stderr,
                 "usage: fleet_perf --workload backfill|live --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(settings.workdir);

  RunResult result;
  const double start = WallSeconds();
  const HostCpu host_start = ReadHostCpu();
  if (settings.workload == "backfill") RunBackfill(settings, &result);
  if (settings.workload == "live") RunLive(settings, &result);
  const HostCpu host_end = ReadHostCpu();
  // Steal is CPU time this machine's vCPUs wanted but the host gave to
  // other guests; runs with much of it read slower on every time metric.
  const double host_s = host_end.total_s - host_start.total_s;
  Log("%s: run took %.1f s, outputs %s, host steal %.1f%% of CPU time",
      settings.workload.c_str(), WallSeconds() - start,
      result.correct() ? "correct" : "INCORRECT",
      host_s > 0.0 ? 100.0 * (host_end.steal_s - host_start.steal_s) / host_s : 0.0);
  if (!result.PrintJson(settings.trace)) return 3;
  return result.correct() ? 0 : 1;
}
