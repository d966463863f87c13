// Shared plumbing of the fleet benchmark: clocks, heap and CPU probes,
// order statistics, the run's inputs, timed setup builds, the traced
// checkpoint breakdown, and the result every workload fills in and main()
// prints as the final JSON line.
#ifndef NAVARCHOS_PERFBENCH_HARNESS_H_
#define NAVARCHOS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/fleet_runner.h"
#include "core/monitor.h"
#include "history/history_log.h"
#include "obs/metrics.h"
#include "service/fleet_service.h"
#include "telemetry/fleet.h"
#include "telemetry/stream.h"
#include "util/status.h"

namespace navarchos::perfbench {

/// Worker threads of the monitor pool in the closed-loop workloads: with
/// the ingest thread that makes the four busy threads a 4-vCPU host has.
inline constexpr int kCatchUpWorkers = 3;

/// Monotonic wall clock in seconds.
double WallSeconds();
/// Monotonic wall clock in nanoseconds.
std::uint64_t WallNanos();
/// CPU time of the whole process (all threads) in seconds.
double ProcessCpuSeconds();
/// CPU time of the whole machine (all CPUs, seconds) and the part of it
/// the hypervisor gave to other guests (steal), from /proc/stat; zeros
/// when it cannot be read.
struct HostCpu {
  double total_s = 0.0;
  double steal_s = 0.0;
};
HostCpu ReadHostCpu();
/// Heap bytes the process holds right now (malloc'd chunks in use plus
/// mmapped blocks), summed over every arena.
std::size_t HeapInUseBytes();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank quantile `q` in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);
/// Quantile `q` of a registry histogram (0 when absent or empty).
double HistogramQuantile(const obs::StatsSnapshot& snapshot,
                         const std::string& name, double q);

/// Command-line settings of one run.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< Measuring time; required on the command line.
  bool trace = false;
  /// Scratch directory of this run (checkpoints, history logs, spans).
  std::string workdir;
};

/// The generated inputs of a run: a setting40 fleet and its interleaved
/// frame stream, both pure functions of (seed, days).
struct FleetInputs {
  telemetry::FleetDataset fleet;
  std::vector<telemetry::SensorFrame> stream;
  std::vector<std::int32_t> ids;
};
FleetInputs MakeInputs(std::uint64_t seed, int days);

/// What a run reports: operation counts, correctness, and metric values.
class RunResult {
 public:
  /// Sets metric `name`; the unit comes from the metric table.
  void Set(const std::string& name, double value);
  /// Counts `n` attempted operations, `failed` of which failed.
  void Count(std::uint64_t n, std::uint64_t failed = 0);
  /// Counts one attempted operation; logs and counts it as failed unless
  /// `status` is OK. Returns status.ok().
  bool Attempt(const util::Status& status, const char* what);
  /// Records a failed output check (the run then reports correct=false).
  void Fail(const std::string& what);
  /// Records a check; returns `ok`.
  bool Check(bool ok, const std::string& what);
  bool correct() const { return problems_.empty(); }
  /// Prints the final JSON line with every metric of the requested class
  /// (end-to-end or per-layer). Returns false, printing nothing, when a
  /// metric of that class was never set.
  bool PrintJson(bool per_layer) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-vehicle equality of two alarm streams (release order may differ
/// between a service and the batch runner; each vehicle's order may not).
bool SameAlarmsPerVehicle(const std::vector<core::Alarm>& a,
                          const std::vector<core::Alarm>& b,
                          std::string* why);
/// Field-exact equality of two data-quality reports.
bool SameQuality(const core::DataQualityReport& a,
                 const core::DataQualityReport& b);
/// Field-exact equality of two history records.
bool SameRecord(const history::HistoryRecord& a,
                const history::HistoryRecord& b);

/// Builds a ready-to-ingest stack `count` times and tears it down again,
/// appending each build's wall time to `setup_s`. `build(dir)` gets a
/// fresh history directory under `root` and returns the stack as a
/// unique_ptr; only the build is timed.
template <typename Build>
void TimeSetups(int count, const std::string& root, Build build,
                std::vector<double>* setup_s) {
  for (int i = 0; i < count; ++i) {
    const std::string dir = root + "/setup" + std::to_string(i);
    const double start = WallSeconds();
    auto stack = build(dir);
    setup_s->push_back(WallSeconds() - start);
    stack.reset();
    std::filesystem::remove_all(dir);
  }
}

/// Traced runs: times the checkpoint's layers one by one over its
/// snapshot files (one per service or shard). Each file is parsed with
/// persist::ReadSnapshot, rewritten with persist::WriteSnapshot into
/// `rewrite_dir` and restored with FleetService::RestoreFrom into a fresh
/// service built from `config`; the three times are summed over the files.
/// Also sizes the lane.* and sink chunks.
void TracePersist(const std::vector<std::string>& snapshots,
                  const std::string& rewrite_dir,
                  const service::ServiceConfig& config, std::size_t vehicles,
                  RunResult* result);

/// Bytes of every regular file under `dir` (recursively).
std::uint64_t DirectoryBytes(const std::string& dir);
/// Whole contents of a file (empty on error).
std::vector<std::uint8_t> ReadFileBytes(const std::string& path);

/// Progress line on stderr (stdout carries only the final JSON line).
void Log(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace navarchos::perfbench

#endif  // NAVARCHOS_PERFBENCH_HARNESS_H_
