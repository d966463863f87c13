// Shared infrastructure of the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper. The
// expensive part - the 4 transformations x 4 techniques grid over a full
// simulated fleet-year - is computed once per (setting, days, seed) and
// cached as CSV in ./navarchos_bench_cache/, so fig4/fig5 compute it and
// fig6/fig7/table1 reuse it. Delete the cache directory to force a rerun.
#ifndef NAVARCHOS_BENCH_COMMON_H_
#define NAVARCHOS_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fleet_runner.h"
#include "eval/experiment.h"
#include "runtime/runtime_config.h"
#include "telemetry/fleet.h"
#include "util/args.h"

namespace navarchos::bench {

/// Common bench options parsed from argv.
struct BenchOptions {
  int days = 365;
  std::uint64_t seed = 42;
  std::string cache_dir = "navarchos_bench_cache";
  /// Worker threads (--threads): 0 = all hardware threads, 1 = serial.
  /// Results are bit-identical at any value; only wall-clock changes.
  int threads = 0;

  /// The execution runtime all bench work should run on.
  runtime::RuntimeConfig Runtime() const { return runtime::RuntimeConfig{threads}; }

  static BenchOptions FromArgs(const util::Args& args);
};

/// The simulated stand-in for the paper's setting40 fleet.
telemetry::FleetDataset MakeSetting40(const BenchOptions& options);

/// The paper's setting26: the reporting subset of setting40.
telemetry::FleetDataset MakeSetting26(const BenchOptions& options);

/// One cached grid cell (CellResult plus its setting label).
struct GridRecord {
  std::string setting;  ///< "setting40" or "setting26".
  eval::CellResult cell;
};

/// Loads the grid for `setting` from the cache, computing and persisting it
/// on a miss. `setting` must be "setting40" or "setting26".
std::vector<GridRecord> LoadOrComputeGrid(const std::string& setting,
                                          const BenchOptions& options);

/// Renders the paper's Fig. 4/5 bar groups for one setting as a text table
/// with ASCII bars (dark = PH15, light = PH30 in the paper; here two rows).
std::string RenderSettingFigure(const std::vector<GridRecord>& grid,
                                const std::string& setting);

/// Prints a standard bench header (binary purpose + fleet parameters).
void PrintHeader(const std::string& title, const BenchOptions& options);

/// Writes the build-metadata header block into an open BENCH_*.json file:
///   "build": {"compiler": ..., "compiler_version": ..., "build_type": ...,
///             "flags": ...},
/// (two-space indent, trailing comma + newline, ready to sit between other
/// top-level header fields). The values are baked in at compile time -
/// compiler id/version from predefined macros, build type and flags from
/// CMake - so a measurement can never be archived without the toolchain
/// context it was produced under. check_bench_json.py requires the block
/// in every artifact.
void WriteBuildMetadata(std::FILE* json);

/// Renders the Fig. 4/5 grouped bar chart (F0.5 at PH=30, grouped by
/// transformation, one bar per technique) and writes it next to the grid
/// cache as `<cache_dir>/<name>.svg`. Prints the output path.
void WriteSettingFigureSvg(const std::vector<GridRecord>& grid,
                           const std::string& setting, const std::string& name,
                           const BenchOptions& options);

/// Order-sensitive FNV-1a over the bytes of a value sequence (integers are
/// hashed as doubles): the determinism fingerprint of every bench. Two runs
/// that fold equal sequences have equal fingerprints.
class Fingerprint {
 public:
  /// Folds the eight bytes of `value`.
  void Add(double value);
  /// Folds `value` as a double.
  void Add(std::int64_t value) { Add(static_cast<double>(value)); }
  /// Folds `value` as a double.
  void Add(std::size_t value) { Add(static_cast<double>(value)); }
  /// Folds a run result: its alarms in release order (vehicle, timestamp,
  /// score, threshold), every vehicle's per-sample scores, and every
  /// vehicle's records_seen and RecordsDropped().
  void AddRun(const core::FleetRunResult& run);
  /// The hash of everything folded so far.
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Fingerprint of one run result (Fingerprint::AddRun on a fresh hash).
std::uint64_t RunFingerprint(const core::FleetRunResult& run);

}  // namespace navarchos::bench

#endif  // NAVARCHOS_BENCH_COMMON_H_
