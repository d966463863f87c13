#include "bench/common.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "report/svg.h"
#include "util/csv.h"
#include "util/table.h"

namespace navarchos::bench {

BenchOptions BenchOptions::FromArgs(const util::Args& args) {
  BenchOptions options;
  options.days = static_cast<int>(args.GetInt("days", options.days));
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  options.cache_dir = args.GetString("cache-dir", options.cache_dir);
  options.threads = static_cast<int>(args.GetInt("threads", options.threads));
  return options;
}

telemetry::FleetDataset MakeSetting40(const BenchOptions& options) {
  telemetry::FleetConfig config = telemetry::FleetConfig::PaperScale();
  config.days = options.days;
  config.seed = options.seed;
  return telemetry::GenerateFleet(config, options.Runtime());
}

telemetry::FleetDataset MakeSetting26(const BenchOptions& options) {
  return MakeSetting40(options).ReportingSubset();
}

namespace {

std::string CachePath(const std::string& setting, const BenchOptions& options) {
  char name[128];
  std::snprintf(name, sizeof(name), "grid_%s_d%d_s%llu.csv", setting.c_str(),
                options.days, static_cast<unsigned long long>(options.seed));
  return options.cache_dir + "/" + name;
}

const std::vector<std::string>& GridHeader() {
  static const std::vector<std::string> kHeader = {
      "setting", "transform", "detector", "ph_days",   "f05",
      "f1",      "precision", "recall",   "threshold", "fp_episodes",
      "detected", "total_failures", "runtime_seconds"};
  return kHeader;
}

transform::TransformKind TransformByName(const std::string& name) {
  for (transform::TransformKind kind : eval::PaperTransforms())
    if (name == transform::TransformKindName(kind)) return kind;
  std::fprintf(stderr, "unknown transform in cache: %s\n", name.c_str());
  std::abort();
}

detect::DetectorKind DetectorByName(const std::string& name) {
  for (detect::DetectorKind kind : eval::PaperDetectors())
    if (name == detect::DetectorKindName(kind)) return kind;
  std::fprintf(stderr, "unknown detector in cache: %s\n", name.c_str());
  std::abort();
}

std::vector<GridRecord> ParseGrid(const util::CsvDocument& doc) {
  std::vector<GridRecord> grid;
  for (const auto& row : doc.rows) {
    GridRecord record;
    record.setting = row[0];
    record.cell.transform = TransformByName(row[1]);
    record.cell.detector = DetectorByName(row[2]);
    record.cell.ph_days = std::stoi(row[3]);
    record.cell.metrics.f05 = std::stod(row[4]);
    record.cell.metrics.f1 = std::stod(row[5]);
    record.cell.metrics.precision = std::stod(row[6]);
    record.cell.metrics.recall = std::stod(row[7]);
    record.cell.best_threshold = std::stod(row[8]);
    record.cell.metrics.false_positive_episodes = std::stoi(row[9]);
    record.cell.metrics.detected_failures = std::stoi(row[10]);
    record.cell.metrics.total_failures = std::stoi(row[11]);
    record.cell.runtime_seconds = std::stod(row[12]);
    grid.push_back(std::move(record));
  }
  return grid;
}

util::CsvDocument SerialiseGrid(const std::vector<GridRecord>& grid) {
  util::CsvDocument doc;
  doc.header = GridHeader();
  for (const GridRecord& record : grid) {
    const eval::CellResult& cell = record.cell;
    doc.rows.push_back({record.setting,
                        transform::TransformKindName(cell.transform),
                        detect::DetectorKindName(cell.detector),
                        std::to_string(cell.ph_days),
                        util::Table::Num(cell.metrics.f05, 4),
                        util::Table::Num(cell.metrics.f1, 4),
                        util::Table::Num(cell.metrics.precision, 4),
                        util::Table::Num(cell.metrics.recall, 4),
                        util::Table::Num(cell.best_threshold, 4),
                        std::to_string(cell.metrics.false_positive_episodes),
                        std::to_string(cell.metrics.detected_failures),
                        std::to_string(cell.metrics.total_failures),
                        util::Table::Num(cell.runtime_seconds, 3)});
  }
  return doc;
}

}  // namespace

std::vector<GridRecord> LoadOrComputeGrid(const std::string& setting,
                                          const BenchOptions& options) {
  const std::string path = CachePath(setting, options);
  util::CsvDocument cached;
  if (util::ReadCsv(path, &cached).ok() && !cached.rows.empty()) {
    std::printf("[grid] using cached %s\n", path.c_str());
    return ParseGrid(cached);
  }

  std::printf("[grid] computing %s grid (%d days, seed %llu) - "
              "this runs all 16 transform x technique cells...\n",
              setting.c_str(), options.days,
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);
  const telemetry::FleetDataset fleet =
      setting == "setting26" ? MakeSetting26(options) : MakeSetting40(options);
  eval::SweepConfig sweep;
  core::MonitorConfig base;
  const auto cells = eval::RunGrid(fleet, sweep, base, options.Runtime());

  std::vector<GridRecord> grid;
  grid.reserve(cells.size());
  for (const eval::CellResult& cell : cells) grid.push_back({setting, cell});

  // Concurrent bench invocations may race on the cache: tolerate the
  // directory already existing, write to a process-unique temp file, and
  // publish it with an atomic rename so readers never observe a torn CSV.
  std::error_code ec;
  std::filesystem::create_directories(options.cache_dir, ec);
  const std::string temp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const util::Status status = util::WriteCsv(temp_path, SerialiseGrid(grid));
  if (!status.ok()) {
    std::fprintf(stderr, "[grid] cache write failed: %s\n", status.message().c_str());
    return grid;
  }
  std::filesystem::rename(temp_path, path, ec);
  if (ec) {
    std::fprintf(stderr, "[grid] cache publish failed: %s\n", ec.message().c_str());
    std::filesystem::remove(temp_path, ec);
  }
  return grid;
}

std::string RenderSettingFigure(const std::vector<GridRecord>& grid,
                                const std::string& setting) {
  util::Table table({"transform", "technique", "F0.5 PH=15", "(bar)",
                     "F0.5 PH=30", "(bar)", "P@30", "R@30"});
  for (transform::TransformKind transform_kind : eval::PaperTransforms()) {
    for (detect::DetectorKind detector_kind : eval::PaperDetectors()) {
      const GridRecord* ph15 = nullptr;
      const GridRecord* ph30 = nullptr;
      for (const GridRecord& record : grid) {
        if (record.setting != setting || record.cell.transform != transform_kind ||
            record.cell.detector != detector_kind) {
          continue;
        }
        (record.cell.ph_days == 15 ? ph15 : ph30) = &record;
      }
      if (ph15 == nullptr || ph30 == nullptr) continue;
      table.AddRow({transform::TransformKindName(transform_kind),
                    detect::DetectorKindName(detector_kind),
                    util::Table::Num(ph15->cell.metrics.f05, 2),
                    util::AsciiBar(ph15->cell.metrics.f05, 1.0, 20),
                    util::Table::Num(ph30->cell.metrics.f05, 2),
                    util::AsciiBar(ph30->cell.metrics.f05, 1.0, 20),
                    util::Table::Num(ph30->cell.metrics.precision, 2),
                    util::Table::Num(ph30->cell.metrics.recall, 2)});
    }
  }
  return table.ToString();
}

void WriteSettingFigureSvg(const std::vector<GridRecord>& grid,
                           const std::string& setting, const std::string& name,
                           const BenchOptions& options) {
  report::BarChart chart;
  chart.title = name + ": F0.5 at PH=30 (" + setting + ")";
  for (auto transform_kind : eval::PaperTransforms())
    chart.groups.emplace_back(transform::TransformKindName(transform_kind));
  std::size_t colour = 0;
  for (auto detector_kind : eval::PaperDetectors()) {
    report::BarSeries series;
    series.label = detect::DetectorKindName(detector_kind);
    series.colour = report::ColourCycle()[colour++ % report::ColourCycle().size()];
    for (auto transform_kind : eval::PaperTransforms()) {
      double value = 0.0;
      for (const GridRecord& record : grid) {
        if (record.setting == setting && record.cell.ph_days == 30 &&
            record.cell.transform == transform_kind &&
            record.cell.detector == detector_kind) {
          value = record.cell.metrics.f05;
        }
      }
      series.values.push_back(value);
    }
    chart.series.push_back(std::move(series));
  }
  std::filesystem::create_directories(options.cache_dir);
  const std::string path = options.cache_dir + "/" + name + ".svg";
  const util::Status status = report::WriteSvg(path, report::RenderBarChart(chart));
  if (status.ok()) {
    std::printf("figure written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "svg write failed: %s\n", status.message().c_str());
  }
}

void PrintHeader(const std::string& title, const BenchOptions& options) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("fleet: %d days, seed %llu (paper-scale preset; use --days/--seed)\n",
              options.days, static_cast<unsigned long long>(options.seed));
  std::printf("runtime: %d thread(s) (--threads, 0 = all cores; results are "
              "identical at any count)\n",
              options.Runtime().ResolveThreads());
  std::printf("==============================================================\n");
}

// Build type and flags are injected by bench/CMakeLists.txt; default them so
// common.cc still compiles when built outside CMake (e.g. an IDE's single-
// file check).
#ifndef NAVARCHOS_BUILD_TYPE
#define NAVARCHOS_BUILD_TYPE ""
#endif
#ifndef NAVARCHOS_CXX_FLAGS
#define NAVARCHOS_CXX_FLAGS ""
#endif

void WriteBuildMetadata(std::FILE* json) {
#if defined(__clang__)
  std::fprintf(json,
               "  \"build\": {\"compiler\": \"clang\", "
               "\"compiler_version\": \"%d.%d.%d\", ",
               __clang_major__, __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
  std::fprintf(json,
               "  \"build\": {\"compiler\": \"gcc\", "
               "\"compiler_version\": \"%d.%d.%d\", ",
               __GNUC__, __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
  std::fprintf(json,
               "  \"build\": {\"compiler\": \"unknown\", "
               "\"compiler_version\": \"\", ");
#endif
  std::fprintf(json, "\"build_type\": \"%s\", \"flags\": \"%s\"},\n",
               NAVARCHOS_BUILD_TYPE, NAVARCHOS_CXX_FLAGS);
}

void Fingerprint::Add(double value) {
  unsigned char bytes[sizeof(double)];
  __builtin_memcpy(bytes, &value, sizeof(double));
  for (unsigned char byte : bytes) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ull;
  }
}

void Fingerprint::AddRun(const core::FleetRunResult& run) {
  Add(run.alarms.size());
  for (const auto& alarm : run.alarms) {
    Add(static_cast<std::int64_t>(alarm.vehicle_id));
    Add(alarm.timestamp);
    Add(alarm.score);
    Add(alarm.threshold);
  }
  for (const auto& samples : run.scored_samples) {
    Add(samples.size());
    for (const auto& sample : samples)
      for (double score : sample.scores) Add(score);
  }
  for (const auto& quality : run.quality) {
    Add(quality.records_seen);
    Add(quality.RecordsDropped());
  }
}

std::uint64_t RunFingerprint(const core::FleetRunResult& run) {
  Fingerprint fp;
  fp.AddRun(run);
  return fp.value();
}

}  // namespace navarchos::bench
