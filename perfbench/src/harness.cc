#include "harness.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "persist/snapshot.h"
#include "runtime/runtime_config.h"

namespace navarchos::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;
};

// Must list exactly the metrics of BENCHMARK.json, with the same units.
constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", false},
    {"frames_per_s", "frames/s", false},
    {"cpu_us_per_frame", "us", false},
    {"checkpoint_ms", "ms", false},
    {"checkpoint_kb_per_vehicle", "KB", false},
    {"restore_ms", "ms", false},
    {"heap_kb_per_vehicle", "KB", false},
    {"release_p50_us", "us", false},
    {"release_p90_us", "us", false},
    {"query_p50_us", "us", false},
    {"core.self_us_per_frame", "us", true},
    {"core.scored_samples_per_vehicle", "count", true},
    {"transform.us_per_record", "us", true},
    {"detect.score_us_per_sample", "us", true},
    {"detect.fit_ms_p50", "ms", true},
    {"detect.fits", "count", true},
    {"ensemble.retrains", "count", true},
    {"ensemble.retrain_ms_p50", "ms", true},
    {"runtime.tasks_per_frame", "ratio", true},
    {"runtime.task_us_p50", "us", true},
    {"runtime.task_us_p99", "us", true},
    {"service.submit_us_p50", "us", true},
    {"service.submit_us_p99", "us", true},
    {"service.release_us_p50", "us", true},
    {"persist.lane_kb_per_vehicle", "KB", true},
    {"persist.sink_kb", "KB", true},
    {"persist.write_ms", "ms", true},
    {"persist.read_ms", "ms", true},
    {"service.restore_from_ms", "ms", true},
    {"net.flush_us_p50", "us", true},
    {"net.flush_us_p90", "us", true},
    {"net.bytes_per_frame", "bytes", true},
    {"net.frames_per_message", "frames", true},
    {"shard.frame_skew", "ratio", true},
    {"history.append_us_p50", "us", true},
    {"history.append_us_p99", "us", true},
    {"history.bytes_per_record", "bytes", true},
    {"history.rank_us_p50", "us", true},
    {"history.timeline_us_p50", "us", true},
    {"history.comove_us_p50", "us", true},
    {"obs.scrape_us_p50", "us", true},
    {"obs.snapshot_kb", "KB", true},
};

const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& spec : kMetrics)
    if (name == spec.name) return &spec;
  return nullptr;
}

}  // namespace

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t WallNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal, in clock ticks.
  double ticks[8] = {};
  for (double& t : ticks)
    if (!(in >> t)) return HostCpu{};
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  for (const double t : ticks) cpu.total_s += t / hz;
  cpu.steal_s = ticks[7] / hz;
  return cpu;
}

std::size_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double HistogramQuantile(const obs::StatsSnapshot& snapshot,
                         const std::string& name, double q) {
  const obs::HistogramSample* histogram = snapshot.FindHistogram(name);
  if (histogram == nullptr || histogram->count == 0) return 0.0;
  return static_cast<double>(histogram->ValueAtQuantile(q));
}

FleetInputs MakeInputs(std::uint64_t seed, int days) {
  telemetry::FleetConfig config = telemetry::FleetConfig::PaperScale();
  config.days = days;
  config.seed = seed;
  FleetInputs inputs;
  inputs.fleet = telemetry::GenerateFleet(
      config, runtime::RuntimeConfig{kCatchUpWorkers});
  inputs.stream = telemetry::InterleaveFleetStream(inputs.fleet);
  inputs.ids = service::VehicleIdsOf(inputs.fleet);
  return inputs;
}

void RunResult::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    Fail("benchmark bug: unknown metric " + name);
    return;
  }
  values_[name] = value;
}

void RunResult::Count(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

bool RunResult::Attempt(const util::Status& status, const char* what) {
  Count(1, status.ok() ? 0 : 1);
  if (!status.ok()) Log("%s failed: %s", what, status.message().c_str());
  return status.ok();
}

void RunResult::Fail(const std::string& what) {
  problems_.push_back(what);
  Log("CHECK FAILED: %s", what.c_str());
}

bool RunResult::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
  return ok;
}

bool RunResult::PrintJson(bool per_layer) const {
  std::string metrics;
  for (const MetricSpec& spec : kMetrics) {
    if (spec.per_layer != per_layer) continue;
    const auto it = values_.find(spec.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      Log("benchmark bug: metric %s was not measured", spec.name);
      return false;
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, it->second, spec.unit);
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return true;
}

bool SameAlarmsPerVehicle(const std::vector<core::Alarm>& a,
                          const std::vector<core::Alarm>& b, std::string* why) {
  std::map<std::int32_t, std::vector<const core::Alarm*>> by_a;
  std::map<std::int32_t, std::vector<const core::Alarm*>> by_b;
  for (const core::Alarm& alarm : a) by_a[alarm.vehicle_id].push_back(&alarm);
  for (const core::Alarm& alarm : b) by_b[alarm.vehicle_id].push_back(&alarm);
  if (a.size() != b.size() || by_a.size() != by_b.size()) {
    *why = "alarm counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (const auto& [vehicle, list] : by_a) {
    const auto other = by_b.find(vehicle);
    if (other == by_b.end() || other->second.size() != list.size()) {
      *why = "alarm count differs on vehicle " + std::to_string(vehicle);
      return false;
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const core::Alarm& x = *list[i];
      const core::Alarm& y = *other->second[i];
      if (x.timestamp != y.timestamp || x.channel != y.channel ||
          x.channel_name != y.channel_name || x.score != y.score ||
          x.threshold != y.threshold) {
        *why = "alarm " + std::to_string(i) + " of vehicle " +
               std::to_string(vehicle) + " differs";
        return false;
      }
    }
  }
  return true;
}

bool SameQuality(const core::DataQualityReport& a,
                 const core::DataQualityReport& b) {
  return a.vehicle_id == b.vehicle_id && a.records_seen == b.records_seen &&
         a.duplicates_dropped == b.duplicates_dropped &&
         a.reordered_recovered == b.reordered_recovered &&
         a.late_dropped == b.late_dropped &&
         a.non_finite_dropped == b.non_finite_dropped &&
         a.stationary_dropped == b.stationary_dropped &&
         a.sensor_faulty_dropped == b.sensor_faulty_dropped &&
         a.stuck_run_records == b.stuck_run_records &&
         a.stuck_run_dropped == b.stuck_run_dropped &&
         a.non_finite_features_dropped == b.non_finite_features_dropped &&
         a.non_finite_scores_dropped == b.non_finite_scores_dropped &&
         a.quarantine_events == b.quarantine_events;
}

bool SameRecord(const history::HistoryRecord& a,
                const history::HistoryRecord& b) {
  return a.vehicle_id == b.vehicle_id && a.global_seq == b.global_seq &&
         a.timestamp == b.timestamp && a.score == b.score &&
         a.threshold == b.threshold && a.alarm == b.alarm &&
         a.top_channels == b.top_channels && a.votes == b.votes &&
         a.ensemble_live == b.ensemble_live;
}

void TracePersist(const std::vector<std::string>& snapshots,
                  const std::string& rewrite_dir,
                  const service::ServiceConfig& config, std::size_t vehicles,
                  RunResult* result) {
  std::filesystem::create_directories(rewrite_dir);
  double read_ms = 0.0, write_ms = 0.0, restore_ms = 0.0;
  std::size_t lane_bytes = 0, sink_bytes = 0;
  for (const std::string& path : snapshots) {
    persist::Snapshot snapshot;
    double t = WallSeconds();
    result->Check(persist::ReadSnapshot(path, &snapshot).ok(),
                  "snapshot reads back through persist::ReadSnapshot");
    read_ms += (WallSeconds() - t) * 1e3;
    for (const persist::SnapshotChunk& chunk : snapshot.chunks()) {
      if (chunk.tag.rfind("lane.", 0) == 0) lane_bytes += chunk.payload.size();
      if (chunk.tag == "sink") sink_bytes += chunk.payload.size();
    }
    const std::string name = std::filesystem::path(path).filename().string();
    t = WallSeconds();
    result->Check(persist::WriteSnapshot(rewrite_dir + "/" + name, snapshot).ok(),
                  "persist::WriteSnapshot rewrites the snapshot");
    write_ms += (WallSeconds() - t) * 1e3;
    service::FleetService fresh(config);
    t = WallSeconds();
    result->Check(fresh.RestoreFrom(snapshot).ok(),
                  "FleetService::RestoreFrom accepts the parsed snapshot");
    restore_ms += (WallSeconds() - t) * 1e3;
  }
  result->Set("persist.read_ms", read_ms);
  result->Set("persist.write_ms", write_ms);
  result->Set("service.restore_from_ms", restore_ms);
  result->Set("persist.lane_kb_per_vehicle",
              static_cast<double>(lane_bytes) / 1024.0 / static_cast<double>(vehicles));
  result->Set("persist.sink_kb", static_cast<double>(sink_bytes) / 1024.0);
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void Log(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace navarchos::perfbench
