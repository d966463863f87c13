// The sharded extension of the house invariant: for a recorded interleaved
// stream, the ShardGroup's complete fleet-wide output - alarms in total
// order, history records with fleet sequence numbers, scored samples,
// calibrations, quality reports - is bit-identical at EVERY shard count x
// thread count combination, and equal to the unsharded service. Sharding
// re-partitions lanes between services; it must never change a single
// emitted byte. Verified on a clean stream and on a corrupted stream whose
// reorderings/duplicates exercise the reorder buffers on every shard.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet_runner.h"
#include "history/history_log.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
#include "shard/shard_group.h"
#include "telemetry/corruption.h"
#include "telemetry/fleet.h"
#include "telemetry/stream.h"

namespace navarchos {
namespace {

telemetry::FleetConfig SmallFleetConfig() {
  telemetry::FleetConfig config = telemetry::FleetConfig::TestScale();
  config.days = 30;
  return config;
}

core::MonitorConfig FastMonitorConfig() {
  core::MonitorConfig config;
  config.transform_options.window = 60;
  config.transform_options.stride = 10;
  config.profile_minutes = 400.0;
  config.threshold.burn_in_minutes = 120.0;
  config.threshold.persistence_minutes = 60.0;
  return config;
}

/// FastMonitorConfig with the rolling consensus ensemble switched on.
core::MonitorConfig EnsembleMonitorConfig() {
  core::MonitorConfig config = FastMonitorConfig();
  config.ensemble.enabled = true;
  config.ensemble.k = 3;
  config.ensemble.m = 2;
  config.ensemble.retrain_every = 24;
  config.ensemble.activation_lag = 8;
  return config;
}

service::ServiceConfig ServiceConfigWith(
    int threads, const core::MonitorConfig& monitor = FastMonitorConfig()) {
  service::ServiceConfig config;
  config.monitor = monitor;
  config.runtime = runtime::RuntimeConfig{threads};
  config.queue_capacity = 32;  // Small enough to exercise backpressure.
  return config;
}

/// Everything a sharded run emits, in emission order.
struct ShardedRun {
  core::FleetRunResult result;
  service::ServiceStats stats;                ///< group.stats() after Drain.
  std::vector<core::Alarm> live_alarms;       ///< Alarm-callback order.
  std::vector<history::HistoryRecord> records;  ///< History-callback order.
};

ShardedRun RunSharded(const std::vector<telemetry::SensorFrame>& stream,
                      const std::vector<std::int32_t>& ids, int shards,
                      int threads,
                      const core::MonitorConfig& monitor = FastMonitorConfig()) {
  shard::ShardGroupConfig config;
  config.service = ServiceConfigWith(threads, monitor);
  config.shard_count = static_cast<std::uint32_t>(shards);
  shard::ShardGroup group(config);
  ShardedRun run;
  group.set_alarm_callback([&run](const core::Alarm& alarm) {
    run.live_alarms.push_back(alarm);
  });
  group.set_history_callback([&run](const history::HistoryRecord& record) {
    run.records.push_back(record);
  });
  for (const auto id : ids) group.RegisterVehicle(id);
  for (const auto& frame : stream) group.Submit(frame);
  group.Drain();
  run.stats = group.stats();
  run.result = group.TakeResult();
  return run;
}

/// Counters of the unsharded serial service over the same stream.
service::ServiceStats UnshardedStats(
    const std::vector<telemetry::SensorFrame>& stream,
    const std::vector<std::int32_t>& ids, const core::MonitorConfig& monitor) {
  service::FleetService svc(ServiceConfigWith(1, monitor));
  for (const auto id : ids) svc.RegisterVehicle(id);
  for (const auto& frame : stream) svc.Submit(frame);
  svc.Drain();
  const service::ServiceStats stats = svc.stats();
  (void)svc.TakeResult();
  return stats;
}

void ExpectStatsIdentical(const service::ServiceStats& a,
                          const service::ServiceStats& b) {
  EXPECT_EQ(a.frames_submitted, b.frames_submitted);
  EXPECT_EQ(a.frames_accepted, b.frames_accepted);
  EXPECT_EQ(a.frames_rejected, b.frames_rejected);
  EXPECT_EQ(a.frames_processed, b.frames_processed);
  EXPECT_EQ(a.alarms_emitted, b.alarms_emitted);
  EXPECT_EQ(a.retrains_started, b.retrains_started);
  EXPECT_EQ(a.retrains_completed, b.retrains_completed);
  EXPECT_EQ(a.retrains_failed, b.retrains_failed);
  EXPECT_EQ(a.consensus_suppressed_alarms, b.consensus_suppressed_alarms);
}

void ExpectAlarmsIdentical(const std::vector<core::Alarm>& a,
                           const std::vector<core::Alarm>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].vehicle_id, b[i].vehicle_id) << "alarm " << i;
    ASSERT_EQ(a[i].timestamp, b[i].timestamp) << "alarm " << i;
    ASSERT_EQ(a[i].channel, b[i].channel) << "alarm " << i;
    ASSERT_EQ(a[i].channel_name, b[i].channel_name) << "alarm " << i;
    ASSERT_EQ(a[i].score, b[i].score) << "alarm " << i;
    ASSERT_EQ(a[i].threshold, b[i].threshold) << "alarm " << i;
  }
}

void ExpectRecordsIdentical(const std::vector<history::HistoryRecord>& a,
                            const std::vector<history::HistoryRecord>& b) {
  // Byte-level equality including the fleet sequence numbers: identical
  // record streams imply identical history logs, hence identical RANK /
  // TIMELINE / COMOVE answers.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].vehicle_id, b[i].vehicle_id) << "record " << i;
    ASSERT_EQ(a[i].global_seq, b[i].global_seq) << "record " << i;
    ASSERT_EQ(a[i].timestamp, b[i].timestamp) << "record " << i;
    ASSERT_EQ(a[i].score, b[i].score) << "record " << i;
    ASSERT_EQ(a[i].threshold, b[i].threshold) << "record " << i;
    ASSERT_EQ(a[i].alarm, b[i].alarm) << "record " << i;
    ASSERT_EQ(a[i].top_channels, b[i].top_channels) << "record " << i;
    ASSERT_EQ(a[i].votes, b[i].votes) << "record " << i;
    ASSERT_EQ(a[i].ensemble_live, b[i].ensemble_live) << "record " << i;
  }
}

void ExpectResultsIdentical(const core::FleetRunResult& a,
                            const core::FleetRunResult& b) {
  ExpectAlarmsIdentical(a.alarms, b.alarms);
  ASSERT_EQ(a.channel_names, b.channel_names);
  ASSERT_EQ(a.persistence_window, b.persistence_window);
  ASSERT_EQ(a.persistence_min, b.persistence_min);

  ASSERT_EQ(a.scored_samples.size(), b.scored_samples.size());
  for (std::size_t v = 0; v < a.scored_samples.size(); ++v) {
    ASSERT_EQ(a.scored_samples[v].size(), b.scored_samples[v].size());
    for (std::size_t s = 0; s < a.scored_samples[v].size(); ++s) {
      ASSERT_EQ(a.scored_samples[v][s].timestamp,
                b.scored_samples[v][s].timestamp);
      ASSERT_EQ(a.scored_samples[v][s].scores, b.scored_samples[v][s].scores);
    }
  }
  ASSERT_EQ(a.quality.size(), b.quality.size());
  for (std::size_t v = 0; v < a.quality.size(); ++v) {
    ASSERT_EQ(a.quality[v].records_seen, b.quality[v].records_seen);
    ASSERT_EQ(a.quality[v].duplicates_dropped, b.quality[v].duplicates_dropped);
    ASSERT_EQ(a.quality[v].reordered_recovered,
              b.quality[v].reordered_recovered);
  }
  ASSERT_EQ(a.ensemble_stats.size(), b.ensemble_stats.size());
  for (std::size_t v = 0; v < a.ensemble_stats.size(); ++v) {
    SCOPED_TRACE("vehicle " + std::to_string(v));
    const ensemble::EnsembleStats& x = a.ensemble_stats[v];
    const ensemble::EnsembleStats& y = b.ensemble_stats[v];
    ASSERT_EQ(x.retrains_started, y.retrains_started);
    ASSERT_EQ(x.retrains_completed, y.retrains_completed);
    ASSERT_EQ(x.retrains_failed, y.retrains_failed);
    ASSERT_EQ(x.consensus_suppressed_alarms, y.consensus_suppressed_alarms);
  }
}

void CheckInvariantOn(const std::vector<telemetry::SensorFrame>& stream,
                      const std::vector<std::int32_t>& ids,
                      const core::MonitorConfig& monitor = FastMonitorConfig()) {
  // The unsharded serial service is the reference output.
  const auto reference =
      service::RunStream(stream, ids, ServiceConfigWith(1, monitor));
  const ShardedRun baseline = RunSharded(stream, ids, /*shards=*/1,
                                         /*threads=*/1, monitor);
  ExpectResultsIdentical(reference, baseline.result);
  ExpectAlarmsIdentical(reference.alarms, baseline.live_alarms);
  ExpectStatsIdentical(UnshardedStats(stream, ids, monitor), baseline.stats);

  for (const int shards : {1, 2, 4}) {
    for (const int threads : {1, 4}) {
      if (shards == 1 && threads == 1) continue;  // the baseline itself
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const ShardedRun run = RunSharded(stream, ids, shards, threads, monitor);
      ExpectResultsIdentical(baseline.result, run.result);
      ExpectAlarmsIdentical(baseline.live_alarms, run.live_alarms);
      ExpectRecordsIdentical(baseline.records, run.records);
      ExpectStatsIdentical(baseline.stats, run.stats);
    }
  }
}

TEST(ShardDeterminismTest, CleanStreamIsIdenticalAtAnyShardAndThreadCount) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  CheckInvariantOn(stream, service::VehicleIdsOf(fleet));
}

TEST(ShardDeterminismTest,
     CorruptedStreamIsIdenticalAtAnyShardAndThreadCount) {
  // Delivery-order damage (reorderings, duplicates, skew) activates the
  // per-vehicle reorder buffers on every shard; scheduling noise across
  // shards must still never leak into the fleet-wide order.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const telemetry::CorruptionModel model(
      telemetry::CorruptionConfig::Moderate());
  const auto stream = telemetry::InterleaveFleetStream(fleet, model);
  CheckInvariantOn(stream, service::VehicleIdsOf(fleet));
}

TEST(ShardDeterminismTest, EnsembleEnabledStreamIsIdenticalAcrossShards) {
  // Sharding transparency extended to the consensus ensemble: background
  // retrains run on each shard's own pool, yet the fleet-wide output -
  // including per-record consensus votes - is identical at every shard x
  // thread combination and equal to the unsharded service. That covers
  // the group's ensemble counters too: its summed retrain and veto counts
  // and its per-vehicle EnsembleStats equal the unsharded run's.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  CheckInvariantOn(stream, ids, EnsembleMonitorConfig());
  const service::ServiceStats unsharded =
      UnshardedStats(stream, ids, EnsembleMonitorConfig());
  EXPECT_GT(unsharded.retrains_completed, 0u);
  EXPECT_GT(unsharded.consensus_suppressed_alarms, 0u);
}

TEST(ShardDeterminismTest, HistoryRecordsCarryFleetSequencesOfTheirFrames) {
  // Fleet sequence numbers are the glue of the merged total order. On a
  // clean stream every submitted frame is admitted, so fleet seq i IS the
  // index of stream[i]: each emitted record must point back at a frame of
  // its own vehicle (shard-local seqs leaking through would point at
  // frames of other vehicles).
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  const ShardedRun sharded = RunSharded(stream, ids, /*shards=*/4,
                                        /*threads=*/4);
  ASSERT_FALSE(sharded.records.empty());
  for (const auto& record : sharded.records) {
    ASSERT_LT(record.global_seq, stream.size());
    EXPECT_EQ(stream[record.global_seq].vehicle_id(), record.vehicle_id);
  }
}

}  // namespace
}  // namespace navarchos
