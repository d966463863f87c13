// FleetService behaviour: the streaming run of an interleaved fleet feed
// must reproduce the batch runner's per-vehicle results exactly, the stats
// counters must account for every frame, the ordered callbacks must observe
// alarms and completions in the deterministic total order at every lane
// shape and worker count, a stalled release callback must not stop the
// pumps, and shutdown (Drain) must be graceful and idempotent.
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet_runner.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
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

service::ServiceConfig SmallServiceConfig(int threads) {
  service::ServiceConfig config;
  config.monitor = FastMonitorConfig();
  config.runtime = runtime::RuntimeConfig{threads};
  return config;
}

void ExpectAlarmsIdentical(const std::vector<core::Alarm>& a,
                           const std::vector<core::Alarm>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].vehicle_id, b[i].vehicle_id);
    ASSERT_EQ(a[i].timestamp, b[i].timestamp);
    ASSERT_EQ(a[i].channel, b[i].channel);
    ASSERT_EQ(a[i].channel_name, b[i].channel_name);
    ASSERT_EQ(a[i].score, b[i].score);
    ASSERT_EQ(a[i].threshold, b[i].threshold);
  }
}

TEST(StreamingServiceTest, StreamingRunMatchesBatchRunnerExactly) {
  // The defining property of the service layer: feeding the interleaved
  // stream through FleetService yields the very results core::RunFleet
  // computes from the per-vehicle histories - field-exact, per vehicle.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto batch = core::RunFleet(fleet, FastMonitorConfig(),
                                    runtime::RuntimeConfig{1});
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto streamed = service::RunStream(stream, service::VehicleIdsOf(fleet),
                                           SmallServiceConfig(2));

  ASSERT_EQ(streamed.channel_names, batch.channel_names);
  ASSERT_EQ(streamed.persistence_window, batch.persistence_window);
  ASSERT_EQ(streamed.persistence_min, batch.persistence_min);

  // Batch alarms are grouped by vehicle (vehicle-major); streaming alarms
  // are in stream order. The multisets must agree - compare per vehicle.
  ASSERT_EQ(streamed.alarms.size(), batch.alarms.size());
  for (std::size_t v = 0; v < fleet.vehicles.size(); ++v) {
    const std::int32_t id = fleet.vehicles[v].spec.id;
    std::vector<core::Alarm> batch_alarms;
    std::vector<core::Alarm> stream_alarms;
    for (const auto& alarm : batch.alarms)
      if (alarm.vehicle_id == id) batch_alarms.push_back(alarm);
    for (const auto& alarm : streamed.alarms)
      if (alarm.vehicle_id == id) stream_alarms.push_back(alarm);
    ExpectAlarmsIdentical(stream_alarms, batch_alarms);
  }

  // Per-vehicle traces are index-aligned (RunStream registered the ids in
  // fleet order) and bit-identical.
  ASSERT_EQ(streamed.scored_samples.size(), batch.scored_samples.size());
  for (std::size_t v = 0; v < batch.scored_samples.size(); ++v) {
    ASSERT_EQ(streamed.scored_samples[v].size(), batch.scored_samples[v].size());
    for (std::size_t s = 0; s < batch.scored_samples[v].size(); ++s) {
      ASSERT_EQ(streamed.scored_samples[v][s].timestamp,
                batch.scored_samples[v][s].timestamp);
      ASSERT_EQ(streamed.scored_samples[v][s].scores,
                batch.scored_samples[v][s].scores);
    }
    ASSERT_EQ(streamed.quality[v].records_seen, batch.quality[v].records_seen);
    ASSERT_EQ(streamed.quality[v].RecordsDropped(),
              batch.quality[v].RecordsDropped());
    ASSERT_EQ(streamed.calibrations[v].size(), batch.calibrations[v].size());
  }
}

TEST(StreamingServiceTest, StatsAccountForEveryFrame) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);

  service::FleetService svc(SmallServiceConfig(2));
  for (const auto id : service::VehicleIdsOf(fleet)) svc.RegisterVehicle(id);
  ASSERT_EQ(svc.vehicle_count(), fleet.vehicles.size());
  for (const auto& frame : stream) ASSERT_TRUE(svc.Submit(frame));
  svc.Drain();

  const auto stats = svc.stats();
  ASSERT_EQ(stats.frames_submitted, stream.size());
  ASSERT_EQ(stats.frames_accepted, stream.size());  // kBlock: lossless
  ASSERT_EQ(stats.frames_rejected, 0u);
  ASSERT_EQ(stats.frames_processed, stream.size());
  const auto result = svc.TakeResult();
  ASSERT_EQ(stats.alarms_emitted, result.alarms.size());
}

TEST(StreamingServiceTest, CallbacksObserveTheDeterministicTotalOrder) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);

  // Lane shapes from one-frame lanes and pumps (a deposit per frame),
  // through the defaults, to lanes and pumps that hold thousands of frames
  // (few, large deposits), each at one worker and at four.
  struct LaneShape {
    std::size_t queue_capacity;
    std::size_t pump_batch;
  };
  const service::ServiceConfig defaults;
  const LaneShape shapes[] = {
      {1, 1}, {defaults.queue_capacity, defaults.pump_batch}, {4096, 4096}};
  std::vector<core::Alarm> first_alarms;
  bool have_first = false;
  for (const int threads : {1, 4}) {
    for (const LaneShape& shape : shapes) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", capacity " +
                   std::to_string(shape.queue_capacity) + ", pump_batch " +
                   std::to_string(shape.pump_batch));
      service::ServiceConfig config = SmallServiceConfig(threads);
      config.queue_capacity = shape.queue_capacity;
      config.pump_batch = shape.pump_batch;
      service::FleetService svc(config);
      std::vector<core::Alarm> live_alarms;
      std::vector<std::uint64_t> completion_seqs;
      // Callbacks run on the releasing thread, outside the sink lock, one
      // at a time and never concurrently with each other, so plain vectors
      // are safe here.
      svc.set_alarm_callback([&live_alarms](const core::Alarm& alarm) {
        live_alarms.push_back(alarm);
      });
      svc.set_completion_callback(
          [&completion_seqs](const service::FrameCompletion& c) {
            completion_seqs.push_back(c.global_seq);
          });
      for (const auto id : service::VehicleIdsOf(fleet)) svc.RegisterVehicle(id);
      for (const auto& frame : stream) ASSERT_TRUE(svc.Submit(frame));
      svc.Drain();

      // Completions arrive in contiguous global-sequence order regardless
      // of worker scheduling: exactly 0, 1, 2, ... N-1.
      ASSERT_EQ(completion_seqs.size(), stream.size());
      for (std::size_t i = 0; i < completion_seqs.size(); ++i)
        ASSERT_EQ(completion_seqs[i], static_cast<std::uint64_t>(i));

      // The live alarm feed is the recorded result, in the same total
      // order, and no lane shape or worker count changes it.
      const auto result = svc.TakeResult();
      ExpectAlarmsIdentical(live_alarms, result.alarms);
      if (!have_first) {
        first_alarms = result.alarms;
        have_first = true;
      }
      ExpectAlarmsIdentical(result.alarms, first_alarms);
    }
  }
}

TEST(StreamingServiceTest, AStalledReleaseCallbackNeverStopsThePumps) {
  // One vehicle's only frame takes seq 0, and the completion callback for
  // it stalls until the pumps have completed more frames than every lane
  // can hold. Completed frames leave their lanes while they wait behind
  // seq 0, so the pumps must keep depositing while a release callback
  // runs, and the release window must grow past the lane capacities. With
  // one worker nothing else could deposit, hence four.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto interleaved = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  service::ServiceConfig config = SmallServiceConfig(4);
  config.queue_capacity = 16;
  const std::uint64_t lane_bound = ids.size() * config.queue_capacity;

  const std::int32_t quiet = ids.front();
  std::vector<telemetry::SensorFrame> stream;
  for (const auto& frame : interleaved) {
    if (frame.vehicle_id() == quiet) {
      stream.push_back(frame);
      break;
    }
  }
  for (const auto& frame : interleaved)
    if (frame.vehicle_id() != quiet) stream.push_back(frame);
  ASSERT_GE(stream.size(), 1 + 4 * lane_bound);

  service::FleetService svc(config);
  // The registry counter, not stats(): a producer blocked on a full lane
  // holds the ingest lock that stats() takes.
  const obs::Counter* processed =
      svc.metrics()->counter("service.frames_processed");
  bool pumps_kept_going = false;
  std::vector<std::uint64_t> completion_seqs;
  svc.set_completion_callback([&](const service::FrameCompletion& c) {
    if (c.global_seq == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (processed->value() <= lane_bound &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      pumps_kept_going = processed->value() > lane_bound;
    }
    completion_seqs.push_back(c.global_seq);
  });
  for (const auto id : ids) svc.RegisterVehicle(id);
  for (const auto& frame : stream) ASSERT_TRUE(svc.Submit(frame));
  svc.Drain();

  EXPECT_TRUE(pumps_kept_going)
      << "no more than " << lane_bound
      << " frames completed while the release of seq 0 stalled";
  ASSERT_EQ(completion_seqs.size(), stream.size());
  for (std::size_t i = 0; i < completion_seqs.size(); ++i)
    ASSERT_EQ(completion_seqs[i], static_cast<std::uint64_t>(i));
}

TEST(StreamingServiceTest, RejectPolicyShedsInsteadOfBlocking) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);

  service::ServiceConfig config = SmallServiceConfig(1);
  config.backpressure = service::BackpressurePolicy::kReject;
  config.queue_capacity = 1;  // Tiny lanes: shedding is all but guaranteed.
  service::FleetService svc(config);
  std::size_t admitted = 0;
  for (const auto& frame : stream) admitted += svc.Submit(frame) ? 1u : 0u;
  svc.Drain();

  const auto stats = svc.stats();
  ASSERT_EQ(stats.frames_submitted, stream.size());
  ASSERT_EQ(stats.frames_accepted, admitted);
  ASSERT_EQ(stats.frames_accepted + stats.frames_rejected, stream.size());
  // Every admitted frame is still processed: shedding loses frames at the
  // door, never after admission.
  ASSERT_EQ(stats.frames_processed, stats.frames_accepted);
}

TEST(StreamingServiceTest, DrainIsIdempotentAndRefusesLateSubmissions) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);

  service::FleetService svc(SmallServiceConfig(2));
  for (const auto& frame : stream) ASSERT_TRUE(svc.Submit(frame));
  svc.Drain();
  const auto stats_after_first = svc.stats();
  svc.Drain();  // Idempotent: second drain is a no-op.
  ASSERT_EQ(svc.stats().frames_processed, stats_after_first.frames_processed);
  ASSERT_EQ(svc.stats().alarms_emitted, stats_after_first.alarms_emitted);

  ASSERT_FALSE(svc.Submit(stream.front()));  // Refused after drain.
  ASSERT_EQ(svc.stats().frames_rejected, stats_after_first.frames_rejected + 1);
}

TEST(StreamingServiceTest, RegisterVehicleReturnsStableLaneIndices) {
  service::FleetService svc(SmallServiceConfig(1));
  ASSERT_EQ(svc.RegisterVehicle(7), 0);
  ASSERT_EQ(svc.RegisterVehicle(3), 1);
  ASSERT_EQ(svc.RegisterVehicle(7), 0);  // Re-registration: same lane.
  ASSERT_EQ(svc.vehicle_count(), 2u);
  svc.Drain();
  const auto result = svc.TakeResult();
  ASSERT_EQ(result.scored_samples.size(), 2u);  // One slot per lane.
  ASSERT_EQ(result.quality[0].vehicle_id, 7);
  ASSERT_EQ(result.quality[1].vehicle_id, 3);
}

}  // namespace
}  // namespace navarchos
