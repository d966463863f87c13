// The sharded wire path end to end: a ShardedClient streaming the fleet
// over loopback TCP to a ShardServer (one listener per shard) produces the
// same fleet-wide result as the in-process ShardGroup run and the unsharded
// service - including through a mid-stream abort + resume across every
// shard session, and through a connection reset on one shard while every
// shard's batch is in flight. Also pins the backward-compat boundary: a plain (pre-
// shard-map) IngestClient against a single-shard ShardServer still works,
// because a 1-shard WELCOME advertises no map at all. And a frame one shard
// sheds never stalls the fleet's release, nor fails its checkpoint.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "history/history_log.h"
#include "net/fault_injection.h"
#include "net/ingest_client.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
#include "shard/shard_group.h"
#include "shard/shard_server.h"
#include "shard/sharded_client.h"
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

shard::ShardGroupConfig GroupConfig(int shards, int threads) {
  shard::ShardGroupConfig config;
  config.service.monitor = FastMonitorConfig();
  config.service.runtime = runtime::RuntimeConfig{threads};
  config.service.queue_capacity = 32;
  config.shard_count = static_cast<std::uint32_t>(shards);
  return config;
}

void ExpectAlarmsIdentical(const std::vector<core::Alarm>& a,
                           const std::vector<core::Alarm>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].vehicle_id, b[i].vehicle_id) << "alarm " << i;
    ASSERT_EQ(a[i].timestamp, b[i].timestamp) << "alarm " << i;
    ASSERT_EQ(a[i].channel, b[i].channel) << "alarm " << i;
    ASSERT_EQ(a[i].score, b[i].score) << "alarm " << i;
    ASSERT_EQ(a[i].threshold, b[i].threshold) << "alarm " << i;
  }
}

/// The in-process reference: the same stream through a ShardGroup.
core::FleetRunResult RunInProcess(
    const std::vector<telemetry::SensorFrame>& stream,
    const std::vector<std::int32_t>& ids, int shards, int threads) {
  shard::ShardGroup group(GroupConfig(shards, threads));
  for (const auto id : ids) group.RegisterVehicle(id);
  for (const auto& frame : stream) group.Submit(frame);
  group.Drain();
  return group.TakeResult();
}

TEST(ShardedLoopbackTest, WireRunEqualsInProcessRun) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  const auto reference = RunInProcess(stream, ids, 4, 4);

  shard::ShardGroup group(GroupConfig(4, 4));
  net::ServerConfig server_template;
  server_template.port = 0;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.map_info().shard_count, 4u);
  ASSERT_EQ(server.map_info().ports.size(), 4u);

  shard::ShardedClientConfig client_config;
  client_config.client.port = server.port(0);
  client_config.client.session_id = "sharded-loopback";
  shard::ShardedClient client(client_config);
  ASSERT_TRUE(client.Connect(ids, /*resume=*/false).ok());
  EXPECT_EQ(client.shard_map_info().shard_count, 4u);
  for (const auto& frame : stream) ASSERT_TRUE(client.Send(frame).ok());
  ASSERT_TRUE(client.Finish().ok());

  ASSERT_TRUE(server.WaitForFinishedSessions(4, /*timeout_ms=*/30000));
  server.Stop();
  group.Drain();
  const auto wire = group.TakeResult();
  ExpectAlarmsIdentical(reference.alarms, wire.alarms);
  ASSERT_EQ(reference.scored_samples.size(), wire.scored_samples.size());
  for (std::size_t v = 0; v < reference.scored_samples.size(); ++v)
    ASSERT_EQ(reference.scored_samples[v].size(),
              wire.scored_samples[v].size());
}

TEST(ShardedLoopbackTest, AbortAndResumeAcrossShardsStaysExactlyOnce) {
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  const auto reference = RunInProcess(stream, ids, 2, 4);

  shard::ShardGroup group(GroupConfig(2, 4));
  net::ServerConfig server_template;
  server_template.port = 0;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());

  shard::ShardedClientConfig client_config;
  client_config.client.port = server.port(0);
  client_config.client.session_id = "sharded-resume";

  // First client dies mid-stream: no flush, no FIN, on any shard.
  const std::size_t cut = stream.size() / 3;
  {
    shard::ShardedClient first(client_config);
    ASSERT_TRUE(first.Connect(ids, /*resume=*/false).ok());
    for (std::size_t i = 0; i < cut; ++i)
      ASSERT_TRUE(first.Send(stream[i]).ok());
    first.Abort();
  }

  // The resuming client replays the WHOLE stream; each shard session skips
  // its decided prefix locally and re-sends only the undecided tail.
  shard::ShardedClient second(client_config);
  ASSERT_TRUE(second.Connect(ids, /*resume=*/true).ok());
  for (const auto& frame : stream) ASSERT_TRUE(second.Send(frame).ok());
  ASSERT_TRUE(second.Finish().ok());

  ASSERT_TRUE(server.WaitForFinishedSessions(2, /*timeout_ms=*/30000));
  server.Stop();
  group.Drain();
  const auto wire = group.TakeResult();
  // Exactly-once across the crash: the merged fleet output is the
  // uninterrupted in-process run, bit for bit.
  ExpectAlarmsIdentical(reference.alarms, wire.alarms);
}

TEST(ShardedLoopbackTest, ResetOnOneShardMidBatchResendsOnlyThatShard) {
  // ShardedClient::Flush puts every shard's batch on the wire before it
  // waits for any ACK. A connection reset on one shard in the middle of a
  // batch must heal that session alone - reconnect, rewind to its WELCOME
  // cursor, resend its batch - while the other shards' batches are already
  // in flight, and the fleet must still admit every frame exactly once.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  const auto reference = RunInProcess(stream, ids, 4, 4);

  shard::ShardGroup group(GroupConfig(4, 4));
  net::ServerConfig server_template;
  server_template.port = 0;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());

  // Client connections open in dial order: the bootstrap probe, then the
  // sessions of shards 0, 1, 2 and 3. Shard 2's session is reset once its
  // transport has moved 40,000 bytes, inside one of its FRAMES writes;
  // every later connection (the heal) is clean.
  constexpr int kResetShard = 2;
  std::vector<net::FaultScript> scripts(2 + kResetShard);
  scripts.back().reset_after_bytes = 40000;
  net::FaultInjector injector(scripts);

  shard::ShardedClientConfig client_config;
  client_config.client.port = server.port(0);
  client_config.client.session_id = "sharded-reset";
  client_config.client.transport_factory = injector.Factory();
  // Batches leave only through ShardedClient::Flush, every 300 frames, so
  // each flush has all four shards' batches on the wire at once.
  client_config.client.batch_frames = 4096;
  shard::ShardedClient client(client_config);
  ASSERT_TRUE(client.Connect(ids, /*resume=*/false).ok());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(client.Send(stream[i]).ok());
    if ((i + 1) % 300 == 0) {
      ASSERT_TRUE(client.Flush().ok());
    }
  }
  ASSERT_TRUE(client.Finish().ok());

  ASSERT_TRUE(server.WaitForFinishedSessions(4, /*timeout_ms=*/30000));
  server.Stop();

  // The scripted reset fired once, and only shard 2 reconnected.
  const net::FaultManifest manifest = injector.manifest();
  ASSERT_EQ(manifest.Total(), 1u);
  EXPECT_EQ(manifest.events.front().kind, net::FaultKind::kReset);
  EXPECT_EQ(manifest.events.front().connection, 1 + kResetShard);
  EXPECT_EQ(injector.connections_opened(), 1 + 4 + 1);
  std::uint64_t admitted = 0;
  for (int shard = 0; shard < 4; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    const net::ServerStats stats = server.server(shard)->stats();
    EXPECT_EQ(stats.resumes, shard == kResetShard ? 1u : 0u);
    EXPECT_EQ(stats.duplicates_skipped, 0u);
    EXPECT_EQ(stats.frames_shed, 0u);
    admitted += stats.frames_admitted;
  }
  EXPECT_EQ(admitted, stream.size());

  group.Drain();
  const auto wire = group.TakeResult();
  ExpectAlarmsIdentical(reference.alarms, wire.alarms);
  ASSERT_EQ(reference.scored_samples.size(), wire.scored_samples.size());
  for (std::size_t v = 0; v < reference.scored_samples.size(); ++v) {
    ASSERT_EQ(reference.scored_samples[v].size(),
              wire.scored_samples[v].size());
    for (std::size_t i = 0; i < reference.scored_samples[v].size(); ++i)
      ASSERT_EQ(reference.scored_samples[v][i].scores,
                wire.scored_samples[v][i].scores);
  }
}

TEST(ShardedLoopbackTest, PlainClientStillSpeaksToASingleShardServer) {
  // Old peers predate the shard map. A 1-shard ShardServer must therefore
  // advertise nothing (its WELCOME is byte-identical to the unsharded
  // server's) and a plain IngestClient must complete a session against it.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  const auto reference = RunInProcess(stream, ids, 1, 4);

  shard::ShardGroup group(GroupConfig(1, 4));
  net::ServerConfig server_template;
  server_template.port = 0;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.map_info().unsharded());

  net::ClientConfig config;
  config.port = server.port(0);
  config.session_id = "legacy-client";
  net::IngestClient client(config);
  ASSERT_TRUE(client.Connect(ids, /*resume=*/false).ok());
  EXPECT_TRUE(client.shard_map().unsharded());
  for (const auto& frame : stream) ASSERT_TRUE(client.Send(frame).ok());
  ASSERT_TRUE(client.Finish().ok());

  ASSERT_TRUE(server.WaitForFinishedSessions(1, /*timeout_ms=*/30000));
  server.Stop();
  group.Drain();
  const auto wire = group.TakeResult();
  ExpectAlarmsIdentical(reference.alarms, wire.alarms);
}

TEST(ShardedLoopbackTest, ShedOnOneShardNeverStallsFleetRelease) {
  // A sharded client numbers every frame with a fleet seq before a shard
  // admits it, so a frame one shard sheds leaves its fleet seq unused.
  // The fleet release must pass over that seq instead of waiting for it
  // forever: one worker and 1-frame lanes under kReject shed constantly,
  // and the drain must still release every admitted frame's history
  // records, per vehicle in order.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);

  shard::ShardGroupConfig config = GroupConfig(2, 1);
  config.service.queue_capacity = 1;
  config.service.backpressure = service::BackpressurePolicy::kReject;
  // A short reference, so every vehicle scores samples from the few frames
  // its 1-frame lane admits, even when a loaded host sheds most of them.
  config.service.monitor.transform_options.window = 20;
  config.service.monitor.transform_options.stride = 5;
  config.service.monitor.profile_minutes = 100.0;
  config.service.monitor.threshold.burn_in_minutes = 30.0;
  shard::ShardGroup group(config);
  std::vector<history::HistoryRecord> records;
  group.set_history_callback([&records](const history::HistoryRecord& record) {
    records.push_back(record);
  });
  net::ServerConfig server_template;
  server_template.port = 0;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());

  shard::ShardedClientConfig client_config;
  client_config.client.port = server.port(0);
  client_config.client.session_id = "sharded-shed";
  shard::ShardedClient client(client_config);
  ASSERT_TRUE(client.Connect(ids, /*resume=*/false).ok());
  for (const auto& frame : stream) ASSERT_TRUE(client.Send(frame).ok());
  ASSERT_TRUE(client.Finish().ok());
  ASSERT_TRUE(server.WaitForFinishedSessions(2, /*timeout_ms=*/30000));
  server.Stop();

  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  for (int shard = 0; shard < 2; ++shard) {
    admitted += server.server(shard)->stats().frames_admitted;
    shed += server.server(shard)->stats().frames_shed;
  }
  ASSERT_GT(shed, 0u);
  ASSERT_EQ(admitted + shed, stream.size());

  group.Drain();
  EXPECT_EQ(group.stats().frames_processed, admitted);
  const auto result = group.TakeResult();
  ASSERT_EQ(result.scored_samples.size(), ids.size());
  std::size_t scored = 0;
  for (std::size_t v = 0; v < ids.size(); ++v) {
    SCOPED_TRACE("vehicle " + std::to_string(ids[v]));
    std::vector<const history::HistoryRecord*> own;
    for (const auto& record : records)
      if (record.vehicle_id == ids[v]) own.push_back(&record);
    const auto& samples = result.scored_samples[v];
    scored += samples.size();
    ASSERT_EQ(own.size(), samples.size());
    for (std::size_t i = 0; i < own.size(); ++i) {
      ASSERT_EQ(own[i]->timestamp, samples[i].timestamp) << "record " << i;
      if (i > 0) {
        ASSERT_GE(own[i]->global_seq, own[i - 1]->global_seq) << "record " << i;
      }
    }
  }
  EXPECT_GT(scored, 0u);
  EXPECT_EQ(records.size(), scored);
}

TEST(ShardedLoopbackTest, ShedFleetSeqsPassTheFleetCheckpointCrossChecks) {
  // A wire-fed fleet checkpointed between batches, after sheds: the
  // manifest's fleet cursor must equal the shards' admissions plus the
  // skipped fleet seqs and the sink's release cursor, so a fresh group
  // restores it - and the live fleet then finishes its stream.
  const auto fleet = telemetry::GenerateFleet(SmallFleetConfig());
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  shard::ShardGroupConfig config = GroupConfig(2, 1);
  config.service.queue_capacity = 1;
  config.service.backpressure = service::BackpressurePolicy::kReject;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "navshard_shed_checkpoint")
          .string();
  std::filesystem::remove_all(dir);

  shard::ShardGroup group(config);
  net::ServerConfig server_template;
  server_template.port = 0;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());
  shard::ShardedClientConfig client_config;
  client_config.client.port = server.port(0);
  client_config.client.session_id = "sharded-shed-checkpoint";
  shard::ShardedClient client(client_config);
  ASSERT_TRUE(client.Connect(ids, /*resume=*/false).ok());
  const std::size_t cut = stream.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) ASSERT_TRUE(client.Send(stream[i]).ok());
  ASSERT_TRUE(client.Flush().ok());
  const util::Status checkpoint = group.Checkpoint(dir);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.message();
  std::uint64_t shed = 0;
  for (int shard = 0; shard < 2; ++shard)
    shed += server.server(shard)->stats().frames_shed;
  ASSERT_GT(shed, 0u);
  {
    shard::ShardGroup restored(config);
    const util::Status status = restored.RestoreFromDir(dir);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(restored.stats().frames_accepted, group.stats().frames_accepted);
    EXPECT_EQ(restored.stats().frames_accepted + shed, cut);
  }

  for (std::size_t i = cut; i < stream.size(); ++i)
    ASSERT_TRUE(client.Send(stream[i]).ok());
  ASSERT_TRUE(client.Finish().ok());
  ASSERT_TRUE(server.WaitForFinishedSessions(2, /*timeout_ms=*/30000));
  server.Stop();
  group.Drain();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace navarchos
