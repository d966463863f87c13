// The wire face of observability: the STATS message round-trips through
// the NWP1 framing (and every single-byte corruption of a framed response
// is rejected), a scrape over loopback TCP returns exactly the snapshot
// the service holds in process, and on a 4-shard fleet the per-shard wire
// scrapes merge to the in-process fleet aggregate - the scrape itself
// never shows up in what it measures. Scraping is also output-transparent:
// a run scraped mid-stream computes exactly what an unscraped run does.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
#include "shard/shard_group.h"
#include "shard/shard_server.h"
#include "telemetry/fleet.h"
#include "telemetry/stream.h"

namespace navarchos::net {
namespace {

telemetry::SensorFrame RecordFrame(std::int32_t vehicle, std::int64_t minute) {
  telemetry::Record record;
  record.vehicle_id = vehicle;
  record.timestamp = minute;
  record.pids.fill(static_cast<double>(minute) * 0.5);
  return telemetry::SensorFrame::OfRecord(record);
}

service::ServiceConfig TinyServiceConfig() {
  service::ServiceConfig config;
  config.runtime = runtime::RuntimeConfig{1};
  config.queue_capacity = 8;
  return config;
}

/// Encodes both snapshots and compares the exact bytes - stricter than the
/// text rendering, which could round or elide.
void ExpectSnapshotsIdentical(const obs::StatsSnapshot& a,
                              const obs::StatsSnapshot& b) {
  persist::Encoder ea;
  obs::EncodeStatsSnapshot(ea, a);
  persist::Encoder eb;
  obs::EncodeStatsSnapshot(eb, b);
  EXPECT_EQ(ea.bytes(), eb.bytes());
  EXPECT_EQ(obs::FormatSnapshot(a), obs::FormatSnapshot(b));
}

obs::StatsSnapshot SampleSnapshot() {
  obs::MetricsRegistry registry;
  registry.counter("service.frames_submitted")->Add(42);
  registry.gauge("service.lane.v7.depth_peak")->Set(5);
  registry.histogram("service.admission_to_release_us")->Record(300);
  registry.histogram("service.admission_to_release_us")->Record(90000);
  return registry.Snapshot();
}

TEST(StatsWireTest, RequestIsAnEmptyStatsFrame) {
  const std::vector<std::uint8_t> request = EncodeStatsRequest();
  MessageReader reader;
  reader.Append(request.data(), request.size());
  WireMessage message;
  ASSERT_EQ(reader.Next(&message), MessageReader::Result::kMessage);
  EXPECT_EQ(message.type, MessageType::kStats);
  EXPECT_TRUE(message.payload.empty());

  // An empty payload is a request, never a decodable response.
  StatsMessage out;
  EXPECT_FALSE(DecodeStatsResponse(message.payload, &out).ok());
}

TEST(StatsWireTest, UnshardedResponseRoundTripsWithoutTail) {
  StatsMessage response;
  response.snapshot = SampleSnapshot();
  const std::vector<std::uint8_t> frame = EncodeStatsResponse(response);

  MessageReader reader;
  reader.Append(frame.data(), frame.size());
  WireMessage message;
  ASSERT_EQ(reader.Next(&message), MessageReader::Result::kMessage);
  ASSERT_EQ(message.type, MessageType::kStats);

  StatsMessage decoded;
  ASSERT_TRUE(DecodeStatsResponse(message.payload, &decoded).ok());
  ExpectSnapshotsIdentical(decoded.snapshot, response.snapshot);
  EXPECT_TRUE(decoded.shard_map.unsharded());
  EXPECT_EQ(decoded.shard_id, 0u);
}

TEST(StatsWireTest, ShardedResponseCarriesTheIdentityTail) {
  StatsMessage response;
  response.snapshot = SampleSnapshot();
  response.shard_id = 2;
  response.shard_map.shard_count = 4;
  response.shard_map.hash_seed = 0xfeedfacecafebeefull;
  response.shard_map.ports = {9001, 9002, 9003, 9004};
  const std::vector<std::uint8_t> frame = EncodeStatsResponse(response);

  MessageReader reader;
  reader.Append(frame.data(), frame.size());
  WireMessage message;
  ASSERT_EQ(reader.Next(&message), MessageReader::Result::kMessage);

  StatsMessage decoded;
  ASSERT_TRUE(DecodeStatsResponse(message.payload, &decoded).ok());
  ExpectSnapshotsIdentical(decoded.snapshot, response.snapshot);
  EXPECT_EQ(decoded.shard_id, 2u);
  EXPECT_EQ(decoded.shard_map.shard_count, 4u);
  EXPECT_EQ(decoded.shard_map.hash_seed, 0xfeedfacecafebeefull);
  EXPECT_EQ(decoded.shard_map.ports, response.shard_map.ports);
}

TEST(StatsWireTest, OutOfRangeShardIdIsRejected) {
  // Hand-build a payload whose tail claims shard 5 of 2.
  persist::Encoder encoder;
  obs::EncodeStatsSnapshot(encoder, SampleSnapshot());
  encoder.PutU32(5);  // shard_id
  encoder.PutU32(2);  // shard_count
  encoder.PutU64(1);  // hash_seed
  encoder.PutU32(9001);
  encoder.PutU32(9002);
  StatsMessage out;
  const util::Status status = DecodeStatsResponse(encoder.bytes(), &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shard id"), std::string::npos);
}

TEST(StatsWireTest, EveryByteFlipOfAFramedResponseIsRejected) {
  // Same two-mask corruption sweep as the persist and wire suites: no
  // single-byte corruption of a framed STATS response may reassemble.
  StatsMessage response;
  response.snapshot = SampleSnapshot();
  response.shard_id = 1;
  response.shard_map.shard_count = 2;
  response.shard_map.hash_seed = 7;
  response.shard_map.ports = {9001, 9002};
  const std::vector<std::uint8_t> original = EncodeStatsResponse(response);

  for (std::size_t i = 0; i < original.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0xFF}, std::uint8_t{0x01}}) {
      std::vector<std::uint8_t> corrupt = original;
      corrupt[i] ^= mask;
      MessageReader reader;
      reader.Append(corrupt.data(), corrupt.size());
      WireMessage message;
      EXPECT_NE(reader.Next(&message), MessageReader::Result::kMessage)
          << "byte " << i << " mask " << int(mask)
          << " slipped through frame verification";
    }
  }
}

TEST(StatsScrapeTest, WireScrapeEqualsInProcessSnapshot) {
  // Stream a session over loopback, drain, snapshot in process, then
  // scrape over the wire. The scrape dials its own connection and asks
  // for STATS - and because scrape-only connections are counted lazily,
  // the stats it serves are the stats the service held before the scrape.
  service::FleetService svc(TinyServiceConfig());
  IngestServer server(&svc, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  ClientConfig config;
  config.port = server.port();
  config.session_id = "scrape-session";
  IngestClient client(config);
  ASSERT_TRUE(client.Connect({1, 2}).ok());
  for (int minute = 0; minute < 50; ++minute) {
    ASSERT_TRUE(client.Send(RecordFrame(1, minute)).ok());
    ASSERT_TRUE(client.Send(RecordFrame(2, minute)).ok());
  }
  ASSERT_TRUE(client.Finish().ok());
  ASSERT_TRUE(server.WaitForFinishedSessions(1, 30000));
  svc.Drain();

  const obs::StatsSnapshot reference = svc.SnapshotStats();
  EXPECT_EQ(reference.CounterValue("service.frames_submitted"), 100u);
  EXPECT_EQ(reference.CounterValue("server.frames_received"), 100u);
  EXPECT_EQ(reference.CounterValue("server.sessions_started"), 1u);
  EXPECT_EQ(reference.CounterValue("server.stats_served"), 0u);
  EXPECT_GT(reference.CounterValue("server.session_bytes_in"), 0u);
  EXPECT_GT(reference.CounterValue("server.session_bytes_out"), 0u);

  IngestClient scraper(config);  // fresh client: ephemeral HELLO-less dial
  StatsMessage scraped;
  ASSERT_TRUE(scraper.QueryStats(&scraped).ok());
  ExpectSnapshotsIdentical(scraped.snapshot, reference);
  EXPECT_TRUE(scraped.shard_map.unsharded());

  // The scrape is visible only after it answered: a second scrape sees
  // exactly one STATS served and still no scrape-connection accepted.
  StatsMessage second;
  ASSERT_TRUE(scraper.QueryStats(&second).ok());
  EXPECT_EQ(second.snapshot.CounterValue("server.stats_served"), 1u);
  EXPECT_EQ(second.snapshot.CounterValue("server.connections_accepted"),
            reference.CounterValue("server.connections_accepted"));
  EXPECT_EQ(second.snapshot.CounterValue("server.session_bytes_in"),
            reference.CounterValue("server.session_bytes_in"));
  EXPECT_EQ(second.snapshot.CounterValue("server.session_bytes_out"),
            reference.CounterValue("server.session_bytes_out"));

  server.Stop();
  (void)svc.TakeResult();
}

TEST(StatsScrapeTest, LiveConnectionScrapesBetweenBatches) {
  // The stop-and-wait discipline leaves the stream quiet between batches;
  // a STATS request on the live ingest connection must answer in place
  // without disturbing the session.
  service::FleetService svc(TinyServiceConfig());
  IngestServer server(&svc, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  ClientConfig config;
  config.port = server.port();
  config.session_id = "live-scrape";
  IngestClient client(config);
  ASSERT_TRUE(client.Connect({3}).ok());
  for (int minute = 0; minute < 10; ++minute)
    ASSERT_TRUE(client.Send(RecordFrame(3, minute)).ok());
  ASSERT_TRUE(client.Flush().ok());

  StatsMessage mid;
  ASSERT_TRUE(client.QueryStats(&mid).ok());
  EXPECT_EQ(mid.snapshot.CounterValue("server.frames_received"), 10u);

  // The session continues unharmed after the scrape.
  for (int minute = 10; minute < 20; ++minute)
    ASSERT_TRUE(client.Send(RecordFrame(3, minute)).ok());
  ASSERT_TRUE(client.Finish().ok());
  ASSERT_TRUE(server.WaitForFinishedSessions(1, 30000));
  server.Stop();
  svc.Drain();
  EXPECT_EQ(svc.stats().frames_submitted, 20u);
  (void)svc.TakeResult();
}

TEST(StatsScrapeTest, FourShardWireScrapesMergeToTheFleetAggregate) {
  // The recovery matrix's wire scrape check in miniature: a 4-shard fleet,
  // in-process fleet snapshot after drain, then a wire scrape of every
  // shard; the merged scrape must equal the in-process aggregate byte for
  // byte.
  telemetry::FleetConfig fleet_config = telemetry::FleetConfig::TestScale();
  fleet_config.days = 10;
  const auto fleet = telemetry::GenerateFleet(fleet_config);
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);

  shard::ShardGroupConfig group_config;
  group_config.service.runtime = runtime::RuntimeConfig{2};
  group_config.service.queue_capacity = 32;
  group_config.shard_count = 4;
  shard::ShardGroup group(group_config);
  ServerConfig server_template;
  shard::ShardServer server(&group, server_template);
  ASSERT_TRUE(server.Start().ok());

  for (const auto id : ids) group.RegisterVehicle(id);
  for (const auto& frame : stream) group.Submit(frame);
  group.Drain();

  const obs::StatsSnapshot reference = group.FleetSnapshot();

  obs::StatsSnapshot merged;
  for (int shard = 0; shard < 4; ++shard) {
    ClientConfig config;
    config.port = server.port(shard);
    config.session_id = "scrape-shard-" + std::to_string(shard);
    IngestClient scraper(config);
    StatsMessage response;
    ASSERT_TRUE(scraper.QueryStats(&response).ok());
    EXPECT_EQ(response.shard_id, static_cast<std::uint32_t>(shard));
    EXPECT_EQ(response.shard_map.shard_count, 4u);
    ASSERT_EQ(response.shard_map.ports.size(), 4u);
    EXPECT_EQ(response.shard_map.ports[static_cast<std::size_t>(shard)],
              server.port(shard));
    obs::MergeSnapshot(&merged, response.snapshot);
  }
  ExpectSnapshotsIdentical(merged, reference);

  server.Stop();
  (void)group.TakeResult();
}

/// Streams `stream` through a service of `threads` workers. With
/// `scrape_every` > 0 it also does what a STATS request costs the service
/// every `scrape_every` frames and once after the drain: snapshot the
/// registry, encode the snapshot and render its text form.
core::FleetRunResult RunScrapedEvery(
    const std::vector<telemetry::SensorFrame>& stream,
    const std::vector<std::int32_t>& ids, int threads,
    std::size_t scrape_every) {
  service::ServiceConfig config;
  config.monitor.transform_options.window = 60;
  config.monitor.transform_options.stride = 10;
  config.monitor.profile_minutes = 400.0;
  config.monitor.threshold.burn_in_minutes = 120.0;
  config.monitor.threshold.persistence_minutes = 60.0;
  config.runtime = runtime::RuntimeConfig{threads};
  config.queue_capacity = 32;
  service::FleetService svc(config);
  for (const auto id : ids) svc.RegisterVehicle(id);
  const auto scrape = [&svc] {
    const obs::StatsSnapshot snapshot = svc.SnapshotStats();
    persist::Encoder encoder;
    obs::EncodeStatsSnapshot(encoder, snapshot);
    EXPECT_FALSE(encoder.bytes().empty());
    EXPECT_FALSE(obs::FormatSnapshot(snapshot).empty());
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    svc.Submit(stream[i]);
    if (scrape_every > 0 && (i + 1) % scrape_every == 0) scrape();
  }
  svc.Drain();
  if (scrape_every > 0) scrape();
  return svc.TakeResult();
}

TEST(StatsScrapeTest, ScrapingMidStreamNeverChangesTheOutput) {
  // Output transparency: runs scraped every 200 frames at threads 1 and 4
  // release the same alarms, per-sample scores and quality counters as an
  // unscraped serial run.
  telemetry::FleetConfig fleet_config = telemetry::FleetConfig::TestScale();
  fleet_config.days = 30;
  const auto fleet = telemetry::GenerateFleet(fleet_config);
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  const core::FleetRunResult reference =
      RunScrapedEvery(stream, ids, /*threads=*/1, /*scrape_every=*/0);
  ASSERT_FALSE(reference.alarms.empty());

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::FleetRunResult scraped =
        RunScrapedEvery(stream, ids, threads, /*scrape_every=*/200);
    ASSERT_EQ(scraped.alarms.size(), reference.alarms.size());
    for (std::size_t i = 0; i < reference.alarms.size(); ++i) {
      EXPECT_EQ(scraped.alarms[i].vehicle_id, reference.alarms[i].vehicle_id);
      EXPECT_EQ(scraped.alarms[i].timestamp, reference.alarms[i].timestamp);
      EXPECT_EQ(scraped.alarms[i].score, reference.alarms[i].score);
      EXPECT_EQ(scraped.alarms[i].threshold, reference.alarms[i].threshold);
    }
    ASSERT_EQ(scraped.scored_samples.size(), reference.scored_samples.size());
    for (std::size_t v = 0; v < reference.scored_samples.size(); ++v) {
      ASSERT_EQ(scraped.scored_samples[v].size(),
                reference.scored_samples[v].size());
      for (std::size_t i = 0; i < reference.scored_samples[v].size(); ++i)
        EXPECT_EQ(scraped.scored_samples[v][i].scores,
                  reference.scored_samples[v][i].scores);
    }
    ASSERT_EQ(scraped.quality.size(), reference.quality.size());
    for (std::size_t v = 0; v < reference.quality.size(); ++v) {
      EXPECT_EQ(scraped.quality[v].records_seen,
                reference.quality[v].records_seen);
      EXPECT_EQ(scraped.quality[v].RecordsDropped(),
                reference.quality[v].RecordsDropped());
    }
  }
}

}  // namespace
}  // namespace navarchos::net
