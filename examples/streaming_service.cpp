// Streaming service demo: live fleet monitoring over one multiplexed feed,
// with durable checkpoint/restore and an optional TCP front end.
//
// Every role serves the fleet through shard::ShardGroup: N FleetService
// shards behind a consistent-hash router, with a fleet aggregator merging
// the shards back into ONE totally ordered alarm / history stream. --shards
// defaults to 1, and the output is bit-identical to the unsharded service
// at any shard x thread count.
//
// 1. Simulate a small fleet and flatten it into the interleaved SensorFrame
//    stream a live telemetry gateway would deliver (all vehicles mixed,
//    ordered by time).
// 2. Feed the stream into the group: frames are routed to per-vehicle
//    bounded ingest queues and monitored concurrently on one worker pool,
//    while an alarm callback consumes alarms live, in the deterministic
//    total order. With --snapshot-every N the group also writes a durable
//    checkpoint every N submitted frames.
// 3. Drain (graceful shutdown), then show that the collected result is the
//    one an unsharded serial replay of the same stream produces.
//
// A checkpoint is a DIRECTORY at any shard count: one snapshot per shard
// plus a CRC'd fleet.manifest, whose atomic rename is the commit point.
// Restore mode (--restore <dir>) rebuilds the whole group from a checkpoint
// written by a previous - possibly SIGKILLed - run, resumes the stream from
// the checkpointed cursor, and produces the same total alarm order as an
// uninterrupted run (restore-equals-uninterrupted).
//
// Network mode splits the demo into two processes talking the src/net wire
// protocol over TCP. Loopback quickstart:
//
//   ./build/examples/streaming_service --listen 7600 &
//   ./build/examples/streaming_service --connect 7600
//
// The server opens one listener per shard (shard 0 on the --listen port)
// and, when sharded, advertises the shard map in every WELCOME. The client
// bootstraps the map from the --connect port and routes each vehicle to its
// home shard over one resumable session per shard. With --verify the
// server checks the drained result against an in-process replay of the
// same deterministic stream - the loopback run is bit-identical. A client
// cut mid-stream (--abort-after N, or a real SIGKILL) leaves the server's
// session cursors intact; rerunning the client with --resume continues
// from the last acknowledged frame and the final output is still identical.
//
// History mode (--history-dir, any role): every scored sample is appended
// to an on-disk anomaly history log in the fleet-wide release order, and
// the log answers RANK / TIMELINE / COMOVE queries - locally (--query with
// --history-dir) or over the wire from a running server (--query with
// --connect). The query output is printed deterministically (%.17g
// doubles) so two runs over identical logs diff clean.
//
// Observability (any role): every shard keeps a unified metrics registry
// (monotonic counters, high-water gauges, latency histograms).
// --stats-every N prints one diffable counters line per N frames,
// --stats-out writes the final fleet snapshot's text rendering to a file,
// and --query stats scrapes a running server over the wire (--fleet merges
// every shard). Scraping is invisible to the metrics themselves, so the
// wire-scraped rendering of a drained server is byte-identical to its
// in-process --stats-out file.
//
// Build & run:  ./build/examples/streaming_service
// Flags (in-process role):
//   --threads N          worker threads (default 4)
//   --shards N           shards of the fleet (default 1)
//   --snapshot-every N   checkpoint every N submitted frames (default off)
//   --snapshot-path D    checkpoint directory (default streaming_service.fleet)
//   --restore D          restore from checkpoint directory D, then resume
//                        the stream (same --shards as the checkpointing run)
//   --alarm-log P        write the final alarm list (total order) to P
//   --history-dir D      append the anomaly history log under directory D
//   --ensemble-k K       monitor with a rolling consensus ensemble of K
//                        members instead of the single *Ref* model (the
//                        server role honours these three flags too)
//   --ensemble-m M       members that must agree before an alarm passes
//                        (default: config default, currently 3)
//   --retrain-every N    samples between background member retrains
//                        (default: derived from the profile window)
//   --stats-every N      print one diffable metrics line every N frames
//   --stats-out P        write the drained metrics snapshot rendering to P
// Flags (server role):
//   --listen N           serve ingest on port N (0 = ephemeral)
//   --shards N           one listener + service per shard (default 1;
//                        bootstrap = shard 0 on the --listen port, rest
//                        ephemeral)
//   --port-file P        write the bound (bootstrap) port to P
//   --sessions N         finished client runs to wait for (default 1; a
//                        client finishes one session per shard)
//   --verify             after draining, compare against an in-process replay
//   --history-dir D      write the history log AND serve QUERY messages
//   --stats-out P        drain BEFORE stopping the listeners, write the
//                        quiesced metrics rendering to P, keep answering
//                        STATS scrapes until shutdown
//   --await-scrapes N    with --stats-out: stop only after N STATS
//                        scrapes have been answered
// Flags (client role):
//   --connect N          stream the demo fleet to the server on port N
//   --host H             server address (default 127.0.0.1)
//   --session S          session id (default "demo"; resume key)
//   --resume             resume every shard session from its server cursor
//   --abort-after N      simulate a crash: exit without FIN after N frames
// Flags (query role; --query picks the role):
//   --query K            rank | timeline | comove | stats
//   --connect N          query a running server on port N over the wire, or
//   --history-dir D      query a local log directory directly (stats is
//                        wire-only; local runs use --stats-out instead)
//   --fleet              stats: scrape every shard advertised in the STATS
//                        tail once and print the merged fleet snapshot
//   --vehicle V          timeline: vehicle id (required)
//   --window-minutes N   rank: severity window in minutes (0 = whole log)
//   --end-ts T           rank/timeline: range end (0 = log end)
//   --limit N            rank: vehicles to print (0 = all)
//   --start-ts T         timeline: range start (0 = log start)
//   --max-records N      timeline: newest records kept (0 = all)
//   --alarm-seq S        comove: global seq of the anchoring alarm
//   --window N           comove: records per side (default 16)
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "history/history_service.h"
#include "history/query.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "obs/metrics.h"
#include "service/fleet_service.h"
#include "shard/shard_group.h"
#include "shard/shard_server.h"
#include "shard/sharded_client.h"
#include "telemetry/fleet.h"
#include "telemetry/stream.h"
#include "util/args.h"

namespace {

using namespace navarchos;

bool WriteAlarmLog(const std::string& path,
                   const std::vector<navarchos::core::Alarm>& alarms) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const auto& alarm : alarms) {
    std::fprintf(file, "%d %lld %zu %s %.17g %.17g\n", alarm.vehicle_id,
                 static_cast<long long>(alarm.timestamp), alarm.channel,
                 alarm.channel_name.c_str(), alarm.score, alarm.threshold);
  }
  std::fclose(file);
  return true;
}

/// One diffable line of the live service counters (--stats-every). Reading
/// the snapshot mid-stream races benignly with the workers: monotonic
/// counters, never torn values.
void PrintStatsLine(const obs::StatsSnapshot& snapshot) {
  const obs::HistogramSample* latency =
      snapshot.FindHistogram("service.admission_to_release_us");
  std::printf("[stats] submitted=%llu processed=%llu alarms=%llu "
              "release_p50_us=%llu release_p99_us=%llu\n",
              static_cast<unsigned long long>(
                  snapshot.CounterValue("service.frames_submitted")),
              static_cast<unsigned long long>(
                  snapshot.CounterValue("service.frames_processed")),
              static_cast<unsigned long long>(
                  snapshot.CounterValue("service.alarms_emitted")),
              static_cast<unsigned long long>(
                  latency ? latency->ValueAtQuantile(0.5) : 0),
              static_cast<unsigned long long>(
                  latency ? latency->ValueAtQuantile(0.99) : 0));
}

/// Writes the diffable text rendering of `snapshot` to `path`
/// (--stats-out). A post-drain wire scrape renders to the same bytes, so
///   diff <(streaming_service --query stats --fleet --connect P) FILE
/// is the end-to-end observability check.
bool WriteStatsFile(const std::string& path,
                    const obs::StatsSnapshot& snapshot) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string text = obs::FormatSnapshot(snapshot);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  return true;
}

// The demo fleet: deterministic, so server, client and the in-process
// verification replay all reconstruct the identical stream independently.
telemetry::FleetDataset MakeFleet() {
  telemetry::FleetConfig fleet_config = telemetry::FleetConfig::TestScale();
  fleet_config.days = 200;
  fleet_config.service_interval_days = 60;
  fleet_config.fault_lead_days = 30;
  return telemetry::GenerateFleet(fleet_config);
}

service::ServiceConfig MakeServiceConfig(const util::Args& args, int threads) {
  service::ServiceConfig config;
  config.monitor.transform = transform::TransformKind::kCorrelation;
  config.monitor.detector = detect::DetectorKind::kClosestPair;
  config.monitor.threshold.factor = 10.0;
  // --ensemble-k K switches every monitor to the rolling consensus ensemble
  // (K staggered members, --ensemble-m of them must agree, a member retrained
  // in the background every --retrain-every samples). The verify replays
  // below reuse this config, so replay-equals-live holds with it on.
  const std::int64_t ensemble_k = args.GetInt("ensemble-k", 0);
  if (ensemble_k > 0) {
    config.monitor.ensemble.enabled = true;
    config.monitor.ensemble.k = static_cast<int>(ensemble_k);
    if (args.Has("ensemble-m"))
      config.monitor.ensemble.m =
          static_cast<int>(args.GetInt("ensemble-m", 0));
    if (args.Has("retrain-every"))
      config.monitor.ensemble.retrain_every =
          static_cast<int>(args.GetInt("retrain-every", 0));
  }
  config.runtime = runtime::RuntimeConfig{threads};
  config.queue_capacity = 128;  // frames buffered per vehicle before blocking
  return config;
}


/// The fleet group every role serves through: --shards shards (default 1,
/// the identity fleet) on one pool of --threads workers.
shard::ShardGroupConfig MakeGroupConfig(const util::Args& args) {
  shard::ShardGroupConfig config;
  config.service =
      MakeServiceConfig(args, static_cast<int>(args.GetInt("threads", 4)));
  config.shard_count = static_cast<std::uint32_t>(args.GetInt("shards", 1));
  return config;
}

/// Opens (or recovers) the history log under `dir` and hooks it into the
/// group's ordered release path. The group's history callback sees
/// fleet-sequenced records in the fleet-wide total order, so one log
/// serves the whole fleet. Empty `dir` leaves history off.
std::unique_ptr<history::HistoryService> AttachFleetHistory(
    shard::ShardGroup* group, const std::string& dir) {
  if (dir.empty()) return nullptr;
  auto service = std::make_unique<history::HistoryService>(dir);
  const util::Status status = service->Open();
  if (!status.ok()) {
    std::fprintf(stderr, "history open failed: %s\n", status.message().c_str());
    return nullptr;
  }
  history::HistoryService* raw = service.get();
  // One log serves the whole fleet, so - like the shared pool - its
  // metrics live in shard 0's registry by convention.
  raw->AttachMetrics(group->shard_service(0)->metrics());
  group->set_history_callback(
      [raw](const history::HistoryRecord& record) { raw->Append(record); });
  // Flush the log inside every checkpoint's quiesced window, so a crash
  // never leaves a checkpoint claiming records the log does not hold.
  group->set_checkpoint_barrier([raw] { return raw->Flush(); });
  return service;
}

/// Flushes the log after a drain and reports what it holds; returns false
/// on a latched append/flush error.
bool FinishHistory(history::HistoryService* service) {
  if (service == nullptr) return true;
  util::Status status = service->Flush();
  if (status.ok()) status = service->first_error();
  if (!status.ok()) {
    std::fprintf(stderr, "history log failed: %s\n", status.message().c_str());
    return false;
  }
  const history::WriterStats stats = service->writer_stats();
  std::printf("history log: %llu records appended (%llu replayed duplicates "
              "skipped) in %s\n",
              static_cast<unsigned long long>(stats.records_appended),
              static_cast<unsigned long long>(stats.records_skipped),
              service->dir().c_str());
  return true;
}

void PrintRank(const history::RankResult& result) {
  std::printf("RANK (%zu vehicles)\n", result.entries.size());
  for (const auto& entry : result.entries)
    std::printf("vehicle %d: records %llu alarms %llu mean %.17g max %.17g "
                "last_ts %lld\n",
                entry.vehicle_id,
                static_cast<unsigned long long>(entry.records),
                static_cast<unsigned long long>(entry.alarms),
                entry.mean_ratio, entry.max_ratio,
                static_cast<long long>(entry.last_ts));
}

void PrintTimeline(std::int32_t vehicle_id,
                   const history::TimelineResult& result) {
  std::printf("TIMELINE vehicle %d (%zu records)\n", vehicle_id,
              result.records.size());
  for (const auto& record : result.records) {
    std::printf("seq %llu ts %lld score %.17g thr %.17g alarm %d top [",
                static_cast<unsigned long long>(record.global_seq),
                static_cast<long long>(record.timestamp), record.score,
                record.threshold, record.alarm ? 1 : 0);
    for (std::size_t i = 0; i < record.top_channels.size(); ++i)
      std::printf(i == 0 ? "%u" : " %u", record.top_channels[i]);
    std::printf("]\n");
  }
}

void PrintComove(const history::ComoveResult& result) {
  std::printf("COMOVE vehicle %d alarm_ts %lld (%zu channels)\n",
              result.vehicle_id, static_cast<long long>(result.alarm_ts),
              result.entries.size());
  for (const auto& entry : result.entries)
    std::printf("channel %u hits %llu weight %llu\n", entry.channel,
                static_cast<unsigned long long>(entry.hits),
                static_cast<unsigned long long>(entry.weight));
}

/// --query stats: scrape a running server's metrics over the wire. The
/// snapshot rendering goes to stdout alone (shard identity to stderr), so
/// the output diffs clean against a --stats-out file. With --fleet on a
/// sharded server, every shard advertised in the STATS tail is scraped
/// once and the per-shard snapshots merge into the fleet aggregate.
int RunStatsQuery(const util::Args& args) {
  const auto port = static_cast<std::uint16_t>(args.GetInt("connect", 0));
  if (port == 0) {
    std::fprintf(stderr,
                 "--query stats needs --connect PORT (local runs render the "
                 "same snapshot via --stats-every / --stats-out)\n");
    return 2;
  }
  net::ClientConfig config;
  config.host = args.GetString("host", "127.0.0.1");
  config.port = port;
  net::IngestClient client(config);
  net::StatsMessage message;
  util::Status status = client.QueryStats(&message);
  if (!status.ok()) {
    std::fprintf(stderr, "stats scrape failed: %s\n",
                 status.message().c_str());
    return 2;
  }
  if (!args.Has("fleet") || message.shard_map.unsharded()) {
    if (!message.shard_map.unsharded())
      std::fprintf(stderr, "shard %u of %u\n", message.shard_id,
                   message.shard_map.shard_count);
    std::fputs(obs::FormatSnapshot(message.snapshot).c_str(), stdout);
    return 0;
  }
  // Fleet scrape: one snapshot per shard, merged. The bootstrap response
  // already carries its shard's snapshot; dialing that shard again would
  // observe the first scrape's own stats_served increment, so every shard
  // contributes the snapshot of its FIRST scrape only.
  obs::StatsSnapshot fleet = message.snapshot;
  for (std::size_t shard = 0; shard < message.shard_map.ports.size();
       ++shard) {
    if (shard == message.shard_id) continue;
    net::ClientConfig shard_config = config;
    shard_config.port = message.shard_map.ports[shard];
    net::IngestClient shard_client(shard_config);
    net::StatsMessage shard_message;
    status = shard_client.QueryStats(&shard_message);
    if (!status.ok()) {
      std::fprintf(stderr, "stats scrape of shard %zu failed: %s\n", shard,
                   status.message().c_str());
      return 2;
    }
    if (shard_message.shard_id != shard) {
      std::fprintf(stderr, "shard %zu answered as shard %u\n", shard,
                   shard_message.shard_id);
      return 2;
    }
    obs::MergeSnapshot(&fleet, shard_message.snapshot);
  }
  std::fprintf(stderr, "fleet of %u shards\n",
               message.shard_map.shard_count);
  std::fputs(obs::FormatSnapshot(fleet).c_str(), stdout);
  return 0;
}

/// Query role: answer one RANK / TIMELINE / COMOVE - over the wire against
/// a running server (--connect) or directly off a log directory
/// (--history-dir) - and pretty-print the result deterministically.
int RunQueryRole(const util::Args& args) {
  const std::string kind = args.GetString("query", "");
  if (kind == "stats") return RunStatsQuery(args);
  const std::string history_dir = args.GetString("history-dir", "");
  const auto port = static_cast<std::uint16_t>(args.GetInt("connect", 0));
  if (history_dir.empty() && port == 0) {
    std::fprintf(stderr,
                 "--query needs --connect PORT (wire) or --history-dir D "
                 "(local)\n");
    return 2;
  }

  history::RankQuery rank;
  rank.window_minutes = args.GetInt("window-minutes", 0);
  rank.end_ts = args.GetInt("end-ts", 0);
  rank.limit = static_cast<std::uint32_t>(args.GetInt("limit", 0));
  history::TimelineQuery timeline;
  timeline.vehicle_id = static_cast<std::int32_t>(args.GetInt("vehicle", 0));
  timeline.start_ts = args.GetInt("start-ts", 0);
  timeline.end_ts = args.GetInt("end-ts", 0);
  timeline.max_records =
      static_cast<std::uint32_t>(args.GetInt("max-records", 0));
  history::ComoveQuery comove;
  comove.alarm_seq = static_cast<std::uint64_t>(args.GetInt("alarm-seq", 0));
  comove.window = static_cast<std::uint32_t>(args.GetInt("window", 16));

  history::RankResult rank_result;
  history::TimelineResult timeline_result;
  history::ComoveResult comove_result;
  util::Status status;
  if (port != 0) {
    net::ClientConfig config;
    config.host = args.GetString("host", "127.0.0.1");
    config.port = port;
    net::IngestClient client(config);
    if (kind == "rank")
      status = client.QueryRank(rank, &rank_result);
    else if (kind == "timeline")
      status = client.QueryTimeline(timeline, &timeline_result);
    else if (kind == "comove")
      status = client.QueryComove(comove, &comove_result);
    else
      status = util::Status::Error("unknown query kind '" + kind + "'");
  } else {
    const history::QueryEngine engine(history_dir);
    if (kind == "rank")
      status = engine.Rank(rank, &rank_result);
    else if (kind == "timeline")
      status = engine.Timeline(timeline, &timeline_result);
    else if (kind == "comove")
      status = engine.Comove(comove, &comove_result);
    else
      status = util::Status::Error("unknown query kind '" + kind + "'");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n", status.message().c_str());
    return 2;
  }
  if (kind == "rank")
    PrintRank(rank_result);
  else if (kind == "timeline")
    PrintTimeline(timeline.vehicle_id, timeline_result);
  else
    PrintComove(comove_result);
  return 0;
}

/// True when `live` released the same alarms as `replay` and every vehicle
/// saw and scored as many records, so a lost or doubled frame shows even
/// when it moves no alarm.
bool SameOutput(const core::FleetRunResult& replay,
                const core::FleetRunResult& live) {
  if (replay.alarms.size() != live.alarms.size() ||
      replay.quality.size() != live.quality.size())
    return false;
  for (std::size_t i = 0; i < replay.alarms.size(); ++i) {
    const core::Alarm& a = replay.alarms[i];
    const core::Alarm& b = live.alarms[i];
    if (a.vehicle_id != b.vehicle_id || a.timestamp != b.timestamp ||
        a.channel != b.channel || a.score != b.score ||
        a.threshold != b.threshold)
      return false;
  }
  for (std::size_t v = 0; v < replay.quality.size(); ++v)
    if (replay.quality[v].records_seen != live.quality[v].records_seen ||
        replay.scored_samples[v].size() != live.scored_samples[v].size())
      return false;
  return true;
}

/// Server role: one TCP listener per shard over one ShardGroup, serving
/// until the expected sessions finished, then draining and reporting -
/// optionally verifying against the in-process replay. Every WELCOME of a
/// sharded server advertises the shard map.
int RunServerRole(const util::Args& args) {
  const auto listen_port =
      static_cast<std::uint16_t>(args.GetInt("listen", 0));
  const std::string port_file = args.GetString("port-file", "");
  const auto sessions = static_cast<std::uint64_t>(args.GetInt("sessions", 1));
  const std::string alarm_log = args.GetString("alarm-log", "");

  shard::ShardGroup group(MakeGroupConfig(args));
  const int shards = static_cast<int>(group.shard_map().shard_count());
  const std::unique_ptr<history::HistoryService> history =
      AttachFleetHistory(&group, args.GetString("history-dir", ""));
  if (!args.GetString("history-dir", "").empty() && history == nullptr)
    return 2;

  net::ServerConfig server_template;
  server_template.port = listen_port;
  server_template.history = history.get();
  shard::ShardServer server(&group, server_template);
  const util::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", status.message().c_str());
    return 2;
  }
  std::printf("listening on port %u (%d shard(s)", server.port(0), shards);
  for (int shard = 1; shard < shards; ++shard)
    std::printf(", %u", server.port(shard));
  std::printf(")\n");
  std::fflush(stdout);  // scripts background this role and tail the log
  if (!port_file.empty()) {
    std::FILE* file = std::fopen(port_file.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 2;
    }
    std::fprintf(file, "%u\n", server.port(0));
    std::fclose(file);
  }

  // A client FINishes one session per shard.
  server.WaitForFinishedSessions(sessions *
                                 static_cast<std::uint64_t>(shards));
  const std::string stats_out = args.GetString("stats-out", "");
  const std::int64_t await_scrapes = args.GetInt("await-scrapes", 0);
  if (stats_out.empty() && await_scrapes <= 0) {
    server.Stop();
    group.Drain();
  } else {
    // Observability epilogue: drain FIRST - STATS is stateless, so the
    // listeners keep answering scrapes over the quiesced registries -
    // publish the in-process fleet aggregate, then hold the listeners
    // open until the expected number of wire scrapes has been served.
    group.Drain();
    if (!stats_out.empty()) {
      if (!WriteStatsFile(stats_out, group.FleetSnapshot())) {
        std::fprintf(stderr, "cannot write stats file %s\n",
                     stats_out.c_str());
        return 2;
      }
      std::printf("final stats written to %s\n", stats_out.c_str());
      std::fflush(stdout);
    }
    const auto scrapes_served = [&server, shards] {
      std::uint64_t total = 0;
      for (int shard = 0; shard < shards; ++shard)
        total += server.server(shard)->stats().stats_served;
      return total;
    };
    while (scrapes_served() < static_cast<std::uint64_t>(await_scrapes))
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.Stop();
  }
  if (!FinishHistory(history.get())) return 2;

  net::ServerStats net_stats;
  for (int shard = 0; shard < shards; ++shard) {
    const net::ServerStats shard_stats = server.server(shard)->stats();
    net_stats.frames_received += shard_stats.frames_received;
    net_stats.frames_admitted += shard_stats.frames_admitted;
    net_stats.frames_shed += shard_stats.frames_shed;
    net_stats.duplicates_skipped += shard_stats.duplicates_skipped;
    net_stats.connections_accepted += shard_stats.connections_accepted;
    net_stats.resumes += shard_stats.resumes;
  }
  const auto stats = group.stats();
  const auto live = group.TakeResult();
  std::printf(
      "served %llu frames (%llu admitted, %llu shed, %llu duplicates "
      "skipped) over %llu connections, %llu resume(s)\n",
      static_cast<unsigned long long>(net_stats.frames_received),
      static_cast<unsigned long long>(net_stats.frames_admitted),
      static_cast<unsigned long long>(net_stats.frames_shed),
      static_cast<unsigned long long>(net_stats.duplicates_skipped),
      static_cast<unsigned long long>(net_stats.connections_accepted),
      static_cast<unsigned long long>(net_stats.resumes));
  std::printf("processed %zu frames, %zu alarms\n", stats.frames_processed,
              live.alarms.size());

  if (!alarm_log.empty() && !WriteAlarmLog(alarm_log, live.alarms)) {
    std::fprintf(stderr, "cannot write alarm log %s\n", alarm_log.c_str());
    return 2;
  }

  if (args.Has("verify")) {
    const telemetry::FleetDataset fleet = MakeFleet();
    const auto stream = telemetry::InterleaveFleetStream(fleet);
    const auto replay = service::RunStream(
        stream, service::VehicleIdsOf(fleet), MakeServiceConfig(args, 1));
    const bool identical = SameOutput(replay, live);
    std::printf("unsharded in-process replay of the same stream: %s\n",
                identical ? "identical output (wire == in-process)"
                          : "MISMATCH");
    return identical ? 0 : 1;
  }
  return 0;
}

/// Client role: bootstrap the shard map from the --connect port, then
/// stream every frame to its vehicle's home shard (one resumable session
/// per shard). Resume replays the whole stream; frames the shards already
/// decided are skipped locally. --abort-after simulates a mid-stream crash
/// (no FIN).
int RunClientRole(const util::Args& args) {
  shard::ShardedClientConfig config;
  config.client.host = args.GetString("host", "127.0.0.1");
  config.client.port = static_cast<std::uint16_t>(args.GetInt("connect", 0));
  config.client.session_id = args.GetString("session", "demo");
  const std::int64_t abort_after = args.GetInt("abort-after", 0);
  const bool resume = args.Has("resume");

  const telemetry::FleetDataset fleet = MakeFleet();
  const auto stream = telemetry::InterleaveFleetStream(fleet);

  shard::ShardedClient client(config);
  util::Status status = client.Connect(service::VehicleIdsOf(fleet), resume);
  if (!status.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", status.message().c_str());
    return 2;
  }
  std::printf("%s session '%s' across %u shard(s), %zu frames\n",
              resume ? "resumed" : "started", config.client.session_id.c_str(),
              client.shard_map_info().shard_count, stream.size());

  std::uint64_t submitted = 0;
  for (const auto& frame : stream) {
    status = client.Send(frame);
    if (!status.ok()) {
      std::fprintf(stderr, "send failed at frame %llu: %s\n",
                   static_cast<unsigned long long>(submitted),
                   status.message().c_str());
      return 2;
    }
    if (abort_after > 0 &&
        ++submitted >= static_cast<std::uint64_t>(abort_after)) {
      // Simulated crash across every shard session at once: from the
      // server's viewpoint this is a client SIGKILL. A later --resume run
      // replays the stream and each shard skips its decided prefix.
      client.Abort();
      std::printf("aborted after %llu frames\n",
                  static_cast<unsigned long long>(submitted));
      return 0;
    }
  }
  status = client.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "finish failed: %s\n", status.message().c_str());
    return 2;
  }
  std::printf("streamed %llu frames over %u shard session(s)\n",
              static_cast<unsigned long long>(client.frames_sent()),
              client.shard_map_info().shard_count);
  return 0;
}

/// In-process role (the default): the recorded feed through one ShardGroup
/// with blocking backpressure. The fleet-wide alarm / history output is
/// bit-identical to the unsharded run, and a checkpoint is a fleet
/// checkpoint directory that --restore rebuilds the whole group from.
int RunInProcessRole(const util::Args& args) {
  const std::int64_t snapshot_every = args.GetInt("snapshot-every", 0);
  const std::string snapshot_path =
      args.GetString("snapshot-path", "streaming_service.fleet");
  const std::string restore_path = args.GetString("restore", "");
  const std::string alarm_log = args.GetString("alarm-log", "");
  const std::int64_t stats_every = args.GetInt("stats-every", 0);
  const std::string stats_out = args.GetString("stats-out", "");

  // A recorded interleaved feed (stand-in for the live gateway).
  const telemetry::FleetDataset fleet = MakeFleet();
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  shard::ShardGroup group(MakeGroupConfig(args));
  std::printf("interleaved feed: %zu frames from %zu vehicles, %u shard(s)\n",
              stream.size(), fleet.vehicles.size(),
              group.shard_map().shard_count());

  std::size_t resume_cursor = 0;
  if (!restore_path.empty()) {
    // Verify every per-shard snapshot against the manifest's CRCs, rebuild
    // all shards - lanes, monitors, sequence counters, released alarms -
    // and the aggregator, then resume from the fleet cursor (every frame
    // before it was processed and released before the checkpoint).
    const util::Status status = group.RestoreFromDir(restore_path);
    if (!status.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", status.message().c_str());
      return 2;
    }
    resume_cursor = group.stats().frames_accepted;
    std::printf("restored %zu vehicles from %s, resuming at frame %zu\n",
                group.vehicle_count(), restore_path.c_str(), resume_cursor);
  } else {
    for (const auto& vehicle : fleet.vehicles)
      group.RegisterVehicle(vehicle.spec.id);
  }

  const std::unique_ptr<history::HistoryService> history =
      AttachFleetHistory(&group, args.GetString("history-dir", ""));
  if (!args.GetString("history-dir", "").empty() && history == nullptr)
    return 2;

  std::size_t live_alarms = 0;
  group.set_alarm_callback([&live_alarms](const core::Alarm& alarm) {
    if (++live_alarms <= 5)  // print the first few, count the rest
      std::printf("  live alarm: vehicle %d, minute %lld, channel %s\n",
                  alarm.vehicle_id, static_cast<long long>(alarm.timestamp),
                  alarm.channel_name.c_str());
  });

  std::size_t since_snapshot = 0;
  for (std::size_t i = resume_cursor; i < stream.size(); ++i) {
    group.Submit(stream[i]);
    if (stats_every > 0 &&
        (i + 1) % static_cast<std::size_t>(stats_every) == 0)
      PrintStatsLine(group.FleetSnapshot());
    if (snapshot_every > 0 &&
        ++since_snapshot >= static_cast<std::size_t>(snapshot_every)) {
      since_snapshot = 0;
      const util::Status status = group.Checkpoint(snapshot_path);
      if (!status.ok()) {
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     status.message().c_str());
        return 2;
      }
    }
  }
  group.Drain();  // graceful shutdown
  if (!FinishHistory(history.get())) return 2;
  if (!stats_out.empty() && !WriteStatsFile(stats_out, group.FleetSnapshot())) {
    std::fprintf(stderr, "cannot write stats file %s\n", stats_out.c_str());
    return 2;
  }

  const auto stats = group.stats();
  const auto live = group.TakeResult();
  std::printf("\nprocessed %zu/%zu frames, %zu alarms (%zu seen live)\n",
              stats.frames_processed, stats.frames_submitted,
              live.alarms.size(), live_alarms);

  if (!alarm_log.empty() && !WriteAlarmLog(alarm_log, live.alarms)) {
    std::fprintf(stderr, "cannot write alarm log %s\n", alarm_log.c_str());
    return 2;
  }

  // The house invariant: the fleet's total order equals the unsharded
  // single-threaded replay bit for bit, at any shard count.
  const auto replay = service::RunStream(stream, service::VehicleIdsOf(fleet),
                                         MakeServiceConfig(args, 1));
  const bool identical = SameOutput(replay, live);
  std::printf("unsharded serial replay of the recorded stream: %s\n",
              identical ? "identical output (replay == live)" : "MISMATCH");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.Has("query")) return RunQueryRole(args);
  if (args.GetInt("shards", 1) < 1) {
    std::fprintf(stderr, "--shards must be at least 1\n");
    return 2;
  }
  if (args.Has("listen")) return RunServerRole(args);
  if (args.Has("connect")) return RunClientRole(args);
  return RunInProcessRole(args);
}
