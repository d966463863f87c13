// The open-loop workload, live: frames of the setting40 fleet fall due in
// fixed batches on a fixed tick, well below what the service can absorb,
// and a ShardedClient sends each batch over loopback TCP to a 2-shard
// ShardGroup behind a ShardServer. A HistoryService sits on the fleet
// history callback, and an operator connection refreshes a dashboard on a
// fixed cadence. The service is mostly idle, so the wire codec, the server
// loops, the shard merge, history appends beside history reads and the
// STATS path do the work.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dashboard.h"
#include "history/history_service.h"
#include "history/query.h"
#include "net/ingest_client.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
#include "shard/shard_group.h"
#include "shard/shard_router.h"
#include "shard/shard_server.h"
#include "shard/sharded_client.h"
#include "trace.h"
#include "workloads.h"

namespace navarchos::perfbench {
namespace {

constexpr std::uint32_t kShards = 2;
/// Pool workers of the group: with the two shard server loops, the
/// generator and the operator that is more threads than vCPUs, but the
/// paced service is idle most of the time.
constexpr int kLiveWorkers = 2;
/// Offered load: kBatchFrames frames fall due every kTickUs (30,000
/// frames/s, an eighth of the in-process catch-up rate). A sample's
/// release time is then mostly the path's own work on its batch: sending
/// it (each flush waits for the shards' ACKs one after another), decoding,
/// scoring and the ordered merge. With shorter ticks it was mostly the
/// time this host's idle vCPUs took to wake up: at 20 ms ticks of 600
/// frames release p50 read 2.5 ms without host steal and 3.8-4.3 ms under
/// 10-12% steal, and at 2 ms ticks of 60 frames the generator fell behind.
constexpr std::uint64_t kTickUs = 100000;
constexpr std::uint64_t kBatchFrames = 3000;
/// The operator's dashboard refresh cadence while frames stream. A refresh
/// holds the history lock and shard 0's serving loop for its three log
/// scans (10-17 ms here), so at a 500 ms cadence it delayed 5-10% of the
/// samples and the release p90 swung with the query cost. query_p50_us
/// is therefore timed after the stream, on the log it wrote; the
/// refreshes under load, which leave out the STATS scrape (see
/// dashboard.h), are a reference figure.
constexpr std::uint64_t kRefreshEveryUs = 2000000;
/// Samples a batch must complete for its release percentiles to count;
/// the first seconds of a stream score none while references fill.
constexpr std::size_t kMinBatchSamples = 20;
/// The release percentiles are taken per batch and reported at this
/// quantile over the stream's batches. A batch's wall time stretches with
/// host steal (idle vCPUs take longer to wake, busy ones lose time to
/// other guests): over 15 runs under 3-10% steal the median over batches
/// rose about 5% per point of steal and spread 0.15 from run to run, the
/// tenth percentile about 2.5% and 0.08-0.10.
constexpr double kOverBatchesQuantile = 0.10;
/// After the stream the short operations run in kRestRounds rounds, each
/// with back-to-back dashboard refreshes for kRoundRefreshSeconds (at
/// least kMinRoundRefreshes), kRoundCheckpoints fleet checkpoints and as
/// many restores, and kRoundSetups stand-alone stack builds. This host's
/// speed drifts in phases of seconds, so the rounds spread each median
/// over about 15 s: with 8 rounds (about 5 s) live checkpoint_ms spread
/// 0.20-0.30 over ten runs, where backfill's checkpoints, spread over its
/// 20 s of passes, spread 0.08-0.13. kSetupRepeats more builds run before
/// the stream.
constexpr int kRestRounds = 24;
constexpr double kRoundRefreshSeconds = 0.25;
constexpr int kMinRoundRefreshes = 3;
constexpr int kRoundCheckpoints = 2;
constexpr int kRoundSetups = 8;
constexpr int kSetupRepeats = 16;

shard::ShardGroupConfig GroupConfig() {
  shard::ShardGroupConfig config;
  config.service.runtime = runtime::RuntimeConfig{kLiveWorkers};
  config.shard_count = kShards;
  return config;
}

/// State the fleet history callback writes while frames stream; the
/// aggregator calls it one record at a time, in fleet order.
struct LiveProbe {
  const std::vector<std::uint64_t>* due_ns = nullptr;  ///< Per batch.
  history::HistoryService* history = nullptr;
  SpanLog* spans = nullptr;
  std::atomic<bool> streaming{true};
  std::vector<double> release_us;
  std::vector<std::uint64_t> release_batch;  ///< Parallel to release_us.

  void OnRecord(const history::HistoryRecord& record) {
    const std::uint64_t now = WallNanos();
    const std::uint64_t batch = record.global_seq / kBatchFrames;
    if (streaming.load(std::memory_order_relaxed) && batch < due_ns->size()) {
      release_us.push_back(static_cast<double>(now - (*due_ns)[batch]) / 1e3);
      release_batch.push_back(batch);
    }
    history->Append(record);
    if (spans != nullptr)
      spans->Record(SpanName::kAppend, record.global_seq, now, WallNanos());
  }
};

/// The serving stack and its two clients, torn down in dependency order.
struct LiveStack {
  std::unique_ptr<history::HistoryService> history;
  std::unique_ptr<shard::ShardGroup> group;
  std::unique_ptr<shard::ShardServer> server;
  std::unique_ptr<shard::ShardedClient> generator;
  std::unique_ptr<net::IngestClient> operator_client;

  ~LiveStack() {
    generator.reset();
    operator_client.reset();
    if (server != nullptr) server->Stop();
    if (group != nullptr) group->Drain();
    server.reset();
    history.reset();
    group.reset();
  }
};

std::unique_ptr<LiveStack> BuildStack(const std::string& history_dir,
                                      const std::vector<std::int32_t>& ids,
                                      LiveProbe* probe, RunResult* result) {
  auto stack = std::make_unique<LiveStack>();
  stack->history = std::make_unique<history::HistoryService>(history_dir);
  result->Check(stack->history->Open().ok(), "history log opens");
  stack->group = std::make_unique<shard::ShardGroup>(GroupConfig());
  history::HistoryService* history = stack->history.get();
  history->AttachMetrics(stack->group->shard_service(0)->metrics());
  if (probe != nullptr) {
    probe->history = history;
    stack->group->set_history_callback(
        [probe](const history::HistoryRecord& r) { probe->OnRecord(r); });
  } else {
    stack->group->set_history_callback(
        [history](const history::HistoryRecord& r) { history->Append(r); });
  }
  stack->group->set_checkpoint_barrier([history] { return history->Flush(); });

  net::ServerConfig server_config;
  server_config.history = history;
  stack->server = std::make_unique<shard::ShardServer>(stack->group.get(), server_config);
  result->Check(stack->server->Start().ok(), "shard server starts");

  shard::ShardedClientConfig generator_config;
  generator_config.client.port = stack->server->port(0);
  generator_config.client.session_id = "generator";
  // Batches are cut by the tick, never by the client's buffer.
  generator_config.client.batch_frames = 1u << 16;
  stack->generator = std::make_unique<shard::ShardedClient>(generator_config);
  result->Check(stack->generator->Connect(ids).ok(), "generator connects");

  net::ClientConfig operator_config;
  operator_config.port = stack->server->port(0);
  operator_config.session_id = "operator";
  stack->operator_client = std::make_unique<net::IngestClient>(operator_config);
  result->Check(stack->operator_client->Connect({}).ok(), "operator connects");
  return stack;
}

void SleepUntilNanos(std::uint64_t deadline_ns) {
  const std::uint64_t now = WallNanos();
  if (now < deadline_ns)
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
}

/// The ranking RANK must return, computed from the reference records:
/// per vehicle the mean and max severity ratio over the whole log.
std::vector<history::RankEntry> ExpectedRanking(
    const std::map<std::int32_t, std::vector<history::HistoryRecord>>& records) {
  std::vector<history::RankEntry> entries;
  for (const auto& [vehicle, list] : records) {
    if (list.empty()) continue;
    history::RankEntry entry;
    entry.vehicle_id = vehicle;
    double sum = 0.0;
    for (const history::HistoryRecord& record : list) {
      const double ratio = record.threshold > 0.0 ? record.score / record.threshold
                                                  : record.score;
      ++entry.records;
      if (record.alarm) ++entry.alarms;
      sum += ratio;
      entry.max_ratio = std::max(entry.max_ratio, ratio);
      entry.last_ts = std::max(entry.last_ts, record.timestamp);
    }
    entry.mean_ratio = sum / static_cast<double>(entry.records);
    entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const history::RankEntry& a, const history::RankEntry& b) {
              if (a.mean_ratio != b.mean_ratio) return a.mean_ratio > b.mean_ratio;
              if (a.max_ratio != b.max_ratio) return a.max_ratio > b.max_ratio;
              return a.vehicle_id < b.vehicle_id;
            });
  if (entries.size() > kRankLimit) entries.resize(kRankLimit);
  return entries;
}

bool SameRanking(const std::vector<history::RankEntry>& a,
                 const std::vector<history::RankEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].vehicle_id != b[i].vehicle_id || a[i].records != b[i].records ||
        a[i].alarms != b[i].alarms || a[i].mean_ratio != b[i].mean_ratio ||
        a[i].max_ratio != b[i].max_ratio || a[i].last_ts != b[i].last_ts)
      return false;
  }
  return true;
}

/// Each batch's release quantile `q` over the samples it completed, taken
/// at kOverBatchesQuantile over the stream's batches: the latency of the
/// path in the batches the host disturbed least. A change that slows every
/// batch moves it; a stall that hits a few batches in ten moves the run's
/// p99 (logged), not this.
double BatchQuantile(const LiveProbe& probe, std::uint64_t batches, double q) {
  std::vector<std::vector<double>> per_batch(batches);
  for (std::size_t i = 0; i < probe.release_us.size(); ++i)
    per_batch[probe.release_batch[i]].push_back(probe.release_us[i]);
  std::vector<double> values;
  for (const std::vector<double>& batch : per_batch)
    if (batch.size() >= kMinBatchSamples) values.push_back(Quantile(batch, q));
  return Quantile(values, kOverBatchesQuantile);
}

}  // namespace

void RunLive(const RunSettings& settings, RunResult* result) {
  const FleetInputs inputs = MakeInputs(settings.seed, 365);
  const std::size_t vehicles = inputs.ids.size();
  const std::uint64_t tick_ns = kTickUs * 1000;
  const std::uint64_t batches = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(settings.seconds * 1e6) / kTickUs,
      inputs.stream.size() / kBatchFrames);
  const std::uint64_t frames = batches * kBatchFrames;
  Log("live: seed %llu, %llu frames in %llu batches of %llu every %llu us, %u shards",
      static_cast<unsigned long long>(settings.seed),
      static_cast<unsigned long long>(frames), static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(kBatchFrames),
      static_cast<unsigned long long>(kTickUs), kShards);

  const std::string root = settings.workdir + "/live";
  std::filesystem::create_directories(root);
  SpanLog spans;
  SpanLog* trace = settings.trace ? &spans : nullptr;
  std::vector<double> setup_s;
  const auto build = [&](const std::string& dir) {
    return BuildStack(dir, inputs.ids, nullptr, result);
  };
  TimeSetups(kSetupRepeats, root, build, &setup_s);

  // The benchmark's own buffers are sized before the heap baseline.
  std::vector<std::uint64_t> due_ns(batches);
  std::vector<double> late_us(batches);
  std::vector<std::uint32_t> shards_hit(batches);
  LiveProbe probe;
  probe.due_ns = &due_ns;
  probe.spans = trace;
  probe.release_us.reserve(frames / 8);
  probe.release_batch.reserve(frames / 8);
  DashboardTimes under_load;
  under_load.refresh_us.reserve(1024);
  under_load.scrape_us.reserve(1024);

  const std::string history_dir = root + "/history";
  const std::size_t heap_before = HeapInUseBytes();
  double t = WallSeconds();
  auto stack = BuildStack(history_dir, inputs.ids, &probe, result);
  setup_s.push_back(WallSeconds() - t);
  shard::ShardGroup& group = *stack->group;
  const shard::ShardMap map(stack->generator->shard_map_info().shard_count,
                            stack->generator->shard_map_info().hash_seed);

  const std::uint64_t start_ns = WallNanos() + 20'000'000;
  for (std::uint64_t b = 0; b < batches; ++b) due_ns[b] = start_ns + b * tick_ns;
  std::atomic<bool> stop_operator{false};
  std::vector<util::Status> refresh_status;
  std::thread operator_thread([&] {
    for (std::uint64_t k = 0;; ++k) {
      SleepUntilNanos(start_ns + k * kRefreshEveryUs * 1000);
      if (stop_operator.load()) break;
      refresh_status.push_back(RefreshDashboard(stack->operator_client.get(),
                                                stack->history.get(), /*scrape=*/false,
                                                trace, k, &under_load));
    }
  });

  SleepUntilNanos(start_ns);
  const double cpu0 = ProcessCpuSeconds();
  std::uint64_t send_failures = 0;
  util::Status send_status;
  for (std::uint64_t b = 0; b < batches; ++b) {
    SleepUntilNanos(due_ns[b]);
    late_us[b] = static_cast<double>(WallNanos() - due_ns[b]) / 1e3;
    std::uint32_t hit = 0;
    for (std::uint64_t i = b * kBatchFrames; i < (b + 1) * kBatchFrames; ++i) {
      const telemetry::SensorFrame& frame = inputs.stream[i];
      hit |= 1u << map.ShardOf(frame.vehicle_id());
      const util::Status status = stack->generator->Send(frame);
      if (!status.ok()) {
        ++send_failures;
        send_status = status;
      }
    }
    shards_hit[b] = static_cast<std::uint32_t>(__builtin_popcount(hit));
    const std::uint64_t flush_start = WallNanos();
    const util::Status status = stack->generator->Flush();
    if (!status.ok()) {
      ++send_failures;
      send_status = status;
    }
    if (trace != nullptr) trace->Record(SpanName::kFlush, b, flush_start, WallNanos());
  }
  while (group.stats().frames_processed < frames)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  const std::uint64_t end_ns = WallNanos();
  const double cpu1 = ProcessCpuSeconds();
  stop_operator.store(true);
  operator_thread.join();
  const double heap_kb =
      (static_cast<double>(HeapInUseBytes()) - static_cast<double>(heap_before)) / 1024.0;
  const obs::StatsSnapshot stats = group.FleetSnapshot();
  result->Count(frames, send_failures);
  if (!send_status.ok()) Log("generator send failed: %s", send_status.message().c_str());
  for (const util::Status& status : refresh_status)
    result->Attempt(status, "dashboard refresh under load");
  const double paced_s = static_cast<double>(end_ns - start_ns) / 1e9;

  DashboardTimes at_rest;
  const std::string checkpoint_dir = root + "/checkpoint";
  std::vector<double> checkpoint_ms;
  std::vector<double> restore_ms;
  for (int round = 0; round < kRestRounds; ++round) {
    const double refresh_start = WallSeconds();
    for (int i = 0;
         i < kMinRoundRefreshes || WallSeconds() - refresh_start < kRoundRefreshSeconds; ++i)
      result->Attempt(RefreshDashboard(stack->operator_client.get(), stack->history.get(),
                                       /*scrape=*/true, trace,
                                       under_load.refreshes + at_rest.refreshes, &at_rest),
                      "dashboard refresh");
    for (int i = 0; i < kRoundCheckpoints; ++i) {
      t = WallSeconds();
      const util::Status status = group.Checkpoint(checkpoint_dir);
      checkpoint_ms.push_back((WallSeconds() - t) * 1e3);
      result->Attempt(status, "fleet checkpoint");
    }
    for (int i = 0; i < kRoundCheckpoints; ++i) {
      std::unique_ptr<shard::ShardGroup> restored;
      t = WallSeconds();
      restored = std::make_unique<shard::ShardGroup>(GroupConfig());
      const util::Status status = restored->RestoreFromDir(checkpoint_dir);
      restore_ms.push_back((WallSeconds() - t) * 1e3);
      result->Attempt(status, "fleet restore");
    }
    TimeSetups(kRoundSetups, root, build, &setup_s);
  }
  const double checkpoint_kb =
      static_cast<double>(DirectoryBytes(checkpoint_dir)) / 1024.0;
  if (trace != nullptr) {
    std::vector<std::string> shard_snapshots;
    for (const auto& entry : std::filesystem::directory_iterator(checkpoint_dir))
      if (entry.path().filename().string().rfind("shard-", 0) == 0)
        shard_snapshots.push_back(entry.path().string());
    std::sort(shard_snapshots.begin(), shard_snapshots.end());
    TracePersist(shard_snapshots, root + "/rewrite", GroupConfig().service, vehicles,
                 result);
  }

  // Orderly end of stream, then the final readout over the wire.
  result->Check(stack->generator->Finish().ok(), "generator finishes");
  result->Check(stack->operator_client->Finish().ok(), "operator finishes");
  result->Check(stack->server->WaitForFinishedSessions(kShards + 1, 60000),
                "every session finishes");
  probe.streaming.store(false);
  group.Drain();
  history::RankQuery final_query;
  final_query.limit = kRankLimit;
  history::RankResult final_rank;
  result->Check(stack->operator_client->QueryRank(final_query, &final_rank).ok(),
                "final RANK over the wire");
  std::uint64_t admitted = 0, duplicates = 0, shed = 0, received = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const net::ServerStats server_stats = stack->server->server(static_cast<int>(s))->stats();
    admitted += server_stats.frames_admitted;
    duplicates += server_stats.duplicates_skipped;
    shed += server_stats.frames_shed;
    received += server_stats.frames_received;
  }
  if (trace != nullptr) {
    obs::StatsSnapshot merged;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      net::ClientConfig scrape_config;
      scrape_config.port = stack->server->port(static_cast<int>(s));
      net::IngestClient scraper(scrape_config);
      net::StatsMessage message;
      result->Check(scraper.QueryStats(&message).ok(), "STATS scrape of every shard");
      obs::MergeSnapshot(&merged, message.snapshot);
    }
    result->Set("net.bytes_per_frame",
                static_cast<double>(merged.CounterValue("server.session_bytes_in")) /
                    static_cast<double>(merged.CounterValue("server.frames_received")));
  }
  stack->server->Stop();
  const core::FleetRunResult run = group.TakeResult();
  result->Check(stack->history->Flush().ok() && stack->history->first_error().ok(),
                "history log flushes cleanly");
  std::vector<history::VehicleLogData> logs;
  result->Check(history::HistoryReader::ReadDir(history_dir, &logs).ok(),
                "history log reads back");
  std::vector<double> accepted_per_shard;
  for (std::uint32_t s = 0; s < kShards; ++s)
    accepted_per_shard.push_back(static_cast<double>(
        group.shard_service(static_cast<int>(s))->stats().frames_accepted));

  result->Set("frames_per_s", static_cast<double>(frames) / paced_s);
  result->Set("cpu_us_per_frame", (cpu1 - cpu0) * 1e6 / static_cast<double>(frames));
  result->Set("checkpoint_ms", Median(checkpoint_ms));
  result->Set("checkpoint_kb_per_vehicle", checkpoint_kb / static_cast<double>(vehicles));
  result->Set("restore_ms", Median(restore_ms));
  result->Set("heap_kb_per_vehicle", heap_kb / static_cast<double>(vehicles));
  result->Set("release_p50_us", BatchQuantile(probe, batches, 0.50));
  result->Set("release_p90_us", BatchQuantile(probe, batches, 0.90));
  result->Set("query_p50_us", Median(at_rest.refresh_us));
  Log("live: paced %.3f s for %.3f s of schedule; generator late p50 %.0f us, "
      "p99 %.0f us, max %.0f us; release p50 %.0f p90 %.0f p99 %.0f us over %zu samples; "
      "%llu refreshes under load (%llu with a COMOVE), p50 %.0f us, max %.0f us; "
      "%llu at rest, p50 %.0f us",
      paced_s, static_cast<double>(batches * kTickUs) / 1e6, Quantile(late_us, 0.5),
      Quantile(late_us, 0.99), Quantile(late_us, 1.0), Quantile(probe.release_us, 0.5),
      Quantile(probe.release_us, 0.9), Quantile(probe.release_us, 0.99),
      probe.release_us.size(), static_cast<unsigned long long>(under_load.refreshes),
      static_cast<unsigned long long>(under_load.comoves), Median(under_load.refresh_us),
      Quantile(under_load.refresh_us, 1.0), static_cast<unsigned long long>(at_rest.refreshes),
      Median(at_rest.refresh_us));

  // The reference: the same frames through one in-process, unsharded
  // service, its history records collected as emitted.
  std::map<std::int32_t, std::vector<history::HistoryRecord>> expected;
  core::FleetRunResult reference;
  {
    service::ServiceConfig config;
    config.runtime = runtime::RuntimeConfig{kCatchUpWorkers};
    service::FleetService reference_service(config);
    reference_service.set_history_callback(
        [&expected](const history::HistoryRecord& r) { expected[r.vehicle_id].push_back(r); });
    for (const std::int32_t id : inputs.ids) reference_service.RegisterVehicle(id);
    for (std::uint64_t i = 0; i < frames; ++i) reference_service.Submit(inputs.stream[i]);
    reference_service.Drain();
    reference = reference_service.TakeResult();
  }
  bool log_equal = true;
  std::uint64_t log_records = 0, expected_records = 0;
  std::map<std::int32_t, const std::vector<history::HistoryRecord>*> by_vehicle;
  for (const history::VehicleLogData& log : logs) {
    by_vehicle[log.vehicle_id] = &log.records;
    log_records += log.records.size();
  }
  for (const auto& [vehicle, list] : expected) {
    expected_records += list.size();
    const auto it = by_vehicle.find(vehicle);
    if (it == by_vehicle.end() || it->second->size() != list.size()) {
      log_equal = false;
      continue;
    }
    for (std::size_t i = 0; log_equal && i < list.size(); ++i)
      log_equal = SameRecord((*it->second)[i], list[i]);
  }
  result->Check(log_equal && log_records == expected_records && log_records > 0,
                "history log equals the unsharded in-process emission record for record");
  result->Check(SameRanking(final_rank.entries, ExpectedRanking(expected)),
                "final RANK equals the ranking computed from the records");
  result->Check(admitted == frames && received == frames && duplicates == 0 && shed == 0 &&
                    group.stats().frames_accepted == frames,
                "the server admitted every frame sent, exactly once");
  std::string why;
  result->Check(SameAlarmsPerVehicle(run.alarms, reference.alarms, &why),
                "fleet alarms equal the unsharded run's: " + why);
  stack.reset();
  result->Set("setup_s", Median(setup_s));
  Log("live: %zu setups, p10 %.0f p50 %.0f p90 %.0f us", setup_s.size(),
      Quantile(setup_s, 0.1) * 1e6, Median(setup_s) * 1e6, Quantile(setup_s, 0.9) * 1e6);
  Log("live: %zu checkpoints, p10 %.1f p50 %.1f p90 %.1f ms; restores p10 %.1f p50 %.1f "
      "p90 %.1f ms", checkpoint_ms.size(), Quantile(checkpoint_ms, 0.1), Median(checkpoint_ms),
      Quantile(checkpoint_ms, 0.9), Quantile(restore_ms, 0.1), Median(restore_ms),
      Quantile(restore_ms, 0.9));

  if (trace == nullptr) return;
  result->Set("runtime.tasks_per_frame",
              static_cast<double>(stats.CounterValue("pool.tasks_posted")) /
                  static_cast<double>(frames));
  result->Set("runtime.task_us_p50", HistogramQuantile(stats, "pool.task_us", 0.50));
  result->Set("runtime.task_us_p99", HistogramQuantile(stats, "pool.task_us", 0.99));
  result->Set("service.release_us_p50",
              HistogramQuantile(stats, "service.admission_to_release_us", 0.50));
  // The server, not the benchmark, calls the service's ingest here, and the
  // ensemble is off.
  result->Set("service.submit_us_p50", 0.0);
  result->Set("service.submit_us_p99", 0.0);
  result->Set("ensemble.retrains", 0.0);
  result->Set("ensemble.retrain_ms_p50", 0.0);
  const std::vector<double> flush_us = spans.DurationsUs(SpanName::kFlush);
  result->Set("net.flush_us_p50", Quantile(flush_us, 0.50));
  result->Set("net.flush_us_p90", Quantile(flush_us, 0.90));
  double messages = 0.0;
  for (const std::uint32_t hit : shards_hit) messages += hit;
  result->Set("net.frames_per_message", static_cast<double>(frames) / messages);
  double mean_accepted = 0.0;
  for (const double n : accepted_per_shard) mean_accepted += n;
  mean_accepted /= static_cast<double>(accepted_per_shard.size());
  result->Set("shard.frame_skew",
              *std::max_element(accepted_per_shard.begin(), accepted_per_shard.end()) /
                  mean_accepted);
  const std::vector<double> append_us = spans.DurationsUs(SpanName::kAppend);
  result->Set("history.append_us_p50", Quantile(append_us, 0.50));
  result->Set("history.append_us_p99", Quantile(append_us, 0.99));
  result->Set("history.bytes_per_record", static_cast<double>(DirectoryBytes(history_dir)) /
                                              static_cast<double>(log_records));
  result->Set("history.rank_us_p50", Median(at_rest.rank_us));
  result->Set("history.timeline_us_p50", Median(at_rest.timeline_us));
  result->Set("history.comove_us_p50", Median(at_rest.comove_us));
  result->Set("obs.scrape_us_p50", Median(at_rest.scrape_us));
  result->Set("obs.snapshot_kb", static_cast<double>(at_rest.snapshot_bytes) / 1024.0);
  double scored = 0.0;
  for (const auto& lane : run.scored_samples) scored += static_cast<double>(lane.size());
  result->Set("core.scored_samples_per_vehicle", scored / static_cast<double>(vehicles));

  t = WallSeconds();
  const CorePassResult core =
      RunTracedCorePass(inputs.stream, frames, inputs.ids, core::MonitorConfig(), &spans);
  Log("live: traced serial core pass %.2f s; an empty span reads %.1f ns and costs %.1f ns "
      "more outside", WallSeconds() - t, core.span_cost.inside_ns, core.span_cost.outside_ns);
  result->Check(SameAlarmsPerVehicle(core.alarms, reference.alarms, &why),
                "traced serial core pass alarms equal the service's: " + why);
  result->Set("core.self_us_per_frame", core.self_us_per_frame);
  result->Set("transform.us_per_record", core.transform_us_per_record);
  result->Set("detect.score_us_per_sample", core.score_us_per_sample);
  result->Set("detect.fit_ms_p50", core.fit_ms_p50);
  result->Set("detect.fits", static_cast<double>(core.fits));
  result->Check(spans.WriteTo(settings.workdir + "/../spans-live.tsv"), "span file written");
}

}  // namespace navarchos::perfbench
