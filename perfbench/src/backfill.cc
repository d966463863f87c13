// The closed-loop workload, backfill: a simulated year of the setting40
// fleet through the default pipeline (correlation + closest-pair). A pass
// replays the frames into one fresh in-process FleetService as fast as
// admission allows, checkpoints and restores the year-old state, and lets
// an operator refresh a dashboard over the wire against the history log
// the pass wrote. In a closed loop a frame falls due when it is offered,
// so release latency here is queue occupancy: how far results trail the
// backlog being fed in (in-flight frames over throughput), not service
// time. Passes repeat until the run's measuring time is used up, and every
// metric is the median over passes (or over all repeats of a short
// operation), because this host's speed drifts in phases of seconds.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/fleet_runner.h"
#include "dashboard.h"
#include "history/history_service.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "runtime/runtime_config.h"
#include "service/fleet_service.h"
#include "trace.h"
#include "workloads.h"

namespace navarchos::perfbench {
namespace {

constexpr int kDays = 365;
/// Stand-alone constructions timed for setup_s, before the first pass and
/// again after every pass, besides each pass's own: one build takes about
/// 0.3 ms and moves with the host, so setup_s is the median of many,
/// spread over the run.
constexpr int kSetupRepeats = 48;
constexpr int kMinPasses = 2;
constexpr int kCheckpointsPerPass = 3;
constexpr int kRestoresPerPass = 3;
/// Dashboard refreshes of a pass: back to back for this long, at least
/// kMinRefreshes of them.
constexpr double kRefreshSeconds = 0.5;
constexpr int kMinRefreshes = 4;
/// Length of the paper's best cell (XGBoost on correlation with the K=3,
/// M=2 rolling ensemble) in the traced run's second serial pass.
constexpr int kRefitDays = 30;

service::ServiceConfig ServiceConfig() {
  service::ServiceConfig config;
  config.runtime = runtime::RuntimeConfig{kCatchUpWorkers};
  return config;
}

/// State the service's callbacks write while a pass streams. The ordered
/// sink calls them one at a time, so plain fields suffice; `done` hands
/// the end of the stream to the ingest thread.
struct PassProbe {
  std::uint64_t frames = 0;
  const std::vector<std::uint64_t>* offered_ns = nullptr;  ///< Per frame.
  history::HistoryService* history = nullptr;
  SpanLog* spans = nullptr;

  std::uint64_t next_completion = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t completions = 0;
  /// False once the drain's end-of-stream flush records arrive.
  std::atomic<bool> streaming{true};
  std::vector<double> release_us;
  std::uint64_t records = 0;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;       ///< The last frame was released (under mu).
  double done_wall = 0.0;  ///< When it was released.
  double done_cpu = 0.0;

  void OnCompletion(const service::FrameCompletion& completion) {
    if (completion.global_seq != next_completion) ++order_violations;
    next_completion = completion.global_seq + 1;
    ++completions;
    if (completion.global_seq + 1 != frames) return;
    const double wall = WallSeconds();
    const double cpu = ProcessCpuSeconds();
    std::lock_guard<std::mutex> lock(mu);
    done_wall = wall;
    done_cpu = cpu;
    done = true;
    cv.notify_all();
  }

  void OnRecord(const history::HistoryRecord& record) {
    const std::uint64_t now = WallNanos();
    if (streaming.load(std::memory_order_relaxed))
      release_us.push_back(
          static_cast<double>(now - (*offered_ns)[record.global_seq]) / 1e3);
    ++records;
    history->Append(record);
    if (spans != nullptr)
      spans->Record(SpanName::kAppend, record.global_seq, now, WallNanos());
  }

  void WaitDone() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done; });
  }
};

/// A ready-to-ingest service: its history log is open, the callbacks are
/// installed and every vehicle is registered.
struct Stack {
  std::unique_ptr<history::HistoryService> history;
  std::unique_ptr<service::FleetService> service;

  /// Drains first, so the history callback never outlives its target.
  ~Stack() {
    if (service != nullptr) service->Drain();
    history.reset();
    service.reset();
  }
};

std::unique_ptr<Stack> BuildStack(const std::string& history_dir,
                                  const std::vector<std::int32_t>& ids,
                                  PassProbe* probe, RunResult* result) {
  auto stack = std::make_unique<Stack>();
  stack->history = std::make_unique<history::HistoryService>(history_dir);
  result->Check(stack->history->Open().ok(), "history log opens");
  stack->service = std::make_unique<service::FleetService>(ServiceConfig());
  history::HistoryService* history = stack->history.get();
  history->AttachMetrics(stack->service->metrics());
  stack->service->set_checkpoint_barrier([history] { return history->Flush(); });
  if (probe != nullptr) {
    probe->history = history;
    stack->service->set_completion_callback(
        [probe](const service::FrameCompletion& c) { probe->OnCompletion(c); });
    stack->service->set_history_callback(
        [probe](const history::HistoryRecord& r) { probe->OnRecord(r); });
  } else {
    stack->service->set_history_callback(
        [history](const history::HistoryRecord& r) { history->Append(r); });
  }
  for (const std::int32_t id : ids) stack->service->RegisterVehicle(id);
  return stack;
}

/// Collected over the passes of one run.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> frames_per_s;
  std::vector<double> cpu_us_per_frame;
  std::vector<double> heap_kb_per_vehicle;
  std::vector<double> checkpoint_ms;
  std::vector<double> restore_ms;
  std::vector<double> release_p50_us;
  std::vector<double> release_p90_us;
  double checkpoint_kb_per_vehicle = 0.0;
  double stream_seconds = 0.0;
  DashboardTimes dashboard;
};

void CheckAgainstReference(const core::FleetRunResult& run,
                           const core::FleetRunResult& reference,
                           const PassProbe& probe, RunResult* result) {
  std::string why;
  result->Check(SameAlarmsPerVehicle(run.alarms, reference.alarms, &why),
                "released alarms equal serial core::RunFleet's: " + why);
  bool samples_equal = run.scored_samples.size() == reference.scored_samples.size();
  bool quality_equal = run.quality.size() == reference.quality.size();
  std::uint64_t scored = 0;
  for (std::size_t v = 0; samples_equal && v < run.scored_samples.size(); ++v) {
    samples_equal = run.scored_samples[v].size() == reference.scored_samples[v].size();
    scored += run.scored_samples[v].size();
  }
  for (std::size_t v = 0; quality_equal && v < run.quality.size(); ++v)
    quality_equal = SameQuality(run.quality[v], reference.quality[v]);
  result->Check(samples_equal, "per-vehicle scored-sample counts equal serial core::RunFleet's");
  result->Check(quality_equal, "data-quality counters equal serial core::RunFleet's");
  result->Check(probe.completions == probe.frames && probe.order_violations == 0,
                "each completion arrives once, in strictly increasing global sequence");
  bool above = true;
  for (const core::Alarm& alarm : run.alarms) above = above && alarm.score > alarm.threshold;
  result->Check(above, "every alarm's score exceeds its threshold");
  result->Check(probe.records == scored, "one history record per scored sample");
}

/// The traced run's serial passes: the default pipeline over the year, and
/// the paper's best cell (XGBoost + K=3/M=2 ensemble) over kRefitDays,
/// which alone exercises tree fits and the rolling ensemble.
void TraceCorePasses(const FleetInputs& inputs, const core::FleetRunResult& reference,
                     std::uint64_t seed, SpanLog* spans, RunResult* result) {
  double t = WallSeconds();
  const CorePassResult core = RunTracedCorePass(inputs.stream, inputs.stream.size(),
                                                inputs.ids, core::MonitorConfig(), spans);
  Log("backfill: traced serial core pass %.2f s; an empty span reads %.1f ns and costs %.1f ns "
      "more outside", WallSeconds() - t, core.span_cost.inside_ns, core.span_cost.outside_ns);
  std::string why;
  result->Check(SameAlarmsPerVehicle(core.alarms, reference.alarms, &why),
                "traced serial core pass alarms equal core::RunFleet's: " + why);
  result->Set("core.self_us_per_frame", core.self_us_per_frame);
  result->Set("transform.us_per_record", core.transform_us_per_record);
  result->Set("detect.score_us_per_sample", core.score_us_per_sample);

  core::MonitorConfig refit;
  refit.detector = detect::DetectorKind::kXgBoost;
  refit.ensemble.enabled = true;
  refit.ensemble.k = 3;
  refit.ensemble.m = 2;
  const FleetInputs refit_inputs = MakeInputs(seed, kRefitDays);
  const core::FleetRunResult refit_reference = core::RunFleet(
      refit_inputs.fleet, refit, runtime::RuntimeConfig{kCatchUpWorkers});
  // Its spans stay out of the file: they would mix two pipelines' frames.
  SpanLog refit_spans;
  t = WallSeconds();
  const CorePassResult tree = RunTracedCorePass(refit_inputs.stream,
                                                refit_inputs.stream.size(),
                                                refit_inputs.ids, refit, &refit_spans);
  Log("backfill: traced serial XGBoost + ensemble pass %.2f s", WallSeconds() - t);
  result->Check(SameAlarmsPerVehicle(tree.alarms, refit_reference.alarms, &why),
                "traced XGBoost + ensemble pass alarms equal core::RunFleet's: " + why);
  result->Set("detect.fit_ms_p50", tree.fit_ms_p50);
  result->Set("detect.fits", static_cast<double>(tree.fits));
  result->Set("ensemble.retrains", static_cast<double>(tree.ensemble_retrains));
  result->Set("ensemble.retrain_ms_p50", tree.retrain_ms_p50);
}

}  // namespace

void RunBackfill(const RunSettings& settings, RunResult* result) {
  const FleetInputs inputs = MakeInputs(settings.seed, kDays);
  const std::uint64_t frames = inputs.stream.size();
  const std::size_t vehicles = inputs.ids.size();
  Log("backfill: seed %llu, %d days, %llu frames, %zu vehicles",
      static_cast<unsigned long long>(settings.seed), kDays,
      static_cast<unsigned long long>(frames), vehicles);

  double t = WallSeconds();
  const core::FleetRunResult reference =
      core::RunFleet(inputs.fleet, core::MonitorConfig(), runtime::RuntimeConfig::Serial());
  Log("backfill: reference serial core::RunFleet %.2f s, %zu alarms", WallSeconds() - t,
      reference.alarms.size());

  const std::string root = settings.workdir + "/backfill";
  std::filesystem::create_directories(root);
  Samples samples;
  SpanLog spans;
  SpanLog* trace = settings.trace ? &spans : nullptr;

  const auto build = [&](const std::string& dir) {
    return BuildStack(dir, inputs.ids, nullptr, result);
  };
  TimeSetups(kSetupRepeats, root, build, &samples.setup_s);

  // The benchmark's own buffers are sized before any heap baseline.
  std::uint64_t reference_scored = 0;
  for (const auto& lane : reference.scored_samples) reference_scored += lane.size();
  std::vector<std::uint64_t> offered_ns(frames);
  const int max_passes = settings.trace ? 1 : 64;
  const int min_passes = settings.trace ? 1 : kMinPasses;
  const std::string checkpoint = root + "/checkpoint.snap";
  for (int pass = 0; pass < max_passes; ++pass) {
    const std::string history_dir = root + "/history" + std::to_string(pass);
    PassProbe probe;
    probe.frames = frames;
    probe.offered_ns = &offered_ns;
    probe.spans = trace;
    probe.release_us.reserve(reference_scored);

    const std::size_t heap_before = HeapInUseBytes();
    const double pass_start = WallSeconds();
    auto stack = BuildStack(history_dir, inputs.ids, &probe, result);
    samples.setup_s.push_back(WallSeconds() - pass_start);
    service::FleetService& svc = *stack->service;

    const double wall0 = WallSeconds();
    const double cpu0 = ProcessCpuSeconds();
    std::uint64_t shed = 0;
    for (std::uint64_t i = 0; i < frames; ++i) {
      const std::uint64_t start = WallNanos();
      offered_ns[i] = start;
      if (!svc.Submit(inputs.stream[i])) ++shed;
      if (trace != nullptr) trace->Record(SpanName::kSubmit, i, start, WallNanos());
    }
    probe.WaitDone();
    const double wall = probe.done_wall - wall0;
    samples.stream_seconds += wall;
    samples.frames_per_s.push_back(static_cast<double>(frames) / wall);
    samples.cpu_us_per_frame.push_back((probe.done_cpu - cpu0) * 1e6 /
                                       static_cast<double>(frames));
    samples.release_p50_us.push_back(Quantile(probe.release_us, 0.50));
    samples.release_p90_us.push_back(Quantile(probe.release_us, 0.90));
    samples.heap_kb_per_vehicle.push_back(
        (static_cast<double>(HeapInUseBytes()) - static_cast<double>(heap_before)) /
        1024.0 / static_cast<double>(vehicles));
    result->Count(frames, shed);
    const obs::StatsSnapshot stats = svc.SnapshotStats();

    for (int i = 0; i < kCheckpointsPerPass; ++i) {
      t = WallSeconds();
      const util::Status status = svc.Checkpoint(checkpoint);
      samples.checkpoint_ms.push_back((WallSeconds() - t) * 1e3);
      result->Attempt(status, "checkpoint");
    }
    samples.checkpoint_kb_per_vehicle =
        static_cast<double>(std::filesystem::file_size(checkpoint)) / 1024.0 /
        static_cast<double>(vehicles);
    std::unique_ptr<service::FleetService> restored;
    for (int i = 0; i < kRestoresPerPass; ++i) {
      restored.reset();
      t = WallSeconds();
      restored = std::make_unique<service::FleetService>(ServiceConfig());
      const util::Status status = restored->RestoreFromFile(checkpoint);
      samples.restore_ms.push_back((WallSeconds() - t) * 1e3);
      result->Attempt(status, "restore");
    }
    // Restore-then-checkpoint must reproduce the file byte for byte.
    const std::string again = root + "/checkpoint-again.snap";
    result->Check(restored->Checkpoint(again).ok() &&
                      ReadFileBytes(again) == ReadFileBytes(checkpoint),
                  "restoring the checkpoint and checkpointing again is byte-identical");
    restored.reset();
    if (trace != nullptr)
      TracePersist({checkpoint}, root + "/rewrite", ServiceConfig(), vehicles, result);

    {
      net::ServerConfig server_config;
      server_config.history = stack->history.get();
      net::IngestServer server(&svc, server_config);
      result->Check(server.Start().ok(), "dashboard server starts");
      net::ClientConfig client_config;
      client_config.port = server.port();
      client_config.session_id = "operator";
      net::IngestClient operator_client(client_config);
      result->Check(operator_client.Connect({}).ok(), "operator connects");
      const double refresh_start = WallSeconds();
      for (int i = 0; i < kMinRefreshes || WallSeconds() - refresh_start < kRefreshSeconds;
           ++i) {
        result->Attempt(RefreshDashboard(&operator_client, stack->history.get(),
                                         /*scrape=*/true, trace, samples.dashboard.refreshes,
                                         &samples.dashboard),
                        "dashboard refresh");
      }
      result->Check(operator_client.Finish().ok(), "operator session finishes");
      server.Stop();
    }

    probe.streaming.store(false);
    svc.Drain();
    const core::FleetRunResult run = svc.TakeResult();
    result->Check(stack->history->Flush().ok() && stack->history->first_error().ok(),
                  "history log flushes cleanly");
    CheckAgainstReference(run, reference, probe, result);

    if (trace != nullptr) {
      result->Set("runtime.tasks_per_frame",
                  static_cast<double>(stats.CounterValue("pool.tasks_posted")) /
                      static_cast<double>(frames));
      result->Set("runtime.task_us_p50", HistogramQuantile(stats, "pool.task_us", 0.50));
      result->Set("runtime.task_us_p99", HistogramQuantile(stats, "pool.task_us", 0.99));
      result->Set("service.release_us_p50",
                  HistogramQuantile(stats, "service.admission_to_release_us", 0.50));
      double scored = 0.0;
      for (const auto& lane : run.scored_samples) scored += static_cast<double>(lane.size());
      result->Set("core.scored_samples_per_vehicle", scored / static_cast<double>(vehicles));
      result->Set("history.bytes_per_record",
                  static_cast<double>(DirectoryBytes(history_dir)) /
                      static_cast<double>(probe.records));
    }
    Log("backfill: pass %d: %.0f frames/s, %.2f us cpu/frame, setup %.3f ms, "
        "checkpoint %.1f ms, restore %.1f ms, release p50 %.0f p90 %.0f us",
        pass, samples.frames_per_s.back(), samples.cpu_us_per_frame.back(),
        samples.setup_s.back() * 1e3, samples.checkpoint_ms.back(),
        samples.restore_ms.back(), samples.release_p50_us.back(),
        samples.release_p90_us.back());
    stack.reset();
    std::filesystem::remove_all(history_dir);
    TimeSetups(kSetupRepeats, root, build, &samples.setup_s);
    if (pass + 1 >= min_passes && samples.stream_seconds >= settings.seconds) break;
  }

  result->Set("setup_s", Median(samples.setup_s));
  Log("backfill: %zu setups, p10 %.0f p50 %.0f p90 %.0f us", samples.setup_s.size(),
      Quantile(samples.setup_s, 0.1) * 1e6, Median(samples.setup_s) * 1e6,
      Quantile(samples.setup_s, 0.9) * 1e6);
  result->Set("frames_per_s", Median(samples.frames_per_s));
  result->Set("cpu_us_per_frame", Median(samples.cpu_us_per_frame));
  result->Set("checkpoint_ms", Median(samples.checkpoint_ms));
  result->Set("checkpoint_kb_per_vehicle", samples.checkpoint_kb_per_vehicle);
  result->Set("restore_ms", Median(samples.restore_ms));
  result->Set("heap_kb_per_vehicle", Median(samples.heap_kb_per_vehicle));
  result->Set("release_p50_us", Median(samples.release_p50_us));
  result->Set("release_p90_us", Median(samples.release_p90_us));
  result->Set("query_p50_us", Median(samples.dashboard.refresh_us));
  Log("backfill: %llu refreshes (%llu with a COMOVE)",
      static_cast<unsigned long long>(samples.dashboard.refreshes),
      static_cast<unsigned long long>(samples.dashboard.comoves));

  if (trace == nullptr) return;
  const DashboardTimes& dashboard = samples.dashboard;
  const std::vector<double> append_us = spans.DurationsUs(SpanName::kAppend);
  result->Set("history.append_us_p50", Quantile(append_us, 0.50));
  result->Set("history.append_us_p99", Quantile(append_us, 0.99));
  result->Set("history.rank_us_p50", Median(dashboard.rank_us));
  result->Set("history.timeline_us_p50", Median(dashboard.timeline_us));
  result->Set("history.comove_us_p50", Median(dashboard.comove_us));
  result->Set("obs.scrape_us_p50", Median(dashboard.scrape_us));
  result->Set("obs.snapshot_kb", static_cast<double>(dashboard.snapshot_bytes) / 1024.0);
  const std::vector<double> submit_us = spans.DurationsUs(SpanName::kSubmit);
  result->Set("service.submit_us_p50", Quantile(submit_us, 0.50));
  result->Set("service.submit_us_p99", Quantile(submit_us, 0.99));
  // Frames never cross the wire here, and one in-process service is one
  // shard.
  result->Set("net.flush_us_p50", 0.0);
  result->Set("net.flush_us_p90", 0.0);
  result->Set("net.bytes_per_frame", 0.0);
  result->Set("net.frames_per_message", 0.0);
  result->Set("shard.frame_skew", 1.0);
  TraceCorePasses(inputs, reference, settings.seed, &spans, result);
  result->Check(spans.WriteTo(settings.workdir + "/../spans-backfill.tsv"),
                "span file written");
}

}  // namespace navarchos::perfbench
