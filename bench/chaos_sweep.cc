// Chaos sweep: the ingest front end under scripted transport hostility.
//
// Streams the interleaved setting40 feed through the self-healing
// net::IngestClient -> loopback TCP -> hardened net::IngestServer ->
// service::FleetService while a seeded corpus of FaultScripts (resets at
// exact byte offsets, short-read/short-write regimes, EINTR storms,
// stalls) is executed against successive server-side connections. Worker
// thread counts {1, 4}. Two invariants gate the exit code:
//
//   1. exactly-once: every frame of the stream admitted exactly once
//      (no duplicates, no sheds, no NACKs) despite every fault;
//   2. bit-identical: the served run fingerprints equal the in-process
//      replay of the same stream, at both thread counts.
//
// The sweep reports wall time, healing reconnects and injected-fault
// counts per pass and writes BENCH_chaos.json; the top-level
// "fingerprint" field lets a soak harness diff repeated runs byte-free.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "net/fault_injection.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "service/fleet_service.h"
#include "telemetry/stream.h"
#include "util/timer.h"

namespace navarchos {
namespace {

struct Measurement {
  int threads = 0;
  int schedule = 0;
  std::string script;
  double seconds = 0.0;
  double frames_per_sec = 0.0;
  int faults_injected = 0;
  int reconnects = 0;
  bool exactly_once = false;
  std::uint64_t fingerprint = 0;
};

service::ServiceConfig ServiceConfigWith(int threads,
                                         const core::MonitorConfig& monitor) {
  service::ServiceConfig config;
  config.monitor = monitor;
  config.runtime = runtime::RuntimeConfig{threads};
  return config;
}

/// One chaos pass: the full stream served through FaultySocket-wrapped
/// connections executing `scripts` (connection n runs script n; later
/// connections are clean, so the pass terminates). Any client-surfaced
/// error leaves the measurement with exactly_once == false.
Measurement MeasureAt(int threads, int schedule,
                      const std::vector<telemetry::SensorFrame>& stream,
                      const std::vector<std::int32_t>& ids,
                      const core::MonitorConfig& monitor,
                      const std::vector<net::FaultScript>& scripts) {
  Measurement m;
  m.threads = threads;
  m.schedule = schedule;
  m.script = scripts.empty() ? "clean" : scripts.front().Describe();

  service::FleetService svc(ServiceConfigWith(threads, monitor));
  net::FaultInjector injector(scripts);

  net::ServerConfig server_config;
  server_config.transport_factory = injector.Factory();
  // Reap half-open peers before the client's op deadline heals, so the
  // resume HELLO always finds its session unbound.
  server_config.idle_timeout_ms = 250;
  net::IngestServer server(&svc, server_config);
  if (!server.Start().ok()) return m;

  net::ClientConfig client_config;
  client_config.port = server.port();
  client_config.session_id = "chaos-sweep";
  client_config.batch_frames = 64;
  client_config.backoff_ms = 1;
  client_config.max_backoff_ms = 8;
  client_config.jitter_seed = 7;
  client_config.connect_timeout_ms = 5000;
  client_config.op_deadline_ms = 1000;
  client_config.connect_attempts = static_cast<int>(scripts.size()) + 8;
  client_config.max_reconnects = static_cast<int>(scripts.size()) + 8;

  net::IngestClient client(client_config);
  util::Timer timer;
  bool clean = client.Connect(ids).ok();
  for (std::size_t i = client.next_seq(); clean && i < stream.size(); ++i)
    clean = client.Send(stream[i]).ok();
  clean = clean && client.Finish().ok();
  clean = clean && server.WaitForFinishedSessions(1, 120000);
  server.Stop();
  svc.Drain();
  m.seconds = timer.ElapsedSeconds();
  m.frames_per_sec =
      m.seconds > 0 ? static_cast<double>(stream.size()) / m.seconds : 0.0;

  const net::ServerStats stats = server.stats();
  m.faults_injected = static_cast<int>(injector.manifest().Total());
  m.reconnects = static_cast<int>(client.stats().reconnects);
  m.exactly_once = clean && stats.frames_admitted == stream.size() &&
                   stats.duplicates_skipped == 0 && stats.frames_shed == 0 &&
                   client.nacks().empty();
  m.fingerprint = bench::RunFingerprint(svc.TakeResult());
  return m;
}

int Main(int argc, char** argv) {
  const util::Args args(argc, argv);
  auto options = bench::BenchOptions::FromArgs(args);
  // One full stop-and-wait pass per (thread count, schedule): default to a
  // reduced fleet slice so the sweep stays in bench territory. --days
  // overrides; --schedules sizes the fault corpus.
  if (!args.Has("days")) options.days = 10;
  const int schedules = static_cast<int>(args.GetInt("schedules", 12));
  bench::PrintHeader("Chaos sweep - exactly-once admission and bit-identical "
                     "results under scripted transport faults", options);

  const auto fleet = bench::MakeSetting40(options);
  const auto stream = telemetry::InterleaveFleetStream(fleet);
  const auto ids = service::VehicleIdsOf(fleet);
  core::MonitorConfig monitor;
  const int hardware = runtime::RuntimeConfig::AllCores().ResolveThreads();
  const auto scripts = net::SeededFaultScripts(options.seed, schedules);
  std::printf("frames: %zu   vehicles: %zu   fault schedules: %d   "
              "hardware threads: %d\n\n",
              stream.size(), ids.size(), schedules, hardware);

  // Every chaos pass must reproduce the in-process run bit-for-bit.
  const std::uint64_t reference = bench::RunFingerprint(service::RunStream(
      stream, ids, ServiceConfigWith(1, monitor)));

  // One pass per (thread count, schedule): a schedule without a scripted
  // reset holds its connection until the stream ends, so batching the whole
  // corpus into one pass would leave every script after the first
  // unexercised. Sweeping them individually runs each hostile regime over
  // the full stream.
  std::vector<Measurement> measurements;
  for (int threads : {1, 4}) {
    for (int s = 0; s < schedules; ++s) {
      const Measurement m =
          MeasureAt(threads, s, stream, ids, monitor, {scripts[s]});
      std::printf("threads=%d schedule=%-2d %-28s %6.2fs   %8.0f frames/s   "
                  "faults %4d   reconnects %2d   exactly-once %s   %s\n",
                  m.threads, m.schedule, m.script.c_str(), m.seconds,
                  m.frames_per_sec, m.faults_injected, m.reconnects,
                  m.exactly_once ? "yes" : "NO",
                  m.fingerprint == reference ? "IDENTICAL" : "MISMATCH");
      std::fflush(stdout);
      measurements.push_back(m);
    }
  }

  bool identical = true;
  bool exactly_once = true;
  for (const auto& m : measurements) {
    identical = identical && m.fingerprint == reference;
    exactly_once = exactly_once && m.exactly_once;
  }
  std::printf("\nchaos vs in-process: %s   exactly-once admission: %s\n",
              identical ? "IDENTICAL" : "MISMATCH",
              exactly_once ? "HELD" : "VIOLATED");

  std::FILE* json = std::fopen("BENCH_chaos.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_chaos.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"chaos_sweep\",\n");
  bench::WriteBuildMetadata(json);
  std::fprintf(json, "  \"days\": %d,\n  \"seed\": %" PRIu64 ",\n",
               options.days, options.seed);
  std::fprintf(json, "  \"threads\": %d,\n", options.threads);
  std::fprintf(json, "  \"hardware_concurrency\": %d,\n", hardware);
  std::fprintf(json, "  \"frames\": %zu,\n", stream.size());
  std::fprintf(json, "  \"schedules\": %d,\n", schedules);
  std::fprintf(json, "  \"fingerprint\": \"%016" PRIx64 "\",\n", reference);
  std::fprintf(json, "  \"chaos_equals_in_process\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(json, "  \"exactly_once\": %s,\n",
               exactly_once ? "true" : "false");
  std::fprintf(json, "  \"results\": [\n");
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"schedule\": %d, \"script\": \"%s\", "
                 "\"seconds\": %.3f, \"frames_per_sec\": %.1f, "
                 "\"faults_injected\": %d, \"reconnects\": %d}%s\n",
                 m.threads, m.schedule, m.script.c_str(), m.seconds,
                 m.frames_per_sec, m.faults_injected, m.reconnects,
                 i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("measurements written to BENCH_chaos.json\n");
  return identical && exactly_once ? 0 : 1;
}

}  // namespace
}  // namespace navarchos

int main(int argc, char** argv) { return navarchos::Main(argc, argv); }
