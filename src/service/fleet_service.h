// Streaming fleet service: live, multiplexed monitoring of many vehicles.
//
// The batch runner (core::RunFleet) consumes pre-materialised per-vehicle
// histories; a deployed fleet platform instead sees one interleaved feed of
// SensorFrames from all vehicles at once. FleetService is that serving
// layer: each submitted frame is routed to a bounded per-vehicle ingest
// queue (backpressure instead of unbounded buffering), per-vehicle pump
// tasks on a shared runtime::ThreadPool step the vehicle's VehicleMonitor
// frame by frame, and alarms leave through an ordered sink that restores
// one deterministic total order.
//
// Determinism contract (the replay-equals-live invariant): for a given
// submission sequence, the service's complete output - alarms in order,
// scored samples, calibrations, DataQualityReports - is bit-identical at
// any worker thread count, and bit-identical between a live run and any
// later replay of the same recorded stream. Three conventions make this
// hold, mirroring the batch runtime:
//   * per-vehicle FIFO lanes: a vehicle's frames are processed in
//     submission order by exactly one pump at a time, so each monitor sees
//     the same sequence a serial run would feed it;
//   * index-aligned slots: per-vehicle results live in the lane's own
//     state and are collected in registration order after the drain
//     barrier, never in completion order;
//   * sequence numbers: every accepted frame takes a global ingest
//     sequence number (and a per-vehicle one), and the ordered sink
//     releases alarms in contiguous global-sequence order - a total-order
//     merge that no worker interleaving can perturb.
#ifndef NAVARCHOS_SERVICE_FLEET_SERVICE_H_
#define NAVARCHOS_SERVICE_FLEET_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/fleet_runner.h"
#include "core/monitor.h"
#include "history/history_log.h"
#include "obs/metrics.h"
#include "persist/snapshot.h"
#include "runtime/bounded_queue.h"
#include "runtime/runtime_config.h"
#include "runtime/thread_pool.h"
#include "service/ordered_sink.h"
#include "telemetry/stream.h"
#include "util/status.h"

/// \file
/// \brief FleetService, the streaming serving layer: per-vehicle bounded
/// ingest queues, monitor pumps on a shared thread pool, and a
/// deterministic ordered alarm sink (replay equals live at any thread
/// count).

/// \namespace navarchos::service
/// \brief The streaming serving layer: FleetService and its stream-replay
/// helpers, turning the batch monitoring core into a live multi-vehicle
/// service with deterministic (replay-equals-live) output.

namespace navarchos::service {

/// What Submit does when a vehicle's ingest queue is full.
enum class BackpressurePolicy : int {
  /// Block the submitting thread until the pump frees space. Lossless:
  /// required for the replay-equals-live determinism guarantee.
  kBlock = 0,
  /// Refuse the frame immediately (Submit returns false and the frame is
  /// counted in ServiceStats::frames_rejected). Load-shedding mode for
  /// ingest paths that must never stall; which frames are shed depends on
  /// timing, so rejected runs are NOT replay-deterministic.
  kReject = 1,
};

/// Configuration of a streaming fleet service.
struct ServiceConfig {
  /// Monitor pipeline instantiated per vehicle (one VehicleMonitor each).
  core::MonitorConfig monitor;
  /// Worker threads of the shared monitor pool (0 = all hardware threads).
  /// Results are bit-identical at any value; only wall-clock changes.
  runtime::RuntimeConfig runtime;
  /// Frames buffered per vehicle before backpressure engages.
  std::size_t queue_capacity = 256;
  /// Full-queue behaviour; see BackpressurePolicy.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Frames a pump task processes before rescheduling itself, so one
  /// flooded vehicle cannot monopolise a worker while others wait.
  std::size_t pump_batch = 64;
  /// Contributing score channels recorded per history entry (worst first)
  /// when a history callback is installed; see set_history_callback.
  std::size_t history_top_k = 4;
};

/// Counters of one service run. Totals are exact after Drain().
///
/// Reset semantics: counters survive Drain() (a drained service still
/// reports its lifetime totals) and are zeroed only by constructing a
/// fresh service; RestoreFrom reinstates the checkpointed values. The
/// values are views over the service's obs::MetricsRegistry (see
/// FleetService::metrics()), which is the single source of truth.
struct ServiceStats {
  std::size_t frames_submitted = 0;  ///< All frames offered to Submit.
  std::size_t frames_accepted = 0;   ///< Admitted to an ingest queue.
  std::size_t frames_rejected = 0;   ///< Shed by the kReject policy.
  std::size_t frames_processed = 0;  ///< Stepped through a monitor.
  /// Released by the ordered sink the service releases through (on a
  /// shard of a group, the group's sink: a fleet-wide count).
  std::size_t alarms_emitted = 0;
  /// Ensemble member fits posted (or run inline), fleet-wide. All four
  /// ensemble counters stay zero while the ensemble is disabled.
  std::uint64_t retrains_started = 0;
  std::uint64_t retrains_completed = 0;  ///< Members swapped in successfully.
  std::uint64_t retrains_failed = 0;     ///< Fits that failed; member kept.
  /// Alarm candidates vetoed by the M-of-K consensus vote.
  std::uint64_t consensus_suppressed_alarms = 0;
};

/// Outcome class of one frame's admission decision.
enum class AdmissionCode : int {
  kAccepted = 0,      ///< Admitted to its lane; sequence numbers assigned.
  kShedQueueFull = 1, ///< Shed: the lane was full under the kReject policy.
  kShedDraining = 2,  ///< Shed: the service was already draining/drained.
};

/// Per-frame admission result of Ingest: every shed frame is attributable
/// (which vehicle, which per-vehicle slot, why), and every accepted frame
/// carries the sequence numbers under which its completion and alarms will
/// later be released - the hook a network front end needs to ACK/NACK
/// frames by sequence number.
struct Admission {
  AdmissionCode code = AdmissionCode::kShedDraining;  ///< Decision.
  /// Global ingest sequence number (valid only when accepted).
  std::uint64_t global_seq = 0;
  /// Per-vehicle sequence number the frame took (accepted) or would have
  /// taken (shed): the lane-local slot the decision is attributable to.
  std::uint64_t vehicle_seq = 0;
  /// Vehicle the frame belonged to.
  std::int32_t vehicle_id = 0;
  /// Lane index of the vehicle (-1 when the frame was shed before routing,
  /// i.e. while draining).
  int lane = -1;

  /// True when the frame was admitted.
  bool accepted() const { return code == AdmissionCode::kAccepted; }
};

/// The streaming fleet service. Typical lifecycle:
///
/// \code
///   FleetService svc(config);
///   for (auto id : vehicle_ids) svc.RegisterVehicle(id);
///   while (feed.Next(&frame)) svc.Submit(frame);   // live ingest
///   svc.Drain();                                   // graceful shutdown
///   core::FleetRunResult result = svc.TakeResult();
/// \endcode
///
/// Threading: Submit/RegisterVehicle are serialised internally and may be
/// called from any thread, but the deterministic-output guarantee is
/// defined over the admission order, so a replayable deployment uses one
/// ingest thread (multiplexing upstream), as real telemetry gateways do.
/// Drain() must be called by an ingest thread, never from a callback.
class FleetService {
 public:
  /// Builds a standalone service: it starts its own worker pool (sized by
  /// `config.runtime`) and releases through its own ordered sink, keyed by
  /// its global ingest seq.
  explicit FleetService(const ServiceConfig& config);

  /// Builds one shard of a group (src/shard): pump tasks run on the
  /// borrowed `pool` and completions release through the borrowed `sink`,
  /// keyed by the fleet seqs passed to Ingest, so N shards share one pool
  /// and one total order. Both must outlive the service, and their owner
  /// attaches their metrics; `config.runtime` is unused. WaitIdle on the
  /// pool quiesces every shard at once - the group's drain and checkpoint
  /// barrier.
  FleetService(const ServiceConfig& config, runtime::ThreadPool* pool,
               OrderedSink* sink);

  /// Drains (if Drain was not called) and stops the workers.
  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Creates the vehicle's monitor and ingest lane; returns the lane index
  /// (the vehicle's slot in TakeResult()'s index-aligned vectors).
  /// Registering an already-known vehicle returns its existing lane.
  /// Registering while draining is a programming error (CHECK); callers
  /// that cannot rule it out use TryRegisterVehicle.
  int RegisterVehicle(std::int32_t vehicle_id);

  /// RegisterVehicle for callers racing Drain(): refuses with an error
  /// status instead of aborting when the service is draining. On success
  /// writes the lane index to `lane_out` (when non-null). Network front
  /// ends use this so a client connecting during shutdown gets a clean
  /// protocol error, not a server crash.
  util::Status TryRegisterVehicle(std::int32_t vehicle_id,
                                  int* lane_out = nullptr);

  /// Submits one live frame, routing it to its vehicle's lane (unknown
  /// vehicles are auto-registered in first-seen order). Returns true when
  /// the frame was admitted; false when it was shed (kReject policy with a
  /// full lane) or the service is already draining. Under kBlock a full
  /// lane makes Submit wait for the pump - that stall is the backpressure.
  /// Equivalent to Ingest(frame).accepted().
  bool Submit(const telemetry::SensorFrame& frame);

  /// Submit with a full per-frame admission result: the decision, the
  /// sequence numbers an accepted frame was tagged with, and - for shed
  /// frames - which vehicle slot the shed is attributable to. Network
  /// front ends use this to ACK accepted frames and NACK sheds by
  /// sequence number instead of collapsing the outcome to a bool.
  Admission Ingest(const telemetry::SensorFrame& frame);

  /// Ingest under a caller-assigned release sequence number: the fleet seq
  /// a shard's group (or a sharded wire client) gave the frame. An
  /// admitted frame releases under `fleet_seq`; a shed one fills it with
  /// OrderedSink::Skip, so the release never waits for it. Each fleet seq
  /// is ingested once.
  Admission Ingest(const telemetry::SensorFrame& frame, std::uint64_t fleet_seq);

  /// Graceful shutdown: Close(), wait until every admitted frame has been
  /// processed and its alarms released, then flush each lane not yet
  /// flushed (FlushLane), in lane order. Idempotent. After Drain the
  /// service is quiescent: stats() are final and TakeResult() may be
  /// called.
  void Drain();

  /// First step of Drain: refuses further submissions and closes every
  /// lane (pumps still finish what the lanes hold). Idempotent.
  void Close();

  /// Flushes lane `lane`'s monitor reorder buffer through the sink, with
  /// its history records attributed to the lane's last released seq; a
  /// lane is flushed once. Legal after Close() once the pool is idle. A
  /// group drains its shards this way, flushing every lane in fleet
  /// registration order before it calls each shard's Drain().
  void FlushLane(int lane);

  /// Moves the accumulated run result out of the service: alarms in the
  /// deterministic total order, plus per-vehicle scored samples,
  /// calibrations and DataQualityReports index-aligned with lane
  /// registration order - the same shape core::RunFleet returns, so batch
  /// and streaming runs are directly comparable. Requires Drain() first.
  core::FleetRunResult TakeResult();

  /// Run counters; exact once Drain() returned.
  ServiceStats stats() const;

  /// Sampling period of the admission-to-release latency histogram: one
  /// frame in every kLatencySamplePeriod (by global ingest sequence) is
  /// timestamped at admission and recorded at release. Sampling keeps the
  /// two clock reads off the per-frame hot path; the sampled *set* is a
  /// pure function of the global sequence, so which frames carry a
  /// timestamp is deterministic even though the recorded durations are
  /// wall-clock. The histogram remains observe-only either way.
  static constexpr std::uint64_t kLatencySamplePeriod = 16;

  /// The service's metrics registry: every layer wired to this service
  /// (ingest, sink, pool, ensemble, server front end, history) registers
  /// its counters/gauges/histograms here. Observe-only by contract -
  /// nothing in the service reads a metric to make a decision, so
  /// enabling observability cannot perturb the deterministic output.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Point-in-time snapshot of every registered metric. Refreshes the
  /// derived ensemble counters (summed from the per-lane atomics) first,
  /// then snapshots the registry. Callable any time; the numbers are a
  /// consistent final total once the service is quiescent (drained, or
  /// between Submit calls with the pool idle).
  obs::StatsSnapshot SnapshotStats();

  /// Installs a live alarm observer. Must be set before the first Submit.
  void set_alarm_callback(AlarmCallback callback);

  /// Installs a per-frame completion observer. Must be set before the
  /// first Submit.
  void set_completion_callback(CompletionCallback callback);

  /// Installs the anomaly-history observer: one history::HistoryRecord per
  /// scored sample (score/threshold of the worst channel, the alarm bit,
  /// and the config's history_top_k worst channel indices), delivered in
  /// the ordered sink's deterministic total order. Must be set before the
  /// first Submit. Record construction is skipped entirely when no
  /// callback is installed.
  void set_history_callback(HistoryCallback callback);

  /// Installs a barrier run inside every Checkpoint after the quiesce
  /// (WaitIdle) and before the snapshot is written - with ingest blocked
  /// and every released record already delivered to the callbacks. The
  /// intended use is flushing an attached history log so a checkpoint
  /// never claims coverage the log has not made durable: after a crash,
  /// the log provably holds every record below the checkpoint, and the
  /// restore's replay re-emits only what followed (duplicates are skipped
  /// by the writer's cursor). A failing barrier fails the Checkpoint
  /// without writing the snapshot. Must be set before the first Submit.
  void set_checkpoint_barrier(std::function<util::Status()> barrier);

  /// Number of registered vehicles (lanes).
  std::size_t vehicle_count() const;

  /// Total encoded bytes of every lane's rolling-ensemble state (the
  /// bytes/vehicle memory metric; 0 when the ensemble is disabled). Only
  /// valid while the service is quiescent - drained, or between Submit
  /// calls with the pool idle - because it serialises each lane's ensemble.
  std::size_t ensemble_state_bytes() const;

  /// Durable checkpoint: blocks new submissions, waits until every admitted
  /// frame has been processed and released (WaitIdle barrier), writes a
  /// snapshot of the complete service state to `path` atomically, then
  /// resumes ingest. The stream may continue afterwards - a later restore
  /// from this snapshot replays the remaining frames bit-identically to the
  /// uninterrupted run at any thread count. Fails while draining/drained.
  util::Status Checkpoint(const std::string& path);

  /// Restores a checkpoint into this service. Only legal on a fresh service
  /// (no registrations or submissions yet) built with the same monitor
  /// configuration as the checkpointing one; lanes are recreated in their
  /// registration order and every monitor, sequence counter and released
  /// alarm is reinstated. On error the service must be discarded.
  util::Status RestoreFrom(const persist::Snapshot& snapshot);

  /// Reads `path` and delegates to RestoreFrom.
  util::Status RestoreFromFile(const std::string& path);

  /// Copy of the alarms released by the ordered sink so far (total order;
  /// on a shard, the group's). Stable only while quiescent (after Drain,
  /// after a restore, or inside no ingest); used to re-emit alarm logs
  /// after a restore.
  std::vector<core::Alarm> released_alarms() const;

 private:
  /// A frame admitted to a lane, tagged with its sequence numbers.
  struct TaggedFrame {
    /// The seq the frame releases under: its global ingest seq, or the
    /// fleet seq given to Ingest.
    std::uint64_t release_seq = 0;
    std::uint64_t vehicle_seq = 0;
    /// Admission time (obs::MonotonicMicros), consumed by the sink's
    /// admission-to-release latency histogram. Stamped only for sampled
    /// frames (release_seq % kLatencySamplePeriod == 0); 0 = unsampled.
    /// Observe-only.
    std::uint64_t admit_us = 0;
    telemetry::SensorFrame frame;
  };

  /// One vehicle's ingest lane: its queue, monitor and pump-schedule flag.
  struct VehicleLane {
    VehicleLane(std::int32_t id, const core::MonitorConfig& config,
                std::size_t capacity)
        : vehicle_id(id), monitor(id, config), queue(capacity) {}

    const std::int32_t vehicle_id;
    core::VehicleMonitor monitor;  ///< Touched only by the lane's active pump.
    runtime::BoundedQueue<TaggedFrame> queue;
    std::mutex pump_mu;            ///< Guards pump_scheduled.
    bool pump_scheduled = false;   ///< A pump task is queued or running.
    std::uint64_t next_vehicle_seq = 0;  ///< Producer side (under ingest_mu_).
    /// High-water mark of this lane's queue depth
    /// (`service.lane.v<id>.depth_peak`), probed on sampled admissions
    /// (1 in kLatencySamplePeriod), so the mark is conservative.
    obs::Gauge* depth_peak = nullptr;
    /// Scored samples already turned into history records (pump-owned).
    std::size_t history_cursor = 0;
    /// Release seq of the lane's last pumped frame (on a shard, a fleet
    /// seq): the seq end-of-stream flush records are attributed to.
    /// Persisted in checkpoints so a restored run attributes its flush
    /// records identically.
    std::uint64_t last_global_seq = 0;
    bool flushed = false;  ///< FlushLane ran (under ingest_mu_).
  };

  /// Returns the lane of `vehicle_id`, creating it if needed. Caller must
  /// hold ingest_mu_.
  VehicleLane* LaneOfLocked(std::int32_t vehicle_id);

  /// Ensures a pump task is scheduled for `lane` (at most one at a time).
  void SchedulePumpLocked(VehicleLane* lane);

  /// Pump body: steps up to pump_batch frames of `lane` through its
  /// monitor, deposits their completions into the sink in one batch, then
  /// reschedules itself if the lane is still non-empty.
  void PumpLane(VehicleLane* lane);

  /// Admission under ingest_mu_: the frame releases under `fleet_seq`
  /// when given, else under the next global ingest seq.
  Admission Admit(const telemetry::SensorFrame& frame,
                  std::optional<std::uint64_t> fleet_seq);

  /// FlushLane's body. Caller holds ingest_mu_.
  void FlushLaneLocked(VehicleLane* lane);

  /// Sum of every lane's ensemble counters (relaxed atomics, so safe to
  /// read while pumps run; exact once drained). Caller holds ingest_mu_.
  ensemble::EnsembleStats EnsembleTotalsLocked() const;

  /// Builds history records for the lane's scored samples beyond its
  /// history cursor (advancing it), attributing them to sequence number
  /// `seq` and matching `alarms` to set the alarm bit. Called by the
  /// owning pump (or under the drain barrier), so the monitor state it
  /// reads is stable.
  std::vector<history::HistoryRecord> BuildHistoryRecords(
      VehicleLane* lane, const std::vector<core::Alarm>& alarms,
      std::uint64_t seq);

  /// Serialises the quiescent service into `snapshot`. Caller holds
  /// ingest_mu_ and has passed the WaitIdle barrier.
  void SaveLocked(persist::Snapshot* snapshot) const;

  const ServiceConfig config_;

  /// The unified metrics registry: single source of truth for every
  /// counter the service and its attached layers report. Declared before
  /// the lanes and the pool so metric pointers handed out to monitors and
  /// workers stay valid until after those are destroyed.
  obs::MetricsRegistry metrics_;

  mutable std::mutex ingest_mu_;  ///< Serialises Submit/Register/Drain.
  std::vector<std::unique_ptr<VehicleLane>> lanes_;  ///< Registration order.
  std::unordered_map<std::int32_t, std::size_t> lane_index_;
  std::uint64_t next_global_seq_ = 0;
  /// Run inside Checkpoint between the quiesce and the snapshot write.
  std::function<util::Status()> checkpoint_barrier_;
  bool ingest_started_ = false;  ///< A frame has been offered to Submit.
  bool draining_ = false;
  bool drained_ = false;

  /// Ingest counters, registry-backed (`service.frames_*`); incremented
  /// under ingest_mu_ at the same points the plain fields used to be, so
  /// checkpoint encodings are byte-identical.
  obs::Counter* frames_submitted_ = nullptr;
  obs::Counter* frames_accepted_ = nullptr;
  obs::Counter* frames_rejected_ = nullptr;
  /// Frames stepped through a monitor, added by each pump per batch.
  obs::Counter* frames_processed_ = nullptr;
  /// Derived fleet-wide ensemble counters (`ensemble.*`), refreshed from
  /// the per-lane atomics by SnapshotStats()/stats().
  obs::Counter* retrains_started_ = nullptr;
  obs::Counter* retrains_completed_ = nullptr;
  obs::Counter* retrains_failed_ = nullptr;
  obs::Counter* suppressed_alarms_ = nullptr;
  /// Member-fit duration histogram shared by every lane's ensemble.
  obs::Histogram* retrain_us_ = nullptr;

  /// Null when the service releases through a borrowed sink (a shard).
  std::unique_ptr<OrderedSink> owned_sink_;
  /// The sink completions release through: owned_sink_.get() or the
  /// group's.
  OrderedSink* sink_;

  /// Declared last: destroyed first, so in-flight pump tasks finish while
  /// the lanes they reference are still alive. Null when the service runs
  /// on a borrowed pool (a shard).
  std::unique_ptr<runtime::ThreadPool> owned_pool_;
  /// The pool pump tasks run on: owned_pool_.get() or the group's.
  runtime::ThreadPool* pool_;
};

/// Replays a recorded interleaved stream through a fresh service:
/// registers `vehicle_ids` in order (so the result's per-vehicle vectors
/// are index-aligned with them), submits every frame in sequence, drains,
/// and returns the result. With the same stream and config this is
/// bit-identical at any thread count - the replay-equals-live invariant in
/// function form.
core::FleetRunResult RunStream(const std::vector<telemetry::SensorFrame>& stream,
                               const std::vector<std::int32_t>& vehicle_ids,
                               const ServiceConfig& config);

/// Vehicle ids of `fleet` in fleet order: the id list that makes
/// RunStream results index-aligned with core::RunFleet's.
std::vector<std::int32_t> VehicleIdsOf(const telemetry::FleetDataset& fleet);

}  // namespace navarchos::service

#endif  // NAVARCHOS_SERVICE_FLEET_SERVICE_H_
