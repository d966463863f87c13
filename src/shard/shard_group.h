// ShardGroup: N in-process FleetService shards behind one router.
//
// The group owns one shared runtime::ThreadPool, one service::OrderedSink,
// N FleetServices running on that pool and releasing through that sink,
// and a ShardMap routing vehicle ids to shards. Its public surface mirrors
// FleetService - RegisterVehicle / Submit / Drain / TakeResult /
// Checkpoint / Restore - so callers scale from one shard to N by changing
// a count, not their code.
//
// The house invariant extends across the split: for a given submission
// sequence, fleet-level alarms, history records and query answers are
// bit-identical at ANY shard count x ANY thread count, and equal to the
// unsharded run. Sharding only re-partitions per-vehicle lanes between
// services; every per-vehicle computation is untouched. Every frame takes
// a fleet sequence number in submission order (from Submit, or from a
// sharded wire client's FRAMES tail), and the one sink releases by it -
// the same total order the unsharded service's sink produces, ordered
// once.
//
// Fleet-wide checkpoint: Checkpoint(dir) quiesces every shard behind one
// barrier (the shared pool's WaitIdle with ingest blocked is a global
// quiesce), writes one snapshot per shard plus a CRC'd manifest naming
// them and holding the sink's state - and the manifest's atomic rename is
// the commit point, so a crash between files leaves the previous
// checkpoint intact. RestoreFromDir verifies every per-shard file against
// the manifest's CRCs before any state is touched.
#ifndef NAVARCHOS_SHARD_SHARD_GROUP_H_
#define NAVARCHOS_SHARD_SHARD_GROUP_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/fleet_service.h"
#include "service/ordered_sink.h"
#include "shard/shard_router.h"

/// \file
/// \brief ShardGroup: the in-process sharded fleet - N FleetServices on a
/// shared pool behind a consistent-hash router, with fleet-wide ordered
/// output and a manifest-committed fleet checkpoint.

namespace navarchos::shard {

/// Configuration of a sharded fleet group.
struct ShardGroupConfig {
  /// Per-shard service configuration (monitor pipeline, queue capacity,
  /// backpressure, pump batch). The `runtime` field sizes the ONE pool
  /// all shards share.
  service::ServiceConfig service;
  /// Number of shards (1 = a single service behind the same API).
  std::uint32_t shard_count = 1;
  /// Seed of the consistent-hash ring (see shard_router.h).
  std::uint64_t hash_seed = kDefaultHashSeed;
};

/// Aggregate counters over all shards (sums of the per-shard stats, but
/// alarms_emitted counted once, by the group's sink).
using ShardGroupStats = service::ServiceStats;

/// N FleetService shards behind one consistent-hash router. Threading
/// rules are FleetService's: Submit/RegisterVehicle from one ingest
/// thread (they are serialised internally), Drain never from a callback.
class ShardGroup {
 public:
  /// Builds the shared pool, the shared sink and the shards.
  explicit ShardGroup(const ShardGroupConfig& config);

  /// Drains (if not yet drained) and stops the shards and pool.
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Registers `vehicle_id` on its home shard; returns the vehicle's
  /// fleet-wide registration index (its slot in TakeResult()'s vectors).
  /// Idempotent: a known vehicle returns its existing index.
  int RegisterVehicle(std::int32_t vehicle_id);

  /// Routes one frame to its home shard under the next fleet-wide
  /// sequence number. Returns whether the frame was admitted (false = shed
  /// under kReject, which skips its fleet seq, or draining, which takes
  /// none).
  bool Submit(const telemetry::SensorFrame& frame);

  /// Closes every shard, waits once on the shared pool, then emits the
  /// end-of-stream flushes lane by lane in fleet registration order, each
  /// lane's history records attributed to its last released fleet seq.
  /// Idempotent.
  void Drain();

  /// Composes the fleet-wide run result: the sink's alarms in fleet order
  /// plus per-vehicle vectors re-indexed from shard lane order into fleet
  /// registration order - the same shape an unsharded run returns.
  /// Requires Drain() first.
  core::FleetRunResult TakeResult();

  /// Installs the fleet-wide alarm observer on the group's sink. Must be
  /// set before the first Submit.
  void set_alarm_callback(service::AlarmCallback callback);

  /// Installs the fleet-wide history observer on the group's sink; records
  /// carry fleet sequence numbers. Must be set before the first Submit.
  void set_history_callback(service::HistoryCallback callback);

  /// Installs a barrier run inside Checkpoint after the fleet-wide
  /// quiesce and before any snapshot is written (the history-flush hook,
  /// as in FleetService::set_checkpoint_barrier, but once per fleet
  /// checkpoint rather than per shard).
  void set_checkpoint_barrier(std::function<util::Status()> barrier);

  /// Fleet-wide durable checkpoint into directory `dir`: blocks ingest,
  /// quiesces all shards, runs the barrier, writes one epoch-named
  /// snapshot per shard plus the CRC'd `fleet.manifest` (atomic rename =
  /// commit), then resumes ingest and removes stale-epoch files. Fails
  /// while draining/drained.
  util::Status Checkpoint(const std::string& dir);

  /// Restores a fleet checkpoint into this FRESH group (no registrations
  /// or submissions yet; same monitor config, shard count and hash seed
  /// as the checkpointing group). Verifies the manifest and every
  /// per-shard file's CRC before restoring; on error the group must be
  /// discarded.
  util::Status RestoreFromDir(const std::string& dir);

  /// Copy of the fleet-ordered released alarms (quiescent callers only).
  std::vector<core::Alarm> released_alarms() const;

  /// Sums of every per-shard service counter, ensemble counters included;
  /// alarms_emitted is the group sink's count.
  ShardGroupStats stats() const;

  /// Merged fleet-wide metrics snapshot: the per-shard registry snapshots
  /// (FleetService::SnapshotStats) folded together with obs::MergeSnapshot
  /// - counters and histogram cells add, gauges take the max. Per-lane
  /// gauge names are keyed by vehicle id, and vehicles are sharded
  /// disjointly, so no gauge collides across shards. The shared pool's and
  /// the shared sink's metrics live in shard 0's registry and appear here
  /// exactly once.
  obs::StatsSnapshot FleetSnapshot();

  /// Number of registered vehicles, fleet-wide.
  std::size_t vehicle_count() const;

  /// The routing table (pure function of shard count and seed).
  const ShardMap& shard_map() const { return map_; }

  /// Borrowed access to shard `shard`'s service (wire front ends attach
  /// one IngestServer per shard).
  service::FleetService* shard_service(int shard);

  /// Records a vehicle's fleet-wide registration index declared over the
  /// wire (the HELLO fleet-order tail), so Drain can flush in fleet
  /// order.
  void OnWireRegistration(std::int32_t vehicle_id, std::uint32_t fleet_order);

 private:
  /// One registered vehicle's routing record.
  struct VehicleSlot {
    std::int32_t vehicle_id = 0;
    int shard = 0;
    int lane = 0;  ///< Lane index within the home shard.
  };

  const ShardGroupConfig config_;
  runtime::ThreadPool pool_;  ///< The one pool all shards share.
  ShardMap map_;
  /// The one sink all shards release through, keyed by fleet seq.
  service::OrderedSink sink_;
  std::vector<std::unique_ptr<service::FleetService>> shards_;

  mutable std::mutex mu_;  ///< Serialises Submit/Register/Drain/Checkpoint.
  std::vector<VehicleSlot> vehicles_;  ///< Fleet registration order.
  std::unordered_map<std::int32_t, std::size_t> vehicle_index_;
  std::uint64_t next_fleet_seq_ = 0;  ///< Next fleet seq Submit assigns.
  std::uint64_t checkpoint_epoch_ = 0;
  bool draining_ = false;
  bool drained_ = false;
  std::function<util::Status()> checkpoint_barrier_;
};

}  // namespace navarchos::shard

#endif  // NAVARCHOS_SHARD_SHARD_GROUP_H_
