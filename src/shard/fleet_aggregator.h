// FleetAggregator: merges per-shard ordered streams into the fleet order.
//
// Each shard's FleetService already releases its own completions in
// shard-local admission order (the OrderedSink contract). Sharding splits
// the fleet's one admission order across N such services, so restoring
// the fleet-wide total order needs one more merge: every admitted frame
// carries a FLEET sequence number (assigned in fleet submission order by
// the ShardGroup router or a sharded wire client), and the aggregator is
// a fleet-level ordered sink keyed by it - releasing alarms, history
// records and the released-alarm log in contiguous fleet-seq order, no
// matter how the shards' pumps interleave.
//
// Mechanics: the aggregator installs itself as every shard's alarm /
// history / completion callback. A shard's callbacks arrive in a strict
// per-frame pattern (alarms, then history records, then the completion),
// so the aggregator accumulates a per-shard "current bundle" and seals it
// at each completion under the frame's shard-local sequence number. The
// bundle then waits for two facts to meet: its local->fleet mapping
// (reported by OnAdmitted, possibly after the pump already completed the
// frame - admission and completion race benignly) and the fleet release
// cursor reaching its fleet seq, in a runtime::SequenceWindow keyed by
// fleet seq. The callbacks it forwards run under its own lock. History
// records are re-stamped with the fleet seq on release, so the fleet
// history log and its RANK / TIMELINE / COMOVE answers are bit-identical
// to the unsharded run's.
//
// End-of-stream monitor flushes are unsequenced (they follow the drain
// barrier); each shard's flush leftovers stay in its current bundle until
// FinishFleet regroups them by vehicle and emits them in FLEET
// registration order - exactly the lane order an unsharded drain uses -
// attributing each vehicle's flush records to its last released fleet seq.
#ifndef NAVARCHOS_SHARD_FLEET_AGGREGATOR_H_
#define NAVARCHOS_SHARD_FLEET_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "persist/codec.h"
#include "runtime/sequence_window.h"
#include "service/fleet_service.h"

/// \file
/// \brief FleetAggregator: the fleet-level ordered sink merging N shards'
/// release streams into one deterministic fleet-wide total order.

namespace navarchos::shard {

/// Fleet-level ordered sink over N shard services. Thread-safe: shard
/// sinks invoke its callbacks from worker threads, the router reports
/// admissions from the ingest thread(s).
class FleetAggregator {
 public:
  /// Prepares per-shard state for `shard_count` shards.
  explicit FleetAggregator(std::uint32_t shard_count);

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  /// Installs the fleet-wide alarm observer (release order = fleet order).
  /// Must be set before any shard ingests.
  void set_alarm_callback(service::AlarmCallback callback);

  /// Installs the fleet-wide history observer; records arrive re-stamped
  /// with their fleet sequence number. Must be set before any shard
  /// ingests.
  void set_history_callback(service::HistoryCallback callback);

  /// Hooks shard `shard`'s service callbacks into this aggregator. Must be
  /// called once per shard, before the shard's first Submit.
  void AttachShard(int shard, service::FleetService* service);

  /// Reports that the frame admitted under `local_seq` on `shard` carries
  /// fleet sequence number `fleet_seq`. Safe before or after the shard's
  /// pump completes the frame.
  void OnAdmitted(int shard, std::uint64_t local_seq, std::uint64_t fleet_seq);

  /// Emits the end-of-stream flush leftovers in fleet registration order
  /// (`vehicle_order` = vehicle ids in fleet order). Call after every
  /// shard drained; requires all sequenced work released.
  void FinishFleet(const std::vector<std::int32_t>& vehicle_order);

  /// Copy of the fleet-ordered released alarms (quiescent callers only).
  std::vector<core::Alarm> released_alarms() const;

  /// First fleet sequence number not yet released.
  std::uint64_t next_fleet_release() const;

  /// Serialises the quiescent aggregator (release cursor, released
  /// alarms, per-vehicle last-released seqs) for the fleet manifest.
  /// Legal only with nothing in flight (the checkpoint barrier).
  void Save(persist::Encoder& encoder) const;

  /// Restores state saved by Save(). Returns false on malformed input.
  bool Restore(persist::Decoder& decoder);

 private:
  /// One frame's (or one shard's flush leftovers') released payload.
  struct Bundle {
    std::int32_t vehicle_id = 0;
    std::vector<core::Alarm> alarms;
    std::vector<history::HistoryRecord> records;
  };

  /// Merge state of one shard's release stream.
  struct ShardState {
    /// Alarms/records accumulated since the last completion. Sealed into
    /// a bundle per completion; holds the unsequenced flush leftovers
    /// after the shard drains.
    Bundle current;
    /// local seq -> fleet seq for admitted-but-not-yet-completed frames.
    std::unordered_map<std::uint64_t, std::uint64_t> local_to_fleet;
    /// Completed-but-unmapped bundles (the pump beat OnAdmitted).
    std::map<std::uint64_t, Bundle> unmapped;
  };

  void OnAlarm(int shard, const core::Alarm& alarm);
  void OnRecord(int shard, const history::HistoryRecord& record);
  void OnComplete(int shard, const service::FrameCompletion& completion);

  /// Puts a sealed bundle into the window under its fleet seq and
  /// releases every bundle contiguous with the cursor. Caller holds mu_.
  void EnqueueLocked(std::uint64_t fleet_seq, Bundle bundle);

  mutable std::mutex mu_;
  std::vector<ShardState> shards_;
  /// Sealed bundles waiting for the fleet cursor (the window's front, the
  /// first fleet seq not yet released) - the same reorder window each
  /// shard's ordered sink uses.
  runtime::SequenceWindow<Bundle> pending_;
  /// Last released fleet seq per vehicle: the flush-record attribution.
  std::unordered_map<std::int32_t, std::uint64_t> last_fleet_seq_;
  std::vector<core::Alarm> alarms_;  ///< Released, in fleet order.
  service::AlarmCallback alarm_callback_;
  service::HistoryCallback history_callback_;
};

}  // namespace navarchos::shard

#endif  // NAVARCHOS_SHARD_FLEET_AGGREGATOR_H_
