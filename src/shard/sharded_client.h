// ShardedClient: one routing session over N shard listeners.
//
// A sharded fleet exposes one listener per shard. The client dials ANY of
// them, learns the full shard map from the WELCOME tail (shard count,
// hash seed, every shard's port), rebuilds the identical ShardMap
// locally, and maintains one self-healing IngestClient session per shard
// (session ids "<base>#<shard>"). Each Send routes its frame to the home
// shard, assigns the next FLEET sequence number (carried in the FRAMES
// fleet-seq tail; the shards release under it through their group's one
// ordered sink, the fleet-wide total order), and inherits the per-shard
// stop-and-wait / reconnect / RESUME machinery unchanged - a mid-stream
// cut on one shard heals exactly like the unsharded client's.
//
// Resume across client objects replays the WHOLE submission stream: the
// caller re-Sends every frame from the beginning and the client skips
// frames its home shard already decided (shard-local submission index
// below the shard's WELCOME cursor). Because fleet seqs are a pure
// function of the submission order, the replayed assignment is identical,
// so skipped and resent frames alike carry the same fleet seq as before
// the cut - exactly-once admission per shard composes into exactly-once
// fleet-wide.
#ifndef NAVARCHOS_SHARD_SHARDED_CLIENT_H_
#define NAVARCHOS_SHARD_SHARDED_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/ingest_client.h"
#include "shard/shard_router.h"

/// \file
/// \brief ShardedClient: resolves vehicle->shard from the WELCOME shard
/// map and maintains one resumable self-healing session per shard.

namespace navarchos::shard {

/// Configuration of a sharded client.
struct ShardedClientConfig {
  /// Per-shard client tuning (host, deadlines, batch size, backoff,
  /// transport factory). `port` is the bootstrap port - any shard's
  /// listener; the shard map learned from its WELCOME supplies the rest.
  /// `session_id` is the base name; shard s uses "<session_id>#<s>".
  net::ClientConfig client;
};

/// Routing client over N per-shard sessions. Single-threaded, like
/// IngestClient.
class ShardedClient {
 public:
  /// Stores the configuration; nothing is dialled yet.
  explicit ShardedClient(const ShardedClientConfig& config);

  /// Dials the bootstrap port, learns the shard map, then connects one
  /// session per shard, registering each vehicle on its home shard with
  /// its fleet-wide registration index (`vehicle_ids` order). With
  /// `resume`, each shard session resumes its own cursor.
  util::Status Connect(const std::vector<std::int32_t>& vehicle_ids,
                       bool resume = false);

  /// Routes one frame to its home shard under the next fleet sequence
  /// number. On resume, frames the home shard already decided are skipped
  /// locally (the fleet seq still advances, keeping the assignment pure).
  util::Status Send(const telemetry::SensorFrame& frame);

  /// Flushes every shard session's partial batch: writes every shard's
  /// batch first, then collects each shard's ACK (healing per shard).
  util::Status Flush();

  /// Flushes and FINishes every shard session.
  util::Status Finish();

  /// Simulated crash: closes every shard session without FIN.
  void Abort();

  /// The shard map learned at Connect.
  const net::ShardMapInfo& shard_map_info() const { return map_info_; }

  /// Fleet sequence number the next Send will assign.
  std::uint64_t next_fleet_seq() const { return next_fleet_seq_; }

  /// Sum of per-shard frames actually sent (excludes resume skips).
  std::uint64_t frames_sent() const;

  /// Runs a RANK query against shard 0 (all shards share one fleet-wide
  /// history log, so any shard answers fleet queries).
  util::Status QueryRank(const history::RankQuery& query,
                         history::RankResult* out);

  /// Runs a TIMELINE query against shard 0.
  util::Status QueryTimeline(const history::TimelineQuery& query,
                             history::TimelineResult* out);

  /// Runs a COMOVE query against shard 0.
  util::Status QueryComove(const history::ComoveQuery& query,
                           history::ComoveResult* out);

 private:
  /// Shard owning `vehicle_id` under the learned map.
  int ShardOf(std::int32_t vehicle_id) const;

  const ShardedClientConfig config_;
  net::ShardMapInfo map_info_;
  std::unique_ptr<ShardMap> map_;  ///< Built from map_info_ at Connect.
  std::vector<std::unique_ptr<net::IngestClient>> clients_;  ///< Per shard.
  /// Shard-local submission index per shard (counts every routed frame,
  /// sent or skipped); the resume-skip cursor compares against it.
  std::vector<std::uint64_t> local_index_;
  /// Each shard session's WELCOME cursor at Connect: frames with a
  /// shard-local index below it were decided before the resume.
  std::vector<std::uint64_t> resume_cursor_;
  std::uint64_t next_fleet_seq_ = 0;
};

}  // namespace navarchos::shard

#endif  // NAVARCHOS_SHARD_SHARDED_CLIENT_H_
