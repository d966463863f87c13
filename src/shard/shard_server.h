// ShardServer: one IngestServer listener per shard of a ShardGroup.
//
// The wire face of the sharded fleet: N poll-thread IngestServers, each
// feeding its own shard's FleetService. A frame's fleet seq (the FRAMES
// fleet-seq tail) goes with it into its shard and on into the group's one
// ordered sink; HELLO fleet-order tails reach the group through the server
// registration hook, so its drain flushes lanes in fleet order. After all
// listeners bound, every server advertises the complete shard map (count,
// seed, ports) in its WELCOMEs, so a ShardedClient can bootstrap from any
// one port. All servers share the group's fleet-wide history service for
// QUERY, so RANK/TIMELINE/COMOVE answers are fleet-wide on every shard.
#ifndef NAVARCHOS_SHARD_SHARD_SERVER_H_
#define NAVARCHOS_SHARD_SHARD_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ingest_server.h"
#include "shard/shard_group.h"

/// \file
/// \brief ShardServer: the per-shard TCP listeners of a ShardGroup, with
/// shard-map advertisement and the fleet-order registration hook.

namespace navarchos::shard {

/// N per-shard IngestServers over one ShardGroup.
class ShardServer {
 public:
  /// Borrows `group` (must outlive the server). `server_template` seeds
  /// every shard's ServerConfig; its `port` is used by shard 0 only (the
  /// bootstrap port; the other shards bind ephemeral ports advertised via
  /// the shard map) and its `history` is shared by all shards.
  ShardServer(ShardGroup* group, const net::ServerConfig& server_template);

  /// Stops every listener.
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds and starts every shard's listener, then installs the complete
  /// shard map on each (WELCOMEs advertise it from then on).
  util::Status Start();

  /// Stops every listener (idempotent).
  void Stop();

  /// Bound port of shard `shard`'s listener.
  std::uint16_t port(int shard) const;

  /// The advertised shard map (meaningful after Start).
  const net::ShardMapInfo& map_info() const { return map_info_; }

  /// Sum of finished (FINished) sessions across all shards.
  std::uint64_t finished_sessions() const;

  /// Blocks until at least `count` sessions finished fleet-wide, or
  /// `timeout_ms` elapsed (0 waits forever). Returns whether reached.
  bool WaitForFinishedSessions(std::uint64_t count,
                               std::int64_t timeout_ms = 0);

  /// Borrowed access to shard `shard`'s server (stats, tests).
  net::IngestServer* server(int shard);

 private:
  ShardGroup* const group_;
  const net::ServerConfig template_;
  std::vector<std::unique_ptr<net::IngestServer>> servers_;
  net::ShardMapInfo map_info_;
};

}  // namespace navarchos::shard

#endif  // NAVARCHOS_SHARD_SHARD_SERVER_H_
