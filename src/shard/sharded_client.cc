#include "shard/sharded_client.h"

#include <utility>

#include "util/check.h"

namespace navarchos::shard {

ShardedClient::ShardedClient(const ShardedClientConfig& config)
    : config_(config) {}

util::Status ShardedClient::Connect(
    const std::vector<std::int32_t>& vehicle_ids, bool resume) {
  // Bootstrap: dial the configured port (any shard), read the shard map
  // from its WELCOME, and hang up without FIN (the probe session streams
  // nothing; retention GC reclaims it).
  {
    net::ClientConfig probe_config = config_.client;
    probe_config.session_id = config_.client.session_id + "#bootstrap";
    net::IngestClient probe(probe_config);
    const util::Status status = probe.Connect({}, /*resume=*/false);
    if (!status.ok()) return status;
    map_info_ = probe.shard_map();
    probe.Abort();
  }
  if (map_info_.unsharded()) {
    map_info_.shard_count = 1;
    map_info_.ports = {config_.client.port};
  }
  map_ = std::make_unique<ShardMap>(map_info_.shard_count,
                                    map_info_.hash_seed);

  // Partition the fleet by home shard, preserving the fleet registration
  // order within each shard and remembering every vehicle's fleet-wide
  // index (the HELLO fleet-order tail).
  std::vector<std::vector<std::int32_t>> ids_by_shard(map_info_.shard_count);
  std::vector<std::vector<std::uint32_t>> order_by_shard(
      map_info_.shard_count);
  for (std::size_t i = 0; i < vehicle_ids.size(); ++i) {
    const int shard = map_->ShardOf(vehicle_ids[i]);
    ids_by_shard[static_cast<std::size_t>(shard)].push_back(vehicle_ids[i]);
    order_by_shard[static_cast<std::size_t>(shard)].push_back(
        static_cast<std::uint32_t>(i));
  }

  clients_.clear();
  local_index_.assign(map_info_.shard_count, 0);
  resume_cursor_.assign(map_info_.shard_count, 0);
  next_fleet_seq_ = 0;
  for (std::uint32_t shard = 0; shard < map_info_.shard_count; ++shard) {
    net::ClientConfig shard_config = config_.client;
    shard_config.port = map_info_.ports[shard];
    shard_config.session_id =
        config_.client.session_id + "#" + std::to_string(shard);
    // Decorrelate the shards' backoff jitter without losing determinism.
    shard_config.jitter_seed = config_.client.jitter_seed + shard;
    clients_.push_back(std::make_unique<net::IngestClient>(shard_config));
    const util::Status status = clients_.back()->Connect(
        ids_by_shard[shard], order_by_shard[shard], resume);
    if (!status.ok()) return status;
    // Frames below this shard-local cursor were decided before the
    // resume; Send skips them while still advancing the fleet seq.
    resume_cursor_[shard] = clients_.back()->next_seq();
  }
  return util::Status();
}

int ShardedClient::ShardOf(std::int32_t vehicle_id) const {
  NAVARCHOS_CHECK(map_ != nullptr);  // Connect first
  return map_->ShardOf(vehicle_id);
}

util::Status ShardedClient::Send(const telemetry::SensorFrame& frame) {
  const int shard = ShardOf(frame.vehicle_id());
  const std::size_t s = static_cast<std::size_t>(shard);
  const std::uint64_t local = local_index_[s]++;
  const std::uint64_t fleet_seq = next_fleet_seq_++;
  // Resume replays the whole stream from the start: both counters advance
  // for every frame (keeping the fleet-seq assignment a pure function of
  // the submission order), but only undecided frames hit the wire.
  if (local < resume_cursor_[s]) return util::Status();
  return clients_[s]->Send(frame, fleet_seq);
}

util::Status ShardedClient::Flush() {
  // Every shard's batch goes on the wire before the client waits for any
  // ACK, so a flush costs about one round trip instead of one per shard.
  // Each session heals on its own: a reconnect on one shard rewinds and
  // resends only that shard's batch. Every started batch is awaited, even
  // after an error, so none is left in flight.
  util::Status status;
  for (auto& client : clients_) {
    const util::Status started = client->StartFlush();
    if (status.ok()) status = started;
  }
  for (auto& client : clients_) {
    const util::Status acked = client->AwaitFlush();
    if (status.ok()) status = acked;
  }
  return status;
}

util::Status ShardedClient::Finish() {
  util::Status status = Flush();
  if (!status.ok()) return status;
  for (auto& client : clients_) {
    status = client->Finish();
    if (!status.ok()) return status;
  }
  return util::Status();
}

void ShardedClient::Abort() {
  for (auto& client : clients_) client->Abort();
}

std::uint64_t ShardedClient::frames_sent() const {
  std::uint64_t total = 0;
  for (const auto& client : clients_) total += client->stats().frames_sent;
  return total;
}

util::Status ShardedClient::QueryRank(const history::RankQuery& query,
                                      history::RankResult* out) {
  NAVARCHOS_CHECK(!clients_.empty());
  return clients_[0]->QueryRank(query, out);
}

util::Status ShardedClient::QueryTimeline(const history::TimelineQuery& query,
                                          history::TimelineResult* out) {
  NAVARCHOS_CHECK(!clients_.empty());
  return clients_[0]->QueryTimeline(query, out);
}

util::Status ShardedClient::QueryComove(const history::ComoveQuery& query,
                                        history::ComoveResult* out) {
  NAVARCHOS_CHECK(!clients_.empty());
  return clients_[0]->QueryComove(query, out);
}

}  // namespace navarchos::shard
