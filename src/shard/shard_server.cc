#include "shard/shard_server.h"

#include <chrono>
#include <thread>

#include "util/check.h"

namespace navarchos::shard {

ShardServer::ShardServer(ShardGroup* group,
                         const net::ServerConfig& server_template)
    : group_(group), template_(server_template) {
  NAVARCHOS_CHECK(group != nullptr);
}

ShardServer::~ShardServer() { Stop(); }

util::Status ShardServer::Start() {
  const std::uint32_t shard_count = group_->shard_map().shard_count();
  servers_.clear();
  servers_.reserve(shard_count);
  for (std::uint32_t shard = 0; shard < shard_count; ++shard) {
    net::ServerConfig config = template_;
    // Shard 0 keeps the template's port (the well-known bootstrap port);
    // the rest bind ephemeral ports and are discovered via the shard map.
    if (shard > 0) config.port = 0;
    // Fleet-order registrations flow back into the group, so its drain
    // flushes lanes in fleet order.
    const int shard_index = static_cast<int>(shard);
    ShardGroup* group = group_;
    config.registration_hook = [group](std::int32_t vehicle_id,
                                       std::uint32_t fleet_order) {
      group->OnWireRegistration(vehicle_id, fleet_order);
    };
    servers_.push_back(std::make_unique<net::IngestServer>(
        group_->shard_service(shard_index), config));
    servers_.back()->set_shard_id(static_cast<std::uint32_t>(shard_index));
    const util::Status status = servers_.back()->Start();
    if (!status.ok()) {
      Stop();
      return status;
    }
  }
  // Only now are all ports known; advertise the complete map everywhere.
  // A single-shard fleet advertises NOTHING (map_info_ stays the default
  // "unsharded" value), keeping its WELCOMEs byte-identical to the
  // pre-shard protocol for old peers.
  map_info_ = net::ShardMapInfo{};
  if (shard_count > 1) {
    map_info_.shard_count = shard_count;
    map_info_.hash_seed = group_->shard_map().seed();
    for (const auto& server : servers_)
      map_info_.ports.push_back(server->port());
    for (const auto& server : servers_) server->set_shard_map(map_info_);
  }
  return util::Status();
}

void ShardServer::Stop() {
  for (const auto& server : servers_)
    if (server) server->Stop();
}

std::uint16_t ShardServer::port(int shard) const {
  return servers_[static_cast<std::size_t>(shard)]->port();
}

std::uint64_t ShardServer::finished_sessions() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) total += server->finished_sessions();
  return total;
}

bool ShardServer::WaitForFinishedSessions(std::uint64_t count,
                                          std::int64_t timeout_ms) {
  // Each shard server has its own condition variable; a fleet-wide wait
  // polls the sum (the waits here gate test/example shutdown, not a hot
  // path).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (finished_sessions() < count) {
    if (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

net::IngestServer* ShardServer::server(int shard) {
  return servers_[static_cast<std::size_t>(shard)].get();
}

}  // namespace navarchos::shard
