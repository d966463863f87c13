// Consistent-hash shard router: the pure function vehicle id -> shard.
//
// A fleet served by N shards needs every peer - routing clients, shard
// servers, the checkpoint manifest - to agree on which shard owns which
// vehicle, across processes and across runs. ShardMap is therefore a PURE
// FUNCTION of (shard_count, seed): it derives a consistent-hash ring of
// kVirtualNodesPerShard seeded points per shard at construction, with no
// ambient state (no time, no randomness, no host identity), so the same
// two numbers always yield the same assignment. The WELCOME shard-map
// tail (net::ShardMapInfo) carries exactly these two numbers plus the
// shard ports; a client rebuilds the identical ring locally.
//
// The hash is the splitmix64 finalizer (Steele, Lea & Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014) - a fixed,
// documented 64-bit mixer, NOT std::hash (whose result is implementation-
// defined and would silently break cross-process agreement). Ring points
// are Mix64(seed ^ Mix64((shard + 1) << 32 | vnode)); a vehicle hashes to
// Mix64(seed ^ Mix64(zero-extended id)) and is owned by the first ring
// point clockwise from it. The `shard + 1` high word keeps vnode labels
// disjoint from zero-extended vehicle ids, so a vehicle never hashes
// exactly onto a ring point derived from its own id (without it, ids
// 0..63 would collide with shard 0's vnode labels and all pin to shard
// 0). Consistent hashing keeps reassignment minimal
// when the shard count changes: growing N shards to N+1 moves only ~1/(N+1)
// of the vehicles (a plain modulo would move nearly all of them).
#ifndef NAVARCHOS_SHARD_SHARD_ROUTER_H_
#define NAVARCHOS_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <utility>
#include <vector>

/// \file
/// \brief ShardMap: the seeded consistent-hash ring assigning vehicle ids
/// to shards, identical across processes and runs by construction.

/// \namespace navarchos::shard
/// \brief Fleet sharding: the consistent-hash router, per-shard services
/// behind one shared pool and one fleet-ordered sink, and the fleet-wide
/// checkpoint manifest.

namespace navarchos::shard {

/// Default seed of the consistent-hash ring (the golden-ratio constant
/// also used as the splitmix64 increment). Every peer of a fleet must use
/// the same seed; deployments that want a private ring override it.
inline constexpr std::uint64_t kDefaultHashSeed = 0x9E3779B97F4A7C15ull;

/// Virtual ring points per shard. More points smooth the load split
/// between shards at the cost of a larger (still tiny) ring; 64 keeps the
/// imbalance of a uniform fleet within a few percent.
inline constexpr std::uint32_t kVirtualNodesPerShard = 64;

/// The splitmix64 finalizer: the fixed 64-bit mixer under every ring
/// point and vehicle hash. Public so tests and documentation can pin the
/// exact function (it is part of the wire-visible contract).
std::uint64_t Mix64(std::uint64_t x);

/// The vehicle-to-shard assignment: a consistent-hash ring derived purely
/// from (shard_count, seed). Immutable and thread-safe after construction.
class ShardMap {
 public:
  /// Builds the ring for `shard_count` >= 1 shards under `seed`.
  explicit ShardMap(std::uint32_t shard_count,
                    std::uint64_t seed = kDefaultHashSeed);

  /// Shard owning `vehicle_id`: the ring point first clockwise from the
  /// vehicle's hash. Always 0 for a single-shard map.
  int ShardOf(std::int32_t vehicle_id) const;

  /// Number of shards the ring was built for.
  std::uint32_t shard_count() const { return shard_count_; }

  /// Seed the ring was built under.
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint32_t shard_count_;
  std::uint64_t seed_;
  /// Ring points (hash, shard), sorted by hash; ties broken by shard id
  /// at construction so the ring order is unambiguous.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace navarchos::shard

#endif  // NAVARCHOS_SHARD_SHARD_ROUTER_H_
