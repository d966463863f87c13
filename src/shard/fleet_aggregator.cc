#include "shard/fleet_aggregator.h"

#include <utility>

#include "util/check.h"

namespace navarchos::shard {

FleetAggregator::FleetAggregator(std::uint32_t shard_count)
    : shards_(shard_count) {
  NAVARCHOS_CHECK(shard_count >= 1);
}

void FleetAggregator::set_alarm_callback(service::AlarmCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  alarm_callback_ = std::move(callback);
}

void FleetAggregator::set_history_callback(service::HistoryCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  history_callback_ = std::move(callback);
}

void FleetAggregator::AttachShard(int shard, service::FleetService* service) {
  // All three callbacks funnel into this aggregator under mu_. The shard's
  // sink serialises its own callbacks, so per-shard "current bundle"
  // accumulation sees one frame's alarms/records/completion contiguously.
  service->set_alarm_callback(
      [this, shard](const core::Alarm& alarm) { OnAlarm(shard, alarm); });
  service->set_history_callback([this, shard](
      const history::HistoryRecord& record) { OnRecord(shard, record); });
  service->set_completion_callback(
      [this, shard](const service::FrameCompletion& completion) {
        OnComplete(shard, completion);
      });
}

void FleetAggregator::OnAlarm(int shard, const core::Alarm& alarm) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[static_cast<std::size_t>(shard)].current.alarms.push_back(alarm);
}

void FleetAggregator::OnRecord(int shard,
                               const history::HistoryRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  shards_[static_cast<std::size_t>(shard)].current.records.push_back(record);
}

void FleetAggregator::OnComplete(
    int shard, const service::FrameCompletion& completion) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& state = shards_[static_cast<std::size_t>(shard)];
  Bundle bundle = std::move(state.current);
  state.current = Bundle{};
  bundle.vehicle_id = completion.vehicle_id;
  const auto it = state.local_to_fleet.find(completion.global_seq);
  if (it == state.local_to_fleet.end()) {
    // The pump completed the frame before the router reported its fleet
    // seq; park the bundle until OnAdmitted delivers the mapping.
    state.unmapped.emplace(completion.global_seq, std::move(bundle));
    return;
  }
  const std::uint64_t fleet_seq = it->second;
  state.local_to_fleet.erase(it);
  EnqueueLocked(fleet_seq, std::move(bundle));
}

void FleetAggregator::OnAdmitted(int shard, std::uint64_t local_seq,
                                 std::uint64_t fleet_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& state = shards_[static_cast<std::size_t>(shard)];
  const auto it = state.unmapped.find(local_seq);
  if (it != state.unmapped.end()) {
    Bundle bundle = std::move(it->second);
    state.unmapped.erase(it);
    EnqueueLocked(fleet_seq, std::move(bundle));
    return;
  }
  state.local_to_fleet.emplace(local_seq, fleet_seq);
}

void FleetAggregator::EnqueueLocked(std::uint64_t fleet_seq, Bundle bundle) {
  pending_.Put(fleet_seq, std::move(bundle));
  while (pending_.FrontReady()) {
    const std::uint64_t seq = pending_.front();
    Bundle ready = pending_.PopFront();
    for (core::Alarm& alarm : ready.alarms) {
      if (alarm_callback_) alarm_callback_(alarm);
      alarms_.push_back(std::move(alarm));
    }
    for (history::HistoryRecord& record : ready.records) {
      // Re-stamp with the fleet seq: the fleet history log must index by
      // the fleet-wide order, not any shard's local one.
      record.global_seq = seq;
      if (history_callback_) history_callback_(record);
    }
    last_fleet_seq_[ready.vehicle_id] = seq;
  }
}

void FleetAggregator::FinishFleet(
    const std::vector<std::int32_t>& vehicle_order) {
  std::lock_guard<std::mutex> lock(mu_);
  // Every sequenced frame must be mapped, completed and released before
  // the unsequenced flushes may go out - the drain barrier guarantees it.
  NAVARCHOS_CHECK(pending_.empty());
  for (const ShardState& state : shards_) {
    NAVARCHOS_CHECK(state.local_to_fleet.empty());
    NAVARCHOS_CHECK(state.unmapped.empty());
  }
  // Regroup the shards' flush leftovers by vehicle (order within a vehicle
  // is its shard's lane-flush order, i.e. the monitor's own).
  std::unordered_map<std::int32_t, Bundle> by_vehicle;
  for (ShardState& state : shards_) {
    for (core::Alarm& alarm : state.current.alarms)
      by_vehicle[alarm.vehicle_id].alarms.push_back(std::move(alarm));
    for (history::HistoryRecord& record : state.current.records)
      by_vehicle[record.vehicle_id].records.push_back(std::move(record));
    state.current = Bundle{};
  }
  // Emit in fleet registration order - the lane order an unsharded drain
  // flushes in - attributing records to the vehicle's last released seq.
  for (const std::int32_t vehicle_id : vehicle_order) {
    const auto it = by_vehicle.find(vehicle_id);
    if (it == by_vehicle.end()) continue;
    for (core::Alarm& alarm : it->second.alarms) {
      if (alarm_callback_) alarm_callback_(alarm);
      alarms_.push_back(std::move(alarm));
    }
    const auto seq_it = last_fleet_seq_.find(vehicle_id);
    const std::uint64_t seq =
        seq_it == last_fleet_seq_.end() ? 0 : seq_it->second;
    for (history::HistoryRecord& record : it->second.records) {
      record.global_seq = seq;
      if (history_callback_) history_callback_(record);
    }
    by_vehicle.erase(it);
  }
  NAVARCHOS_CHECK(by_vehicle.empty());  // every vehicle was in the order
}

std::vector<core::Alarm> FleetAggregator::released_alarms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alarms_;
}

std::uint64_t FleetAggregator::next_fleet_release() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.front();
}

void FleetAggregator::Save(persist::Encoder& encoder) const {
  std::lock_guard<std::mutex> lock(mu_);
  NAVARCHOS_CHECK(pending_.empty());  // checkpoint barrier already passed
  for (const ShardState& state : shards_) {
    NAVARCHOS_CHECK(state.local_to_fleet.empty());
    NAVARCHOS_CHECK(state.unmapped.empty());
    NAVARCHOS_CHECK(state.current.alarms.empty());
    NAVARCHOS_CHECK(state.current.records.empty());
  }
  encoder.PutU64(pending_.front());
  encoder.PutU64(alarms_.size());
  for (const core::Alarm& alarm : alarms_) core::SaveAlarm(encoder, alarm);
  encoder.PutU64(last_fleet_seq_.size());
  // std::map iteration: the encoding is deterministic (sorted by vehicle).
  std::map<std::int32_t, std::uint64_t> sorted(last_fleet_seq_.begin(),
                                               last_fleet_seq_.end());
  for (const auto& [vehicle_id, seq] : sorted) {
    encoder.PutI32(vehicle_id);
    encoder.PutU64(seq);
  }
}

bool FleetAggregator::Restore(persist::Decoder& decoder) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t next_release = decoder.GetU64();
  const std::uint64_t alarm_count = decoder.GetU64();
  if (!decoder.ok()) return false;
  if (alarm_count > decoder.remaining() / core::kMinAlarmBytes) {
    decoder.Fail("aggregator alarm count exceeds payload size");
    return false;
  }
  pending_.Reset(next_release);
  alarms_.clear();
  alarms_.reserve(static_cast<std::size_t>(alarm_count));
  for (std::uint64_t i = 0; i < alarm_count; ++i) {
    core::Alarm alarm;
    if (!core::RestoreAlarm(decoder, &alarm)) return false;
    alarms_.push_back(std::move(alarm));
  }
  const std::uint64_t vehicle_count = decoder.GetU64();
  if (!decoder.ok()) return false;
  if (vehicle_count > decoder.remaining() / (4 + 8)) {
    decoder.Fail("aggregator vehicle count exceeds payload size");
    return false;
  }
  last_fleet_seq_.clear();
  for (std::uint64_t i = 0; i < vehicle_count; ++i) {
    const std::int32_t vehicle_id = decoder.GetI32();
    const std::uint64_t seq = decoder.GetU64();
    last_fleet_seq_[vehicle_id] = seq;
  }
  return decoder.ok();
}

}  // namespace navarchos::shard
