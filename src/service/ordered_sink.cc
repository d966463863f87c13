#include "service/ordered_sink.h"

#include <utility>

#include "util/check.h"

namespace navarchos::service {

void OrderedSink::Deposit(std::vector<Entry>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  for (Entry& entry : *batch) {
    const std::uint64_t seq = entry.completion.global_seq;
    window_.Put(seq, std::move(entry));
  }
  batch->clear();
  if (releasing_) return;  // the active releaser takes these too
  releasing_ = true;

  // Release every completion contiguous with the cursor. Worker scheduling
  // decides only when a completion *arrives*, never when it is *released*:
  // the release order is the sequence order, always. The cursor, the
  // released-alarm log and its counter advance under the lock; the
  // callbacks run outside it, so pumps keep depositing meanwhile, and this
  // thread loops until the front is not ready.
  while (true) {
    while (window_.FrontReady()) {
      Entry entry = window_.PopFront();
      if (entry.shed) continue;
      ++frames_released_;
      alarms_.insert(alarms_.end(), entry.alarms.begin(), entry.alarms.end());
      batch->push_back(std::move(entry));
    }
    if (batch->empty()) break;
    if (alarms_counter_ != nullptr) alarms_counter_->Set(alarms_.size());
    lock.unlock();
    RunCallbacks(*batch);
    batch->clear();
    lock.lock();
  }
  releasing_ = false;
}

void OrderedSink::Skip(std::uint64_t seq) {
  std::vector<Entry> batch(1);
  batch[0].completion.global_seq = seq;
  batch[0].shed = true;
  Deposit(&batch);
}

void OrderedSink::RunCallbacks(const std::vector<Entry>& released) {
  for (const Entry& entry : released) {
    if (alarm_callback)
      for (const core::Alarm& alarm : entry.alarms) alarm_callback(alarm);
    if (history_callback)
      for (const history::HistoryRecord& record : entry.records)
        history_callback(record);
    if (completion_callback) completion_callback(entry.completion);
    // Only sampled frames carry an admission timestamp (0 = unsampled),
    // which keeps the clock reads off the common per-frame path.
    if (latency_us_ != nullptr && entry.completion.admit_us != 0)
      latency_us_->Record(obs::MonotonicMicros() - entry.completion.admit_us);
  }
}

void OrderedSink::AppendUnsequenced(
    std::vector<core::Alarm> alarms,
    std::vector<history::HistoryRecord> records) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Only legal after the drain barrier.
    NAVARCHOS_CHECK(window_.empty() && !releasing_);
    alarms_.insert(alarms_.end(), alarms.begin(), alarms.end());
    if (alarms_counter_ != nullptr) alarms_counter_->Set(alarms_.size());
  }
  if (alarm_callback)
    for (const core::Alarm& alarm : alarms) alarm_callback(alarm);
  if (history_callback)
    for (const history::HistoryRecord& record : records)
      history_callback(record);
}

std::vector<core::Alarm> OrderedSink::released() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alarms_;
}

std::size_t OrderedSink::alarms_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alarms_.size();
}

std::uint64_t OrderedSink::next_release() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.front();
}

std::uint64_t OrderedSink::frames_released() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_released_;
}

void OrderedSink::Save(persist::Encoder& encoder) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The checkpoint barrier already passed.
  NAVARCHOS_CHECK(window_.empty() && !releasing_);
  encoder.PutU64(window_.front());
  encoder.PutU64(frames_released_);
  encoder.PutU64(alarms_.size());
  for (const core::Alarm& alarm : alarms_) core::SaveAlarm(encoder, alarm);
}

bool OrderedSink::Restore(persist::Decoder& decoder) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t next_release = decoder.GetU64();
  const std::uint64_t frames_released = decoder.GetU64();
  const std::uint64_t alarm_count = decoder.GetU64();
  if (!decoder.ok()) return false;
  if (frames_released > next_release) {
    decoder.Fail("sink released more frames than sequence numbers");
    return false;
  }
  if (alarm_count > decoder.remaining() / core::kMinAlarmBytes) {
    decoder.Fail("sink alarm count exceeds payload size");
    return false;
  }
  window_.Reset(next_release);
  frames_released_ = frames_released;
  if (alarms_counter_ != nullptr) alarms_counter_->Set(alarm_count);
  alarms_.clear();
  alarms_.reserve(static_cast<std::size_t>(alarm_count));
  for (std::uint64_t i = 0; i < alarm_count; ++i) {
    core::Alarm alarm;
    if (!core::RestoreAlarm(decoder, &alarm)) return false;
    alarms_.push_back(std::move(alarm));
  }
  return decoder.ok();
}

void OrderedSink::AttachMetrics(obs::Counter* alarms_emitted,
                                obs::Histogram* admission_to_release_us) {
  std::lock_guard<std::mutex> lock(mu_);
  alarms_counter_ = alarms_emitted;
  latency_us_ = admission_to_release_us;
}

}  // namespace navarchos::service
