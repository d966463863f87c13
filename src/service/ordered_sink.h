// OrderedSink: the deterministic total order of a service's output.
//
// Pumps complete frames in whatever order the workers run them; the sink
// puts each completion into a runtime::SequenceWindow under its release
// sequence number and releases the contiguous prefix, so alarms, history
// records and completion notices leave in sequence order, no matter how
// the pumps interleave. A standalone FleetService owns one, keyed by its
// global ingest seq. A shard::ShardGroup owns one for the whole fleet,
// keyed by fleet seq, and every shard's pumps deposit into it - the same
// way every shard borrows the group's pool - so a sharded fleet is ordered
// once, by the same code.
//
// Release: pumps deposit a whole batch under one lock acquisition; the
// depositor that finds no release in progress becomes the releaser and
// runs the callbacks outside the lock, one ready prefix at a time, until
// the window's front is not ready. So callbacks keep their total order and
// never overlap, yet a slow callback stalls only the release, never the
// pumps.
//
// A frame shed after it took a sequence number (a sharded client numbers
// frames before a shard admits them) would leave a hole that the release
// waits on forever; Skip fills that seq with an entry that releases
// nothing.
#ifndef NAVARCHOS_SERVICE_ORDERED_SINK_H_
#define NAVARCHOS_SERVICE_ORDERED_SINK_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "core/monitor.h"
#include "history/history_log.h"
#include "obs/metrics.h"
#include "persist/codec.h"
#include "runtime/sequence_window.h"

/// \file
/// \brief OrderedSink, the release stage that turns out-of-order frame
/// completions back into one deterministic total order.

namespace navarchos::service {

/// One frame's completion notice, delivered in release order.
struct FrameCompletion {
  /// Sequence number the frame releases under: its global ingest seq, or,
  /// on a shard of a group, its fleet seq.
  std::uint64_t global_seq = 0;
  std::uint64_t vehicle_seq = 0;  ///< Per-vehicle sequence number.
  std::int32_t vehicle_id = 0;    ///< Vehicle the frame belonged to.
  std::size_t alarms = 0;         ///< Alarms this frame raised.
  /// Admission time (obs::MonotonicMicros) when the frame was sampled for
  /// the latency histogram, 0 otherwise. Observe-only.
  std::uint64_t admit_us = 0;
};

/// Observer of alarms as the ordered sink releases them (live consumers).
/// Invoked in the deterministic total order on the releasing thread - a
/// pool worker, or the draining thread for end-of-stream flushes - outside
/// the sink lock, and never concurrently with itself or with the other
/// release callbacks. A slow callback delays only the release: pumps keep
/// depositing completions behind it.
using AlarmCallback = std::function<void(const core::Alarm&)>;

/// Observer of per-frame completions in release order; same threading
/// rules as AlarmCallback. Used by the throughput bench to measure
/// per-frame latency.
using CompletionCallback = std::function<void(const FrameCompletion&)>;

/// Observer of history records as the ordered sink releases them: one
/// record per scored sample, in the deterministic total order (same
/// threading rules as AlarmCallback - on the releasing thread, outside the
/// sink lock, never concurrently with itself). The intended target is
/// history::HistoryService::Append, which makes the anomaly log's order
/// equal the sink's release order at any thread or shard count.
using HistoryCallback = std::function<void(const history::HistoryRecord&)>;

/// Reorders completions by sequence number and releases them contiguously.
/// Thread-safe: any number of pumps deposit concurrently.
class OrderedSink {
 public:
  /// One frame's completion and what it releases: its alarms and its
  /// history records (released through the history callback in the same
  /// deterministic order). `completion.admit_us` is the frame's admission
  /// time for sampled frames (0 = unsampled), fed into the
  /// admission-to-release latency histogram when metrics are attached.
  struct Entry {
    FrameCompletion completion;                   ///< Keyed by its global_seq.
    std::vector<core::Alarm> alarms;              ///< Alarms the frame raised.
    std::vector<history::HistoryRecord> records;  ///< One per scored sample.
    /// Fills the seq of a frame that was shed after it took one: it
    /// releases nothing and runs no callback (see Skip).
    bool shed = false;
  };

  /// An empty sink: release cursor 0, no callbacks, no metrics.
  OrderedSink() = default;
  OrderedSink(const OrderedSink&) = delete;
  OrderedSink& operator=(const OrderedSink&) = delete;

  /// Deposits `*batch` (completed frames, any sequence order) under one
  /// lock acquisition and, unless another thread is already releasing,
  /// releases every completion contiguous with the release cursor -
  /// including those other threads deposit meanwhile. `*batch` is
  /// returned empty with its capacity kept (the releaser reuses it as its
  /// release buffer). Each seq is deposited once, at or past the cursor
  /// (CHECK).
  void Deposit(std::vector<Entry>* batch);

  /// Fills `seq` with an entry that releases nothing: the frame that took
  /// it was shed, and the release must not wait for it.
  void Skip(std::uint64_t seq);

  /// Appends alarms/history records that bypass sequencing (the
  /// end-of-stream monitor flushes, which run after the drain barrier,
  /// lane by lane) and runs their callbacks on the calling thread.
  /// Requires nothing pending or being released (CHECK).
  void AppendUnsequenced(std::vector<core::Alarm> alarms,
                         std::vector<history::HistoryRecord> records);

  /// Released alarms in total order; stable only once drained.
  std::vector<core::Alarm>& alarms() { return alarms_; }

  /// Copy of the released alarms (quiescent callers only).
  std::vector<core::Alarm> released() const;

  /// Alarms released so far.
  std::size_t alarms_emitted() const;

  /// The release cursor: the first sequence number not yet released.
  std::uint64_t next_release() const;

  /// Frames released so far. Sequence numbers filled by Skip are not
  /// frames, so next_release() - frames_released() counts them.
  std::uint64_t frames_released() const;

  /// Serialises the release cursor, frames released and released alarms.
  /// Legal only while quiescent (nothing pending, nothing being released),
  /// which the checkpoint barrier guarantees.
  void Save(persist::Encoder& encoder) const;

  /// Restores state saved by Save(). Returns false on malformed input.
  bool Restore(persist::Decoder& decoder);

  /// Wires the released-alarm mirror counter and the admission-to-release
  /// latency histogram (both may be null). Called once by the sink's
  /// owner, before any Deposit; Restore() re-Sets the counter.
  void AttachMetrics(obs::Counter* alarms_emitted,
                     obs::Histogram* admission_to_release_us);

  AlarmCallback alarm_callback;            ///< Optional observer.
  CompletionCallback completion_callback;  ///< Optional observer.
  /// Optional observer. Pumps build history records only while it is set,
  /// so it must be set before the first frame is admitted.
  HistoryCallback history_callback;

 private:
  /// Runs the callbacks and the latency probe of released entries, in
  /// order. Called without mu_, by the one releaser.
  void RunCallbacks(const std::vector<Entry>& released);

  mutable std::mutex mu_;
  /// Completions waiting for release; its front is the release cursor
  /// (the first not-yet-released sequence).
  runtime::SequenceWindow<Entry> window_;
  /// A depositor is running callbacks outside mu_; later depositors
  /// leave the release to it.
  bool releasing_ = false;
  std::vector<core::Alarm> alarms_;
  std::uint64_t frames_released_ = 0;
  obs::Counter* alarms_counter_ = nullptr;  ///< Registry mirror.
  obs::Histogram* latency_us_ = nullptr;    ///< Admission-to-release latency.
};

}  // namespace navarchos::service

#endif  // NAVARCHOS_SERVICE_ORDERED_SINK_H_
