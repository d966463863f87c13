// Reorder window over a dense sequence number: the one mechanism that turns
// out-of-order completions back into their contiguous total order, under
// service::OrderedSink - a standalone service's, and a shard group's, which
// every shard releases through.
//
// Items arrive under their sequence number in any order (Put) and leave
// strictly in sequence order from the front (FrontReady / PopFront), so
// scheduling decides only when an item *arrives*, never when it *leaves*.
// Slots are indexed by `seq - front`.
//
// The window grows on demand instead of assuming a fixed in-flight bound.
// Lane capacities do not bound it: a completed frame leaves its lane while
// it waits for release, so one slow frame at the front (a stalled release
// callback, an inline ensemble fit) lets the rest of the fleet put any
// number of frames behind it. Storage is a deque, so memory follows the
// span between the front and the furthest item held: it grows with a
// backlog and is handed back as the front advances, instead of staying at
// the largest backlog ever seen.
//
// Not thread-safe: the owner's lock guards it, like the rest of the state
// the window sits in.
#ifndef NAVARCHOS_RUNTIME_SEQUENCE_WINDOW_H_
#define NAVARCHOS_RUNTIME_SEQUENCE_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "util/check.h"

/// \file
/// \brief SequenceWindow, the growable reorder window that releases items
/// in contiguous sequence order.

namespace navarchos::runtime {

/// Caller-locked reorder window: items are put under distinct sequence
/// numbers at or past the front, in any order, and popped from the front
/// only while the front's item is present.
template <typename T>
class SequenceWindow {
 public:
  /// Holds `value` under `seq` until the front reaches it. `seq` must be at
  /// or past the front and not already held (CHECK).
  void Put(std::uint64_t seq, T value) {
    NAVARCHOS_CHECK(seq >= front_);
    const std::size_t offset = static_cast<std::size_t>(seq - front_);
    if (offset >= slots_.size()) slots_.resize(offset + 1);
    std::optional<T>& slot = slots_[offset];
    NAVARCHOS_CHECK(!slot.has_value());
    slot.emplace(std::move(value));
  }

  /// True when the front's item is present, i.e. PopFront may be called.
  bool FrontReady() const {
    return !slots_.empty() && slots_.front().has_value();
  }

  /// Removes and returns the front's item and advances the front by one.
  /// Requires FrontReady() (CHECK).
  T PopFront() {
    NAVARCHOS_CHECK(FrontReady());
    T value = std::move(*slots_.front());
    slots_.pop_front();
    ++front_;
    return value;
  }

  /// Drops every held item and moves the front to `front` (a restored
  /// release cursor). A new window is empty with its front at 0.
  void Reset(std::uint64_t front) {
    slots_.clear();
    front_ = front;
  }

  /// The next sequence number PopFront returns.
  std::uint64_t front() const { return front_; }

  /// True when no item is held, ready or not.
  bool empty() const { return slots_.empty(); }

 private:
  /// Slot i holds sequence front_ + i, when present. The last slot is
  /// always present (Put extends the deque only up to the slot it fills),
  /// so an empty deque means an empty window.
  std::deque<std::optional<T>> slots_;
  std::uint64_t front_ = 0;
};

}  // namespace navarchos::runtime

#endif  // NAVARCHOS_RUNTIME_SEQUENCE_WINDOW_H_
