// OrderedSink: completions deposited from many threads in any order leave
// in sequence order, a seq filled by Skip (a shed frame's) releases
// nothing and never stalls the release, and Save / Restore carry the
// release cursor, the frames released and the released alarms.
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/codec.h"
#include "service/ordered_sink.h"

namespace navarchos::service {
namespace {

OrderedSink::Entry FrameEntry(std::uint64_t seq, bool alarm) {
  OrderedSink::Entry entry;
  entry.completion.global_seq = seq;
  entry.completion.vehicle_id = static_cast<std::int32_t>(seq % 7);
  if (alarm) {
    core::Alarm a;
    a.vehicle_id = entry.completion.vehicle_id;
    a.timestamp = static_cast<std::int64_t>(seq);
    entry.alarms.push_back(a);
    entry.completion.alarms = 1;
  }
  return entry;
}

TEST(OrderedSinkTest, SkippedSeqsReleaseNothingAndNeverStallTheRelease) {
  // Four depositors put every seq that is not a multiple of 5, in reverse
  // order and small batches; a fifth thread skips the multiples of 5. The
  // release must still reach the end, with one completion per frame, in
  // order, and none for a skipped seq.
  constexpr std::uint64_t kSeqs = 20000;
  constexpr int kDepositors = 4;
  OrderedSink sink;
  std::vector<std::uint64_t> completed;
  std::vector<core::Alarm> alarms;
  sink.completion_callback = [&completed](const FrameCompletion& completion) {
    completed.push_back(completion.global_seq);
  };
  sink.alarm_callback = [&alarms](const core::Alarm& alarm) {
    alarms.push_back(alarm);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kDepositors; ++t) {
    threads.emplace_back([&sink, t] {
      std::vector<OrderedSink::Entry> batch;
      for (std::uint64_t seq = kSeqs; seq-- > 0;) {
        if (seq % 5 == 0 || seq % kDepositors != static_cast<std::uint64_t>(t))
          continue;
        batch.push_back(FrameEntry(seq, seq % 3 == 0));
        if (batch.size() == 16) sink.Deposit(&batch);
      }
      sink.Deposit(&batch);
    });
  }
  threads.emplace_back([&sink] {
    for (std::uint64_t seq = 0; seq < kSeqs; seq += 5) sink.Skip(seq);
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(sink.next_release(), kSeqs);
  EXPECT_EQ(sink.frames_released(), kSeqs - kSeqs / 5);
  ASSERT_EQ(completed.size(), kSeqs - kSeqs / 5);
  std::size_t i = 0;
  for (std::uint64_t seq = 0; seq < kSeqs; ++seq) {
    if (seq % 5 == 0) continue;
    ASSERT_EQ(completed[i++], seq);
  }
  ASSERT_EQ(alarms.size(), sink.alarms_emitted());
  const std::vector<core::Alarm> released = sink.released();
  ASSERT_EQ(released.size(), alarms.size());
  for (std::size_t a = 0; a < alarms.size(); ++a) {
    EXPECT_EQ(released[a].timestamp, alarms[a].timestamp);
    if (a > 0) {
      EXPECT_GT(alarms[a].timestamp, alarms[a - 1].timestamp);
    }
  }
}

TEST(OrderedSinkTest, SaveAndRestoreCarryCursorFramesAndAlarms) {
  OrderedSink sink;
  std::vector<OrderedSink::Entry> batch;
  for (std::uint64_t seq = 0; seq < 10; ++seq)
    if (seq != 4) batch.push_back(FrameEntry(seq, seq % 2 == 1));
  sink.Deposit(&batch);
  sink.Skip(4);
  persist::Encoder saved;
  sink.Save(saved);

  OrderedSink restored;
  persist::Decoder decoder(saved.bytes().data(), saved.bytes().size());
  ASSERT_TRUE(restored.Restore(decoder));
  EXPECT_EQ(restored.next_release(), 10u);
  EXPECT_EQ(restored.frames_released(), 9u);
  EXPECT_EQ(restored.alarms_emitted(), 5u);
  persist::Encoder again;
  restored.Save(again);
  EXPECT_EQ(again.bytes(), saved.bytes());

  // The restored sink releases from its cursor on.
  std::vector<std::uint64_t> completed;
  restored.completion_callback = [&completed](const FrameCompletion& c) {
    completed.push_back(c.global_seq);
  };
  batch.push_back(FrameEntry(11, false));
  batch.push_back(FrameEntry(10, false));
  restored.Deposit(&batch);
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{10, 11}));

  // A state claiming more frames than sequence numbers is refused.
  persist::Encoder bad;
  bad.PutU64(3);
  bad.PutU64(4);
  bad.PutU64(0);
  OrderedSink refused;
  persist::Decoder bad_decoder(bad.bytes().data(), bad.bytes().size());
  EXPECT_FALSE(refused.Restore(bad_decoder));
}

}  // namespace
}  // namespace navarchos::service
