// Property tests: sim::EventQueue is driven through randomized
// Schedule/Cancel/RunNext interleavings next to the naive model in
// reference_event_queue.h and must be observably indistinguishable from
// it — the same labels fired at bit-identical times (FIFO at equal
// timestamps), the same Cancel results and the same Size()/Empty()/
// NextTime() after every operation, with SlotCount() never above the
// live high-water mark. Every downstream bit-identity test leans on this
// ordering contract.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "common/time.h"
#include "reference_event_queue.h"

namespace kairos::sim {
namespace {

/// EventQueue and the reference model under one driver. Every operation
/// is applied to both and every observable compared on the spot.
class QueueUnderTest {
 public:
  struct Handle {
    EventId id;
    std::size_t ref;
  };

  /// Runs inside each firing callback with the event's label and time;
  /// may schedule follow-ups through this driver.
  std::function<void(int label, Time at)> on_fire;

  Handle Schedule(Time at) {
    const int label = next_label_++;
    const EventId id = queue_.Schedule(at, [this, label, at] {
      fired_.push_back(label);
      if (on_fire) on_fire(label, at);
    });
    const std::size_t ref = model_.Schedule(at, label);
    Check();
    return {id, ref};
  }

  bool Cancel(const Handle& h) {
    const bool want = model_.Cancel(h.ref);
    const bool got = queue_.Cancel(h.id);
    EXPECT_EQ(got, want);
    Check();
    return got;
  }

  void RunNext() {
    ASSERT_FALSE(model_.Empty());
    // The model retires its event first, as the queue does before it
    // invokes the callback, so follow-ups see the same live set in both.
    const auto [want_at, want_label] = model_.RunNext();
    const std::size_t before = fired_.size();
    const Time at = queue_.RunNext();
    EXPECT_EQ(at, want_at);  // exact double equality, not near
    ASSERT_EQ(fired_.size(), before + 1);
    EXPECT_EQ(fired_[before], want_label);
    Check();
  }

  void Drain() {
    while (!model_.Empty()) RunNext();
    EXPECT_TRUE(queue_.Empty());
  }

  /// Invariants that must hold after every operation.
  void Check() {
    EXPECT_EQ(queue_.Size(), model_.Size());
    EXPECT_EQ(queue_.Empty(), model_.Empty());
    EXPECT_EQ(queue_.NextTime(), model_.NextTime());
    // Slots are the high-water mark of concurrently live events, never of
    // events ever scheduled.
    high_water_ = std::max(high_water_, model_.Size());
    EXPECT_LE(queue_.SlotCount(), high_water_);
  }

  std::size_t Live() const { return queue_.Size(); }
  std::size_t SlotCount() const { return queue_.SlotCount(); }
  const std::vector<int>& Fired() const { return fired_; }

 private:
  EventQueue queue_;
  reference::ReferenceEventQueue model_;
  std::vector<int> fired_;
  int next_label_ = 0;
  std::size_t high_water_ = 0;
};

TEST(EventQueuePropertyTest, RandomInterleavingsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    QueueUnderTest q;
    std::vector<QueueUnderTest::Handle> live;  // believed still scheduled
    std::vector<QueueUnderTest::Handle> dead;  // cancelled: must no-op
    Time clock = 0.0;                          // loosely advancing base

    for (int op = 0; op < 4000; ++op) {
      const int roll = static_cast<int>(rng() % 100);
      if (roll < 45 || q.Live() == 0) {
        // Schedule. Discrete time grid forces equal-timestamp runs; the
        // far lanes put events far behind the working set, and the past
        // lane schedules before events that already fired.
        Time at = clock + 0.25 * static_cast<Time>(rng() % 16);
        const int lane = static_cast<int>(rng() % 20);
        if (lane == 0) at = clock + 1e6;   // far future
        if (lane == 1) at = clock + 40.0;  // just past the working set
        if (lane == 2) at = clock * 0.5;   // before already-fired events
        live.push_back(q.Schedule(at));
      } else if (roll < 65 && !live.empty()) {
        // Cancel a (probably) live event. Fired events linger in `live`,
        // so this also cancels after firing, which must no-op.
        const std::size_t i = rng() % live.size();
        const QueueUnderTest::Handle h = live[i];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        if (q.Cancel(h)) dead.push_back(h);
      } else if (roll < 75 && !dead.empty()) {
        // Stale cancel — including after the slot was recycled for a
        // newer event.
        EXPECT_FALSE(q.Cancel(dead[rng() % dead.size()]));
      } else {
        q.RunNext();
        clock += 0.125;
      }
    }
    q.Drain();
  }
}

TEST(EventQueuePropertyTest, EqualTimestampBurstsFireFifo) {
  QueueUnderTest q;
  // Three interleaved bursts at identical timestamps: round r schedules
  // labels 8r..8r+7 at t = r % 3.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) q.Schedule(1.0 * (round % 3));
  }
  q.Drain();
  // Every t=0 label in label order, then every t=1, then every t=2.
  std::vector<int> expected;
  for (int t = 0; t < 3; ++t) {
    for (int label = 0; label < 400; ++label) {
      if ((label / 8) % 3 == t) expected.push_back(label);
    }
  }
  EXPECT_EQ(q.Fired(), expected);
}

TEST(EventQueuePropertyTest, GrowShrinkCycleStaysIdentical) {
  // Bulk-schedule 20,000 events on a 1 ms grid (many equal timestamps),
  // then drain them all.
  std::mt19937_64 rng(99);
  QueueUnderTest q;
  for (int i = 0; i < 20000; ++i) {
    q.Schedule(static_cast<Time>(rng() % 1000) * 0.001);
  }
  q.Drain();
  EXPECT_EQ(q.Fired().size(), 20000u);
}

TEST(EventQueuePropertyTest, CascadedReschedulingMatches) {
  // Callbacks that schedule follow-ups (taking the freed slot back under
  // a fresh generation) — the engine's steady-state shape.
  QueueUnderTest q;
  std::vector<int> chain_of;  // label -> chain; labels count up from 0
  const auto schedule = [&](int chain, Time at) {
    chain_of.push_back(chain);
    q.Schedule(at);
  };
  q.on_fire = [&](int label, Time at) {
    const int chain = chain_of[static_cast<std::size_t>(label)];
    if (at < 5.0) schedule(chain, at + 0.5 + 0.01 * chain);
  };
  for (int c = 0; c < 4; ++c) schedule(c, 0.1 * c);
  q.Drain();
  EXPECT_GT(q.Fired().size(), 40u);
  EXPECT_LE(q.SlotCount(), 4u);  // every follow-up reused a freed slot
}

}  // namespace
}  // namespace kairos::sim
