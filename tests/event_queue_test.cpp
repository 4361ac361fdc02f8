#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

namespace ntier::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::millis(30), [&] { order.push_back(3); });
  q.push(SimTime::millis(10), [&] { order.push_back(1); });
  q.push(SimTime::millis(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.push(SimTime::millis(5), [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReflectsEarliestLiveEvent) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::max());
  const EventId early = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.next_time(), SimTime::millis(1));
  EXPECT_TRUE(q.cancel(early));
  EXPECT_EQ(q.next_time(), SimTime::millis(2));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(SimTime::millis(1), [&] { ++fired; });
  q.push(SimTime::millis(2), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel

  const EventId id2 = q.push(SimTime::millis(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id2));  // already fired
  EXPECT_FALSE(q.cancel(999999));  // never existed
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedCancellations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(q.push(SimTime::micros(i), [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  std::size_t fired = 0;
  while (!q.empty()) {
    q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 500u);
}

TEST(EventQueue, StaleIdCannotCancelSlotReuse) {
  // After an event fires (or is cancelled) its id must never resolve again,
  // even when the internal slot is reused by a later push.
  EventQueue q;
  const EventId old1 = q.push(SimTime::millis(1), [] {});
  const EventId old2 = q.push(SimTime::millis(2), [] {});
  q.pop().fn();               // fires old1, releasing its slot
  EXPECT_TRUE(q.cancel(old2));  // releases old2's slot too
  int fired = 0;
  std::vector<EventId> fresh;
  for (int i = 0; i < 4; ++i)
    fresh.push_back(q.push(SimTime::millis(10 + i), [&] { ++fired; }));
  // The stale ids must not touch the reused slots' new occupants.
  EXPECT_FALSE(q.cancel(old1));
  EXPECT_FALSE(q.cancel(old2));
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 4);
  for (EventId id : fresh) EXPECT_FALSE(q.cancel(id));  // all fired
}

TEST(EventQueue, FifoTieOrderSurvivesCancellations) {
  // Cancel every other simultaneous event; the survivors must still fire in
  // their original scheduling order.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(q.push(SimTime::millis(7), [&order, i] { order.push_back(i); }));
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    EXPECT_LT(order[i], order[i + 1]);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
}

TEST(EventQueue, CancelledBacklogDrainsToEmpty) {
  // Cancelling everything must leave the queue observably empty and
  // next_time() at max, with no dead nodes resurfacing on later pushes.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i)
    ids.push_back(q.push(SimTime::micros(i % 50), [] {}));
  for (EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), SimTime::max());
  int fired = 0;
  q.push(SimTime::millis(1), [&] { ++fired; });
  EXPECT_EQ(q.next_time(), SimTime::millis(1));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RandomInterleavingMatchesReferenceModel) {
  // Drive push/cancel/reschedule/pop at scale against a std::multimap
  // reference and require identical fire sequences — the heap +
  // generation-slot machinery must be observationally equivalent to the
  // obvious implementation. The reference models a reschedule as cancel +
  // push of the same payload (a fresh sequence number at the new time).
  EventQueue q;
  std::multimap<std::pair<std::int64_t, std::uint64_t>, int> ref;  // (t, seq)
  std::map<EventId, decltype(ref)::iterator> live;
  std::mt19937_64 rnd(2024);
  std::vector<int> got, want;
  std::uint64_t seq = 0;
  int payload = 0;
  int rescheduled = 0;
  for (int step = 0; step < 200'000; ++step) {
    const auto roll = rnd() % 100;
    if (roll < 45 || q.empty()) {
      const auto t = static_cast<std::int64_t>(rnd() % 1000);
      const int p = payload++;
      const EventId id = q.push(SimTime::micros(t), [&got, p] { got.push_back(p); });
      live.emplace(id, ref.emplace(std::make_pair(t, seq++), p));
    } else if (roll < 60 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rnd() % live.size()));
      EXPECT_TRUE(q.cancel(it->first));
      EXPECT_FALSE(q.cancel(it->first));  // idempotent
      ref.erase(it->second);
      live.erase(it);
    } else if (roll < 75 && !live.empty()) {
      // Re-key to an earlier, equal or later time, relative to the others.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rnd() % live.size()));
      const auto t = static_cast<std::int64_t>(rnd() % 1000);
      ASSERT_TRUE(q.reschedule(it->first, SimTime::micros(t)));
      const int p = it->second->second;
      ref.erase(it->second);
      it->second = ref.emplace(std::make_pair(t, seq++), p);
      ++rescheduled;
    } else {
      ASSERT_FALSE(ref.empty());
      EXPECT_EQ(q.next_time(), SimTime::micros(ref.begin()->first.first));
      auto fired = q.pop();
      fired.fn();
      want.push_back(ref.begin()->second);
      // The popped event is no longer cancellable or reschedulable.
      const EventId popped = [&] {
        for (const auto& [id, rit] : live)
          if (rit == ref.begin()) return id;
        return kInvalidEventId;
      }();
      EXPECT_FALSE(q.reschedule(popped, SimTime::micros(5)));
      live.erase(live.find(popped));
      ref.erase(ref.begin());
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.back(), want.back());
    }
    EXPECT_EQ(q.size(), ref.size());
  }
  EXPECT_GT(rescheduled, 10'000);
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
    want.push_back(ref.begin()->second);
    ref.erase(ref.begin());
  }
  EXPECT_EQ(got, want);
}

TEST(EventQueue, StaleOrFiredIdCannotBeRescheduled) {
  EventQueue q;
  int fired = 0;
  const EventId cancelled = q.push(SimTime::millis(1), [&] { ++fired; });
  const EventId popped = q.push(SimTime::millis(2), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_FALSE(q.reschedule(cancelled, SimTime::millis(3)));
  q.pop().fn();
  EXPECT_FALSE(q.reschedule(popped, SimTime::millis(3)));
  EXPECT_FALSE(q.reschedule(kInvalidEventId, SimTime::millis(3)));
  EXPECT_FALSE(q.reschedule(999999, SimTime::millis(3)));  // never existed
  // Both slots are reused by new pushes; the old ids must not move them.
  const EventId fresh1 = q.push(SimTime::millis(10), [&] { ++fired; });
  const EventId fresh2 = q.push(SimTime::millis(11), [&] { ++fired; });
  EXPECT_FALSE(q.reschedule(cancelled, SimTime::millis(1)));
  EXPECT_FALSE(q.reschedule(popped, SimTime::millis(1)));
  EXPECT_EQ(q.next_time(), SimTime::millis(10));
  EXPECT_TRUE(q.reschedule(fresh2, SimTime::millis(4)));
  EXPECT_EQ(q.next_time(), SimTime::millis(4));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(q.reschedule(fresh1, SimTime::millis(20)));
}

TEST(EventQueue, RekeyedEventFiresAfterEqualTimeEventsPushedBefore) {
  EventQueue q;
  std::vector<int> order;
  const EventId moved = q.push(SimTime::millis(9), [&] { order.push_back(0); });
  q.push(SimTime::millis(5), [&] { order.push_back(1); });
  q.push(SimTime::millis(5), [&] { order.push_back(2); });
  // Re-keyed earlier, onto an instant that already holds two events: it
  // takes a fresh sequence number, so it lands behind them.
  EXPECT_TRUE(q.reschedule(moved, SimTime::millis(5)));
  // An event pushed after the re-key comes after it again.
  q.push(SimTime::millis(5), [&] { order.push_back(3); });
  // Re-keying to its current time also moves it behind equal-time peers.
  const EventId same = q.push(SimTime::millis(7), [&] { order.push_back(4); });
  q.push(SimTime::millis(7), [&] { order.push_back(5); });
  EXPECT_TRUE(q.reschedule(same, SimTime::millis(7)));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 5, 4}));
}

TEST(EventQueue, RescheduleIsNotCountedAsScheduling) {
  EventQueue q;
  const EventId id = q.push(SimTime::millis(1), [] {});
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.reschedule(id, SimTime::millis(i)));
  EXPECT_EQ(q.total_scheduled(), 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, TotalScheduledCountsEveryPush) {
  EventQueue q;
  EXPECT_EQ(q.total_scheduled(), 0u);
  const EventId a = q.push(SimTime::millis(1), [] {});
  q.push(SimTime::millis(2), [] {});
  q.cancel(a);
  q.pop();
  q.push(SimTime::millis(3), [] {});
  EXPECT_EQ(q.total_scheduled(), 3u);  // cancels/pops don't rewind it
}

}  // namespace
}  // namespace ntier::sim
