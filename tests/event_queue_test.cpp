#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
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

TEST(EventQueue, TierSpanningInterleavingMatchesReferenceModel) {
  // The reference model of the test above, with times that reach every tier
  // of the queue: each push or re-key lands log-uniformly 1 us .. 2^43 ns
  // after the last popped time (an L0 span is 2^32 ns, an L1 span 2^42 ns,
  // anything further is overflow), some exactly on an L0 bucket or L0 span
  // boundary, and some on the time of a pending event that was filed while
  // that time was still far away, so equal-time events reach the heap
  // through different tiers and must still fire FIFO. Growth and drain
  // phases alternate, so the queue fills up and also runs down to its far
  // events, which makes the clock jump across spans.
  constexpr int kBucketBits = EventQueue::kBucketShift;
  constexpr int kSpanBits = kBucketBits + EventQueue::kLevelBits;
  constexpr int kL1SpanBits = kSpanBits + EventQueue::kLevelBits;
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t, seq)
  std::multimap<Key, int> ref;
  std::vector<EventId> ids;                       // by payload
  std::vector<decltype(ref)::iterator> entry;     // by payload
  std::vector<int> live;                          // pending payloads
  std::vector<std::size_t> live_at;               // payload -> index in live
  const auto drop_live = [&](int p) {
    const std::size_t i = live_at[static_cast<std::size_t>(p)];
    live[i] = live.back();
    live_at[static_cast<std::size_t>(live[i])] = i;
    live.pop_back();
  };

  EventQueue q;
  std::mt19937_64 rnd(7);
  std::vector<int> got;
  std::uint64_t seq = 0;
  std::int64_t now = 0;  // time of the last pop
  int by_distance[4] = {0, 0, 0, 0};  // < L0 bucket, < L0 span, < L1 span, more
  int on_boundary = 0, on_pending_time = 0, moved_out = 0, moved_in = 0;
  int span_crossings = 0, l1_span_crossings = 0;
  std::uniform_real_distribution<double> log_delta(
      std::log(1e3), std::log(std::ldexp(1.0, kL1SpanBits + 1)));
  const auto distance_class = [&](std::int64_t t) {
    const std::int64_t d = t - now;
    return d < (std::int64_t{1} << kBucketBits)   ? 0
           : d < (std::int64_t{1} << kSpanBits)   ? 1
           : d < (std::int64_t{1} << kL1SpanBits) ? 2
                                                  : 3;
  };
  const auto draw = [&]() -> std::int64_t {
    const auto kind = rnd() % 16;
    if (kind == 0) {
      ++on_boundary;
      const auto k = static_cast<std::int64_t>(1 + rnd() % 3);
      return ((now >> kBucketBits) + k) << kBucketBits;
    }
    if (kind == 1) {
      ++on_boundary;
      const auto k = static_cast<std::int64_t>(1 + rnd() % 2);
      return ((now >> kSpanBits) + k) << kSpanBits;
    }
    if (kind == 2 && !live.empty()) {
      ++on_pending_time;
      const int p = live[rnd() % live.size()];
      return entry[static_cast<std::size_t>(p)]->first.first;
    }
    const std::int64_t t =
        now + static_cast<std::int64_t>(std::exp(log_delta(rnd)));
    ++by_distance[distance_class(t)];
    return t;
  };

  for (int step = 0; step < 120'000; ++step) {
    const bool growing = (step / 6000) % 2 == 0;
    const auto roll = rnd() % 100;
    const unsigned push_below = growing ? 50 : 20;
    const unsigned cancel_below = push_below + (growing ? 10 : 15);
    const unsigned resched_below = cancel_below + 15;
    if (roll < push_below || q.empty()) {
      const std::int64_t t = draw();
      const int p = static_cast<int>(ids.size());
      ids.push_back(q.push(SimTime::nanos(t), [&got, p] { got.push_back(p); }));
      entry.push_back(ref.emplace(Key{t, seq++}, p));
      live_at.push_back(live.size());
      live.push_back(p);
    } else if (roll < cancel_below) {
      const int p = live[rnd() % live.size()];
      const EventId id = ids[static_cast<std::size_t>(p)];
      ASSERT_TRUE(q.cancel(id));
      // The id is stale at once, in whatever tier the event sat.
      EXPECT_FALSE(q.cancel(id));
      EXPECT_FALSE(q.reschedule(id, SimTime::nanos(now)));
      ref.erase(entry[static_cast<std::size_t>(p)]);
      drop_live(p);
    } else if (roll < resched_below) {
      const int p = live[rnd() % live.size()];
      auto& e = entry[static_cast<std::size_t>(p)];
      const int from = distance_class(e->first.first);
      const std::int64_t t = draw();
      const int to = distance_class(t);
      moved_out += from == 0 && to >= 2;
      moved_in += from >= 2 && to == 0;
      ASSERT_TRUE(
          q.reschedule(ids[static_cast<std::size_t>(p)], SimTime::nanos(t)));
      ref.erase(e);
      e = ref.emplace(Key{t, seq++}, p);
    } else {
      ASSERT_FALSE(ref.empty());
      const auto [key, p] = *ref.begin();
      ASSERT_EQ(q.next_time(), SimTime::nanos(key.first));
      auto fired = q.pop();
      fired.fn();
      ASSERT_EQ(got.back(), p) << "step " << step << " at t=" << key.first;
      EXPECT_EQ(fired.at, SimTime::nanos(key.first));
      EXPECT_FALSE(q.cancel(ids[static_cast<std::size_t>(p)]));
      span_crossings += (key.first >> kSpanBits) != (now >> kSpanBits);
      l1_span_crossings += (key.first >> kL1SpanBits) != (now >> kL1SpanBits);
      now = key.first;
      ref.erase(ref.begin());
      drop_live(p);
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!q.empty()) {
    const int p = ref.begin()->second;
    q.pop().fn();
    ASSERT_EQ(got.back(), p);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
  // Every tier and every kind of move got real traffic.
  for (int c = 0; c < 4; ++c) EXPECT_GT(by_distance[c], 1000) << "class " << c;
  EXPECT_GT(on_boundary, 5000);
  EXPECT_GT(on_pending_time, 1000);
  EXPECT_GT(moved_out, 250);
  EXPECT_GT(moved_in, 1000);
  EXPECT_GT(span_crossings, 2000);
  EXPECT_GT(l1_span_crossings, 200);
}

TEST(EventQueue, LaneInterleavingMatchesReferenceModel) {
  // The reference model once more, now with FIFO-lane traffic: push_fifo
  // at now + d for kLanes + 2 delays (so at times every lane is held and a
  // delay takes the heap path), mixed with ordinary pushes near and far.
  // Some ordinary pushes and re-keys land exactly on a pending lane event's
  // time or on now + d, so lane heads and heap nodes tie and only the
  // sequence number decides. Lane events are cancelled and re-keyed at the
  // head, middle and tail of their delay's queue. size() and next_time()
  // are checked after every step.
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t, seq)
  constexpr std::size_t kDelays = EventQueue::kLanes + 2;
  std::vector<std::int64_t> delays;  // 100 us .. ~100 ms: heap and wheel
  for (std::size_t i = 0; i < kDelays; ++i)
    delays.push_back(std::int64_t{100'000} << (2 * i));
  std::multimap<Key, int> ref;
  std::vector<EventId> ids;                    // by payload
  std::vector<decltype(ref)::iterator> entry;  // by payload
  std::vector<int> lane_of;                    // by payload; -1: ordinary
  std::vector<std::map<Key, int>> fifo(kDelays);  // pending push_fifo events
  std::vector<int> live;
  std::vector<std::size_t> live_at;
  // Forget a payload that leaves the queue; call it before erasing the
  // payload's entry in `ref`, whose key it reads.
  const auto drop = [&](int p) {
    const auto up = static_cast<std::size_t>(p);
    if (lane_of[up] >= 0)
      fifo[static_cast<std::size_t>(lane_of[up])].erase(entry[up]->first);
    const std::size_t i = live_at[up];
    live[i] = live.back();
    live_at[static_cast<std::size_t>(live[i])] = i;
    live.pop_back();
  };

  EventQueue q;
  std::mt19937_64 rnd(99);
  std::vector<int> got;
  std::uint64_t seq = 0;
  std::int64_t now = 0;  // time of the last pop
  int lane_pushes = 0, ties = 0, popped_from_fifo = 0;
  int lane_cancels[3] = {0, 0, 0};   // head, middle, tail
  int lane_rekeys[3] = {0, 0, 0};
  std::uniform_real_distribution<double> log_delta(std::log(1e3),
                                                   std::log(1e10));
  const auto add = [&](std::int64_t t, int lane, EventId id) {
    const int p = static_cast<int>(ids.size());
    ids.push_back(id);
    entry.push_back(ref.emplace(Key{t, seq++}, p));
    lane_of.push_back(lane);
    if (lane >= 0)
      fifo[static_cast<std::size_t>(lane)].emplace(entry.back()->first, p);
    live_at.push_back(live.size());
    live.push_back(p);
  };
  const auto record = [&got](int p) { return [&got, p] { got.push_back(p); }; };
  // A time for an ordinary push or re-key.
  const auto draw = [&]() -> std::int64_t {
    const auto kind = rnd() % 8;
    if (kind < 2) {
      // On a pending lane event's time, or on now + d.
      const auto& lane = fifo[rnd() % kDelays];
      ++ties;
      if (kind == 0 && !lane.empty()) {
        auto it = lane.begin();
        std::advance(it, static_cast<long>(rnd() % lane.size()));
        return it->first.first;
      }
      return now + delays[rnd() % kDelays];
    }
    return now + static_cast<std::int64_t>(std::exp(log_delta(rnd)));
  };
  // Where `p` sits in its delay's queue: 0 head, 1 middle, 2 tail.
  const auto position = [&](int p) {
    const auto& lane = fifo[static_cast<std::size_t>(
        lane_of[static_cast<std::size_t>(p)])];
    const Key& key = entry[static_cast<std::size_t>(p)]->first;
    return key == lane.begin()->first ? 0 : key == lane.rbegin()->first ? 2 : 1;
  };
  // A live payload, half the time one pushed through push_fifo.
  const auto pick = [&]() {
    int p = live[rnd() % live.size()];
    for (int tries = 0; tries < 8 && rnd() % 2 == 0 &&
                        lane_of[static_cast<std::size_t>(p)] < 0;
         ++tries)
      p = live[rnd() % live.size()];
    return p;
  };

  for (int step = 0; step < 150'000; ++step) {
    const bool growing = (step / 5000) % 2 == 0;
    const auto roll = rnd() % 100;
    const unsigned fifo_below = growing ? 40 : 20;
    const unsigned push_below = fifo_below + (growing ? 12 : 6);
    const unsigned cancel_below = push_below + 10;
    const unsigned rekey_below = cancel_below + 10;
    if (roll < fifo_below || q.empty()) {
      // The first delays are the busy links; the last ones are rare.
      const std::size_t d =
          rnd() % 4 == 0 ? rnd() % kDelays : rnd() % EventQueue::kLanes;
      const std::int64_t t = now + delays[d];
      const int p = static_cast<int>(ids.size());
      add(t, static_cast<int>(d),
          q.push_fifo(SimTime::nanos(t), SimTime::nanos(delays[d]),
                      record(p)));
      ++lane_pushes;
    } else if (roll < push_below) {
      const std::int64_t t = draw();
      const int p = static_cast<int>(ids.size());
      add(t, -1, q.push(SimTime::nanos(t), record(p)));
    } else if (roll < cancel_below) {
      const int p = pick();
      const EventId id = ids[static_cast<std::size_t>(p)];
      if (lane_of[static_cast<std::size_t>(p)] >= 0) ++lane_cancels[position(p)];
      ASSERT_TRUE(q.cancel(id));
      EXPECT_FALSE(q.cancel(id));
      EXPECT_FALSE(q.reschedule(id, SimTime::nanos(now)));
      drop(p);
      ref.erase(entry[static_cast<std::size_t>(p)]);
    } else if (roll < rekey_below) {
      // A re-keyed event leaves its lane for good.
      const int p = pick();
      const auto up = static_cast<std::size_t>(p);
      if (lane_of[up] >= 0) ++lane_rekeys[position(p)];
      const std::int64_t t = draw();
      ASSERT_TRUE(q.reschedule(ids[up], SimTime::nanos(t)));
      drop(p);
      ref.erase(entry[up]);
      entry[up] = ref.emplace(Key{t, seq++}, p);
      lane_of[up] = -1;
      live_at[up] = live.size();
      live.push_back(p);
    } else {
      const auto [key, p] = *ref.begin();
      auto fired = q.pop();
      fired.fn();
      ASSERT_EQ(got.back(), p) << "step " << step << " at t=" << key.first;
      EXPECT_EQ(fired.at, SimTime::nanos(key.first));
      popped_from_fifo += lane_of[static_cast<std::size_t>(p)] >= 0;
      now = key.first;
      drop(p);
      ref.erase(ref.begin());
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.next_time(), ref.empty() ? SimTime::max()
                                         : SimTime::nanos(ref.begin()->first.first))
        << "step " << step;
  }
  while (!q.empty()) {
    const int p = ref.begin()->second;
    q.pop().fn();
    ASSERT_EQ(got.back(), p);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(lane_pushes, 30'000);
  EXPECT_GT(popped_from_fifo, 20'000);
  EXPECT_GT(ties, 5000);
  for (int where = 0; where < 3; ++where) {
    EXPECT_GT(lane_cancels[where], 300) << "position " << where;
    EXPECT_GT(lane_rekeys[where], 300) << "position " << where;
  }
}

TEST(EventQueue, LaneHeadAndHeapNodeTieBySequence) {
  // Equal times, alternately through the heap and a lane: push order alone
  // decides, in both directions.
  EventQueue q;
  std::vector<int> order;
  const SimTime t = SimTime::micros(100);
  const auto label = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  q.push(t, label(0));
  q.push_fifo(t, t, label(1));
  q.push(t, label(2));
  q.push_fifo(t, t, label(3));
  q.push_fifo(t, SimTime::micros(40), label(4));  // another lane, same time
  q.push(t, label(5));
  EXPECT_EQ(q.next_time(), t);
  EXPECT_EQ(q.size(), 6u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, PushFifoFallsBackWhenLanesAreHeldOrOrderBreaks) {
  // kLanes + 2 distinct delays pending at once: the first kLanes take the
  // lanes, the last two find every lane held and take the heap path. A
  // push earlier than its lane's tail (a clock that went back) takes it
  // too. All fire in (time, sequence) order, and cancel and reschedule work
  // on every path.
  constexpr int kDelays = static_cast<int>(EventQueue::kLanes) + 2;
  EventQueue q;
  std::vector<int> order;
  const auto label = [&order](int i) { return [&order, i] { order.push_back(i); }; };
  std::vector<EventId> ids;  // label i + 1 at 10 * (i + 1) us
  for (int i = 0; i < kDelays; ++i) {
    const SimTime d = SimTime::micros(10 * (i + 1));
    ids.push_back(q.push_fifo(d, d, label(i + 1)));
  }
  const SimTime d10 = SimTime::micros(10);
  q.push_fifo(SimTime::micros(5), d10, label(0));     // before the tail
  q.push_fifo(SimTime::micros(15), d10, label(100));  // joins the lane
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kDelays) + 2);
  EXPECT_EQ(q.next_time(), SimTime::micros(5));
  EXPECT_TRUE(q.cancel(ids[1]));            // laned, 20 us
  EXPECT_TRUE(q.cancel(ids[kDelays - 1]));  // overflowed to the heap
  EXPECT_FALSE(q.cancel(ids[1]));
  // The 10 us lane's head leaves the lane; the event behind it is now head.
  EXPECT_TRUE(q.reschedule(ids[0], SimTime::micros(12)));
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kDelays));
  while (!q.empty()) q.pop().fn();
  std::vector<int> want{0, 1, 100};
  for (int i = 3; i < kDelays; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(EventQueue, WheelBoundaryTimesFireInOrder) {
  // Events on, and one ns either side of, L0 bucket, L0 span and L1 span
  // boundaries, pushed latest first.
  constexpr std::int64_t kBucket = std::int64_t{1} << EventQueue::kBucketShift;
  constexpr std::int64_t kSpan = kBucket << EventQueue::kLevelBits;
  constexpr std::int64_t kL1Span = kSpan << EventQueue::kLevelBits;
  std::vector<std::int64_t> times;
  for (std::int64_t edge : {kBucket, 2 * kBucket, 3 * kBucket, kSpan,
                            5 * kSpan, kL1Span, 3 * kL1Span})
    for (std::int64_t d : {-1, 0, 1}) times.push_back(edge + d);
  EventQueue q;
  std::vector<std::int64_t> fired;
  for (auto it = times.rbegin(); it != times.rend(); ++it)
    q.push(SimTime::nanos(*it), [&fired, t = *it] { fired.push_back(t); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, times);
}

TEST(EventQueue, CrossTierMovesAndEqualTimesKeepFifoOrder) {
  constexpr std::int64_t kBucket = std::int64_t{1} << EventQueue::kBucketShift;
  constexpr std::int64_t kSpan = kBucket << EventQueue::kLevelBits;
  constexpr std::int64_t kL1Span = kSpan << EventQueue::kLevelBits;
  EventQueue q;
  std::vector<int> order;
  const auto at = [&](std::int64_t t, int label) {
    return q.push(SimTime::nanos(t),
                  [&order, label] { order.push_back(label); });
  };
  const std::int64_t t_far = 5 * kSpan + 12'345;  // L1 from a cursor at 0
  const std::int64_t t_over = kL1Span + 99;       // overflow
  const EventId near = at(100, 2);  // the first push opens bucket 0
  at(200, 3);
  at(t_far, 0);
  const EventId over = at(t_over, 1);
  at(t_over, 4);
  EXPECT_TRUE(q.reschedule(near, SimTime::nanos(t_far)));  // near -> L1
  EXPECT_TRUE(q.reschedule(over, SimTime::nanos(150)));    // overflow -> near
  const EventId l0 = at(3 * kBucket + 7, 5);
  EXPECT_TRUE(q.reschedule(l0, SimTime::nanos(2 * kBucket)));  // L0 -> L0

  // Cancelling wheel events frees them at once.
  const EventId gone_l0 = at(7 * kBucket, 90);
  const EventId gone_l1 = at(3 * kSpan, 91);
  const EventId gone_over = at(2 * kL1Span, 92);
  EXPECT_EQ(q.size(), 9u);
  for (EventId id : {gone_l0, gone_l1, gone_over}) {
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.reschedule(id, SimTime::nanos(300)));
  }
  EXPECT_EQ(q.size(), 6u);

  const auto pop_through = [&](std::int64_t t) {
    while (!q.empty() && q.next_time() <= SimTime::nanos(t)) q.pop().fn();
  };
  pop_through(2 * kBucket);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  // Bring t_far's bucket into the heap, then add an equal-time event that
  // goes straight to the heap: it fires after the two that came through L1.
  at(t_far - 1, 6);
  pop_through(t_far - 1);
  at(t_far, 7);
  pop_through(t_far);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 6, 0, 2, 7}));
  // Same for t_over, whose first event came through the overflow list.
  at(kL1Span, 8);
  pop_through(kL1Span);
  at(t_over, 9);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 6, 0, 2, 7, 8, 4, 9}));
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
