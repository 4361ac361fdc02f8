#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace ntier::sim {
namespace {

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation s;
  std::vector<std::int64_t> seen;
  s.after(SimTime::millis(5), [&] { seen.push_back(s.now().ms()); });
  s.after(SimTime::millis(2), [&] { seen.push_back(s.now().ms()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2, 5}));
  EXPECT_EQ(s.now().ms(), 5);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation s;
  int fired = 0;
  s.after(SimTime::seconds(1), [&] { ++fired; });
  s.after(SimTime::seconds(3), [&] { ++fired; });
  s.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), SimTime::seconds(2));  // clock lands on the horizon
  s.run_until(SimTime::seconds(4));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsAtHorizonStillFire) {
  Simulation s;
  int fired = 0;
  s.after(SimTime::seconds(2), [&] { ++fired; });
  s.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, NestedScheduling) {
  Simulation s;
  std::vector<std::int64_t> seen;
  s.after(SimTime::millis(1), [&] {
    seen.push_back(s.now().ms());
    s.after(SimTime::millis(1), [&] { seen.push_back(s.now().ms()); });
  });
  s.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{1, 2}));
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation s;
  s.after(SimTime::millis(10), [&] {
    EXPECT_THROW(s.at(SimTime::millis(5), [] {}), std::logic_error);
  });
  s.run();
}

TEST(Simulation, RunUntilStopsAndResumesAcrossWheelCascades) {
  // Horizons just before and on L0 span (2^32 ns) and L1 span (2^42 ns)
  // boundaries, where the event queue cascades its timing wheel, with
  // events scheduled between the runs for the boundary instants.
  constexpr std::int64_t kSpan =
      std::int64_t{1} << (EventQueue::kBucketShift + EventQueue::kLevelBits);
  constexpr std::int64_t kL1Span = kSpan << EventQueue::kLevelBits;
  Simulation s;
  std::vector<std::int64_t> seen;
  const auto record = [&] { seen.push_back(s.now().ns()); };
  s.at(SimTime::nanos(kSpan), record);
  s.at(SimTime::nanos(kSpan + 1), record);
  s.at(SimTime::nanos(kL1Span), record);
  s.at(SimTime::nanos(3 * kL1Span + 5), record);

  EXPECT_EQ(s.run_until(SimTime::nanos(kSpan - 1)), 0u);
  EXPECT_EQ(s.now(), SimTime::nanos(kSpan - 1));
  // Queued for the boundary after the event already there: fires after it.
  s.at(SimTime::nanos(kSpan), [&] { seen.push_back(-1); });
  EXPECT_EQ(s.run_until(SimTime::nanos(kSpan)), 2u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{kSpan, -1}));

  EXPECT_EQ(s.run_until(SimTime::nanos(kL1Span - 1)), 1u);
  EXPECT_EQ(s.now(), SimTime::nanos(kL1Span - 1));
  s.after(SimTime::nanos(1), [&] {
    seen.push_back(-2);
    s.after(SimTime::nanos(kSpan), record);  // into the next L0 span
  });
  EXPECT_EQ(s.run_until(SimTime::nanos(kL1Span)), 2u);
  EXPECT_EQ(s.now(), SimTime::nanos(kL1Span));

  EXPECT_EQ(s.run(), 2u);
  const std::vector<std::int64_t> want{
      kSpan, -1, kSpan + 1, kL1Span, -2, kL1Span + kSpan, 3 * kL1Span + 5};
  EXPECT_EQ(seen, want);
  EXPECT_FALSE(s.pending());
}

TEST(Simulation, RunUntilStopsAndResumesWithLaneEventsPending) {
  // Two hop chains with fixed delays (after_fixed: FIFO lanes) and
  // ordinary timers, some on the hops' instants, run in pieces: horizons
  // between hops and exactly on them, then stop() with hops still queued.
  // The same scenario with after() in one run is the reference.
  using Seen = std::vector<std::pair<std::int64_t, int>>;
  const auto scenario = [](bool fixed, bool pieces) {
    Simulation s;
    Seen seen;
    std::function<void(int, SimTime, int)> hop = [&](int chain, SimTime d,
                                                     int left) {
      Callback fn = [&, chain, d, left] {
        seen.emplace_back(s.now().ns(), chain);
        if (left > 0) hop(chain, d, left - 1);
      };
      if (fixed)
        s.after_fixed(d, std::move(fn));
      else
        s.after(d, std::move(fn));
    };
    hop(0, SimTime::micros(100), 49);
    hop(1, SimTime::micros(250), 19);
    for (std::int64_t us : {1000, 2500, 2500, 3700})
      s.at(SimTime::micros(us), [&, us] {
        seen.emplace_back(s.now().ns(), -1);
        if (us == 3700) s.stop();
      });
    if (pieces) {
      EXPECT_EQ(s.run_until(SimTime::micros(1050)), 10u + 4u + 1u);
      EXPECT_EQ(s.now(), SimTime::micros(1050));
      EXPECT_TRUE(s.pending());
      // On hops of both chains; chain 0's, pushed last, fires last there.
      s.run_until(SimTime::micros(2500));
      EXPECT_EQ(seen.back(), (std::pair<std::int64_t, int>{2'500'000, 0}));
    }
    s.run();  // stops at 3.7 ms
    EXPECT_EQ(s.now(), SimTime::micros(3700));
    EXPECT_TRUE(s.pending());
    s.run();
    EXPECT_FALSE(s.pending());
    return seen;
  };
  const Seen want = scenario(false, false);
  EXPECT_EQ(want.size(), 50u + 20u + 4u);
  EXPECT_EQ(scenario(true, true), want);
  EXPECT_EQ(scenario(true, false), want);
}

TEST(Simulation, AfterFixedRejectsNegativeDelay) {
  Simulation s;
  EXPECT_THROW(s.after_fixed(SimTime::nanos(-1), [] {}), std::logic_error);
  EXPECT_FALSE(s.pending());
}

TEST(Simulation, StopHaltsTheLoop) {
  Simulation s;
  int fired = 0;
  s.after(SimTime::millis(1), [&] {
    ++fired;
    s.stop();
  });
  s.after(SimTime::millis(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.pending());
}

TEST(Simulation, CancelledEventDoesNotFire) {
  Simulation s;
  int fired = 0;
  const EventId id = s.after(SimTime::millis(1), [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, RescheduledEventFiresAtItsNewTime) {
  Simulation s;
  SimTime fired_at;
  int fired = 0;
  const EventId id = s.after(SimTime::millis(10), [&] {
    ++fired;
    fired_at = s.now();
  });
  s.after(SimTime::millis(2), [&] {
    EXPECT_THROW(s.reschedule(id, SimTime::millis(1)), std::logic_error);
    EXPECT_TRUE(s.reschedule(id, SimTime::millis(4)));
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, SimTime::millis(4));
  EXPECT_FALSE(s.reschedule(id, SimTime::millis(20)));  // already fired
  EXPECT_EQ(s.events_scheduled(), 2u);
}

TEST(Simulation, DeterministicAcrossRunsWithSameSeed) {
  auto trace = [](std::uint64_t seed) {
    Simulation s(seed);
    std::vector<double> draws;
    for (int i = 0; i < 100; ++i)
      s.after(SimTime::millis(i), [&] { draws.push_back(s.rng().uniform01()); });
    s.run();
    return draws;
  };
  EXPECT_EQ(trace(7), trace(7));
  EXPECT_NE(trace(7), trace(8));
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation s;
  for (int i = 0; i < 5; ++i) s.after(SimTime::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
  EXPECT_EQ(s.events_scheduled(), 5u);
}

}  // namespace
}  // namespace ntier::sim
