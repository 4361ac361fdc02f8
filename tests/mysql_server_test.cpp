#include "server/mysql_server.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace ntier::server {
namespace {

using sim::SimTime;
using sim::Simulation;

os::NodeConfig plain_node(int cores = 4) {
  os::NodeConfig nc;
  nc.cores = cores;
  nc.pdflush.enabled = false;
  return nc;
}

TEST(MySqlServer, ExecutesQueryOnCpu) {
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  SimTime done;
  db.execute(SimTime::millis(5), [&] { done = s.now(); });
  s.run();
  EXPECT_EQ(done, SimTime::millis(5));
  EXPECT_EQ(db.queries_served(), 1u);
}

TEST(MySqlServer, ResidentGaugeRisesAndFalls) {
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  db.execute(SimTime::millis(5), [] {});
  db.execute(SimTime::millis(5), [] {});
  EXPECT_EQ(db.resident(), 2);
  s.run();
  EXPECT_EQ(db.resident(), 0);
  EXPECT_DOUBLE_EQ(db.queue_trace().global_max(), 2.0);
}

TEST(MySqlServer, ConnectionCapQueuesExcess) {
  Simulation s;
  os::Node node(s, plain_node(1));
  MySqlConfig cfg;
  cfg.max_connections = 2;
  MySqlServer db(s, node, cfg);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i)
    db.execute(SimTime::millis(10), [&] { done.push_back(s.now()); });
  EXPECT_EQ(db.resident(), 3);
  s.run();
  ASSERT_EQ(done.size(), 3u);
  // Two PS-share the single core (finish at 20ms); the third runs alone.
  EXPECT_EQ(done[0].ms(), 20);
  EXPECT_EQ(done[1].ms(), 20);
  EXPECT_EQ(done[2].ms(), 30);
}

TEST(MySqlServer, ManyQueriesAllComplete) {
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  int completed = 0;
  for (int i = 0; i < 200; ++i) {
    s.after(SimTime::micros(100 * i),
            [&] { db.execute(SimTime::micros(500), [&] { ++completed; }); });
  }
  s.run();
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(db.queries_served(), 200u);
  EXPECT_EQ(db.resident(), 0);
}

TEST(MySqlServer, OverlappingQueriesCompleteOnceAndReuseSlots) {
  // Four cores, so each query runs alone on one: q0 (4 ms) and q1 (10 ms)
  // start at 0, q2 (2 ms) at 5 ms, after q0 freed its slot. Then a wave of
  // six queries behind a connection cap of two: every completion starts a
  // waiter in the slot it just freed.
  Simulation s;
  os::Node node(s, plain_node());
  MySqlServer db(s, node);
  std::vector<int> fired(3, 0);
  std::vector<SimTime> done_at(3);
  const auto query = [&](int i, SimTime demand) {
    db.execute(demand, [&, i] {
      ++fired[static_cast<std::size_t>(i)];
      done_at[static_cast<std::size_t>(i)] = s.now();
    });
  };
  query(0, SimTime::millis(4));
  query(1, SimTime::millis(10));
  s.at(SimTime::millis(5), [&] { query(2, SimTime::millis(2)); });
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(done_at, (std::vector<SimTime>{SimTime::millis(4),
                                           SimTime::millis(10),
                                           SimTime::millis(7)}));
  EXPECT_EQ(db.query_slots(), 2u);
  // Latencies 4, 2, 10 ms in completion order, folded with alpha 0.2.
  EXPECT_DOUBLE_EQ(db.latency_ewma_ms(), 0.8 * (0.8 * 4 + 0.2 * 2) + 0.2 * 10);

  Simulation s2;
  os::Node node2(s2, plain_node(1));
  MySqlConfig cfg;
  cfg.max_connections = 2;
  MySqlServer capped(s2, node2, cfg);
  std::vector<int> wave(6, 0);
  for (int i = 0; i < 6; ++i)
    capped.execute(SimTime::millis(1 + i),
                   [&wave, i] { ++wave[static_cast<std::size_t>(i)]; });
  s2.run();
  EXPECT_EQ(wave, std::vector<int>(6, 1));
  EXPECT_EQ(capped.queries_served(), 6u);
  EXPECT_EQ(capped.resident(), 0);
  EXPECT_EQ(capped.query_slots(), 2u);
}

}  // namespace
}  // namespace ntier::server
