// Tests for arrival-trace recording, strict CSV round-trip and open-loop
// replay (streaming scheduling, abandonment, retransmit exhaustion).
#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "experiment/experiment.h"
#include "experiment/summary.h"
#include "test_util.h"
#include "workload/client.h"

namespace ntier::workload {
namespace {

using sim::SimTime;
using sim::Simulation;

/// A front-end that answers every request after 1 ms.
class InstantFe : public proto::FrontEnd {
 public:
  explicit InstantFe(Simulation& simu) : sim_(simu) {}
  bool try_submit(const proto::RequestPtr& req, RespondFn respond) override {
    last_key = req->key;
    last_priority = req->priority;
    sim_.after(SimTime::millis(1),
               [req, respond = std::move(respond)] { respond(req, true); });
    return true;
  }
  std::uint64_t last_key = 0;
  std::uint8_t last_priority = 0;

 private:
  Simulation& sim_;
};

/// A front-end whose backlog is always full (every SYN silently dropped).
class RefusingFe : public proto::FrontEnd {
 public:
  bool try_submit(const proto::RequestPtr&, RespondFn) override {
    ++attempts;
    return false;
  }
  std::uint64_t attempts = 0;
};

/// A front-end that accepts but never responds (a hung server).
class BlackholeFe : public proto::FrontEnd {
 public:
  bool try_submit(const proto::RequestPtr&, RespondFn) override {
    return true;
  }
};

TEST(ArrivalTrace, CsvRoundTrip) {
  ArrivalTrace trace;
  trace.add(SimTime::from_millis(12.5), 3, 7);
  trace.add(SimTime::seconds(2), 1, 0);
  std::stringstream ss;
  trace.save(ss);
  const auto loaded = ArrivalTrace::load(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].at, SimTime::from_millis(12.5));
  EXPECT_EQ(loaded.events()[0].client, 3u);
  EXPECT_EQ(loaded.events()[0].interaction, 7);
  EXPECT_EQ(loaded.events()[1].at, SimTime::seconds(2));
  EXPECT_FALSE(loaded.rich());
}

TEST(ArrivalTrace, SaveLoadSaveIsByteIdentical) {
  // The regression: default ostream formatting wrote 6 significant digits,
  // so past t=1000 s a saved-then-loaded trace shifted arrival times at the
  // millisecond level and the round trip was not byte-stable.
  ArrivalTrace trace;
  trace.add(SimTime::nanos(1), 0, 1);
  trace.add(SimTime::from_seconds(1234.567891234), 70'000, 23);
  trace.add(SimTime::from_seconds(86'399.999999999), 4'000'000'000u, 5);
  std::stringstream first;
  trace.save(first);
  auto loaded = ArrivalTrace::load(first);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(loaded.events()[i].at, trace.events()[i].at) << "row " << i;
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());
}

/// The writer the chunked std::to_chars save replaced: default ostream
/// formatting of every field.
std::string stream_formatted(const ArrivalTrace& trace) {
  std::ostringstream os;
  os << (trace.rich() ? "at_ns,client,interaction,key,priority"
                      : "at_ns,client,interaction")
     << '\n';
  for (const auto& e : trace.events()) {
    os << e.at.ns() << ',' << e.client << ',' << e.interaction;
    if (trace.rich())
      os << ',' << e.key << ',' << static_cast<unsigned>(e.priority);
    os << '\n';
  }
  return os.str();
}

TEST(ArrivalTrace, SaveMatchesStreamFormatting) {
  ArrivalTrace lean, rich;
  lean.add(SimTime::zero(), 0, 0);
  lean.add(SimTime::max(), UINT32_MAX, UINT16_MAX);
  rich.add_rich(SimTime::zero(), 0, 0, 0, 0);
  rich.add_rich(SimTime::max(), UINT32_MAX, UINT16_MAX, UINT64_MAX, 2);
  // Enough mixed-width rows to cross many output chunks.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000; ++i) {
    x = sim::Rng::mix64(x);
    const auto at =
        SimTime::nanos(static_cast<std::int64_t>(x >> (1 + x % 63)));
    const auto client = static_cast<std::uint32_t>(x >> (32 + x % 32));
    const auto interaction = static_cast<std::uint16_t>(x % 24);
    lean.add(at, client, interaction);
    rich.add_rich(at, client, interaction, x >> (x % 61),
                  static_cast<std::uint8_t>(x % 3));
  }
  for (const ArrivalTrace* trace : {&lean, &rich}) {
    SCOPED_TRACE(trace->rich() ? "rich" : "lean");
    std::ostringstream first;
    trace->save(first);
    EXPECT_EQ(first.str(), stream_formatted(*trace));
    const auto parsed = ArrivalTrace::parse(first.str());
    EXPECT_EQ(parsed.rich(), trace->rich());
    std::ostringstream second;
    parsed.save(second);
    EXPECT_EQ(second.str(), first.str());
  }
}

TEST(ArrivalTrace, RichSchemaRoundTripsKeysAndPriorities) {
  ArrivalTrace trace;
  trace.add_rich(SimTime::millis(5), 12, 3, 0xDEADBEEFCAFEull, 0);
  trace.add_rich(SimTime::millis(9), 13, 4, 17, 2);
  EXPECT_TRUE(trace.rich());
  std::stringstream ss;
  trace.save(ss);
  EXPECT_NE(ss.str().find("at_ns,client,interaction,key,priority"),
            std::string::npos);
  const auto loaded = ArrivalTrace::load(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.rich());
  EXPECT_EQ(loaded.events()[0].key, 0xDEADBEEFCAFEull);
  EXPECT_EQ(loaded.events()[0].priority, 0);
  EXPECT_EQ(loaded.events()[1].key, 17u);
  EXPECT_EQ(loaded.events()[1].priority, 2);
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(ss.str(), again.str());
}

TEST(ArrivalTrace, LegacyV1SecondsHeaderStillLoads) {
  std::stringstream legacy("at_s,client,interaction\n0.5,7,3\n2,1,0\n");
  const auto loaded = ArrivalTrace::load(legacy);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].at, SimTime::from_millis(500));
  EXPECT_EQ(loaded.events()[0].client, 7u);
  EXPECT_EQ(loaded.events()[1].at, SimTime::seconds(2));
  EXPECT_FALSE(loaded.rich());
}

TEST(ArrivalTrace, LoadRejectsGarbage) {
  auto rejects = [](const std::string& text) {
    EXPECT_THROW(ArrivalTrace::parse(text), std::invalid_argument) << text;
  };
  rejects("");                                    // missing header
  rejects("1,2,3\n");                             // unknown header
  rejects("at_ns,client,interaction\n500,7\n");   // short row
  rejects("at_ns,client,interaction\n1,2,3,4\n"); // long row
  rejects("at_ns,client,interaction\n1.5,2,3\n"); // fractional at_ns
  rejects("at_ns,client,interaction\n-1,2,3\n");  // negative time
  rejects("at_s,client,interaction\n1.5abc,2,3\n");  // stod-era garbage
  rejects("at_s,client,interaction\nnan,2,3\n");
  // uint16-cast-era silent truncation: ids out of range now fail loudly.
  rejects("at_ns,client,interaction\n1,4294967296,3\n");  // client > u32
  rejects("at_ns,client,interaction\n1,2,65536\n");       // interaction > u16
  rejects("at_ns,client,interaction,key,priority\n1,2,3,4,9\n");  // bad class
}

TEST(ArrivalTrace, ParseErrorsNameOriginRowAndColumn) {
  try {
    ArrivalTrace::parse("at_ns,client,interaction\n5,1,0\nx,1,0\n", "day.csv");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("day.csv:3:1"), std::string::npos) << what;
  }
  try {
    ArrivalTrace::parse("at_ns,client,interaction\n5,1,99999\n", "day.csv");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("day.csv:2:3"), std::string::npos) << what;
  }
}

TEST(ArrivalTrace, FileRoundTripViaMmapLoader) {
  ArrivalTrace trace;
  trace.add_rich(SimTime::from_seconds(2000.123456789), 99'999, 11, 42, 1);
  trace.add_rich(SimTime::from_seconds(2000.123456789), 100'000, 12, 43, 2);
  const std::string path =
      ::testing::TempDir() + "/ntier_trace_roundtrip.csv";
  trace.save_file(path);
  const auto loaded = ArrivalTrace::load_file(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.events()[0].at, trace.events()[0].at);
  EXPECT_EQ(loaded.events()[1].key, 43u);
  std::stringstream a, b;
  trace.save(a);
  loaded.save(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_THROW(ArrivalTrace::load_file(path + ".does-not-exist"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(ArrivalTrace, SortAndScale) {
  ArrivalTrace trace;
  trace.add(SimTime::seconds(2), 0, 0);
  trace.add(SimTime::seconds(1), 1, 1);
  EXPECT_FALSE(trace.sorted());
  trace.sort();
  EXPECT_TRUE(trace.sorted());
  EXPECT_EQ(trace.events()[0].client, 1u);
  trace.scale_time(0.5);
  EXPECT_EQ(trace.events()[0].at, SimTime::from_millis(500));
  EXPECT_EQ(trace.events()[1].at, SimTime::seconds(1));
  EXPECT_THROW(trace.scale_time(0.0), std::invalid_argument);
  EXPECT_THROW(trace.scale_time(-2.0), std::invalid_argument);
  EXPECT_THROW(trace.scale_time(std::nan("")), std::invalid_argument);
  EXPECT_THROW(trace.scale_time(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Recorder, ClientPopulationHookCapturesEveryIssue) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFe fe(s);

  ClientParams p;
  p.num_clients = 20;
  p.think_mean = SimTime::millis(100);
  p.ramp = SimTime::millis(100);
  ClientPopulation clients(s, p, w, {&fe}, log);

  ArrivalTrace trace;
  clients.set_issue_hook([&](SimTime at, const proto::Request& req) {
    trace.add_rich(at, req.client, req.interaction, req.key, req.priority);
  });
  clients.start();
  s.run_until(SimTime::seconds(2));
  EXPECT_EQ(trace.size(), clients.issued());
  EXPECT_TRUE(trace.rich());
  // Recording order is already chronological.
  EXPECT_TRUE(trace.sorted());
}

TEST(Replay, ReproducesTheRecordedMixExactly) {
  // Record a closed-loop run, then replay it open-loop against a fresh
  // instant front-end: same arrival count and identical interaction mix.
  Simulation rec_sim(5);
  RubbosWorkload w;
  metrics::RequestLog rec_log;
  InstantFe rec_fe(rec_sim);
  ClientParams p;
  p.num_clients = 50;
  p.think_mean = SimTime::millis(50);
  p.ramp = SimTime::millis(50);
  ClientPopulation clients(rec_sim, p, w, {&rec_fe}, rec_log);
  ArrivalTrace trace;
  clients.set_issue_hook([&](SimTime at, const proto::Request& req) {
    trace.add(at, req.client, req.interaction);
  });
  clients.start();
  rec_sim.run_until(SimTime::seconds(3));

  std::map<std::uint16_t, int> recorded_mix;
  for (const auto& e : trace.events()) ++recorded_mix[e.interaction];

  Simulation rep_sim(99);  // different seed: only demands differ
  metrics::RequestLog rep_log(SimTime::millis(50), /*keep_records=*/true);
  InstantFe rep_fe(rep_sim);
  TraceReplayer replayer(rep_sim, trace, w, {&rep_fe}, rep_log);
  replayer.start();
  rep_sim.run_until(SimTime::seconds(4));

  EXPECT_EQ(replayer.issued(), trace.size());
  EXPECT_EQ(replayer.completed_ok(), trace.size());
  EXPECT_EQ(replayer.in_flight(), 0u);
  std::map<std::uint16_t, int> replayed_mix;
  for (const auto& r : rep_log.records()) ++replayed_mix[r.interaction];
  EXPECT_EQ(recorded_mix, replayed_mix);
}

TEST(Replay, RichTraceStampsRecordedKeyAndPriority) {
  WorkloadParams wp;
  wp.key_space = 1000;  // the generator would draw its own keys...
  RubbosWorkload w(wp);
  ArrivalTrace trace;
  trace.add_rich(SimTime::millis(1), 0, 3, 777'777, 2);

  Simulation s(1);
  metrics::RequestLog log(SimTime::millis(50), /*keep_records=*/true);
  InstantFe fe(s);
  TraceReplayer replayer(s, trace, w, {&fe}, log);
  replayer.start();
  s.run_until(SimTime::seconds(1));
  // ...but the rich trace's recorded key/priority win.
  EXPECT_EQ(fe.last_key, 777'777u);
  EXPECT_EQ(fe.last_priority, 2);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].priority, 2);
}

TEST(Replay, EmptyTraceIsANoOp) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFe fe(s);
  ArrivalTrace trace;
  TraceReplayer replayer(s, trace, w, {&fe}, log);
  replayer.start();
  s.run_until(SimTime::seconds(1));
  EXPECT_EQ(replayer.issued(), 0u);
  EXPECT_EQ(replayer.in_flight(), 0u);
  EXPECT_EQ(log.completed(), 0);
}

TEST(Replay, RejectsUnsortedTraceAndEventsInThePast) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFe fe(s);

  ArrivalTrace unsorted;
  unsorted.add(SimTime::seconds(2), 0, 0);
  unsorted.add(SimTime::seconds(1), 1, 1);
  EXPECT_THROW(TraceReplayer(s, unsorted, w, {&fe}, log),
               std::invalid_argument);

  ArrivalTrace trace;
  trace.add(SimTime::millis(500), 0, 0);
  s.after(SimTime::seconds(1), [] {});
  s.run_until(SimTime::seconds(1));  // now = 1 s > first arrival
  TraceReplayer late(s, trace, w, {&fe}, log);
  EXPECT_THROW(late.start(), std::logic_error);

  Simulation s2;
  TraceReplayer no_fes_check(s2, trace, w, {&fe}, log);
  no_fes_check.start();
  EXPECT_THROW(no_fes_check.start(), std::logic_error);  // double start
  EXPECT_THROW(TraceReplayer(s2, trace, w, {}, log), std::invalid_argument);
}

TEST(Replay, RetransmitExhaustionCountsAsDropped) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log(SimTime::millis(50), /*keep_records=*/true);
  RefusingFe fe;
  ArrivalTrace trace;
  trace.add(SimTime::millis(1), 0, 0);
  trace.add(SimTime::millis(2), 1, 1);
  ReplayParams params;
  params.retransmit = net::RetransmitSchedule::constant(SimTime::millis(10), 2);
  TraceReplayer replayer(s, trace, w, {&fe}, log, params);
  replayer.start();
  s.run_until(SimTime::seconds(5));
  EXPECT_EQ(replayer.issued(), 2u);
  EXPECT_EQ(replayer.dropped(), 2u);
  EXPECT_EQ(replayer.completed_ok(), 0u);
  EXPECT_EQ(replayer.in_flight(), 0u);
  // initial attempt + 2 retries, per request
  EXPECT_EQ(replayer.connection_drops(), 6u);
  ASSERT_EQ(log.records().size(), 2u);
  for (const auto& r : log.records())
    EXPECT_EQ(r.outcome, metrics::RequestOutcome::kDropped);
}

TEST(Replay, ClientTimeoutAbandonsHungRequests) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log(SimTime::millis(50), /*keep_records=*/true);
  BlackholeFe fe;
  ArrivalTrace trace;
  trace.add(SimTime::millis(1), 0, 0);
  trace.add(SimTime::millis(2), 1, 1);
  ReplayParams params;
  params.client_timeout = SimTime::millis(250);
  TraceReplayer replayer(s, trace, w, {&fe}, log, params);
  replayer.start();
  s.run_until(SimTime::seconds(2));
  EXPECT_EQ(replayer.issued(), 2u);
  EXPECT_EQ(replayer.abandoned(), 2u);
  EXPECT_EQ(replayer.in_flight(), 0u);
  ASSERT_EQ(log.records().size(), 2u);
  for (const auto& r : log.records()) {
    EXPECT_EQ(r.outcome, metrics::RequestOutcome::kDropped);
    // The abandonment is recorded at the moment the client gave up.
    EXPECT_EQ(r.end - r.start, SimTime::millis(250));
  }
}

TEST(Replay, ArrivalsAreStreamedNotQueuedUpFront) {
  // The seed start() dumped every trace event into the queue at t=0; the
  // streaming replayer keeps O(1) pending arrivals regardless of length.
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFe fe(s);
  ArrivalTrace trace;
  for (int i = 0; i < 50'000; ++i)
    trace.add(SimTime::millis(1 + i), static_cast<std::uint32_t>(i), 0);
  TraceReplayer replayer(s, trace, w, {&fe}, log);
  const std::size_t before = s.events_scheduled();
  replayer.start();
  EXPECT_LE(s.events_scheduled(), before + 1);
}

TEST(Replay, OpenLoopAgainstTheFullTestbed) {
  // Build a synthetic constant-rate trace and run it through the real
  // 4A/4T/1M stack (no millibottlenecks) as a first-class config mode:
  // everything completes quickly and the summary reports open-loop counters.
  auto trace = std::make_shared<ArrivalTrace>();
  sim::Rng mix_rng(3);
  RubbosWorkload w;
  for (int i = 0; i < 20'000; ++i) {
    trace->add(SimTime::from_millis(1 + i * 0.4),  // 2 500 req/s
               static_cast<std::uint32_t>(i % 997),
               static_cast<std::uint16_t>(w.next_interaction(mix_rng, -1)));
  }

  auto cfg = experiment::testing::quick_config(
      lb::PolicyKind::kCurrentLoad, lb::MechanismKind::kNonBlocking,
      /*millibottlenecks=*/false, SimTime::seconds(10));
  cfg.replay_trace = trace;
  cfg.warmup = SimTime::zero();
  experiment::Experiment e(std::move(cfg));
  e.run();

  ASSERT_NE(e.replayer(), nullptr);
  EXPECT_EQ(e.replayer()->issued(), 20'000u);
  EXPECT_GT(e.log().completed(), 19'900);
  EXPECT_LT(e.log().mean_response_ms(), 10.0);
  EXPECT_EQ(e.replayer()->connection_drops(), 0u);
  // The idled closed loop issued nothing.
  EXPECT_EQ(e.clients().issued(), 0u);

  const auto summary = experiment::summarize(e);
  EXPECT_TRUE(summary.open_loop);
  EXPECT_EQ(summary.trace_arrivals, 20'000u);
  EXPECT_EQ(summary.replay_abandoned, 0u);
  EXPECT_GT(summary.offered_rps, 1900.0);
}

TEST(Replay, ExperimentModeIsByteDeterministic) {
  auto trace = std::make_shared<ArrivalTrace>();
  sim::Rng mix_rng(7);
  RubbosWorkload w;
  for (int i = 0; i < 2'000; ++i)
    trace->add(SimTime::from_millis(1 + i * 2.0),
               static_cast<std::uint32_t>(i % 311),
               static_cast<std::uint16_t>(w.next_interaction(mix_rng, -1)));

  auto make = [&] {
    auto cfg = experiment::testing::quick_config(
        lb::PolicyKind::kTotalRequest, lb::MechanismKind::kBlocking,
        /*millibottlenecks=*/true, SimTime::seconds(6));
    cfg.replay_trace = trace;
    cfg.replay_client_timeout = SimTime::seconds(8);
    experiment::Experiment e(std::move(cfg));
    e.run();
    return experiment::summarize(e).to_json_string();
  };
  EXPECT_EQ(make(), make());
}

}  // namespace
}  // namespace ntier::workload
