// Tests for the workload-realism extensions: Markov session structure,
// sticky-session route adoption at the client, and bursty arrivals.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"
#include "workload/client.h"
#include "workload/rubbos.h"

namespace ntier::workload {
namespace {

using sim::SimTime;
using sim::Simulation;

TEST(MarkovSessions, EveryInteractionHasValidSuccessors) {
  RubbosWorkload w;
  for (std::size_t i = 0; i < w.num_interactions(); ++i) {
    const auto& succ = w.successors(i);
    EXPECT_FALSE(succ.empty()) << w.interactions()[i].name;
    for (std::size_t s : succ) EXPECT_LT(s, w.num_interactions());
  }
}

TEST(MarkovSessions, FollowsSuccessorsWhenEnabled) {
  WorkloadParams p;
  p.markov_sessions = true;
  p.p_follow = 1.0;  // always follow
  RubbosWorkload w(p);
  sim::Rng rng(1);
  // From BrowseCategories (2), the only successor is
  // BrowseStoriesByCategory (3).
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(w.next_interaction(rng, 2), 3u);
}

TEST(MarkovSessions, FallsBackToMixWithoutPrev) {
  WorkloadParams p;
  p.markov_sessions = true;
  RubbosWorkload w(p);
  sim::Rng rng(2);
  std::vector<int> seen(w.num_interactions(), 0);
  for (int i = 0; i < 20'000; ++i) ++seen[w.next_interaction(rng, -1)];
  // Mix draw: the most popular read interaction dominates.
  EXPECT_GT(seen[0], seen[13]);
}

TEST(MarkovSessions, BrowseOnlyMixNeverFollowsIntoWrites) {
  WorkloadParams p;
  p.markov_sessions = true;
  p.p_follow = 1.0;
  p.mix = Mix::kBrowseOnly;
  RubbosWorkload w(p);
  sim::Rng rng(3);
  // ViewStory's successors include PostComment (write); the browse-only mix
  // must weight it out.
  for (int i = 0; i < 2'000; ++i) {
    const auto k = w.next_interaction(rng, 5);
    EXPECT_GT(w.interactions()[k].weight_browse, 0.0)
        << w.interactions()[k].name;
  }
}

TEST(MarkovSessions, DisabledIgnoresPrev) {
  RubbosWorkload w;  // markov off
  sim::Rng a(7), b(7);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(w.next_interaction(a, 2), w.next_interaction(b, -1));
}

/// The Markov step as it was before it picked over the successor set in
/// place: a vector of the successors' mix weights through weighted_index.
std::size_t vector_step(const RubbosWorkload& w, sim::Rng& rng, int prev) {
  std::vector<double> weights;
  for (const auto& it : w.interactions())
    weights.push_back(w.params().mix == Mix::kBrowseOnly ? it.weight_browse
                                                         : it.weight_rw);
  if (prev >= 0 && rng.bernoulli(w.params().p_follow)) {
    const auto& succ = w.successors(static_cast<std::size_t>(prev));
    std::vector<double> sw;
    double total = 0;
    for (std::size_t s : succ) {
      sw.push_back(weights[s]);
      total += weights[s];
    }
    if (total > 0) return succ[rng.weighted_index(sw)];
  }
  return rng.weighted_index(weights);
}

TEST(MarkovSessions, InPlaceStepMatchesVectorWeightedIndex) {
  for (const Mix mix : {Mix::kReadWrite, Mix::kBrowseOnly}) {
    SCOPED_TRACE(to_string(mix));
    WorkloadParams p;
    p.markov_sessions = true;
    p.mix = mix;
    RubbosWorkload w(p);
    sim::Rng a(11), b(11);
    int prev = -1;
    for (int i = 0; i < 20'000; ++i) {
      const std::size_t got = w.next_interaction(a, prev);
      ASSERT_EQ(got, vector_step(w, b, prev)) << "step " << i;
      // Restart a session now and then so both branches stay exercised.
      prev = i % 7 == 0 ? -1 : static_cast<int>(got);
    }
    EXPECT_EQ(a.next_u64(), b.next_u64());  // the same number of draws
  }
}

TEST(MarkovSessions, MakeRequestThreadsPrevThrough) {
  WorkloadParams p;
  p.markov_sessions = true;
  p.p_follow = 1.0;
  RubbosWorkload w(p);
  sim::Rng rng(4);
  auto req = w.make_request(rng, 1, 0, /*prev=*/2);
  EXPECT_EQ(req->interaction, 3);
}

// ---------------------------------------------------------------------------

class InstantFrontEnd : public proto::FrontEnd {
 public:
  explicit InstantFrontEnd(Simulation& s) : sim_(s) {}
  bool try_submit(const proto::RequestPtr& req, RespondFn respond) override {
    ++accepted_;
    sim_.after(SimTime::millis(1), [req, respond = std::move(respond)] {
      req->tomcat_id = static_cast<std::int16_t>(req->id % 4);  // fake backend
      respond(req, true);
    });
    return true;
  }
  Simulation& sim_;
  int accepted_ = 0;
};

TEST(StickyClients, AdoptRouteAfterFirstResponse) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log(SimTime::millis(50), /*keep_records=*/true);
  InstantFrontEnd fe(s);
  ClientParams p;
  p.num_clients = 1;
  p.think_mean = SimTime::millis(50);
  p.ramp = SimTime::zero();
  p.sticky_sessions = true;
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(1));
  ASSERT_GE(log.records().size(), 3u);
  // First request has no route; every later one carries the adopted one.
  const auto first_tomcat = log.records()[0].tomcat;
  ASSERT_GE(first_tomcat, 0);
  // (routes are visible via the requests the front-end received)
  // Re-issue check: the fake front-end overwrites tomcat_id per id, so the
  // adopted route changes over time; what matters is that session_route was
  // populated — verified through the balancer-level tests. Here we confirm
  // the client plumbing doesn't crash and keeps completing.
  EXPECT_GT(clients.completed_ok(), 3u);
}

TEST(BurstyClients, BurstPhasesRaiseThroughput) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFrontEnd fe(s);
  ClientParams p;
  p.num_clients = 200;
  p.think_mean = SimTime::millis(200);
  p.ramp = SimTime::millis(200);
  p.bursty = true;
  p.burst_on_mean = SimTime::seconds(2);
  p.burst_off_mean = SimTime::seconds(2);
  p.burst_multiplier = 8.0;
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(20));

  // Compare per-second completion counts: burst seconds should far exceed
  // quiet seconds.
  const auto& rt = log.response_time_series();
  std::vector<double> per_sec(20, 0.0);
  for (std::size_t i = 0; i < rt.num_windows(); ++i)
    per_sec[std::min<std::size_t>(19, i / 20)] += static_cast<double>(rt.count(i));
  double mx = 0, mn = 1e18;
  for (std::size_t k = 1; k < per_sec.size(); ++k) {  // skip ramp second
    mx = std::max(mx, per_sec[k]);
    mn = std::min(mn, per_sec[k]);
  }
  EXPECT_GT(mx, 2.5 * mn);
}

TEST(BurstyClients, DisabledMeansSteadyThroughput) {
  Simulation s;
  RubbosWorkload w;
  metrics::RequestLog log;
  InstantFrontEnd fe(s);
  ClientParams p;
  p.num_clients = 200;
  p.think_mean = SimTime::millis(200);
  p.ramp = SimTime::millis(200);
  ClientPopulation clients(s, p, w, {&fe}, log);
  clients.start();
  s.run_until(SimTime::seconds(20));
  const auto& rt = log.response_time_series();
  std::vector<double> per_sec(20, 0.0);
  for (std::size_t i = 0; i < rt.num_windows(); ++i)
    per_sec[std::min<std::size_t>(19, i / 20)] += static_cast<double>(rt.count(i));
  double mx = 0, mn = 1e18;
  for (std::size_t k = 1; k < per_sec.size(); ++k) {
    mx = std::max(mx, per_sec[k]);
    mn = std::min(mn, per_sec[k]);
  }
  EXPECT_LT(mx, 1.6 * mn);
}

}  // namespace
}  // namespace ntier::workload
