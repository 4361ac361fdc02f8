// End-to-end tests of the overload-control subsystem (src/control) wired
// through every tier: deadline propagation, AIMD admission limiting with
// brownout, and CoDel sojourn shedding. These run the real 4A/4T/1M cluster
// at test scale — the unit behaviour lives in control_test.cpp.
#include <gtest/gtest.h>

#include "control/overload.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "test_util.h"
#include "workload/rubbos.h"

namespace ntier::experiment {
namespace {

using control::OverloadMode;
using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

ExperimentConfig overload_quick(OverloadMode mode, bool millibottlenecks,
                                SimTime budget = SimTime::seconds(1)) {
  ExperimentConfig c = testing::quick_config(
      PolicyKind::kTotalRequest, MechanismKind::kBlocking, millibottlenecks,
      SimTime::seconds(10));
  c.overload = control::make_overload(mode, budget);
  // The baseline cell still stamps deadlines so goodput is comparable.
  c.overload.stamp_deadlines = true;
  c.tracing = false;
  return c;
}

TEST(Overload, DeadlineModeShedsExpiredWorkAndConservesRequests) {
  auto e = testing::run(
      overload_quick(OverloadMode::kDeadline, true, SimTime::millis(500)));
  const auto s = summarize(*e);
  // The pdflush stall parks work past its 500 ms budget: some of it must be
  // shed as expired instead of executed, and shedding it saves CPU time.
  EXPECT_GT(s.deadline_sheds, 0u);
  EXPECT_GT(s.wasted_work_avoided_ms, 0.0);
  EXPECT_EQ(s.admission_sheds, 0u);  // only deadlines enforce in this mode
  EXPECT_EQ(s.sojourn_sheds, 0u);
  // Shed requests are answered, not lost: conservation still holds.
  const auto& cl = e->clients();
  EXPECT_EQ(cl.issued(),
            cl.completed_ok() + cl.failed() + cl.dropped() + cl.in_flight());
  // Every completion is classified against its stamped deadline.
  EXPECT_EQ(s.completed_within_deadline + s.missed_deadline, s.completed);
  EXPECT_GT(s.goodput_rps, 0.0);
}

TEST(Overload, AdmissionModeShedsAndClientsRetry) {
  auto cfg = overload_quick(OverloadMode::kAdmission, true);
  cfg.workload.priority_mix = workload::PriorityMix::kRubbos;
  auto e = testing::run(std::move(cfg));
  const auto s = summarize(*e);
  // The stall pushes queue delay past the AIMD threshold, the limit clamps,
  // and excess work is rejected with a retriable 503...
  EXPECT_GT(s.admission_sheds + s.brownout_sheds, 0u);
  EXPECT_EQ(s.deadline_sheds, 0u);
  // ...which clients re-attempt after backoff.
  EXPECT_GT(s.shed_retries, 0u);
  EXPECT_EQ(s.shed_retries, e->clients().shed_retries());
  const auto& cl = e->clients();
  EXPECT_EQ(cl.issued(),
            cl.completed_ok() + cl.failed() + cl.dropped() + cl.in_flight());
}

TEST(Overload, FullControlImprovesTailUnderMillibottleneck) {
  auto base = testing::run(overload_quick(OverloadMode::kNone, true));
  auto full = testing::run(overload_quick(OverloadMode::kFull, true));
  const auto sb = summarize(*base);
  const auto sf = summarize(*full);
  // The acceptance criterion of the bench, at test scale: shedding stale and
  // excess work during the stall beats executing it on both tail metrics.
  EXPECT_LT(sf.vlrt_fraction, sb.vlrt_fraction);
  EXPECT_LT(sf.p999_ms, sb.p999_ms);
  EXPECT_GT(sf.goodput_rps, sb.goodput_rps);
  EXPECT_GT(sf.admission_sheds + sf.brownout_sheds + sf.deadline_sheds +
                sf.sojourn_sheds,
            0u);
}

TEST(Overload, QuietRegimeCostsNothing) {
  auto base = testing::run(overload_quick(OverloadMode::kNone, false));
  auto full = testing::run(overload_quick(OverloadMode::kFull, false));
  const auto sb = summarize(*base);
  const auto sf = summarize(*full);
  // No stall, no standing queue: the limiter stays wide open and CoDel never
  // arms, so goodput must stay within 5% of the uncontrolled baseline.
  ASSERT_GT(sb.goodput_rps, 0.0);
  EXPECT_GE(sf.goodput_rps, 0.95 * sb.goodput_rps);
  EXPECT_EQ(sf.sojourn_sheds, 0u);
}

TEST(Overload, DescribeAndSummaryCarryOverloadFields) {
  auto cfg = overload_quick(OverloadMode::kFull, true, SimTime::millis(750));
  const std::string desc = describe(cfg);
  EXPECT_NE(desc.find("overload=full"), std::string::npos);
  EXPECT_NE(desc.find("750"), std::string::npos);
  auto e = testing::run(std::move(cfg));
  const std::string json = summarize(*e).to_json_string();
  for (const char* field :
       {"\"goodput_rps\"", "\"completed_within_deadline\"",
        "\"admission_sheds\"", "\"deadline_sheds\"", "\"sojourn_sheds\"",
        "\"wasted_work_avoided_ms\"", "\"shed_retries\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(Overload, SweepOutputIsJobsInvariantWithControlActive) {
  auto make_sweep = [](int jobs) {
    SweepConfig sc;
    sc.base = testing::quick_config(PolicyKind::kTotalRequest,
                                    MechanismKind::kBlocking, true,
                                    SimTime::seconds(6));
    sc.base.warmup = SimTime::seconds(1);
    sc.base.tracing = false;
    sc.base.overload = control::make_overload(OverloadMode::kFull);
    sc.num_runs = 4;
    sc.jobs = jobs;
    return SweepRunner(sc).run();
  };
  const auto seq = make_sweep(1);
  const auto par = make_sweep(3);
  // Byte-identical aggregation regardless of worker threads, sheds and all.
  EXPECT_EQ(seq.to_json_string(), par.to_json_string());
  EXPECT_GT(seq[RunMetric::admission_sheds].mean +
                seq[RunMetric::brownout_sheds].mean +
                seq[RunMetric::deadline_sheds].mean +
                seq[RunMetric::sojourn_sheds].mean,
            0.0);
  EXPECT_GT(seq[RunMetric::goodput_rps].mean, 0.0);
}

}  // namespace
}  // namespace ntier::experiment
