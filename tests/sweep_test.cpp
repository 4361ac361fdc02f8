#include "experiment/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace ntier::experiment {
namespace {

using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

/// A deliberately tiny config so a replica runs in tens of milliseconds.
ExperimentConfig tiny_config() {
  auto c = testing::quick_config(PolicyKind::kCurrentLoad,
                                 MechanismKind::kNonBlocking,
                                 /*millibottlenecks=*/true, SimTime::seconds(3));
  c.num_clients = 400;
  c.warmup = SimTime::millis(500);
  c.label = "sweep_unit";
  return c;
}

TEST(MetricStats, ComputesMeanStddevAndCi) {
  const MetricStats s = MetricStats::from({2.0, 4.0, 6.0, 8.0});
  EXPECT_EQ(s.n, 4);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(20.0 / 3.0), 1e-12);  // sample stddev
  // t_{0.975,3} = 3.182 -> half-width 3.182 * stddev / 2.
  EXPECT_NEAR(s.ci95_half, 3.182 * s.stddev / 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
}

TEST(MetricStats, DegenerateSampleSizes) {
  EXPECT_EQ(MetricStats::from({}).n, 0);
  const MetricStats one = MetricStats::from({7.5});
  EXPECT_EQ(one.n, 1);
  EXPECT_DOUBLE_EQ(one.mean, 7.5);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
  EXPECT_DOUBLE_EQ(one.ci95_half, 0.0);
}

TEST(SweepRunner, ReplicaSeedsAreDeterministicAndDistinct) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(SweepRunner::replica_seed(42, i), SweepRunner::replica_seed(42, i));
    for (int j = i + 1; j < 64; ++j)
      EXPECT_NE(SweepRunner::replica_seed(42, i), SweepRunner::replica_seed(42, j));
  }
  // The plan embeds those seeds and distinct labels.
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 3;
  SweepRunner r(sc);
  ASSERT_EQ(r.planned().size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.planned()[static_cast<std::size_t>(i)].seed,
              SweepRunner::replica_seed(sc.base.seed, i));
    EXPECT_EQ(r.planned()[static_cast<std::size_t>(i)].label,
              "sweep_unit#" + std::to_string(i));
  }
}

TEST(SweepRunner, JobsDoNotChangeAggregateBytes) {
  // The headline determinism contract: the same sweep run sequentially and
  // on a thread pool must produce byte-identical aggregate JSON and CSV.
  SweepConfig seq;
  seq.base = tiny_config();
  seq.num_runs = 4;
  seq.jobs = 1;
  SweepConfig par = seq;
  par.jobs = 8;

  const AggregateSummary a = SweepRunner(seq).run();
  const AggregateSummary b = SweepRunner(par).run();
  EXPECT_EQ(a.to_json_string(), b.to_json_string());
  std::ostringstream csv_a, csv_b, runs_a, runs_b;
  a.to_csv(csv_a);
  b.to_csv(csv_b);
  a.per_run_csv(runs_a);
  b.per_run_csv(runs_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(runs_a.str(), runs_b.str());
}

TEST(SweepRunner, MergedSketchAndOnlineColumnsAreJobsInvariant) {
  // With telemetry + the online detector on, each replica carries a serialized
  // response-time sketch and online-detection stats. Sequential and parallel
  // sweeps must merge to the same bytes and emit the same columns.
  SweepConfig seq;
  seq.base = tiny_config();
  seq.base.telemetry.enabled = true;
  seq.base.online_detect = true;
  seq.num_runs = 4;
  seq.jobs = 1;
  SweepConfig par = seq;
  par.jobs = 8;

  const AggregateSummary a = SweepRunner(seq).run();
  const AggregateSummary b = SweepRunner(par).run();
#ifndef NTIER_OBS_DISABLED
  EXPECT_FALSE(a.merged_rt_sketch().empty());
  EXPECT_EQ(a.merged_rt_sketch().rfind("ddsk1 a=", 0), 0u);
#endif
  EXPECT_EQ(a.merged_rt_sketch(), b.merged_rt_sketch());
  EXPECT_EQ(a.to_json_string(), b.to_json_string());

  std::ostringstream runs, csv;
  a.per_run_csv(runs);
  a.to_csv(csv);
  const std::string header =
      "," + runs.str().substr(0, runs.str().find('\n')) + ",";
  for (const std::string key :
       {"online_episodes", "online_false_positives",
        "online_median_detection_ms", "trace_kept_fraction"}) {
    EXPECT_NE(header.find("," + key + ","), std::string::npos) << key;
    EXPECT_NE(csv.str().find("\n" + key + ","), std::string::npos) << key;
  }
}

/// Non-overlapping occurrences of `needle` in `hay`.
int count_of(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (auto at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size()))
    ++n;
  return n;
}

TEST(RunMetricSchema, EveryMetricReachesEveryOutputOnce) {
  // The contract of NTIER_RUN_METRICS: each run metric is a key exactly
  // once in the RunSummary JSON, the sweep JSON metrics block, the
  // per-metric CSV and the per-run CSV header, and its aggregate is the
  // mean of the per-run values.
  SweepConfig sc;
  sc.base = tiny_config();
  sc.base.telemetry.enabled = true;
  sc.base.online_detect = true;
  sc.num_runs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  ASSERT_EQ(agg.runs(), 2);

  const std::string run_json = agg.per_run[0].to_json_string();
  const std::string sweep_json = agg.to_json_string();
  const auto metrics_at = sweep_json.find("\"metrics\": {");
  const auto pooled_at = sweep_json.find("\"pooled\": {");
  ASSERT_NE(metrics_at, std::string::npos);
  ASSERT_NE(pooled_at, std::string::npos);
  const std::string metrics_json =
      sweep_json.substr(metrics_at, pooled_at - metrics_at);

  std::ostringstream aggregate_csv, runs_csv;
  agg.to_csv(aggregate_csv);
  agg.per_run_csv(runs_csv);
  std::istringstream aggregate_lines(aggregate_csv.str());
  std::string line;
  std::getline(aggregate_lines, line);  // metric,n,mean,...
  std::vector<std::string> rows;
  while (std::getline(aggregate_lines, line))
    rows.push_back(line.substr(0, line.find(',')));
  std::istringstream header_line(
      runs_csv.str().substr(0, runs_csv.str().find('\n')));
  std::vector<std::string> header;
  while (std::getline(header_line, line, ',')) header.push_back(line);

  EXPECT_EQ(rows.size(), kNumRunMetrics);
  EXPECT_EQ(header.size(), kNumRunMetrics + 2);  // run,seed,...
  for (RunMetric m : kRunMetrics) {
    const std::string name(run_metric_name(m));
    SCOPED_TRACE(name);
    const std::string key = "\"" + name + "\":";
    EXPECT_EQ(count_of(run_json, key), 1);
    EXPECT_EQ(count_of(metrics_json, key), 1);
    EXPECT_EQ(std::count(rows.begin(), rows.end(), name), 1);
    EXPECT_EQ(std::count(header.begin(), header.end(), name), 1);
    double sum = 0;
    for (const RunSummary& r : agg.per_run) sum += r.value(m);
    EXPECT_DOUBLE_EQ(agg[m].mean, sum / agg.runs());
    EXPECT_EQ(agg[m].n, agg.runs());
  }
}

TEST(SweepRunner, AggregatesMatchPerRunSummaries) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 3;
  sc.jobs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  ASSERT_EQ(agg.runs(), 3);
  // Every replica completed traffic, and distinct seeds produced distinct
  // (but statistically close) runs.
  std::int64_t pooled_expected = 0;
  double mean_sum = 0;
  for (const RunSummary& r : agg.per_run) {
    EXPECT_GT(r.completed, 0);
    pooled_expected += r.completed;
    mean_sum += r.mean_rt_ms;
  }
  EXPECT_EQ(agg.pooled.count(), pooled_expected);
  EXPECT_NEAR(agg[RunMetric::mean_rt_ms].mean, mean_sum / 3.0, 1e-12);
  EXPECT_GT(agg[RunMetric::mean_rt_ms].stddev, 0.0);  // seeds actually differ
  EXPECT_EQ(agg[RunMetric::completed].n, 3);
}

TEST(AggregateSummary, MergeIsAssociative) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 2;
  AggregateSummary a = SweepRunner(sc).run();
  sc.base.seed = 43;
  AggregateSummary b = SweepRunner(sc).run();
  sc.base.seed = 44;
  AggregateSummary c = SweepRunner(sc).run();

  const AggregateSummary left =
      AggregateSummary::merge(AggregateSummary::merge(a, b), c);
  const AggregateSummary right =
      AggregateSummary::merge(a, AggregateSummary::merge(b, c));
  EXPECT_EQ(left.to_json_string(), right.to_json_string());
  EXPECT_EQ(left.runs(), 6);
  EXPECT_EQ(left.pooled.count(), right.pooled.count());
}

TEST(AggregateSummary, JsonAndCsvCarryCiColumns) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  const std::string json = agg.to_json_string();
  EXPECT_NE(json.find("\"ci95_half\""), std::string::npos);
  EXPECT_NE(json.find("\"pooled\""), std::string::npos);
  EXPECT_NE(json.find("\"run_seeds\""), std::string::npos);
  EXPECT_NE(json.find("\"per_run\""), std::string::npos);
  std::ostringstream csv;
  agg.to_csv(csv);
  EXPECT_NE(csv.str().find("metric,n,mean,stddev,ci95_half,min,max"),
            std::string::npos);
}

TEST(SweepRunner, GridModeRunsConfigsAsGiven) {
  SweepConfig sc;
  sc.base = tiny_config();  // ignored in grid mode
  ExperimentConfig g1 = tiny_config();
  g1.label = "grid_a";
  g1.seed = 7;
  ExperimentConfig g2 = tiny_config();
  g2.label = "grid_b";
  g2.seed = 9;
  g2.policy = lb::PolicyKind::kTotalRequest;
  sc.grid = {g1, g2};
  sc.jobs = 2;
  const AggregateSummary agg = SweepRunner(sc).run();
  ASSERT_EQ(agg.runs(), 2);
  EXPECT_EQ(agg.run_seeds, (std::vector<std::uint64_t>{7, 9}));
  EXPECT_EQ(agg.per_run[0].label, "grid_a");
  EXPECT_EQ(agg.per_run[1].label, "grid_b");
}

TEST(SweepRunner, RejectsBadConfig) {
  SweepConfig sc;
  sc.base = tiny_config();
  sc.num_runs = 0;
  EXPECT_THROW(SweepRunner{sc}, std::invalid_argument);
  sc.num_runs = 2;
  sc.jobs = 0;
  EXPECT_THROW(SweepRunner{sc}, std::invalid_argument);
}

}  // namespace
}  // namespace ntier::experiment
