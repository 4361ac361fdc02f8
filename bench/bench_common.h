#pragma once

// Shared machinery for the figure/table reproduction benches. Every bench:
//   * builds one or more ExperimentConfigs from the paper presets,
//   * runs them,
//   * prints the same rows/series the paper reports (as numbers plus
//     terminal sparklines so the *shape* is visible at a glance),
//   * optionally dumps raw CSV via --csv DIR, and
//   * accepts --full to run at the paper's scale (70 000 clients, 180 s).

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/report.h"
#include "experiment/summary.h"
#include "experiment/sweep.h"
#include "obs/trace_io.h"

namespace ntier::bench {

using experiment::BenchOptions;
using experiment::Experiment;
using experiment::ExperimentConfig;
using experiment::RunMetric;
using lb::MechanismKind;
using lb::PolicyKind;
using sim::SimTime;

inline void header(const std::string& id, const std::string& title) {
  std::cout << "==================================================================\n"
            << id << ": " << title << "\n"
            << "==================================================================\n";
}

inline std::unique_ptr<Experiment> run_experiment(ExperimentConfig cfg,
                                                  bool announce = true) {
  if (announce)
    std::cout << "\n-- running " << experiment::describe(cfg) << "\n";
  auto e = std::make_unique<Experiment>(std::move(cfg));
  e->run();
  return e;
}

/// Open `--json FILE` for appending and start a result row with the keys
/// every row shares; false (with a warning) when the file cannot be opened.
inline bool begin_json_row(std::ofstream& f, const BenchOptions& opt, int run,
                           const std::string& label, const std::string& policy,
                           const std::string& mechanism, std::uint64_t seed) {
  f.open(opt.json_path, std::ios::app);
  if (!f) {
    std::cerr << "  [json] cannot append to " << opt.json_path << "\n";
    return false;
  }
  f << std::setprecision(10) << "{\"bench\":\"" << opt.program
    << "\",\"run\":" << run << ",\"label\":\"" << label
    << "\",\"policy\":\"" << policy << "\",\"mechanism\":\"" << mechanism
    << "\",\"seed\":" << seed;
  return true;
}

/// Append one JSON result row for a finished run (the contract behind
/// `scripts/run_all_benches.sh --json`): bench name, run ordinal, every run
/// metric under its RunSummary name, the VLRT count, and the wall-clock cost.
inline void append_json_row(const BenchOptions& opt, Experiment& e,
                            double wall_ms, int run) {
  const experiment::RunSummary s = experiment::summarize(e);
  std::ofstream f;
  if (!begin_json_row(f, opt, run, s.label, s.policy, s.mechanism,
                      e.config().seed))
    return;
  for (RunMetric m : experiment::kRunMetrics)
    f << ",\"" << experiment::run_metric_name(m) << "\":" << s.value(m);
  f << ",\"vlrt_count\":" << e.log().vlrt_count() << ",\"wall_ms\":" << wall_ms
    << "}\n";
}

/// Trace/JSON-aware variant: enables event tracing when the bench was run
/// with `--trace FILE` (writing one trace file per run, suffixing `.N` from
/// the second run on) and appends a JSON result row under `--json FILE`.
inline std::unique_ptr<Experiment> run_experiment(const BenchOptions& opt,
                                                  ExperimentConfig cfg,
                                                  bool announce = true) {
  static int runs = 0;
  if (!opt.trace_path.empty()) cfg.event_trace = true;
  if (announce)
    std::cout << "\n-- running " << experiment::describe(cfg) << "\n";
  const auto wall0 = std::chrono::steady_clock::now();
  auto e = std::make_unique<Experiment>(std::move(cfg));
  e->run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
  ++runs;
  if (!opt.trace_path.empty() && e->trace() != nullptr) {
    std::string path = opt.trace_path;
    if (runs > 1) path += "." + std::to_string(runs);
    std::ofstream f(path, std::ios::binary);
    if (!f) {
      std::cerr << "  [trace] cannot write " << path << "\n";
    } else {
      obs::write_trace(f, *e->trace(), opt.trace_format);
      std::cout << "  [trace] " << path << " (" << e->trace()->size()
                << " events";
      if (e->trace()->dropped() > 0)
        std::cout << ", " << e->trace()->dropped() << " dropped by ring";
      std::cout << ")\n";
    }
  }
  if (!opt.json_path.empty()) append_json_row(opt, *e, wall_ms, runs);
  return e;
}

/// JSON row for a sweep: same shape as append_json_row plus `runs`, each
/// metric's cross-run mean under its name and 95% CI half-width under
/// `<name>_ci95`, and the pooled-distribution tail columns, so
/// BENCH_results.json rows say how trustworthy each number is.
inline void append_sweep_json_row(const BenchOptions& opt,
                                  const experiment::AggregateSummary& agg,
                                  double wall_ms, int run) {
  std::ofstream f;
  if (!begin_json_row(f, opt, run, agg.label, agg.policy, agg.mechanism,
                      agg.base_seed))
    return;
  f << ",\"runs\":" << agg.runs();
  for (RunMetric m : experiment::kRunMetrics) {
    const auto name = experiment::run_metric_name(m);
    f << ",\"" << name << "\":" << agg[m].mean << ",\"" << name
      << "_ci95\":" << agg[m].ci95_half;
  }
  f << ",\"pooled_p99_ms\":" << agg.pooled_p99_ms()
    << ",\"pooled_p999_ms\":" << agg.pooled_p999_ms()
    << ",\"pooled_vlrt_fraction\":" << agg.pooled_vlrt_fraction()
    << ",\"wall_ms\":" << wall_ms << "}\n";
}

/// Run one bench row as a sweep of `opt.sweep_seeds` replicas on `opt.jobs`
/// worker threads. With sweep_seeds == 1 the config runs exactly as given
/// (seed untouched), so single-run bench output stays comparable across
/// versions; CI half-widths are then 0.
inline experiment::AggregateSummary run_sweep(const BenchOptions& opt,
                                              ExperimentConfig cfg,
                                              bool announce = true) {
  static int runs = 0;
  experiment::SweepConfig sc;
  if (opt.sweep_seeds <= 1) {
    sc.grid.push_back(std::move(cfg));
  } else {
    sc.base = std::move(cfg);
    sc.num_runs = opt.sweep_seeds;
  }
  sc.jobs = opt.jobs;
  if (announce)
    std::cout << "\n-- sweeping " << opt.sweep_seeds << " seeds of "
              << experiment::describe(sc.grid.empty() ? sc.base : sc.grid[0])
              << "\n";
  const auto wall0 = std::chrono::steady_clock::now();
  experiment::SweepRunner runner(std::move(sc));
  experiment::AggregateSummary agg = runner.run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();
  ++runs;
  if (!opt.json_path.empty()) append_sweep_json_row(opt, agg, wall_ms, runs);
  return agg;
}

/// Table-I style row for a sweep: the same columns as
/// RequestLog::summary_row, each cross-run mean followed by its ±CI.
inline void print_sweep_row(std::ostream& os, const std::string& label,
                            const experiment::AggregateSummary& agg) {
  auto pm = [](double mean, double ci, int prec) {
    std::ostringstream s;
    s << std::fixed << std::setprecision(prec) << mean << "+-"
      << std::setprecision(prec) << ci;
    return s.str();
  };
  const auto& completed = agg[RunMetric::completed];
  const auto& mean_rt = agg[RunMetric::mean_rt_ms];
  const auto& vlrt = agg[RunMetric::vlrt_fraction];
  const auto& normal = agg[RunMetric::normal_fraction];
  os << std::left << std::setw(44) << label << std::right << std::setw(11)
     << static_cast<std::int64_t>(completed.mean + 0.5) << std::setw(13)
     << pm(mean_rt.mean, mean_rt.ci95_half, 2) << std::setw(12)
     << pm(vlrt.mean * 100, vlrt.ci95_half * 100, 2) << std::setw(12)
     << pm(normal.mean * 100, normal.ci95_half * 100, 1) << "\n";
}

/// The standard 4A/4T/1M environment with millibottlenecks on the Tomcats.
inline ExperimentConfig cluster_config(const BenchOptions& opt,
                                       PolicyKind policy, MechanismKind mech,
                                       bool millibottlenecks = true) {
  ExperimentConfig c = opt.apply(ExperimentConfig::scaled(0.1));
  c.duration = opt.full    ? SimTime::seconds(180)
               : opt.quick ? SimTime::seconds(8)
                           : SimTime::seconds(20);
  c.policy = policy;
  c.mechanism = mech;
  c.tomcat_millibottlenecks = millibottlenecks;
  return c;
}

/// First completed pdflush episode after warmup; returns false if none.
inline bool first_flush(Experiment& e, int& tomcat, SimTime& start,
                        SimTime& end) {
  bool found = false;
  for (int t = 0; t < e.num_tomcats(); ++t) {
    for (const auto& [s, f] : e.flush_intervals(t)) {
      if (s > e.config().warmup && f < e.config().duration &&
          (!found || s < start)) {
        tomcat = t;
        start = s;
        end = f;
        found = true;
      }
    }
  }
  return found;
}

/// Paper-style workload-distribution table: share of Apache-0 assignments
/// per Tomcat in consecutive sub-windows of [t0, t1).
inline void print_distribution(Experiment& e, SimTime t0, SimTime t1,
                               SimTime step, int stalled = -1) {
  std::cout << "  Apache1 workload distribution (assignments per "
            << step.to_string() << " window";
  if (stalled >= 0) std::cout << "; Tomcat" << stalled + 1 << " has the millibottleneck";
  std::cout << "):\n  " << std::setw(12) << "window";
  for (int t = 0; t < e.num_tomcats(); ++t)
    std::cout << std::setw(10) << ("tomcat" + std::to_string(t + 1));
  std::cout << "\n";
  const auto& bal = e.apache(0).balancer();
  for (SimTime w = t0; w < t1; w += step) {
    std::cout << "  " << std::setw(7) << std::fixed << std::setprecision(2)
              << w.to_seconds() << "s    ";
    for (int t = 0; t < e.num_tomcats(); ++t) {
      const auto counts = experiment::series_count(bal.assignment_trace(t),
                                                   e.num_metric_windows());
      const double n = experiment::sum_of(
          experiment::slice(counts, e.config().metric_window, w, w + step));
      std::cout << std::setw(10) << static_cast<std::int64_t>(n);
    }
    std::cout << "\n";
  }
}

/// Dump aligned per-window series as CSV when --csv was given.
inline void maybe_csv(const BenchOptions& opt, const std::string& file,
                      SimTime window, const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& cols) {
  if (opt.csv_dir.empty()) return;
  static bool warned = false;
  try {
    std::filesystem::create_directories(opt.csv_dir);
    const std::string path = opt.csv_dir + "/" + file;
    experiment::write_series_csv(path, window, names, cols);
    std::cout << "  [csv] " << path << "\n";
  } catch (const std::exception& err) {
    if (!warned) {
      std::cerr << "  [csv] cannot write CSV series under --csv dir '"
                << opt.csv_dir << "': " << err.what() << "\n";
      warned = true;
    }
  }
}

inline void paper_vs_measured(const std::string& what, const std::string& paper,
                              const std::string& measured) {
  std::cout << "  " << std::left << std::setw(42) << what
            << " paper: " << std::setw(18) << paper << " measured: " << measured
            << "\n";
}

inline int verdict_failures = 0;  // failed verdict() calls so far

/// Declare one bench verdict: `pass` is the acceptance condition, `value`
/// the headline number it tests and `bound` the condition in words. Prints
///   verdict: <id> -- PASS|FAIL (value <value>, bound <bound>) <text>
/// and, under `--json FILE`, appends the row
///   {"bench", "verdict": id, "pass", "value", "bound"}
/// that scripts/check_verdicts.sh checks against bench/verdicts.txt.
inline void verdict(const BenchOptions& opt, const std::string& id, bool pass,
                    double value, const std::string& bound,
                    const std::string& text) {
  if (!pass) ++verdict_failures;
  std::ostringstream v;
  v << std::setprecision(6) << value;
  std::cout << "verdict: " << id << " -- " << (pass ? "PASS" : "FAIL")
            << " (value " << v.str() << ", bound " << bound << ") " << text
            << "\n";
  if (opt.json_path.empty()) return;
  std::ofstream f(opt.json_path, std::ios::app);
  if (!f) {
    std::cerr << "  [json] cannot append to " << opt.json_path << "\n";
    return;
  }
  f << std::setprecision(10) << "{\"bench\":\"" << opt.program
    << "\",\"verdict\":\"" << id << "\",\"pass\":" << (pass ? "true" : "false")
    << ",\"value\":";
  if (std::isfinite(value))
    f << value;
  else
    f << "null";
  f << ",\"bound\":\"" << bound << "\"}\n";
}

/// A bench's exit code: non-zero when any verdict() failed.
inline int verdicts_exit_code() { return verdict_failures > 0 ? 1 : 0; }

}  // namespace ntier::bench
