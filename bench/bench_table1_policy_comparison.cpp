// Table I: end-to-end comparison of the six policy/mechanism combinations —
// the paper's headline result. Expected shape: the two stock policies show
// double-digit mean response times and ~5-7 % VLRT; current_load and/or the
// modified get_endpoint cut the mean by an order of magnitude (the paper
// reports 12× / 15×) and VLRT to a fraction of a percent; combining both
// remedies adds nothing further.
#include "bench_common.h"

using namespace ntier;
using namespace ntier::bench;

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Table I", "policy/mechanism comparison under millibottlenecks");

  struct Row {
    const char* label;
    PolicyKind policy;
    MechanismKind mech;
    const char* paper_rt;
    const char* paper_vlrt;
  };
  const Row rows[] = {
      {"Original total_request", PolicyKind::kTotalRequest,
       MechanismKind::kBlocking, "41.00", "5.33%"},
      {"Original total_traffic", PolicyKind::kTotalTraffic,
       MechanismKind::kBlocking, "55.50", "6.89%"},
      {"Current_load", PolicyKind::kCurrentLoad, MechanismKind::kBlocking,
       "3.62", "0.21%"},
      {"Total_request with modified get_endpoint", PolicyKind::kTotalRequest,
       MechanismKind::kNonBlocking, "4.87", "0.55%"},
      {"Total_traffic with modified get_endpoint", PolicyKind::kTotalTraffic,
       MechanismKind::kNonBlocking, "5.87", "0.76%"},
      {"Current_load with modified get_endpoint", PolicyKind::kCurrentLoad,
       MechanismKind::kNonBlocking, "3.60", "0.20%"},
      // Probe-driven extensions (src/probe) — beyond the paper's table, so
      // no reference numbers; see bench_ext_probe_policies for the deep dive.
      {"Power_of_d probing with modified get_endpoint", PolicyKind::kPowerOfD,
       MechanismKind::kNonBlocking, "-", "-"},
      {"Prequal probing with modified get_endpoint", PolicyKind::kPrequal,
       MechanismKind::kNonBlocking, "-", "-"},
  };

  double stock_rt = 0, remedy_rt = 0;
  std::cout << "\n";
  if (opt.sweep_seeds > 1)
    std::cout << "(each row: " << opt.sweep_seeds
              << "-seed sweep, mean+-95% CI, " << opt.jobs << " jobs)\n";
  experiment::print_table1_header(std::cout);
  for (const auto& row : rows) {
    ExperimentConfig cfg = cluster_config(opt, row.policy, row.mech);
    cfg.tracing = false;  // fastest path; Table I needs only the request log
    cfg.label = row.label;
    double mean_rt = 0;
    if (opt.sweep_seeds > 1) {
      const auto agg = run_sweep(opt, std::move(cfg), /*announce=*/false);
      print_sweep_row(std::cout, row.label, agg);
      mean_rt = agg[RunMetric::mean_rt_ms].mean;
    } else {
      auto e = run_experiment(opt, std::move(cfg), /*announce=*/false);
      std::cout << e->log().summary_row(row.label) << "\n";
      mean_rt = e->log().mean_response_ms();
    }
    if (std::string(row.label) == "Original total_request") stock_rt = mean_rt;
    if (std::string(row.label) == "Current_load") remedy_rt = mean_rt;
  }

  std::cout << "\npaper reference (Table I):\n";
  for (const auto& row : rows)
    std::cout << "  " << std::left << std::setw(44) << row.label
              << " avg RT " << std::setw(7) << row.paper_rt << " ms, VLRT "
              << row.paper_vlrt << "\n";

  std::cout << "\n";
  paper_vs_measured("improvement of current_load over total_request", "12x",
                    std::to_string(stock_rt / remedy_rt) + "x");
  std::cout << "\n(run with --full for the paper-scale 70 000-client, 180 s runs)\n";
  return 0;
}
