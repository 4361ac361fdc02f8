// Extension: probe-driven load balancing under millibottlenecks.
//
// The paper's remedies (current_load, modified non-blocking get_endpoint)
// fix mod_jk's stale cumulative counters but still rank on state observed
// *at the balancer*. This bench asks the question the paper leaves open:
// does probe-fresh backend state — Prequal's hot/cold RIF rule or JSQ(d)
// over probed requests-in-flight — beat even the best remedy pair on the
// Fig. 6 scenario (4A/4T/1M, pdflush millibottlenecks rotating across the
// Tomcat tier)?
//
// Expected shape: the stock configuration shows double-digit mean RT and a
// large VLRT population; the remedy pair cuts both by an order of
// magnitude; the probing policies match or beat the remedy pair because a
// stalled Tomcat stops answering probes (or answers with a high RIF) and is
// routed around within one staleness window instead of after the queue has
// already built.
#include <sstream>

#include "bench_common.h"
#include "lb/probe_policy.h"

using namespace ntier;
using namespace ntier::bench;

namespace {

/// Aggregate probe-pool + probe-policy counters across the Apaches.
struct ProbeStats {
  std::uint64_t sent = 0, replies = 0, timeouts = 0, piggybacked = 0;
  std::uint64_t probe_picks = 0, tiebreak_picks = 0, fallback_picks = 0;
  double staleness_ms = 0.0;  // use-weighted mean

  static ProbeStats collect(Experiment& e) {
    ProbeStats s;
    std::uint64_t uses = 0;
    double staleness_sum = 0.0;
    for (int a = 0; a < e.num_apaches(); ++a) {
      if (const auto* pool = e.apache(a).probe_pool()) {
        s.sent += pool->probes_sent();
        s.replies += pool->replies();
        s.timeouts += pool->timeouts();
        s.piggybacked += pool->piggybacked();
        staleness_sum += pool->mean_staleness_at_use_ms() *
                         static_cast<double>(pool->uses());
        uses += pool->uses();
      }
      if (const auto* aware = dynamic_cast<const lb::ProbeAwarePolicy*>(
              &e.apache(a).balancer().policy())) {
        s.probe_picks += aware->probe_picks();
        s.tiebreak_picks += aware->tiebreak_picks();
        s.fallback_picks += aware->fallback_picks();
      }
    }
    if (uses) s.staleness_ms = staleness_sum / static_cast<double>(uses);
    return s;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = BenchOptions::parse(argc, argv);
  header("Ext", "probe-driven policies (power_of_d, prequal) vs the paper's remedies");

  struct Row {
    const char* label;
    PolicyKind policy;
    MechanismKind mech;
  };
  const Row rows[] = {
      {"Stock (total_request + blocking)", PolicyKind::kTotalRequest,
       MechanismKind::kBlocking},
      {"Remedy pair (current_load + non-blocking)", PolicyKind::kCurrentLoad,
       MechanismKind::kNonBlocking},
      {"Two_choices + non-blocking", PolicyKind::kTwoChoices,
       MechanismKind::kNonBlocking},
      {"Power_of_d probing + non-blocking", PolicyKind::kPowerOfD,
       MechanismKind::kNonBlocking},
      {"Prequal probing + non-blocking", PolicyKind::kPrequal,
       MechanismKind::kNonBlocking},
  };

  double remedy_mean = 0, prequal_mean = 0;
  std::uint64_t remedy_vlrt = 0, prequal_vlrt = 0;

  std::cout << "\n";
  if (opt.sweep_seeds > 1)
    std::cout << "(each row: " << opt.sweep_seeds
              << "-seed sweep, mean+-95% CI, " << opt.jobs << " jobs)\n";
  experiment::print_table1_header(std::cout);
  std::vector<std::string> probe_lines;
  for (const auto& row : rows) {
    ExperimentConfig cfg = cluster_config(opt, row.policy, row.mech);
    cfg.tracing = false;  // request log + probe counters carry this bench
    cfg.label = row.label;
    if (opt.sweep_seeds > 1) {
      // Sweep mode: the probe-counter deep dive is a single-run artifact;
      // the sweep reports the policy comparison with confidence intervals.
      const auto agg = run_sweep(opt, std::move(cfg), /*announce=*/false);
      print_sweep_row(std::cout, row.label, agg);
      if (row.policy == PolicyKind::kCurrentLoad) {
        remedy_mean = agg[RunMetric::mean_rt_ms].mean;
        remedy_vlrt = static_cast<std::uint64_t>(
            agg[RunMetric::vlrt_fraction].mean *
                agg[RunMetric::completed].mean +
            0.5);
      }
      if (row.policy == PolicyKind::kPrequal) {
        prequal_mean = agg[RunMetric::mean_rt_ms].mean;
        prequal_vlrt = static_cast<std::uint64_t>(
            agg[RunMetric::vlrt_fraction].mean *
                agg[RunMetric::completed].mean +
            0.5);
      }
      continue;
    }
    auto e = run_experiment(opt, std::move(cfg), /*announce=*/false);
    std::cout << e->log().summary_row(row.label) << "  vlrt_n="
              << e->log().vlrt_count() << "\n";

    const ProbeStats ps = ProbeStats::collect(*e);
    if (ps.sent > 0) {
      std::ostringstream os;
      os << "  " << std::left << std::setw(44) << row.label << " "
         << ps.sent << " probes (" << ps.replies << " replies, "
         << ps.timeouts << " timed out), " << ps.piggybacked
         << " piggybacked reports, " << ps.probe_picks
         << " probe-driven picks, " << ps.tiebreak_picks
         << " probed tie-breaks, " << ps.fallback_picks
         << " current_load fallbacks, mean staleness at use "
         << std::fixed << std::setprecision(1) << ps.staleness_ms << " ms";
      probe_lines.push_back(os.str());
    }

    if (row.policy == PolicyKind::kCurrentLoad) {
      remedy_mean = e->log().mean_response_ms();
      remedy_vlrt = e->log().vlrt_count();
    }
    if (row.policy == PolicyKind::kPrequal) {
      prequal_mean = e->log().mean_response_ms();
      prequal_vlrt = e->log().vlrt_count();
    }
  }

  if (!probe_lines.empty()) {
    std::cout << "\nprobe subsystem:\n";
    for (const auto& l : probe_lines) std::cout << l << "\n";
  }

  std::cout << "\n";
  paper_vs_measured("prequal mean RT vs remedy pair",
                    "<= (acceptance)",
                    std::to_string(prequal_mean) + " ms vs " +
                        std::to_string(remedy_mean) + " ms");
  paper_vs_measured("prequal VLRT count vs remedy pair", "comparable",
                    std::to_string(prequal_vlrt) + " vs " +
                        std::to_string(remedy_vlrt));
  std::cout << "\n";
  verdict(opt, "prequal_beats_remedy", prequal_mean <= remedy_mean,
          prequal_mean, "<= " + std::to_string(remedy_mean) + " ms",
          "prequal mean response time (ms) vs the remedy pair's");
  std::cout << "(fixed seed => byte-deterministic; run with --seed N to vary,"
               " --sweep-seeds N --jobs J for mean+-CI, --full for paper scale)\n";
  return verdicts_exit_code();
}
