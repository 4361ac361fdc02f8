// One repetition of the simulator cost benchmark (see README.md).
//
//   costbench --summary-out FILE [--traced]
//             [--trace-gen SPEC [--write-trace]] -- <ntier_run flags>
//
// Builds the Experiment that `ntier_run <flags>` would build, runs it once
// with a read-only checkpoint event every 100 ms of simulated time (some of
// which also time a calibration burst, see calibration.h), writes
// the RunSummary JSON exactly as `ntier_run --json` does, and prints one
// JSON line of raw measurements. run.py runs repetitions and aggregates.
//
// With --trace-gen the benchmark makes the replay input itself: it
// generates the trace, saves it to CSV text and parses that text back (each
// step timed); the flags must then name the CSV with --replay-trace, which
// --write-trace fills so the reference ntier_run replays the same bytes.
// --traced arms the SIGPROF sampler around Experiment::run.
#include <chrono>
#include <cpuid.h>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "calibration.h"
#include "cli/cli.h"
#include "experiment/chaos.h"
#include "experiment/experiment.h"
#include "experiment/summary.h"
#include "sampler.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace costbench {
namespace {

using Clock = std::chrono::steady_clock;
using ntier::experiment::Experiment;
using ntier::experiment::ExperimentConfig;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string summary_out;
  std::string trace_gen;
  bool write_trace = false;
  bool traced = false;
  std::vector<std::string> flags;
};

[[noreturn]] void die(const std::string& why) {
  std::cerr << "costbench: " << why << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string s = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + s);
      return argv[++i];
    };
    if (s == "--") {
      ++i;
      break;
    } else if (s == "--summary-out") {
      a.summary_out = value();
    } else if (s == "--trace-gen") {
      a.trace_gen = value();
    } else if (s == "--write-trace") {
      a.write_trace = true;
    } else if (s == "--traced") {
      a.traced = true;
    } else {
      die("unknown flag " + s);
    }
  }
  a.flags.assign(argv + i, argv + argc);
  if (a.summary_out.empty()) die("--summary-out is required");
  return a;
}

// ntier_run options the benchmark reproduces; everything else is refused
// so the reference comparison never silently diverges.
ntier::cli::CliOptions parse_flags(const Args& a) {
  auto parsed = ntier::cli::parse_cli(a.flags);
  if (!parsed.ok()) die("bad ntier_run flags: " + parsed.error);
  const auto& o = *parsed.options;
  if (o.chaos || !o.gray_fault.empty() || o.sweep_seeds > 0 ||
      o.replay_scale > 0 || !o.record_trace_path.empty() ||
      !o.trace_path.empty() || !o.csv_dir.empty() || !o.json_path.empty() ||
      !o.trace_gen_spec.empty() || o.help)
    die("flag not supported by the benchmark");
  if (a.trace_gen.empty() != o.replay_trace_path.empty())
    die("--trace-gen and --replay-trace go together");
  return o;
}

// One set-up: seed -> constructed Experiment, with its parts timed.
struct Setup {
  std::unique_ptr<Experiment> exp;
  double total_s = 0, gen_s = 0, save_s = 0, parse_s = 0, build_s = 0;
  std::uint64_t trace_rows = 0;
  std::uint64_t allocations = 0;
};

// Mirrors ntier_run's config assembly (cli::run_cli) for the options
// parse_flags accepts.
Setup set_up(const Args& a, const ntier::cli::CliOptions& o, bool write_csv) {
  Setup s;
  const std::uint64_t a0 = allocations();
  const auto t0 = Clock::now();
  std::uint64_t excluded_allocations = 0;
  double excluded_s = 0;
  ExperimentConfig cfg = o.config;
  if (!a.trace_gen.empty()) {
    std::string err;
    const auto spec = ntier::workload::trace_gen_spec_from_string(a.trace_gen,
                                                                  &err);
    if (!spec || !spec->validate(&err)) die("bad --trace-gen: " + err);
    auto t = Clock::now();
    const ntier::workload::RubbosWorkload gen_workload(cfg.workload);
    const auto generated =
        ntier::workload::TraceGenerator(*spec).generate(gen_workload);
    s.gen_s = seconds_since(t);
    t = Clock::now();
    std::ostringstream text;
    generated.save(text);
    s.save_s = seconds_since(t);
    t = Clock::now();
    auto trace = std::make_shared<ntier::workload::ArrivalTrace>(
        ntier::workload::ArrivalTrace::parse(text.view(), "generated"));
    s.parse_s = seconds_since(t);
    s.trace_rows = trace->size();
    if (write_csv) {  // for the reference run; not part of the set-up cost
      const std::uint64_t wa = allocations();
      const auto wt = Clock::now();
      std::ofstream f(o.replay_trace_path, std::ios::binary);
      f << text.view();
      f.close();
      if (!f) die("cannot write " + o.replay_trace_path);
      excluded_allocations = allocations() - wa;
      excluded_s = seconds_since(wt);
    }
    if (!trace->sorted()) trace->sort();
    cfg.replay_trace = std::move(trace);
    if (o.replay_timeout_ms > 0)
      cfg.replay_client_timeout =
          ntier::sim::SimTime::from_millis(o.replay_timeout_ms);
    cfg.label += "_replay";
  }
  if (o.resilience) cfg.enable_resilience();
  const auto tb = Clock::now();
  s.exp = std::make_unique<Experiment>(std::move(cfg));
  s.build_s = seconds_since(tb);
  s.total_s = seconds_since(t0) - excluded_s;
  s.allocations = allocations() - a0 - excluded_allocations;
  return s;
}

// Read-only event every `period` of simulated time that stamps host time;
// every kCalibrateEvery-th one also times a calibration burst. It
// reschedules itself, so at most one extra event is ever queued. Slices
// exclude the bursts.
class Checkpoints {
 public:
  static constexpr std::size_t kCalibrateEvery = 4;

  Checkpoints(ntier::sim::Simulation& simu, Calibration& calibration,
              ntier::sim::SimTime period, ntier::sim::SimTime horizon)
      : sim_(simu),
        calibration_(calibration),
        period_(period),
        horizon_(horizon) {
    const auto n = static_cast<std::size_t>(horizon.ns() / period.ns()) + 2;
    slices_ms_.reserve(n);
    slice_calibration_us_.reserve(n);
  }
  Checkpoints(const Checkpoints&) = delete;
  Checkpoints& operator=(const Checkpoints&) = delete;

  void arm() {
    calibrate();
    last_ = Clock::now();
    schedule(period_);
  }
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t fired() const { return slices_ms_.size(); }
  /// Host milliseconds the simulation spent on each simulated period.
  const std::vector<double>& slices_ms() const { return slices_ms_; }
  /// Per slice, the calibration burst (µs) timed most recently before it.
  const std::vector<double>& slice_calibration_us() const {
    return slice_calibration_us_;
  }
  /// Host seconds spent calibrating, bursts and their warm-up included.
  double calibration_s() const { return calibration_s_; }

 private:
  void calibrate() {
    const auto t0 = Clock::now();
    burst_us_ = calibration_.burst_us();
    calibration_s_ += seconds_since(t0);
  }
  void schedule(ntier::sim::SimTime at) {
    if (at > horizon_) return;
    ++scheduled_;
    sim_.at(at, [this] {
      slices_ms_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - last_)
              .count());
      slice_calibration_us_.push_back(burst_us_);
      if (slices_ms_.size() % kCalibrateEvery == 0) calibrate();
      last_ = Clock::now();
      schedule(sim_.now() + period_);
    });
  }

  ntier::sim::Simulation& sim_;
  Calibration& calibration_;
  ntier::sim::SimTime period_, horizon_;
  Clock::time_point last_;
  double burst_us_ = 0;
  double calibration_s_ = 0;
  std::vector<double> slices_ms_;
  std::vector<double> slice_calibration_us_;
  std::uint64_t scheduled_ = 0;
};

// -- JSON output ---------------------------------------------------------------
class JsonLine {
 public:
  JsonLine() { os_ << std::setprecision(17) << "{"; }
  template <typename T>
  JsonLine& num(const std::string& key, T v) {
    sep(key);
    os_ << v;
    return *this;
  }
  JsonLine& boolean(const std::string& key, bool v) {
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonLine& str(const std::string& key, const std::string& v) {
    sep(key);
    os_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) os_ << c;
    }
    os_ << '"';
    return *this;
  }
  JsonLine& list(const std::string& key, const std::vector<double>& v) {
    sep(key);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os_ << (i ? "," : "") << v[i];
    os_ << ']';
    return *this;
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    sep(key);
    os_ << json;
    return *this;
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    os_ << (first_ ? "" : ",") << '"' << key << "\":";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// High-water RSS of this process image. getrusage's ru_maxrss would also
// count the parent's RSS at fork, which exec does not reset.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  die("VmHWM missing from /proc/self/status");
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string fingerprint() {
#ifdef NTIER_OBS_DISABLED
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
  return JsonLine()
      .str("cpu", cpu_model())
      .num("nproc", std::thread::hardware_concurrency())
      .str("compiler", COSTBENCH_COMPILER)
      .str("build_type", COSTBENCH_BUILD_TYPE)
      .boolean("NTIER_OBS_DISABLED", obs_disabled)
      .done();
}

// -- per-layer counts read from public accessors after the run ---------------
std::string layer_counts(Experiment& e, const ntier::experiment::RunSummary& s,
                         double issued) {
  double tomcat_stall_s = 0, cpu_work = 0, served = 0, routed = 0,
         connector_drops = 0, syn_drops = 0, balancer_errors = 0,
         first_attempts = 0, retries = 0, probes = 0, piggybacked = 0,
         admitted = 0;
  auto node_work = [&cpu_work](ntier::os::Node& n) {
    cpu_work += n.cpu().work_done_core_seconds();
  };
  for (int i = 0; i < e.num_apaches(); ++i) {
    auto& a = e.apache(i);
    node_work(e.apache_node(i));
    syn_drops += static_cast<double>(a.syn_drops());
    balancer_errors += static_cast<double>(a.balancer().balancer_errors());
    first_attempts += static_cast<double>(a.first_attempts());
    retries += static_cast<double>(a.retries());
    if (const auto* pool = a.probe_pool()) {
      probes += static_cast<double>(pool->probes_sent());
      piggybacked += static_cast<double>(pool->piggybacked());
    }
    if (const auto* lim = a.limiter())
      admitted += static_cast<double>(lim->admitted());
  }
  for (int i = 0; i < e.num_tomcats(); ++i) {
    node_work(e.tomcat_node(i));
    tomcat_stall_s += e.tomcat_node(i).cpu().stall_seconds();
    served += static_cast<double>(e.tomcat(i).served());
    connector_drops += static_cast<double>(e.tomcat(i).connector_drops());
    auto& r = e.db_router(i);
    routed += static_cast<double>(r.queries_routed());
    if (r.has_balancer())
      balancer_errors += static_cast<double>(r.balancer().balancer_errors());
    if (const auto* pool = r.probe_pool()) {
      probes += static_cast<double>(pool->probes_sent());
      piggybacked += static_cast<double>(pool->piggybacked());
    }
  }
  for (int i = 0; i < e.num_mysql(); ++i) node_work(e.mysql_node(i));
  for (int i = 0; i < e.num_kv_replicas(); ++i) node_work(e.kv_node(i));
  for (int i = 0; i < e.num_cache_nodes(); ++i) node_work(e.cache_node(i));

  const auto* replayer = e.replayer();
  double kv_ops = 0, kv_failed = 0;
  if (const auto* kv = e.kv_tier()) {
    const auto& k = kv->stats();
    kv_ops = static_cast<double>(k.reads_issued + k.writes_issued);
    kv_failed = static_cast<double>(k.quorum_failed_reads + k.quorum_failed_writes);
  }
  double lookups = 0, hit_ratio = 0, inval = 0, coalesced = 0;
  if (const auto* c = e.cache_tier()) {
    const auto& cs = c->stats();
    lookups = static_cast<double>(cs.lookups);
    hit_ratio = cs.hit_ratio();
    inval = static_cast<double>(cs.invalidations_sent);
    coalesced = static_cast<double>(cs.coalesced_fills);
  }
  double rec_ticks = 0, interventions = 0;
  if (const auto* r = e.recovery()) {
    const auto& rs = r->stats();
    rec_ticks = static_cast<double>(rs.ticks);
    interventions = static_cast<double>(rs.retry_suppressions + rs.hard_sheds +
                                        rs.refill_gates + rs.breaker_resets);
  }
  const auto* det = e.online_detector();
  const auto* trace = e.trace();
  const double per_req = issued > 0 ? 1.0 / issued : 0.0;
  return JsonLine()
      .num("os.tomcat_stall_s", tomcat_stall_s)
      .num("os.cpu_work_core_s", cpu_work)
      .num("lb.first_attempts", first_attempts)
      .num("lb.retries", retries)
      .num("lb.balancer_errors", balancer_errors)
      .num("net.syn_drops", syn_drops)
      .num("net.connection_drops",
           static_cast<double>(replayer ? replayer->connection_drops()
                                        : e.clients().connection_drops()))
      .num("server.tomcat_served", served)
      .num("server.db_queries_routed", routed)
      .num("server.connector_drops", connector_drops)
      .num("workload.issued", issued)
      .num("probe.probes_per_request", probes * per_req)
      .num("probe.piggybacked", piggybacked)
      .num("kv.ops", kv_ops)
      .num("kv.quorum_failed", kv_failed)
      .num("cache.lookups", lookups)
      .num("cache.hit_ratio", hit_ratio)
      .num("cache.invalidations_sent", inval)
      .num("cache.coalesced_fills", coalesced)
      .num("obs.events_emitted_per_request",
           trace ? static_cast<double>(trace->emitted()) * per_req : 0.0)
      .num("control.sheds",
           static_cast<double>(s.admission_sheds + s.brownout_sheds +
                               s.deadline_sheds + s.sojourn_sheds +
                               s.recovery_sheds))
      .num("control.admitted", admitted)
      .num("millib.online_episodes", static_cast<double>(s.online_episodes))
      .num("millib.windows_evaluated",
           det ? static_cast<double>(det->windows_evaluated()) : 0.0)
      .num("recovery.interventions", interventions)
      .num("recovery.ticks", rec_ticks)
      .done();
}

// Accounting identities that hold at the horizon (from check_invariants'
// report fields). Returns "" when all hold, else what broke.
std::string broken_identities(Experiment& e) {
  const auto r = ntier::experiment::check_invariants(e);
  std::ostringstream bad;
  // Request conservation: issued == completed + failed + dropped (+
  // abandoned) + in_flight, with in_flight never negative; a closed-loop
  // client has at most one request outstanding.
  if (const auto* rp = e.replayer()) {
    if (rp->completed_ok() + rp->failed() + rp->dropped() + rp->abandoned() >
        rp->issued())
      bad << "replay settled more requests than issued; ";
  } else {
    if (r.completed + r.failed + r.dropped > r.issued)
      bad << "clients settled more requests than issued; ";
    if (r.in_flight > static_cast<std::uint64_t>(e.config().num_clients))
      bad << "more requests in flight than clients; ";
  }
  // A lookup is counted when it is queued on the cache node's CPU and
  // resolved as a hit or miss when that demand runs, so at the horizon the
  // unresolved lookups are a subset of the cache ops still in flight.
  if (r.cache_hits + r.cache_misses > r.cache_lookups ||
      r.cache_lookups - r.cache_hits - r.cache_misses > r.cache_ops_in_flight)
    bad << "cache lookups != hits + misses + queued lookups; ";
  if (r.cache_misses != r.cache_fills_started + r.cache_coalesced_fills)
    bad << "cache misses != fills + coalesced; ";
  if (r.kv_reads_issued + r.kv_writes_issued !=
      r.kv_quorum_reads + r.kv_quorum_failed_reads + r.kv_quorum_writes +
          r.kv_quorum_failed_writes + r.kv_migration_shed + r.kv_ops_in_flight)
    bad << "kv issued != resolved + in flight; ";
  return bad.str();
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto options = parse_flags(args);

  // Set up repeatedly until 0.25 s is spent (at least once, at most 200
  // times), keeping the last Experiment; earlier ones are destroyed first so
  // peak memory is that of one set-up.
  // Calibration bursts just before and after the set-ups give the host
  // speed their times are scaled by.
  Calibration calibration;
  std::vector<double> setup_s, gen_s, save_s, parse_s, build_s, setup_cal_us;
  for (int i = 0; i < 8; ++i) setup_cal_us.push_back(calibration.burst_us());
  Setup s;
  double spent = 0;
  do {
    s.exp.reset();
    s = set_up(args, options, args.write_trace && setup_s.empty());
    setup_s.push_back(s.total_s);
    gen_s.push_back(s.gen_s);
    save_s.push_back(s.save_s);
    parse_s.push_back(s.parse_s);
    build_s.push_back(s.build_s);
    spent += s.total_s;
  } while (spent < 0.25 && setup_s.size() < 200);
  for (int i = 0; i < 8; ++i) setup_cal_us.push_back(calibration.burst_us());
  Experiment& e = *s.exp;

  Checkpoints checkpoints(e.simulation(), calibration,
                          ntier::sim::SimTime::millis(100), e.config().duration);
  std::unique_ptr<Sampler> sampler;
  // 2^16 samples at 2 kHz cover 32 s of run.
  if (args.traced) sampler = std::make_unique<Sampler>(1u << 16);
  const std::uint64_t allocs0 = allocations();
  const auto t0 = Clock::now();
  checkpoints.arm();
  if (sampler) sampler->start(500);
  e.run();
  if (sampler) sampler->stop();
  const double run_s = seconds_since(t0) - checkpoints.calibration_s();
  const std::uint64_t run_allocs = allocations() - allocs0;

  const auto ts = Clock::now();
  const auto summary = ntier::experiment::summarize(e);
  const double summarize_ms = seconds_since(ts) * 1e3;
  {
    std::ofstream f(args.summary_out);
    summary.to_json(f);
    if (!f) die("cannot write " + args.summary_out);
  }

  const double issued = static_cast<double>(
      e.replayer() ? e.replayer()->issued() : e.clients().issued());
  const std::uint64_t events =
      e.simulation().events_executed() - checkpoints.fired();
  const std::uint64_t scheduled =
      e.simulation().events_scheduled() - checkpoints.scheduled();

  JsonLine out;
  out.list("setup_s", setup_s)
      .list("trace_gen_s", gen_s)
      .list("trace_save_s", save_s)
      .list("trace_parse_s", parse_s)
      .list("build_s", build_s)
      .num("trace_rows", s.trace_rows)
      .num("setup_allocations", s.allocations)
      .num("run_s", run_s)
      .list("slices_ms", checkpoints.slices_ms())
      .list("calibration_us", checkpoints.slice_calibration_us())
      .list("setup_calibration_us", setup_cal_us)
      .num("calibration_sink", calibration.sink())
      .num("events_executed", events)
      .num("events_scheduled", scheduled)
      .num("run_allocations", run_allocs)
      .num("issued", issued)
      .num("peak_rss_kb", peak_rss_kb())
      .num("summarize_ms", summarize_ms)
      .num("mean_rt_ms", summary.mean_rt_ms)
      .num("vlrt_fraction", summary.vlrt_fraction)
      .str("broken_identities", broken_identities(e))
      .raw("layers", layer_counts(e, summary, issued))
      .raw("fingerprint", fingerprint());
  if (sampler) {
    JsonLine shares;
    for (const auto& [layer, n] :
         sampler->attribute(argv[0], args.summary_out + ".addrs"))
      shares.num(layer, n);
    out.raw("samples", shares.done());
  }
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace
}  // namespace costbench

int main(int argc, char** argv) {
  try {
    return costbench::run(argc, argv);
  } catch (const std::exception& err) {
    std::cerr << "costbench: " << err.what() << "\n";
    return 1;
  }
}
