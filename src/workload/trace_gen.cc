#include "workload/trace_gen.h"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ntier::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Shortest round-trip double formatting (ostream's 6 significant digits
/// would corrupt a spec through to_string -> parse).
std::string fmt(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ptr);
}

}  // namespace

bool TraceGenSpec::validate(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error) *error = "trace-gen spec: " + why;
    return false;
  };
  auto finite = [](double v) { return std::isfinite(v); };
  if (!finite(duration_s) || duration_s <= 0)
    return fail("duration must be finite and > 0");
  if (!finite(base_rps) || base_rps <= 0)
    return fail("base-rps must be finite and > 0");
  if (!finite(diurnal_amplitude) || diurnal_amplitude < 0 ||
      diurnal_amplitude >= 1)
    return fail("diurnal-amplitude must be in [0, 1)");
  if (!finite(diurnal_period_s) || diurnal_period_s < 0)
    return fail("diurnal-period must be >= 0 (0 = one cycle over duration)");
  if (!finite(flash_at_s)) return fail("flash-at must be finite");
  if (flash_at_s >= 0) {
    if (!finite(flash_duration_s) || flash_duration_s <= 0)
      return fail("flash-duration must be finite and > 0");
    if (!finite(flash_multiplier) || flash_multiplier < 1)
      return fail("flash-multiplier must be >= 1");
  }
  if (!finite(session_mean) || session_mean < 1)
    return fail("session-mean must be >= 1");
  if (!finite(think_mean_s) || think_mean_s < 0)
    return fail("think-mean must be >= 0");
  if (!finite(abandon_p) || abandon_p < 0 || abandon_p >= 1)
    return fail("abandon-p must be in [0, 1)");
  return true;
}

std::string TraceGenSpec::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed << ",duration=" << fmt(duration_s) << ",base-rps="
     << fmt(base_rps) << ",diurnal-amplitude=" << fmt(diurnal_amplitude)
     << ",diurnal-period=" << fmt(diurnal_period_s) << ",flash-at="
     << fmt(flash_at_s) << ",flash-duration=" << fmt(flash_duration_s)
     << ",flash-multiplier=" << fmt(flash_multiplier) << ",session-mean="
     << fmt(session_mean) << ",think-mean=" << fmt(think_mean_s)
     << ",abandon-p=" << fmt(abandon_p);
  return os.str();
}

std::optional<TraceGenSpec> trace_gen_spec_from_string(const std::string& s,
                                                       std::string* error) {
  TraceGenSpec spec;
  auto fail = [error](const std::string& why) {
    if (error) *error = "trace-gen spec: " + why;
    return std::nullopt;
  };
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      return fail("expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      std::uint64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc() || ptr != value.data() + value.size())
        return fail("bad integer for 'seed': '" + value + "'");
      spec.seed = parsed;
      continue;
    }
    double parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc() || ptr != value.data() + value.size())
      return fail("bad number for '" + key + "': '" + value + "'");
    if (key == "duration") spec.duration_s = parsed;
    else if (key == "base-rps") spec.base_rps = parsed;
    else if (key == "diurnal-amplitude") spec.diurnal_amplitude = parsed;
    else if (key == "diurnal-period") spec.diurnal_period_s = parsed;
    else if (key == "flash-at") spec.flash_at_s = parsed;
    else if (key == "flash-duration") spec.flash_duration_s = parsed;
    else if (key == "flash-multiplier") spec.flash_multiplier = parsed;
    else if (key == "session-mean") spec.session_mean = parsed;
    else if (key == "think-mean") spec.think_mean_s = parsed;
    else if (key == "abandon-p") spec.abandon_p = parsed;
    else return fail("unknown key '" + key + "'");
  }
  std::string why;
  if (!spec.validate(&why)) {
    if (error) *error = why;
    return std::nullopt;
  }
  return spec;
}

double TraceGenerator::rate_at(double t_s) const {
  const double period =
      spec_.diurnal_period_s > 0 ? spec_.diurnal_period_s : spec_.duration_s;
  double r = spec_.base_rps;
  if (spec_.diurnal_amplitude > 0)
    r *= 1.0 + spec_.diurnal_amplitude *
                   std::sin(2.0 * kPi * t_s / period - kPi / 2.0);
  if (spec_.flash_at_s >= 0 && t_s >= spec_.flash_at_s &&
      t_s < spec_.flash_at_s + spec_.flash_duration_s)
    r *= spec_.flash_multiplier;
  return r;
}

ArrivalTrace TraceGenerator::generate(const RubbosWorkload& workload) const {
  std::string why;
  if (!spec_.validate(&why)) throw std::invalid_argument(why);

  ArrivalTrace trace;
  sim::Rng rng(spec_.seed);

  // Session starts are an NHPP, sampled by thinning a homogeneous process
  // at the global peak rate (diurnal peak x flash multiplier). A session of
  // session_mean interactions contributes session_mean arrivals, so the
  // session start rate is rate(t) / session_mean.
  const double flash_mult =
      spec_.flash_at_s >= 0 ? spec_.flash_multiplier : 1.0;
  const double lambda_max = spec_.base_rps *
                            (1.0 + spec_.diurnal_amplitude) * flash_mult /
                            spec_.session_mean;
  const double continue_p =
      spec_.session_mean <= 1.0 ? 0.0 : 1.0 - 1.0 / spec_.session_mean;

  // Every row consumes a whole request's draws (the session stream, and so
  // the trace bytes, depend on them) but keeps only its key and priority, so
  // one reused request serves every row.
  proto::Request req;
  std::uint32_t next_client = 0;
  double t = 0;
  while (true) {
    t += rng.exponential(1.0 / lambda_max);
    if (t >= spec_.duration_s) break;
    if (!rng.bernoulli(rate_at(t) / (lambda_max * spec_.session_mean)))
      continue;

    // One user session: its own forked stream, so the per-session walk is
    // independent of how many other sessions the thinning loop rejected.
    sim::Rng session_rng = rng.fork();
    const std::uint32_t client = next_client++;
    double st = t;
    int prev = -1;
    while (true) {
      const std::size_t k = workload.next_interaction(session_rng, prev);
      workload.fill(session_rng, 0, client, k, req);
      trace.add_rich(sim::SimTime::from_seconds(st), client,
                     static_cast<std::uint16_t>(k), req.key, req.priority);
      prev = static_cast<int>(k);
      if (!session_rng.bernoulli(continue_p)) break;
      if (spec_.abandon_p > 0 && session_rng.bernoulli(spec_.abandon_p))
        break;
      if (spec_.think_mean_s > 0)
        st += session_rng.exponential(spec_.think_mean_s);
      if (st >= spec_.duration_s) break;
    }
  }

  // Sessions overlap, so their interleaved arrivals need a final ordering
  // pass (stable: same-instant arrivals keep generation order).
  trace.sort();
  return trace;
}

}  // namespace ntier::workload
