#include "workload/trace.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace ntier::workload {

namespace {

constexpr std::string_view kHeaderLean = "at_ns,client,interaction";
constexpr std::string_view kHeaderRich = "at_ns,client,interaction,key,priority";
constexpr std::string_view kHeaderLegacy = "at_s,client,interaction";

[[noreturn]] void parse_fail(const std::string& origin, std::size_t row,
                             std::size_t col, const std::string& why) {
  throw std::invalid_argument("ArrivalTrace: " + origin + ":" +
                              std::to_string(row) + ":" + std::to_string(col) +
                              ": " + why);
}

/// Strict integer field: from_chars must consume every byte.
template <typename T>
T parse_uint(std::string_view field, const std::string& origin,
             std::size_t row, std::size_t col, const char* what,
             std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(field.begin(), field.end(), v);
  if (ec != std::errc() || ptr != field.end())
    parse_fail(origin, row, col,
               std::string("bad ") + what + " '" + std::string(field) + "'");
  if (v > max)
    parse_fail(origin, row, col,
               std::string(what) + " " + std::to_string(v) + " exceeds " +
                   std::to_string(max));
  return static_cast<T>(v);
}

std::int64_t parse_at_ns(std::string_view field, const std::string& origin,
                         std::size_t row) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(field.begin(), field.end(), v);
  if (ec != std::errc() || ptr != field.end())
    parse_fail(origin, row, 1,
               "bad at_ns '" + std::string(field) + "' (integer nanoseconds)");
  if (v < 0) parse_fail(origin, row, 1, "negative arrival time");
  return v;
}

/// Legacy v1 times: fractional seconds, parsed strictly (std::stod's
/// trailing-garbage tolerance is what this replaces).
sim::SimTime parse_at_s(std::string_view field, const std::string& origin,
                        std::size_t row) {
  double v = 0;
  const auto [ptr, ec] = std::from_chars(field.begin(), field.end(), v);
  if (ec != std::errc() || ptr != field.end() || !std::isfinite(v))
    parse_fail(origin, row, 1,
               "bad at_s '" + std::string(field) + "' (finite seconds)");
  if (v < 0) parse_fail(origin, row, 1, "negative arrival time");
  return sim::SimTime::from_seconds(v);
}

/// Split one CSV row into exactly `want` comma-separated fields.
std::size_t split_row(std::string_view line, std::string_view* out,
                      std::size_t want) {
  std::size_t n = 0;
  while (true) {
    const std::size_t comma = line.find(',');
    if (n < want) out[n] = line.substr(0, comma);
    ++n;
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  return n;
}

}  // namespace

bool ArrivalTrace::sorted() const {
  for (std::size_t i = 1; i < events_.size(); ++i)
    if (events_[i].at < events_[i - 1].at) return false;
  return true;
}

void ArrivalTrace::sort() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ArrivalEvent& a, const ArrivalEvent& b) {
                     return a.at < b.at;
                   });
}

void ArrivalTrace::save(std::ostream& os) const {
  // Times go out as the simulator's own integer nanoseconds: the default
  // ostream double formatting (6 significant digits) used to shave arrival
  // times to ms past t=1000s, breaking save->load->save byte-identity.
  // Rows are formatted with std::to_chars into a chunk that is written out
  // whole: the bytes of default ostream integer output, without its
  // per-field sentry and locale work.
  os << (rich_ ? kHeaderRich : kHeaderLean) << '\n';
  constexpr std::ptrdiff_t kMaxRow = 64;  // 20+10+5+20+3 digits, 5 separators
  std::vector<char> chunk(16 * 1024);
  char* p = chunk.data();
  char* const end = chunk.data() + chunk.size();
  const auto field = [&p, end](auto v) { p = std::to_chars(p, end, v).ptr; };
  for (const auto& e : events_) {
    if (end - p < kMaxRow) {
      os.write(chunk.data(), p - chunk.data());
      p = chunk.data();
    }
    field(e.at.ns());
    *p++ = ',';
    field(e.client);
    *p++ = ',';
    field(e.interaction);
    if (rich_) {
      *p++ = ',';
      field(e.key);
      *p++ = ',';
      field(static_cast<unsigned>(e.priority));
    }
    *p++ = '\n';
  }
  os.write(chunk.data(), p - chunk.data());
}

ArrivalTrace ArrivalTrace::parse(std::string_view text,
                                 const std::string& origin) {
  ArrivalTrace trace;
  std::size_t row = 0;
  auto next_line = [&text, &row]() {
    ++row;
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  };

  if (text.empty())
    throw std::invalid_argument("ArrivalTrace: " + origin +
                                ": empty input (missing header)");
  const std::string_view header = next_line();
  bool legacy = false;
  bool rich = false;
  if (header == kHeaderRich) {
    rich = true;
  } else if (header == kHeaderLean) {
  } else if (header == kHeaderLegacy) {
    legacy = true;
  } else {
    throw std::invalid_argument(
        "ArrivalTrace: " + origin + ":1:1: unknown header '" +
        std::string(header) + "' (expected '" + std::string(kHeaderRich) +
        "', '" + std::string(kHeaderLean) + "' or legacy '" +
        std::string(kHeaderLegacy) + "')");
  }
  const std::size_t want = rich ? 5 : 3;

  while (!text.empty()) {
    const std::string_view line = next_line();
    if (line.empty()) continue;
    std::string_view f[5];
    const std::size_t got = split_row(line, f, want);
    if (got != want)
      parse_fail(origin, row, got < want ? got + 1 : want + 1,
                 "expected " + std::to_string(want) + " fields, got " +
                     std::to_string(got));
    const sim::SimTime at =
        legacy ? parse_at_s(f[0], origin, row)
               : sim::SimTime::nanos(parse_at_ns(f[0], origin, row));
    const auto client = parse_uint<std::uint32_t>(f[1], origin, row, 2,
                                                  "client id", UINT32_MAX);
    const auto interaction = parse_uint<std::uint16_t>(
        f[2], origin, row, 3, "interaction id", UINT16_MAX);
    if (rich) {
      const auto key =
          parse_uint<std::uint64_t>(f[3], origin, row, 4, "key", UINT64_MAX);
      // Brownout classes are 0 (high) .. 2 (low); anything else is a
      // corrupted row, not a new class.
      const auto priority =
          parse_uint<std::uint8_t>(f[4], origin, row, 5, "priority", 2);
      trace.add_rich(at, client, interaction, key, priority);
    } else {
      trace.add(at, client, interaction);
    }
  }
  return trace;
}

ArrivalTrace ArrivalTrace::load(std::istream& is) {
  std::string text(std::istreambuf_iterator<char>(is), {});
  return parse(text, "<stream>");
}

void ArrivalTrace::save_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("ArrivalTrace: cannot write " + path);
  save(f);
  f.flush();
  if (!f) throw std::runtime_error("ArrivalTrace: write failed: " + path);
}

ArrivalTrace ArrivalTrace::load_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    throw std::runtime_error("ArrivalTrace: cannot open " + path + ": " +
                             std::strerror(errno));
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct stat st {};
  if (::fstat(fd, &st) != 0)
    throw std::runtime_error("ArrivalTrace: cannot stat " + path + ": " +
                             std::strerror(errno));
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) return parse({}, path);  // throws "empty input" with origin

  void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mem == MAP_FAILED) {
    // Not a mappable file (pipe, some pseudo-filesystems): stream it.
    std::ifstream f(path, std::ios::binary);
    if (!f) throw std::runtime_error("ArrivalTrace: cannot read " + path);
    std::string text(std::istreambuf_iterator<char>(f), {});
    return parse(text, path);
  }
  struct Unmap {
    void* mem;
    std::size_t size;
    ~Unmap() { ::munmap(mem, size); }
  } unmap{mem, size};
  return parse(std::string_view(static_cast<const char*>(mem), size), path);
}

void ArrivalTrace::scale_time(double factor) {
  if (!(factor > 0) || !std::isfinite(factor))
    throw std::invalid_argument(
        "ArrivalTrace::scale_time: factor must be finite and > 0");
  for (auto& e : events_)
    e.at = sim::SimTime::nanos(static_cast<std::int64_t>(
        static_cast<double>(e.at.ns()) * factor + 0.5));
}

TraceReplayer::TraceReplayer(sim::Simulation& simu, const ArrivalTrace& trace,
                             const RubbosWorkload& workload,
                             std::vector<proto::FrontEnd*> frontends,
                             metrics::RequestLog& log, ReplayParams params)
    : sim_(simu),
      trace_(trace),
      workload_(workload),
      frontends_(std::move(frontends)),
      log_(log),
      params_(std::move(params)),
      link_(params_.link_latency),
      rng_(simu.rng().fork()) {
  if (frontends_.empty())
    throw std::invalid_argument("TraceReplayer: no front-ends");
  if (!trace_.sorted())
    throw std::invalid_argument(
        "TraceReplayer: trace is not sorted by arrival time (call "
        "ArrivalTrace::sort() first)");
}

void TraceReplayer::start() {
  if (started_) throw std::logic_error("TraceReplayer::start called twice");
  started_ = true;
  if (trace_.empty()) return;
  if (trace_.events().front().at < sim_.now())
    throw std::logic_error("TraceReplayer: trace event in the past");
  schedule_next();
}

void TraceReplayer::schedule_next() {
  if (next_ >= trace_.size()) return;
  const ArrivalEvent& ev = trace_.events()[next_];
  sim_.at(ev.at, [this, &ev] {
    ++next_;
    schedule_next();  // keep exactly one pending arrival in the queue
    issue(ev);
  });
}

void TraceReplayer::issue(const ArrivalEvent& ev) {
  auto req = workload_.materialize(rng_, next_id_++, ev.client, ev.interaction);
  if (trace_.rich()) {
    // Replay the recorded data key and brownout class instead of this run's
    // fresh draws: the KV/cache tiers and the admission limiter see exactly
    // the recorded day.
    req->key = ev.key;
    req->priority = ev.priority;
  }
  req->client_start = sim_.now();
  if (params_.deadline_budget != sim::SimTime::zero())
    req->deadline = req->client_start + params_.deadline_budget;
  req->apache_id = static_cast<std::int16_t>(ev.client % frontends_.size());
  ++issued_;

  auto flight = std::make_shared<Flight>();
  if (params_.client_timeout != sim::SimTime::zero()) {
    flight->timer = sim_.after(params_.client_timeout, [this, req, flight] {
      if (flight->settled) return;
      flight->settled = true;
      ++abandoned_;
      // The client hung up: account the wait it actually endured as a drop.
      // A response that arrives later is ignored.
      record(req, metrics::RequestOutcome::kDropped);
    });
  }
  attempt(req, flight, 0);
}

void TraceReplayer::attempt(const proto::RequestPtr& req,
                            const FlightPtr& flight, std::size_t tries) {
  link_.deliver(sim_, [this, req, flight, tries] {
    auto* fe = frontends_[static_cast<std::size_t>(req->apache_id)];
    const bool accepted = fe->try_submit(
        req, [this, flight](const proto::RequestPtr& r, bool ok) {
          link_.deliver(sim_, [this, r, flight, ok] {
            finish(r, flight,
                   ok ? metrics::RequestOutcome::kOk
                      : metrics::RequestOutcome::kBalancerError);
          });
        });
    if (!accepted) {
      ++connection_drops_;
      if (tries < params_.retransmit.max_retries()) {
        req->retransmissions =
            static_cast<std::uint8_t>(req->retransmissions + 1);
        sim_.after(params_.retransmit.delay(tries),
                   [this, req, flight, tries] {
                     if (flight->settled) return;  // abandoned while backing off
                     attempt(req, flight, tries + 1);
                   });
      } else {
        finish(req, flight, metrics::RequestOutcome::kDropped);
      }
    }
  });
}

void TraceReplayer::finish(const proto::RequestPtr& req,
                           const FlightPtr& flight,
                           metrics::RequestOutcome outcome) {
  if (flight->settled) return;  // the abandonment timer won the race
  flight->settled = true;
  if (flight->timer != sim::kInvalidEventId) sim_.cancel(flight->timer);
  switch (outcome) {
    case metrics::RequestOutcome::kOk: ++completed_ok_; break;
    case metrics::RequestOutcome::kDropped: ++dropped_; break;
    case metrics::RequestOutcome::kBalancerError: ++failed_; break;
    case metrics::RequestOutcome::kInFlight: break;
  }
  record(req, outcome);
}

void TraceReplayer::record(const proto::RequestPtr& req,
                           metrics::RequestOutcome outcome) {
  if (req->client_start < params_.warmup) return;
  metrics::RequestRecord rec;
  rec.id = req->id;
  rec.interaction = req->interaction;
  rec.apache = req->apache_id;
  rec.tomcat = req->tomcat_id;
  rec.retransmissions = req->retransmissions;
  rec.outcome = outcome;
  rec.start = req->client_start;
  rec.end = sim_.now();
  rec.accepted_at = req->accepted_at;
  rec.assigned_at = req->assigned_at;
  rec.backend_done_at = req->backend_done_at;
  rec.deadline = req->deadline;
  rec.priority = req->priority;
  rec.shed = req->shed;
  rec.kv_wait_ms = req->kv_quorum_wait.to_millis();
  rec.kv_degraded_ms = req->kv_degraded_wait.to_millis();
  log_.on_complete(rec);
}

}  // namespace ntier::workload
