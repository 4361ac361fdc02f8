// Microbenchmarks of the simulator hot paths (google-benchmark): event
// queue throughput, processor-sharing CPU churn, balancer decision latency,
// random streams and trace generation, the cache store and the telemetry
// timeline, and end-to-end simulated-seconds-per-wall-second of the full
// testbed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "cache/store.h"
#include "experiment/experiment.h"
#include "lb/load_balancer.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "os/cpu.h"
#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "workload/rubbos.h"
#include "workload/trace_gen.h"

using namespace ntier;

static void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < 10'000; ++i)
      s.after(sim::SimTime::micros(i), [] {});
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueScheduleFire);

// Timer-reset pattern: every retransmit/timeout timer in the testbed is
// scheduled and then cancelled when the response lands first. The old
// priority_queue + unordered_set implementation paid a hash insert + erase
// per event here; the slot table finds the event by index and removes it
// from whichever tier holds it.
static void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < 10'000; ++i) {
      s.after(sim::SimTime::micros(i), [&s, i] {
        const auto timeout =
            s.after(sim::SimTime::millis(3), [] { /* would retransmit */ });
        s.after(sim::SimTime::micros(200 + (i % 97)),
                [&s, timeout] { s.cancel(timeout); });
      });
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 30'000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// Moving one pending event, as the processor-sharing CPU does with its
// completion event on every arrival and departure, on a heap the size of
// fig6_baseline's live-event count (about 7k): re-key in place (Arg 1)
// against cancel + push (Arg 0). Each iteration also fires the earliest
// event and pushes a replacement, so the heap keeps its size and cancelled
// nodes drain as the clock moves.
static void BM_EventQueueReschedule(benchmark::State& state) {
  const bool rekey = state.range(0) == 1;
  constexpr int kLive = 7000;
  constexpr std::int64_t kWindowUs = 700'000;  // 7k events per 0.7 s: 10k/s
  std::mt19937_64 rng(42);
  sim::EventQueue q;
  for (int i = 0; i < kLive; ++i)
    q.push(sim::SimTime::micros(static_cast<std::int64_t>(rng() % kWindowUs)),
           [] {});
  bool standing_fired = false;
  const auto standing = [&standing_fired] { standing_fired = true; };
  sim::EventId id = q.push(sim::SimTime::micros(kWindowUs / 2), standing);
  for (auto _ : state) {
    auto fired = q.pop();
    fired.fn();
    const sim::SimTime now = fired.at;
    if (standing_fired) {
      standing_fired = false;
      id = q.push(now + sim::SimTime::micros(500), standing);
    } else {
      q.push(now + sim::SimTime::micros(kWindowUs), [] {});
    }
    const sim::SimTime at =
        now + sim::SimTime::micros(100 + static_cast<std::int64_t>(rng() % 5000));
    if (rekey) {
      benchmark::DoNotOptimize(q.reschedule(id, at));
    } else {
      benchmark::DoNotOptimize(q.cancel(id));
      id = q.push(at, standing);
    }
  }
  benchmark::DoNotOptimize(q.size());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(rekey ? "reschedule" : "cancel+push");
}
BENCHMARK(BM_EventQueueReschedule)->Arg(0)->Arg(1);

// The fig6_baseline shape: 7000 closed-loop clients each keep one think
// timer pending (exponential, mean 700 ms) while requests make ~11 short
// hops per think time (link and service steps, 65-130 us apart). Each
// iteration fires the earliest event and re-arms it the same way, so the
// population stays at 7000 far timers plus 12 near chains. With one heap
// every pop sifts through the far timers; the timing wheel keeps them out.
static void BM_EventQueueTimerPopulation(benchmark::State& state) {
  constexpr int kClients = 7000;
  constexpr int kHopChains = 12;
  std::mt19937_64 rng(42);
  std::exponential_distribution<double> think_s(1.0 / 0.7);
  std::uniform_int_distribution<std::int64_t> hop_ns(65'000, 130'000);
  sim::EventQueue q;
  bool hop = false;
  for (int i = 0; i < kClients; ++i)
    q.push(sim::SimTime::from_seconds(think_s(rng)), [&hop] { hop = false; });
  for (int i = 0; i < kHopChains; ++i)
    q.push(sim::SimTime::nanos(hop_ns(rng)), [&hop] { hop = true; });
  for (auto _ : state) {
    auto fired = q.pop();
    fired.fn();
    if (hop)
      q.push(fired.at + sim::SimTime::nanos(hop_ns(rng)),
             [&hop] { hop = true; });
    else
      q.push(fired.at + sim::SimTime::from_seconds(think_s(rng)),
             [&hop] { hop = false; });
  }
  benchmark::DoNotOptimize(q.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimerPopulation);

// The replay_flash_day shape: open-loop arrivals at 8000 req/s, each arming
// a 5 s client-patience timer that the response (exponential, mean 20 ms)
// cancels. 60k requests span 7.5 simulated seconds, so a queue that keeps
// cancelled timers until their time comes round holds up to 40k of them.
static void BM_EventQueuePatienceTimers(benchmark::State& state) {
  constexpr int kRequests = 60'000;
  struct Load {
    sim::Simulation& s;
    std::mt19937_64 rng{42};
    std::exponential_distribution<double> gap_s{8000.0};
    std::exponential_distribution<double> response_s{50.0};
    int left = kRequests;
    int answered = 0;
    void arrive() {
      const sim::EventId patience = s.after(sim::SimTime::seconds(5), [] {});
      s.after(sim::SimTime::from_seconds(response_s(rng)),
              [this, patience] { answered += s.cancel(patience); });
      if (--left > 0)
        s.after(sim::SimTime::from_seconds(gap_s(rng)), [this] { arrive(); });
    }
  };
  for (auto _ : state) {
    sim::Simulation s;
    Load load{s};
    s.at(sim::SimTime::zero(), [&load] { load.arrive(); });
    s.run();
    benchmark::DoNotOptimize(load.answered);
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK(BM_EventQueuePatienceTimers)->Unit(benchmark::kMillisecond);

// The link-hop shape of fig6_baseline, where fixed 100 us net::Link
// deliveries are most of the events: 64 requests in flight each hop from
// tier to tier, re-keying one processor-sharing completion event per hop
// (as CpuResource does on every arrival), among 7000 exponential think
// timers (mean 700 ms) that re-arm when they fire. Each iteration runs
// 10 ms of simulated time; per_event is host time per executed event.
static void BM_EventQueueLinkTraffic(benchmark::State& state) {
  constexpr int kRequests = 64;
  constexpr int kClients = 7000;
  struct Load {
    sim::Simulation& s;
    net::Link link{sim::SimTime::micros(100)};
    std::mt19937_64 rng{42};
    std::exponential_distribution<double> think_s{1.0 / 0.7};
    std::exponential_distribution<double> service_s{1.0 / 0.002};
    sim::EventId completion = sim::kInvalidEventId;
    void think() {
      s.after(sim::SimTime::from_seconds(think_s(rng)), [this] { think(); });
    }
    void hop() {
      link.deliver(s, [this] {
        s.reschedule(completion,
                     s.now() + sim::SimTime::from_seconds(service_s(rng)));
        hop();
      });
    }
    void complete() {
      completion = s.after(sim::SimTime::from_seconds(service_s(rng)),
                           [this] { complete(); });
    }
  };
  sim::Simulation s;
  Load load{s};
  for (int i = 0; i < kClients; ++i) load.think();
  for (int i = 0; i < kRequests; ++i) load.hop();
  load.complete();
  const std::uint64_t before = s.events_executed();
  for (auto _ : state)
    benchmark::DoNotOptimize(s.run_until(s.now() + sim::SimTime::millis(10)));
  state.counters["per_event"] = benchmark::Counter(
      static_cast<double>(s.events_executed() - before),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EventQueueLinkTraffic);

// A continuation's life on the event path: built from a lambda with a
// 40-byte capture (a pointer plus four words, the size of a typical
// request-path closure), moved twice (into the queue slot, out to the run
// loop) and invoked. std::function stores only 16 bytes inline, so it
// allocates; sim::Callback keeps the capture in its 48-byte buffer.
template <typename Fn>
static void BM_CallbackMove(benchmark::State& state) {
  std::uint64_t sink = 0;
  std::uint64_t x0 = 1, x1 = 2, x2 = 3, x3 = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x0);
    Fn a = [s = &sink, x0, x1, x2, x3] { *s += x0 + x1 + x2 + x3; };
    Fn b = std::move(a);
    Fn c = std::move(b);
    c();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_CallbackMove, std::function<void()>);
BENCHMARK_TEMPLATE(BM_CallbackMove, sim::Callback);

static void BM_CpuProcessorSharing(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    os::CpuResource cpu(s, 4);
    int done = 0;
    for (int i = 0; i < jobs; ++i)
      s.after(sim::SimTime::micros(13 * i),
              [&] { cpu.submit(sim::SimTime::micros(500), [&] { ++done; }); });
    s.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_CpuProcessorSharing)->Arg(100)->Arg(1000)->Arg(10000);

static void BM_BalancerAssign(benchmark::State& state) {
  sim::Simulation s;
  lb::LoadBalancer bal(s, 4, lb::make_policy(lb::PolicyKind::kCurrentLoad),
                       lb::make_acquirer(lb::MechanismKind::kNonBlocking), {});
  auto req = std::make_shared<proto::Request>();
  for (auto _ : state) {
    bal.assign(req, [&](int idx) { bal.on_response(idx, req); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BalancerAssign);

// A per-session stream: the trace generator forks one Rng per session and
// draws about 50 words from it, so seeding the state and any up-front
// twisting of it dominate.
static void BM_RngForkAndDraw(benchmark::State& state) {
  sim::Rng parent(42);
  for (auto _ : state) {
    sim::Rng child = parent.fork();
    double sum = 0;
    for (int i = 0; i < 50; ++i) sum += child.uniform01();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngForkAndDraw);

// A long stream: one uniform01 per item, twisting amortised.
static void BM_RngDraw(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraw);

// The cost benchmark's replay_flash_day trace at a 10 s horizon; items are
// generated rows.
static void BM_TraceGenerate(benchmark::State& state) {
  const auto spec = workload::trace_gen_spec_from_string(
      "seed=42,duration=10,base-rps=8000,diurnal-amplitude=0.3,flash-at=30,"
      "flash-duration=5,flash-multiplier=2",
      nullptr);
  const workload::RubbosWorkload w;
  const workload::TraceGenerator gen(*spec);
  std::int64_t rows = 0;
  for (auto _ : state) {
    const auto trace = gen.generate(w);
    rows += static_cast<std::int64_t>(trace.size());
    benchmark::DoNotOptimize(trace.events().data());
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_TraceGenerate)->Unit(benchmark::kMillisecond);

// The cache tier's read path: Zipf(1.1) keys over 10k ranks (the hottest
// rank is key 0, as in the workload), looked up in a 2048-entry store and
// filled on a miss, with a TTL long enough that only LRU eviction removes
// entries. Keys are drawn up front so the loop times only the store.
static void BM_CacheStoreLookup(benchmark::State& state) {
  constexpr std::size_t kKeySpace = 10'000;
  std::vector<double> cdf(kKeySpace);
  double total = 0;
  for (std::size_t r = 0; r < kKeySpace; ++r)
    cdf[r] = total += std::pow(static_cast<double>(r + 1), -1.1);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(0.0, total);
  std::vector<std::uint64_t> keys(1 << 16);
  for (auto& k : keys)
    k = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u(rng)) - cdf.begin()),
        kKeySpace - 1);
  cache::CacheStore store(2048);
  const sim::SimTime ttl = sim::SimTime::seconds(3600);
  sim::SimTime now = sim::SimTime::zero();
  std::size_t i = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const std::uint64_t key = keys[i++ & (keys.size() - 1)];
    now = now + sim::SimTime::micros(10);
    if (store.lookup(key, now))
      ++hits;
    else
      store.insert(key, now, ttl);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CacheStoreLookup);

// One telemetry instrument's timeline at the default 50 ms fine windows
// (1 s coarse roll-up): a sample every 100 us, values spread over four
// decades as response times are, so every window builds its own sketch.
static void BM_TelemetryRecord(benchmark::State& state) {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  obs::MultiResTimeline timeline(cfg);
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> rt_ms(1.5, 1.2);
  std::vector<double> values(1 << 16);
  for (double& v : values) v = rt_ms(rng);
  sim::SimTime now = sim::SimTime::zero();
  std::size_t i = 0;
  for (auto _ : state) {
    now = now + sim::SimTime::micros(100);
    timeline.record(now, values[i++ & (values.size() - 1)]);
  }
  benchmark::DoNotOptimize(timeline.recorded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryRecord);

static void BM_FullTestbedSimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    auto c = experiment::ExperimentConfig::scaled(0.1);
    c.duration = sim::SimTime::seconds(1);
    c.tracing = false;
    experiment::Experiment e(std::move(c));
    e.run();
    benchmark::DoNotOptimize(e.log().completed());
  }
  state.SetLabel("1 simulated second @ 10k req/s");
}
BENCHMARK(BM_FullTestbedSimulatedSecond)->Unit(benchmark::kMillisecond);
