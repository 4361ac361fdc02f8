// Tests for the synthetic production-day trace generator: spec parsing,
// diurnal/flash rate curves, determinism, and session structure.
#include "workload/trace_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>

namespace ntier::workload {
namespace {

TEST(TraceGenSpec, ParsesKeyValueListAndRoundTrips) {
  std::string err;
  const auto spec = trace_gen_spec_from_string(
      "seed=7,duration=30,base-rps=500,diurnal-amplitude=0.4,"
      "flash-at=10,flash-duration=2,flash-multiplier=3,session-mean=4,"
      "think-mean=0.5,abandon-p=0.1",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->duration_s, 30.0);
  EXPECT_DOUBLE_EQ(spec->base_rps, 500.0);
  EXPECT_DOUBLE_EQ(spec->diurnal_amplitude, 0.4);
  EXPECT_DOUBLE_EQ(spec->flash_at_s, 10.0);
  EXPECT_DOUBLE_EQ(spec->flash_multiplier, 3.0);
  EXPECT_DOUBLE_EQ(spec->abandon_p, 0.1);
  // Canonical form re-parses to the same spec.
  const auto again = trace_gen_spec_from_string(spec->to_string(), &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_EQ(again->to_string(), spec->to_string());
}

TEST(TraceGenSpec, RejectsBadInput) {
  std::string err;
  EXPECT_FALSE(trace_gen_spec_from_string("duration", &err));
  EXPECT_NE(err.find("key=value"), std::string::npos);
  EXPECT_FALSE(trace_gen_spec_from_string("duration=abc", &err));
  EXPECT_FALSE(trace_gen_spec_from_string("duration=60x", &err));  // garbage
  EXPECT_FALSE(trace_gen_spec_from_string("frobnicate=1", &err));
  EXPECT_NE(err.find("unknown key"), std::string::npos);
  EXPECT_FALSE(trace_gen_spec_from_string("duration=0", &err));
  EXPECT_FALSE(trace_gen_spec_from_string("base-rps=-5", &err));
  EXPECT_FALSE(trace_gen_spec_from_string("diurnal-amplitude=1.5", &err));
  EXPECT_FALSE(trace_gen_spec_from_string("session-mean=0.5", &err));
  EXPECT_FALSE(trace_gen_spec_from_string("abandon-p=1", &err));
  EXPECT_FALSE(
      trace_gen_spec_from_string("flash-at=5,flash-multiplier=0.5", &err));
}

TEST(TraceGenerator, RateCurveHasDiurnalTroughPeakAndFlash) {
  TraceGenSpec spec;
  spec.duration_s = 100;
  spec.base_rps = 1000;
  spec.diurnal_amplitude = 0.5;
  spec.flash_at_s = 30;
  spec.flash_duration_s = 10;
  spec.flash_multiplier = 2.0;
  TraceGenerator gen(spec);
  // One cycle over the duration: trough at t=0 and t=100, peak mid-run
  // (t=50 is past the flash window [30, 40), so no multiplier there).
  EXPECT_NEAR(gen.rate_at(0), 500.0, 1.0);
  EXPECT_NEAR(gen.rate_at(50), 1500.0, 1.0);
  EXPECT_NEAR(gen.rate_at(100), 500.0, 1.0);
  // Crossing into the flash window doubles the curve.
  const double just_before = gen.rate_at(29.999);
  const double inside = gen.rate_at(30.001);
  EXPECT_GT(inside, just_before * 1.8);
  EXPECT_NEAR(inside, just_before * 2.0, just_before * 0.01);
}

TEST(TraceGenerator, GeneratesSortedRichDeterministicTraces) {
  TraceGenSpec spec;
  spec.seed = 11;
  spec.duration_s = 20;
  spec.base_rps = 300;
  spec.diurnal_amplitude = 0.3;
  spec.session_mean = 5;
  spec.think_mean_s = 0.5;
  WorkloadParams wp;
  wp.key_space = 5000;
  RubbosWorkload w(wp);
  TraceGenerator gen(spec);
  const auto a = gen.generate(w);
  const auto b = gen.generate(w);

  EXPECT_TRUE(a.rich());
  EXPECT_TRUE(a.sorted());
  EXPECT_GT(a.size(), 1000u);  // ~300 rps * 20 s = ~6000 expected
  EXPECT_LT(a.size(), 20'000u);
  // Same spec + workload => byte-identical artifact.
  std::stringstream sa, sb;
  a.save(sa);
  b.save(sb);
  EXPECT_EQ(sa.str(), sb.str());
  // A different seed produces a different trace.
  spec.seed = 12;
  std::stringstream sc;
  TraceGenerator(spec).generate(w).save(sc);
  EXPECT_NE(sa.str(), sc.str());
  // Every arrival sits inside the horizon.
  for (const auto& e : a.events()) {
    EXPECT_GE(e.at.ns(), 0);
    EXPECT_LT(e.at.to_seconds(), spec.duration_s);
    EXPECT_LE(e.priority, 2);
  }
}

TEST(TraceGenerator, SessionsHaveGeometricLengthAndDistinctClients) {
  TraceGenSpec spec;
  spec.seed = 3;
  spec.duration_s = 30;
  spec.base_rps = 400;
  spec.session_mean = 4;
  spec.think_mean_s = 0.2;
  RubbosWorkload w;
  const auto trace = TraceGenerator(spec).generate(w);
  std::map<std::uint32_t, int> per_client;
  for (const auto& e : trace.events()) ++per_client[e.client];
  ASSERT_GT(per_client.size(), 100u);
  double mean_len = static_cast<double>(trace.size()) /
                    static_cast<double>(per_client.size());
  // Horizon truncation clips some sessions, so the observed mean sits a bit
  // below the nominal 4.
  EXPECT_GT(mean_len, 2.0);
  EXPECT_LT(mean_len, 6.0);
}

TEST(TraceGenerator, FlashCrowdConcentratesArrivals) {
  TraceGenSpec spec;
  spec.seed = 5;
  spec.duration_s = 40;
  spec.base_rps = 500;
  spec.flash_at_s = 20;
  spec.flash_duration_s = 5;
  spec.flash_multiplier = 3.0;
  spec.session_mean = 1;  // single-shot sessions keep the shape crisp
  RubbosWorkload w;
  const auto trace = TraceGenerator(spec).generate(w);
  auto count_in = [&](double lo, double hi) {
    return std::count_if(trace.events().begin(), trace.events().end(),
                         [&](const ArrivalEvent& e) {
                           const double t = e.at.to_seconds();
                           return t >= lo && t < hi;
                         });
  };
  const auto flash = count_in(20, 25);
  const auto before = count_in(10, 15);
  EXPECT_GT(static_cast<double>(flash), 2.0 * static_cast<double>(before));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

TEST(TraceGenerator, GoldenTraceBytes) {
  // The cost benchmark's replay_flash_day spec cut to 10 s. The hashes pin
  // the saved CSV bytes: a change to the engine, the draw order or the
  // writer that moves one byte of a generated day fails here.
  struct Golden {
    std::uint64_t seed;
    std::size_t rows;
    std::uint64_t fnv;
  };
  for (const Golden& g : {Golden{42, 53515, 0xA1DC89C6A1C432C7ull},
                          Golden{1729, 53215, 0xA3713CF1CECBCF4Dull}}) {
    SCOPED_TRACE(g.seed);
    std::string err;
    const auto spec = trace_gen_spec_from_string(
        "seed=" + std::to_string(g.seed) +
            ",duration=10,base-rps=8000,diurnal-amplitude=0.3,flash-at=30,"
            "flash-duration=5,flash-multiplier=2",
        &err);
    ASSERT_TRUE(spec.has_value()) << err;
    const RubbosWorkload workload;
    const auto trace = TraceGenerator(*spec).generate(workload);
    std::ostringstream csv;
    trace.save(csv);
    EXPECT_EQ(trace.size(), g.rows);
    EXPECT_EQ(fnv1a(csv.str()), g.fnv);
  }
}

TEST(TraceGenerator, InvalidSpecThrows) {
  TraceGenSpec spec;
  spec.duration_s = -1;
  RubbosWorkload w;
  EXPECT_THROW(TraceGenerator(spec).generate(w), std::invalid_argument);
}

}  // namespace
}  // namespace ntier::workload
