#include "core/bssa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "func/registry.hpp"
#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace dalut::core {
namespace {

MultiOutputFunction benchmark(const std::string& name, unsigned width) {
  const auto spec = *func::benchmark_by_name(name, width);
  return MultiOutputFunction::from_eval(spec.num_inputs, spec.num_outputs,
                                        spec.eval);
}

BssaParams small_params(std::uint64_t seed) {
  BssaParams p;
  p.bound_size = 4;
  p.rounds = 2;
  p.beam_width = 2;
  p.sa.partition_limit = 15;
  p.sa.init_patterns = 6;
  p.sa.chains = 3;
  p.seed = seed;
  return p;
}

TEST(Bssa, ProducesValidNormalSettings) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto result = run_bssa(g, dist, small_params(1));
  ASSERT_EQ(result.settings.size(), g.num_outputs());
  for (const auto& s : result.settings) {
    EXPECT_TRUE(s.valid());
    EXPECT_EQ(s.mode, DecompMode::kNormal);
  }
}

TEST(Bssa, ReportedMedMatchesRealizedLut) {
  const auto g = benchmark("denoise", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto result = run_bssa(g, dist, small_params(2));
  const auto lut = result.realize(g.num_inputs());
  EXPECT_NEAR(result.med, mean_error_distance(g, lut.values(), dist), 1e-9);
}

TEST(Bssa, DeterministicForSeed) {
  const auto g = benchmark("erf", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto a = run_bssa(g, dist, small_params(5));
  const auto b = run_bssa(g, dist, small_params(5));
  EXPECT_EQ(a.med, b.med);
}

TEST(Bssa, MoreRoundsNeverWorse) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(3);
  params.rounds = 1;
  const auto one = run_bssa(g, dist, params);
  params.rounds = 3;
  const auto three = run_bssa(g, dist, params);
  EXPECT_LE(three.med, one.med + 1e-9);
}

TEST(Bssa, WiderBeamNeverHurtsMuch) {
  // Not a strict guarantee per-seed, but across a few seeds the wider beam
  // must win at least as often as it loses by any margin.
  const auto g = benchmark("exp", 8);
  const auto dist = InputDistribution::uniform(8);
  double narrow_total = 0.0;
  double wide_total = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto params = small_params(seed);
    params.beam_width = 1;
    narrow_total += run_bssa(g, dist, params).med;
    params.beam_width = 3;
    wide_total += run_bssa(g, dist, params).med;
  }
  EXPECT_LE(wide_total, narrow_total * 1.25);
}

TEST(Bssa, RejectsModeSelectionWithOneRound) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(1);
  params.rounds = 1;
  params.modes = ModePolicy::bto_normal();
  EXPECT_THROW(run_bssa(g, dist, params), std::invalid_argument);
}

// The bound-size check holds in every build, not only under assert.
TEST(Bssa, RejectsBoundSizeOutOfRange) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  for (const unsigned bound : {0u, 8u}) {
    auto params = small_params(1);
    params.bound_size = bound;
    EXPECT_THROW(run_bssa(g, dist, params), std::invalid_argument)
        << "bound_size " << bound;
  }
}

// A zero count used to "complete" after evaluating no partition, and a NaN
// or negative delta was accepted. Each error names the manifest key.
TEST(Bssa, RejectsInvalidParams) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  const std::pair<const char*, void (*)(BssaParams&)> cases[] = {
      {"beams", [](BssaParams& p) { p.beam_width = 0; }},
      {"partitions", [](BssaParams& p) { p.sa.partition_limit = 0; }},
      {"patterns", [](BssaParams& p) { p.sa.init_patterns = 0; }},
      {"chains", [](BssaParams& p) { p.sa.chains = 0; }},
      {"chains", [](BssaParams& p) { p.sa.chains = kMaxChains + 1; }},
      {"nd-candidates",
       [](BssaParams& p) {
         p.modes = ModePolicy::bto_normal_nd();
         p.nd_candidates = 0;
       }},
      {"delta",
       [](BssaParams& p) {
         p.modes = ModePolicy::bto_normal(std::nan(""));
       }},
      {"delta", [](BssaParams& p) { p.modes = ModePolicy::bto_normal(-1.0); }},
      {"delta-prime",
       [](BssaParams& p) {
         p.modes = ModePolicy::bto_normal_nd(0.01, -1.0);
       }},
  };
  for (const auto& [key, mutate] : cases) {
    auto params = small_params(1);
    mutate(params);
    try {
      run_bssa(g, dist, params);
      FAIL() << key << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(key, 0), 0u) << error.what();
    }
  }
  // Without ND the ND candidate count is unused, and 0 is accepted.
  auto params = small_params(1);
  params.nd_candidates = 0;
  EXPECT_NO_THROW(params.validate(8));
}

TEST(Bssa, BtoNormalPolicyYieldsOnlyBtoOrNormal) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(7);
  params.modes = ModePolicy::bto_normal(0.05);
  const auto result = run_bssa(g, dist, params);
  for (const auto& s : result.settings) {
    EXPECT_NE(s.mode, DecompMode::kNonDisjoint);
  }
}

TEST(Bssa, LargeDeltaForcesBtoEverywhere) {
  // With delta huge, any BTO setting qualifies -> every bit goes BTO.
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(8);
  params.modes = ModePolicy::bto_normal(1e9);
  const auto result = run_bssa(g, dist, params);
  for (const auto& s : result.settings) {
    EXPECT_EQ(s.mode, DecompMode::kBto);
  }
}

TEST(Bssa, NdPolicyImprovesErrorOverNormalOnly) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(9);
  const auto normal_only = run_bssa(g, dist, params);
  params.modes = ModePolicy::bto_normal_nd(0.01, 0.1);
  params.seed = 9;
  const auto with_nd = run_bssa(g, dist, params);
  // ND mode may only be picked when it is at least (1-delta) better, so the
  // final MED cannot be meaningfully worse.
  EXPECT_LE(with_nd.med, normal_only.med * 1.05 + 1e-9);
}

TEST(Bssa, NdSettingsWellFormed) {
  const auto g = benchmark("multiplier", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(10);
  params.modes = ModePolicy::bto_normal_nd(0.01, 0.1);
  const auto result = run_bssa(g, dist, params);
  for (const auto& s : result.settings) {
    if (s.mode == DecompMode::kNonDisjoint) {
      EXPECT_TRUE(s.partition.in_bound_set(s.shared_bit));
      EXPECT_EQ(s.pattern0.size(), s.partition.num_cols() / 2);
      EXPECT_EQ(s.types0.size(), s.partition.num_rows());
    }
  }
  // Realization must succeed for every mode mix.
  EXPECT_NO_THROW(result.realize(g.num_inputs()));
}

void expect_settings_identical(const std::vector<Setting>& a,
                               const std::vector<Setting>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].error, b[k].error) << "bit " << k;
    EXPECT_TRUE(a[k].partition == b[k].partition) << "bit " << k;
    EXPECT_EQ(a[k].mode, b[k].mode) << "bit " << k;
    EXPECT_EQ(a[k].pattern, b[k].pattern) << "bit " << k;
    EXPECT_EQ(a[k].types, b[k].types) << "bit " << k;
    EXPECT_EQ(a[k].shared_bit, b[k].shared_bit) << "bit " << k;
    EXPECT_EQ(a[k].pattern0, b[k].pattern0) << "bit " << k;
    EXPECT_EQ(a[k].pattern1, b[k].pattern1) << "bit " << k;
    EXPECT_EQ(a[k].types0, b[k].types0) << "bit " << k;
    EXPECT_EQ(a[k].types1, b[k].types1) << "bit " << k;
  }
}

TEST(Bssa, BitIdenticalAcrossWorkerCounts) {
  // The acceptance gate of the parallel rework: settings, MED, and the
  // partition count must be bit-identical for pool=nullptr, a 2-worker
  // pool, and an 8-worker pool (docs/parallelism.md).
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(13);
  params.beam_width = 3;  // several beams so round 1 extends in parallel
  params.modes = ModePolicy::bto_normal_nd(0.01, 0.1);  // all mode paths
  const auto serial = run_bssa(g, dist, params);
  for (const std::size_t workers : {2u, 8u}) {
    util::ThreadPool pool(workers);
    params.pool = &pool;
    const auto par = run_bssa(g, dist, params);
    EXPECT_EQ(serial.med, par.med) << workers << " workers";
    EXPECT_EQ(serial.partitions_evaluated, par.partitions_evaluated)
        << workers << " workers";
    expect_settings_identical(serial.settings, par.settings);
  }
}

TEST(Bssa, BitIdenticalWithTelemetryEnabled) {
  // The observability acceptance gate: metrics + tracing are write-only for
  // the search, so enabling both must leave settings, MED, and the
  // partition count bit-identical at any worker count
  // (docs/observability.md).
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(17);
  params.beam_width = 3;
  params.modes = ModePolicy::bto_normal_nd(0.01, 0.1);
  const auto baseline = run_bssa(g, dist, params);

  util::telemetry::reset_metrics_for_test();
  util::telemetry::reset_tracing_for_test();
  util::telemetry::set_metrics_enabled(true);
  util::telemetry::set_tracing_enabled(true);
  for (const std::size_t workers : {1u, 8u}) {
    util::ThreadPool pool(workers);
    params.pool = workers == 1 ? nullptr : &pool;
    const auto traced = run_bssa(g, dist, params);
    EXPECT_EQ(baseline.med, traced.med) << workers << " workers";
    EXPECT_EQ(baseline.partitions_evaluated, traced.partitions_evaluated)
        << workers << " workers";
    expect_settings_identical(baseline.settings, traced.settings);
  }
  // The run did feed the registry — telemetry was live, not bypassed.
  const auto snap = util::telemetry::snapshot_metrics();
  EXPECT_GT(snap.counter_value("bssa.bit_steps"), 0u);
  EXPECT_GT(snap.counter_value("sa.sweeps"), 0u);
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::set_tracing_enabled(false);
  util::telemetry::reset_metrics_for_test();
  util::telemetry::reset_tracing_for_test();
}

TEST(Bssa, PoolMatchesSequential) {
  const auto g = benchmark("tan", 8);
  const auto dist = InputDistribution::uniform(8);
  util::ThreadPool pool(2);
  auto params = small_params(11);
  const auto seq = run_bssa(g, dist, params);
  params.pool = &pool;
  const auto par = run_bssa(g, dist, params);
  EXPECT_EQ(seq.med, par.med);
}

TEST(Bssa, ExactlyStorableFunctionGetsZeroError) {
  const auto g = MultiOutputFunction::from_eval(6, 2, [](InputWord x) {
    const OutputWord low = ((x & 0b1111) * 3 % 4) & 1;
    const OutputWord high = ((x & 0b1111) % 3 == 1) ? 1u : 0u;
    return low | (high << 1);
  });
  const auto dist = InputDistribution::uniform(6);
  BssaParams params;
  params.bound_size = 4;
  params.rounds = 2;
  params.beam_width = 2;
  params.sa.partition_limit = 15;  // covers C(6,4) = 15
  params.sa.init_patterns = 10;
  params.sa.chains = 5;
  params.sa.num_neighbours = 8;
  params.sa.max_stagnant = 12;  // don't give up before covering the space
  params.seed = 21;
  const auto result = run_bssa(g, dist, params);
  EXPECT_NEAR(result.med, 0.0, 1e-12);
}

}  // namespace
}  // namespace dalut::core
