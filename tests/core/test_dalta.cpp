#include "core/dalta.hpp"

#include <gtest/gtest.h>

#include "func/registry.hpp"
#include "util/rng.hpp"

namespace dalut::core {
namespace {

MultiOutputFunction benchmark(const std::string& name, unsigned width) {
  const auto spec = *func::benchmark_by_name(name, width);
  return MultiOutputFunction::from_eval(spec.num_inputs, spec.num_outputs,
                                        spec.eval);
}

DaltaParams small_params(std::uint64_t seed) {
  DaltaParams p;
  p.bound_size = 4;
  p.rounds = 2;
  p.partition_limit = 20;
  p.init_patterns = 6;
  p.seed = seed;
  return p;
}

TEST(Dalta, ProducesValidSettingsForEveryBit) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto result = run_dalta(g, dist, small_params(1));
  ASSERT_EQ(result.settings.size(), g.num_outputs());
  for (const auto& s : result.settings) {
    EXPECT_TRUE(s.valid());
    EXPECT_EQ(s.mode, DecompMode::kNormal);
    EXPECT_EQ(s.partition.bound_size(), 4u);
  }
  EXPECT_GT(result.partitions_evaluated, 0u);
  EXPECT_GE(result.runtime_seconds, 0.0);
}

// The parameter checks hold in every build, not only under assert.
TEST(Dalta, RejectsInvalidParams) {
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(1);
  params.rounds = 0;
  EXPECT_THROW(run_dalta(g, dist, params), std::invalid_argument);
  for (const unsigned bound : {0u, 8u}) {
    params = small_params(1);
    params.bound_size = bound;
    EXPECT_THROW(run_dalta(g, dist, params), std::invalid_argument)
        << "bound_size " << bound;
  }
  // A zero partition budget used to crash the run.
  params = small_params(1);
  params.partition_limit = 0;
  EXPECT_THROW(run_dalta(g, dist, params), std::invalid_argument);
  params = small_params(1);
  params.init_patterns = 0;
  EXPECT_THROW(run_dalta(g, dist, params), std::invalid_argument);
  params = small_params(1);
  params.partition_limit = kMaxPartitionLimit + 1;
  EXPECT_THROW(run_dalta(g, dist, params), std::invalid_argument);
}

TEST(Dalta, ReportedMedMatchesRealizedLut) {
  const auto g = benchmark("exp", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto result = run_dalta(g, dist, small_params(2));
  const auto lut = result.realize(g.num_inputs());
  EXPECT_NEAR(result.med, mean_error_distance(g, lut.values(), dist), 1e-9);
}

TEST(Dalta, MedFarBelowTrivialBaseline) {
  // A constant-0 approximation of cos has MED ~ half the output range;
  // DALTA must do far better even with a small budget.
  const auto g = benchmark("cos", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto result = run_dalta(g, dist, small_params(3));
  double trivial = 0.0;
  for (InputWord x = 0; x < g.domain_size(); ++x) {
    trivial += dist.probability(x) * g.value(x);
  }
  EXPECT_LT(result.med, trivial / 4);
}

TEST(Dalta, DeterministicForSeed) {
  const auto g = benchmark("ln", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto a = run_dalta(g, dist, small_params(7));
  const auto b = run_dalta(g, dist, small_params(7));
  EXPECT_EQ(a.med, b.med);
  for (unsigned k = 0; k < g.num_outputs(); ++k) {
    EXPECT_EQ(a.settings[k].partition.bound_mask(),
              b.settings[k].partition.bound_mask());
  }
}

TEST(Dalta, SeedChangesResult) {
  const auto g = benchmark("multiplier", 8);
  const auto dist = InputDistribution::uniform(8);
  const auto a = run_dalta(g, dist, small_params(1));
  const auto b = run_dalta(g, dist, small_params(2));
  // Different random partitions almost surely give different settings.
  bool any_different = a.med != b.med;
  for (unsigned k = 0; !any_different && k < g.num_outputs(); ++k) {
    any_different = a.settings[k].partition.bound_mask() !=
                    b.settings[k].partition.bound_mask();
  }
  EXPECT_TRUE(any_different);
}

TEST(Dalta, MoreRoundsNeverWorse) {
  const auto g = benchmark("erf", 8);
  const auto dist = InputDistribution::uniform(8);
  auto params = small_params(5);
  params.rounds = 1;
  const auto one = run_dalta(g, dist, params);
  params.rounds = 3;
  const auto three = run_dalta(g, dist, params);
  // Refinement keeps incumbents, so extra rounds cannot regress.
  EXPECT_LE(three.med, one.med + 1e-9);
}

TEST(Dalta, ExactlyStorableFunctionGetsZeroError) {
  // g's single output depends only on 4 inputs; with b = 4 and those inputs
  // in the bound set the decomposition is exact. Exhaustive sampling of the
  // tiny space must find it.
  const auto g = MultiOutputFunction::from_eval(6, 1, [](InputWord x) {
    return static_cast<OutputWord>(((x & 0b1111) * 7 % 5) & 1);
  });
  const auto dist = InputDistribution::uniform(6);
  DaltaParams params;
  params.bound_size = 4;
  params.rounds = 1;
  params.partition_limit = 15;  // C(6,4) = 15: exhaustive
  params.init_patterns = 10;
  params.seed = 11;
  const auto result = run_dalta(g, dist, params);
  EXPECT_NEAR(result.med, 0.0, 1e-12);
}

TEST(Dalta, ParallelPoolMatchesSequential) {
  const auto g = benchmark("tan", 8);
  const auto dist = InputDistribution::uniform(8);
  util::ThreadPool pool(3);
  auto params = small_params(9);
  const auto seq = run_dalta(g, dist, params);
  params.pool = &pool;
  const auto par = run_dalta(g, dist, params);
  EXPECT_EQ(seq.med, par.med);
}

TEST(Dalta, BrentKungNineOutputs) {
  const auto g = benchmark("brentkung", 8);
  EXPECT_EQ(g.num_outputs(), 5u);  // width 8 -> 4+4 adder, 5-bit sum
  const auto dist = InputDistribution::uniform(8);
  const auto result = run_dalta(g, dist, small_params(13));
  EXPECT_EQ(result.settings.size(), 5u);
  // An adder decomposes very well; error stays small.
  EXPECT_LT(result.med, 2.0);
}

}  // namespace
}  // namespace dalut::core
