#include "core/sa_search.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "func/registry.hpp"
#include "util/rng.hpp"

namespace dalut::core {
namespace {

struct Problem {
  BitCostArrays costs;
  unsigned n;
};

/// Cost arrays for the MSB of a small quantized cosine - a realistic,
/// structured landscape for the search.
Problem cosine_problem(unsigned n) {
  const auto spec = *func::benchmark_by_name("cos", n);
  const auto g = MultiOutputFunction::from_eval(spec.num_inputs,
                                                spec.num_outputs, spec.eval);
  const auto dist = InputDistribution::uniform(n);
  return {build_bit_costs(g, g.values(), g.num_outputs() - 1,
                          LsbModel::kPredictive, dist),
          n};
}

TEST(SaSearch, RespectsPartitionLimit) {
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 12;
  params.init_patterns = 4;
  params.chains = 2;
  util::Rng rng(1);
  const auto result = find_best_settings(problem.n, 4, problem.costs,
                                         3, params, rng, nullptr, false);
  EXPECT_LE(result.partitions_visited, 12u + params.num_neighbours);
  EXPECT_FALSE(result.top.empty());
}

TEST(SaSearch, TopSortedAscendingDistinctPartitions) {
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 30;
  params.init_patterns = 4;
  util::Rng rng(2);
  const auto result = find_best_settings(problem.n, 4, problem.costs,
                                         5, params, rng, nullptr, false);
  ASSERT_GE(result.top.size(), 2u);
  EXPECT_LE(result.top.size(), 5u);
  for (std::size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_LE(result.top[i - 1].error, result.top[i].error);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(result.top[i].partition == result.top[j].partition);
    }
  }
}

TEST(SaSearch, FindsExhaustiveOptimumWhenBudgetCoversSpace) {
  const auto problem = cosine_problem(7);
  // C(7,3) = 35; give the search room to see everything.
  SaParams params;
  params.partition_limit = 35;
  params.init_patterns = 8;
  params.chains = 6;
  util::Rng rng(3);
  const auto result = find_best_settings(problem.n, 3, problem.costs,
                                         1, params, rng, nullptr, false);

  // Exhaustive reference.
  util::Rng xrng(4);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : sample_partitions(problem.n, 3, 100000, xrng)) {
    const auto s = optimize_normal(p, problem.costs, {8, 64}, xrng);
    best = std::min(best, s.error);
  }
  // The SA may stop early on stagnation; allow it to be at most marginally
  // worse than the reference (it is often better, since each visited
  // partition gets independent OptForPart restarts).
  EXPECT_LE(result.top.front().error, best * 1.05 + 1e-9);
}

TEST(SaSearch, DeterministicForSeed) {
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 20;
  params.init_patterns = 4;
  params.chains = 3;
  util::Rng a(7), b(7);
  const auto ra = find_best_settings(problem.n, 4, problem.costs, 3,
                                     params, a, nullptr, false);
  const auto rb = find_best_settings(problem.n, 4, problem.costs, 3,
                                     params, b, nullptr, false);
  ASSERT_EQ(ra.top.size(), rb.top.size());
  for (std::size_t i = 0; i < ra.top.size(); ++i) {
    EXPECT_EQ(ra.top[i].error, rb.top[i].error);
    EXPECT_EQ(ra.top[i].partition.bound_mask(),
              rb.top[i].partition.bound_mask());
  }
  EXPECT_EQ(ra.partitions_visited, rb.partitions_visited);
}

TEST(SaSearch, PoolAndSequentialAgree) {
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 20;
  params.init_patterns = 4;
  util::ThreadPool pool(3);
  util::Rng a(9), b(9);
  const auto seq = find_best_settings(problem.n, 4, problem.costs, 3,
                                      params, a, nullptr, false);
  const auto par = find_best_settings(problem.n, 4, problem.costs, 3,
                                      params, b, &pool, false);
  ASSERT_EQ(seq.top.size(), par.top.size());
  for (std::size_t i = 0; i < seq.top.size(); ++i) {
    EXPECT_EQ(seq.top[i].error, par.top[i].error);
  }
}

TEST(SaSearch, IdenticalAcrossWorkerCounts) {
  // The determinism contract: bit-identical results for serial, 2-worker,
  // and 8-worker runs (docs/parallelism.md).
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 25;
  params.init_patterns = 4;
  params.chains = 4;
  util::Rng serial_rng(17);
  const auto serial = find_best_settings(problem.n, 4, problem.costs,
                                         3, params, serial_rng, nullptr, true);
  for (const std::size_t workers : {2u, 8u}) {
    util::ThreadPool pool(workers);
    util::Rng rng(17);
    const auto par = find_best_settings(problem.n, 4, problem.costs,
                                        3, params, rng, &pool, true);
    EXPECT_EQ(serial.partitions_visited, par.partitions_visited);
    ASSERT_EQ(serial.top.size(), par.top.size());
    for (std::size_t i = 0; i < serial.top.size(); ++i) {
      EXPECT_EQ(serial.top[i].error, par.top[i].error);
      EXPECT_EQ(serial.top[i].partition.bound_mask(),
                par.top[i].partition.bound_mask());
      EXPECT_EQ(serial.top[i].pattern, par.top[i].pattern);
      EXPECT_EQ(serial.top[i].types, par.top[i].types);
    }
    ASSERT_EQ(serial.top_bto.size(), par.top_bto.size());
    for (std::size_t i = 0; i < serial.top_bto.size(); ++i) {
      EXPECT_EQ(serial.top_bto[i].error, par.top_bto[i].error);
      EXPECT_EQ(serial.top_bto[i].partition.bound_mask(),
                par.top_bto[i].partition.bound_mask());
    }
  }
}

TEST(SaSearch, NeverOvershootsPartitionLimit) {
  // The cross-chain batch is clamped so Phi cannot exceed P even mid-sweep.
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 12;
  params.init_patterns = 4;
  params.chains = 8;
  params.num_neighbours = 8;
  util::Rng rng(23);
  const auto result = find_best_settings(problem.n, 4, problem.costs,
                                         3, params, rng, nullptr, false);
  EXPECT_LE(result.partitions_visited, 12u);
}

TEST(SaSearch, TrackBtoProducesBtoSettings) {
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 15;
  params.init_patterns = 4;
  util::Rng rng(11);
  const auto result = find_best_settings(problem.n, 4, problem.costs,
                                         3, params, rng, nullptr, true);
  ASSERT_FALSE(result.top_bto.empty());
  for (const auto& s : result.top_bto) {
    EXPECT_EQ(s.mode, DecompMode::kBto);
  }
  // BTO best can never beat the overall best (same partitions, restricted T).
  EXPECT_GE(result.top_bto.front().error,
            result.top.front().error - 1e-12);
}

TEST(SaSearch, SingleChainStillWorks) {
  const auto problem = cosine_problem(8);
  SaParams params;
  params.partition_limit = 10;
  params.init_patterns = 4;
  params.chains = 1;
  util::Rng rng(13);
  const auto result = find_best_settings(problem.n, 4, problem.costs,
                                         2, params, rng, nullptr, false);
  EXPECT_FALSE(result.top.empty());
  EXPECT_GT(result.partitions_visited, 0u);
}

}  // namespace
}  // namespace dalut::core
