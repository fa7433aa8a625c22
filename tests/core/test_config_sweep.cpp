#include "core/config_sweep.hpp"

#include <gtest/gtest.h>

#include "core/bit_cost.hpp"
#include "core/partition_opt.hpp"
#include "func/registry.hpp"
#include "util/rng.hpp"

namespace dalut::core {
namespace {

struct Fixture {
  MultiOutputFunction g;
  InputDistribution dist;
  std::vector<ModeCandidates> candidates;
  std::vector<std::array<double, 3>> costs;
};

Fixture make_fixture(unsigned width) {
  const auto spec = *func::benchmark_by_name("cos", width);
  auto g = MultiOutputFunction::from_eval(spec.num_inputs, spec.num_outputs,
                                          spec.eval);
  auto dist = InputDistribution::uniform(width);

  const unsigned m = g.num_outputs();
  std::vector<ModeCandidates> candidates(m);
  std::vector<std::array<double, 3>> costs(m);
  util::Rng rng(5);
  auto cache = g.values();
  for (unsigned k = 0; k < m; ++k) {
    const auto bit_costs =
        build_bit_costs(g, cache, k, LsbModel::kCurrentApprox, dist);
    const auto p = Partition::random(width, width / 2, rng);
    candidates[k].by_level[0] = optimize_bto(p, bit_costs);
    candidates[k].by_level[1] = optimize_normal(p, bit_costs, {8, 64}, rng);
    candidates[k].by_level[2] = optimize_nondisjoint(
        p, bit_costs, {8, 64}, rng);
    costs[k] = {1.0, 2.0, 4.0};
  }
  return {std::move(g), std::move(dist), std::move(candidates),
          std::move(costs)};
}

TEST(ConfigSweep, StartsAtAllLevelZero) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  for (const unsigned level : sweep.levels()) EXPECT_EQ(level, 0u);
  EXPECT_DOUBLE_EQ(sweep.current_cost(), 8.0);  // 8 bits x cost 1.0
}

TEST(ConfigSweep, MedMatchesFullRealization) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  sweep.set_level(2, 1);
  sweep.set_level(5, 2);
  sweep.set_level(7, 1);
  const auto lut = ApproxLut::realize(8, sweep.settings());
  EXPECT_NEAR(sweep.current_med(),
              mean_error_distance(fx.g, lut.values(), fx.dist), 1e-12);
}

TEST(ConfigSweep, MedWithIsSideEffectFree) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  const double before = sweep.current_med();
  const double probed = sweep.med_with(3, 2);
  EXPECT_DOUBLE_EQ(sweep.current_med(), before);
  sweep.set_level(3, 2);
  EXPECT_NEAR(sweep.current_med(), probed, 1e-12);
}

TEST(ConfigSweep, CostTracksLevels) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  sweep.set_level(0, 2);  // +3
  sweep.set_level(1, 1);  // +1
  EXPECT_DOUBLE_EQ(sweep.current_cost(), 12.0);
  sweep.set_all(1);
  EXPECT_DOUBLE_EQ(sweep.current_cost(), 16.0);
}

TEST(ConfigSweep, GreedyFrontierEndsAllNd) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  const auto frontier = greedy_frontier(sweep);
  ASSERT_GE(frontier.size(), 2u);
  EXPECT_EQ(frontier.front().mode_counts[0], 8u);  // all BTO
  EXPECT_EQ(frontier.back().mode_counts[2], 8u);   // all ND
  // Cost strictly increases along the frontier.
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].cost, frontier[i - 1].cost);
  }
  // The most accurate point is at least as good as the cheapest.
  EXPECT_LE(frontier.back().med, frontier.front().med + 1e-9);
}

TEST(ConfigSweep, GreedyFrontierModeCountsSumToM) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  for (const auto& point : greedy_frontier(sweep)) {
    EXPECT_EQ(point.mode_counts[0] + point.mode_counts[1] +
                  point.mode_counts[2],
              8u);
  }
}

TEST(ConfigSweep, GreedyFrontierStopsOnPreTrippedCancel) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  util::RunControl control;
  control.request_cancel();
  const auto frontier = greedy_frontier(sweep, &control);
  // Only the starting all-BTO point; no upgrade step ran after the trip.
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier.front().mode_counts[0], 8u);
  EXPECT_EQ(control.status(), util::RunStatus::kCancelled);
}

TEST(ConfigSweep, GreedyFrontierPartialPointsAreValidAfterMidWalkCancel) {
  auto fx = make_fixture(8);
  ConfigSweep reference_sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  const auto full = greedy_frontier(reference_sweep);
  ASSERT_GE(full.size(), 3u);

  // Cancel from the progress callback after a few points: the walk must
  // end between upgrade steps and return a prefix of the full frontier.
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  util::RunControl control;
  std::size_t reports = 0;
  control.set_progress_callback([&](const util::RunProgress&) {
    if (++reports >= 2) control.request_cancel();
  });
  const auto partial = greedy_frontier(sweep, &control);
  EXPECT_EQ(control.status(), util::RunStatus::kCancelled);
  ASSERT_GE(partial.size(), 1u);
  ASSERT_LT(partial.size(), full.size());
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].mode_counts, full[i].mode_counts) << i;
    EXPECT_DOUBLE_EQ(partial[i].med, full[i].med) << i;
    EXPECT_DOUBLE_EQ(partial[i].cost, full[i].cost) << i;
    EXPECT_EQ(partial[i].mode_counts[0] + partial[i].mode_counts[1] +
                  partial[i].mode_counts[2],
              8u);
  }
}

TEST(ConfigSweep, GreedyFrontierStopsOnExpiredDeadline) {
  auto fx = make_fixture(8);
  ConfigSweep sweep(fx.g, fx.dist, fx.candidates, fx.costs);
  util::RunControl control;
  control.set_deadline_after(std::chrono::nanoseconds{0});  // already expired
  const auto frontier = greedy_frontier(sweep, &control);
  EXPECT_EQ(control.status(), util::RunStatus::kDeadlineExpired);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier.front().mode_counts[0], 8u);
}

TEST(ConfigSweep, RejectsMismatchedInputs) {
  auto fx = make_fixture(8);
  auto short_candidates = fx.candidates;
  short_candidates.pop_back();
  EXPECT_THROW(ConfigSweep(fx.g, fx.dist, short_candidates, fx.costs),
               std::invalid_argument);
  EXPECT_THROW(ConfigSweep(fx.g, fx.dist,
                           std::vector<ModeCandidates>(8), fx.costs),
               std::invalid_argument);  // invalid (default) settings
  auto narrow_candidates = fx.candidates;
  narrow_candidates[0].by_level[1] = make_fixture(6).candidates[0].by_level[1];
  EXPECT_THROW(ConfigSweep(fx.g, fx.dist, narrow_candidates, fx.costs),
               std::invalid_argument);  // a setting over another width
}

}  // namespace
}  // namespace dalut::core
