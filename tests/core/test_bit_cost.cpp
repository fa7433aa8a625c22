#include "core/bit_cost.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/eval_workspace.hpp"
#include "util/rng.hpp"

namespace dalut::core {
namespace {

MultiOutputFunction random_function(unsigned n, unsigned m, util::Rng& rng) {
  return MultiOutputFunction::from_eval(n, m, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(1u << m));
  });
}

TEST(BitCost, CurrentApproxMatchesDirectFormula) {
  util::Rng rng(1);
  const auto g = random_function(4, 3, rng);
  auto approx = g.values();
  approx[3] ^= 0b101;  // perturb some approximations
  approx[9] ^= 0b010;
  const auto dist = InputDistribution::uniform(4);

  for (unsigned k = 0; k < 3; ++k) {
    const auto costs =
        build_bit_costs(g, approx, k, LsbModel::kCurrentApprox, dist);
    for (InputWord x = 0; x < 16; ++x) {
      for (unsigned v = 0; v < 2; ++v) {
        OutputWord yhat = approx[x];
        yhat = (yhat & ~(1u << k)) | (v << k);
        const double expected =
            dist.probability(x) *
            std::abs(static_cast<double>(g.value(x)) -
                     static_cast<double>(yhat));
        const double actual = v ? costs.c1[x] : costs.c0[x];
        EXPECT_NEAR(actual, expected, 1e-12) << "x=" << x << " k=" << k;
      }
    }
  }
}

TEST(BitCost, AccurateFillUsesExactLsbs) {
  util::Rng rng(2);
  const auto g = random_function(4, 4, rng);
  std::vector<OutputWord> approx(16, 0);  // junk everywhere
  for (InputWord x = 0; x < 16; ++x) approx[x] = g.value(x) ^ 0b1100;
  const auto dist = InputDistribution::uniform(4);
  const unsigned k = 2;
  const auto costs =
      build_bit_costs(g, approx, k, LsbModel::kAccurateFill, dist);
  for (InputWord x = 0; x < 16; ++x) {
    for (unsigned v = 0; v < 2; ++v) {
      const OutputWord msb = approx[x] & 0b1000;
      const OutputWord lsb = g.value(x) & 0b0011;
      const OutputWord yhat = msb | (v << k) | lsb;
      const double expected =
          dist.probability(x) *
          std::abs(static_cast<double>(g.value(x)) -
                   static_cast<double>(yhat));
      EXPECT_NEAR(v ? costs.c1[x] : costs.c0[x], expected, 1e-12);
    }
  }
}

TEST(BitCost, PredictiveMatchesBruteForceBestLsbs) {
  // The predictive model claims: cost = min over all LSB assignments of
  // |Y - Yhat|. Check against brute force.
  util::Rng rng(3);
  const auto g = random_function(5, 5, rng);
  auto approx = g.values();
  for (auto& v : approx) v ^= static_cast<OutputWord>(rng.next_below(32));
  const auto dist = InputDistribution::uniform(5);

  for (unsigned k = 0; k < 5; ++k) {
    const auto costs =
        build_bit_costs(g, approx, k, LsbModel::kPredictive, dist);
    const OutputWord below = (1u << k) - 1;
    const OutputWord above = 0b11111u & ~(below | (1u << k));
    for (InputWord x = 0; x < 32; ++x) {
      for (unsigned v = 0; v < 2; ++v) {
        double best = 1e18;
        for (OutputWord lsb = 0; lsb <= below; ++lsb) {
          const OutputWord yhat = (approx[x] & above) | (v << k) | lsb;
          best = std::min(best,
                          std::abs(static_cast<double>(g.value(x)) -
                                   static_cast<double>(yhat)));
          if (below == 0) break;
        }
        const double expected = dist.probability(x) * best;
        EXPECT_NEAR(v ? costs.c1[x] : costs.c0[x], expected, 1e-12)
            << "x=" << x << " k=" << k << " v=" << v;
      }
    }
  }
}

TEST(BitCost, PredictiveIsLowerBoundOfAccurateFill) {
  util::Rng rng(4);
  const auto g = random_function(5, 4, rng);
  auto approx = g.values();
  for (auto& v : approx) v ^= static_cast<OutputWord>(rng.next_below(16));
  const auto dist = InputDistribution::uniform(5);
  for (unsigned k = 0; k < 4; ++k) {
    const auto pred =
        build_bit_costs(g, approx, k, LsbModel::kPredictive, dist);
    const auto accurate =
        build_bit_costs(g, approx, k, LsbModel::kAccurateFill, dist);
    for (InputWord x = 0; x < 32; ++x) {
      EXPECT_LE(pred.c0[x], accurate.c0[x] + 1e-12);
      EXPECT_LE(pred.c1[x], accurate.c1[x] + 1e-12);
    }
  }
}

TEST(BitCost, CorrectBitChoiceHasZeroPredictiveCost) {
  util::Rng rng(5);
  const auto g = random_function(4, 4, rng);
  const auto approx = g.values();  // approximation == exact so far
  const auto dist = InputDistribution::uniform(4);
  for (unsigned k = 0; k < 4; ++k) {
    const auto costs =
        build_bit_costs(g, approx, k, LsbModel::kPredictive, dist);
    for (InputWord x = 0; x < 16; ++x) {
      const bool bit = g.output_bit(x, k);
      EXPECT_DOUBLE_EQ(bit ? costs.c1[x] : costs.c0[x], 0.0);
    }
  }
}

TEST(BitCost, WeightsScaleWithDistribution) {
  util::Rng rng(6);
  const auto g = random_function(3, 3, rng);
  const auto approx = g.values();
  std::vector<double> w(8, 1.0);
  w[5] = 7.0;
  const auto dist = InputDistribution::from_weights(3, w);
  const auto uniform = InputDistribution::uniform(3);
  const auto costs_w =
      build_bit_costs(g, approx, 1, LsbModel::kCurrentApprox, dist);
  const auto costs_u =
      build_bit_costs(g, approx, 1, LsbModel::kCurrentApprox, uniform);
  // Cost ratio at input 5 equals probability ratio.
  const double p_ratio = dist.probability(5) / uniform.probability(5);
  if (costs_u.c0[5] > 0) {
    EXPECT_NEAR(costs_w.c0[5] / costs_u.c0[5], p_ratio, 1e-9);
  }
  if (costs_u.c1[5] > 0) {
    EXPECT_NEAR(costs_w.c1[5] / costs_u.c1[5], p_ratio, 1e-9);
  }
}

TEST(BitCost, ExactOnlyWhenSumsAreExact) {
  util::Rng rng(7);
  const auto uniform_costs = [](const MultiOutputFunction& g,
                                CostMetric metric) {
    return build_bit_costs(g, g.values(), 2, LsbModel::kPredictive,
                           InputDistribution::uniform(g.num_inputs()), metric);
  };
  // Uniform MED costs are integer losses below 2^m times 2^-n.
  for (const unsigned n : {12u, 14u}) {
    const auto g = random_function(n, n, rng);
    const auto costs = uniform_costs(g, CostMetric::kMed);
    EXPECT_TRUE(costs.exact) << "n=" << n;
    for (const auto* arrays : {&costs.c0, &costs.c1}) {
      for (const double cost : *arrays) {
        const double units = std::ldexp(cost, static_cast<int>(n));
        ASSERT_EQ(units, std::trunc(units));
        ASSERT_LT(units, std::ldexp(1.0, static_cast<int>(g.num_outputs())));
      }
    }
  }

  // Table probabilities are not multiples of 2^-n in general.
  const auto small = random_function(8, 6, rng);
  std::vector<double> weights(256);
  for (auto& w : weights) w = 0.1 + rng.next_double();
  EXPECT_FALSE(build_bit_costs(small, small.values(), 2,
                               LsbModel::kCurrentApprox,
                               InputDistribution::from_weights(8, weights))
                   .exact);

  // The loss takes m bits for MED, 2m for MSE and 1 for the error rate;
  // the certificate needs n + loss_bits + 2 <= 52.
  const auto narrow = random_function(12, 19, rng);  // MSE: 12 + 38 + 2
  EXPECT_TRUE(uniform_costs(narrow, CostMetric::kMse).exact);
  const auto wide = random_function(12, 20, rng);  // MSE: 12 + 40 + 2
  EXPECT_FALSE(uniform_costs(wide, CostMetric::kMse).exact);
  EXPECT_TRUE(uniform_costs(wide, CostMetric::kMed).exact);
  EXPECT_TRUE(uniform_costs(wide, CostMetric::kErrorRate).exact);

  // Views carry the certificate of the arrays they view; raw spans have
  // none, whatever their contents.
  const auto costs = uniform_costs(small, CostMetric::kMed);
  ASSERT_TRUE(costs.exact);
  EXPECT_TRUE(CostView(costs).exact);
  EXPECT_FALSE(CostView(costs.c0, costs.c1).exact);
  EXPECT_FALSE(CostView(costs.c0, costs.c1, costs.epoch).exact);
}

}  // namespace
}  // namespace dalut::core
