#include "core/multi_shared.hpp"

#include <gtest/gtest.h>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "core/partition_opt.hpp"
#include "util/rng.hpp"

namespace dalut::core {
namespace {

struct Costs {
  std::vector<double> c0, c1;
  CostView view() const { return CostView(c0, c1); }
};

Costs random_costs(unsigned n, util::Rng& rng) {
  Costs c;
  c.c0.resize(std::size_t{1} << n);
  c.c1.resize(std::size_t{1} << n);
  for (std::size_t i = 0; i < c.c0.size(); ++i) {
    c.c0[i] = rng.next_double();
    c.c1[i] = rng.next_double();
  }
  return c;
}

double realized_cost(const MultiSharedSetting& setting,
                     std::span<const double> c0, std::span<const double> c1) {
  const auto bit = MultiSharedBit::realize(setting);
  double total = 0.0;
  for (InputWord x = 0; x < c0.size(); ++x) {
    total += bit.eval(x) ? c1[x] : c0[x];
  }
  return total;
}

TEST(MultiShared, ZeroSharedMatchesNormalMode) {
  util::Rng rng(1);
  const auto costs = random_costs(6, rng);
  const Partition p(6, 0b000111);
  util::Rng a(5), b(5);
  const auto multi =
      optimize_for_shared_set(p, {}, costs.view(), {8, 64}, a);
  const auto normal = optimize_normal(p, costs.view(), {8, 64}, b);
  EXPECT_NEAR(multi.error, normal.error, 1e-12);
}

TEST(MultiShared, OneSharedMatchesPaperNdMode) {
  util::Rng rng(2);
  const auto costs = random_costs(6, rng);
  const Partition p(6, 0b011100);
  for (const unsigned shared : p.bound_inputs()) {
    util::Rng a(7), b(7);
    const unsigned set[1] = {shared};
    const auto multi =
        optimize_for_shared_set(p, set, costs.view(), {16, 64}, a);
    // Reference: the paper's two-half construction.
    const auto m0 =
        CostMatrix::build_conditioned(p, shared, false, costs.c0, costs.c1);
    const auto m1 =
        CostMatrix::build_conditioned(p, shared, true, costs.c0, costs.c1);
    const double reference = opt_for_part(m0, {16, 64}, b).error +
                             opt_for_part(m1, {16, 64}, b).error;
    EXPECT_NEAR(multi.error, reference, 1e-12);
  }
}

TEST(MultiShared, ClaimedErrorMatchesRealization) {
  util::Rng rng(3);
  for (unsigned shared_count = 0; shared_count <= 2; ++shared_count) {
    const auto costs = random_costs(7, rng);
    const auto p = Partition::random(7, 4, rng);
    const auto setting =
        optimize_multi_shared(p, shared_count, costs.view(), {12, 64}, rng);
    EXPECT_TRUE(setting.valid());
    EXPECT_EQ(setting.shared_bits.size(), shared_count);
    EXPECT_NEAR(setting.error, realized_cost(setting, costs.c0, costs.c1),
                1e-12);
  }
}

TEST(MultiShared, LargerSharedSetNeverWorse) {
  // Each extra shared bit strictly generalizes the function family.
  util::Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    const auto costs = random_costs(7, rng);
    const auto p = Partition::random(7, 4, rng);
    double previous = 1e300;
    for (unsigned shared_count = 0; shared_count <= 2; ++shared_count) {
      const auto setting =
          optimize_multi_shared(p, shared_count, costs.view(), {16, 64}, rng);
      EXPECT_LE(setting.error, previous + 1e-9)
          << "shared_count=" << shared_count;
      previous = setting.error;
    }
  }
}

TEST(MultiShared, StoredEntriesScaleWithSharedCount) {
  util::Rng rng(5);
  const auto costs = random_costs(7, rng);
  const Partition p(7, 0b0011110);
  for (unsigned shared_count = 0; shared_count <= 2; ++shared_count) {
    const auto setting =
        optimize_multi_shared(p, shared_count, costs.view(), {8, 64}, rng);
    const auto bit = MultiSharedBit::realize(setting);
    const std::size_t expected =
        p.num_cols() + (std::size_t{1} << shared_count) * p.num_rows() * 2;
    EXPECT_EQ(bit.stored_entries(), expected);
    EXPECT_EQ(bit.num_free_tables(), std::size_t{1} << shared_count);
  }
}

TEST(MultiShared, TwoSharedRecoversTwoBitDependentFunction) {
  // f needs phi to carry (x1, x2)-conditional information that one shared
  // bit cannot always provide: f = (x1 & x2) ? (x3 ^ x5) : (x4 ^ x3 ... );
  // build an f of the exact two-shared form and expect zero error.
  const unsigned n = 6;
  const auto g = MultiOutputFunction::from_eval(n, 1, [](InputWord x) {
    const bool x1 = x & 1, x2 = (x >> 1) & 1, x3 = (x >> 2) & 1;
    const bool x5 = (x >> 4) & 1, x6 = (x >> 5) & 1;
    // phi depends on (x1, x2) jointly: 4 different sub-functions of x3.
    const bool phi = (x1 && x2) ? x3 : (x1 ? !x3 : (x2 ? true : false));
    // F also keyed by (x1, x2): vary row behaviour per shared assignment.
    const bool f = (x1 == x2) ? (phi ^ x5) : (phi ^ x6);
    return static_cast<OutputWord>(f);
  });
  const auto dist = InputDistribution::uniform(n);
  const auto costs =
      build_bit_costs(g, g.values(), 0, LsbModel::kCurrentApprox, dist);
  util::Rng rng(6);
  const Partition p(n, 0b000111);  // B = {x1, x2, x3}
  const unsigned shared[2] = {0, 1};
  const auto setting =
      optimize_for_shared_set(p, shared, costs, {24, 64}, rng);
  EXPECT_NEAR(setting.error, 0.0, 1e-12);
  const auto bit = MultiSharedBit::realize(setting);
  for (InputWord x = 0; x < (1u << n); ++x) {
    EXPECT_EQ(bit.eval(x), g.output_bit(x, 0)) << x;
  }
}

TEST(MultiShared, Validation) {
  util::Rng rng(7);
  const auto costs = random_costs(5, rng);
  const Partition p(5, 0b00011);
  // Shared bit outside B.
  const unsigned outside[1] = {4};
  EXPECT_THROW(optimize_for_shared_set(p, outside, costs.view(), {4, 64}, rng),
               std::invalid_argument);
  // Shared set as large as B.
  const unsigned all[2] = {0, 1};
  EXPECT_THROW(
      optimize_for_shared_set(p, all, costs.view(), {4, 64}, rng),
      std::invalid_argument);
  // Invalid setting cannot realize.
  EXPECT_THROW(MultiSharedBit::realize(MultiSharedSetting{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace dalut::core
