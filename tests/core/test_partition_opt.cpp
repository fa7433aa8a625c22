#include "core/partition_opt.hpp"

#include <gtest/gtest.h>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
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

TEST(PartitionOpt, NormalSettingFieldsPopulated) {
  util::Rng rng(1);
  const auto costs = random_costs(6, rng);
  const Partition p(6, 0b000111);
  const auto s = optimize_normal(p, costs.view(), {8, 64}, rng);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.mode, DecompMode::kNormal);
  EXPECT_EQ(s.partition, p);
  EXPECT_EQ(s.pattern.size(), 8u);
  EXPECT_EQ(s.types.size(), 8u);
}

TEST(PartitionOpt, SettingErrorsMatchRealizedError) {
  // setting.error must equal the cost of the realized bit under the arrays.
  util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto costs = random_costs(6, rng);
    const auto p = Partition::random(6, 3, rng);
    const auto normal = optimize_normal(p, costs.view(), {8, 64}, rng);
    EXPECT_NEAR(normal.error,
                setting_error_under_costs(normal, costs.c0, costs.c1), 1e-12);
    const auto bto = optimize_bto(p, costs.view());
    EXPECT_NEAR(bto.error, setting_error_under_costs(bto, costs.c0, costs.c1),
                1e-12);
    const auto nd = optimize_nondisjoint(p, costs.view(), {8, 64}, rng);
    EXPECT_NEAR(nd.error, setting_error_under_costs(nd, costs.c0, costs.c1),
                1e-12);
  }
}

TEST(PartitionOpt, ErrorOrderingBtoNormalNd) {
  // More expressive modes can only do better: E_ND <= E_normal <= E_BTO.
  util::Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const auto costs = random_costs(7, rng);
    const auto p = Partition::random(7, 4, rng);
    const auto bto = optimize_bto(p, costs.view());
    const auto normal = optimize_normal(p, costs.view(), {16, 64}, rng);
    const auto nd = optimize_nondisjoint(p, costs.view(), {16, 64}, rng);
    EXPECT_LE(normal.error, bto.error + 1e-9);
    EXPECT_LE(nd.error, normal.error + 1e-9);
  }
}

TEST(PartitionOpt, NdPicksBestSharedBit) {
  // ND enumerates every bound input; its result must be at least as good as
  // forcing any specific shared bit.
  util::Rng rng(4);
  const auto costs = random_costs(6, rng);
  const Partition p(6, 0b011010);
  const auto nd = optimize_nondisjoint(p, costs.view(), {16, 64}, rng);
  EXPECT_TRUE(p.in_bound_set(nd.shared_bit));
  for (const unsigned shared : p.bound_inputs()) {
    const auto m0 =
        CostMatrix::build_conditioned(p, shared, false, costs.c0, costs.c1);
    const auto m1 =
        CostMatrix::build_conditioned(p, shared, true, costs.c0, costs.c1);
    const auto vt0 = opt_for_part(m0, {16, 64}, rng);
    const auto vt1 = opt_for_part(m1, {16, 64}, rng);
    EXPECT_LE(nd.error, vt0.error + vt1.error + 1e-9);
  }
}

TEST(PartitionOpt, NdExactlyDecomposesXorWithSharedBit) {
  // f = (x1 & x2) ^ x3 with B = {x1, x2, x3}, n = 5: disjoint decomposition
  // through one phi bit cannot always capture 2 bits of information, but a
  // function that *is* F(phi(B), A, x_s) must be reproduced exactly by ND.
  const unsigned n = 5;
  const auto g = MultiOutputFunction::from_eval(n, 1, [](InputWord x) {
    const bool x1 = x & 1, x2 = (x >> 1) & 1, x3 = (x >> 2) & 1;
    const bool x4 = (x >> 3) & 1;
    const bool phi = x1 ^ x3;
    // F(phi, A, x2): x2 selects between phi-like and complement-like rows.
    return static_cast<OutputWord>(x2 ? (phi ^ x4) : phi);
  });
  const auto dist = InputDistribution::uniform(n);
  const auto costs =
      build_bit_costs(g, g.values(), 0, LsbModel::kCurrentApprox, dist);
  util::Rng rng(5);
  const Partition p(n, 0b00111);
  const auto nd = optimize_nondisjoint(p, costs, {24, 64}, rng);
  EXPECT_NEAR(nd.error, 0.0, 1e-12);
  // Realized bit reproduces g exactly.
  const auto bit = DecomposedBit::realize(nd);
  for (InputWord x = 0; x < (1u << n); ++x) {
    EXPECT_EQ(bit.eval(x), g.output_bit(x, 0)) << x;
  }
}

TEST(PartitionOpt, SampleParitionsDistinct) {
  util::Rng rng(6);
  const auto partitions = sample_partitions(10, 5, 40, rng);
  EXPECT_EQ(partitions.size(), 40u);
  for (const auto& p : partitions) EXPECT_EQ(p.bound_size(), 5u);
}

TEST(PartitionOpt, SamplePartitionsEnumeratesSmallSpaces) {
  util::Rng rng(7);
  // C(4,2) = 6 < 100 -> full enumeration.
  const auto partitions = sample_partitions(4, 2, 100, rng);
  EXPECT_EQ(partitions.size(), 6u);
}

}  // namespace
}  // namespace dalut::core
