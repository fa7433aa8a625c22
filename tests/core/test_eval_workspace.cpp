// Equivalence tests for the EvalWorkspace evaluation engine: both routes
// (the integer layout in int32 or int64 lanes, and the reference matrix)
// must reproduce the reference CostMatrix / opt_for_part path bit-for-bit,
// and every prepare() call must gather the arrays' current contents.
#include "core/eval_workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/algorithm_common.hpp"
#include "core/bssa.hpp"
#include "core/dalta.hpp"
#include "core/multi_shared.hpp"
#include "core/partition_opt.hpp"
#include "core/sa_search.hpp"
#include "reference_checks.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {
namespace {

using checks::expect_integer_layout;
using checks::expect_same_matrix;
using checks::expect_same_result;

struct CostFixture {
  unsigned num_inputs;
  std::vector<double> c0;
  std::vector<double> c1;

  explicit CostFixture(unsigned n, std::uint64_t seed) : num_inputs(n) {
    util::Rng rng(seed);
    const std::size_t domain = std::size_t{1} << n;
    c0.resize(domain);
    c1.resize(domain);
    for (std::size_t x = 0; x < domain; ++x) {
      c0[x] = rng.next_double();
      c1[x] = rng.next_double();
    }
  }

  CostView view() const { return CostView(c0, c1); }
  CostView stamped() const { return CostView(c0, c1, next_cost_epoch()); }
};

/// Certified cost arrays over 2^n inputs as build_bit_costs produces them
/// under a uniform distribution: losses in [0, levels) times 2^-n, with the
/// exactness certificate and loss_bits. Rows of `p` whose index is 1 mod 5
/// cost 0 throughout, so all four row types tie there; few levels make
/// other ties common. `epoch` 0 leaves the arrays unstamped.
BitCostArrays certified_costs(const Partition& p, std::uint64_t seed,
                              std::uint64_t levels, unsigned loss_bits,
                              bool stamped) {
  util::Rng rng(seed);
  const unsigned n = p.num_inputs();
  const double unit = std::ldexp(1.0, -static_cast<int>(n));
  BitCostArrays costs;
  for (std::size_t x = 0; x < (std::size_t{1} << n); ++x) {
    const bool zero_row =
        util::extract_bits(static_cast<InputWord>(x), p.free_mask()) % 5 == 1;
    costs.c0.push_back(
        zero_row ? 0.0 : unit * static_cast<double>(rng.next_below(levels)));
    costs.c1.push_back(
        zero_row ? 0.0 : unit * static_cast<double>(rng.next_below(levels)));
  }
  costs.exact = true;
  costs.loss_bits = loss_bits;
  costs.epoch = stamped ? next_cost_epoch() : 0;
  return costs;
}

/// The arrays without their certificate (and unstamped): the reference
/// route's input for the same costs.
CostView uncertified(const BitCostArrays& costs) {
  return CostView(costs.c0, costs.c1);
}

TEST(EvalWorkspace, FullMatrixMatchesReferenceBuild) {
  const CostFixture fx(8, 11);
  util::Rng rng(1);
  auto& workspace = EvalWorkspace::local();
  for (unsigned bound = 2; bound <= 6; ++bound) {
    const auto p = Partition::random(fx.num_inputs, bound, rng);
    const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
    // Raw views, unstamped and stamped, take the reference route;
    // full_matrix() is prepare() under its earlier name.
    expect_same_matrix(workspace.full_matrix(p, fx.view()), reference);
    expect_same_matrix(workspace.prepare(p, fx.stamped()), reference);

    // Certified arrays gather into int32 losses within the bound and into
    // int64 losses past it, from the loss mirror (stamped) or converted on
    // the fly (unstamped), with loss0 kept for slicing or not.
    for (const unsigned loss_bits : {8u, 30u}) {
      for (const bool stamped : {false, true}) {
        for (const bool sliced : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "bound=" << bound << " loss_bits=" << loss_bits
                       << " stamped=" << stamped << " sliced=" << sliced);
          const BitCostArrays costs =
              certified_costs(p, 100 + bound, 200, loss_bits, stamped);
          const CandidateRef candidate = workspace.prepare(p, costs, sliced);
          EXPECT_EQ(candidate.route(), loss_bits == 8 ? CandidateRoute::kInt32
                                                      : CandidateRoute::kInt64);
          expect_integer_layout(candidate,
                                CostMatrix::build(p, costs.c0, costs.c1),
                                fx.num_inputs);
          const bool kept =
              loss_bits == 8
                  ? !candidate.integer<std::int32_t>()->loss0.empty()
                  : !candidate.integer<std::int64_t>()->loss0.empty();
          EXPECT_EQ(kept, sliced);
        }
      }
    }
  }
}

TEST(EvalWorkspace, ConditionedSliceMatchesReferenceBuilds) {
  const CostFixture fx(8, 12);
  util::Rng rng(2);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const BitCostArrays int32_costs = certified_costs(p, 13, 200, 8, true);
  const BitCostArrays int64_costs = certified_costs(p, 14, 200, 30, true);

  // Every route's slice against the builder: the reference matrix, and the
  // integer layout of both element types.

  const auto slices = [&](std::uint32_t mask, std::uint32_t values) {
    SCOPED_TRACE(testing::Message() << "mask=" << mask << " values=" << values);
    const CandidateRef full = workspace.prepare(p, fx.view(), true);
    expect_same_matrix(
        workspace.conditioned(full, p, mask, values),
        CostMatrix::build_conditioned_set(p, mask, values, fx.c0, fx.c1));
    for (const BitCostArrays* costs : {&int32_costs, &int64_costs}) {
      const CandidateRef full_ints = workspace.prepare(p, *costs, true);
      expect_integer_layout(
          workspace.conditioned(full_ints, p, mask, values),
          CostMatrix::build_conditioned_set(p, mask, values, costs->c0,
                                            costs->c1),
          fx.num_inputs);
    }
  };

  for (const unsigned shared : p.bound_inputs()) {
    const std::uint32_t mask = std::uint32_t{1} << shared;
    for (std::uint32_t value = 0; value < 2; ++value) {
      // The single-bit builder agrees with the set builder used above.
      const auto reference = CostMatrix::build_conditioned(
          p, shared, value != 0, fx.c0, fx.c1);
      expect_same_matrix(
          workspace.conditioned(workspace.prepare(p, fx.view(), true), p,
                                mask, value),
          reference);
      slices(mask, value);
    }
  }

  // Two shared bits: against the generalized set builder.
  const auto bound = p.bound_inputs();
  const std::uint32_t pair_mask =
      (std::uint32_t{1} << bound[0]) | (std::uint32_t{1} << bound[2]);
  for (std::uint32_t values = 0; values < 4; ++values) {
    slices(pair_mask, values);
  }
}

TEST(EvalWorkspace, OptForPartBitIdenticalToReference) {
  const CostFixture fx(9, 13);
  util::Rng part_rng(3);
  auto& workspace = EvalWorkspace::local();
  for (const unsigned restarts : {1u, 7u, 30u}) {
    const auto p = Partition::random(fx.num_inputs, 4, part_rng);
    const auto reference_matrix = CostMatrix::build(p, fx.c0, fx.c1);
    const OptForPartParams params{restarts, 64};

    util::Rng ref_rng(77);
    const auto expected = opt_for_part(reference_matrix, params, ref_rng);

    util::Rng ws_rng(77);
    const auto actual =
        workspace.opt_for_part(workspace.prepare(p, fx.view()), params, ws_rng);

    expect_same_result(actual, expected);
    // Identical RNG stream: both sides must leave the generator in the
    // same state.
    EXPECT_EQ(ref_rng.next_double(), ws_rng.next_double());
  }
}

/// Runs the workspace OptForPart on `costs` and requires the reference
/// result and RNG end state.
void expect_reference_identical(const Partition& p, const CostView& costs,
                                unsigned restarts, std::uint64_t seed) {
  const OptForPartParams params{restarts, 64};
  const auto reference = CostMatrix::build(p, costs.c0, costs.c1);
  util::Rng ref_rng(seed);
  const auto expected = opt_for_part(reference, params, ref_rng);
  const double ref_next = ref_rng.next_double();

  auto& workspace = EvalWorkspace::local();
  SCOPED_TRACE(testing::Message()
               << reference.rows << "x" << reference.cols << " Z=" << restarts
               << " route=" << static_cast<int>(candidate_route(p, costs)));
  util::Rng ws_rng(seed);
  expect_same_result(
      workspace.opt_for_part(workspace.prepare(p, costs), params, ws_rng),
      expected);
  EXPECT_EQ(ws_rng.next_double(), ref_next);
}

/// Improving alternation rounds of each restart of the reference
/// opt_for_part(matrix, {restarts, 64}, Rng(seed)), found by replaying each
/// restart alone under growing iteration caps. A restart is still active
/// before round i exactly when it improved in rounds 1..i.
std::vector<unsigned> improving_rounds(const CostMatrix& matrix,
                                       unsigned restarts, std::uint64_t seed) {
  std::vector<unsigned> rounds(restarts, 0);
  for (unsigned z = 0; z < restarts; ++z) {
    double previous = 0.0;
    for (unsigned cap = 0; cap < 64; ++cap) {
      util::Rng rng(seed);
      for (std::size_t i = 0; i < z * matrix.cols; ++i) rng.next_bool();
      const double error = opt_for_part(matrix, {1, cap}, rng).error;
      if (cap > 0 && !(error < previous - 1e-15)) break;
      if (cap > 0) ++rounds[z];
      previous = error;
    }
  }
  return rounds;
}

TEST(EvalWorkspace, OptForPartBitIdenticalAcrossShapes) {
  // Every shape from 2 x 2 (narrower than one lane vector) to 128 columns
  // (two pattern words) and 64 rows, on both integer element types and on
  // the reference route: every Z must leave the reference's result and RNG
  // state.
  std::vector<unsigned> restart_counts;
  for (unsigned z = 1; z <= 17; ++z) restart_counts.push_back(z);
  restart_counts.push_back(30);
  restart_counts.push_back(33);
  std::uint64_t seed = 100;
  util::Rng part_rng(99);
  for (const unsigned n : {2u, 4u, 9u, 13u}) {
    for (const unsigned bound : {1u, n / 2, n - 1}) {
      const auto p = Partition::random(n, bound, part_rng);
      if (p.num_cols() > 128 || p.num_rows() > 64) continue;
      for (const unsigned loss_bits : {8u, 30u}) {
        const BitCostArrays costs =
            certified_costs(p, seed++, 64, loss_bits, true);
        for (const unsigned z : restart_counts) {
          expect_reference_identical(p, costs, z, seed++);
        }
      }
      const BitCostArrays costs = certified_costs(p, seed++, 64, 8, false);
      for (const unsigned z : {1u, 12u, 33u}) {
        expect_reference_identical(p, uncertified(costs), z, seed++);
      }
    }
  }

  // Cost1 dominates every cell, so every row types AllZero from the first
  // types step on and no row takes part in a pattern step.
  util::Rng rng(7);
  const auto p = Partition::random(12, 7, rng);
  BitCostArrays constant;
  const double unit = std::ldexp(1.0, -12);
  for (std::size_t x = 0; x < (std::size_t{1} << 12); ++x) {
    constant.c0.push_back(unit * static_cast<double>(rng.next_below(10)));
    constant.c1.push_back(unit * static_cast<double>(100 + rng.next_below(10)));
  }
  constant.exact = true;
  constant.epoch = next_cost_epoch();
  for (const unsigned loss_bits : {7u, 30u}) {
    constant.loss_bits = loss_bits;
    for (const unsigned z : {1u, 12u, 33u}) {
      const auto result = [&] {
        util::Rng z_rng(8);
        return opt_for_part(CostMatrix::build(p, constant.c0, constant.c1),
                            {z, 64}, z_rng);
      }();
      for (const RowType type : result.types) {
        ASSERT_EQ(type, RowType::kAllZero);
      }
      expect_reference_identical(p, constant, z, 8);
    }
  }
}

void expect_same_setting(const Setting& actual, const Setting& expected) {
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.partition, expected.partition);
  EXPECT_EQ(actual.mode, expected.mode);
  EXPECT_EQ(actual.pattern, expected.pattern);
  EXPECT_EQ(actual.types, expected.types);
  EXPECT_EQ(actual.shared_bit, expected.shared_bit);
  EXPECT_EQ(actual.pattern0, expected.pattern0);
  EXPECT_EQ(actual.types0, expected.types0);
  EXPECT_EQ(actual.pattern1, expected.pattern1);
  EXPECT_EQ(actual.types1, expected.types1);
}

TEST(EvalWorkspace, IncrementalSweepsBitIdenticalOnExactCosts) {
  // Certified arrays take the incremental sweeps; each must reproduce the
  // reference, as the same arrays do without their certificate. Shapes
  // cover rows below, at and above one lane vector of either element type
  // and more than one 64-column pattern word; few levels make ties common.
  std::uint64_t seed = 500;
  util::Rng part_rng(501);
  for (const unsigned n : {5u, 8u, 11u}) {
    for (const unsigned bound : {2u, n / 2, n - 2}) {
      const auto p = Partition::random(n, bound, part_rng);
      for (const std::uint64_t levels : {3u, 64u}) {
        for (const unsigned loss_bits : {7u, 40u}) {
          const BitCostArrays exact =
              certified_costs(p, seed++, levels, loss_bits, true);
          for (const unsigned z : {1u, 12u, 17u, 30u}) {
            expect_reference_identical(p, exact, z, seed);
            expect_reference_identical(p, uncertified(exact), z, seed++);
          }
        }
      }
    }
  }

  // Conditioned slices of a certified full matrix (the ND and multi-shared
  // modes) stay on the integer route.
  const unsigned n = 9;
  util::Rng rng(18);
  const auto p = Partition::random(n, 5, rng);
  auto& workspace = EvalWorkspace::local();
  const auto bound = p.bound_inputs();
  const std::uint32_t pair_mask =
      (std::uint32_t{1} << bound[0]) | (std::uint32_t{1} << bound[3]);
  for (const unsigned loss_bits : {5u, 40u}) {
    const BitCostArrays costs = certified_costs(p, 17, 5, loss_bits, true);
    for (const std::uint32_t mask :
         {std::uint32_t{1} << bound[2], pair_mask}) {
      for (std::uint32_t values = 0; values < (mask == pair_mask ? 4u : 2u);
           ++values) {
        const auto reference = CostMatrix::build_conditioned_set(
            p, mask, values, costs.c0, costs.c1);
        for (const unsigned z : {1u, 12u, 30u}) {
          util::Rng ref_rng(z);
          const auto expected = opt_for_part(reference, {z, 64}, ref_rng);
          const CandidateRef slice = workspace.conditioned(
              workspace.prepare(p, costs, true), p, mask, values);
          ASSERT_EQ(slice.route(), loss_bits == 5 ? CandidateRoute::kInt32
                                                  : CandidateRoute::kInt64);
          util::Rng ws_rng(z);
          expect_same_result(workspace.opt_for_part(slice, {z, 64}, ws_rng),
                             expected);
          EXPECT_EQ(ws_rng.next_double(), ref_rng.next_double());
        }
      }
    }
  }
}

TEST(EvalWorkspace, SearchesIdenticalWithAndWithoutExactCertificate) {
  // Cost arrays from build_bit_costs under a uniform distribution carry
  // the certificate; the same arrays without it (and unstamped) run the
  // reference OptForPart. The searches must not tell them apart.
  util::Rng rng(5);
  const unsigned n = 10;
  const auto g = MultiOutputFunction::from_eval(n, 8, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(256));
  });
  auto approx = g.values();
  for (auto& value : approx) value ^= static_cast<OutputWord>(rng.next_below(4));
  const BitCostArrays costs =
      build_bit_costs(g, approx, 3, LsbModel::kCurrentApprox,
                      InputDistribution::uniform(n));
  ASSERT_TRUE(costs.exact);
  BitCostArrays cleared = costs;
  cleared.exact = false;
  cleared.epoch = 0;

  SaParams params;
  params.partition_limit = 40;
  params.init_patterns = 12;
  params.chains = 3;
  const auto search = [&](const BitCostArrays& arrays) {
    util::Rng search_rng(7);
    return find_best_settings(n, 5, arrays, 3, params, search_rng, nullptr,
                              true);
  };
  const auto with = search(costs);
  const auto without = search(cleared);
  ASSERT_EQ(with.top.size(), without.top.size());
  for (std::size_t i = 0; i < with.top.size(); ++i) {
    expect_same_setting(with.top[i], without.top[i]);
  }
  ASSERT_EQ(with.top_bto.size(), without.top_bto.size());
  for (std::size_t i = 0; i < with.top_bto.size(); ++i) {
    expect_same_setting(with.top_bto[i], without.top_bto[i]);
  }

  util::Rng part_rng(8);
  const auto p = Partition::random(n, 5, part_rng);
  util::Rng nd_rng(9);
  const auto nd = optimize_nondisjoint(p, costs, {12, 64}, nd_rng);
  util::Rng nd_cleared_rng(9);
  expect_same_setting(nd,
                      optimize_nondisjoint(p, cleared, {12, 64}, nd_cleared_rng));
}

TEST(EvalWorkspace, BtoBitIdenticalToReference) {
  const CostFixture fx(8, 15);
  util::Rng rng(6);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 5, rng);
  expect_same_result(
      workspace.opt_for_part_bto(workspace.prepare(p, fx.view())),
      opt_for_part_bto(CostMatrix::build(p, fx.c0, fx.c1)));
  // Both integer element types.
  for (const unsigned loss_bits : {8u, 40u}) {
    const BitCostArrays costs = certified_costs(p, 16, 200, loss_bits, true);
    expect_same_result(workspace.opt_for_part_bto(workspace.prepare(p, costs)),
                       opt_for_part_bto(CostMatrix::build(p, costs.c0,
                                                          costs.c1)));
  }
}

TEST(EvalWorkspace, EvaluateVtAgreesWithSettingErrorUnderCosts) {
  const CostFixture fx(8, 17);
  util::Rng rng(8);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto setting = optimize_normal(p, fx.view(), {8, 64}, rng);

  // Different summation orders (realized 2^n domain vs row-major matrix),
  // so agreement is up to FP reassociation only.
  const double realized = setting_error_under_costs(setting, fx.c0, fx.c1);
  const double gathered =
      evaluate_vt(*workspace.prepare(p, fx.view()).reference(),
                  setting.pattern, setting.types);
  EXPECT_NEAR(gathered, realized, 1e-12 * (1.0 + std::abs(realized)));
  EXPECT_NEAR(setting.error, realized, 1e-12 * (1.0 + std::abs(realized)));
}

TEST(EvalWorkspace, OptimizeNormalBitIdenticalToLegacyPath) {
  const CostFixture fx(9, 18);
  util::Rng part_rng(9);
  const auto p = Partition::random(fx.num_inputs, 5, part_rng);
  const OptForPartParams params{12, 64};

  util::Rng ref_rng(21);
  const auto expected =
      opt_for_part(CostMatrix::build(p, fx.c0, fx.c1), params, ref_rng);

  util::Rng rng(21);
  const auto setting = optimize_normal(p, fx.view(), params, rng);
  EXPECT_EQ(setting.error, expected.error);
  EXPECT_EQ(setting.pattern, expected.pattern);
  EXPECT_EQ(setting.types, expected.types);
  EXPECT_EQ(setting.mode, DecompMode::kNormal);
}

/// The pre-engine non-disjoint optimization: per shared bit, two
/// conditioned builds, then two reference optimizations in order.
Setting legacy_nondisjoint(const Partition& p, std::span<const double> c0,
                           std::span<const double> c1,
                           const OptForPartParams& params, util::Rng& rng) {
  Setting expected;
  for (const unsigned shared : p.bound_inputs()) {
    const auto m0 = CostMatrix::build_conditioned(p, shared, false, c0, c1);
    const auto m1 = CostMatrix::build_conditioned(p, shared, true, c0, c1);
    auto vt0 = opt_for_part(m0, params, rng);
    auto vt1 = opt_for_part(m1, params, rng);
    const double error = vt0.error + vt1.error;
    if (error < expected.error) {
      expected.error = error;
      expected.shared_bit = shared;
      expected.pattern0 = std::move(vt0.pattern);
      expected.types0 = std::move(vt0.types);
      expected.pattern1 = std::move(vt1.pattern);
      expected.types1 = std::move(vt1.types);
    }
  }
  return expected;
}

void expect_same_nondisjoint(const Setting& actual, const Setting& expected) {
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.shared_bit, expected.shared_bit);
  EXPECT_EQ(actual.pattern0, expected.pattern0);
  EXPECT_EQ(actual.types0, expected.types0);
  EXPECT_EQ(actual.pattern1, expected.pattern1);
  EXPECT_EQ(actual.types1, expected.types1);
}

TEST(EvalWorkspace, OptimizeNondisjointBitIdenticalToLegacyPath) {
  const CostFixture fx(8, 19);
  util::Rng part_rng(10);
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const OptForPartParams params{6, 64};

  util::Rng ref_rng(31);
  const Setting expected = legacy_nondisjoint(p, fx.c0, fx.c1, params, ref_rng);
  util::Rng rng(31);
  expect_same_nondisjoint(optimize_nondisjoint(p, fx.view(), params, rng),
                          expected);
}

TEST(EvalWorkspace, MultiSharedBitIdenticalToLegacyPath) {
  // Raw doubles slice the reference matrix; certified costs slice the
  // integer layout of either element type.
  const CostFixture fx(8, 20);
  util::Rng part_rng(11);
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const BitCostArrays certified = certified_costs(p, 42, 7, 3, true);
  const OptForPartParams params{5, 64};
  const auto bound = p.bound_inputs();
  const std::vector<unsigned> shared{bound[1], bound[3]};
  const std::uint32_t mask =
      (std::uint32_t{1} << shared[0]) | (std::uint32_t{1} << shared[1]);

  const auto check = [&](const CostView& costs) {
    MultiSharedSetting expected;
    expected.error = 0.0;
    util::Rng ref_rng(41);
    for (std::uint32_t j = 0; j < 4; ++j) {
      const auto matrix =
          CostMatrix::build_conditioned_set(p, mask, j, costs.c0, costs.c1);
      auto vt = opt_for_part(matrix, params, ref_rng);
      expected.error += vt.error;
      expected.patterns.push_back(std::move(vt.pattern));
      expected.types.push_back(std::move(vt.types));
    }
    util::Rng rng(41);
    const auto actual = optimize_for_shared_set(p, shared, costs, params, rng);
    EXPECT_EQ(actual.error, expected.error);
    EXPECT_EQ(actual.patterns, expected.patterns);
    EXPECT_EQ(actual.types, expected.types);
  };
  check(CostView(fx.c0, fx.c1));
  check(certified);
  check(certified_costs(p, 43, 7, 40, true));
}

TEST(EvalWorkspace, EveryFullMatrixCallGathers) {
  util::Rng rng(12);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(8, 4, rng);
  // Five certified arrays, the last two past the int32 bound, so the
  // thread's four loss-mirror slots hold both element types.
  std::vector<BitCostArrays> fixtures;
  for (std::uint64_t seed = 21; seed < 26; ++seed) {
    fixtures.push_back(
        certified_costs(p, seed, 200, seed < 24 ? 10 : 30, true));
  }
  const auto check = [&](const BitCostArrays& costs) {
    expect_integer_layout(workspace.full_matrix(p, costs),
                          CostMatrix::build(p, costs.c0, costs.c1), 8);
  };

  // The registry mirrors of the gather counters must advance in lock-step
  // with the counters eval_cache_stats() reports.
  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);
  reset_eval_cache();

  // One stamped view, revisited: no matrix is retained, so every call
  // gathers afresh into the thread's scratch.
  for (int i = 0; i < 3; ++i) check(fixtures[0]);
  EXPECT_EQ(eval_cache_stats().gathers, 3u);

  // The same arrays without the certificate take the reference route.
  const BitCostArrays& first = fixtures[0];
  expect_same_matrix(
      workspace.full_matrix(p, CostView(first.c0, first.c1, first.epoch)),
      CostMatrix::build(p, first.c0, first.c1));

  const std::uint32_t shared_mask = p.bound_mask() & (0u - p.bound_mask());
  expect_integer_layout(
      workspace.conditioned(workspace.prepare(p, first, true), p, shared_mask,
                            1),
      CostMatrix::build_conditioned_set(p, shared_mask, 1, first.c0, first.c1),
      8);

  // Five distinct epochs cycle the thread's four source slots twice, so
  // every revisit re-mirrors a slot another epoch held.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& costs : fixtures) check(costs);
  }

  // Arrays edited in place and re-stamped gather their new contents, also
  // when their previous epoch still holds a mirror slot.
  const double unit = std::ldexp(1.0, -8);
  for (int edit = 0; edit < 5; ++edit) {
    auto& costs = fixtures[edit % 2 == 0 ? 0 : 4];
    for (double& cost : costs.c0) cost += unit;
    std::reverse(costs.c1.begin(), costs.c1.end());
    costs.epoch = next_cost_epoch();
    check(costs);
  }

  const auto stats = eval_cache_stats();
  EXPECT_EQ(stats.gathers, 3u + 1u + 1u + 10u + 5u);
  EXPECT_EQ(stats.slices, 1u);
  EXPECT_EQ(stats.bytes, 0u);
  // reset_eval_cache() zeroes only its own counters; the registry was
  // reset above, so both saw the same stream.
  const auto snap = util::telemetry::snapshot_metrics();
  EXPECT_EQ(snap.counter_value("evalcache.gathers"), stats.gathers);
  EXPECT_EQ(snap.counter_value("evalcache.slices"), stats.slices);
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::reset_metrics_for_test();
  reset_eval_cache();
}

/// The integer route against the reference on one partition's costs:
/// normal OptForPart at several Z, BTO, and the non-disjoint composition
/// over conditioned slices, each with the same RNG stream.
void expect_integer_identical(const Partition& p, const BitCostArrays& costs,
                              CandidateRoute route) {
  ASSERT_EQ(candidate_route(p, costs), route);
  auto& workspace = EvalWorkspace::local();
  const auto reference = CostMatrix::build(p, costs.c0, costs.c1);
  const auto reference_bto = opt_for_part_bto(reference);
  for (const unsigned z : {1u, 12u, 30u}) {
    SCOPED_TRACE(testing::Message()
                 << reference.rows << "x" << reference.cols << " Z=" << z);
    util::Rng ref_rng(z);
    const auto expected = opt_for_part(reference, {z, 64}, ref_rng);
    util::Rng ws_rng(z);
    const CandidateRef candidate = workspace.prepare(p, costs);
    ASSERT_EQ(candidate.route(), route);
    expect_same_result(workspace.opt_for_part(candidate, {z, 64}, ws_rng),
                       expected);
    EXPECT_EQ(ws_rng.next_double(), ref_rng.next_double());
    expect_same_result(workspace.opt_for_part_bto(candidate), reference_bto);
  }
  util::Rng ref_rng(3);
  const Setting expected =
      legacy_nondisjoint(p, costs.c0, costs.c1, {5, 64}, ref_rng);
  util::Rng rng(3);
  expect_same_nondisjoint(optimize_nondisjoint(p, costs, {5, 64}, rng),
                          expected);
}

TEST(EvalWorkspace, IntegerPathBitIdenticalToReference) {
  // Every shape from 2 x 2 up: rows and columns below one lane vector, one
  // vector, and several; stamped arrays gather from the loss mirror,
  // unstamped ones convert on the fly. 8-bit losses take int32 lanes;
  // losses of up to 38 bits, whose sums pass 2^31, take int64 lanes.
  std::uint64_t seed = 900;
  util::Rng part_rng(901);
  for (const unsigned n : {2u, 3u, 5u, 7u, 9u, 11u}) {
    for (unsigned bound = 1; bound < n; bound += (n > 5 ? 2 : 1)) {
      const auto p = Partition::random(n, bound, part_rng);
      for (const std::uint64_t levels : {3u, 256u}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " bound=" << bound
                                        << " levels=" << levels);
        expect_integer_identical(
            p, certified_costs(p, seed++, levels, 8, levels == 3),
            CandidateRoute::kInt32);
      }
      for (const std::uint64_t levels :
           {std::uint64_t{3}, std::uint64_t{1} << 38}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " bound=" << bound
                                        << " levels=" << levels);
        expect_integer_identical(
            p, certified_costs(p, seed++, levels, 38, levels == 3),
            CandidateRoute::kInt64);
      }
    }
  }
}

TEST(EvalWorkspace, IntegerAdmissionBoundary) {
  // Losses at 2^loss_bits - 1 (cost0 everywhere, cost1 in three cells of
  // four) put the row sums, s0 + s1 and the balances next to 2^31 on the
  // largest shapes int32 lanes admit. One more loss bit is the first shape
  // past the bound, which takes int64 lanes, as do the widest losses the
  // certificate allows at n = 12 (n + loss_bits + 2 <= 52). All must match
  // the reference; under UBSan an off-by-one in the bound overflows.
  struct Case {
    unsigned bound;
    unsigned loss_bits;
    CandidateRoute route;
  };
  constexpr auto kInt32 = CandidateRoute::kInt32;
  constexpr auto kInt64 = CandidateRoute::kInt64;
  const unsigned n = 12;
  for (const Case c :
       {Case{6, 24, kInt32}, Case{6, 25, kInt64}, Case{7, 23, kInt32},
        Case{7, 24, kInt64}, Case{5, 23, kInt32}, Case{5, 24, kInt64},
        Case{6, 38, kInt64}, Case{11, 38, kInt64}, Case{1, 38, kInt64}}) {
    SCOPED_TRACE(testing::Message()
                 << "bound=" << c.bound << " loss_bits=" << c.loss_bits);
    util::Rng rng(c.bound * 100 + c.loss_bits);
    const auto p = Partition::random(n, c.bound, rng);
    const double top =
        std::ldexp(std::ldexp(1.0, static_cast<int>(c.loss_bits)) - 1.0,
                   -static_cast<int>(n));
    BitCostArrays costs;
    for (std::size_t x = 0; x < (std::size_t{1} << n); ++x) {
      costs.c0.push_back(top);
      costs.c1.push_back(rng.next_below(4) == 0 ? 0.0 : top);
    }
    costs.exact = true;
    costs.loss_bits = c.loss_bits;
    costs.epoch = next_cost_epoch();
    EXPECT_EQ(candidate_route(p, costs), c.route);

    auto& workspace = EvalWorkspace::local();
    const auto reference = CostMatrix::build(p, costs.c0, costs.c1);
    util::Rng ref_rng(5);
    const auto expected = opt_for_part(reference, {6, 64}, ref_rng);
    util::Rng ws_rng(5);
    const CandidateRef candidate = workspace.prepare(p, costs);
    EXPECT_EQ(candidate.route(), c.route);
    expect_same_result(workspace.opt_for_part(candidate, {6, 64}, ws_rng),
                       expected);
    expect_same_result(workspace.opt_for_part_bto(candidate),
                       opt_for_part_bto(reference));
  }

  // int64 lanes hold sums up to 2^63; past that the route is the
  // reference. (No double holds such losses exactly, so only the route is
  // checked.)
  util::Rng rng(3);
  const auto p = Partition::random(n, 6, rng);
  const std::vector<double> zeros(std::size_t{1} << n, 0.0);
  CostView view(zeros, zeros);
  view.exact = true;
  view.loss_bits = 56;
  EXPECT_EQ(candidate_route(p, view), kInt64);
  view.loss_bits = 57;
  EXPECT_EQ(candidate_route(p, view), CandidateRoute::kReference);
  view.loss_bits = 0;
  EXPECT_EQ(candidate_route(p, view), CandidateRoute::kReference);
}

TEST(EvalWorkspace, BssaAndDaltaIdenticalWithoutCertificate) {
  // Equal weights give every input p = 2^-n, as the uniform distribution
  // does, but a weight table carries no certificate: its searches run the
  // reference OptForPart. Uniform searches run on the integer layout
  // (the ND mode on its conditioned slices). Settings and MED must agree.
  const unsigned n = 10;
  util::Rng rng(61);
  const auto g = MultiOutputFunction::from_eval(n, 8, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(256));
  });
  const auto uniform = InputDistribution::uniform(n);
  const auto weighted = InputDistribution::from_weights(
      n, std::vector<double>(std::size_t{1} << n, 1.0));
  ASSERT_FALSE(build_bit_costs(g, g.values(), 7, LsbModel::kPredictive,
                               weighted)
                   .exact);
  ASSERT_TRUE(build_bit_costs(g, g.values(), 7, LsbModel::kPredictive,
                              uniform)
                  .exact);

  const auto expect_same_run = [](const DecompositionResult& with,
                                  const DecompositionResult& without) {
    EXPECT_EQ(with.med, without.med);
    ASSERT_EQ(with.settings.size(), without.settings.size());
    for (std::size_t k = 0; k < with.settings.size(); ++k) {
      expect_same_setting(with.settings[k], without.settings[k]);
    }
  };
  util::ThreadPool pool(3);
  BssaParams bp;
  bp.bound_size = 5;
  bp.rounds = 2;
  bp.beam_width = 2;
  bp.sa.partition_limit = 16;
  bp.sa.init_patterns = 6;
  bp.sa.chains = 2;
  bp.modes = ModePolicy::bto_normal_nd();
  bp.seed = 62;
  bp.pool = &pool;
  expect_same_run(run_bssa(g, uniform, bp), run_bssa(g, weighted, bp));

  DaltaParams dp;
  dp.bound_size = 5;
  dp.rounds = 2;
  dp.partition_limit = 24;
  dp.init_patterns = 6;
  dp.seed = 63;
  dp.pool = &pool;
  expect_same_run(run_dalta(g, uniform, dp), run_dalta(g, weighted, dp));
}

TEST(EvalWorkspace, SearchesNeverTakeTheReferencePath) {
  // Under uniform MED, ER and MSE costs every OptForPart of BS-SA (all
  // three modes), DALTA and the harnesses' per-bit flow (find_best_settings,
  // then the ND and multi-shared modes on its tops) runs on the integer
  // layout: none reaches the reference.
  const unsigned n = 10;
  util::Rng rng(81);
  const auto g = MultiOutputFunction::from_eval(n, 8, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(256));
  });
  const auto uniform = InputDistribution::uniform(n);
  util::ThreadPool pool(2);
  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);
  for (const CostMetric metric : {CostMetric::kMed, CostMetric::kErrorRate}) {
    BssaParams bp;
    bp.bound_size = 5;
    bp.rounds = 2;
    bp.beam_width = 2;
    bp.sa.partition_limit = 12;
    bp.sa.init_patterns = 4;
    bp.sa.chains = 2;
    bp.modes = ModePolicy::bto_normal_nd();
    bp.metric = metric;
    bp.seed = 82;
    bp.pool = &pool;
    (void)run_bssa(g, uniform, bp);

    DaltaParams dp;
    dp.bound_size = 5;
    dp.rounds = 2;
    dp.partition_limit = 12;
    dp.init_patterns = 4;
    dp.metric = metric;
    dp.seed = 83;
    dp.pool = &pool;
    (void)run_dalta(g, uniform, dp);

    const BitCostArrays costs =
        build_bit_costs(g, g.values(), g.num_outputs() - 1,
                        LsbModel::kPredictive, uniform, metric);
    SaParams sa;
    sa.partition_limit = 12;
    sa.init_patterns = 4;
    sa.chains = 2;
    util::Rng search_rng(84);
    const auto found =
        find_best_settings(n, 5, costs, 2, sa, search_rng, &pool, true);
    for (const Setting& top : found.top) {
      (void)optimize_nondisjoint(top.partition, costs, {4, 64}, search_rng);
      (void)optimize_multi_shared(top.partition, 2, costs, {4, 64},
                                  search_rng);
    }
  }

  // Uniform MSE at n = m = 12: losses of 2m = 24 bits, so with 5 bound
  // inputs (7 free) a candidate passes the int32 bound and runs on int64
  // lanes.
  const unsigned wide = 12;
  const auto h = MultiOutputFunction::from_eval(wide, 12, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(4096));
  });
  const auto wide_uniform = InputDistribution::uniform(wide);
  ASSERT_EQ(candidate_route(Partition::random(wide, 5, rng),
                            build_bit_costs(h, h.values(), 11,
                                            LsbModel::kPredictive,
                                            wide_uniform, CostMetric::kMse)),
            CandidateRoute::kInt64);
  BssaParams bp;
  bp.bound_size = 5;
  bp.rounds = 2;
  bp.beam_width = 2;
  bp.sa.partition_limit = 8;
  bp.sa.init_patterns = 4;
  bp.sa.chains = 2;
  bp.modes = ModePolicy::bto_normal_nd();
  bp.metric = CostMetric::kMse;
  bp.seed = 86;
  bp.pool = &pool;
  (void)run_bssa(h, wide_uniform, bp);
  DaltaParams dp;
  dp.bound_size = 5;
  dp.rounds = 1;
  dp.partition_limit = 8;
  dp.init_patterns = 4;
  dp.metric = CostMetric::kMse;
  dp.seed = 87;
  dp.pool = &pool;
  (void)run_dalta(h, wide_uniform, dp);

  const auto snap = util::telemetry::snapshot_metrics();
  const std::uint64_t calls = snap.counter_value("opt_for_part.calls");
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(snap.counter_value("opt_for_part.int_calls"), calls);
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::reset_metrics_for_test();
}

TEST(EvalWorkspace, OptForPartWorkCounters) {
  // One fixed matrix through all three OptForPart routes: int32 lanes,
  // int64 lanes (the same losses under a wider certificate) and the
  // reference (no certificate). Each restart runs
  // its improving alternations plus the one that stops it; the reference
  // replay counts the improving ones.
  util::Rng part_rng(71);
  const auto p = Partition::random(9, 5, part_rng);
  const BitCostArrays costs = certified_costs(p, 72, 64, 6, true);
  const unsigned restarts = 7;
  const std::uint64_t seed = 73;
  const auto rounds = improving_rounds(
      CostMatrix::build(p, costs.c0, costs.c1), restarts, seed);
  std::uint64_t alternations = 0;
  for (const unsigned r : rounds) alternations += std::min(r + 1, 64u);

  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);
  auto& workspace = EvalWorkspace::local();
  const OptForPartParams params{restarts, 64};
  const auto counters = [] {
    const auto snap = util::telemetry::snapshot_metrics();
    return std::array<std::uint64_t, 4>{
        snap.counter_value("opt_for_part.calls"),
        snap.counter_value("opt_for_part.restarts"),
        snap.counter_value("opt_for_part.alternations"),
        snap.counter_value("opt_for_part.int_calls")};
  };
  util::Rng rng(seed);
  workspace.opt_for_part(workspace.prepare(p, costs), params, rng);
  EXPECT_EQ(counters(),
            (std::array<std::uint64_t, 4>{1, restarts, alternations, 1}));
  CostView wide = costs;
  wide.loss_bits = 30;
  ASSERT_EQ(candidate_route(p, wide), CandidateRoute::kInt64);
  rng = util::Rng(seed);
  workspace.opt_for_part(workspace.prepare(p, wide), params, rng);
  rng = util::Rng(seed);
  workspace.opt_for_part(workspace.prepare(p, uncertified(costs)), params,
                         rng);
  EXPECT_EQ(counters(), (std::array<std::uint64_t, 4>{3, 3 * restarts,
                                                      3 * alternations, 2}));
  // BTO is not an alternating optimization and does not count.
  workspace.opt_for_part_bto(workspace.prepare(p, costs));
  EXPECT_EQ(counters()[0], 3u);

  // Write-only: a search reads the same with the counters on and off.
  SaParams sa;
  sa.partition_limit = 24;
  sa.init_patterns = 6;
  sa.chains = 2;
  const auto search = [&] {
    util::Rng search_rng(74);
    return find_best_settings(9, 5, costs, 3, sa, search_rng, nullptr, true);
  };
  const auto on = search();
  EXPECT_GT(counters()[3], 1u);
  util::telemetry::set_metrics_enabled(false);
  const auto off = search();
  ASSERT_EQ(on.top.size(), off.top.size());
  for (std::size_t i = 0; i < on.top.size(); ++i) {
    expect_same_setting(on.top[i], off.top[i]);
  }
  ASSERT_EQ(on.top_bto.size(), off.top_bto.size());
  for (std::size_t i = 0; i < on.top_bto.size(); ++i) {
    expect_same_setting(on.top_bto[i], off.top_bto[i]);
  }
  util::telemetry::reset_metrics_for_test();
}

}  // namespace
}  // namespace dalut::core
