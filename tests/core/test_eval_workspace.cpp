// Equivalence tests for the EvalWorkspace evaluation engine: every kernel
// must reproduce the reference CostMatrix / opt_for_part path bit-for-bit,
// and every full_matrix() call must gather the arrays' current contents.
#include "core/eval_workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "core/algorithm_common.hpp"
#include "core/bssa.hpp"
#include "core/dalta.hpp"
#include "core/multi_shared.hpp"
#include "core/partition_opt.hpp"
#include "core/sa_search.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {
namespace {

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

void expect_same_matrix(const InterleavedCostMatrix& actual,
                        const CostMatrix& expected) {
  ASSERT_EQ(actual.rows, expected.rows);
  ASSERT_EQ(actual.cols, expected.cols);
  for (std::size_t r = 0; r < expected.rows; ++r) {
    for (std::size_t c = 0; c < expected.cols; ++c) {
      EXPECT_EQ(actual.at0(r, c), expected.at0(r, c)) << r << "," << c;
      EXPECT_EQ(actual.at1(r, c), expected.at1(r, c)) << r << "," << c;
    }
  }
}

void expect_same_result(const VtResult& actual, const VtResult& expected) {
  EXPECT_EQ(actual.error, expected.error);  // bit-identical, not just close
  EXPECT_EQ(actual.pattern, expected.pattern);
  EXPECT_EQ(actual.types, expected.types);
}

TEST(EvalWorkspace, FullMatrixMatchesReferenceBuild) {
  const CostFixture fx(8, 11);
  util::Rng rng(1);
  auto& workspace = EvalWorkspace::local();
  for (unsigned bound = 2; bound <= 6; ++bound) {
    const auto p = Partition::random(fx.num_inputs, bound, rng);
    const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
    // Unstamped view: scratch path.
    expect_same_matrix(workspace.full_matrix(p, fx.view()), reference);
    // Stamped view: interleaved source path.
    expect_same_matrix(workspace.full_matrix(p, fx.stamped()), reference);
  }
}

// Regression: the per-thread deposit-table cache flushes wholesale once it
// holds 256 masks. A flush triggered by the bound-mask lookup used to
// invalidate the free-mask table already referenced by the same gather.
// Within one input width masks enter in complement pairs, keeping the map
// size even and landing every flush on the harmless first lookup, so the
// trigger needs partitions of different widths sharing one workspace — as
// in a batch run over tables of different sizes.
TEST(EvalWorkspace, GatherSurvivesDepositTableFlush) {
  const CostFixture fx12(12, 13);
  const CostFixture fx10(10, 14);
  // A fresh thread gets a pristine thread-local workspace, making the
  // deposit-table fill sequence below exact.
  std::thread([&] {
    auto& workspace = EvalWorkspace::local();
    const auto check = [&](const Partition& p, const CostFixture& fx) {
      const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
      expect_same_matrix(workspace.full_matrix(p, fx.view()), reference);
    };
    // 127 distinct popcount-6 bound masks cache 254 tables (each gather
    // inserts the bound mask and its complement).
    unsigned pairs = 0;
    for (std::uint32_t mask = 0; mask < 0x1000 && pairs < 127; ++mask) {
      if (std::popcount(mask) != 6 || mask > (0xFFFu ^ mask)) continue;
      check(Partition(12, mask), fx12);
      ++pairs;
    }
    // A 10-input gather caches free mask 0x3FC without its 12-bit
    // complement, reaching the 256-entry flush threshold.
    check(Partition(10, 0x003), fx10);
    // Now free mask 0x3FC hits while bound mask 0xC03 misses at capacity:
    // the miss flushes the cache while the free-mask table is referenced
    // by the in-flight gather.
    check(Partition(12, 0xC03), fx12);
  }).join();
}

TEST(EvalWorkspace, ConditionedSliceMatchesReferenceBuilds) {
  const CostFixture fx(8, 12);
  util::Rng rng(2);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const MatrixRef full = workspace.full_matrix(p, fx.view());

  for (const unsigned shared : p.bound_inputs()) {
    const std::uint32_t mask = std::uint32_t{1} << shared;
    for (std::uint32_t value = 0; value < 2; ++value) {
      const auto reference = CostMatrix::build_conditioned(
          p, shared, value != 0, fx.c0, fx.c1);
      expect_same_matrix(workspace.conditioned(full, p, mask, value),
                         reference);
    }
  }

  // Two shared bits: against the generalized set builder.
  const auto bound = p.bound_inputs();
  const std::uint32_t pair_mask =
      (std::uint32_t{1} << bound[0]) | (std::uint32_t{1} << bound[2]);
  for (std::uint32_t values = 0; values < 4; ++values) {
    const auto reference = CostMatrix::build_conditioned_set(
        p, pair_mask, values, fx.c0, fx.c1);
    expect_same_matrix(workspace.conditioned(full, p, pair_mask, values),
                       reference);
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
    const auto actual = workspace.opt_for_part(
        workspace.full_matrix(p, fx.view()), params, ws_rng);

    expect_same_result(actual, expected);
    // Identical RNG stream: both sides must leave the generator in the
    // same state.
    EXPECT_EQ(ref_rng.next_double(), ws_rng.next_double());
  }
}

/// The same random cost matrix in the reference and the interleaved
/// layouts. Costs are uniform in [lo0, hi0) and [lo1, hi1).
struct MatrixPair {
  CostMatrix reference;
  InterleavedCostMatrix interleaved;

  MatrixPair(std::size_t rows, std::size_t cols, std::uint64_t seed,
             double lo0 = 0.0, double hi0 = 1.0, double lo1 = 0.0,
             double hi1 = 1.0) {
    util::Rng rng(seed);
    reference.rows = interleaved.rows = rows;
    reference.cols = interleaved.cols = cols;
    for (std::size_t i = 0; i < rows * cols; ++i) {
      reference.cost0.push_back(lo0 + (hi0 - lo0) * rng.next_double());
      reference.cost1.push_back(lo1 + (hi1 - lo1) * rng.next_double());
      interleaved.cells.push_back(reference.cost0.back());
      interleaved.cells.push_back(reference.cost1.back());
    }
  }
};

/// Forces the scalar kernels for one scope.
struct ScopedForceScalar {
  explicit ScopedForceScalar(bool on) { util::simd::set_force_scalar(on); }
  ~ScopedForceScalar() { util::simd::set_force_scalar(false); }
};

/// Runs the workspace OptForPart under every forced restart-block size (0 =
/// automatic) with SIMD on and forced-scalar, and requires the reference
/// result and RNG end state each time.
void expect_blocked_identical(const MatrixPair& m, unsigned restarts,
                              std::uint64_t seed) {
  const OptForPartParams params{restarts, 64};
  util::Rng ref_rng(seed);
  const auto expected = opt_for_part(m.reference, params, ref_rng);
  const double ref_next = ref_rng.next_double();

  auto& workspace = EvalWorkspace::local();
  for (const bool scalar : {false, true}) {
    const ScopedForceScalar scoped(scalar);
    for (const unsigned block : {0u, 1u, 3u, 5u}) {
      SCOPED_TRACE(testing::Message()
                   << m.reference.rows << "x" << m.reference.cols
                   << " Z=" << restarts << " block=" << block
                   << " scalar=" << scalar);
      workspace.set_opt_restart_block_for_test(block);
      util::Rng ws_rng(seed);
      expect_same_result(workspace.opt_for_part(m.interleaved, params, ws_rng),
                         expected);
      EXPECT_EQ(ws_rng.next_double(), ref_next);
    }
  }
  workspace.set_opt_restart_block_for_test(0);
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

TEST(EvalWorkspace, OptForPartBitIdenticalAcrossBlockSizes) {
  // Each restart's arithmetic is independent of how restarts are grouped
  // into blocks, padded to whole vectors, and tiled: every Z from one
  // partial vector to several tiles, on matrices from one row and two
  // columns up. Odd column counts cover the column-pair tail.
  std::vector<unsigned> restart_counts;
  for (unsigned z = 1; z <= 17; ++z) restart_counts.push_back(z);
  restart_counts.push_back(30);
  restart_counts.push_back(33);
  std::uint64_t seed = 100;
  for (const std::size_t rows : {1u, 2u, 32u}) {
    for (const std::size_t cols : {1u, 2u, 3u, 4u, 8u, 128u}) {
      const MatrixPair m(rows, cols, seed++);
      for (const unsigned z : restart_counts) {
        expect_blocked_identical(m, z, seed++);
      }
    }
  }

  // Cost1 dominates every cell, so every row types AllZero from the first
  // sweep on and the pattern sweep has no participating rows.
  const MatrixPair constant(32, 128, 7, 0.0, 0.1, 1.0, 2.0);
  for (const unsigned z : {1u, 12u, 33u}) {
    const auto result = [&] {
      util::Rng rng(8);
      return opt_for_part(constant.reference, {z, 64}, rng);
    }();
    for (const RowType type : result.types) {
      ASSERT_EQ(type, RowType::kAllZero);
    }
    expect_blocked_identical(constant, z, 8);
  }

  // Stragglers: the active set thins below a quarter of the block (Z = 33
  // restarts, one automatic block) before the last restart converges.
  const MatrixPair wide(32, 128, 9);
  const unsigned restarts = 33;
  const auto rounds = improving_rounds(wide.reference, restarts, 10);
  bool thinned = false;
  for (unsigned i = 1; i <= 64; ++i) {
    const auto active = std::count_if(rounds.begin(), rounds.end(),
                                      [&](unsigned r) { return r >= i; });
    thinned = thinned || (active > 0 && 4 * active < restarts);
  }
  ASSERT_TRUE(thinned);
  expect_blocked_identical(wide, restarts, 10);
}

/// A matrix of dyadic costs, integers in [0, levels) times 2^-12, as
/// build_bit_costs produces them under a uniform distribution, marked
/// exact. Few levels make ties common; every fifth row (from row 1) costs
/// 0 throughout, so all four row types tie there.
MatrixPair dyadic_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed, unsigned levels) {
  MatrixPair m(rows, cols, seed);
  util::Rng rng(seed);
  const double unit = std::ldexp(1.0, -12);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    const bool zero_row = i / cols % 5 == 1;
    for (unsigned v = 0; v < 2; ++v) {
      const double cost =
          zero_row ? 0.0 : unit * static_cast<double>(rng.next_below(levels));
      (v ? m.reference.cost1 : m.reference.cost0)[i] = cost;
      m.interleaved.cells[2 * i + v] = cost;
    }
  }
  m.interleaved.exact = true;
  return m;
}

/// Dyadic cost arrays over 2^n inputs with the exactness certificate.
BitCostArrays dyadic_costs(unsigned n, std::uint64_t seed, unsigned levels) {
  util::Rng rng(seed);
  BitCostArrays costs;
  const double unit = std::ldexp(1.0, -static_cast<int>(n));
  for (std::size_t x = 0; x < (std::size_t{1} << n); ++x) {
    costs.c0.push_back(unit * static_cast<double>(rng.next_below(levels)));
    costs.c1.push_back(unit * static_cast<double>(rng.next_below(levels)));
  }
  costs.exact = true;
  return costs;
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
  // Exact matrices take the incremental path; each must reproduce the
  // reference, and so the full sweeps the same matrix gets with its
  // certificate cleared. Row and column counts cover partial vectors, the
  // 4 x 4 difference blocks' tails and more than one 64-column pattern
  // word.
  std::uint64_t seed = 500;
  for (const std::size_t rows : {1u, 2u, 3u, 5u, 32u}) {
    for (const std::size_t cols : {1u, 2u, 3u, 4u, 5u, 64u, 65u, 130u}) {
      for (const unsigned levels : {3u, 64u}) {
        const MatrixPair exact = dyadic_matrix(rows, cols, seed++, levels);
        MatrixPair cleared = exact;
        cleared.interleaved.exact = false;
        for (const unsigned z : {1u, 12u, 17u, 30u}) {
          expect_blocked_identical(exact, z, seed);
          expect_blocked_identical(cleared, z, seed++);
        }
      }
    }
  }

  // Conditioned slices of an exact full matrix (the ND and multi-shared
  // modes) carry the certificate.
  const unsigned n = 9;
  const BitCostArrays costs = dyadic_costs(n, 17, 5);
  util::Rng part_rng(18);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(n, 5, part_rng);
  const MatrixRef full = workspace.full_matrix(p, costs);
  ASSERT_TRUE(full.get().exact);
  const auto bound = p.bound_inputs();
  const std::uint32_t pair_mask =
      (std::uint32_t{1} << bound[0]) | (std::uint32_t{1} << bound[3]);
  for (const std::uint32_t mask :
       {std::uint32_t{1} << bound[2], pair_mask}) {
    for (std::uint32_t values = 0; values < (mask == pair_mask ? 4u : 2u);
         ++values) {
      const auto& slice = workspace.conditioned(full, p, mask, values);
      ASSERT_TRUE(slice.exact);
      const auto reference =
          CostMatrix::build_conditioned_set(p, mask, values, costs.c0, costs.c1);
      for (const bool scalar : {false, true}) {
        const ScopedForceScalar scoped(scalar);
        for (const unsigned z : {1u, 12u, 30u}) {
          util::Rng ref_rng(z);
          const auto expected = opt_for_part(reference, {z, 64}, ref_rng);
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
  // the certificate; the same arrays without it take the full sweeps. The
  // searches must not tell them apart. (The cleared copy also drops the
  // epoch, so its gathers read the split arrays instead of the interleaved
  // source mirror.)
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
  const auto expected = opt_for_part_bto(CostMatrix::build(p, fx.c0, fx.c1));
  const auto actual =
      workspace.opt_for_part_bto(workspace.full_matrix(p, fx.view()));
  expect_same_result(actual, expected);
}

TEST(EvalWorkspace, EvaluateVtMatchesReference) {
  const CostFixture fx(8, 16);
  util::Rng rng(7);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto reference_matrix = CostMatrix::build(p, fx.c0, fx.c1);
  const auto vt = opt_for_part(reference_matrix, {8, 64}, rng);

  const MatrixRef matrix = workspace.full_matrix(p, fx.view());
  EXPECT_EQ(workspace.evaluate_vt(matrix, vt.pattern, vt.types),
            evaluate_vt(reference_matrix, vt.pattern, vt.types));
}

TEST(EvalWorkspace, EvaluateVtAgreesWithSettingErrorUnderCosts) {
  const CostFixture fx(8, 17);
  util::Rng rng(8);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const auto setting = optimize_normal(p, fx.c0, fx.c1, {8, 64}, rng);

  // Different summation orders (realized 2^n domain vs row-major matrix),
  // so agreement is up to FP reassociation only.
  const double realized = setting_error_under_costs(setting, fx.c0, fx.c1);
  const double gathered = workspace.evaluate_vt(
      workspace.full_matrix(p, fx.view()), setting.pattern, setting.types);
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
  const auto setting = optimize_normal(p, fx.c0, fx.c1, params, rng);
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
  expect_same_nondisjoint(optimize_nondisjoint(p, fx.c0, fx.c1, params, rng),
                          expected);
}

/// Certified cost arrays over 2^n inputs as build_bit_costs produces them
/// under a uniform distribution: losses in [0, levels) times 2^-n, with the
/// exactness certificate and loss_bits. Rows of `p` whose index is 1 mod 5
/// cost 0 throughout, so all four row types tie there; few levels make
/// other ties common. `epoch` 0 leaves the arrays unstamped.
BitCostArrays certified_costs(const Partition& p, std::uint64_t seed,
                              std::uint32_t levels, unsigned loss_bits,
                              bool stamped) {
  util::Rng rng(seed);
  const unsigned n = p.num_inputs();
  const double unit = std::ldexp(1.0, -static_cast<int>(n));
  BitCostArrays costs;
  for (std::size_t x = 0; x < (std::size_t{1} << n); ++x) {
    const bool zero_row =
        util::extract_bits(static_cast<InputWord>(x), p.free_mask()) % 5 == 1;
    costs.c0.push_back(zero_row ? 0.0 : unit * rng.next_below(levels));
    costs.c1.push_back(zero_row ? 0.0 : unit * rng.next_below(levels));
  }
  costs.exact = true;
  costs.loss_bits = loss_bits;
  costs.epoch = stamped ? next_cost_epoch() : 0;
  return costs;
}

TEST(EvalWorkspace, MultiSharedBitIdenticalToLegacyPath) {
  // Raw doubles slice the interleaved matrix; certified costs slice the
  // integer layout. Both kernel sets.
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
    for (const bool scalar : {false, true}) {
      const ScopedForceScalar scoped(scalar);
      util::Rng rng(41);
      const auto actual =
          optimize_for_shared_set(p, shared, costs, params, rng);
      EXPECT_EQ(actual.error, expected.error);
      EXPECT_EQ(actual.patterns, expected.patterns);
      EXPECT_EQ(actual.types, expected.types);
    }
  };
  check(CostView(fx.c0, fx.c1));
  check(certified);
}

TEST(EvalWorkspace, EveryFullMatrixCallGathers) {
  std::vector<CostFixture> fixtures;
  for (std::uint64_t seed = 21; seed < 26; ++seed) {
    fixtures.emplace_back(8, seed);
  }
  util::Rng rng(12);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(8, 4, rng);
  const auto check = [&](const CostFixture& fx, const CostView& view) {
    expect_same_matrix(workspace.full_matrix(p, view),
                       CostMatrix::build(p, fx.c0, fx.c1));
  };

  // The registry mirrors of the gather counters must advance in lock-step
  // with the counters eval_cache_stats() reports.
  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);
  reset_eval_cache();

  // One stamped view, revisited: no matrix is retained, so every call
  // gathers afresh into the thread's scratch.
  const CostView stamped = fixtures[0].stamped();
  for (int i = 0; i < 3; ++i) check(fixtures[0], stamped);
  EXPECT_EQ(eval_cache_stats().gathers, 3u);

  const std::uint32_t shared_mask = p.bound_mask() & (0u - p.bound_mask());
  expect_same_matrix(
      workspace.conditioned(workspace.full_matrix(p, stamped), p,
                            shared_mask, 1),
      CostMatrix::build_conditioned_set(p, shared_mask, 1, fixtures[0].c0,
                                        fixtures[0].c1));

  // Five distinct epochs cycle the thread's four interleaved source slots
  // twice, so every revisit re-mirrors a slot another epoch held.
  std::vector<CostView> views;
  for (const auto& fx : fixtures) views.push_back(fx.stamped());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < fixtures.size(); ++i) {
      check(fixtures[i], views[i]);
    }
  }

  // Arrays edited in place and re-stamped gather their new contents, also
  // when their previous epoch still holds a mirror slot.
  for (int edit = 0; edit < 5; ++edit) {
    auto& fx = fixtures[edit % 2];
    for (double& cost : fx.c0) cost += 1.0;
    for (double& cost : fx.c1) cost *= 0.5;
    check(fx, fx.stamped());
  }

  const auto stats = eval_cache_stats();
  EXPECT_EQ(stats.gathers, 3u + 1u + 10u + 5u);
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

/// The integer path against the reference on one partition's costs: normal
/// OptForPart at several Z, BTO, and the non-disjoint composition over
/// conditioned slices, each with the vector and the forced-scalar kernels
/// and the same RNG stream.
void expect_integer_identical(const Partition& p, const BitCostArrays& costs) {
  ASSERT_TRUE(integer_admitted(p, costs));
  auto& workspace = EvalWorkspace::local();
  const auto reference = CostMatrix::build(p, costs.c0, costs.c1);
  const auto reference_bto = opt_for_part_bto(reference);
  for (const bool scalar : {false, true}) {
    const ScopedForceScalar scoped(scalar);
    for (const unsigned z : {1u, 12u, 30u}) {
      SCOPED_TRACE(testing::Message()
                   << reference.rows << "x" << reference.cols << " Z=" << z
                   << " scalar=" << scalar);
      util::Rng ref_rng(z);
      const auto expected = opt_for_part(reference, {z, 64}, ref_rng);
      util::Rng ws_rng(z);
      const CandidateRef candidate = workspace.prepare(p, costs);
      ASSERT_TRUE(candidate.is_integer());
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
}

TEST(EvalWorkspace, IntegerPathBitIdenticalToReference) {
  // Every shape from 2 x 2 up: rows and columns below one int32 vector,
  // one vector, and several; stamped arrays gather from the loss mirror,
  // unstamped ones convert on the fly.
  std::uint64_t seed = 900;
  util::Rng part_rng(901);
  for (const unsigned n : {2u, 3u, 5u, 7u, 9u, 11u}) {
    for (unsigned bound = 1; bound < n; bound += (n > 5 ? 2 : 1)) {
      const auto p = Partition::random(n, bound, part_rng);
      for (const std::uint32_t levels : {3u, 256u}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " bound=" << bound
                                        << " levels=" << levels);
        expect_integer_identical(
            p, certified_costs(p, seed++, levels, 8, levels == 3));
      }
    }
  }
}

TEST(EvalWorkspace, IntegerAdmissionBoundary) {
  // Losses at 2^loss_bits - 1 (cost0 everywhere, cost1 in three cells of
  // four) put the row sums, s0 + s1 and the balances next to 2^31 on the
  // largest admitted shapes. One more loss bit is the first rejected
  // shape, which takes the double kernels. Both must match the reference;
  // under UBSan an off-by-one in the admission bound overflows.
  struct Case {
    unsigned bound;
    unsigned loss_bits;
    bool admitted;
  };
  const unsigned n = 12;
  for (const Case c : {Case{6, 24, true}, Case{6, 25, false},
                       Case{7, 23, true}, Case{7, 24, false},
                       Case{5, 23, true}, Case{5, 24, false}}) {
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
    EXPECT_EQ(integer_admitted(p, costs), c.admitted);

    auto& workspace = EvalWorkspace::local();
    const auto reference = CostMatrix::build(p, costs.c0, costs.c1);
    for (const bool scalar : {false, true}) {
      const ScopedForceScalar scoped(scalar);
      util::Rng ref_rng(5);
      const auto expected = opt_for_part(reference, {6, 64}, ref_rng);
      util::Rng ws_rng(5);
      const CandidateRef candidate = workspace.prepare(p, costs);
      EXPECT_EQ(candidate.is_integer(), c.admitted);
      expect_same_result(workspace.opt_for_part(candidate, {6, 64}, ws_rng),
                         expected);
      expect_same_result(workspace.opt_for_part_bto(candidate),
                         opt_for_part_bto(reference));
    }
  }
}

TEST(EvalWorkspace, BssaAndDaltaIdenticalWithoutCertificate) {
  // Equal weights give every input p = 2^-n, as the uniform distribution
  // does, but a weight table carries no certificate: its searches take the
  // uncertified full sweeps. Uniform searches run on the integer layout
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

TEST(EvalWorkspace, OptForPartWorkCounters) {
  // One fixed matrix through all three OptForPart paths. Each restart runs
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
  rng = util::Rng(seed);
  workspace.opt_for_part(workspace.full_matrix(p, costs), params, rng);
  rng = util::Rng(seed);
  workspace.opt_for_part(workspace.full_matrix(p, CostView(costs.c0, costs.c1)),
                         params, rng);
  EXPECT_EQ(counters(), (std::array<std::uint64_t, 4>{3, 3 * restarts,
                                                      3 * alternations, 1}));
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
