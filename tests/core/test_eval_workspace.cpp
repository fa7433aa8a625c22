// Equivalence tests for the EvalWorkspace evaluation engine: every kernel
// must reproduce the reference CostMatrix / opt_for_part path bit-for-bit,
// and the gather memo must serve revisited partitions without re-gathering.
#include "core/eval_workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/algorithm_common.hpp"
#include "core/bssa.hpp"
#include "core/multi_shared.hpp"
#include "core/partition_opt.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

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
    // Stamped view: interleaved source + memo path.
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

TEST(EvalWorkspace, OptimizeNondisjointBitIdenticalToLegacyPath) {
  const CostFixture fx(8, 19);
  util::Rng part_rng(10);
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const OptForPartParams params{6, 64};

  // Replicate the pre-engine implementation: per shared bit, two
  // conditioned builds then two reference optimizations in order.
  Setting expected;
  util::Rng ref_rng(31);
  for (const unsigned shared : p.bound_inputs()) {
    const auto m0 =
        CostMatrix::build_conditioned(p, shared, false, fx.c0, fx.c1);
    const auto m1 =
        CostMatrix::build_conditioned(p, shared, true, fx.c0, fx.c1);
    auto vt0 = opt_for_part(m0, params, ref_rng);
    auto vt1 = opt_for_part(m1, params, ref_rng);
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

  util::Rng rng(31);
  const auto actual = optimize_nondisjoint(p, fx.c0, fx.c1, params, rng);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.shared_bit, expected.shared_bit);
  EXPECT_EQ(actual.pattern0, expected.pattern0);
  EXPECT_EQ(actual.types0, expected.types0);
  EXPECT_EQ(actual.pattern1, expected.pattern1);
  EXPECT_EQ(actual.types1, expected.types1);
}

TEST(EvalWorkspace, MultiSharedBitIdenticalToLegacyPath) {
  const CostFixture fx(8, 20);
  util::Rng part_rng(11);
  const auto p = Partition::random(fx.num_inputs, 4, part_rng);
  const OptForPartParams params{5, 64};
  const auto bound = p.bound_inputs();
  const std::vector<unsigned> shared{bound[1], bound[3]};
  const std::uint32_t mask =
      (std::uint32_t{1} << shared[0]) | (std::uint32_t{1} << shared[1]);

  MultiSharedSetting expected;
  expected.error = 0.0;
  util::Rng ref_rng(41);
  for (std::uint32_t j = 0; j < 4; ++j) {
    const auto matrix =
        CostMatrix::build_conditioned_set(p, mask, j, fx.c0, fx.c1);
    auto vt = opt_for_part(matrix, params, ref_rng);
    expected.error += vt.error;
    expected.patterns.push_back(std::move(vt.pattern));
    expected.types.push_back(std::move(vt.types));
  }

  util::Rng rng(41);
  const auto actual = optimize_for_shared_set(p, shared, fx.c0, fx.c1,
                                              params, rng);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.patterns, expected.patterns);
  EXPECT_EQ(actual.types, expected.types);
}

TEST(EvalWorkspaceCache, RevisitedPartitionSkipsTheGather) {
  const CostFixture fx(8, 21);
  util::Rng rng(12);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const CostView stamped = fx.stamped();

  // The registry mirrors of the memo counters must advance in lock-step
  // with the MemoStats the cache itself reports.
  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);

  // Two-touch admission: the first sighting stays in thread-local scratch,
  // the second publishes the gather, and every later access is a hit that
  // skips the gather entirely.
  reset_eval_cache();
  const auto m1 = workspace.full_matrix(p, stamped);
  const auto after_first = eval_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.gathers, 1u);
  EXPECT_EQ(after_first.entries, 0u);

  const auto m2 = workspace.full_matrix(p, stamped);
  const auto after_second = eval_cache_stats();
  EXPECT_EQ(after_second.misses, 2u);
  EXPECT_EQ(after_second.gathers, 2u);
  EXPECT_EQ(after_second.entries, 1u);

  // Same epoch + same bound mask: memo hit, no new gather.
  const auto m3 = workspace.full_matrix(p, stamped);
  const auto m4 = workspace.full_matrix(p, stamped);
  const auto after_hits = eval_cache_stats();
  EXPECT_EQ(after_hits.hits, 2u);
  EXPECT_EQ(after_hits.gathers, 2u);
  EXPECT_EQ(&m2.get(), &m3.get());
  EXPECT_EQ(&m3.get(), &m4.get());
  expect_same_matrix(m1, CostMatrix::build(p, fx.c0, fx.c1));
  expect_same_matrix(m3, CostMatrix::build(p, fx.c0, fx.c1));

  // A fresh epoch over the same arrays must not be served from the memo.
  const auto m5 = workspace.full_matrix(p, fx.stamped());
  const auto after_fresh = eval_cache_stats();
  EXPECT_EQ(after_fresh.hits, 2u);
  EXPECT_EQ(after_fresh.misses, 3u);
  EXPECT_EQ(after_fresh.gathers, 3u);
  expect_same_matrix(m5, CostMatrix::build(p, fx.c0, fx.c1));

  // Registry counters saw the same stream (reset_eval_cache zeroes only the
  // MemoStats atomics; the registry was reset at the top of the test).
  const auto snap = util::telemetry::snapshot_metrics();
  EXPECT_EQ(snap.counter_value("evalcache.hits"), 2u);
  EXPECT_EQ(snap.counter_value("evalcache.misses"), 3u);
  EXPECT_EQ(snap.counter_value("evalcache.gathers"), 3u);
  EXPECT_EQ(snap.counter_value("evalcache.evictions"), 0u);
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::reset_metrics_for_test();
  reset_eval_cache();
}

TEST(EvalWorkspaceCache, PendingSetOverflowEvictsABoundedBatch) {
  // Overflow the two-touch pending set: every distinct epoch creates a new
  // (epoch, mask) key that is seen once and never promoted. One insert past
  // kMaxSeen (1 << 17) evicts exactly one bounded batch of 64 pending keys.
  const CostFixture fx(4, 23);  // 16-entry domain keeps each gather trivial
  util::Rng rng(14);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 2, rng);

  util::telemetry::reset_metrics_for_test();
  util::telemetry::set_metrics_enabled(true);
  reset_eval_cache();

  constexpr std::size_t kMaxSeen = std::size_t{1} << 17;
  for (std::size_t i = 0; i < kMaxSeen + 1; ++i) {
    (void)workspace.full_matrix(p, fx.stamped());
  }
  const auto stats = eval_cache_stats();
  EXPECT_EQ(stats.pending_evictions, 64u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, kMaxSeen + 1);
  EXPECT_EQ(stats.entries, 0u);  // nothing was ever sighted twice
  EXPECT_EQ(util::telemetry::snapshot_metrics().counter_value(
                "evalcache.pending_evictions"),
            64u);

  util::telemetry::set_metrics_enabled(false);
  util::telemetry::reset_metrics_for_test();
  reset_eval_cache();
}

TEST(EvalWorkspaceCache, EntriesLiveExactlyAsLongAsTheirCostArrays) {
  const unsigned n = 8;
  std::vector<OutputWord> values(std::size_t{1} << n);
  for (std::size_t x = 0; x < values.size(); ++x) {
    values[x] = static_cast<OutputWord>((x * 37 + 11) & 0xffu);
  }
  const MultiOutputFunction g(n, n, values);
  const std::vector<OutputWord> approx(values.size(), 0);
  const auto dist = InputDistribution::uniform(n);
  util::Rng rng(15);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(n, 4, rng);
  auto q = Partition::random(n, 4, rng);
  while (q == p) q = Partition::random(n, 4, rng);

  reset_eval_cache();
  auto costs = std::make_unique<BitCostArrays>(
      build_bit_costs(g, approx, n - 1, LsbModel::kCurrentApprox, dist));
  (void)workspace.full_matrix(p, *costs);
  (void)workspace.full_matrix(p, *costs);  // second sighting: published
  (void)workspace.full_matrix(q, *costs);  // first sighting: pending
  const auto published = eval_cache_stats();
  EXPECT_EQ(published.entries, 1u);
  EXPECT_EQ(published.pending, 1u);
  EXPECT_GT(published.bytes, 0u);

  {
    // A surviving copy shares the lease: the entry still serves hits.
    const BitCostArrays copy = *costs;
    costs.reset();
    const auto kept = eval_cache_stats();
    EXPECT_EQ(kept.entries, 1u);
    EXPECT_EQ(kept.pending, 1u);
    EXPECT_EQ(kept.bytes, published.bytes);
    const auto hit = workspace.full_matrix(p, copy);
    EXPECT_EQ(eval_cache_stats().hits, published.hits + 1);
    expect_same_matrix(hit, CostMatrix::build(p, copy.c0, copy.c1));
  }

  // The last copy is gone: its epoch can never be looked up again.
  const auto released = eval_cache_stats();
  EXPECT_EQ(released.entries, 0u);
  EXPECT_EQ(released.pending, 0u);
  EXPECT_EQ(released.bytes, 0u);
  reset_eval_cache();
}

TEST(EvalWorkspaceCache, SearchLeavesNoEntriesBehind) {
  const unsigned n = 10;
  std::vector<OutputWord> values(std::size_t{1} << n);
  for (std::size_t x = 0; x < values.size(); ++x) {
    values[x] = static_cast<OutputWord>((x * x) >> 10);
  }
  const MultiOutputFunction g(n, n, values);
  BssaParams params;
  params.bound_size = 5;
  params.rounds = 2;
  params.beam_width = 2;
  params.modes = ModePolicy::bto_normal_nd();
  params.sa.partition_limit = 12;
  params.sa.init_patterns = 4;
  params.seed = 7;

  reset_eval_cache();
  (void)run_bssa(g, InputDistribution::uniform(n), params);
  // Every cost array the search built died with it, and so did the memo
  // entries and pending keys keyed by their epochs.
  const auto stats = eval_cache_stats();
  EXPECT_GT(stats.hits, 0u);  // entries were published along the way
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  reset_eval_cache();
}

TEST(EvalWorkspaceCache, ZeroCapacityDisablesTheMemo) {
  const CostFixture fx(8, 22);
  util::Rng rng(13);
  auto& workspace = EvalWorkspace::local();
  const auto p = Partition::random(fx.num_inputs, 4, rng);
  const CostView stamped = fx.stamped();

  reset_eval_cache();
  set_eval_cache_capacity(0);
  (void)workspace.full_matrix(p, stamped);
  (void)workspace.full_matrix(p, stamped);
  const auto stats = eval_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.gathers, 2u);

  set_eval_cache_capacity(std::size_t{64} << 20);
  reset_eval_cache();
}

}  // namespace
}  // namespace dalut::core
