// Bit-identity of the SIMD kernels against their scalar reference paths.
//
// util::simd::set_force_scalar flips every vectorized kernel to its scalar
// loop at runtime, so each test runs the same computation twice on one
// binary and requires exact (==, not near) equality. On a scalar-only build
// (-DDALUT_SIMD=OFF or a non-SIMD target) both runs take the scalar path
// and the tests degenerate to determinism checks — still meaningful, never
// skipped. Widths span 8..20 so the gather hits every low-bound-bits block
// case and the sweeps hit columns both above and below one vector width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/bit_cost.hpp"
#include "core/eval_workspace.hpp"
#include "core/evaluate.hpp"
#include "core/input_distribution.hpp"
#include "core/multi_output_function.hpp"
#include "core/opt_for_part.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {
namespace {

namespace simd = util::simd;

/// Forces the scalar paths for one scope and always restores SIMD after,
/// even when an assertion throws out of the scope.
struct ScopedForceScalar {
  explicit ScopedForceScalar(bool on) { simd::set_force_scalar(on); }
  ~ScopedForceScalar() { simd::set_force_scalar(false); }
};

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

/// Owned copy of a prepared candidate (the CandidateRef target is scratch
/// that the next prepare() call overwrites): the reference matrix, or the
/// integer layout widened to int64.
struct CandidateSnapshot {
  CandidateRoute route;
  std::vector<double> cost0, cost1;
  std::vector<std::int64_t> diff_rows, diff_cols, sums0, sums1;

  explicit CandidateSnapshot(const CandidateRef& c) : route(c.route()) {
    if (const CostMatrix* m = c.reference()) {
      cost0 = m->cost0;
      cost1 = m->cost1;
    } else if (const auto* m32 = c.integer<std::int32_t>()) {
      copy(*m32);
    } else {
      copy(*c.integer<std::int64_t>());
    }
  }

  template <class T>
  void copy(const IntegerCostMatrix<T>& m) {
    diff_rows.assign(m.diff_rows.begin(), m.diff_rows.end());
    diff_cols.assign(m.diff_cols.begin(), m.diff_cols.end());
    sums0.assign(m.sums0.begin(), m.sums0.end());
    sums1.assign(m.sums1.begin(), m.sums1.end());
  }

  bool operator==(const CandidateSnapshot& o) const {
    return route == o.route && cost0 == o.cost0 && cost1 == o.cost1 &&
           diff_rows == o.diff_rows && diff_cols == o.diff_cols &&
           sums0 == o.sums0 && sums1 == o.sums1;
  }
};

MultiOutputFunction random_function(unsigned n, unsigned m, util::Rng& rng) {
  return MultiOutputFunction::from_eval(n, m, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(1u << m));
  });
}

/// Cost arrays as build_bit_costs produces them under a uniform
/// distribution: 8-bit integer losses times 2^-n, with the exactness
/// certificate for `loss_bits`-bit losses. 8 keeps every candidate of
/// n <= 22 on int32 lanes; 30 puts every one on int64 lanes.
BitCostArrays certified_costs(unsigned n, std::uint64_t seed,
                              unsigned loss_bits) {
  util::Rng rng(seed);
  const double unit = std::ldexp(1.0, -static_cast<int>(n));
  BitCostArrays costs;
  for (std::size_t x = 0; x < (std::size_t{1} << n); ++x) {
    costs.c0.push_back(unit * static_cast<double>(rng.next_below(256)));
    costs.c1.push_back(unit * static_cast<double>(rng.next_below(256)));
  }
  costs.exact = true;
  costs.loss_bits = loss_bits;
  costs.epoch = next_cost_epoch();
  return costs;
}

// Every width 8..20: odd widths and small bounds exercise every
// low-bound-bits block case (0..3) of the gather walk, and the integer
// layout's transpose on shapes below, at and above one lane vector.
TEST(SimdIdentity, CostMatrixGatherMatchesScalar) {
  auto& workspace = EvalWorkspace::local();
  util::Rng part_rng(41);
  for (unsigned n = 8; n <= 20; ++n) {
    const CostFixture fx(n, 100 + n);
    const BitCostArrays int32_costs = certified_costs(n, 150 + n, 8);
    const BitCostArrays int64_costs = certified_costs(n, 170 + n, 30);
    for (const unsigned bound : {2u, 3u, 5u, 6u}) {
      const auto p = Partition::random(n, bound, part_rng);
      // Raw views (unstamped and stamped) take the reference route; the
      // certified arrays the integer layout of either element type.
      const std::vector<CostView> views = {fx.view(), fx.stamped(),
                                           int32_costs, int64_costs};
      for (std::size_t v = 0; v < views.size(); ++v) {
        std::optional<CandidateSnapshot> scalar;
        {
          ScopedForceScalar scoped(true);
          scalar.emplace(workspace.prepare(p, views[v]));
        }
        const CandidateSnapshot vec(workspace.prepare(p, views[v]));
        EXPECT_TRUE(vec == *scalar)
            << "n=" << n << " bound=" << bound << " view=" << v;
      }
    }
  }
}

// The full per-partition optimizer on both integer element types, driven
// by identical RNG streams; BTO on every route.
TEST(SimdIdentity, OptForPartMatchesScalar) {
  auto& workspace = EvalWorkspace::local();
  util::Rng part_rng(43);
  for (const unsigned n : {8u, 11u, 13u, 14u}) {
    const CostFixture fx(n, 200 + n);
    const BitCostArrays int32_costs = certified_costs(n, 300 + n, 8);
    const BitCostArrays int64_costs = certified_costs(n, 400 + n, 30);
    for (const unsigned bound : {3u, 4u, 6u}) {
      const auto p = Partition::random(n, bound, part_rng);
      const OptForPartParams params{9, 64};

      for (const BitCostArrays* costs : {&int32_costs, &int64_costs}) {
        const auto run = [&] {
          util::Rng rng(7);
          return workspace.opt_for_part(workspace.prepare(p, *costs), params,
                                        rng);
        };
        VtResult expected;
        {
          ScopedForceScalar scoped(true);
          expected = run();
        }
        const VtResult actual = run();
        EXPECT_EQ(actual.error, expected.error)
            << "n=" << n << " b=" << bound << " loss_bits=" << costs->loss_bits;
        EXPECT_EQ(actual.pattern, expected.pattern);
        EXPECT_EQ(actual.types, expected.types);
      }

      for (const CostView& costs :
           {fx.view(), CostView(int32_costs), CostView(int64_costs)}) {
        VtResult expected_bto;
        {
          ScopedForceScalar scoped(true);
          expected_bto =
              workspace.opt_for_part_bto(workspace.prepare(p, costs));
        }
        const VtResult actual_bto =
            workspace.opt_for_part_bto(workspace.prepare(p, costs));
        EXPECT_EQ(actual_bto.error, expected_bto.error);
        EXPECT_EQ(actual_bto.pattern, expected_bto.pattern);
        EXPECT_EQ(actual_bto.types, expected_bto.types);
      }
    }
  }
}

TEST(SimdIdentity, BitCostsMatchScalarForAllModelsAndMetrics) {
  util::Rng rng(5);
  util::ThreadPool pool(8);
  for (const unsigned n : {8u, 11u, 14u, 16u}) {  // 16 crosses the pool gate
    const unsigned m = n < 12 ? n : 12;
    const auto g = random_function(n, m, rng);
    auto approx = g.copy_values();
    for (auto& v : approx) v ^= static_cast<OutputWord>(rng.next_below(1u << m));

    std::vector<double> weights(g.domain_size());
    for (auto& w : weights) w = rng.next_double() + 1e-3;
    const InputDistribution dists[] = {
        InputDistribution::uniform(n),
        InputDistribution::from_weights(n, weights)};

    for (const auto& dist : dists) {
      for (const auto model : {LsbModel::kCurrentApprox, LsbModel::kAccurateFill,
                               LsbModel::kPredictive}) {
        for (const auto metric :
             {CostMetric::kMed, CostMetric::kMse, CostMetric::kErrorRate}) {
          const unsigned k = m / 2;
          BitCostArrays expected;
          {
            ScopedForceScalar scoped(true);
            expected = build_bit_costs(g, approx, k, model, dist, metric);
          }
          const auto serial =
              build_bit_costs(g, approx, k, model, dist, metric);
          const auto pooled =
              build_bit_costs(g, approx, k, model, dist, metric, &pool);
          EXPECT_EQ(serial.c0, expected.c0)
              << "n=" << n << " model=" << static_cast<int>(model)
              << " metric=" << static_cast<int>(metric);
          EXPECT_EQ(serial.c1, expected.c1);
          EXPECT_EQ(pooled.c0, expected.c0);
          EXPECT_EQ(pooled.c1, expected.c1);
        }
      }
    }
  }
}

TEST(SimdIdentity, MeanErrorDistanceMatchesScalar) {
  util::Rng rng(6);
  util::ThreadPool pool(8);
  // 16 and 17 are above the parallel-chunking threshold; 10 stays on the
  // small-domain loop whose tail is shorter than one chunk.
  for (const unsigned n : {10u, 16u, 17u}) {
    const unsigned m = 10;
    const auto g = random_function(n, m, rng);
    auto approx = g.copy_values();
    for (auto& v : approx) v ^= static_cast<OutputWord>(rng.next_below(1u << m));

    std::vector<double> weights(g.domain_size());
    for (auto& w : weights) w = rng.next_double() + 1e-3;
    const InputDistribution dists[] = {
        InputDistribution::uniform(n),
        InputDistribution::from_weights(n, weights)};

    for (const auto& dist : dists) {
      double expected_serial = 0.0;
      double expected_pooled = 0.0;
      {
        ScopedForceScalar scoped(true);
        expected_serial = mean_error_distance(g, approx, dist);
        expected_pooled = mean_error_distance(g, approx, dist, &pool);
      }
      const double serial = mean_error_distance(g, approx, dist);
      const double pooled = mean_error_distance(g, approx, dist, &pool);
      EXPECT_EQ(serial, expected_serial) << "n=" << n;
      EXPECT_EQ(pooled, expected_serial) << "n=" << n;
      EXPECT_EQ(expected_pooled, expected_serial) << "n=" << n;
      EXPECT_EQ(pooled, serial) << "n=" << n;
    }
  }
}

// The full-register int32 lanes of the integer OptForPart path and the
// serve read kernels, against plain loops over the same values on whichever
// backend this build compiled (AVX2, SSE2, NEON or the one-lane scalar
// struct).
TEST(SimdIdentity, Int32LanesMatchScalarLoops) {
  constexpr unsigned W = simd::kLanes32;
  util::Rng rng(8);
  const auto draw = [&] {
    return static_cast<std::int32_t>(rng.next_below(1u << 24)) - (1 << 23);
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::int32_t a[W], b[W];
    for (unsigned l = 0; l < W; ++l) {
      a[l] = draw();
      b[l] = trial % 5 == 0 ? a[l] : draw();
    }
    const simd::Vec32 va = simd::i32load(a);
    const simd::Vec32 vb = simd::i32load(b);
    std::int32_t out[W];
    simd::i32store(out, simd::i32add(va, vb));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], a[l] + b[l]);
    simd::i32store(out, simd::i32sub(va, vb));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], a[l] - b[l]);
    const simd::Vec32 greater = simd::i32cmpgt(va, vb);
    unsigned bits = 0;
    for (unsigned l = 0; l < W; ++l) bits |= unsigned{a[l] > b[l]} << l;
    EXPECT_EQ(simd::i32movemask(greater), bits);
    simd::i32store(out, simd::i32select(greater, va, vb));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], std::max(a[l], b[l]));

    simd::Acc64 acc;
    std::int64_t sum = 0;
    for (int k = 0; k < 300; ++k) {
      simd::acc_add(acc, va);
      for (unsigned l = 0; l < W; ++l) sum += a[l];
    }
    EXPECT_EQ(simd::acc_sum(acc), sum);

    std::int32_t codes[W];
    std::uint8_t bytes[W];
    for (unsigned l = 0; l < W; ++l) codes[l] = a[l] & 0xff;
    simd::i32store_bytes(bytes, simd::i32load(codes));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(bytes[l], codes[l]);

    const auto u32 = [](std::int32_t v) {
      return static_cast<std::uint32_t>(v);
    };
    simd::i32store(out, simd::i32and(va, vb));
    for (unsigned l = 0; l < W; ++l) {
      EXPECT_EQ(u32(out[l]), u32(a[l]) & u32(b[l]));
    }
    const unsigned count = static_cast<unsigned>(trial) % 32;
    simd::i32store(out, simd::i32srl(va, count));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(u32(out[l]), u32(a[l]) >> count);
    simd::i32store(out, simd::i32sll(va, count));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(u32(out[l]), u32(a[l]) << count);
  }

  // Gather of 4-byte elements, the last one included.
  std::uint32_t words[256];
  for (unsigned i = 0; i < 256; ++i) {
    words[i] = static_cast<std::uint32_t>(rng.next_below(1u << 31)) * 2u + 1;
  }
  for (int trial = 0; trial < 50; ++trial) {
    std::int32_t idx[W];
    for (unsigned l = 0; l < W; ++l) {
      idx[l] = trial == 0 ? 255
                          : static_cast<std::int32_t>(rng.next_below(256));
    }
    std::int32_t out[W];
    simd::i32store(out, simd::i32gather(words, simd::i32load(idx)));
    for (unsigned l = 0; l < W; ++l) {
      EXPECT_EQ(static_cast<std::uint32_t>(out[l]), words[idx[l]]);
    }
  }

  std::int32_t block[W][W];
  simd::Vec32 rows[W];
  for (unsigned i = 0; i < W; ++i) {
    for (unsigned j = 0; j < W; ++j) block[i][j] = draw();
    rows[i] = simd::i32load(block[i]);
  }
  simd::i32transpose(rows);
  for (unsigned j = 0; j < W; ++j) {
    std::int32_t column[W];
    simd::i32store(column, rows[j]);
    for (unsigned i = 0; i < W; ++i) EXPECT_EQ(column[i], block[i][j]);
  }

  std::uint8_t x[64], y[64];
  for (unsigned i = 0; i < 64; ++i) {
    x[i] = static_cast<std::uint8_t>(rng.next_below(5));
    y[i] = rng.next_below(3) == 0 ? static_cast<std::uint8_t>(rng.next_below(5))
                                  : x[i];
  }
  std::uint64_t equal = 0;
  std::uint64_t threes = 0;
  for (unsigned i = 0; i < 64; ++i) {
    equal |= std::uint64_t{x[i] == y[i]} << i;
    threes |= std::uint64_t{x[i] == 3} << i;
  }
  EXPECT_EQ(simd::bytes_eq64(x, y), equal);
  EXPECT_EQ(simd::bytes_eq64(x, std::uint8_t{3}), threes);
}

// The full-register int64 lanes of the integer OptForPart kernels past the
// int32 bound, against plain loops. The compare draws pairs that tie in
// their high or low 32 bits and values of both signs, which the SSE2
// emulation of the 64-bit compare treats separately.
TEST(SimdIdentity, Int64LanesMatchScalarLoops) {
  constexpr unsigned W = simd::kLanes64;
  util::Rng rng(9);
  const auto draw = [&] {
    return static_cast<std::int64_t>(rng.next_below(std::uint64_t{1} << 52)) -
           (std::int64_t{1} << 51);
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t a[W], b[W];
    for (unsigned l = 0; l < W; ++l) {
      a[l] = draw();
      switch (trial % 5) {
        case 0:  // equal
          b[l] = a[l];
          break;
        case 1:  // same high half, low halves differ (either sign bit)
          b[l] = (a[l] & ~std::int64_t{0xffffffff}) |
                 static_cast<std::int64_t>(rng.next_below(1ull << 32));
          break;
        case 2:  // same low half
          b[l] = (draw() & ~std::int64_t{0xffffffff}) |
                 (a[l] & std::int64_t{0xffffffff});
          break;
        case 3:  // opposite signs
          b[l] = -a[l];
          break;
        default:
          b[l] = draw();
      }
    }
    const simd::Vec64 va = simd::i64load(a);
    const simd::Vec64 vb = simd::i64load(b);
    std::int64_t out[W];
    simd::i64store(out, simd::i64add(va, vb));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], a[l] + b[l]);
    simd::i64store(out, simd::i64sub(va, vb));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], a[l] - b[l]);
    const simd::Vec64 greater = simd::i64cmpgt(va, vb);
    unsigned bits = 0;
    for (unsigned l = 0; l < W; ++l) bits |= unsigned{a[l] > b[l]} << l;
    EXPECT_EQ(simd::i64movemask(greater), bits) << "trial " << trial;
    simd::i64store(out, greater);
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], a[l] > b[l] ? -1 : 0);
    simd::i64store(out, simd::i64select(greater, va, vb));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], std::max(a[l], b[l]));
    simd::i64store(out, simd::i64broadcast(a[0]));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], a[0]);
    simd::i64store(out, simd::i64zero());
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], 0);

    std::int64_t codes[W];
    std::uint8_t bytes[W];
    for (unsigned l = 0; l < W; ++l) codes[l] = a[l] & 0xff;
    simd::i64store_bytes(bytes, simd::i64load(codes));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(bytes[l], codes[l]);
  }

  std::int64_t block[W][W];
  simd::Vec64 rows[W];
  for (unsigned i = 0; i < W; ++i) {
    for (unsigned j = 0; j < W; ++j) block[i][j] = draw();
    rows[i] = simd::i64load(block[i]);
  }
  simd::i64transpose(rows);
  for (unsigned j = 0; j < W; ++j) {
    std::int64_t column[W];
    simd::i64store(column, rows[j]);
    for (unsigned i = 0; i < W; ++i) EXPECT_EQ(column[i], block[i][j]);
  }
}

}  // namespace
}  // namespace dalut::core
