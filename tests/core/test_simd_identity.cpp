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

/// Owned copy of a workspace matrix (the MatrixRef target is scratch that
/// the next full_matrix call overwrites).
struct MatrixSnapshot {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> v0;
  std::vector<double> v1;

  explicit MatrixSnapshot(const InterleavedCostMatrix& m)
      : rows(m.rows), cols(m.cols) {
    v0.reserve(rows * cols);
    v1.reserve(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        v0.push_back(m.at0(r, c));
        v1.push_back(m.at1(r, c));
      }
    }
  }

  bool operator==(const MatrixSnapshot& o) const {
    return rows == o.rows && cols == o.cols && v0 == o.v0 && v1 == o.v1;
  }
};

MultiOutputFunction random_function(unsigned n, unsigned m, util::Rng& rng) {
  return MultiOutputFunction::from_eval(n, m, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(1u << m));
  });
}

// Every width 8..20: odd widths and small bounds exercise the gather's
// non-lane-multiple block tails (low-bound-bits cases 0..3) and sweep rows
// narrower than one vector.
TEST(SimdIdentity, CostMatrixGatherMatchesScalar) {
  auto& workspace = EvalWorkspace::local();
  util::Rng part_rng(41);
  for (unsigned n = 8; n <= 20; ++n) {
    const CostFixture fx(n, 100 + n);
    for (const unsigned bound : {2u, 3u, 5u, 6u}) {
      const auto p = Partition::random(n, bound, part_rng);

      std::vector<MatrixSnapshot> scalar;
      {
        ScopedForceScalar scoped(true);
        // Unstamped view: split-array gather. Stamped: interleaved-source
        // gather (fresh epoch per call, so each call mirrors the arrays).
        scalar.emplace_back(workspace.full_matrix(p, fx.view()));
        scalar.emplace_back(workspace.full_matrix(p, fx.stamped()));
      }
      const MatrixSnapshot vec_plain(workspace.full_matrix(p, fx.view()));
      const MatrixSnapshot vec_stamped(workspace.full_matrix(p, fx.stamped()));

      EXPECT_TRUE(vec_plain == scalar[0]) << "n=" << n << " bound=" << bound;
      EXPECT_TRUE(vec_stamped == scalar[1]) << "n=" << n << " bound=" << bound;
    }
  }
}

/// Cost arrays as build_bit_costs produces them under a uniform
/// distribution: 8-bit integer losses times 2^-n, with the exactness
/// certificate.
BitCostArrays certified_costs(unsigned n, std::uint64_t seed) {
  util::Rng rng(seed);
  const double unit = std::ldexp(1.0, -static_cast<int>(n));
  BitCostArrays costs;
  for (std::size_t x = 0; x < (std::size_t{1} << n); ++x) {
    costs.c0.push_back(unit * static_cast<double>(rng.next_below(256)));
    costs.c1.push_back(unit * static_cast<double>(rng.next_below(256)));
  }
  costs.exact = true;
  costs.loss_bits = 8;
  costs.epoch = next_cost_epoch();
  return costs;
}

// The full per-partition optimizer on both exact routes, the interleaved
// double matrix (full_matrix) and the integer layout (prepare), driven by
// identical RNG streams; BTO's column-pair sums on raw doubles.
TEST(SimdIdentity, OptForPartMatchesScalar) {
  auto& workspace = EvalWorkspace::local();
  util::Rng part_rng(43);
  for (const unsigned n : {8u, 11u, 13u, 14u}) {
    const CostFixture fx(n, 200 + n);
    const BitCostArrays costs = certified_costs(n, 300 + n);
    for (const unsigned bound : {3u, 4u, 6u}) {
      const auto p = Partition::random(n, bound, part_rng);
      const OptForPartParams params{9, 64};

      for (const bool integer : {false, true}) {
        const auto run = [&] {
          util::Rng rng(7);
          return integer
                     ? workspace.opt_for_part(workspace.prepare(p, costs),
                                              params, rng)
                     : workspace.opt_for_part(workspace.full_matrix(p, costs),
                                              params, rng);
        };
        VtResult expected;
        {
          ScopedForceScalar scoped(true);
          expected = run();
        }
        const VtResult actual = run();
        EXPECT_EQ(actual.error, expected.error)
            << "n=" << n << " b=" << bound << " integer=" << integer;
        EXPECT_EQ(actual.pattern, expected.pattern);
        EXPECT_EQ(actual.types, expected.types);
      }

      VtResult expected_bto;
      {
        ScopedForceScalar scoped(true);
        expected_bto =
            workspace.opt_for_part_bto(workspace.full_matrix(p, fx.view()));
      }
      const VtResult actual_bto =
          workspace.opt_for_part_bto(workspace.full_matrix(p, fx.view()));
      EXPECT_EQ(actual_bto.error, expected_bto.error);
      EXPECT_EQ(actual_bto.pattern, expected_bto.pattern);
      EXPECT_EQ(actual_bto.types, expected_bto.types);
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
    simd::i32store(out, simd::i32or(va, vb));
    for (unsigned l = 0; l < W; ++l) {
      EXPECT_EQ(u32(out[l]), u32(a[l]) | u32(b[l]));
    }
    const unsigned count = static_cast<unsigned>(trial) % 32;
    simd::i32store(out, simd::i32srl(va, count));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(u32(out[l]), u32(a[l]) >> count);
    simd::i32store(out, simd::i32sll(va, count));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(u32(out[l]), u32(a[l]) << count);
  }

  // Gathers: 4-byte elements, and bytes (whose 4-byte AVX2 load needs the
  // 3 bytes after the last indexed one).
  std::uint32_t words[256];
  std::uint8_t table[256 + 3] = {};
  for (unsigned i = 0; i < 256; ++i) {
    words[i] = static_cast<std::uint32_t>(rng.next_below(1u << 31)) * 2u + 1;
    table[i] = static_cast<std::uint8_t>(rng.next_below(256));
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
    simd::i32store(out, simd::i32gather_bytes(table, simd::i32load(idx)));
    for (unsigned l = 0; l < W; ++l) EXPECT_EQ(out[l], table[idx[l]]);
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

}  // namespace
}  // namespace dalut::core
