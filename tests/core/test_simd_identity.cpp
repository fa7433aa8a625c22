// Bit-identity of the SIMD kernels against independent reference oracles.
//
// The backend is fixed when the library is built (util/simd.hpp), so each
// build checks the kernels it compiled: AVX2 on a default x86-64 build, and
// SSE2 or the scalar loops on the builds that select them
// (-DDALUT_HOST_HAS_AVX2=OFF, -DDALUT_SIMD=OFF). The oracles are the
// reference CostMatrix builders and OptForPart, a per-input cost formula
// kept in this file, and error_report's scalar loop; every comparison is
// exact (==, not near). Widths span 8..20 so the gather hits every
// low-bound-bits block case and the sweeps hit columns both above and
// below one vector width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/bit_cost.hpp"
#include "core/eval_workspace.hpp"
#include "core/evaluate.hpp"
#include "core/input_distribution.hpp"
#include "core/multi_output_function.hpp"
#include "core/opt_for_part.hpp"
#include "reference_checks.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {
namespace {

namespace simd = util::simd;
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
      SCOPED_TRACE(testing::Message() << "n=" << n << " bound=" << bound);
      const auto p = Partition::random(n, bound, part_rng);
      // Raw views (unstamped and stamped) take the reference route; the
      // certified arrays the integer layout of either element type.
      const auto reference = CostMatrix::build(p, fx.c0, fx.c1);
      expect_same_matrix(workspace.prepare(p, fx.view()), reference);
      expect_same_matrix(workspace.prepare(p, fx.stamped()), reference);
      for (const BitCostArrays* costs : {&int32_costs, &int64_costs}) {
        const CandidateRef candidate = workspace.prepare(p, *costs);
        EXPECT_EQ(candidate.route(), costs == &int32_costs
                                         ? CandidateRoute::kInt32
                                         : CandidateRoute::kInt64);
        expect_integer_layout(candidate,
                              CostMatrix::build(p, costs->c0, costs->c1), n);
      }
    }
  }
}

// The full per-partition optimizer on both integer element types against
// the reference on the same costs, driven by identical RNG streams that
// must end in the same state; BTO on every route.
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
        SCOPED_TRACE(testing::Message() << "n=" << n << " b=" << bound
                                        << " loss_bits=" << costs->loss_bits);
        const auto reference = CostMatrix::build(p, costs->c0, costs->c1);
        util::Rng ref_rng(7);
        const VtResult expected = opt_for_part(reference, params, ref_rng);
        util::Rng rng(7);
        expect_same_result(
            workspace.opt_for_part(workspace.prepare(p, *costs), params, rng),
            expected);
        EXPECT_EQ(rng.next_double(), ref_rng.next_double());
      }

      for (const CostView& costs :
           {fx.view(), CostView(int32_costs), CostView(int64_costs)}) {
        expect_same_result(
            workspace.opt_for_part_bto(workspace.prepare(p, costs)),
            opt_for_part_bto(CostMatrix::build(p, costs.c0, costs.c1)));
      }
    }
  }
}

/// The cost pair of input x written from the definitions: bit k of the
/// candidate word set to 0 and to 1, the bits below it filled by the LSB
/// model, the distance to y through the metric's loss, times p(x). Every
/// loss is an integer below 2^53, so only the product with p rounds.
std::pair<double, double> oracle_costs(OutputWord y, OutputWord approx,
                                       unsigned k, LsbModel model,
                                       CostMetric metric, double p) {
  const OutputWord low = (OutputWord{1} << k) - 1;
  const OutputWord high = approx >> (k + 1) << (k + 1);
  double cost[2];
  for (const OutputWord v : {0u, 1u}) {
    const OutputWord top = high | v << k;
    std::uint64_t distance = 0;
    if (model == LsbModel::kPredictive) {
      // The lower bits are free: the distance to the nearest word of the
      // block [top, top + low].
      distance = y < top ? top - y : y > top + low ? y - top - low : 0;
    } else {
      const OutputWord lsb =
          (model == LsbModel::kCurrentApprox ? approx : y) & low;
      const OutputWord word = top | lsb;
      distance = y > word ? y - word : word - y;
    }
    std::uint64_t loss = distance;
    if (metric == CostMetric::kMse) loss = distance * distance;
    if (metric == CostMetric::kErrorRate) loss = distance != 0 ? 1 : 0;
    cost[v] = p * static_cast<double>(loss);
  }
  return {cost[0], cost[1]};
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
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " uniform=" << dist.is_uniform()
                       << " model=" << static_cast<int>(model)
                       << " metric=" << static_cast<int>(metric));
          const unsigned k = m / 2;
          BitCostArrays expected;
          for (InputWord x = 0; x < g.domain_size(); ++x) {
            const auto [c0, c1] = oracle_costs(g.value(x), approx[x], k, model,
                                               metric, dist.probability(x));
            expected.c0.push_back(c0);
            expected.c1.push_back(c1);
          }
          const auto serial =
              build_bit_costs(g, approx, k, model, dist, metric);
          const auto pooled =
              build_bit_costs(g, approx, k, model, dist, metric, &pool);
          EXPECT_EQ(serial.c0, expected.c0);
          EXPECT_EQ(serial.c1, expected.c1);
          EXPECT_EQ(pooled.c0, expected.c0);
          EXPECT_EQ(pooled.c1, expected.c1);
        }
      }
    }
  }
}

// error_report's MED is the scalar loop over the same chunks (below the
// parallel threshold one loop over the domain), so the two agree bit for
// bit, serial and pooled.
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
      const double expected = error_report(g, approx, dist).med;
      EXPECT_EQ(error_report(g, approx, dist, &pool).med, expected)
          << "n=" << n;
      EXPECT_EQ(mean_error_distance(g, approx, dist), expected) << "n=" << n;
      EXPECT_EQ(mean_error_distance(g, approx, dist, &pool), expected)
          << "n=" << n;
    }
  }
}

// The full-register int32 lanes of the integer OptForPart path and the
// serve read kernels, against plain loops over the same values on whichever
// backend this build compiled (AVX2, SSE2 or the one-lane scalar struct).
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

// The byte-shuffle step of DecomposedBit::eval_all, against the plain
// lookup it stands for: random bytes in both tables (any bit pattern, not
// only the walk's nibbles and one-hot selectors), random 16-entry windows
// and random low-nibble indices.
TEST(SimdIdentity, SelectBlocksMatchesTableLookups) {
  util::Rng rng(10);
  std::vector<std::uint8_t> rows(64), cols(64);
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& v : rows) v = static_cast<std::uint8_t>(rng.next_below(256));
    for (auto& v : cols) v = static_cast<std::uint8_t>(rng.next_below(256));
    std::uint8_t rlo[16], clo[16];
    for (unsigned i = 0; i < 16; ++i) {
      rlo[i] = static_cast<std::uint8_t>(rng.next_below(16));
      clo[i] = static_cast<std::uint8_t>(rng.next_below(16));
    }
    const std::uint8_t* const row_at[2] = {
        rows.data() + rng.next_below(48), rows.data() + rng.next_below(48)};
    const std::uint8_t* const col_at[2] = {
        cols.data() + rng.next_below(48), cols.data() + rng.next_below(48)};
    std::uint8_t out[32];
    simd::select_blocks2(out, row_at, col_at, rlo, clo);
    for (unsigned k = 0; k < 2; ++k) {
      for (unsigned i = 0; i < 16; ++i) {
        const bool hit = (row_at[k][rlo[i]] & col_at[k][clo[i]]) != 0;
        ASSERT_EQ(out[16 * k + i], hit ? 1 : 0)
            << "trial " << trial << " block " << k << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dalut::core
