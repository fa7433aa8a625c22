#include "core/decomposition.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "core/evaluate.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dalut::core {
namespace {

Setting make_normal_setting(const Partition& p,
                            std::vector<std::uint8_t> pattern,
                            std::vector<RowType> types) {
  Setting s;
  s.error = 0.0;
  s.partition = p;
  s.mode = DecompMode::kNormal;
  s.pattern = std::move(pattern);
  s.types = std::move(types);
  return s;
}

/// A setting on partition `p` with random pattern(s) and row types in
/// `mode`. ND mode shares `shared_bit`, or a random bound input when it is
/// unset.
Setting random_setting(const Partition& p, DecompMode mode, util::Rng& rng,
                       std::optional<unsigned> shared_bit = std::nullopt) {
  Setting s;
  s.error = 0.0;
  s.partition = p;
  s.mode = mode;
  const std::size_t cols = s.partition.num_cols();
  const std::size_t rows = s.partition.num_rows();
  const auto bits = [&](std::size_t count) {
    std::vector<std::uint8_t> v(count);
    for (auto& bit : v) bit = rng.next_bool() ? 1 : 0;
    return v;
  };
  const auto types = [&] {
    std::vector<RowType> t(rows);
    for (auto& type : t) type = static_cast<RowType>(1 + rng.next_below(4));
    return t;
  };
  switch (mode) {
    case DecompMode::kNormal:
      s.pattern = bits(cols);
      s.types = types();
      break;
    case DecompMode::kBto:
      s.pattern = bits(cols);
      s.types.assign(rows, RowType::kPattern);
      break;
    case DecompMode::kNonDisjoint: {
      const auto bound = s.partition.bound_inputs();
      s.shared_bit = shared_bit ? *shared_bit
                                : bound[rng.next_below(bound.size())];
      s.pattern0 = bits(cols / 2);
      s.pattern1 = bits(cols / 2);
      s.types0 = types();
      s.types1 = types();
      break;
    }
  }
  return s;
}

/// A setting with random partition (|B| = b), pattern(s) and row types.
Setting random_setting(unsigned n, unsigned b, DecompMode mode,
                       util::Rng& rng) {
  const Partition p = Partition::random(n, b, rng);
  return random_setting(p, mode, rng);
}

bool apply_type(RowType type, bool phi) {
  switch (type) {
    case RowType::kAllZero: return false;
    case RowType::kAllOne: return true;
    case RowType::kPattern: return phi;
    case RowType::kComplement: return !phi;
  }
  return false;
}

/// The bit a setting defines at input x, read straight off the setting
/// (Sec. III-A / IV-B), without realizing LUT contents.
bool oracle_bit(const Setting& s, InputWord x) {
  const Partition& p = s.partition;
  const std::uint32_t row = p.row_of(x);
  switch (s.mode) {
    case DecompMode::kBto:
      return s.pattern[p.col_of(x)] != 0;
    case DecompMode::kNormal:
      return apply_type(s.types[row], s.pattern[p.col_of(x)] != 0);
    case DecompMode::kNonDisjoint: {
      const auto reduced = util::extract_bits(
          x, p.bound_mask() & ~(std::uint32_t{1} << s.shared_bit));
      return util::get_bit(x, s.shared_bit)
                 ? apply_type(s.types1[row], s.pattern1[reduced] != 0)
                 : apply_type(s.types0[row], s.pattern0[reduced] != 0);
    }
  }
  return false;
}

constexpr DecompMode kModes[] = {DecompMode::kNormal, DecompMode::kBto,
                                 DecompMode::kNonDisjoint};

/// eval_all's whole-domain read equals eval() at every input.
void expect_whole_domain_matches(const Setting& s) {
  const auto bit = DecomposedBit::realize(s);
  const unsigned n = s.partition.num_inputs();
  const auto all = bit.eval_all();
  ASSERT_EQ(all.size(), std::size_t{1} << n);
  for (InputWord x = 0; x < all.size(); ++x) {
    ASSERT_EQ(all[x] != 0, bit.eval(x))
        << "n=" << n << " B=" << s.partition.to_string()
        << " mode=" << to_string(s.mode) << " shared=" << s.shared_bit
        << " x=" << x;
    ASSERT_LE(all[x], 1u);
  }
}

TEST(DecomposedBit, WholeDomainMatchesPointEval) {
  // eval_all walks 16-input blocks (the low nibble), two per step: widths
  // under 5 take the per-input path, wider ones the block walk.
  util::Rng rng(15);
  for (unsigned n = 2; n <= 16; ++n) {
    const unsigned middle = 1 + static_cast<unsigned>(rng.next_below(n - 1));
    for (const unsigned b : {1u, n - 1, middle}) {
      for (const DecompMode mode : kModes) {
        expect_whole_domain_matches(random_setting(n, b, mode, rng));
      }
    }
  }
  for (unsigned n = 17; n <= 20; ++n) {
    for (const DecompMode mode : kModes) {
      expect_whole_domain_matches(
          random_setting(n, (9 * n + 8) / 16, mode, rng));
    }
  }
  // A block's inputs all share one column when the low nibble is all free,
  // and one row when it is all bound.
  for (const unsigned n : {5u, 8u, 13u}) {
    const std::uint32_t all = (std::uint32_t{1} << n) - 1;
    for (const std::uint32_t bound : {all & ~0xFu, 0xFu, all & ~0x7u}) {
      for (const DecompMode mode : kModes) {
        expect_whole_domain_matches(
            random_setting(Partition(n, bound), mode, rng));
      }
    }
  }
  // ND units whose shared bit lies in the low nibble, so x_s changes
  // within a block.
  for (const unsigned n : {4u, 5u, 9u, 12u}) {
    for (const unsigned shared : {0u, 2u, 3u}) {
      const std::uint32_t bound =
          (std::uint32_t{1} << shared) | (std::uint32_t{1} << (n - 1)) |
          (n > 6 ? 0b100000u : 0u);
      expect_whole_domain_matches(random_setting(
          Partition(n, bound), DecompMode::kNonDisjoint, rng, shared));
    }
  }
}

TEST(DecomposedBit, PointEvalMatchesOracle) {
  util::Rng rng(16);
  for (const unsigned n : {2u, 5u, 9u}) {
    for (unsigned b = 1; b < n; ++b) {
      for (const DecompMode mode : kModes) {
        const auto s = random_setting(n, b, mode, rng);
        const auto bit = DecomposedBit::realize(s);
        for (InputWord x = 0; x < (InputWord{1} << n); ++x) {
          ASSERT_EQ(bit.eval(x), oracle_bit(s, x))
              << "n=" << n << " b=" << b << " mode=" << to_string(mode);
        }
      }
    }
  }
}

TEST(DecomposedBit, NormalModeEvalMatchesSemantics) {
  const Partition p(4, 0b0101);  // B = {x1, x3}
  const std::vector<std::uint8_t> v{1, 0, 0, 1};  // XNOR of bound bits
  const std::vector<RowType> t{RowType::kPattern, RowType::kComplement,
                               RowType::kAllOne, RowType::kAllZero};
  const auto bit = DecomposedBit::realize(make_normal_setting(p, v, t));

  for (InputWord x = 0; x < 16; ++x) {
    const bool phi = v[p.col_of(x)] != 0;
    bool expected = false;
    switch (t[p.row_of(x)]) {
      case RowType::kAllZero: expected = false; break;
      case RowType::kAllOne: expected = true; break;
      case RowType::kPattern: expected = phi; break;
      case RowType::kComplement: expected = !phi; break;
    }
    EXPECT_EQ(bit.eval(x), expected) << x;
  }
}

TEST(DecomposedBit, BtoModeIgnoresFreeSet) {
  const Partition p(5, 0b00011);
  Setting s;
  s.error = 0.0;
  s.partition = p;
  s.mode = DecompMode::kBto;
  s.pattern = {0, 1, 1, 0};
  const auto bit = DecomposedBit::realize(s);
  for (InputWord x = 0; x < 32; ++x) {
    EXPECT_EQ(bit.eval(x), s.pattern[p.col_of(x)] != 0);
  }
  // BTO stores only the bound table.
  EXPECT_EQ(bit.stored_entries(), 4u);
  EXPECT_TRUE(bit.free_table0().empty());
}

TEST(DecomposedBit, StoredEntriesMatchPaperFormulas) {
  // Paper: normal mode stores 2^b + 2^(n-b+1) entries.
  const unsigned n = 8, b = 5;
  util::Rng rng(3);
  const auto p = Partition::random(n, b, rng);
  Setting s;
  s.error = 0.0;
  s.partition = p;
  s.mode = DecompMode::kNormal;
  s.pattern.assign(1u << b, 0);
  s.types.assign(1u << (n - b), RowType::kPattern);
  const auto bit = DecomposedBit::realize(s);
  EXPECT_EQ(bit.stored_entries(), (1u << b) + (1u << (n - b + 1)));
}

TEST(DecomposedBit, NonDisjointPaperExampleThree) {
  // Sec. IV-B1, Example 3: t on five inputs, A = {x4, x5},
  // B = {x1, x2, x3}, shared bit x_2.
  // phi_0(x1,x3) = ~x1~x3 + x1x3 (XNOR), F_0 = phi at rows (x4x5) in
  // {00, 10}, 1 at row 11, 0 at row 01 is encoded via the type vectors
  // below; phi_1(x1,x3) = ~x1~x3 + ~x1x3 = ~x1.
  const Partition p(5, 0b00111);
  Setting s;
  s.error = 0.0;
  s.partition = p;
  s.mode = DecompMode::kNonDisjoint;
  s.shared_bit = 1;  // x2 (0-based index 1)
  // Reduced bound set {x1, x3}: column index packs (x3, x1) with x1 as LSB.
  // phi_0 = XNOR(x1, x3): cols 00->1, 01->0, 10->0, 11->1.
  s.pattern0 = {1, 0, 0, 1};
  // phi_1 = ~x1: cols 00->1, 01->0, 10->1, 11->0.
  s.pattern1 = {1, 0, 1, 0};
  // Rows pack (x5, x4) with x4 as LSB.
  // F_0(phi, x4, x5) = phi~x4~x5 + phi x4~x5 + x4x5:
  //   row 00 -> phi (Pattern), row 01 (x4=1,x5=0) -> phi, row 10 -> 0,
  //   row 11 -> 1.
  s.types0 = {RowType::kPattern, RowType::kPattern, RowType::kAllZero,
              RowType::kAllOne};
  // F_1(phi, x4, x5) = ~x4~x5 + phi~x4 x5 + phi x4~x5:
  //   row 00 -> 1, row 01 -> phi, row 10 -> phi, row 11 -> 0.
  s.types1 = {RowType::kAllOne, RowType::kPattern, RowType::kPattern,
              RowType::kAllZero};

  const auto bit = DecomposedBit::realize(s);

  // Independent reference: evaluate F(phi(B), A, x2) from the formulas.
  for (InputWord x = 0; x < 32; ++x) {
    const bool x1 = x & 1, x2 = (x >> 1) & 1, x3 = (x >> 2) & 1;
    const bool x4 = (x >> 3) & 1, x5 = (x >> 4) & 1;
    const bool phi0 = x1 == x3;
    const bool phi1 = !x1;
    const bool f0 = (phi0 && !x4 && !x5) || (phi0 && x4 && !x5) || (x4 && x5);
    const bool f1 =
        (!x4 && !x5) || (phi1 && !x4 && x5) || (phi1 && x4 && !x5);
    const bool expected = x2 ? f1 : f0;
    EXPECT_EQ(bit.eval(x), expected) << "x=" << x;
  }

  // ND stores a full bound table plus two free tables.
  EXPECT_EQ(bit.stored_entries(), 8u + 2u * 8u);
}

TEST(DecomposedBit, NdSharedBitMustBeBound) {
  Setting s;
  s.error = 0.0;
  s.partition = Partition(4, 0b0011);
  s.mode = DecompMode::kNonDisjoint;
  s.shared_bit = 3;  // in A - invalid
  s.pattern0 = {0, 0};
  s.pattern1 = {0, 0};
  s.types0.assign(4, RowType::kPattern);
  s.types1.assign(4, RowType::kPattern);
  EXPECT_THROW(DecomposedBit::realize(s), std::invalid_argument);
}

TEST(DecomposedBit, InvalidSettingRejected) {
  Setting s;  // error stays infinity
  EXPECT_THROW(DecomposedBit::realize(s), std::invalid_argument);
}

TEST(ApproxLut, EvalAssemblesBits) {
  const Partition p(4, 0b0011);
  std::vector<Setting> settings;
  for (unsigned k = 0; k < 3; ++k) {
    Setting s;
    s.error = 0.0;
    s.partition = p;
    s.mode = DecompMode::kBto;
    s.pattern = {static_cast<std::uint8_t>(k == 0), 1, 0,
                 static_cast<std::uint8_t>(k == 2)};
    settings.push_back(std::move(s));
  }
  const auto lut = ApproxLut::realize(4, settings);
  EXPECT_EQ(lut.num_outputs(), 3u);
  for (InputWord x = 0; x < 16; ++x) {
    OutputWord expected = 0;
    for (unsigned k = 0; k < 3; ++k) {
      if (settings[k].pattern[p.col_of(x)]) expected |= 1u << k;
    }
    EXPECT_EQ(lut.eval(x), expected);
  }
  const auto values = lut.values();
  for (InputWord x = 0; x < 16; ++x) EXPECT_EQ(values[x], lut.eval(x));
}

TEST(ApproxLut, ValuesMatchPointEval) {
  util::Rng rng(17);
  for (const unsigned n : {2u, 7u, 12u}) {
    std::vector<Setting> settings;
    for (unsigned k = 0; k < n; ++k) {
      const unsigned b = 1 + static_cast<unsigned>(rng.next_below(n - 1));
      settings.push_back(random_setting(n, b, kModes[k % 3], rng));
    }
    const auto lut = ApproxLut::realize(n, settings);
    const auto values = lut.values();
    ASSERT_EQ(values.size(), std::size_t{1} << n);
    for (InputWord x = 0; x < values.size(); ++x) {
      ASSERT_EQ(values[x], lut.eval(x)) << "n=" << n << " x=" << x;
    }
    EXPECT_EQ(lut.to_function().values(), values);
  }
}

TEST(ApproxLut, RealizeRejectsMismatchedWidth) {
  Setting s;
  s.error = 0.0;
  s.partition = Partition(4, 0b0011);
  s.mode = DecompMode::kBto;
  s.pattern = {0, 1, 1, 0};
  // Settings are over 4 inputs, LUT claims 6.
  EXPECT_THROW(ApproxLut::realize(6, {s}), std::invalid_argument);
  EXPECT_NO_THROW(ApproxLut::realize(4, {s}));
}

TEST(Evaluate, MedOfIdenticalIsZero) {
  util::Rng rng(9);
  const auto g = MultiOutputFunction::from_eval(4, 4, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(16));
  });
  const auto dist = InputDistribution::uniform(4);
  EXPECT_DOUBLE_EQ(mean_error_distance(g, g.values(), dist), 0.0);
}

TEST(Evaluate, MedHandComputed) {
  const auto g =
      MultiOutputFunction::from_eval(2, 3, [](InputWord x) { return x; });
  std::vector<OutputWord> approx{0, 2, 2, 7};  // errors 0, 1, 0, 4
  const auto dist = InputDistribution::uniform(2);
  EXPECT_DOUBLE_EQ(mean_error_distance(g, approx, dist), (1.0 + 4.0) / 4.0);
}

TEST(Evaluate, ReportFields) {
  const auto g =
      MultiOutputFunction::from_eval(2, 3, [](InputWord x) { return x; });
  std::vector<OutputWord> approx{0, 2, 2, 7};
  const auto dist = InputDistribution::uniform(2);
  const auto report = error_report(g, approx, dist);
  EXPECT_DOUBLE_EQ(report.med, 1.25);
  EXPECT_DOUBLE_EQ(report.max_ed, 4.0);
  EXPECT_DOUBLE_EQ(report.error_rate, 0.5);
  EXPECT_DOUBLE_EQ(report.mse, (1.0 + 16.0) / 4.0);
}

TEST(Evaluate, WeightedDistribution) {
  const auto g =
      MultiOutputFunction::from_eval(1, 2, [](InputWord x) { return x; });
  std::vector<OutputWord> approx{1, 1};  // error 1 at input 0 only
  const auto dist = InputDistribution::from_weights(1, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(mean_error_distance(g, approx, dist), 0.75);
}

/// Non-uniform cost arrays for output bit k of a random function, so that
/// summing the same terms in another order gives another double.
BitCostArrays skewed_costs(unsigned n, unsigned k, util::Rng& rng) {
  const auto g = MultiOutputFunction::from_eval(n, n, [&](InputWord) {
    return static_cast<OutputWord>(rng.next_below(std::uint64_t{1} << n));
  });
  std::vector<double> weights(std::size_t{1} << n);
  for (auto& w : weights) w = 0.1 + rng.next_double() * rng.next_double();
  const auto dist = InputDistribution::from_weights(n, std::move(weights));
  return build_bit_costs(g, g.values(), k, LsbModel::kCurrentApprox, dist);
}

TEST(AlgorithmCommon, WriteBitToCacheMatchesPerInputOracle) {
  util::Rng rng(18);
  for (const unsigned n : {3u, 10u, 13u}) {
    for (const DecompMode mode : kModes) {
      const unsigned b = 1 + static_cast<unsigned>(rng.next_below(n - 1));
      const auto s = random_setting(n, b, mode, rng);
      const unsigned k = static_cast<unsigned>(rng.next_below(n));
      std::vector<OutputWord> cache(std::size_t{1} << n);
      for (auto& y : cache) {
        y = static_cast<OutputWord>(rng.next_below(std::uint64_t{1} << n));
      }
      const auto before = cache;
      write_bit_to_cache(cache, k, s);
      const OutputWord mask = OutputWord{1} << k;
      for (InputWord x = 0; x < cache.size(); ++x) {
        const OutputWord expected =
            oracle_bit(s, x) ? before[x] | mask : before[x] & ~mask;
        ASSERT_EQ(cache[x], expected)
            << "n=" << n << " mode=" << to_string(mode) << " x=" << x;
      }
    }
  }
}

TEST(AlgorithmCommon, SettingErrorUnderCostsSumsInAscendingInputOrder) {
  util::Rng rng(19);
  unsigned order_sensitive = 0;
  for (const unsigned n : {4u, 10u, 13u}) {
    for (const DecompMode mode : kModes) {
      const unsigned k = static_cast<unsigned>(rng.next_below(n));
      const auto costs = skewed_costs(n, k, rng);
      const unsigned b = 1 + static_cast<unsigned>(rng.next_below(n - 1));
      const auto s = random_setting(n, b, mode, rng);
      double ascending = 0.0;
      for (InputWord x = 0; x < costs.c0.size(); ++x) {
        ascending += oracle_bit(s, x) ? costs.c1[x] : costs.c0[x];
      }
      double descending = 0.0;
      for (InputWord x = costs.c0.size(); x-- > 0;) {
        descending += oracle_bit(s, x) ? costs.c1[x] : costs.c0[x];
      }
      if (descending != ascending) ++order_sensitive;
      EXPECT_EQ(setting_error_under_costs(s, costs.c0, costs.c1), ascending)
          << "n=" << n << " mode=" << to_string(mode);
    }
  }
  // The data can tell summation orders apart, so the EXPECT_EQ above pins
  // the order, not just the value up to rounding.
  EXPECT_GT(order_sensitive, 0u);
}

}  // namespace
}  // namespace dalut::core
