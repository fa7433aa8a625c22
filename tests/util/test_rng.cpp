#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace dalut::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  double min = 1.0;
  double max = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(Rng, SampleDistinctIsDistinctAndInRange) {
  Rng rng(17);
  for (unsigned count : {0u, 1u, 5u, 16u}) {
    const auto sample = rng.sample_distinct(16, count);
    EXPECT_EQ(sample.size(), count);
    std::set<unsigned> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
    for (const auto v : sample) EXPECT_LT(v, 16u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng b(21);
  b.fork();
  EXPECT_EQ(a.next(), b.next());  // parent streams stay in sync
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next() == a.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBitsMatchesNextBool) {
  for (unsigned count = 0; count <= 64; ++count) {
    Rng packed(1000 + count);
    Rng reference = packed;
    const std::uint64_t bits = packed.next_bits(count);
    std::uint64_t expected = 0;
    for (unsigned i = 0; i < count; ++i) {
      expected |= std::uint64_t{reference.next_bool()} << i;
    }
    EXPECT_EQ(bits, expected) << "count=" << count;
    EXPECT_EQ(packed.state(), reference.state()) << "count=" << count;
  }
}

TEST(SplitMix, KnownGolden) {
  // SplitMix64 with seed 0 produces this well-known first output.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFull);
}

}  // namespace
}  // namespace dalut::util
