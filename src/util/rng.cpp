#include "util/rng.hpp"

#include <cassert>

namespace dalut::util {

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 seeder(seed);
  for (auto& s : state_) s = seeder.next();
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<unsigned> Rng::sample_distinct(unsigned population,
                                           unsigned count) {
  assert(count <= population);
  std::vector<unsigned> all(population);
  for (unsigned i = 0; i < population; ++i) all[i] = i;
  // Partial Fisher-Yates: draw the first `count` slots.
  for (unsigned i = 0; i < count; ++i) {
    const auto j = i + static_cast<unsigned>(next_below(population - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

Rng Rng::fork() noexcept { return Rng(next()); }

}  // namespace dalut::util
