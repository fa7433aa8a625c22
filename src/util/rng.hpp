// Deterministic pseudo-random number generation.
//
// All stochastic algorithms in the library (random partitions, random initial
// pattern vectors, SA acceptance) draw from an Rng seeded explicitly, so
// every experiment is reproducible from its seed.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dalut::util {

/// SplitMix64 — used for seeding and as a cheap stand-alone generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the library's main generator. Satisfies the
/// UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDDA1A5EEDDA1Aull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// `count` (<= 64) fair bits packed LSB-first: bit i is the i-th draw.
  /// Identical to packing `count` next_bool() calls, draw for draw:
  /// next_double() < 0.5 holds exactly when the top bit of next() is clear.
  std::uint64_t next_bits(unsigned count) noexcept {
    assert(count <= 64);
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < count; ++i) {
      bits |= (~next() >> 63) << i;
    }
    return bits;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli with probability p.
  bool next_bool(double p = 0.5) noexcept { return next_double() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `count` distinct values from [0, population) (count <= population).
  std::vector<unsigned> sample_distinct(unsigned population, unsigned count);

  /// Derives an independent child generator (for per-thread / per-run use).
  Rng fork() noexcept;

  /// Raw generator state, for checkpointing a stream mid-run. A generator
  /// restored with set_state produces exactly the sequence the saved one
  /// would have produced.
  using State = std::array<std::uint64_t, 4>;
  State state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  void set_state(const State& state) noexcept {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = state[i];
  }

 private:
  std::uint64_t state_[4];
};

}  // namespace dalut::util
