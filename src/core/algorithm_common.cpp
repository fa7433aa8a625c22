#include "core/algorithm_common.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/partition_opt.hpp"

namespace dalut::core {

namespace {

/// Binomial coefficient, saturating at a large sentinel to avoid overflow.
std::uint64_t choose(unsigned n, unsigned k) {
  if (k > n) return 0;
  std::uint64_t result = 1;
  for (unsigned i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
    if (result > (std::uint64_t{1} << 40)) return std::uint64_t{1} << 40;
  }
  return result;
}

}  // namespace

void check_count(const char* key, unsigned value, unsigned lo, unsigned hi) {
  if (value < lo || value > hi) {
    throw std::invalid_argument(std::string(key) + " " +
                                std::to_string(value) + " is out of range [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
}

void check_factor(const char* key, double value) {
  if (!std::isfinite(value) || value < 0.0) {
    std::ostringstream message;
    message << key << " " << value << " must be finite and >= 0";
    throw std::invalid_argument(message.str());
  }
}

void write_bit_to_cache(std::vector<OutputWord>& cache, unsigned k,
                        const Setting& setting) {
  const auto bits = DecomposedBit::realize(setting).eval_all();
  assert(bits.size() == cache.size());
  const OutputWord mask = OutputWord{1} << k;
  for (std::size_t x = 0; x < cache.size(); ++x) {
    cache[x] = (cache[x] & ~mask) | OutputWord{bits[x]} << k;
  }
}

double setting_error_under_costs(const Setting& setting,
                                 std::span<const double> c0,
                                 std::span<const double> c1) {
  const auto bits = DecomposedBit::realize(setting).eval_all();
  assert(bits.size() == c0.size() && c1.size() == c0.size());
  double error = 0.0;
  for (std::size_t x = 0; x < c0.size(); ++x) {
    error += bits[x] != 0 ? c1[x] : c0[x];
  }
  return error;
}

std::vector<Partition> sample_partitions(unsigned num_inputs,
                                         unsigned bound_size, unsigned count,
                                         util::Rng& rng) {
  const std::uint64_t space = choose(num_inputs, bound_size);
  std::vector<Partition> result;

  if (space <= count) {
    // Enumerate the whole space.
    const std::uint32_t full = (std::uint32_t{1} << num_inputs) - 1;
    for (std::uint32_t mask = 1; mask < full; ++mask) {
      if (static_cast<unsigned>(std::popcount(mask)) == bound_size) {
        result.emplace_back(num_inputs, mask);
      }
    }
    return result;
  }

  std::unordered_set<std::uint32_t> seen;
  result.reserve(count);
  while (result.size() < count) {
    auto p = Partition::random(num_inputs, bound_size, rng);
    if (seen.insert(p.bound_mask()).second) result.push_back(std::move(p));
  }
  return result;
}

Setting fallback_setting(const MultiOutputFunction& g,
                         std::vector<OutputWord>& cache, unsigned k,
                         const InputDistribution& dist, CostMetric metric,
                         unsigned bound_size, bool allow_bto,
                         util::ThreadPool* pool) {
  const auto costs =
      build_bit_costs(g, cache, k, LsbModel::kCurrentApprox, dist, metric,
                      pool);
  const auto mask = static_cast<std::uint32_t>(
      (std::uint64_t{1} << bound_size) - 1);
  Setting setting = optimize_bto(Partition(g.num_inputs(), mask), costs);
  // The all-Pattern type vector is a point of the normal-mode space too, so
  // relabeling keeps the realization identical while staying inside what
  // the target architecture accepts.
  if (!allow_bto) setting.mode = DecompMode::kNormal;
  write_bit_to_cache(cache, k, setting);
  return setting;
}

}  // namespace dalut::core
