#include "core/opt_for_part.hpp"

#include <cassert>
#include <cmath>
#include <limits>

namespace dalut::core {

namespace {

/// Row sums of cost0/cost1 - the type-1/type-2 row costs, independent of V.
struct RowSums {
  std::vector<double> zero;  ///< cost of typing the row AllZero
  std::vector<double> one;   ///< cost of typing the row AllOne
};

RowSums row_sums(const CostMatrix& matrix) {
  RowSums sums;
  sums.zero.assign(matrix.rows, 0.0);
  sums.one.assign(matrix.rows, 0.0);
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    double s0 = 0.0;
    double s1 = 0.0;
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      s0 += matrix.cost0[cell];
      s1 += matrix.cost1[cell];
    }
    sums.zero[r] = s0;
    sums.one[r] = s1;
  }
  return sums;
}

/// Step (1): given V, choose the best type per row. Returns the total error.
double optimize_types(const CostMatrix& matrix, const RowSums& sums,
                      const std::vector<std::uint8_t>& pattern,
                      std::vector<RowType>& types) {
  double total = 0.0;
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    double match = 0.0;  // cost when the row equals V (type Pattern)
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      match += pattern[c] ? matrix.cost1[cell] : matrix.cost0[cell];
    }
    const double s0 = sums.zero[r];
    const double s1 = sums.one[r];
    const double complement = s0 + s1 - match;  // type Complement cost

    RowType best = RowType::kAllZero;
    double best_cost = s0;
    if (s1 < best_cost) {
      best = RowType::kAllOne;
      best_cost = s1;
    }
    if (match < best_cost) {
      best = RowType::kPattern;
      best_cost = match;
    }
    if (complement < best_cost) {
      best = RowType::kComplement;
      best_cost = complement;
    }
    types[r] = best;
    total += best_cost;
  }
  return total;
}

/// Step (2): given T, choose the best V bit per column. The caller's next
/// optimize_types() pass recomputes the total, so none is returned here.
/// `if_zero`/`if_one` are caller-owned column buffers reused across calls.
void optimize_pattern(const CostMatrix& matrix,
                      const std::vector<RowType>& types,
                      std::vector<double>& if_zero, std::vector<double>& if_one,
                      std::vector<std::uint8_t>& pattern) {
  if_zero.assign(matrix.cols, 0.0);  // column cost when V_c = 0
  if_one.assign(matrix.cols, 0.0);
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    switch (types[r]) {
      case RowType::kAllZero:
      case RowType::kAllOne:
        cell += matrix.cols;  // fixed rows do not depend on V
        break;
      case RowType::kPattern:
        for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
          if_zero[c] += matrix.cost0[cell];
          if_one[c] += matrix.cost1[cell];
        }
        break;
      case RowType::kComplement:
        for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
          if_zero[c] += matrix.cost1[cell];
          if_one[c] += matrix.cost0[cell];
        }
        break;
    }
  }
  for (std::size_t c = 0; c < matrix.cols; ++c) {
    pattern[c] = if_one[c] < if_zero[c] ? 1 : 0;
  }
}

}  // namespace

VtResult opt_for_part(const CostMatrix& matrix, const OptForPartParams& params,
                      util::Rng& rng, std::uint64_t* alternations) {
  assert(params.init_patterns >= 1);
  const RowSums sums = row_sums(matrix);

  VtResult best;
  best.error = std::numeric_limits<double>::infinity();

  std::vector<std::uint8_t> pattern(matrix.cols);
  std::vector<RowType> types(matrix.rows, RowType::kPattern);
  std::vector<double> if_zero;
  std::vector<double> if_one;
  for (unsigned restart = 0; restart < params.init_patterns; ++restart) {
    for (auto& bit : pattern) bit = rng.next_bool() ? 1 : 0;

    // Both steps are exact coordinate minimizations, so the error is
    // non-increasing; stop at the first iteration with no improvement.
    double error = optimize_types(matrix, sums, pattern, types);
    for (unsigned iter = 0; iter < params.max_iterations; ++iter) {
      if (alternations != nullptr) ++*alternations;
      optimize_pattern(matrix, types, if_zero, if_one, pattern);
      const double after_types = optimize_types(matrix, sums, pattern, types);
      if (after_types >= error - 1e-15) {
        error = std::min(error, after_types);
        break;
      }
      error = after_types;
    }

    if (error < best.error) {
      best.error = error;
      best.pattern = pattern;
      best.types = types;
    }
  }
  return best;
}

VtResult opt_for_part_bto(const CostMatrix& matrix) {
  VtResult result;
  result.types.assign(matrix.rows, RowType::kPattern);
  result.pattern.assign(matrix.cols, 0);

  std::vector<double> if_zero(matrix.cols, 0.0);
  std::vector<double> if_one(matrix.cols, 0.0);
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      if_zero[c] += matrix.cost0[cell];
      if_one[c] += matrix.cost1[cell];
    }
  }
  result.error = 0.0;
  for (std::size_t c = 0; c < matrix.cols; ++c) {
    if (if_one[c] < if_zero[c]) {
      result.pattern[c] = 1;
      result.error += if_one[c];
    } else {
      result.error += if_zero[c];
    }
  }
  return result;
}

double evaluate_vt(const CostMatrix& matrix,
                   const std::vector<std::uint8_t>& pattern,
                   const std::vector<RowType>& types) {
  assert(pattern.size() == matrix.cols);
  assert(types.size() == matrix.rows);
  double total = 0.0;
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      bool value = false;
      switch (types[r]) {
        case RowType::kAllZero:
          value = false;
          break;
        case RowType::kAllOne:
          value = true;
          break;
        case RowType::kPattern:
          value = pattern[c] != 0;
          break;
        case RowType::kComplement:
          value = pattern[c] == 0;
          break;
      }
      total += value ? matrix.cost1[cell] : matrix.cost0[cell];
    }
  }
  return total;
}

}  // namespace dalut::core
