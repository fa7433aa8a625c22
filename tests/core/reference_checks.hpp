// Checks of EvalWorkspace candidates and results against the reference
// CostMatrix builders and OptForPart, shared by the evaluation-engine and
// SIMD identity tests.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/eval_workspace.hpp"
#include "core/opt_for_part.hpp"
#include "core/two_dim_table.hpp"

namespace dalut::core::checks {

inline void expect_same_matrix(const CostMatrix& actual,
                               const CostMatrix& expected) {
  ASSERT_EQ(actual.rows, expected.rows);
  ASSERT_EQ(actual.cols, expected.cols);
  EXPECT_EQ(actual.cost0, expected.cost0);
  EXPECT_EQ(actual.cost1, expected.cost1);
}

inline void expect_same_matrix(const CandidateRef& actual,
                               const CostMatrix& expected) {
  ASSERT_EQ(actual.route(), CandidateRoute::kReference);
  expect_same_matrix(*actual.reference(), expected);
}

/// The integer layout of `actual` against the losses of the reference
/// matrix `expected` (costs times 2^scale_bits): differences by row and by
/// column (zero in padding rows), row sums, and loss0 when kept.
template <class T>
void expect_integer_layout(const IntegerCostMatrix<T>& actual,
                           const CostMatrix& expected, unsigned scale_bits) {
  ASSERT_EQ(actual.rows, expected.rows);
  ASSERT_EQ(actual.cols, expected.cols);
  ASSERT_EQ(actual.scale_bits, scale_bits);
  ASSERT_GE(actual.rows_pad, actual.rows);
  const double scale = std::ldexp(1.0, static_cast<int>(scale_bits));
  const std::size_t rows = expected.rows;
  const std::size_t cols = expected.cols;
  for (std::size_t r = 0; r < actual.rows_pad; ++r) {
    T s0 = 0;
    T s1 = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      if (r >= rows) {
        EXPECT_EQ(actual.diff_cols[c * actual.rows_pad + r], 0);
        continue;
      }
      const auto loss0 = static_cast<T>(expected.at0(r, c) * scale);
      const auto loss1 = static_cast<T>(expected.at1(r, c) * scale);
      EXPECT_EQ(actual.diff_rows[r * cols + c], loss1 - loss0);
      EXPECT_EQ(actual.diff_cols[c * actual.rows_pad + r], loss1 - loss0);
      if (!actual.loss0.empty()) {
        EXPECT_EQ(actual.loss0[r * cols + c], loss0);
      }
      s0 += loss0;
      s1 += loss1;
    }
    EXPECT_EQ(actual.sums0[r], s0) << "row " << r;
    EXPECT_EQ(actual.sums1[r], s1) << "row " << r;
  }
}

inline void expect_integer_layout(const CandidateRef& actual,
                                  const CostMatrix& expected,
                                  unsigned scale_bits) {
  if (const auto* m = actual.integer<std::int32_t>()) {
    expect_integer_layout(*m, expected, scale_bits);
  } else if (const auto* m64 = actual.integer<std::int64_t>()) {
    expect_integer_layout(*m64, expected, scale_bits);
  } else {
    ADD_FAILURE() << "not an integer candidate";
  }
}

inline void expect_same_result(const VtResult& actual,
                               const VtResult& expected) {
  EXPECT_EQ(actual.error, expected.error);  // bit-identical, not just close
  EXPECT_EQ(actual.pattern, expected.pattern);
  EXPECT_EQ(actual.types, expected.types);
}

}  // namespace dalut::core::checks
