// OptForPart (Sec. II-B): for a fixed partition, find the pattern vector V
// and type vector T minimizing the weighted error encoded in a CostMatrix.
//
// The optimizer alternates two exact coordinate steps until the error stops
// improving: (1) given V, each row independently picks the cheapest of the
// four types; (2) given T, each column independently picks the cheaper V bit
// over its Pattern/Complement rows. Each local optimum is the best of Z
// random restarts. The BTO variant (Sec. IV-A) restricts T to all-Pattern,
// which makes the optimum closed-form.
#pragma once

#include <cstdint>
#include <vector>

#include "core/setting.hpp"
#include "core/two_dim_table.hpp"
#include "util/rng.hpp"

namespace dalut::core {

struct VtResult {
  double error = 0.0;
  std::vector<std::uint8_t> pattern;  ///< V
  std::vector<RowType> types;         ///< T
};

struct OptForPartParams {
  unsigned init_patterns = 30;  ///< Z: random initial pattern vectors
  unsigned max_iterations = 64; ///< safety cap on alternation rounds
};

/// Best (V, T) for the matrix; alternating optimization from Z restarts.
/// When `alternations` is given, the alternations run (one pattern step
/// plus one types step of one restart, the stopping one included) are added
/// to it.
VtResult opt_for_part(const CostMatrix& matrix, const OptForPartParams& params,
                      util::Rng& rng, std::uint64_t* alternations = nullptr);

/// BTO-restricted variant: T forced to all-Pattern (type 3); V is then the
/// independent per-column minimum, so no restarts are needed.
VtResult opt_for_part_bto(const CostMatrix& matrix);

/// Error of explicitly given (V, T) on the matrix (used by tests and by the
/// realization layer for cross-checks).
double evaluate_vt(const CostMatrix& matrix,
                   const std::vector<std::uint8_t>& pattern,
                   const std::vector<RowType>& types);

}  // namespace dalut::core
