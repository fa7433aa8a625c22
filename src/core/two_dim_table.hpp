// The 2D truth table of Sec. II-A, generalized to a *cost matrix*.
//
// When optimizing one output bit, every input X carries two weighted costs:
// c0(X) / c1(X) = contribution to the MED if the approximate bit is 0 / 1.
// Arranging these by (row = free-set assignment, col = bound-set assignment)
// turns OptForPart into a weighted row-typing problem on this matrix.
//
// CostMatrix is the allocating *reference* representation. The production
// search paths route through the zero-allocation engine in
// core/eval_workspace.hpp, which gathers certified cost arrays into integer
// losses and every other candidate into a CostMatrix of its own scratch;
// it is tested bit-for-bit against the builders here.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/partition.hpp"

namespace dalut::core {

struct CostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// Row-major [row * cols + col] weighted costs of assigning 0 / 1.
  std::vector<double> cost0;
  std::vector<double> cost1;

  double at0(std::size_t r, std::size_t c) const noexcept {
    return cost0[r * cols + c];
  }
  double at1(std::size_t r, std::size_t c) const noexcept {
    return cost1[r * cols + c];
  }

  /// Scatters per-input cost arrays (size 2^n) into the matrix defined by
  /// `partition`.
  static CostMatrix build(const Partition& partition,
                          std::span<const double> c0,
                          std::span<const double> c1);

  /// Conditioned variant for the non-disjoint decomposition: only inputs
  /// with input `shared_bit` == `shared_value` contribute, and the column
  /// index ranges over B \ {shared_bit}. `partition` is the full partition
  /// (shared_bit must be in its bound set).
  static CostMatrix build_conditioned(const Partition& partition,
                                      unsigned shared_bit, bool shared_value,
                                      std::span<const double> c0,
                                      std::span<const double> c1);

  /// Generalized conditioning on a *set* of shared bits (the |C| >= 1
  /// extension of Sec. IV-B1): only inputs whose bits in `shared_mask`
  /// (subset of the bound set) equal `shared_values` (packed in mask order)
  /// contribute; columns range over B \ C.
  static CostMatrix build_conditioned_set(const Partition& partition,
                                          std::uint32_t shared_mask,
                                          std::uint32_t shared_values,
                                          std::span<const double> c0,
                                          std::span<const double> c1);
};

/// The classic 2D *truth* table (0/1 cells) of a single-output function -
/// used by the exact Ashenhurst machinery and the paper examples.
struct TwoDimTruthTable {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint8_t> cells;  // row-major

  static TwoDimTruthTable build(const TruthTable& f,
                                const Partition& partition);

  std::uint8_t at(std::size_t r, std::size_t c) const noexcept {
    return cells[r * cols + c];
  }
};

}  // namespace dalut::core
