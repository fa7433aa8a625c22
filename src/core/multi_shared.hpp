// Extension: non-disjoint decomposition with an arbitrary shared-set size
// |C| (the paper fixes |C| = 1 "so that the hardware cost is not increased
// too much"; this module quantifies that design choice).
//
// With a shared set C of s bound inputs, f(X) = F(phi(B), A, C) splits into
// 2^s conditional disjoint sub-decompositions over B \ C, one per
// assignment of C, implemented by 2^s free tables selected by a 2^s:1 mux.
// |C| = 0 degenerates to the normal mode and |C| = 1 to the paper's ND mode,
// so one optimizer covers the whole family.
#pragma once

#include <span>

#include "core/decomposition.hpp"
#include "core/eval_workspace.hpp"
#include "core/opt_for_part.hpp"
#include "util/rng.hpp"
#include "util/run_control.hpp"

namespace dalut::core {

/// A generalized non-disjoint decomposition setting.
struct MultiSharedSetting {
  double error = std::numeric_limits<double>::infinity();
  Partition partition{2, 0b01};
  /// Shared inputs C (subset of the bound set); empty = disjoint.
  std::vector<unsigned> shared_bits;
  /// One (V, T) pair per assignment of C, indexed by the packed value of
  /// the shared bits (ascending input-index order).
  std::vector<std::vector<std::uint8_t>> patterns;  ///< 2^|C| of 2^(b-|C|)
  std::vector<std::vector<RowType>> types;          ///< 2^|C| of 2^(n-b)

  bool valid() const noexcept {
    return error != std::numeric_limits<double>::infinity();
  }
};

/// Optimizes the 2^|C| conditional sub-decompositions for a FIXED shared
/// set; error = total weighted cost (same convention as the cost arrays).
/// The 2^|C| conditioned matrices are sliced from one full gather via the
/// EvalWorkspace engine.
MultiSharedSetting optimize_for_shared_set(const Partition& partition,
                                           std::span<const unsigned> shared,
                                           const CostView& costs,
                                           const OptForPartParams& params,
                                           util::Rng& rng);

/// Enumerates every size-`shared_count` subset of the bound set and returns
/// the best setting (shared_count in [0, bound_size)). A tripped `control`
/// stops the enumeration between combinations; the best setting over the
/// combinations tried so far is returned (invalid if none completed).
MultiSharedSetting optimize_multi_shared(const Partition& partition,
                                         unsigned shared_count,
                                         const CostView& costs,
                                         const OptForPartParams& params,
                                         util::Rng& rng,
                                         util::RunControl* control = nullptr);

/// Functional realization: bound table over B plus 2^|C| free tables.
class MultiSharedBit {
 public:
  static MultiSharedBit realize(const MultiSharedSetting& setting);

  bool eval(InputWord x) const noexcept;

  const Partition& partition() const noexcept { return partition_; }
  const std::vector<unsigned>& shared_bits() const noexcept {
    return shared_bits_;
  }
  unsigned shared_count() const noexcept {
    return static_cast<unsigned>(shared_bits_.size());
  }
  /// 2^b bound entries + 2^|C| free tables of 2^(n-b+1) entries each.
  std::size_t stored_entries() const noexcept;
  std::size_t num_free_tables() const noexcept { return free_tables_.size(); }
  const std::vector<std::uint8_t>& bound_table() const noexcept {
    return bound_table_;
  }
  const std::vector<std::uint8_t>& free_table(std::size_t j) const {
    return free_tables_.at(j);
  }

 private:
  Partition partition_{2, 0b01};
  std::vector<unsigned> shared_bits_;
  std::uint32_t shared_input_mask_ = 0;
  std::vector<std::uint8_t> bound_table_;
  std::vector<std::vector<std::uint8_t>> free_tables_;
};

}  // namespace dalut::core
