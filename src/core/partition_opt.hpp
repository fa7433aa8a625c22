// Per-partition setting optimization: thin wrappers that build the cost
// matrix for a candidate partition and run the matching OptForPart variant,
// returning a complete Setting. These are the units of work both DALTA's
// random sampling and BS-SA's simulated annealing parallelize over.
//
// The primary overloads take a CostView and route through the thread-local
// EvalWorkspace's prepare() (zero-allocation gathers; certified cost arrays
// in the integer layout, others interleaved); the span overloads forward
// with an unstamped, uncertified view, which gathers from the split arrays
// but still uses the workspace kernels.
#pragma once

#include <span>

#include "core/eval_workspace.hpp"
#include "core/opt_for_part.hpp"
#include "core/setting.hpp"

namespace dalut::core {

/// Best normal-mode (disjoint) setting for `partition`.
Setting optimize_normal(const Partition& partition, const CostView& costs,
                        const OptForPartParams& params, util::Rng& rng);

/// Best BTO setting (type vector forced to all-Pattern) for `partition`.
Setting optimize_bto(const Partition& partition, const CostView& costs);

/// Best non-disjoint setting for `partition`: enumerates every bound input
/// as the shared bit x_s, solves the two conditional disjoint sub-problems
/// (Sec. IV-B1 / Eq. (2)) on slices of one full matrix, and keeps the
/// cheapest composition.
Setting optimize_nondisjoint(const Partition& partition,
                             const CostView& costs,
                             const OptForPartParams& params, util::Rng& rng);

inline Setting optimize_normal(const Partition& partition,
                               std::span<const double> c0,
                               std::span<const double> c1,
                               const OptForPartParams& params,
                               util::Rng& rng) {
  return optimize_normal(partition, CostView(c0, c1), params, rng);
}

inline Setting optimize_bto(const Partition& partition,
                            std::span<const double> c0,
                            std::span<const double> c1) {
  return optimize_bto(partition, CostView(c0, c1));
}

inline Setting optimize_nondisjoint(const Partition& partition,
                                    std::span<const double> c0,
                                    std::span<const double> c1,
                                    const OptForPartParams& params,
                                    util::Rng& rng) {
  return optimize_nondisjoint(partition, CostView(c0, c1), params, rng);
}

}  // namespace dalut::core
