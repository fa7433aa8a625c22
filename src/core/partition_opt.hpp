// Per-partition setting optimization: thin wrappers that build the cost
// matrix for a candidate partition and run the matching OptForPart variant,
// returning a complete Setting. These are the units of work both DALTA's
// random sampling and BS-SA's simulated annealing parallelize over.
//
// Each takes a CostView and routes through the thread-local EvalWorkspace's
// prepare() (zero-allocation gathers; certified cost arrays in the integer
// layout, others in a reference CostMatrix). Pass a BitCostArrays as it is:
// its view carries the exactness certificate, while a raw CostView(c0, c1)
// carries none and runs the reference OptForPart.
#pragma once

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

}  // namespace dalut::core
