// Simulated-annealing FindBestSettings (paper Algorithm 2).
//
// Walks the partition-neighbourhood graph: each step evaluates N_nb
// neighbours of the current partition with OptForPart, moves to the best
// neighbour if it improves, or with probability exp((E_w - E*_nb)/(tau E*))
// otherwise; tau cools by alpha per step. A shared visited-set Phi caches
// per-partition errors, bounds the search at P partitions, and stops the
// walk after 3 stagnant iterations. Returns the top N_beam settings seen.
//
// As in the paper's implementation, several SA chains share one Phi (they
// ran 10 chains across 44 threads). The chains advance in lock-step sweeps:
// every sweep the fresh neighbour proposals of *all* active chains are
// gathered into a single deduplicated batch, the batch is evaluated with one
// parallel_for over the optional thread pool, and then every chain takes its
// accept/reject decision against the updated Phi. Proposal generation, the
// batch merge, and the decisions stay serial and index-ordered with
// pre-forked per-chain/per-item RNGs, so results are bit-identical for a
// given seed at any worker count (see docs/parallelism.md).
#pragma once

#include <span>

#include "core/partition_opt.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {

struct SaParams {
  unsigned partition_limit = 500;    ///< P: max distinct partitions visited
  unsigned num_neighbours = 5;       ///< N_nb
  double initial_temperature = 0.2;  ///< tau_0
  double cooling = 0.9;              ///< alpha
  unsigned init_patterns = 30;       ///< Z, forwarded to OptForPart
  unsigned max_stagnant = 3;         ///< stop after this many stale steps
  /// Simultaneous SA walks sharing Phi, advanced in lock-step sweeps whose
  /// combined neighbour proposals form one evaluation batch (the paper's
  /// implementation runs 10). More chains = more restarts within the same
  /// P budget and wider batches for the pool: better stability and
  /// parallel efficiency, less depth per walk.
  unsigned chains = 10;
};

struct SaSearchResult {
  /// Top settings, ascending error; at most N_beam entries, one per
  /// distinct partition.
  std::vector<Setting> top;
  /// Best BTO settings per visited partition (ascending error), populated
  /// when `track_bto`; used for mode selection without a second search.
  std::vector<Setting> top_bto;
  std::size_t partitions_visited = 0;
  /// kCompleted, or how a RunControl stopped the walk early (the tops then
  /// hold the best settings of every *completed* sweep).
  util::RunStatus status = util::RunStatus::kCompleted;
};

/// FindBestSettings over the cost arrays of one output bit.
/// `num_inputs`/`bound_size` define the partition space. `pool` may be null.
/// Candidate evaluation routes through the EvalWorkspace engine; an
/// epoch-stamped CostView (e.g. a BitCostArrays) lets each worker gather
/// from its mirror of the arrays (int32 losses for the integer layout).
///
/// `control` (optional) is polled at sweep boundaries: a tripped control
/// ends the walk after the last fully merged sweep, so the returned tops
/// are always a valid (if shallower) search result and an untripped control
/// never perturbs the bit-exact trajectory.
SaSearchResult find_best_settings(unsigned num_inputs, unsigned bound_size,
                                  const CostView& costs, unsigned n_beam,
                                  const SaParams& params, util::Rng& rng,
                                  util::ThreadPool* pool, bool track_bto,
                                  util::RunControl* control = nullptr);

inline SaSearchResult find_best_settings(unsigned num_inputs,
                                         unsigned bound_size,
                                         std::span<const double> c0,
                                         std::span<const double> c1,
                                         unsigned n_beam,
                                         const SaParams& params,
                                         util::Rng& rng,
                                         util::ThreadPool* pool,
                                         bool track_bto,
                                         util::RunControl* control = nullptr) {
  return find_best_settings(num_inputs, bound_size, CostView(c0, c1), n_beam,
                            params, rng, pool, track_bto, control);
}

}  // namespace dalut::core
