// BS-SA: the paper's improved approximate decomposition algorithm
// (Algorithm 1). Round 1 runs a beam search over per-bit decomposition
// settings with the predictive LSB model (Sec. III-B); later rounds greedily
// re-optimize each bit with the SA-based FindBestSettings (Algorithm 2) and,
// when a reconfigurable architecture is targeted, select each bit's
// operating mode (BTO / normal / ND) with the delta rules of Sec. IV.
#pragma once

#include <cstdint>
#include <functional>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "core/checkpoint.hpp"
#include "core/mode_select.hpp"
#include "core/sa_search.hpp"

namespace dalut::core {

struct BssaParams {
  unsigned bound_size = 9;  ///< b
  unsigned rounds = 5;      ///< R
  unsigned beam_width = 3;  ///< N_beam
  SaParams sa{};            ///< Algorithm 2 parameters (P = 500 in paper)
  ModePolicy modes{};       ///< normal_only() reproduces Sec. V-A
  /// ND settings are evaluated on this many of the best partitions found by
  /// the normal-mode search (the full per-partition shared-bit enumeration
  /// is run on each); keeps ND selection tractable.
  unsigned nd_candidates = 4;
  /// Objective the optimization minimizes (the paper uses MED).
  CostMetric metric = CostMetric::kMed;
  /// LSB model of the first round. kPredictive is the paper's contribution
  /// (Sec. III-B); kAccurateFill reproduces DALTA's round-1 model and exists
  /// for ablation studies.
  LsbModel first_round_model = LsbModel::kPredictive;
  std::uint64_t seed = 1;
  util::ThreadPool* pool = nullptr;

  /// Cooperative deadline/cancellation, polled at bit-step and SA-sweep
  /// boundaries. A stopped run returns best-so-far settings (with
  /// deterministic fallbacks for bits the beam search never reached) and
  /// reports the stop reason in DecompositionResult::status.
  util::RunControl* control = nullptr;
  /// Crash-safe checkpointing: after every `checkpoint_every` completed
  /// bit-steps the full search state is handed to `checkpoint_sink`
  /// (0 or an empty sink = off). The sink runs on the search thread.
  unsigned checkpoint_every = 0;
  std::function<void(const SearchCheckpoint&)> checkpoint_sink;
  /// State previously produced by the sink; when set, the run restores it
  /// and continues, producing output bit-identical to an uninterrupted run
  /// with the same parameters. Mismatched parameters are rejected with
  /// std::invalid_argument.
  const SearchCheckpoint* resume = nullptr;

  /// Throws std::invalid_argument, beginning with its manifest key, for the
  /// first parameter out of range, `sa` and `modes` included (rounds >= 2
  /// with BTO or ND on). run_bssa calls it first.
  void validate(unsigned num_inputs) const;
};

DecompositionResult run_bssa(const MultiOutputFunction& g,
                             const InputDistribution& dist,
                             const BssaParams& params);

}  // namespace dalut::core
