// The DALTA baseline decomposition algorithm (Meng et al., ICCAD 2021;
// paper Sec. II-B): R rounds of greedy per-bit optimization, each picking
// the best of P randomly sampled partitions; not-yet-optimized LSBs are
// modelled with their accurate values in the first round.
#pragma once

#include <cstdint>
#include <functional>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "core/checkpoint.hpp"
#include "core/input_distribution.hpp"
#include "core/multi_output_function.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {

struct DaltaParams {
  unsigned bound_size = 9;        ///< b
  unsigned rounds = 5;            ///< R
  unsigned partition_limit = 1000;  ///< P: random candidate partitions
  unsigned init_patterns = 30;    ///< Z, forwarded to OptForPart
  CostMetric metric = CostMetric::kMed;  ///< objective to minimize
  std::uint64_t seed = 1;
  util::ThreadPool* pool = nullptr;  ///< optional; null = sequential

  /// Same robustness contract as BssaParams (see bssa.hpp): cooperative
  /// stop polled at bit-step boundaries, checkpoints cut every
  /// `checkpoint_every` completed bit-steps, and `resume` continues a
  /// checkpointed run bit-identically to an uninterrupted one.
  util::RunControl* control = nullptr;
  unsigned checkpoint_every = 0;
  std::function<void(const SearchCheckpoint&)> checkpoint_sink;
  const SearchCheckpoint* resume = nullptr;

  /// Throws std::invalid_argument, beginning with its manifest key, for the
  /// first parameter out of range. run_dalta calls it first.
  void validate(unsigned num_inputs) const;
};

DecompositionResult run_dalta(const MultiOutputFunction& g,
                              const InputDistribution& dist,
                              const DaltaParams& params);

}  // namespace dalut::core
