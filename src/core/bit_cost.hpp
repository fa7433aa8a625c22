// Per-input cost arrays for optimizing one output bit.
//
// c_v(X) = p(X) * |Bin(G(X)) - Bin(Yhat)| where Yhat's bit k is v and the
// other bits follow the chosen LSB model:
//
//  * kCurrentApprox - all other bits from the current approximation
//    (rounds >= 2 of both algorithms).
//  * kAccurateFill  - MSBs from the approximation, not-yet-optimized LSBs
//    from the accurate function (DALTA's first round, Sec. II-B).
//  * kPredictive    - MSBs from the approximation, LSBs set to the values an
//    error-minimizing optimizer would later pick (BS-SA's first round,
//    Sec. III-B three-case model).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/input_distribution.hpp"
#include "core/multi_output_function.hpp"
#include "util/thread_pool.hpp"

namespace dalut::core {

enum class LsbModel {
  kCurrentApprox,
  kAccurateFill,
  kPredictive,
};

/// Error metric the optimization minimizes. The whole algorithm family works
/// for any metric that decomposes as sum_X p(X) loss(Y, Yhat):
///  * kMed - |Y - Yhat| (the paper's metric),
///  * kMse - (Y - Yhat)^2,
///  * kErrorRate - [Y != Yhat].
/// The predictive LSB model (Sec. III-B) carries over: the LSB assignment
/// minimizing |Y - Yhat| also minimizes its square, and the error-rate loss
/// is 0 iff the MSBs already match exactly.
enum class CostMetric {
  kMed,
  kMse,
  kErrorRate,
};

struct BitCostArrays {
  std::vector<double> c0;  ///< weighted cost of approximating bit k as 0
  std::vector<double> c1;  ///< weighted cost of approximating bit k as 1
  /// Process-unique id of the arrays' contents, stamped by build_bit_costs.
  /// The evaluation engine's gather memo keys on it (core/eval_workspace.hpp);
  /// 0 means "unknown provenance" and disables caching.
  std::uint64_t epoch = 0;
  /// Shared by every copy of one build_bit_costs result (empty for hand-built
  /// arrays). Once the last copy is gone no cost arrays carry `epoch`, so
  /// the gather memo's entries for it could never hit again: the deleter
  /// drops them through release_eval_cache_epoch().
  std::shared_ptr<const void> lease;
};

/// Next free epoch id (atomic, never returns 0). build_bit_costs stamps each
/// result; callers that mutate cost arrays in place must re-stamp them.
std::uint64_t next_cost_epoch() noexcept;

/// `approx_values` holds the current approximation Ghat(X) per input; for the
/// first-round models only its bits above k are read. `k` is 0-based.
/// When `pool` is given and the 2^n domain is large (n >= 14), the per-input
/// loop splits over the pool; every input writes only its own slot, so the
/// result is identical at any worker count.
BitCostArrays build_bit_costs(const MultiOutputFunction& g,
                              const std::vector<OutputWord>& approx_values,
                              unsigned k, LsbModel model,
                              const InputDistribution& dist,
                              CostMetric metric = CostMetric::kMed,
                              util::ThreadPool* pool = nullptr);

}  // namespace dalut::core
