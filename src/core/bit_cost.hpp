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
  /// The evaluation engine keys its per-thread source mirror on it
  /// (core/eval_workspace.hpp); 0 means "unknown provenance" and makes the
  /// gather read the split arrays directly.
  std::uint64_t epoch = 0;
  /// Exactness certificate, set by build_bit_costs: every cost is an
  /// integer loss below 2^loss_bits times 2^-n, and every sum OptForPart
  /// takes over one output bit's costs is exactly representable, so the
  /// sums are independent of the order they are taken in. Holds for a
  /// uniform distribution when n + loss_bits + 2 <= 52 (loss_bits is m for
  /// kMed, 2m for kMse, 1 for kErrorRate). The evaluation engine runs
  /// certified arrays on integer losses cost * 2^n, in int32 lanes when
  /// every sum fits one and in int64 lanes otherwise
  /// (core/eval_workspace.hpp).
  /// Like `epoch`, the certificate describes the contents. Whoever edits
  /// the arrays must re-stamp `epoch` (or clear it), since a thread's source
  /// mirror would otherwise keep serving the old contents, and must keep
  /// both fields true to the new contents.
  bool exact = false;
  /// Bits of the largest loss when `exact` (every loss is an integer below
  /// 2^loss_bits); 0 without the certificate.
  unsigned loss_bits = 0;
};

/// Next free epoch id (atomic, never returns 0). build_bit_costs stamps each
/// result; callers that mutate cost arrays in place must re-stamp them.
std::uint64_t next_cost_epoch() noexcept;

/// `approx_values` holds the current approximation Ghat(X) per input; for the
/// first-round models only its bits above k are read. `k` is 0-based. The
/// result carries a fresh epoch and its exactness certificate.
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
