// Candidate-evaluation engine for the decomposition searches.
//
// Every candidate partition the BS-SA / DALTA searches touch needs the same
// sequence: scatter the per-input cost arrays into a 2D cost matrix, then run
// an OptForPart variant on it. With the searches themselves parallelized
// (PR 1), that per-candidate kernel dominates runtime. EvalWorkspace is the
// allocation-free, cache-aware implementation of that kernel that all
// production paths (SA chains, beam extension, the ND round, DALTA, and the
// multi-shared generalization) route through:
//
//  * Thread-local scratch. Matrices, row sums, restart state and the
//    per-epoch loss mirrors all live in per-thread buffers that are reused
//    across candidates, so steady-state evaluation performs no heap
//    allocations (only the small output pattern/type vectors of a result
//    are freshly allocated).
//
//  * Integer layout. The searches' certified arrays (BitCostArrays::exact)
//    hold integer losses times 2^-n. prepare() gathers them straight into
//    losses cost * 2^n: int32 lanes when log2(max(rows, cols)) + loss_bits
//    + 1 <= 31, which bounds every row sum, balance and Pattern/Complement
//    cost by 2^31, and int64 lanes otherwise (the certificate keeps that
//    sum below 2^52). The layout keeps the differences loss1 - loss0
//    row-major (pattern step, BTO column sums) and column-major (types
//    step), and the row sums. One gather walk, transpose and slice serve
//    both element types, and the per-thread source mirror of an epoch's
//    arrays holds its losses in the candidate's element type.
//
//  * Exact incremental sweeps. Integer sums are exact, so a sum does not
//    depend on the order its terms are added in. The restarts run one at a
//    time and keep their sums: each row's Pattern cost, and each column's
//    balance if_zero - if_one (`if_one < if_zero` is then exactly
//    `balance > 0`). The pattern step moves the balances only by the rows
//    whose type changed (found by a byte-vector compare of the types), and
//    the types step adds +-(loss1 - loss0) only for the columns whose bit
//    flipped; after the first alternation a few percent of either change
//    per alternation. The sweeps run on full-register int32 or int64
//    vectors and return ldexp(total, -n), the reference's double exactly.
//
//  * Two routes. opt_for_part() runs the incremental sweeps on a
//    certified candidate's integer losses, and hands any other candidate,
//    gathered straight into the reference's split CostMatrix, to the
//    reference opt_for_part(), whose summation order is the one such a
//    matrix's results depend on. The searches' uniform cost arrays always
//    carry the certificate; non-uniform weights, MSE with n + 2m + 2 > 52
//    and raw CostView(c0, c1) spans do not.
//
//  * Conditioned slicing. The conditioned matrices of the non-disjoint and
//    multi-shared modes are column slices of the full matrix, so they are
//    sliced from it (sequential reads) instead of re-scattering the 2^n cost
//    arrays once per shared assignment.
//
// CostMatrix::build + opt_for_part remain as the reference implementation;
// tests assert the engine reproduces them bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bit_cost.hpp"
#include "core/opt_for_part.hpp"
#include "core/partition.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dalut::core {

/// Lightweight view of one output bit's cost arrays. `epoch` identifies the
/// arrays' contents for the per-thread source mirror; 0 (the default for
/// raw spans) means "unknown provenance", and the gather then reads the
/// split arrays directly. `exact` and `loss_bits` are the arrays'
/// BitCostArrays certificate; raw spans carry none.
struct CostView {
  std::span<const double> c0;
  std::span<const double> c1;
  std::uint64_t epoch = 0;
  bool exact = false;
  unsigned loss_bits = 0;

  CostView() = default;
  CostView(std::span<const double> cost0, std::span<const double> cost1,
           std::uint64_t epoch_id = 0)
      : c0(cost0), c1(cost1), epoch(epoch_id) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  CostView(const BitCostArrays& costs)
      : c0(costs.c0),
        c1(costs.c1),
        epoch(costs.epoch),
        exact(costs.exact),
        loss_bits(costs.loss_bits) {}
};

/// Where prepare() gathers a candidate and how opt_for_part() runs it.
enum class CandidateRoute : std::uint8_t {
  kReference,  ///< split CostMatrix, reference opt_for_part()
  kInt32,      ///< integer layout, int32 lanes
  kInt64,      ///< integer layout, int64 lanes
};

/// The route of `partition` under `costs`: certified arrays (with
/// loss_bits) take int32 lanes when log2(max(rows, cols)) + loss_bits + 1
/// <= 31 and int64 lanes when it is at most 63; all others the reference.
CandidateRoute candidate_route(const Partition& partition,
                               const CostView& costs) noexcept;

/// A certified matrix as integer losses of type T (int32 or int64): cell
/// (r, c) costs loss * 2^-scale_bits. See "Integer layout" above.
template <class T>
struct IntegerCostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t rows_pad = 0;  ///< rows rounded up to whole lane vectors
  unsigned scale_bits = 0;   ///< n
  /// loss0, row-major (rows * cols), kept only for slicing (prepare()).
  util::aligned_vector<T> loss0;
  /// loss1 - loss0, row-major (rows * cols).
  util::aligned_vector<T> diff_rows;
  /// loss1 - loss0, column-major (cols * rows_pad, 0 in padding rows).
  util::aligned_vector<T> diff_cols;
  /// Row sums of loss0 and loss1 (rows_pad, 0 in padding rows).
  util::aligned_vector<T> sums0, sums1;
};

/// A candidate's matrix in the calling thread's scratch, as prepare() or
/// conditioned() left it. A prepare() handle is valid until the next
/// prepare() call on the same thread, a conditioned() handle until the
/// next conditioned() call.
class CandidateRef {
 public:
  CandidateRoute route() const noexcept {
    if (int32_ != nullptr) return CandidateRoute::kInt32;
    if (int64_ != nullptr) return CandidateRoute::kInt64;
    return CandidateRoute::kReference;
  }
  /// The gathered matrix of a reference-route candidate (else nullptr).
  const CostMatrix* reference() const noexcept { return reference_; }
  /// The integer layout of an int32 / int64 candidate (else nullptr).
  template <class T>
  const IntegerCostMatrix<T>* integer() const noexcept {
    if constexpr (sizeof(T) == sizeof(std::int32_t)) {
      return int32_;
    } else {
      return int64_;
    }
  }

 private:
  friend class EvalWorkspace;
  const CostMatrix* reference_ = nullptr;
  const IntegerCostMatrix<std::int32_t>* int32_ = nullptr;
  const IntegerCostMatrix<std::int64_t>* int64_ = nullptr;
};

/// Counters of the gather kernels.
struct EvalCacheStats {
  std::uint64_t gathers = 0;  ///< scattered full-matrix gathers performed
  std::uint64_t slices = 0;   ///< conditioned matrices sliced
  /// Always 0: no matrix outlives its thread's scratch. Kept so that
  /// existing readers still compile.
  std::uint64_t bytes = 0;
};

EvalCacheStats eval_cache_stats();
/// Zeroes the counters (tests and benchmarks). The telemetry registry's
/// evalcache.* counters are not touched.
void reset_eval_cache();

class EvalWorkspace {
 public:
  /// The calling thread's workspace (created on first use, reused after).
  static EvalWorkspace& local();

  /// The searches' entry point: the candidate matrix of `partition` under
  /// `costs`, gathered once for its candidate_route(). Counts as one
  /// gather. `sliced` keeps what conditioned() needs: the ND and
  /// multi-shared modes set it.
  CandidateRef prepare(const Partition& partition, const CostView& costs,
                       bool sliced = false);

  /// prepare() under its earlier name, for existing callers.
  CandidateRef full_matrix(const Partition& partition, const CostView& costs) {
    return prepare(partition, costs);
  }

  /// Conditioned matrix (the |C| >= 1 generalization of Sec. IV-B1) sliced
  /// from a candidate of `partition` (integer candidates must have been
  /// prepared with `sliced`). `shared_mask` selects the shared bound inputs
  /// (input-space mask, nonempty subset of the bound set) and
  /// `shared_values` their packed assignment.
  CandidateRef conditioned(const CandidateRef& full,
                           const Partition& partition,
                           std::uint32_t shared_mask,
                           std::uint32_t shared_values);

  /// Alternating (V, T) optimization; bit-identical to the reference
  /// opt_for_part() on the reference matrix of the same costs, with the
  /// same RNG state.
  VtResult opt_for_part(const CandidateRef& candidate,
                        const OptForPartParams& params, util::Rng& rng);
  /// BTO variant; bit-identical to the reference opt_for_part_bto().
  VtResult opt_for_part_bto(const CandidateRef& candidate);

 private:
  EvalWorkspace() = default;

  /// Per-restart sums of the exact sweeps, in the matrix's element type.
  template <class T>
  struct ExactScratch {
    util::aligned_vector<T> match;    ///< Pattern-type row costs (rows_pad)
    util::aligned_vector<T> balance;  ///< if_zero - if_one per column
    std::vector<const T*> plus_rows, minus_rows;  ///< balance updates
  };
  /// Everything one element type's route keeps per thread.
  template <class T>
  struct IntegerScratch {
    IntegerCostMatrix<T> full;
    IntegerCostMatrix<T> cond;
    ExactScratch<T> exact;
    util::aligned_vector<T> col_diffs;  ///< BTO column sums
  };
  template <class T>
  IntegerScratch<T>& integer_scratch() noexcept {
    if constexpr (sizeof(T) == sizeof(std::int32_t)) {
      return int32_;
    } else {
      return int64_;
    }
  }

  /// The thread's source-mirror slot for `epoch` in losses of
  /// `lane_bytes`; `fresh` is set when the slot was (re)assigned and must
  /// be filled.
  struct SourceSlot;
  SourceSlot& source_slot(std::uint64_t epoch, unsigned lane_bytes,
                          bool& fresh);
  /// The epoch's losses as T, per 4-input block the four loss0 then the
  /// four loss1 - loss0 (nullptr when epoch == 0).
  template <class T>
  const T* loss_source(const CostView& costs, unsigned num_inputs);
  template <class T>
  void gather_integer(IntegerCostMatrix<T>& out, const Partition& partition,
                      const CostView& costs, bool keep_losses);
  void gather_reference(CostMatrix& out, const Partition& partition,
                        const CostView& costs);
  /// Fills cond_cols_ with the full-matrix column of each conditioned
  /// column and returns their count.
  std::size_t condition_columns(std::size_t full_cols,
                                const Partition& partition,
                                std::uint32_t shared_mask,
                                std::uint32_t shared_values);
  template <class T>
  const IntegerCostMatrix<T>& condition_integer(const IntegerCostMatrix<T>& f,
                                                std::size_t cols);

  template <class T>
  VtResult integer_opt_for_part(const IntegerCostMatrix<T>& matrix,
                                const OptForPartParams& params,
                                util::Rng& rng);
  /// The Z restarts, one at a time, each drawing its pattern as the
  /// reference does. `Ops` picks the element type and the lane width.
  /// Adds the restarts' alternations to `alternations`.
  template <class Ops>
  VtResult exact_restarts(const IntegerCostMatrix<typename Ops::T>& matrix,
                          const OptForPartParams& params, util::Rng& rng,
                          std::uint64_t& alternations);
  /// One restart from the pattern drawn into pattern_: alternates with
  /// incrementally updated sums until no improvement (or `max_iterations`).
  /// Leaves the restart's V in pattern_ and T in row_types_, and returns
  /// its total.
  template <class Ops>
  typename Ops::Sum exact_restart(
      const IntegerCostMatrix<typename Ops::T>& matrix,
      ExactScratch<typename Ops::T>& scratch, unsigned max_iterations,
      std::uint64_t& alternations);

  // Per-epoch loss mirrors (LRU over a few slots, so nested parallel
  // sections that interleave work from different epochs on one thread do
  // not thrash a single buffer). A slot holds int32 or int64 losses, never
  // both.
  struct SourceSlot {
    std::uint64_t epoch = 0;
    std::uint64_t last_use = 0;
    unsigned lane_bytes = 0;
    util::aligned_vector<std::int32_t> losses32;
    util::aligned_vector<std::int64_t> losses64;

    template <class T>
    util::aligned_vector<T>& losses() noexcept {
      if constexpr (sizeof(T) == sizeof(std::int32_t)) {
        return losses32;
      } else {
        return losses64;
      }
    }
  };
  std::array<SourceSlot, 4> sources_;
  std::uint64_t source_tick_ = 0;

  IntegerScratch<std::int32_t> int32_;
  IntegerScratch<std::int64_t> int64_;
  CostMatrix reference_full_;
  CostMatrix reference_cond_;
  std::vector<std::uint32_t> cond_cols_;  ///< reduced col -> full col

  // Restart state of the exact sweeps (exact_restart). The type arrays are
  // padded to whole 64-row words for the changed-row compare.
  std::vector<std::uint8_t> row_types_;     // T
  std::vector<std::uint8_t> summed_types_;  // the T the balances reflect
  std::vector<std::uint64_t> pattern_;      // V, one bit per column
  std::vector<std::uint64_t> raised_, lowered_;  // columns flipped to 1 / 0
};

}  // namespace dalut::core
