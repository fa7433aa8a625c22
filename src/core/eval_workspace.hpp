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
//  * Interleaved layout. InterleavedCostMatrix stores {cost0, cost1} pairs
//    adjacently. Every consumer reads both costs of a cell (or one of the
//    two, data-dependently), so pairing them puts each cell on one cache
//    line instead of two. The per-epoch cost arrays are likewise mirrored
//    into an interleaved source copy once per thread, halving the random
//    cache-line traffic of the 2^n scattered gather.
//
//  * Thread-local scratch. Matrices, deposit tables, row sums, cost
//    differences and restart state all live in per-thread buffers that are
//    reused across candidates, so steady-state evaluation performs no heap
//    allocations (only the small output pattern/type vectors of a result
//    are freshly allocated).
//
//  * Exact incremental sweeps. A matrix with the exactness certificate
//    (InterleavedCostMatrix::exact) has every sum the sweeps take exact, so
//    a sum does not depend on the order its terms are added in. Its
//    restarts run one at a time and keep their sums: each row's Pattern
//    cost, and each column's balance if_zero - if_one (`if_one < if_zero`
//    is then exactly `balance > 0`). The pattern step moves the balances
//    only by the rows whose type changed (found by a byte-vector compare of
//    the types), and the types step adds +-(cost1 - cost0) only for the
//    columns whose bit flipped; after the first alternation a few percent
//    of either change per alternation. Results stay bit-identical to the
//    reference.
//
//  * Integer layout. The searches' certified arrays hold integer losses
//    times 2^-n. prepare() gathers them straight into int32 losses
//    cost * 2^n when log2(max(rows, cols)) + loss_bits + 1 <= 31, which
//    bounds every row sum, balance and Pattern/Complement cost by 2^31.
//    The layout keeps the differences loss1 - loss0 row-major (pattern
//    step, BTO column sums) and column-major (types step), and the row
//    sums; the incremental sweeps run on full-register int32 vectors and
//    return ldexp(total, -n), the reference's double exactly. Certified
//    arrays beyond the bound take the same kernels on doubles. The
//    per-thread source mirror of such arrays holds their int32 losses
//    instead of interleaved doubles.
//
//  * One algorithm, three routes. opt_for_part() runs the incremental
//    sweeps on int32 losses (integer candidates), on doubles (certified
//    matrices beyond the integer bound), and hands a matrix without the
//    certificate to the reference opt_for_part(), whose summation order is
//    the one such a matrix's results depend on. The searches' uniform cost
//    arrays always carry the certificate; non-uniform weights, MSE with
//    n + 2m + 2 > 52 and raw CostView(c0, c1) spans do not.
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
#include <unordered_map>
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

/// Whether prepare() gathers `partition` under `costs` into the integer
/// layout: the arrays are certified and
/// log2(max(rows, cols)) + loss_bits + 1 <= 31.
bool integer_admitted(const Partition& partition,
                      const CostView& costs) noexcept;

/// Cost matrix with the two per-cell costs stored adjacently:
/// cells[2 * (r * cols + c)] = cost0, cells[2 * (r * cols + c) + 1] = cost1.
/// Cell storage is 64-byte aligned (the SIMD kernels' alignment contract,
/// docs/performance.md). `exact` carries the certificate of the cost arrays
/// the cells came from (BitCostArrays::exact), which lets opt_for_part
/// update its sums incrementally; a matrix whose sums are not all exact
/// must not set it.
struct InterleavedCostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  util::aligned_vector<double> cells;
  bool exact = false;

  double at0(std::size_t r, std::size_t c) const noexcept {
    return cells[2 * (r * cols + c)];
  }
  double at1(std::size_t r, std::size_t c) const noexcept {
    return cells[2 * (r * cols + c) + 1];
  }
};

/// Non-owning handle to the calling thread's full-matrix scratch, valid
/// until the next full_matrix() call on the same thread. Copying the handle
/// never copies the matrix.
class MatrixRef {
 public:
  const InterleavedCostMatrix& get() const noexcept { return *matrix_; }
  // NOLINTNEXTLINE(google-explicit-constructor): handle acts as the matrix.
  operator const InterleavedCostMatrix&() const noexcept { return *matrix_; }

 private:
  friend class EvalWorkspace;
  explicit MatrixRef(const InterleavedCostMatrix* matrix) noexcept
      : matrix_(matrix) {}

  const InterleavedCostMatrix* matrix_;
};

/// A certified matrix as integer losses: cell (r, c) costs
/// loss * 2^-scale_bits. See "Integer layout" above.
struct IntegerCostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t rows_pad = 0;  ///< rows rounded up to whole Vec32 vectors
  unsigned scale_bits = 0;   ///< n
  /// loss0, row-major (rows * cols), kept only for slicing (prepare()).
  util::aligned_vector<std::int32_t> loss0;
  /// loss1 - loss0, row-major (rows * cols).
  util::aligned_vector<std::int32_t> diff_rows;
  /// loss1 - loss0, column-major (cols * rows_pad, 0 in padding rows).
  util::aligned_vector<std::int32_t> diff_cols;
  /// Row sums of loss0 and loss1 (rows_pad, 0 in padding rows).
  util::aligned_vector<std::int32_t> sums0, sums1;
};

/// A candidate's matrix in the calling thread's scratch, as prepare() or
/// conditioned() left it: the integer layout (is_integer()) or the
/// interleaved matrix. A prepare() handle is valid until the next prepare()
/// or full_matrix() call on the same thread, a conditioned() handle until
/// the next conditioned() call.
class CandidateRef {
 public:
  bool is_integer() const noexcept { return ints_ != nullptr; }

 private:
  friend class EvalWorkspace;
  const InterleavedCostMatrix* cells_ = nullptr;
  const IntegerCostMatrix* ints_ = nullptr;
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

  /// Full cost matrix of `partition` under `costs`, gathered into
  /// thread-local scratch (valid until the next full_matrix() call).
  MatrixRef full_matrix(const Partition& partition, const CostView& costs);

  /// Conditioned matrix (the |C| >= 1 generalization of Sec. IV-B1) sliced
  /// from an already-built full matrix of `partition`. `shared_mask` selects
  /// the shared bound inputs (input-space mask, nonempty subset of the bound
  /// set) and `shared_values` their packed assignment. The returned
  /// reference is valid until the next conditioned() call on this thread.
  const InterleavedCostMatrix& conditioned(const InterleavedCostMatrix& full,
                                           const Partition& partition,
                                           std::uint32_t shared_mask,
                                           std::uint32_t shared_values);

  /// Alternating (V, T) optimization; bit-identical to the reference
  /// opt_for_part() for the same matrix contents and RNG state (a matrix
  /// without the exactness certificate runs the reference itself).
  VtResult opt_for_part(const InterleavedCostMatrix& matrix,
                        const OptForPartParams& params, util::Rng& rng);

  /// BTO variant; bit-identical to the reference opt_for_part_bto().
  VtResult opt_for_part_bto(const InterleavedCostMatrix& matrix);

  /// The searches' entry point: the candidate matrix of `partition` under
  /// `costs`, gathered once into the integer layout when
  /// integer_admitted(), into the interleaved matrix otherwise (as
  /// full_matrix() does). Counts as one gather either way.
  /// `sliced` keeps what conditioned() needs: the ND and multi-shared
  /// modes set it.
  CandidateRef prepare(const Partition& partition, const CostView& costs,
                       bool sliced = false);

  /// conditioned() on a candidate prepared with `sliced`: integer
  /// candidates slice into the integer layout.
  CandidateRef conditioned(const CandidateRef& full,
                           const Partition& partition,
                           std::uint32_t shared_mask,
                           std::uint32_t shared_values);

  /// opt_for_part() / opt_for_part_bto() on a prepared candidate, with the
  /// same results as on the reference matrix of the same costs.
  VtResult opt_for_part(const CandidateRef& candidate,
                        const OptForPartParams& params, util::Rng& rng);
  VtResult opt_for_part_bto(const CandidateRef& candidate);

  /// Error of an explicit (V, T); bit-identical to the reference
  /// evaluate_vt() for the same matrix contents.
  double evaluate_vt(const InterleavedCostMatrix& matrix,
                     std::span<const std::uint8_t> pattern,
                     std::span<const RowType> types) const;

 private:
  EvalWorkspace() = default;

  /// What the exact incremental kernels read, all over `rows_pad` rows
  /// (padding rows cost 0): the cost differences cost1 - cost0 row-major
  /// (rows * cols) and column-major (cols * rows_pad), and the AllZero /
  /// AllOne row sums.
  template <class T>
  struct ExactInput {
    std::size_t rows;
    std::size_t cols;
    std::size_t rows_pad;
    const T* diff_rows;
    const T* diff_cols;
    const T* sums0;
    const T* sums1;
  };
  /// Per-restart sums of the exact path, in the matrix's element type.
  template <class T>
  struct ExactScratch {
    util::aligned_vector<T> match;    ///< Pattern-type row costs (rows_pad)
    util::aligned_vector<T> balance;  ///< if_zero - if_one per column
    std::vector<const T*> plus_rows, minus_rows;  ///< balance updates
  };

  /// Deposit table for `mask`, cached per thread.
  const std::vector<InputWord>& deposit_table(std::uint32_t mask);
  /// The thread's source-mirror slot for (`epoch`, `integer`); `fresh` is
  /// set when the slot was (re)assigned and must be filled.
  struct SourceSlot;
  SourceSlot& source_slot(std::uint64_t epoch, bool integer, bool& fresh);
  /// Interleaved copy of the epoch's cost arrays (nullptr when epoch == 0).
  const double* interleaved_source(const CostView& costs);
  /// The epoch's losses as int32, per 4-input block the four loss0 then the
  /// four loss1 - loss0 (nullptr when epoch == 0).
  const std::int32_t* loss_source(const CostView& costs, unsigned num_inputs);
  void gather_into(InterleavedCostMatrix& out, const Partition& partition,
                   const CostView& costs);
  void gather_integer(IntegerCostMatrix& out, const Partition& partition,
                      const CostView& costs, bool keep_losses);
  /// Fills cond_cols_ with the full-matrix column of each conditioned
  /// column and returns their count.
  std::size_t condition_columns(std::size_t full_cols,
                                const Partition& partition,
                                std::uint32_t shared_mask,
                                std::uint32_t shared_values);

  /// The Z restarts of an exact matrix, one at a time, each drawing its
  /// pattern as the reference does. `Ops` picks the element type (double
  /// or int32) and the vector or forced-scalar kernels; `scale_bits`
  /// converts an integer total to the returned error. Adds the restarts'
  /// alternations to `alternations`.
  template <class Ops>
  VtResult exact_restarts(const ExactInput<typename Ops::T>& input,
                          ExactScratch<typename Ops::T>& scratch,
                          const OptForPartParams& params, util::Rng& rng,
                          unsigned scale_bits, std::uint64_t& alternations);
  /// One restart from the pattern drawn into pattern_: alternates with
  /// incrementally updated sums until no improvement (or `max_iterations`).
  /// Leaves the restart's V in pattern_ and T in row_types_, and returns
  /// its total.
  template <class Ops>
  typename Ops::Sum exact_restart(const ExactInput<typename Ops::T>& input,
                                  ExactScratch<typename Ops::T>& scratch,
                                  unsigned max_iterations,
                                  std::uint64_t& alternations);

  // Deposit-table cache (node-based map: references stay valid on insert).
  std::unordered_map<std::uint32_t, std::vector<InputWord>> deposits_;

  // Per-epoch source copies (LRU over a few slots, so nested parallel
  // sections that interleave work from different epochs on one thread do
  // not thrash a single buffer). A slot holds either interleaved doubles or
  // int32 losses, never both.
  struct SourceSlot {
    std::uint64_t epoch = 0;
    std::uint64_t last_use = 0;
    bool integer = false;
    util::aligned_vector<double> data;
    util::aligned_vector<std::int32_t> losses;
  };
  std::array<SourceSlot, 4> sources_;
  std::uint64_t source_tick_ = 0;

  InterleavedCostMatrix full_scratch_;
  InterleavedCostMatrix cond_scratch_;
  IntegerCostMatrix int_full_;
  IntegerCostMatrix int_cond_;
  std::vector<std::uint32_t> cond_cols_;  ///< reduced col -> full col
  util::aligned_vector<std::int32_t> col_diffs_;  ///< integer BTO

  // The double exact path's cost differences (see ExactInput) and row
  // sums, and the reference copy of a matrix without the certificate.
  util::aligned_vector<double> diffs_;
  util::aligned_vector<double> sums0_, sums1_;
  CostMatrix reference_;

  // Per-restart state of the exact path (exact_restart). The type arrays
  // are padded to whole 64-row words for the changed-row compare.
  ExactScratch<double> exact_doubles_;
  ExactScratch<std::int32_t> exact_ints_;
  std::vector<std::uint8_t> row_types_;     // T
  std::vector<std::uint8_t> summed_types_;  // the T the balances reflect
  std::vector<std::uint64_t> pattern_;      // V, one bit per column
  std::vector<std::uint64_t> raised_, lowered_;  // columns flipped to 1 / 0
};

}  // namespace dalut::core
