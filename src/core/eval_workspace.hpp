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
//  * Thread-local scratch. Matrices, deposit tables, row sums, the
//    pair-swapped matrix copy, and restart state all live in per-thread
//    buffers that are reused across candidates, so steady-state evaluation
//    performs no heap allocations (only the small output pattern/type
//    vectors of a result are freshly allocated).
//
//  * Register-blocked OptForPart. All Z random restarts advance in
//    lock-step sweeps over the matrix. The types step keeps a tile of
//    restart vectors x two rows of running sums in registers across the
//    column loop; the pattern step keeps a tile of {if-zero, if-one} column
//    pairs in registers across each restart's participating rows. Each
//    restart's arithmetic (and therefore its result) stays bit-identical to
//    the reference implementation in opt_for_part.cpp.
//
//  * Gather memo. Full matrices built from epoch-stamped cost arrays (see
//    BitCostArrays::epoch) can be served from a process-wide, byte-capped
//    memo keyed by (epoch, bound mask). Admission is two-touch: a key's
//    first sighting stays in thread-local scratch (unique-partition streams
//    -- the common case under the SA visited-set dedup and per-round cost
//    rebuilds -- never write the shared cache), while a partition revisited
//    under the same cost arrays is published on its second gather and skips
//    the gather on every access after that. An epoch's entries live as
//    long as some copy of its BitCostArrays does (BitCostArrays::lease)
//    and the byte cap allows. Evicted buffers are recycled, so the memo
//    allocates nothing in steady state either. Cache contents are a pure
//    function of the key, so hit/miss timing cannot affect results: the
//    determinism guarantees of docs/parallelism.md hold at any worker
//    count.
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
#include <memory>
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
/// arrays' contents for the gather memo; 0 (the default for raw spans) means
/// "unknown provenance" and disables caching for the call.
struct CostView {
  std::span<const double> c0;
  std::span<const double> c1;
  std::uint64_t epoch = 0;

  CostView() = default;
  CostView(std::span<const double> cost0, std::span<const double> cost1,
           std::uint64_t epoch_id = 0)
      : c0(cost0), c1(cost1), epoch(epoch_id) {}
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  CostView(const BitCostArrays& costs)
      : c0(costs.c0), c1(costs.c1), epoch(costs.epoch) {}
};

/// Cost matrix with the two per-cell costs stored adjacently:
/// cells[2 * (r * cols + c)] = cost0, cells[2 * (r * cols + c) + 1] = cost1.
/// Cell storage is 64-byte aligned (the SIMD kernels' alignment contract,
/// docs/performance.md).
struct InterleavedCostMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  util::aligned_vector<double> cells;

  double at0(std::size_t r, std::size_t c) const noexcept {
    return cells[2 * (r * cols + c)];
  }
  double at1(std::size_t r, std::size_t c) const noexcept {
    return cells[2 * (r * cols + c) + 1];
  }
};

/// Handle to a full matrix: either a thread-local scratch buffer (valid
/// until the next full_matrix() call on the same thread) or a shared memo
/// entry kept alive by the handle.
class MatrixRef {
 public:
  const InterleavedCostMatrix& get() const noexcept { return *matrix_; }
  // NOLINTNEXTLINE(google-explicit-constructor): handle acts as the matrix.
  operator const InterleavedCostMatrix&() const noexcept { return *matrix_; }

 private:
  friend class EvalWorkspace;
  explicit MatrixRef(const InterleavedCostMatrix* matrix) noexcept
      : matrix_(matrix) {}
  explicit MatrixRef(std::shared_ptr<const InterleavedCostMatrix> owned)
      : matrix_(owned.get()), owned_(std::move(owned)) {}

  const InterleavedCostMatrix* matrix_;
  std::shared_ptr<const InterleavedCostMatrix> owned_;
};

/// Counters of the process-wide gather memo and gather kernels.
struct EvalCacheStats {
  std::uint64_t hits = 0;        ///< full-matrix builds served from the memo
  std::uint64_t misses = 0;      ///< memo lookups that had to gather
  std::uint64_t evictions = 0;   ///< entries dropped to stay under the cap
  std::uint64_t pending_evictions = 0;  ///< two-touch pending keys batch-evicted
  std::uint64_t gathers = 0;     ///< scattered full-matrix gathers performed
  std::uint64_t slices = 0;      ///< conditioned matrices sliced
  std::uint64_t entries = 0;     ///< live memo entries
  std::uint64_t bytes = 0;       ///< bytes held by live memo entries
  std::uint64_t pending = 0;     ///< two-touch keys sighted once so far
};

EvalCacheStats eval_cache_stats();
/// Drops every memo entry and zeroes the counters (tests and benchmarks).
void reset_eval_cache();
/// Drops `epoch`'s memo entries and pending two-touch keys, in time
/// proportional to their number. Called through BitCostArrays::lease when
/// the last BitCostArrays carrying the epoch is destroyed.
void release_eval_cache_epoch(std::uint64_t epoch);
/// Overrides the memo byte budget (default 64 MiB, or the
/// DALUT_EVAL_CACHE_MB environment variable; 0 disables the memo).
void set_eval_cache_capacity(std::size_t bytes);

class EvalWorkspace {
 public:
  /// The calling thread's workspace (created on first use, reused after).
  static EvalWorkspace& local();

  /// Full cost matrix of `partition` under `costs`: from the memo when
  /// `costs.epoch` != 0 and the memo is enabled, otherwise gathered into
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
  /// opt_for_part() for the same matrix contents and RNG state.
  VtResult opt_for_part(const InterleavedCostMatrix& matrix,
                        const OptForPartParams& params, util::Rng& rng);

  /// BTO variant; bit-identical to the reference opt_for_part_bto().
  VtResult opt_for_part_bto(const InterleavedCostMatrix& matrix);

  /// Error of an explicit (V, T); bit-identical to the reference
  /// evaluate_vt() for the same matrix contents.
  double evaluate_vt(const InterleavedCostMatrix& matrix,
                     std::span<const std::uint8_t> pattern,
                     std::span<const RowType> types) const;

  /// Caps the restarts advanced per block (0 = size automatically from the
  /// scratch budget). Exists so tests can force multi-block execution on
  /// small matrices.
  void set_opt_restart_block_for_test(unsigned block) {
    opt_block_override_ = block;
  }

 private:
  EvalWorkspace() = default;

  /// Deposit table for `mask`, cached per thread.
  const std::vector<InputWord>& deposit_table(std::uint32_t mask);
  /// Interleaved copy of the epoch's cost arrays (nullptr when epoch == 0).
  const double* interleaved_source(const CostView& costs);
  void gather_into(InterleavedCostMatrix& out, const Partition& partition,
                   const CostView& costs);

  unsigned restart_block(std::size_t rows, std::size_t cols,
                         unsigned restarts) const;
  /// Fills sums0_/sums1_ (the AllZero/AllOne row costs).
  void row_sums(const InterleavedCostMatrix& matrix);
  /// One types step for the active restarts of the current block, whose
  /// per-restart arrays have row stride `stride`. Writes each restart's
  /// total into `totals`.
  void types_sweep(const InterleavedCostMatrix& matrix, std::size_t stride,
                   util::aligned_vector<double>& totals);
  /// One pattern step for the active restarts of the current block.
  void pattern_sweep(const InterleavedCostMatrix& matrix, std::size_t stride);

  // Deposit-table cache (node-based map: references stay valid on insert).
  std::unordered_map<std::uint32_t, std::vector<InputWord>> deposits_;

  // Interleaved per-epoch source copies (LRU over a few slots, so nested
  // parallel sections that interleave work from different epochs on one
  // thread do not thrash a single buffer).
  struct SourceSlot {
    std::uint64_t epoch = 0;
    std::uint64_t last_use = 0;
    util::aligned_vector<double> data;
  };
  std::array<SourceSlot, 4> sources_;
  std::uint64_t source_tick_ = 0;

  InterleavedCostMatrix full_scratch_;
  InterleavedCostMatrix cond_scratch_;
  std::vector<std::uint32_t> cond_cols_;  ///< reduced col -> full col

  // Restart-blocked OptForPart scratch. Per-restart arrays are laid out
  // restart-minor ([item * stride + restart], the stride padded to whole
  // SIMD vectors) so the types sweep loads full vectors of restarts.
  // patterns_ holds one full-width select mask per entry (0 or ~0), so the
  // types sweep can blend {cost0, cost1} bitwise instead of branching per
  // cell. The pattern sweep is restart-major instead (see pattern_sweep).
  util::aligned_vector<double> sums0_, sums1_;    // rows
  util::aligned_vector<std::uint64_t> patterns_;  // cols * stride
  std::vector<std::uint8_t> types_;               // rows * stride
  util::aligned_vector<double> error_, after_;    // stride
  std::vector<std::uint32_t> active_, next_active_;
  std::vector<std::uint32_t> groups_;  // first restart of each active vector
  std::vector<const double*> pair_rows_;  // rows of one column-pair sum
  util::aligned_vector<double> swapped_;  // matrix cells as {cost1, cost0}
  unsigned opt_block_override_ = 0;
};

}  // namespace dalut::core
