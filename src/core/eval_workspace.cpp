#include "core/eval_workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/bits.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace dalut::core {

namespace {

namespace simd = util::simd;

// ---- Gather walk ----------------------------------------------------------
//
// The scattered gather is a pure bit-permutation copy: the destination cell
// of input x is row pext(x, free) and column pext(x, bound). Instead of
// walking the destination and computing scattered source addresses, the
// walk visits the source in aligned blocks of four inputs (the subcube of
// the low two input bits), and input i of a block lands at row
// pext(i, free & 3) and column pext(i, bound & 3) of its 4 x 1, 2 x 2 or
// 1 x 4 destination patch. The outer loops enumerate the high free bits
// (destination rows ascending) then the high bound bits (destination
// columns ascending) with incremental subset counters, so every store
// stream is sequential and no per-element pext is ever computed. The same
// walk fills the integer layout (int32 or int64 losses) and the reference's
// split CostMatrix.

/// Advances a subset-enumeration counter k steps (k small).
inline std::uint64_t subset_advance(std::uint64_t x, std::uint64_t m,
                                    unsigned k) noexcept {
  while (k--) x = (x - m) & m;
  return x;
}

// Past ~2M inputs (2^21: a 16 MiB int32 or 32 MiB int64 loss mirror) a
// per-epoch source mirror no longer pays for itself within one epoch and
// would double the resident footprint of out-of-core tables; the gather
// then converts from the split arrays directly.
constexpr std::size_t kMaxMirroredDomain = std::size_t{1} << 21;

constexpr unsigned pext2(unsigned value, unsigned mask) noexcept {
  unsigned out = 0;
  unsigned bit = 0;
  for (unsigned i = 0; i < 2; ++i) {
    if (mask >> i & 1) out |= (value >> i & 1) << bit++;
  }
  return out;
}

/// Stores the four values of one block into its destination patch, whose
/// first cell is out[0], in a matrix of `cols` columns. LB is bound & 3.
template <unsigned LB, class T>
inline void place(T* out, const T* values, std::size_t cols) noexcept {
  if constexpr (LB == 3) {
    std::memcpy(out, values, 4 * sizeof(T));  // one 4-run
  } else if constexpr (LB == 1) {
    std::memcpy(out, values, 2 * sizeof(T));  // two 2-runs
    std::memcpy(out + cols, values + 2, 2 * sizeof(T));
  } else {
    constexpr unsigned kFree = ~LB & 3u;
    for (unsigned i = 0; i < 4; ++i) {
      out[pext2(i, kFree) * cols + pext2(i, LB)] = values[i];
    }
  }
}

/// The walk for one value of LB = bound & 3. Calls
/// sink.block<LB>(row, at, x) for the block of inputs x .. x + 3, whose
/// patch starts at destination cell `at`, and sink.end_row<LB>(row, r) once
/// the patches of destination rows r .. r + 2^(2 - popcount(LB)) - 1 are
/// done. `row` is the sink's per-row state (Sink::Row). The walk runs on
/// its own copy of the sink and keeps `row` a local too, so that neither
/// can alias the matrix stores and both stay in registers.
template <unsigned LB, class Sink>
void walk_blocks(std::uint32_t bound, std::uint32_t free_mask,
                 std::size_t cols, Sink sink) noexcept {
  constexpr unsigned kColShift = std::popcount(LB);
  constexpr unsigned kRowShift = 2 - kColShift;
  // Software-prefetch distance in source blocks; the destination streams
  // are sequential, so only the source side needs help.
  constexpr unsigned kAhead = 8;
  const std::uint64_t hb = bound & ~std::uint64_t{3};
  const std::uint64_t hf = free_mask & ~std::uint64_t{3};
  std::uint64_t xf = 0;
  std::size_t row = 0;
  do {
    const std::size_t base = (row << kRowShift) * cols;
    typename Sink::Row state{};
    std::uint64_t xb = 0;
    std::uint64_t xb_pre = subset_advance(0, hb, kAhead);
    std::size_t col = 0;
    do {
      sink.prefetch(xf | xb_pre);
      xb_pre = (xb_pre - hb) & hb;
      sink.template block<LB>(state, base + (col << kColShift), xf | xb);
      ++col;
      xb = (xb - hb) & hb;
    } while (xb != 0);
    sink.template end_row<LB>(state, row << kRowShift);
    ++row;
    xf = (xf - hf) & hf;
  } while (xf != 0);
}

/// The walk of `partition` over a matrix of `cols` columns. A partition
/// leaves at least one input on each side, so the domain holds whole
/// 4-input blocks.
template <class Sink>
void walk_blocks(const Partition& partition, std::size_t cols,
                 const Sink& sink) {
  const std::uint32_t bound = partition.bound_mask();
  const std::uint32_t free_mask = partition.free_mask();
  switch (bound & 3u) {
    case 0:
      return walk_blocks<0>(bound, free_mask, cols, sink);
    case 1:
      return walk_blocks<1>(bound, free_mask, cols, sink);
    case 2:
      return walk_blocks<2>(bound, free_mask, cols, sink);
    default:
      return walk_blocks<3>(bound, free_mask, cols, sink);
  }
}

/// Yields the block of inputs {x, .., x + 3} from the per-epoch loss
/// mirror: the four losses loss0, then the four differences loss1 - loss0.
template <class T>
struct MirrorLossLoader {
  const T* src;
  const T* operator()(std::uint64_t x) const noexcept { return src + 2 * x; }
  void prefetch(std::uint64_t x) const noexcept { simd::prefetch(src + 2 * x); }
};

/// Same block, converted on the fly from the double arrays (unstamped
/// views and domains too large for a mirror). `scale` is 2^n, so each
/// product is the exact integer loss.
template <class T>
struct ConvertLossLoader {
  const double* c0;
  const double* c1;
  double scale;
  mutable T block[8];
  const T* operator()(std::uint64_t x) const noexcept {
    for (unsigned i = 0; i < 4; ++i) {
      block[i] = static_cast<T>(c0[x + i] * scale);
      block[4 + i] = static_cast<T>(c1[x + i] * scale) - block[i];
    }
    return block;
  }
  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(c0 + x);
    simd::prefetch(c1 + x);
  }
};

/// Walk sink of the integer layout: writes m.diff_rows (and m.loss0 when it
/// is sized), and keeps the row sums of loss0 and of the differences in
/// registers while the walk stays on one patch row.
template <class T, class Loader>
struct LossSink {
  Loader load;
  T* diff_rows;
  T* loss0;  ///< nullptr when not kept
  T* sums0;
  T* sums1;
  std::size_t cols;

  LossSink(IntegerCostMatrix<T>& m, const Loader& loader)
      : load(loader),
        diff_rows(m.diff_rows.data()),
        loss0(m.loss0.empty() ? nullptr : m.loss0.data()),
        sums0(m.sums0.data()),
        sums1(m.sums1.data()),
        cols(m.cols) {}

  struct Row {
    T zero_sums[4];
    T diff_sums[4];
  };
  void prefetch(std::uint64_t x) const noexcept { load.prefetch(x); }
  template <unsigned LB>
  void block(Row& row, std::size_t at, std::uint64_t x) noexcept {
    const T* values = load(x);
    for (unsigned i = 0; i < 4; ++i) {
      row.zero_sums[i] += values[i];
      row.diff_sums[i] += values[4 + i];
    }
    place<LB>(diff_rows + at, values + 4, cols);
    if (loss0 != nullptr) place<LB>(loss0 + at, values, cols);
  }
  template <unsigned LB>
  void end_row(const Row& row, std::size_t first_row) noexcept {
    // Lane i summed input i of every block: row pext(i, free & 3).
    for (unsigned i = 0; i < 4; ++i) {
      const std::size_t r = first_row + pext2(i, ~LB & 3u);
      sums0[r] += row.zero_sums[i];
      sums1[r] += row.diff_sums[i];
    }
  }
};

/// Walk sink of the reference's split CostMatrix, read from the split
/// arrays.
struct CostSink {
  double* cost0;
  double* cost1;
  std::size_t cols;
  const double* c0;
  const double* c1;

  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(c0 + x);
    simd::prefetch(c1 + x);
  }
  struct Row {};
  template <unsigned LB>
  void block(Row&, std::size_t at, std::uint64_t x) noexcept {
    place<LB>(cost0 + at, c0 + x, cols);
    place<LB>(cost1 + at, c1 + x, cols);
  }
  template <unsigned LB>
  void end_row(const Row&, std::size_t) noexcept {}
};

// ---- Op sets -------------------------------------------------------------
//
// The OptForPart kernels below (the exact incremental sweeps) are written
// once against a small op set and instantiated for int32 and int64 lane
// vectors and for plain scalars of either type; the latter are the vector
// kernels' tails and the whole kernel of a scalar build. Integer adds are
// exact, so all of them add up to the same values, and their results are
// bit-identical. Each op set gives the element type T, the one-lane op set
// of the same type (Scalar, for tails), a running total (Acc, reduced to
// Sum), the byte store of the type codes, and from IntegerTotals the
// stopping rule (no_gain) and the returned error.

template <class T>
constexpr T type_code(RowType type) noexcept {
  return static_cast<T>(static_cast<std::uint8_t>(type));
}

/// A restart's total is an int64 sum of losses, and converts to the
/// reference's error as ldexp(total, -n) exactly.
///
/// The stopping rule drops the reference's epsilon: the reference stops
/// when `after >= error - 1e-15`, and here both totals are integers, i.e.
/// the two errors are multiples of 2^-n with n <= 26. If after < error then
/// after <= error - 2^-n, and error - 1e-15 rounds to a double above
/// error - 2^-n (2^-26 is far above 1e-15), so the reference continues too;
/// if after >= error, both stop. So `after >= error` decides every case as
/// the reference does.
struct IntegerTotals {
  using Sum = std::int64_t;
  static bool no_gain(Sum after, Sum error) noexcept { return after >= error; }
  static double to_error(Sum total, unsigned scale_bits) noexcept {
    return std::ldexp(static_cast<double>(total),
                      -static_cast<int>(scale_bits));
  }
};

/// One lane of type E: the vector tails, and the scalar build's kernels.
template <class E>
struct OneLaneOps : IntegerTotals {
  using T = E;
  using D = E;
  using Scalar = OneLaneOps;
  static constexpr unsigned kWidth = 1;
  static D zero() noexcept { return 0; }
  static D splat(T v) noexcept { return v; }
  static D add(D a, D b) noexcept { return a + b; }
  static D sub(D a, D b) noexcept { return a - b; }
  static D load(const T* p) noexcept { return *p; }
  static void store(T* p, D v) noexcept { *p = v; }
  static D less(D a, D b) noexcept { return a < b ? -1 : 0; }
  static D select(D m, D a, D b) noexcept { return m != 0 ? a : b; }
  static unsigned mask_bits(D m) noexcept { return m < 0 ? 1u : 0u; }

  using Acc = std::int64_t;
  static Acc acc_zero() noexcept { return 0; }
  static void acc_add(Acc& acc, D v) noexcept { acc += v; }
  static Sum acc_sum(Acc acc) noexcept { return acc; }
  static void store_types(std::uint8_t* p, D code) noexcept {
    *p = static_cast<std::uint8_t>(code);
  }
};

/// Full-register lanes of type E (simd::Vec32 or simd::Vec64).
template <class E>
struct LaneOps;

template <>
struct LaneOps<std::int32_t> : IntegerTotals {
  using T = std::int32_t;
  using D = simd::Vec32;
  using Scalar = OneLaneOps<T>;
  static constexpr unsigned kWidth = simd::kLanes32;
  static D zero() noexcept { return simd::i32zero(); }
  static D splat(T v) noexcept { return simd::i32broadcast(v); }
  static D add(D a, D b) noexcept { return simd::i32add(a, b); }
  static D sub(D a, D b) noexcept { return simd::i32sub(a, b); }
  static D load(const T* p) noexcept { return simd::i32load(p); }
  static void store(T* p, D v) noexcept { simd::i32store(p, v); }
  static D less(D a, D b) noexcept { return simd::i32cmpgt(b, a); }
  static D select(D m, D a, D b) noexcept { return simd::i32select(m, a, b); }
  static unsigned mask_bits(D m) noexcept { return simd::i32movemask(m); }
  static void transpose(D (&rows)[kWidth]) noexcept {
    simd::i32transpose(rows);
  }

  using Acc = simd::Acc64;
  static Acc acc_zero() noexcept { return {}; }
  static void acc_add(Acc& acc, D v) noexcept { simd::acc_add(acc, v); }
  static Sum acc_sum(const Acc& acc) noexcept { return simd::acc_sum(acc); }
  static void store_types(std::uint8_t* p, D codes) noexcept {
    simd::i32store_bytes(p, codes);
  }
};

template <>
struct LaneOps<std::int64_t> : IntegerTotals {
  using T = std::int64_t;
  using D = simd::Vec64;
  using Scalar = OneLaneOps<T>;
  static constexpr unsigned kWidth = simd::kLanes64;
  static D zero() noexcept { return simd::i64zero(); }
  static D splat(T v) noexcept { return simd::i64broadcast(v); }
  static D add(D a, D b) noexcept { return simd::i64add(a, b); }
  static D sub(D a, D b) noexcept { return simd::i64sub(a, b); }
  static D load(const T* p) noexcept { return simd::i64load(p); }
  static void store(T* p, D v) noexcept { simd::i64store(p, v); }
  static D less(D a, D b) noexcept { return simd::i64cmpgt(b, a); }
  static D select(D m, D a, D b) noexcept { return simd::i64select(m, a, b); }
  static unsigned mask_bits(D m) noexcept { return simd::i64movemask(m); }
  static void transpose(D (&rows)[kWidth]) noexcept {
    simd::i64transpose(rows);
  }

  /// The lanes themselves: a total stays below 2^52.
  using Acc = D;
  static Acc acc_zero() noexcept { return zero(); }
  static void acc_add(Acc& acc, D v) noexcept { acc = add(acc, v); }
  static Sum acc_sum(Acc acc) noexcept {
    T lanes[kWidth];
    store(lanes, acc);
    Sum sum = 0;
    for (const T lane : lanes) sum += lane;
    return sum;
  }
  static void store_types(std::uint8_t* p, D codes) noexcept {
    simd::i64store_bytes(p, codes);
  }
};

/// The column-major differences of m.diff_rows, full kWidth x kWidth
/// blocks transposed in registers, and zeros in the padding rows.
template <class T>
void transpose_diffs(IntegerCostMatrix<T>& m) {
  using Ops = LaneOps<T>;
  const std::size_t rows = m.rows;
  const std::size_t cols = m.cols;
  const std::size_t rows_pad = m.rows_pad;
  m.diff_cols.resize(cols * rows_pad);
  const T* by_row = m.diff_rows.data();
  T* by_col = m.diff_cols.data();
  constexpr std::size_t W = Ops::kWidth;
  const std::size_t block_rows = W > 1 ? rows / W * W : 0;
  const std::size_t block_cols = W > 1 ? cols / W * W : 0;
  for (std::size_t c = 0; c < block_cols; c += W) {
    for (std::size_t r = 0; r < block_rows; r += W) {
      typename Ops::D v[W];
      for (std::size_t i = 0; i < W; ++i) {
        v[i] = Ops::load(by_row + (r + i) * cols + c);
      }
      Ops::transpose(v);
      for (std::size_t j = 0; j < W; ++j) {
        Ops::store(by_col + (c + j) * rows_pad + r, v[j]);
      }
    }
  }
  for (std::size_t r = 0; r < rows_pad; ++r) {
    for (std::size_t c = r < block_rows ? block_cols : 0; c < cols; ++c) {
      by_col[c * rows_pad + r] = r < rows ? by_row[r * cols + c] : 0;
    }
  }
}

/// The reference's comparison chain, lane by lane: the cheapest of AllZero
/// (s0), AllOne (s1), Pattern (match) and Complement (s0 + s1 - match),
/// the earlier type winning a tie. Returns the cost; `type` gets the code.
template <class Ops>
inline typename Ops::D best_type(typename Ops::D match, typename Ops::D s0,
                                 typename Ops::D s1,
                                 typename Ops::D& type) noexcept {
  using D = typename Ops::D;
  using T = typename Ops::T;
  const D one = Ops::less(s1, s0);
  D best = Ops::select(one, s1, s0);
  type = Ops::select(one, Ops::splat(type_code<T>(RowType::kAllOne)),
                     Ops::splat(type_code<T>(RowType::kAllZero)));
  D m = Ops::less(match, best);
  best = Ops::select(m, match, best);
  type = Ops::select(m, Ops::splat(type_code<T>(RowType::kPattern)), type);
  const D complement = Ops::sub(Ops::add(s0, s1), match);
  m = Ops::less(complement, best);
  best = Ops::select(m, complement, best);
  type = Ops::select(m, Ops::splat(type_code<T>(RowType::kComplement)), type);
  return best;
}

// ---- Incremental kernels ---------------------------------------------------
//
// Every sum of the integer layout is exact, so it does not depend on the
// order its terms are added in: a sum updated by removing and adding terms
// equals the reference's fresh sum bit for bit. The same holds for
// differences of such sums, which lets a column keep one balance,
// if_zero - if_one, instead of the pair: the reference's `if_one < if_zero`
// is exactly `balance > 0`. A kPattern row adds loss0 - loss1 to each
// column's balance, a kComplement row loss1 - loss0. Row state is padded to
// whole vectors of rows; padding rows have zero costs.

/// Balances of columns [c, c + K * kWidth): the K vectors stay in
/// registers while the listed rows of cost differences are added (`plus`)
/// or subtracted (`minus`); each row is a pointer to its first column.
/// Returns bit j set iff the new balance of column c + j is positive.
template <class Ops, unsigned K>
inline std::uint64_t shift_tile(
    typename Ops::T* balance, std::size_t c,
    std::span<const typename Ops::T* const> plus,
    std::span<const typename Ops::T* const> minus) noexcept {
  constexpr unsigned W = Ops::kWidth;
  typename Ops::D acc[K];
  for (unsigned t = 0; t < K; ++t) acc[t] = Ops::load(balance + c + t * W);
  for (const auto* row : plus) {
    for (unsigned t = 0; t < K; ++t) {
      acc[t] = Ops::add(acc[t], Ops::load(row + c + t * W));
    }
  }
  for (const auto* row : minus) {
    for (unsigned t = 0; t < K; ++t) {
      acc[t] = Ops::sub(acc[t], Ops::load(row + c + t * W));
    }
  }
  std::uint64_t positive = 0;
  for (unsigned t = 0; t < K; ++t) {
    Ops::store(balance + c + t * W, acc[t]);
    positive |= std::uint64_t{Ops::mask_bits(Ops::less(Ops::zero(), acc[t]))}
                << (t * W);
  }
  return positive;
}

/// The pattern step on the balances: balance[c] += sum of plus rows - sum
/// of minus rows, then V_c = 1 iff balance[c] > 0, into the pattern bitset
/// (bit c % 64 of word c / 64). Sets the bits of the columns that changed
/// in `raised` (now 1) or `lowered` (now 0), and returns whether any did.
template <class Ops>
bool shift_and_choose(typename Ops::T* balance, std::size_t cols,
                      std::span<const typename Ops::T* const> plus,
                      std::span<const typename Ops::T* const> minus,
                      std::uint64_t* pattern, std::uint64_t* raised,
                      std::uint64_t* lowered) noexcept {
  constexpr unsigned W = Ops::kWidth;
  constexpr unsigned kTile = 8;
  static_assert(kTile * W <= 64);
  std::uint64_t flipped = 0;
  for (std::size_t base = 0; base < cols; base += 64) {
    const std::size_t count = std::min<std::size_t>(64, cols - base);
    std::uint64_t now = 0;
    std::size_t c = 0;
    for (; c + kTile * W <= count; c += kTile * W) {
      now |= shift_tile<Ops, kTile>(balance, base + c, plus, minus) << c;
    }
    for (; c + W <= count; c += W) {
      now |= shift_tile<Ops, 1>(balance, base + c, plus, minus) << c;
    }
    for (; c < count; ++c) {
      now |= shift_tile<typename Ops::Scalar, 1>(balance, base + c, plus,
                                                 minus)
             << c;
    }
    const std::size_t w = base / 64;
    raised[w] = now & ~pattern[w];
    lowered[w] = pattern[w] & ~now;
    flipped |= now ^ pattern[w];
    pattern[w] = now;
  }
  return flipped != 0;
}

/// Types step for rows [r, r + R * kWidth) of one restart: the R vectors of
/// match sums stay in registers while the cost differences are added for
/// the columns set in `raised` (bitsets of 64 columns per word) and
/// subtracted for those in `lowered`; then each row's type follows the
/// reference's comparison chain.
template <class Ops, unsigned R>
void retype_tile(std::size_t r, std::size_t rows_pad,
                 const typename Ops::T* diffs,
                 std::span<const std::uint64_t> raised,
                 std::span<const std::uint64_t> lowered,
                 const typename Ops::T* sums0, const typename Ops::T* sums1,
                 typename Ops::T* match, std::uint8_t* types,
                 typename Ops::Acc& total) noexcept {
  using D = typename Ops::D;
  constexpr unsigned W = Ops::kWidth;
  D m[R];
  for (unsigned i = 0; i < R; ++i) m[i] = Ops::load(match + r + i * W);
  for (std::size_t w = 0; w < raised.size(); ++w) {
    for (std::uint64_t bits = raised[w]; bits != 0; bits &= bits - 1) {
      const std::size_t c = 64 * w + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      const auto* d = diffs + c * rows_pad + r;
      for (unsigned i = 0; i < R; ++i) {
        m[i] = Ops::add(m[i], Ops::load(d + i * W));
      }
    }
  }
  for (std::size_t w = 0; w < lowered.size(); ++w) {
    for (std::uint64_t bits = lowered[w]; bits != 0; bits &= bits - 1) {
      const std::size_t c = 64 * w + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      const auto* d = diffs + c * rows_pad + r;
      for (unsigned i = 0; i < R; ++i) {
        m[i] = Ops::sub(m[i], Ops::load(d + i * W));
      }
    }
  }
  for (unsigned i = 0; i < R; ++i) {
    Ops::store(match + r + i * W, m[i]);
    D type;
    Ops::acc_add(total, best_type<Ops>(m[i], Ops::load(sums0 + r + i * W),
                                       Ops::load(sums1 + r + i * W), type));
    Ops::store_types(types + r + i * W, type);
  }
}

/// Types step of one restart from its stored match sums, over all rows_pad
/// rows (padding rows add zero), in tiles of up to eight row vectors.
/// Returns the restart's total.
template <class Ops>
typename Ops::Sum retype_rows(std::size_t rows_pad,
                              const typename Ops::T* diffs,
                              std::span<const std::uint64_t> raised,
                              std::span<const std::uint64_t> lowered,
                              const typename Ops::T* sums0,
                              const typename Ops::T* sums1,
                              typename Ops::T* match,
                              std::uint8_t* types) noexcept {
  constexpr unsigned W = Ops::kWidth;
  constexpr std::size_t kMaxTile = 8;
  static constexpr std::array kTiles = {
      &retype_tile<Ops, 1>, &retype_tile<Ops, 2>, &retype_tile<Ops, 3>,
      &retype_tile<Ops, 4>, &retype_tile<Ops, 5>, &retype_tile<Ops, 6>,
      &retype_tile<Ops, 7>, &retype_tile<Ops, 8>};
  static_assert(kTiles.size() == kMaxTile);
  typename Ops::Acc total = Ops::acc_zero();
  const std::size_t vectors = rows_pad / W;
  for (std::size_t v = 0; v < vectors; v += kMaxTile) {
    const std::size_t tile = std::min(kMaxTile, vectors - v);
    kTiles[tile - 1](v * W, rows_pad, diffs, raised, lowered, sums0, sums1,
                     match, types, total);
  }
  return Ops::acc_sum(total);
}

/// The BTO optimum of an integer matrix. Column c's if_one - if_zero is the
/// column sum of its differences, and the if_zero sums add up to the loss0
/// total: the error is that total plus every negative column difference.
/// The route's bound keeps each column sum within T.
template <class T>
VtResult integer_bto(const IntegerCostMatrix<T>& m,
                     util::aligned_vector<T>& col_diffs) {
  col_diffs.assign(m.cols, 0);
  T* sums = col_diffs.data();
  for (std::size_t r = 0; r < m.rows; ++r) {
    const T* diff = m.diff_rows.data() + r * m.cols;
    for (std::size_t c = 0; c < m.cols; ++c) sums[c] += diff[c];
  }
  std::int64_t total = 0;
  for (std::size_t r = 0; r < m.rows; ++r) total += m.sums0[r];

  VtResult result;
  result.types.assign(m.rows, RowType::kPattern);
  result.pattern.assign(m.cols, 0);
  for (std::size_t c = 0; c < m.cols; ++c) {
    if (sums[c] < 0) {
      result.pattern[c] = 1;
      total += sums[c];
    }
  }
  result.error = IntegerTotals::to_error(total, m.scale_bits);
  return result;
}

// ---- Gather counters ---------------------------------------------------

/// One gather-kernel counter. The atomic stays authoritative for
/// eval_cache_stats() (reset_eval_cache zeroes it without touching the
/// registry); the write-only registry mirror feeds the exported snapshot.
struct GatherCounter {
  explicit GatherCounter(const char* name)
      : metric(util::telemetry::Counter::get(name)) {}
  void add() {
    value.fetch_add(1, std::memory_order_relaxed);
    metric.add(1);
  }
  std::atomic<std::uint64_t> value{0};
  util::telemetry::Counter metric;
};

GatherCounter& gathers() {
  static GatherCounter counter("evalcache.gathers");
  return counter;
}

GatherCounter& slices() {
  static GatherCounter counter("evalcache.slices");
  return counter;
}

// ---- OptForPart work counters ----------------------------------------------

/// Write-only work counters of EvalWorkspace::opt_for_part: calls, their
/// restarts, the alternations (one pattern step plus one types step of one
/// restart) they ran, and the calls that took the integer route. Each call
/// adds its totals once.
void count_opt_for_part(unsigned restarts, std::uint64_t alternations,
                        bool integer) {
  namespace tel = util::telemetry;
  static const tel::Counter calls = tel::Counter::get("opt_for_part.calls");
  static const tel::Counter restart_count =
      tel::Counter::get("opt_for_part.restarts");
  static const tel::Counter alternation_count =
      tel::Counter::get("opt_for_part.alternations");
  static const tel::Counter int_calls =
      tel::Counter::get("opt_for_part.int_calls");
  calls.add(1);
  restart_count.add(restarts);
  alternation_count.add(alternations);
  if (integer) int_calls.add(1);
}

}  // namespace

CandidateRoute candidate_route(const Partition& partition,
                               const CostView& costs) noexcept {
  if (!costs.exact || costs.loss_bits == 0) return CandidateRoute::kReference;
  const unsigned bits =
      std::max(partition.bound_size(), partition.free_size()) +
      costs.loss_bits + 1;
  if (bits <= 31) return CandidateRoute::kInt32;
  if (bits <= 63) return CandidateRoute::kInt64;
  return CandidateRoute::kReference;
}

EvalCacheStats eval_cache_stats() {
  EvalCacheStats stats;
  stats.gathers = gathers().value.load(std::memory_order_relaxed);
  stats.slices = slices().value.load(std::memory_order_relaxed);
  return stats;
}

void reset_eval_cache() {
  gathers().value = 0;
  slices().value = 0;
}

// ---- EvalWorkspace ------------------------------------------------------

EvalWorkspace& EvalWorkspace::local() {
  thread_local EvalWorkspace workspace;
  return workspace;
}

EvalWorkspace::SourceSlot& EvalWorkspace::source_slot(std::uint64_t epoch,
                                                     unsigned lane_bytes,
                                                     bool& fresh) {
  ++source_tick_;
  SourceSlot* slot = &sources_.front();
  for (auto& candidate : sources_) {
    if (candidate.epoch == epoch && candidate.lane_bytes == lane_bytes) {
      candidate.last_use = source_tick_;
      fresh = false;
      return candidate;
    }
    if (candidate.last_use < slot->last_use) slot = &candidate;
  }
  slot->epoch = epoch;
  slot->last_use = source_tick_;
  if (slot->lane_bytes != lane_bytes) {
    // The slot changes element type: release the other type's buffer.
    util::aligned_vector<std::int32_t>().swap(slot->losses32);
    util::aligned_vector<std::int64_t>().swap(slot->losses64);
    slot->lane_bytes = lane_bytes;
  }
  fresh = true;
  return *slot;
}

template <class T>
const T* EvalWorkspace::loss_source(const CostView& costs,
                                    unsigned num_inputs) {
  const std::size_t domain = costs.c0.size();
  if (costs.epoch == 0 || domain > kMaxMirroredDomain) return nullptr;
  bool fresh = false;
  auto& losses = source_slot(costs.epoch, sizeof(T), fresh).losses<T>();
  if (!fresh) return losses.data();
  losses.resize(2 * domain);
  const ConvertLossLoader<T> convert{
      costs.c0.data(), costs.c1.data(),
      std::ldexp(1.0, static_cast<int>(num_inputs)), {}};
  for (std::size_t x = 0; x < domain; x += 4) {
    std::memcpy(losses.data() + 2 * x, convert(x), 8 * sizeof(T));
  }
  return losses.data();
}

template <class T>
void EvalWorkspace::gather_integer(IntegerCostMatrix<T>& out,
                                   const Partition& partition,
                                   const CostView& costs, bool keep_losses) {
  constexpr std::size_t W = LaneOps<T>::kWidth;
  const unsigned n = partition.num_inputs();
  assert(costs.c0.size() == (std::size_t{1} << n));
  assert(costs.c1.size() == costs.c0.size());
  out.rows = partition.num_rows();
  out.cols = partition.num_cols();
  out.rows_pad = (out.rows + W - 1) / W * W;
  out.scale_bits = n;
  out.diff_rows.resize(out.rows * out.cols);
  util::assert_aligned64(out.diff_rows.data());
  out.loss0.resize(keep_losses ? out.rows * out.cols : 0);
  out.sums0.assign(out.rows_pad, 0);
  out.sums1.assign(out.rows_pad, 0);
  if (const T* src = loss_source<T>(costs, n)) {
    walk_blocks(partition, out.cols,
                LossSink(out, MirrorLossLoader<T>{src}));
  } else {
    walk_blocks(partition, out.cols,
                LossSink(out, ConvertLossLoader<T>{
                                  costs.c0.data(), costs.c1.data(),
                                  std::ldexp(1.0, static_cast<int>(n)), {}}));
  }
  // sums1 holds the difference sums so far.
  for (std::size_t r = 0; r < out.rows; ++r) out.sums1[r] += out.sums0[r];
  transpose_diffs(out);
}

void EvalWorkspace::gather_reference(CostMatrix& out,
                                     const Partition& partition,
                                     const CostView& costs) {
  assert(costs.c0.size() == (std::size_t{1} << partition.num_inputs()));
  assert(costs.c1.size() == costs.c0.size());
  out.rows = partition.num_rows();
  out.cols = partition.num_cols();
  out.cost0.resize(out.rows * out.cols);
  out.cost1.resize(out.rows * out.cols);
  walk_blocks(partition, out.cols,
              CostSink{out.cost0.data(), out.cost1.data(), out.cols,
                       costs.c0.data(), costs.c1.data()});
}

CandidateRef EvalWorkspace::prepare(const Partition& partition,
                                    const CostView& costs, bool sliced) {
  CandidateRef candidate;
  switch (candidate_route(partition, costs)) {
    case CandidateRoute::kInt32:
      gather_integer(int32_.full, partition, costs, sliced);
      candidate.int32_ = &int32_.full;
      break;
    case CandidateRoute::kInt64:
      gather_integer(int64_.full, partition, costs, sliced);
      candidate.int64_ = &int64_.full;
      break;
    case CandidateRoute::kReference:
      gather_reference(reference_full_, partition, costs);
      candidate.reference_ = &reference_full_;
      break;
  }
  gathers().add();
  return candidate;
}

std::size_t EvalWorkspace::condition_columns(std::size_t full_cols,
                                             const Partition& partition,
                                             std::uint32_t shared_mask,
                                             std::uint32_t shared_values) {
  assert(shared_mask != 0 &&
         (shared_mask & ~partition.bound_mask()) == 0);
  // Rank positions of the shared input bits inside the packed column index.
  std::uint32_t rank_mask = 0;
  for (std::uint32_t bits = shared_mask; bits != 0; bits &= bits - 1) {
    const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
    const unsigned rank = util::popcount(
        partition.bound_mask() & ((std::uint32_t{1} << bit) - 1));
    rank_mask |= std::uint32_t{1} << rank;
  }
  const std::uint32_t reduced_mask =
      (static_cast<std::uint32_t>(full_cols) - 1) & ~rank_mask;
  const auto fixed_cols = static_cast<std::uint32_t>(
      util::deposit_bits(shared_values, rank_mask));

  cond_cols_.resize(full_cols >> util::popcount(shared_mask));
  for (std::size_t c = 0; c < cond_cols_.size(); ++c) {
    cond_cols_[c] = static_cast<std::uint32_t>(
                        util::deposit_bits(c, reduced_mask)) |
                    fixed_cols;
  }
  return cond_cols_.size();
}

template <class T>
const IntegerCostMatrix<T>& EvalWorkspace::condition_integer(
    const IntegerCostMatrix<T>& f, std::size_t cols) {
  assert(&f == &integer_scratch<T>().full &&
         f.loss0.size() == f.rows * f.cols);
  IntegerCostMatrix<T>& out = integer_scratch<T>().cond;
  out.rows = f.rows;
  out.cols = cols;
  out.rows_pad = f.rows_pad;
  out.scale_bits = f.scale_bits;
  out.diff_rows.resize(out.rows * out.cols);
  out.sums0.assign(out.rows_pad, 0);
  out.sums1.assign(out.rows_pad, 0);
  for (std::size_t r = 0; r < out.rows; ++r) {
    const T* zero = f.loss0.data() + r * f.cols;
    const T* diff = f.diff_rows.data() + r * f.cols;
    T* dst = out.diff_rows.data() + r * out.cols;
    T s0 = 0;
    T sd = 0;
    for (std::size_t c = 0; c < out.cols; ++c) {
      const std::uint32_t from = cond_cols_[c];
      dst[c] = diff[from];
      s0 += zero[from];
      sd += diff[from];
    }
    out.sums0[r] = s0;
    out.sums1[r] = s0 + sd;
  }
  // A column of the slice is a whole column of the full matrix.
  out.diff_cols.resize(out.cols * out.rows_pad);
  for (std::size_t c = 0; c < out.cols; ++c) {
    std::copy_n(f.diff_cols.data() + cond_cols_[c] * f.rows_pad, f.rows_pad,
                out.diff_cols.data() + c * out.rows_pad);
  }
  return out;
}

CandidateRef EvalWorkspace::conditioned(const CandidateRef& full,
                                        const Partition& partition,
                                        std::uint32_t shared_mask,
                                        std::uint32_t shared_values) {
  assert(full.route() != CandidateRoute::kReference ||
         full.reference_ == &reference_full_);
  const std::size_t full_cols = partition.num_cols();
  const std::size_t cols =
      condition_columns(full_cols, partition, shared_mask, shared_values);
  CandidateRef slice;
  if (full.int32_ != nullptr) {
    slice.int32_ = &condition_integer(*full.int32_, cols);
  } else if (full.int64_ != nullptr) {
    slice.int64_ = &condition_integer(*full.int64_, cols);
  } else {
    const CostMatrix& f = *full.reference_;
    assert(f.rows == partition.num_rows() && f.cols == full_cols);
    CostMatrix& out = reference_cond_;
    out.rows = f.rows;
    out.cols = cols;
    out.cost0.resize(out.rows * out.cols);
    out.cost1.resize(out.rows * out.cols);
    for (std::size_t r = 0; r < out.rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        out.cost0[r * cols + c] = f.cost0[r * full_cols + cond_cols_[c]];
        out.cost1[r * cols + c] = f.cost1[r * full_cols + cond_cols_[c]];
      }
    }
    slice.reference_ = &out;
  }
  slices().add();
  return slice;
}

template <class Ops>
typename Ops::Sum EvalWorkspace::exact_restart(
    const IntegerCostMatrix<typename Ops::T>& matrix,
    ExactScratch<typename Ops::T>& scratch, unsigned max_iterations,
    std::uint64_t& alternations) {
  using T = typename Ops::T;
  using Sum = typename Ops::Sum;
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const std::size_t words = pattern_.size();
  const auto retype = [&](std::span<const std::uint64_t> raised,
                          std::span<const std::uint64_t> lowered) {
    return retype_rows<Ops>(matrix.rows_pad, matrix.diff_cols.data(), raised,
                            lowered, matrix.sums0.data(), matrix.sums1.data(),
                            scratch.match.data(), row_types_.data());
  };

  // Types step for the drawn pattern: from the all-zero pattern, whose
  // match sums are the AllZero row sums, raise the drawn columns, or from
  // the all-one pattern lower the others, whichever moves fewer columns.
  std::size_t ones = 0;
  for (const std::uint64_t word : pattern_) ones += std::popcount(word);
  const bool from_zero = 2 * ones <= cols;
  std::copy_n(from_zero ? matrix.sums0.data() : matrix.sums1.data(),
              matrix.rows_pad, scratch.match.data());
  if (!from_zero) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t count = std::min<std::size_t>(64, cols - 64 * w);
      lowered_[w] = ~pattern_[w] & (~std::uint64_t{0} >> (64 - count));
    }
  }
  Sum error = from_zero ? retype(pattern_, {}) : retype({}, lowered_);

  constexpr auto kPattern = static_cast<std::uint8_t>(RowType::kPattern);
  constexpr auto kComplement =
      static_cast<std::uint8_t>(RowType::kComplement);
  std::fill(scratch.balance.begin(), scratch.balance.end(), T{0});
  std::fill(summed_types_.begin(), summed_types_.end(), std::uint8_t{0});
  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    ++alternations;
    // Pattern step: move the balances from the types they reflect
    // (summed_types_; initially none) to the current ones, touching only
    // the rows whose type changed from or to kPattern or kComplement; byte
    // compares of the two type arrays find them 64 rows at a time. A
    // kPattern row contributes -(loss1 - loss0) to each balance, a
    // kComplement row +(loss1 - loss0).
    std::size_t plus = 0;
    std::size_t minus = 0;
    const auto list = [&](std::uint64_t rows_mask, std::size_t base,
                          std::vector<const T*>& out, std::size_t& count) {
      for (; rows_mask != 0; rows_mask &= rows_mask - 1) {
        const auto r = base + static_cast<std::size_t>(
                                  std::countr_zero(rows_mask));
        out[count++] = matrix.diff_rows.data() + r * cols;
      }
    };
    for (std::size_t base = 0; base < rows; base += 64) {
      const std::uint8_t* before = summed_types_.data() + base;
      const std::uint8_t* now = row_types_.data() + base;
      std::uint64_t changed = ~simd::bytes_eq64(before, now);
      if (rows - base < 64) changed &= (std::uint64_t{1} << (rows - base)) - 1;
      list(changed & simd::bytes_eq64(before, kPattern), base,
           scratch.plus_rows, plus);
      list(changed & simd::bytes_eq64(now, kComplement), base,
           scratch.plus_rows, plus);
      list(changed & simd::bytes_eq64(before, kComplement), base,
           scratch.minus_rows, minus);
      list(changed & simd::bytes_eq64(now, kPattern), base,
           scratch.minus_rows, minus);
    }
    std::copy(row_types_.begin(), row_types_.end(), summed_types_.begin());
    const bool flipped = shift_and_choose<Ops>(
        scratch.balance.data(), cols,
        std::span<const T* const>(scratch.plus_rows.data(), plus),
        std::span<const T* const>(scratch.minus_rows.data(), minus),
        pattern_.data(), raised_.data(), lowered_.data());

    // Types step: only the flipped columns move the match sums. With none,
    // the types and the total stay as they are.
    const Sum after = flipped ? retype(raised_, lowered_) : error;
    if (Ops::no_gain(after, error)) return std::min(error, after);
    error = after;
  }
  return error;
}

template <class Ops>
VtResult EvalWorkspace::exact_restarts(
    const IntegerCostMatrix<typename Ops::T>& matrix,
    const OptForPartParams& params, util::Rng& rng,
    std::uint64_t& alternations) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const unsigned restarts = std::max(1u, params.init_patterns);
  auto& scratch = integer_scratch<typename Ops::T>().exact;
  scratch.match.resize(matrix.rows_pad);
  scratch.balance.resize(cols);
  scratch.plus_rows.resize(2 * rows + 2);
  scratch.minus_rows.resize(2 * rows + 2);
  // Whole 64-row words for the changed-row compare.
  const std::size_t type_rows = (matrix.rows_pad + 63) / 64 * 64;
  row_types_.resize(type_rows);
  summed_types_.resize(type_rows);
  pattern_.resize((cols + 63) / 64);
  raised_.resize(pattern_.size());
  lowered_.resize(pattern_.size());

  // One restart at a time, each drawing its pattern as the reference does,
  // so the RNG stream is the same; the first strictly better restart wins.
  VtResult best;
  typename Ops::Sum best_total{};
  for (unsigned z = 0; z < restarts; ++z) {
    for (std::size_t w = 0; w < pattern_.size(); ++w) {
      pattern_[w] = rng.next_bits(
          static_cast<unsigned>(std::min<std::size_t>(64, cols - w * 64)));
    }
    const auto total = exact_restart<Ops>(matrix, scratch,
                                          params.max_iterations, alternations);
    if (z == 0 || total < best_total) {
      best_total = total;
      best.pattern.resize(cols);
      for (std::size_t c = 0; c < cols; ++c) {
        best.pattern[c] = pattern_[c / 64] >> (c % 64) & 1;
      }
      best.types.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        best.types[r] = static_cast<RowType>(row_types_[r]);
      }
    }
  }
  best.error = Ops::to_error(best_total, matrix.scale_bits);
  return best;
}

template <class T>
VtResult EvalWorkspace::integer_opt_for_part(const IntegerCostMatrix<T>& matrix,
                                             const OptForPartParams& params,
                                             util::Rng& rng) {
  // A scalar build's lanes are one wide: it runs the plain one-lane ops.
  using Ops = std::conditional_t<simd::enabled(), LaneOps<T>, OneLaneOps<T>>;
  std::uint64_t alternations = 0;
  VtResult best = exact_restarts<Ops>(matrix, params, rng, alternations);
  count_opt_for_part(std::max(1u, params.init_patterns), alternations, true);
  return best;
}

VtResult EvalWorkspace::opt_for_part(const CandidateRef& candidate,
                                     const OptForPartParams& params,
                                     util::Rng& rng) {
  assert(params.init_patterns >= 1);
  if (candidate.int32_ != nullptr) {
    return integer_opt_for_part(*candidate.int32_, params, rng);
  }
  if (candidate.int64_ != nullptr) {
    return integer_opt_for_part(*candidate.int64_, params, rng);
  }
  // Without the certificate, sums depend on the order their terms are
  // added in, which only the reference fixes.
  const OptForPartParams clamped{std::max(1u, params.init_patterns),
                                 params.max_iterations};
  std::uint64_t alternations = 0;
  VtResult best =
      core::opt_for_part(*candidate.reference_, clamped, rng, &alternations);
  count_opt_for_part(clamped.init_patterns, alternations, false);
  return best;
}

VtResult EvalWorkspace::opt_for_part_bto(const CandidateRef& candidate) {
  if (candidate.int32_ != nullptr) {
    return integer_bto(*candidate.int32_, int32_.col_diffs);
  }
  if (candidate.int64_ != nullptr) {
    return integer_bto(*candidate.int64_, int64_.col_diffs);
  }
  return core::opt_for_part_bto(*candidate.reference_);
}

}  // namespace dalut::core
