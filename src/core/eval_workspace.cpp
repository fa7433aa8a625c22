#include "core/eval_workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <limits>

#include "util/bits.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace dalut::core {

namespace {

namespace simd = util::simd;

// ---- Blocked gather kernel ----------------------------------------------
//
// The scattered gather is a pure bit-permutation copy: the destination pair
// of input x is row pext(x, free) and column pext(x, bound). Instead of
// walking the destination and computing scattered source addresses, the
// kernel walks the source in aligned 64-byte blocks — the 4-pair subcube of
// the low two input bits — and scatters each block with at most four wide
// stores. The outer loops enumerate the high free bits (destination rows
// ascending) then the high bound bits (destination columns ascending) with
// incremental subset counters, so every store stream is sequential and no
// per-element pext is ever computed. Contents are byte-identical to the
// scalar reference loop (it is a permutation copy), which remains below for
// the forced-scalar path and degenerate shapes.

/// Advances a subset-enumeration counter k steps (k small).
inline std::uint64_t subset_advance(std::uint64_t x, std::uint64_t m,
                                    unsigned k) noexcept {
  while (k--) x = (x - m) & m;
  return x;
}

/// Yields the 64-byte source block of pairs {x, x+1, x+2, x+3} from the
/// interleaved per-epoch source copy.
struct InterleavedBlockLoader {
  const double* src;
  void operator()(std::uint64_t x, simd::D4& lo, simd::D4& hi) const noexcept {
    lo = simd::loadu4(src + 2 * x);
    hi = simd::loadu4(src + 2 * x + 4);
  }
  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(src + 2 * x);
  }
};

/// Same block, interleaved on the fly from the split c0/c1 arrays (raw
/// views and domains too large for a mirrored source copy).
struct SplitBlockLoader {
  const double* c0;
  const double* c1;
  void operator()(std::uint64_t x, simd::D4& lo, simd::D4& hi) const noexcept {
    simd::interleave4(simd::loadu4(c0 + x), simd::loadu4(c1 + x), lo, hi);
  }
  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(c0 + x);
    simd::prefetch(c1 + x);
  }
};

template <typename Loader>
void gather_blocked(double* cells, std::uint32_t bound,
                    std::uint32_t free_mask, std::size_t cols,
                    const Loader& load) noexcept {
  const std::uint32_t lb = bound & 3u;
  const std::uint64_t hb = bound & ~std::uint64_t{3};
  const std::uint64_t hf = free_mask & ~std::uint64_t{3};
  const std::size_t row_words = 2 * cols;
  // Software-prefetch distance in 64-byte source blocks; the destination
  // streams are sequential, so only the source side needs help.
  constexpr unsigned kAhead = 8;
  const unsigned row_shift = util::popcount(free_mask & 3u);

  std::uint64_t xf = 0;
  std::size_t row = 0;
  do {
    double* row_base = cells + (row << row_shift) * row_words;
    std::uint64_t xb = 0;
    std::uint64_t xb_pre = subset_advance(0, hb, kAhead);
    std::size_t col = 0;
    if (lb == 3) {
      // Both low bits bound: the block is one contiguous 4-column run.
      do {
        load.prefetch(xf | xb_pre);
        xb_pre = (xb_pre - hb) & hb;
        simd::D4 lo, hi;
        load(xf | xb, lo, hi);
        double* d = row_base + 8 * col;
        simd::storeu4(d, lo);
        simd::storeu4(d + 4, hi);
        ++col;
        xb = (xb - hb) & hb;
      } while (xb != 0);
    } else if (lb == 0) {
      // Both low bits free: one pair onto each of four row streams.
      do {
        load.prefetch(xf | xb_pre);
        xb_pre = (xb_pre - hb) & hb;
        simd::D4 lo, hi;
        load(xf | xb, lo, hi);
        double* d = row_base + 2 * col;
        simd::storeu2(d, simd::low2(lo));
        simd::storeu2(d + row_words, simd::high2(lo));
        simd::storeu2(d + 2 * row_words, simd::low2(hi));
        simd::storeu2(d + 3 * row_words, simd::high2(hi));
        ++col;
        xb = (xb - hb) & hb;
      } while (xb != 0);
    } else {
      // One low bit bound, one free: two 2-column runs on two row streams.
      // lb == 1 keeps the block halves as-is; lb == 2 regroups them (bit 0
      // toggles the row there, bit 1 the column).
      do {
        load.prefetch(xf | xb_pre);
        xb_pre = (xb_pre - hb) & hb;
        simd::D4 lo, hi;
        load(xf | xb, lo, hi);
        simd::D4 r0, r1;
        if (lb == 1) {
          r0 = lo;
          r1 = hi;
        } else {
          r0 = simd::join2(simd::low2(lo), simd::low2(hi));
          r1 = simd::join2(simd::high2(lo), simd::high2(hi));
        }
        double* d = row_base + 4 * col;
        simd::storeu4(d, r0);
        simd::storeu4(d + row_words, r1);
        ++col;
        xb = (xb - hb) & hb;
      } while (xb != 0);
    }
    ++row;
    xf = (xf - hf) & hf;
  } while (xf != 0);
}

// ---- Sweep kernels ------------------------------------------------------
//
// The OptForPart sweeps keep their running sums in registers: the types
// sweep holds a tile of restart vectors x rows of `match` accumulators
// across the column loop, and the column-pair sums hold a tile of
// {if-zero, if-one} column pairs across the row loop. Every accumulator is
// one (row, restart) or (column, restart) sum, advanced in the reference
// order (columns ascending, rows ascending), so the tiling changes only
// which sums are in flight together, never what any sum adds.
//
// The kernels are written once against a small op set and instantiated for
// simd lane vectors and for plain doubles; the latter is the forced-scalar
// path (simd::set_force_scalar). Both add, compare and select the same
// doubles, so their results are bit-identical.

constexpr double type_code(RowType type) noexcept {
  return static_cast<double>(static_cast<std::uint8_t>(type));
}

struct VectorOps {
  using D = simd::VecD;
  using U = simd::VecU;
  static constexpr unsigned kWidth = simd::kLanes;
  static D zero() noexcept { return simd::dzero(); }
  static D splat(double v) noexcept { return simd::dbroadcast(v); }
  static D add(D a, D b) noexcept { return simd::dadd(a, b); }
  static D sub(D a, D b) noexcept { return simd::dsub(a, b); }
  static D load(const double* p) noexcept { return simd::dloadu(p); }
  static D less(D a, D b) noexcept { return simd::dcmplt(a, b); }
  static D select(D m, D a, D b) noexcept { return simd::dselect(m, a, b); }
  /// Bit l set iff lane l of the mask is set.
  static unsigned mask_bits(D m) noexcept { return simd::dmovemask(m); }
  static void store(double* p, D v) noexcept { simd::dstoreu(p, v); }
  static U bits(std::uint64_t v) noexcept { return simd::ubroadcast(v); }
  static U load_bits(const std::uint64_t* p) noexcept {
    return simd::uloadu(p);
  }
  static U bit_xor(U a, U b) noexcept { return simd::uxor(a, b); }
  /// mask ? cost1 : cost0, given the bits of cost0 and cost0 ^ cost1.
  static D pick(U mask, U cost0, U diff) noexcept {
    return simd::as_double(simd::uxor(cost0, simd::uand(mask, diff)));
  }

  /// One {cost0, cost1} cell.
  using Cell = simd::D2;
  static Cell load_cell(const double* p) noexcept { return simd::loadu2(p); }
  static void store_cell(double* p, Cell v) noexcept { simd::storeu2(p, v); }
  static Cell add_cells(Cell a, Cell b) noexcept { return simd::add2(a, b); }

  /// Two adjacent cells.
  using Pairs = simd::D4;
  static constexpr unsigned kCells = 2;
  /// Pair accumulators per column tile: about eight vector registers.
  static constexpr unsigned kPairTile = 2 * simd::kLanes;
  static Pairs load_pairs(const double* p) noexcept { return simd::loadu4(p); }
  static void store_pairs(double* p, Pairs v) noexcept { simd::storeu4(p, v); }
  static Pairs add_pairs(Pairs a, Pairs b) noexcept { return simd::add4(a, b); }
};

struct ScalarOps {
  using D = double;
  using U = std::uint64_t;
  static constexpr unsigned kWidth = 1;
  static D zero() noexcept { return 0.0; }
  static D splat(double v) noexcept { return v; }
  static D add(D a, D b) noexcept { return a + b; }
  static D sub(D a, D b) noexcept { return a - b; }
  static D load(const double* p) noexcept { return *p; }
  static D less(D a, D b) noexcept {
    return std::bit_cast<double>(a < b ? ~std::uint64_t{0} : 0);
  }
  static D select(D m, D a, D b) noexcept {
    return std::bit_cast<std::uint64_t>(m) != 0 ? a : b;
  }
  static unsigned mask_bits(D m) noexcept {
    return static_cast<unsigned>(std::bit_cast<std::uint64_t>(m) >> 63);
  }
  static void store(double* p, D v) noexcept { *p = v; }
  static U bits(std::uint64_t v) noexcept { return v; }
  static U load_bits(const std::uint64_t* p) noexcept { return *p; }
  static U bit_xor(U a, U b) noexcept { return a ^ b; }
  static D pick(U mask, U cost0, U diff) noexcept {
    return std::bit_cast<double>(cost0 ^ (mask & diff));
  }

  struct Cell {
    double zero, one;
  };
  static Cell load_cell(const double* p) noexcept { return {p[0], p[1]}; }
  static void store_cell(double* p, Cell v) noexcept {
    p[0] = v.zero;
    p[1] = v.one;
  }
  static Cell add_cells(Cell a, Cell b) noexcept {
    return {a.zero + b.zero, a.one + b.one};
  }

  using Pairs = Cell;
  static constexpr unsigned kCells = 1;
  static constexpr unsigned kPairTile = 4;
  static Pairs load_pairs(const double* p) noexcept { return load_cell(p); }
  static void store_pairs(double* p, Pairs v) noexcept { store_cell(p, v); }
  static Pairs add_pairs(Pairs a, Pairs b) noexcept { return add_cells(a, b); }
};

/// Rows whose AllZero/AllOne sums are accumulated together.
constexpr std::size_t kSumRows = 8;

/// {AllZero, AllOne} cost sums of rows [r, r + N): each row's pair of sums
/// runs over columns ascending (the reference order), and the N rows keep N
/// independent add chains in flight.
template <class Ops, std::size_t N>
void sum_rows(const InterleavedCostMatrix& matrix, std::size_t r,
              double* sums0, double* sums1) noexcept {
  static constexpr double kZeros[2] = {};
  const std::size_t cols = matrix.cols;
  const double* row = matrix.cells.data() + 2 * r * cols;
  typename Ops::Cell acc[N];
  for (std::size_t i = 0; i < N; ++i) acc[i] = Ops::load_cell(kZeros);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t i = 0; i < N; ++i) {
      acc[i] = Ops::add_cells(acc[i],
                              Ops::load_cell(row + 2 * (i * cols + c)));
    }
  }
  for (std::size_t i = 0; i < N; ++i) {
    double sums[2];
    Ops::store_cell(sums, acc[i]);
    sums0[r + i] = sums[0];
    sums1[r + i] = sums[1];
  }
}

template <class Ops>
void sum_all_rows(const InterleavedCostMatrix& matrix, double* sums0,
                  double* sums1) noexcept {
  std::size_t r = 0;
  for (; r + kSumRows <= matrix.rows; r += kSumRows) {
    sum_rows<Ops, kSumRows>(matrix, r, sums0, sums1);
  }
  for (; r < matrix.rows; ++r) sum_rows<Ops, 1>(matrix, r, sums0, sums1);
}

/// Largest number of restart vectors a types tile holds in registers.
constexpr unsigned kMaxTileVectors = 4;

/// The reference's comparison chain, lane by lane: the cheapest of AllZero
/// (s0), AllOne (s1), Pattern (match) and Complement (s0 + s1 - match),
/// the earlier type winning a tie. Returns the cost; `type` gets the code.
template <class Ops>
inline typename Ops::D best_type(typename Ops::D match, typename Ops::D s0,
                                 typename Ops::D s1,
                                 typename Ops::D& type) noexcept {
  using D = typename Ops::D;
  const D one = Ops::less(s1, s0);
  D best = Ops::select(one, s1, s0);
  type = Ops::select(one, Ops::splat(type_code(RowType::kAllOne)),
                     Ops::splat(type_code(RowType::kAllZero)));
  D m = Ops::less(match, best);
  best = Ops::select(m, match, best);
  type = Ops::select(m, Ops::splat(type_code(RowType::kPattern)), type);
  const D complement = Ops::sub(Ops::add(s0, s1), match);
  m = Ops::less(complement, best);
  best = Ops::select(m, complement, best);
  type = Ops::select(m, Ops::splat(type_code(RowType::kComplement)), type);
  return best;
}

/// Types step for rows [r, r + R) of one restart tile: V vectors of restarts
/// starting at `groups[j]`, each kWidth wide. The R x V match accumulators
/// stay in registers across the column loop; each is one (row, restart)
/// sum over columns ascending, as in the reference. The row's best type and
/// cost then follow the reference's comparison chain lane by lane, and the
/// cost is added to the restart's running total.
template <class Ops, unsigned V, unsigned R>
inline void types_rows(const InterleavedCostMatrix& matrix, std::size_t r,
                       const std::uint64_t* patterns, std::size_t stride,
                       const std::uint32_t* groups, const double* sums0,
                       const double* sums1, std::uint8_t* types,
                       typename Ops::D (&total)[V]) noexcept {
  using D = typename Ops::D;
  constexpr unsigned W = Ops::kWidth;
  const std::size_t cols = matrix.cols;
  const double* row = matrix.cells.data() + 2 * r * cols;
  D acc[R][V];
  for (unsigned i = 0; i < R; ++i) {
    for (unsigned j = 0; j < V; ++j) acc[i][j] = Ops::zero();
  }
  for (std::size_t c = 0; c < cols; ++c) {
    // Full-width select masks: cost0 ^ (mask & (cost0 ^ cost1)) is
    // bit-for-bit the double the reference's `pattern[c] ? cost1 : cost0`
    // picks.
    typename Ops::U cost0[R], diff[R];
    for (unsigned i = 0; i < R; ++i) {
      const double* cell = row + 2 * (i * cols + c);
      cost0[i] = Ops::bits(std::bit_cast<std::uint64_t>(cell[0]));
      diff[i] = Ops::bit_xor(
          cost0[i], Ops::bits(std::bit_cast<std::uint64_t>(cell[1])));
    }
    const std::uint64_t* pat = patterns + c * stride;
    for (unsigned j = 0; j < V; ++j) {
      const auto mask = Ops::load_bits(pat + groups[j]);
      for (unsigned i = 0; i < R; ++i) {
        acc[i][j] = Ops::add(acc[i][j], Ops::pick(mask, cost0[i], diff[i]));
      }
    }
  }

  for (unsigned i = 0; i < R; ++i) {
    const D s0 = Ops::splat(sums0[r + i]);
    const D s1 = Ops::splat(sums1[r + i]);
    alignas(64) double codes[V * W];
    for (unsigned j = 0; j < V; ++j) {
      D type;
      total[j] = Ops::add(total[j], best_type<Ops>(acc[i][j], s0, s1, type));
      Ops::store(codes + j * W, type);
    }
    std::uint8_t* row_types = types + (r + i) * stride;
    for (unsigned j = 0; j < V; ++j) {
      for (unsigned l = 0; l < W; ++l) {
        row_types[groups[j] + l] = static_cast<std::uint8_t>(codes[j * W + l]);
      }
    }
  }
}

/// Types step of one restart tile over the whole matrix: rows two at a
/// time (each pattern load serves both), totals in registers throughout.
template <class Ops, unsigned V>
void types_tile(const InterleavedCostMatrix& matrix,
                const std::uint64_t* patterns, std::size_t stride,
                const std::uint32_t* groups, const double* sums0,
                const double* sums1, std::uint8_t* types, double* totals) {
  typename Ops::D total[V];
  for (unsigned j = 0; j < V; ++j) total[j] = Ops::zero();
  std::size_t r = 0;
  for (; r + 2 <= matrix.rows; r += 2) {
    types_rows<Ops, V, 2>(matrix, r, patterns, stride, groups, sums0, sums1,
                          types, total);
  }
  if (r < matrix.rows) {
    types_rows<Ops, V, 1>(matrix, r, patterns, stride, groups, sums0, sums1,
                          types, total);
  }
  for (unsigned j = 0; j < V; ++j) Ops::store(totals + groups[j], total[j]);
}

template <class Ops>
void types_tiles(const InterleavedCostMatrix& matrix,
                 const std::uint64_t* patterns, std::size_t stride,
                 std::span<const std::uint32_t> groups, const double* sums0,
                 const double* sums1, std::uint8_t* types, double* totals) {
  static_assert(kMaxTileVectors == 4);
  constexpr std::array kTiles = {&types_tile<Ops, 1>, &types_tile<Ops, 2>,
                                 &types_tile<Ops, 3>, &types_tile<Ops, 4>};
  for (std::size_t g = 0; g < groups.size(); g += kMaxTileVectors) {
    const std::size_t vectors =
        std::min<std::size_t>(kMaxTileVectors, groups.size() - g);
    kTiles[vectors - 1](matrix, patterns, stride, groups.data() + g, sums0,
                        sums1, types, totals);
  }
}

/// {if-zero, if-one} sums of columns [c, c + K * kCells) over the listed
/// rows, held in registers across the row loop; each listed row is a
/// pointer to its first cell. emit(column, if_zero, if_one) is called per
/// column, columns ascending.
template <class Ops, unsigned K, class Emit>
inline void pair_tile(std::size_t c, std::span<const double* const> rows,
                      Emit& emit) {
  using Pairs = typename Ops::Pairs;
  constexpr unsigned kStep = 2 * Ops::kCells;
  static constexpr double kZeros[kStep] = {};
  Pairs acc[K];
  for (unsigned t = 0; t < K; ++t) acc[t] = Ops::load_pairs(kZeros);
  for (const double* row : rows) {
    const double* p = row + 2 * c;
    for (unsigned t = 0; t < K; ++t) {
      acc[t] = Ops::add_pairs(acc[t], Ops::load_pairs(p + kStep * t));
    }
  }
  alignas(64) double sums[kStep * K];
  for (unsigned t = 0; t < K; ++t) Ops::store_pairs(sums + kStep * t, acc[t]);
  for (std::size_t k = 0; k < Ops::kCells * K; ++k) {
    emit(c + k, sums[2 * k], sums[2 * k + 1]);
  }
}

/// Runs K-pair tiles from column `c` while they fit, then halves K for the
/// remainder of narrow matrices. Returns the first column not covered.
template <class Ops, unsigned K, class Emit>
std::size_t pair_tiles(std::size_t cols, std::size_t c,
                       std::span<const double* const> rows, Emit& emit) {
  for (; c + Ops::kCells * K <= cols; c += Ops::kCells * K) {
    pair_tile<Ops, K>(c, rows, emit);
  }
  if constexpr (K > 1) {
    return pair_tiles<Ops, K / 2>(cols, c, rows, emit);
  } else {
    return c;
  }
}

/// Column-pair sums of the listed rows for all `cols` columns.
template <class Ops, class Emit>
void column_pair_sums(std::size_t cols, std::span<const double* const> rows,
                      Emit&& emit) {
  std::size_t c = pair_tiles<Ops, Ops::kPairTile>(cols, 0, rows, emit);
  for (; c < cols; ++c) pair_tile<ScalarOps, 1>(c, rows, emit);
}

// ---- Incremental kernels for exact matrices ------------------------------
//
// On an exact matrix (InterleavedCostMatrix::exact) every sum is exact, so
// it does not depend on the order its terms are added in: a sum updated by
// removing and adding terms equals the reference's fresh sum bit for bit.
// The same holds for differences of such sums, which lets a column keep one
// balance, if_zero - if_one, instead of the pair: the reference's
// `if_one < if_zero` is exactly `balance > 0`. A kPattern row adds
// cost0 - cost1 to each column's balance, a kComplement row cost1 - cost0.
// Row state is padded to whole vectors of rows; padding rows have zero
// costs.

/// Balances of columns [c, c + K * kWidth): the K vectors stay in
/// registers while the listed rows of cost differences are added (`plus`)
/// or subtracted (`minus`); each row is a pointer to its first column.
template <class Ops, unsigned K>
inline void shift_tile(double* balance, std::size_t c,
                       std::span<const double* const> plus,
                       std::span<const double* const> minus) noexcept {
  constexpr unsigned W = Ops::kWidth;
  typename Ops::D acc[K];
  for (unsigned t = 0; t < K; ++t) acc[t] = Ops::load(balance + c + t * W);
  for (const double* row : plus) {
    for (unsigned t = 0; t < K; ++t) {
      acc[t] = Ops::add(acc[t], Ops::load(row + c + t * W));
    }
  }
  for (const double* row : minus) {
    for (unsigned t = 0; t < K; ++t) {
      acc[t] = Ops::sub(acc[t], Ops::load(row + c + t * W));
    }
  }
  for (unsigned t = 0; t < K; ++t) Ops::store(balance + c + t * W, acc[t]);
}

/// balance[c] += sum of plus rows - sum of minus rows, for every column.
template <class Ops>
void shift_balance(double* balance, std::size_t cols,
                   std::span<const double* const> plus,
                   std::span<const double* const> minus) noexcept {
  constexpr unsigned W = Ops::kWidth;
  constexpr unsigned kTile = 4;
  std::size_t c = 0;
  for (; c + kTile * W <= cols; c += kTile * W) {
    shift_tile<Ops, kTile>(balance, c, plus, minus);
  }
  for (; c + W <= cols; c += W) shift_tile<Ops, 1>(balance, c, plus, minus);
  for (; c < cols; ++c) shift_tile<ScalarOps, 1>(balance, c, plus, minus);
}

/// Pattern step's bit choice, V_c = 1 iff balance[c] > 0, into the
/// pattern bitset (bit c % 64 of word c / 64). Appends the columns whose bit
/// changed to `raised` (now 1) or `lowered` (now 0), ascending, and returns
/// the two counts.
template <class Ops>
std::array<std::size_t, 2> choose_bits(const double* balance,
                                       std::size_t cols,
                                       std::uint64_t* pattern,
                                       std::uint32_t* raised,
                                       std::uint32_t* lowered) noexcept {
  constexpr unsigned W = Ops::kWidth;
  std::size_t up = 0;
  std::size_t down = 0;
  for (std::size_t base = 0; base < cols; base += 64) {
    const double* b = balance + base;
    const std::size_t count = std::min<std::size_t>(64, cols - base);
    std::uint64_t now = 0;
    std::size_t c = 0;
    for (; c + W <= count; c += W) {
      const auto positive = Ops::less(Ops::zero(), Ops::load(b + c));
      now |= std::uint64_t{Ops::mask_bits(positive)} << c;
    }
    for (; c < count; ++c) now |= std::uint64_t{b[c] > 0.0} << c;
    std::uint64_t& word = pattern[base / 64];
    for (std::uint64_t flips = now ^ word; flips != 0; flips &= flips - 1) {
      const auto bit = static_cast<unsigned>(std::countr_zero(flips));
      const auto one = static_cast<std::size_t>(now >> bit & 1);
      raised[up] = lowered[down] = static_cast<std::uint32_t>(base + bit);
      up += one;
      down += one ^ 1;
    }
    word = now;
  }
  return {up, down};
}

/// cost1 - cost0 of every cell, row-major (by_row[r * cols + c]) and
/// column-major (by_col[c * rows_pad + r], 0 for padding rows r >= rows).
/// Full 4 x 4 blocks are transposed in registers, so each 64-byte line of
/// cells is read once and each column is written sequentially.
void cost_diffs(const InterleavedCostMatrix& matrix, std::size_t rows_pad,
                double* by_row, double* by_col) noexcept {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const double* cells = matrix.cells.data();
  const std::size_t block_rows = simd::enabled() ? rows / 4 * 4 : 0;
  const std::size_t block_cols = simd::enabled() ? cols / 4 * 4 : 0;
  for (std::size_t c = 0; c < block_cols; c += 4) {
    double* out = by_col + c * rows_pad;
    for (std::size_t r = 0; r < block_rows; r += 4) {
      simd::D4 d[4];  // d[i]: columns c..c+3 of row r + i
      for (unsigned i = 0; i < 4; ++i) {
        const double* p = cells + 2 * ((r + i) * cols + c);
        simd::D4 zero, one;
        simd::deinterleave4(simd::loadu4(p), simd::loadu4(p + 4), zero, one);
        d[i] = simd::sub4(one, zero);
        simd::storeu4(by_row + (r + i) * cols + c, d[i]);
      }
      simd::D4 t01, t23, u01, u23;
      simd::interleave4(d[0], d[1], t01, t23);  // rows r, r + 1
      simd::interleave4(d[2], d[3], u01, u23);  // rows r + 2, r + 3
      simd::storeu4(out + r, simd::join2(simd::low2(t01), simd::low2(u01)));
      simd::storeu4(out + rows_pad + r,
                    simd::join2(simd::high2(t01), simd::high2(u01)));
      simd::storeu4(out + 2 * rows_pad + r,
                    simd::join2(simd::low2(t23), simd::low2(u23)));
      simd::storeu4(out + 3 * rows_pad + r,
                    simd::join2(simd::high2(t23), simd::high2(u23)));
    }
  }
  // Cells outside the full blocks (all of them on the forced-scalar path).
  for (std::size_t r = 0; r < rows_pad; ++r) {
    for (std::size_t c = r < block_rows ? block_cols : 0; c < cols; ++c) {
      if (r < rows) {
        const double* cell = cells + 2 * (r * cols + c);
        by_row[r * cols + c] = by_col[c * rows_pad + r] = cell[1] - cell[0];
      } else {
        by_col[c * rows_pad + r] = 0.0;
      }
    }
  }
}

/// Types step for rows [r, r + R * kWidth) of one restart: the R vectors of
/// match sums stay in registers while cost1 - cost0 is added for the
/// columns `raised` to 1 and subtracted for those `lowered` to 0; then each
/// row's type follows the reference's comparison chain.
template <class Ops, unsigned R>
inline void retype_tile(std::size_t r, std::size_t rows_pad,
                        const double* diffs,
                        std::span<const std::uint32_t> raised,
                        std::span<const std::uint32_t> lowered,
                        const double* sums0, const double* sums1,
                        double* match, std::uint8_t* types,
                        typename Ops::D& total) noexcept {
  using D = typename Ops::D;
  constexpr unsigned W = Ops::kWidth;
  D m[R];
  for (unsigned i = 0; i < R; ++i) m[i] = Ops::load(match + r + i * W);
  for (const std::uint32_t c : raised) {
    const double* d = diffs + c * rows_pad + r;
    for (unsigned i = 0; i < R; ++i) m[i] = Ops::add(m[i], Ops::load(d + i * W));
  }
  for (const std::uint32_t c : lowered) {
    const double* d = diffs + c * rows_pad + r;
    for (unsigned i = 0; i < R; ++i) m[i] = Ops::sub(m[i], Ops::load(d + i * W));
  }
  alignas(64) double codes[R * W];
  for (unsigned i = 0; i < R; ++i) {
    Ops::store(match + r + i * W, m[i]);
    D type;
    total = Ops::add(total, best_type<Ops>(m[i], Ops::load(sums0 + r + i * W),
                                           Ops::load(sums1 + r + i * W),
                                           type));
    Ops::store(codes + i * W, type);
  }
  for (unsigned l = 0; l < R * W; ++l) {
    types[r + l] = static_cast<std::uint8_t>(codes[l]);
  }
}

/// Types step of one restart from its stored match sums, over all rows_pad
/// rows (padding rows add zero). Returns the restart's total.
template <class Ops>
double retype_rows(std::size_t rows_pad, const double* diffs,
                   std::span<const std::uint32_t> raised,
                   std::span<const std::uint32_t> lowered,
                   const double* sums0, const double* sums1, double* match,
                   std::uint8_t* types) noexcept {
  constexpr unsigned W = Ops::kWidth;
  constexpr unsigned kTile = 8;
  typename Ops::D total = Ops::zero();
  std::size_t r = 0;
  for (; r + kTile * W <= rows_pad; r += kTile * W) {
    retype_tile<Ops, kTile>(r, rows_pad, diffs, raised, lowered, sums0, sums1,
                            match, types, total);
  }
  for (; r < rows_pad; r += W) {
    retype_tile<Ops, 1>(r, rows_pad, diffs, raised, lowered, sums0, sums1,
                        match, types, total);
  }
  alignas(64) double lanes[W];
  Ops::store(lanes, total);
  double sum = 0.0;
  for (unsigned l = 0; l < W; ++l) sum += lanes[l];
  return sum;
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

}  // namespace

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

const std::vector<InputWord>& EvalWorkspace::deposit_table(
    std::uint32_t mask) {
  const auto it = deposits_.find(mask);
  if (it != deposits_.end()) return it->second;
  if (deposits_.size() >= 256) deposits_.clear();
  auto& table = deposits_[mask];
  table.resize(std::size_t{1} << util::popcount(mask));
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<InputWord>(util::deposit_bits(i, mask));
  }
  return table;
}

const double* EvalWorkspace::interleaved_source(const CostView& costs) {
  const std::size_t domain = costs.c0.size();
  // Past ~2M inputs (2^21: a 32 MiB mirror) the copy no longer pays for
  // itself within one epoch and would double the resident footprint of
  // out-of-core tables; the gather then reads the split arrays directly.
  constexpr std::size_t kMaxInterleavedDomain = std::size_t{1} << 21;
  if (costs.epoch == 0 || domain > kMaxInterleavedDomain) return nullptr;
  ++source_tick_;
  SourceSlot* slot = &sources_.front();
  for (auto& candidate : sources_) {
    if (candidate.epoch == costs.epoch) {
      candidate.last_use = source_tick_;
      return candidate.data.data();
    }
    if (candidate.last_use < slot->last_use) slot = &candidate;
  }
  slot->epoch = costs.epoch;
  slot->last_use = source_tick_;
  slot->data.resize(2 * domain);
  double* out = slot->data.data();
  const double* c0 = costs.c0.data();
  const double* c1 = costs.c1.data();
  std::size_t x = 0;
  if (simd::enabled()) {
    for (; x + 4 <= domain; x += 4) {
      simd::D4 lo, hi;
      simd::interleave4(simd::loadu4(c0 + x), simd::loadu4(c1 + x), lo, hi);
      simd::storeu4(out + 2 * x, lo);
      simd::storeu4(out + 2 * x + 4, hi);
    }
  }
  for (; x < domain; ++x) {
    out[2 * x] = c0[x];
    out[2 * x + 1] = c1[x];
  }
  return out;
}

void EvalWorkspace::gather_into(InterleavedCostMatrix& out,
                                const Partition& partition,
                                const CostView& costs) {
  assert(costs.c0.size() ==
         (std::size_t{1} << partition.num_inputs()));
  assert(costs.c1.size() == costs.c0.size());
  out.rows = partition.num_rows();
  out.cols = partition.num_cols();
  out.exact = costs.exact;
  out.cells.resize(2 * out.rows * out.cols);
  double* cells = out.cells.data();
  util::assert_aligned64(cells);

  const std::size_t domain = costs.c0.size();
  if (simd::enabled() && domain >= 4) {
    // Blocked permutation copy (see gather_blocked above). It walks the
    // source directly with incremental subset counters, so the deposit
    // tables are not needed — at n = 24 they alone would be 96 MiB.
    if (const double* src = interleaved_source(costs)) {
      gather_blocked(cells, partition.bound_mask(), partition.free_mask(),
                     out.cols, InterleavedBlockLoader{src});
    } else {
      gather_blocked(cells, partition.bound_mask(), partition.free_mask(),
                     out.cols,
                     SplitBlockLoader{costs.c0.data(), costs.c1.data()});
    }
    gathers().add();
    return;
  }

  // deposit_table() may flush its cache when inserting a new entry, which
  // would invalidate a reference obtained from an earlier call. Touch both
  // masks first so the references taken below cannot be separated by a
  // flush: after the two priming calls the bound-mask entry exists, so the
  // final bound-mask lookup is a hit (no mutation), and a free-mask miss
  // inserts into a near-empty table (unordered_map insertion never moves
  // existing entries).
  deposit_table(partition.free_mask());
  deposit_table(partition.bound_mask());
  const auto& row_x = deposit_table(partition.free_mask());
  const auto& col_x = deposit_table(partition.bound_mask());

  if (const double* src = interleaved_source(costs)) {
    // One interleaved source read per cell: both costs share a cache line.
    for (std::size_t r = 0; r < out.rows; ++r) {
      const InputWord rx = row_x[r];
      double* dst = cells + 2 * r * out.cols;
      for (std::size_t c = 0; c < out.cols; ++c) {
        const double* pair = src + 2 * (rx | col_x[c]);
        dst[2 * c] = pair[0];
        dst[2 * c + 1] = pair[1];
      }
    }
  } else {
    const double* c0 = costs.c0.data();
    const double* c1 = costs.c1.data();
    for (std::size_t r = 0; r < out.rows; ++r) {
      const InputWord rx = row_x[r];
      double* dst = cells + 2 * r * out.cols;
      for (std::size_t c = 0; c < out.cols; ++c) {
        const InputWord x = rx | col_x[c];
        dst[2 * c] = c0[x];
        dst[2 * c + 1] = c1[x];
      }
    }
  }
  gathers().add();
}

MatrixRef EvalWorkspace::full_matrix(const Partition& partition,
                                     const CostView& costs) {
  gather_into(full_scratch_, partition, costs);
  return MatrixRef(&full_scratch_);
}

const InterleavedCostMatrix& EvalWorkspace::conditioned(
    const InterleavedCostMatrix& full, const Partition& partition,
    std::uint32_t shared_mask, std::uint32_t shared_values) {
  assert(shared_mask != 0 &&
         (shared_mask & ~partition.bound_mask()) == 0);
  assert(full.rows == partition.num_rows() &&
         full.cols == partition.num_cols());
  assert(&full != &cond_scratch_);

  // Rank positions of the shared input bits inside the packed column index.
  std::uint32_t rank_mask = 0;
  for (std::uint32_t bits = shared_mask; bits != 0; bits &= bits - 1) {
    const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
    const unsigned rank = util::popcount(
        partition.bound_mask() & ((std::uint32_t{1} << bit) - 1));
    rank_mask |= std::uint32_t{1} << rank;
  }
  const std::uint32_t reduced_mask =
      (static_cast<std::uint32_t>(full.cols) - 1) & ~rank_mask;
  const auto fixed_cols = static_cast<std::uint32_t>(
      util::deposit_bits(shared_values, rank_mask));

  cond_scratch_.rows = full.rows;
  cond_scratch_.cols = full.cols >> util::popcount(shared_mask);
  cond_scratch_.exact = full.exact;
  cond_scratch_.cells.resize(2 * cond_scratch_.rows * cond_scratch_.cols);

  cond_cols_.resize(cond_scratch_.cols);
  for (std::size_t c = 0; c < cond_cols_.size(); ++c) {
    cond_cols_[c] = static_cast<std::uint32_t>(
                        util::deposit_bits(c, reduced_mask)) |
                    fixed_cols;
  }

  const double* src = full.cells.data();
  double* dst = cond_scratch_.cells.data();
  for (std::size_t r = 0; r < cond_scratch_.rows; ++r) {
    const double* src_row = src + 2 * r * full.cols;
    for (std::size_t c = 0; c < cond_scratch_.cols; ++c, dst += 2) {
      const double* pair = src_row + 2 * cond_cols_[c];
      dst[0] = pair[0];
      dst[1] = pair[1];
    }
  }
  slices().add();
  return cond_scratch_;
}

unsigned EvalWorkspace::restart_block(std::size_t rows, std::size_t cols,
                                      unsigned restarts) const {
  if (opt_block_override_ != 0) {
    return std::min(opt_block_override_, restarts);
  }
  // Keep the per-block pattern masks, types and totals within ~1 MiB so
  // they stay cache-resident next to the matrix itself.
  const std::size_t per_restart =
      sizeof(std::uint64_t) * cols + rows + 2 * sizeof(double);
  const std::size_t budget = std::size_t{1} << 20;
  const auto block = static_cast<unsigned>(
      std::clamp<std::size_t>(budget / per_restart, 1, restarts));
  return block;
}

void EvalWorkspace::row_sums(const InterleavedCostMatrix& matrix) {
  // Padding rows (up to rows_pad_) keep zero sums.
  sums0_.assign(rows_pad_, 0.0);
  sums1_.assign(rows_pad_, 0.0);
  if (simd::enabled()) {
    sum_all_rows<VectorOps>(matrix, sums0_.data(), sums1_.data());
  } else {
    sum_all_rows<ScalarOps>(matrix, sums0_.data(), sums1_.data());
  }
}

void EvalWorkspace::types_sweep(const InterleavedCostMatrix& matrix,
                                std::size_t stride,
                                util::aligned_vector<double>& totals) {
  // Tiles cover the lane groups that hold an active restart. The other
  // lanes of such a group are recomputed along with it: a converged
  // restart's pattern is frozen, so its types and total come out exactly as
  // stored, and padding lanes (stride > count) are never read.
  const unsigned width = simd::enabled() ? VectorOps::kWidth : 1;
  groups_.clear();
  for (const std::uint32_t z : active_) {
    const std::uint32_t group = z - z % width;
    if (groups_.empty() || groups_.back() != group) groups_.push_back(group);
  }
  util::assert_aligned64(patterns_.data());
  if (simd::enabled()) {
    types_tiles<VectorOps>(matrix, patterns_.data(), stride, groups_,
                           sums0_.data(), sums1_.data(), types_.data(),
                           totals.data());
  } else {
    types_tiles<ScalarOps>(matrix, patterns_.data(), stride, groups_,
                           sums0_.data(), sums1_.data(), types_.data(),
                           totals.data());
  }
}

void EvalWorkspace::pattern_sweep(const InterleavedCostMatrix& matrix,
                                  std::size_t stride) {
  // Restart-major: a row only contributes to the restarts whose current
  // type for it is kPattern or kComplement, and with realistic cost arrays
  // that is sparse (most rows settle on kAllZero/kAllOne for most
  // restarts), so listing each restart's participating rows keeps the work
  // proportional to the participating (row, restart) pairs. A kComplement
  // row charges the costs with the roles reversed, so it is listed from the
  // pair-swapped copy. Converged restarts keep their patterns.
  static_assert(static_cast<int>(RowType::kAllZero) == 1 &&
                static_cast<int>(RowType::kAllOne) == 2 &&
                static_cast<int>(RowType::kPattern) == 3 &&
                static_cast<int>(RowType::kComplement) == 4);
  const std::size_t row_words = 2 * matrix.cols;
  // Row source by type code; only kPattern/kComplement rows are kept. The
  // list is built branch-free, as the types are data-dependent.
  const double* const source[] = {
      matrix.cells.data(), matrix.cells.data(), matrix.cells.data(),
      matrix.cells.data(), derived_.data()};
  const bool vec = simd::enabled();
  for (const std::uint32_t z : active_) {
    std::size_t count = 0;
    for (std::size_t r = 0; r < matrix.rows; ++r) {
      const std::uint8_t type = types_[r * stride + z];
      pair_rows_[count] = source[type] + r * row_words;
      count += type >= static_cast<std::uint8_t>(RowType::kPattern);
    }
    const std::span<const double* const> rows(pair_rows_.data(), count);
    std::uint64_t* pat = patterns_.data() + z;
    const auto set_bit = [&](std::size_t c, double if_zero, double if_one) {
      pat[c * stride] = if_one < if_zero ? ~std::uint64_t{0} : 0;
    };
    if (vec) {
      column_pair_sums<VectorOps>(matrix.cols, rows, set_bit);
    } else {
      column_pair_sums<ScalarOps>(matrix.cols, rows, set_bit);
    }
  }
}

template <class Ops>
double EvalWorkspace::exact_restart(const InterleavedCostMatrix& matrix,
                                    unsigned max_iterations) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const double* const diff_rows = derived_.data();
  const double* const diff_cols = diff_rows + rows * cols;
  const auto retype = [&](std::size_t raised, std::size_t lowered) {
    return retype_rows<Ops>(
        rows_pad_, diff_cols,
        std::span<const std::uint32_t>(raised_.data(), raised),
        std::span<const std::uint32_t>(lowered_.data(), lowered),
        sums0_.data(), sums1_.data(), match_.data(), row_types_.data());
  };

  // Types step for the drawn pattern: from the all-zero pattern, whose
  // match sums are the AllZero row sums, raise the drawn columns.
  std::copy_n(sums0_.data(), rows_pad_, match_.data());
  std::size_t raised = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    raised_[raised] = static_cast<std::uint32_t>(c);
    raised += pattern_[c / 64] >> (c % 64) & 1;
  }
  double error = retype(raised, 0);

  constexpr auto kPattern = static_cast<std::uint8_t>(RowType::kPattern);
  constexpr auto kComplement =
      static_cast<std::uint8_t>(RowType::kComplement);
  std::fill(balance_.begin(), balance_.end(), 0.0);
  std::fill(summed_types_.begin(), summed_types_.end(), std::uint8_t{0});
  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    // Pattern step: move the balances from the types they reflect
    // (summed_types_; initially none) to the current ones, touching only
    // the rows whose type changed. A kPattern row contributes
    // -(cost1 - cost0) to each balance, a kComplement row +(cost1 - cost0).
    std::size_t plus = 0;
    std::size_t minus = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::uint8_t before = summed_types_[r];
      const std::uint8_t now = row_types_[r];
      if (before == now) continue;
      // Branch-free: the row enters each list zero, one or two times.
      const double* diff = diff_rows + r * cols;
      plus_rows_[plus] = plus_rows_[plus + 1] = diff;
      plus += (before == kPattern) + (now == kComplement);
      minus_rows_[minus] = minus_rows_[minus + 1] = diff;
      minus += (before == kComplement) + (now == kPattern);
      summed_types_[r] = now;
    }
    shift_balance<Ops>(balance_.data(), cols,
                       std::span<const double* const>(plus_rows_.data(), plus),
                       std::span<const double* const>(minus_rows_.data(), minus));
    const auto [up, down] = choose_bits<Ops>(balance_.data(), cols,
                                             pattern_.data(), raised_.data(),
                                             lowered_.data());

    // Types step: only the flipped columns move the match sums. With none,
    // the types and the total stay as they are.
    const double after = up + down == 0 ? error : retype(up, down);
    if (after >= error - 1e-15) return std::min(error, after);
    error = after;
  }
  return error;
}

VtResult EvalWorkspace::opt_for_part(const InterleavedCostMatrix& matrix,
                                     const OptForPartParams& params,
                                     util::Rng& rng) {
  assert(params.init_patterns >= 1);
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const unsigned restarts = std::max(1u, params.init_patterns);
  rows_pad_ = (rows + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
  row_sums(matrix);

  VtResult best;
  best.error = std::numeric_limits<double>::infinity();

  if (matrix.exact) {
    // One restart at a time, each drawing its pattern as the reference
    // does, so the RNG stream is the same.
    // The cost differences, row-major then column-major (see exact_restart).
    derived_.resize(rows * cols + cols * rows_pad_);
    cost_diffs(matrix, rows_pad_, derived_.data(),
               derived_.data() + rows * cols);
    match_.resize(rows_pad_);
    row_types_.resize(rows_pad_);
    summed_types_.resize(rows);
    balance_.resize(cols);
    plus_rows_.resize(2 * rows + 2);
    minus_rows_.resize(2 * rows + 2);
    pattern_.resize((cols + 63) / 64);
    raised_.resize(cols);
    lowered_.resize(cols);
    for (unsigned z = 0; z < restarts; ++z) {
      for (std::size_t w = 0; w < pattern_.size(); ++w) {
        pattern_[w] = rng.next_bits(
            static_cast<unsigned>(std::min<std::size_t>(64, cols - w * 64)));
      }
      const double error =
          simd::enabled()
              ? exact_restart<VectorOps>(matrix, params.max_iterations)
              : exact_restart<ScalarOps>(matrix, params.max_iterations);
      if (error < best.error) {
        best.error = error;
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
    return best;
  }

  const unsigned block = restart_block(rows, cols, restarts);
  // {cost1, cost0} copy of the matrix for the pattern sweep's kComplement
  // rows.
  derived_.resize(matrix.cells.size());
  for (std::size_t i = 0; i < derived_.size(); i += 2) {
    derived_[i] = matrix.cells[i + 1];
    derived_[i + 1] = matrix.cells[i];
  }
  pair_rows_.resize(rows);

  for (unsigned base = 0; base < restarts; base += block) {
    const unsigned count = std::min(block, restarts - base);
    // Per-restart arrays are restart-minor ([item * stride + restart]) with
    // the stride padded to whole vectors, so every restart tile loads full
    // vectors. patterns_ holds one full-width select mask (0 or ~0) per
    // entry; padding lanes stay 0.
    const std::size_t stride =
        (count + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
    patterns_.assign(cols * stride, 0);
    types_.resize(rows * stride);
    error_.resize(stride);
    after_.resize(stride);

    // Initial pattern vectors, drawn restart-major so the RNG stream is
    // identical to the reference implementation's per-restart draws.
    for (unsigned z = 0; z < count; ++z) {
      for (std::size_t c = 0; c < cols; c += 64) {
        const std::size_t span = std::min<std::size_t>(64, cols - c);
        const std::uint64_t bits = rng.next_bits(static_cast<unsigned>(span));
        for (std::size_t i = 0; i < span; ++i) {
          patterns_[(c + i) * stride + z] = 0 - (bits >> i & 1);
        }
      }
    }

    active_.resize(count);
    for (unsigned z = 0; z < count; ++z) active_[z] = z;
    types_sweep(matrix, stride, error_);

    // Both steps are exact coordinate minimizations, so each restart's
    // error is non-increasing; a restart leaves the active set at its first
    // sweep without improvement (same epsilon rule as the reference).
    for (unsigned iter = 0;
         iter < params.max_iterations && !active_.empty(); ++iter) {
      pattern_sweep(matrix, stride);
      types_sweep(matrix, stride, after_);
      next_active_.clear();
      for (const std::uint32_t z : active_) {
        if (after_[z] >= error_[z] - 1e-15) {
          error_[z] = std::min(error_[z], after_[z]);
        } else {
          error_[z] = after_[z];
          next_active_.push_back(z);
        }
      }
      active_.swap(next_active_);
    }

    for (unsigned z = 0; z < count; ++z) {
      if (error_[z] < best.error) {
        best.error = error_[z];
        best.pattern.resize(cols);
        for (std::size_t c = 0; c < cols; ++c) {
          best.pattern[c] = patterns_[c * stride + z] ? 1 : 0;
        }
        best.types.resize(rows);
        for (std::size_t r = 0; r < rows; ++r) {
          best.types[r] = static_cast<RowType>(types_[r * stride + z]);
        }
      }
    }
  }
  return best;
}

VtResult EvalWorkspace::opt_for_part_bto(const InterleavedCostMatrix& matrix) {
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  pair_rows_.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    pair_rows_[r] = matrix.cells.data() + 2 * r * cols;
  }

  VtResult result;
  result.types.assign(rows, RowType::kPattern);
  result.pattern.assign(cols, 0);
  result.error = 0.0;
  const auto choose = [&](std::size_t c, double if_zero, double if_one) {
    if (if_one < if_zero) {
      result.pattern[c] = 1;
      result.error += if_one;
    } else {
      result.error += if_zero;
    }
  };
  if (simd::enabled()) {
    column_pair_sums<VectorOps>(cols, pair_rows_, choose);
  } else {
    column_pair_sums<ScalarOps>(cols, pair_rows_, choose);
  }
  return result;
}

double EvalWorkspace::evaluate_vt(const InterleavedCostMatrix& matrix,
                                  std::span<const std::uint8_t> pattern,
                                  std::span<const RowType> types) const {
  assert(pattern.size() == matrix.cols);
  assert(types.size() == matrix.rows);
  double total = 0.0;
  const double* cells = matrix.cells.data();
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    const double* row = cells + 2 * r * matrix.cols;
    for (std::size_t c = 0; c < matrix.cols; ++c) {
      bool value = false;
      switch (types[r]) {
        case RowType::kAllZero:
          value = false;
          break;
        case RowType::kAllOne:
          value = true;
          break;
        case RowType::kPattern:
          value = pattern[c] != 0;
          break;
        case RowType::kComplement:
          value = pattern[c] == 0;
          break;
      }
      total += value ? row[2 * c + 1] : row[2 * c];
    }
  }
  return total;
}

}  // namespace dalut::core
