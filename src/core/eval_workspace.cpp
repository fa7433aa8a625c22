#include "core/eval_workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
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

// Past ~2M inputs (2^21: a 32 MiB double mirror) a per-epoch source mirror
// no longer pays for itself within one epoch and would double the resident
// footprint of out-of-core tables; the gather then reads the split arrays
// directly.
constexpr std::size_t kMaxMirroredDomain = std::size_t{1} << 21;

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

// ---- Integer gather kernel ----------------------------------------------
//
// The same walk for certified arrays, straight into the integer layout. The
// loss source holds each 4-input block as its four losses loss0 and then
// its four differences loss1 - loss0 (32 bytes), and input i of a block
// lands at row pext(i, free & 3) and column pext(i, bound & 3) of its
// 4 x 1, 2 x 2 or 1 x 4 destination patch. The walk stores the differences
// row-major (and loss0 too when the candidate will be sliced) and keeps
// the row sums of both in registers while it stays on one patch row;
// transpose_diffs() then lays the differences out by column too.

constexpr unsigned pext2(unsigned value, unsigned mask) noexcept {
  unsigned out = 0;
  unsigned bit = 0;
  for (unsigned i = 0; i < 2; ++i) {
    if (mask >> i & 1) out |= (value >> i & 1) << bit++;
  }
  return out;
}

/// Yields the block of inputs {x, .., x + 3} from the per-epoch loss
/// mirror.
struct MirrorLossLoader {
  const std::int32_t* src;
  const std::int32_t* operator()(std::uint64_t x) const noexcept {
    return src + 2 * x;
  }
  void prefetch(std::uint64_t x) const noexcept { simd::prefetch(src + 2 * x); }
};

/// Same block, converted on the fly from the double arrays (unstamped
/// views and domains too large for a mirror). `scale` is 2^n, so each
/// product is the exact integer loss.
struct ConvertLossLoader {
  const double* c0;
  const double* c1;
  double scale;
  mutable std::int32_t block[8];
  const std::int32_t* operator()(std::uint64_t x) const noexcept {
    for (unsigned i = 0; i < 4; ++i) {
      block[i] = static_cast<std::int32_t>(c0[x + i] * scale);
      block[4 + i] = static_cast<std::int32_t>(c1[x + i] * scale) - block[i];
    }
    return block;
  }
  void prefetch(std::uint64_t x) const noexcept {
    simd::prefetch(c0 + x);
    simd::prefetch(c1 + x);
  }
};

/// Writes m.diff_rows (and m.loss0 when it is sized) and the row sums of
/// both into m.sums0 and m.sums1.
template <unsigned LB, typename Loader>
void gather_losses(IntegerCostMatrix& m, std::uint32_t bound,
                   std::uint32_t free_mask, const Loader& load) noexcept {
  constexpr unsigned kColShift = std::popcount(LB);
  constexpr unsigned kRowShift = 2 - kColShift;
  constexpr unsigned kFree = ~LB & 3u;
  constexpr unsigned kAhead = 8;
  const std::size_t cols = m.cols;
  const std::uint64_t hb = bound & ~std::uint64_t{3};
  const std::uint64_t hf = free_mask & ~std::uint64_t{3};
  const bool keep = !m.loss0.empty();
  const auto place = [&](std::int32_t* out, const std::int32_t* values) {
    if constexpr (LB == 3) {
      std::memcpy(out, values, 4 * sizeof(std::int32_t));  // one 4-run
    } else if constexpr (LB == 1) {
      std::memcpy(out, values, 2 * sizeof(std::int32_t));  // two 2-runs
      std::memcpy(out + cols, values + 2, 2 * sizeof(std::int32_t));
    } else {
      for (unsigned i = 0; i < 4; ++i) {
        out[pext2(i, kFree) * cols + pext2(i, LB)] = values[i];
      }
    }
  };
  std::uint64_t xf = 0;
  std::size_t row = 0;
  do {
    const std::size_t base = (row << kRowShift) * cols;
    std::int32_t zero_sums[4] = {};
    std::int32_t diff_sums[4] = {};
    std::uint64_t xb = 0;
    std::uint64_t xb_pre = subset_advance(0, hb, kAhead);
    std::size_t col = 0;
    do {
      load.prefetch(xf | xb_pre);
      xb_pre = (xb_pre - hb) & hb;
      const std::int32_t* block = load(xf | xb);
      for (unsigned i = 0; i < 4; ++i) {
        zero_sums[i] += block[i];
        diff_sums[i] += block[4 + i];
      }
      const std::size_t at = base + (col << kColShift);
      place(m.diff_rows.data() + at, block + 4);
      if (keep) place(m.loss0.data() + at, block);
      ++col;
      xb = (xb - hb) & hb;
    } while (xb != 0);
    // Lane i summed input i of every block: row pext(i, free & 3).
    for (unsigned i = 0; i < 4; ++i) {
      const std::size_t r = (row << kRowShift) + pext2(i, kFree);
      m.sums0[r] += zero_sums[i];
      m.sums1[r] += diff_sums[i];
    }
    ++row;
    xf = (xf - hf) & hf;
  } while (xf != 0);
}

template <typename Loader>
void gather_losses(IntegerCostMatrix& m, const Partition& partition,
                   const Loader& load) noexcept {
  const std::uint32_t bound = partition.bound_mask();
  const std::uint32_t free_mask = partition.free_mask();
  switch (bound & 3u) {
    case 0:
      return gather_losses<0>(m, bound, free_mask, load);
    case 1:
      return gather_losses<1>(m, bound, free_mask, load);
    case 2:
      return gather_losses<2>(m, bound, free_mask, load);
    default:
      return gather_losses<3>(m, bound, free_mask, load);
  }
}

/// The column-major differences of m.diff_rows, full kLanes32 x kLanes32
/// blocks transposed in registers, and zeros in the padding rows.
void transpose_diffs(IntegerCostMatrix& m) {
  const std::size_t rows = m.rows;
  const std::size_t cols = m.cols;
  const std::size_t rows_pad = m.rows_pad;
  m.diff_cols.resize(cols * rows_pad);
  const std::int32_t* by_row = m.diff_rows.data();
  std::int32_t* by_col = m.diff_cols.data();
  constexpr std::size_t W = simd::kLanes32;
  const bool vec = simd::enabled() && W > 1;
  const std::size_t block_rows = vec ? rows / W * W : 0;
  const std::size_t block_cols = vec ? cols / W * W : 0;
  for (std::size_t c = 0; c < block_cols; c += W) {
    for (std::size_t r = 0; r < block_rows; r += W) {
      simd::Vec32 v[W];
      for (std::size_t i = 0; i < W; ++i) {
        v[i] = simd::i32load(by_row + (r + i) * cols + c);
      }
      simd::i32transpose(v);
      for (std::size_t j = 0; j < W; ++j) {
        simd::i32store(by_col + (c + j) * rows_pad + r, v[j]);
      }
    }
  }
  for (std::size_t r = 0; r < rows_pad; ++r) {
    for (std::size_t c = r < block_rows ? block_cols : 0; c < cols; ++c) {
      by_col[c * rows_pad + r] = r < rows ? by_row[r * cols + c] : 0;
    }
  }
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

template <class T>
constexpr T type_code(RowType type) noexcept {
  return static_cast<T>(static_cast<std::uint8_t>(type));
}

// The exact kernels below also read, from each op set: the element type T,
// the one-lane op set of the same type (Scalar, for tails), a running total
// (Acc, reduced to Sum), the byte store of the type codes, and from its
// Totals base the stopping rule (no_gain) and the returned error.

/// Totals of the double kernels: the reference's stopping rule.
struct DoubleTotals {
  using Sum = double;
  static bool no_gain(Sum after, Sum error) noexcept {
    return after >= error - 1e-15;
  }
  static double to_error(Sum total, unsigned) noexcept { return total; }
};

/// Totals of the integer kernels: a restart's total is an int64 sum of
/// losses, and converts to the reference's error as ldexp(total, -n)
/// exactly.
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

struct ScalarOps;

struct VectorOps : DoubleTotals {
  using T = double;
  using D = simd::VecD;
  using U = simd::VecU;
  using Scalar = ScalarOps;
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

  using Acc = D;
  static Acc acc_zero() noexcept { return zero(); }
  static void acc_add(Acc& acc, D v) noexcept { acc = add(acc, v); }
  static Sum acc_sum(Acc acc) noexcept {
    alignas(64) double lanes[kWidth];
    store(lanes, acc);
    double sum = 0.0;
    for (const double lane : lanes) sum += lane;
    return sum;
  }
  /// Stores each lane's type code as one byte.
  static void store_types(std::uint8_t* p, D codes) noexcept {
    alignas(64) double lanes[kWidth];
    store(lanes, codes);
    for (unsigned l = 0; l < kWidth; ++l) {
      p[l] = static_cast<std::uint8_t>(lanes[l]);
    }
  }
};

struct ScalarOps : DoubleTotals {
  using T = double;
  using D = double;
  using U = std::uint64_t;
  using Scalar = ScalarOps;
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

  using Acc = double;
  static Acc acc_zero() noexcept { return 0.0; }
  static void acc_add(Acc& acc, D v) noexcept { acc += v; }
  static Sum acc_sum(Acc acc) noexcept { return acc; }
  static void store_types(std::uint8_t* p, D code) noexcept {
    *p = static_cast<std::uint8_t>(code);
  }
};

/// The exact kernels on integer losses. Admission (integer_admitted) keeps
/// every lane value below 2^31.
struct IntScalarOps : IntegerTotals {
  using T = std::int32_t;
  using D = std::int32_t;
  using Scalar = IntScalarOps;
  static constexpr unsigned kWidth = 1;
  static D zero() noexcept { return 0; }
  static D splat(T v) noexcept { return v; }
  static D add(D a, D b) noexcept { return a + b; }
  static D sub(D a, D b) noexcept { return a - b; }
  static D load(const T* p) noexcept { return *p; }
  static void store(T* p, D v) noexcept { *p = v; }
  static D less(D a, D b) noexcept { return a < b ? -1 : 0; }
  static D select(D m, D a, D b) noexcept { return m != 0 ? a : b; }
  static unsigned mask_bits(D m) noexcept {
    return static_cast<unsigned>(m) >> 31;
  }

  using Acc = std::int64_t;
  static Acc acc_zero() noexcept { return 0; }
  static void acc_add(Acc& acc, D v) noexcept { acc += v; }
  static Sum acc_sum(Acc acc) noexcept { return acc; }
  static void store_types(std::uint8_t* p, D code) noexcept {
    *p = static_cast<std::uint8_t>(code);
  }
};

struct IntVectorOps : IntegerTotals {
  using T = std::int32_t;
  using D = simd::Vec32;
  using Scalar = IntScalarOps;
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

  using Acc = simd::Acc64;
  static Acc acc_zero() noexcept { return {}; }
  static void acc_add(Acc& acc, D v) noexcept { simd::acc_add(acc, v); }
  static Sum acc_sum(const Acc& acc) noexcept { return simd::acc_sum(acc); }
  static void store_types(std::uint8_t* p, D codes) noexcept {
    simd::i32store_bytes(p, codes);
  }
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
// On an exact matrix (InterleavedCostMatrix::exact, or the integer layout)
// every sum is exact, so it does not depend on the order its terms are
// added in: a sum updated by removing and adding terms equals the
// reference's fresh sum bit for bit. The same holds for differences of such
// sums, which lets a column keep one balance, if_zero - if_one, instead of
// the pair: the reference's `if_one < if_zero` is exactly `balance > 0`. A
// kPattern row adds cost0 - cost1 to each column's balance, a kComplement
// row cost1 - cost0. Row state is padded to whole vectors of rows; padding
// rows have zero costs. The kernels are written once per op set, for
// doubles and for int32 losses.

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
/// restart) they ran, and the calls that took the integer path. Each call
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

bool integer_admitted(const Partition& partition,
                      const CostView& costs) noexcept {
  if (!costs.exact || costs.loss_bits == 0) return false;
  const unsigned shape_bits =
      std::max(partition.bound_size(), partition.free_size());
  return shape_bits + costs.loss_bits + 1 <= 31;
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

EvalWorkspace::SourceSlot& EvalWorkspace::source_slot(std::uint64_t epoch,
                                                     bool integer,
                                                     bool& fresh) {
  ++source_tick_;
  SourceSlot* slot = &sources_.front();
  for (auto& candidate : sources_) {
    if (candidate.epoch == epoch && candidate.integer == integer) {
      candidate.last_use = source_tick_;
      fresh = false;
      return candidate;
    }
    if (candidate.last_use < slot->last_use) slot = &candidate;
  }
  slot->epoch = epoch;
  slot->last_use = source_tick_;
  if (slot->integer != integer) {
    // The slot changes kind: release the other layout's buffer.
    util::aligned_vector<double>().swap(slot->data);
    util::aligned_vector<std::int32_t>().swap(slot->losses);
    slot->integer = integer;
  }
  fresh = true;
  return *slot;
}

const double* EvalWorkspace::interleaved_source(const CostView& costs) {
  const std::size_t domain = costs.c0.size();
  if (costs.epoch == 0 || domain > kMaxMirroredDomain) return nullptr;
  bool fresh = false;
  SourceSlot& slot = source_slot(costs.epoch, false, fresh);
  if (!fresh) return slot.data.data();
  slot.data.resize(2 * domain);
  double* out = slot.data.data();
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

const std::int32_t* EvalWorkspace::loss_source(const CostView& costs,
                                               unsigned num_inputs) {
  const std::size_t domain = costs.c0.size();
  if (costs.epoch == 0 || domain > kMaxMirroredDomain) return nullptr;
  bool fresh = false;
  SourceSlot& slot = source_slot(costs.epoch, true, fresh);
  if (!fresh) return slot.losses.data();
  slot.losses.resize(2 * domain);
  const ConvertLossLoader convert{costs.c0.data(), costs.c1.data(),
                                  std::ldexp(1.0, static_cast<int>(num_inputs)),
                                  {}};
  for (std::size_t x = 0; x < domain; x += 4) {
    std::memcpy(slot.losses.data() + 2 * x, convert(x),
                8 * sizeof(std::int32_t));
  }
  return slot.losses.data();
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

  // Arrays that prepare() takes in the integer layout mirror as int32
  // losses, not as interleaved doubles.
  const double* src =
      integer_admitted(partition, costs) ? nullptr : interleaved_source(costs);
  const std::size_t domain = costs.c0.size();
  if (simd::enabled() && domain >= 4) {
    // Blocked permutation copy (see gather_blocked above). It walks the
    // source directly with incremental subset counters, so the deposit
    // tables are not needed — at n = 24 they alone would be 96 MiB.
    if (src != nullptr) {
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

  if (src != nullptr) {
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

void EvalWorkspace::gather_integer(IntegerCostMatrix& out,
                                   const Partition& partition,
                                   const CostView& costs, bool keep_losses) {
  const unsigned n = partition.num_inputs();
  assert(costs.c0.size() == (std::size_t{1} << n));
  assert(costs.c1.size() == costs.c0.size());
  assert(integer_admitted(partition, costs));
  out.rows = partition.num_rows();
  out.cols = partition.num_cols();
  out.rows_pad =
      (out.rows + simd::kLanes32 - 1) / simd::kLanes32 * simd::kLanes32;
  out.scale_bits = n;
  out.diff_rows.resize(out.rows * out.cols);
  out.loss0.resize(keep_losses ? out.rows * out.cols : 0);
  out.sums0.assign(out.rows_pad, 0);
  out.sums1.assign(out.rows_pad, 0);
  // A partition leaves at least one input on each side, so the domain
  // holds whole 4-input blocks.
  if (const std::int32_t* src = loss_source(costs, n)) {
    gather_losses(out, partition, MirrorLossLoader{src});
  } else {
    gather_losses(out, partition,
                  ConvertLossLoader{costs.c0.data(), costs.c1.data(),
                                    std::ldexp(1.0, static_cast<int>(n)), {}});
  }
  // sums1 holds the difference sums so far.
  for (std::size_t r = 0; r < out.rows; ++r) out.sums1[r] += out.sums0[r];
  transpose_diffs(out);
  gathers().add();
}

MatrixRef EvalWorkspace::full_matrix(const Partition& partition,
                                     const CostView& costs) {
  gather_into(full_scratch_, partition, costs);
  return MatrixRef(&full_scratch_);
}

CandidateRef EvalWorkspace::prepare(const Partition& partition,
                                    const CostView& costs, bool sliced) {
  CandidateRef candidate;
  if (integer_admitted(partition, costs)) {
    gather_integer(int_full_, partition, costs, sliced);
    candidate.ints_ = &int_full_;
  } else {
    gather_into(full_scratch_, partition, costs);
    candidate.cells_ = &full_scratch_;
  }
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

const InterleavedCostMatrix& EvalWorkspace::conditioned(
    const InterleavedCostMatrix& full, const Partition& partition,
    std::uint32_t shared_mask, std::uint32_t shared_values) {
  assert(full.rows == partition.num_rows() &&
         full.cols == partition.num_cols());
  assert(&full != &cond_scratch_);

  cond_scratch_.rows = full.rows;
  cond_scratch_.cols =
      condition_columns(full.cols, partition, shared_mask, shared_values);
  cond_scratch_.exact = full.exact;
  cond_scratch_.cells.resize(2 * cond_scratch_.rows * cond_scratch_.cols);

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

CandidateRef EvalWorkspace::conditioned(const CandidateRef& full,
                                        const Partition& partition,
                                        std::uint32_t shared_mask,
                                        std::uint32_t shared_values) {
  CandidateRef slice;
  if (!full.is_integer()) {
    slice.cells_ =
        &conditioned(*full.cells_, partition, shared_mask, shared_values);
    return slice;
  }
  const IntegerCostMatrix& f = *full.ints_;
  assert(f.rows == partition.num_rows() && f.cols == partition.num_cols());
  assert(&f == &int_full_ && f.loss0.size() == f.rows * f.cols);

  IntegerCostMatrix& out = int_cond_;
  out.rows = f.rows;
  out.cols = condition_columns(f.cols, partition, shared_mask, shared_values);
  out.rows_pad = f.rows_pad;
  out.scale_bits = f.scale_bits;
  out.diff_rows.resize(out.rows * out.cols);
  out.sums0.assign(out.rows_pad, 0);
  out.sums1.assign(out.rows_pad, 0);
  for (std::size_t r = 0; r < out.rows; ++r) {
    const std::int32_t* zero = f.loss0.data() + r * f.cols;
    const std::int32_t* diff = f.diff_rows.data() + r * f.cols;
    std::int32_t* dst = out.diff_rows.data() + r * out.cols;
    std::int32_t s0 = 0;
    std::int32_t sd = 0;
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
  slices().add();
  slice.ints_ = &out;
  return slice;
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
typename Ops::Sum EvalWorkspace::exact_restart(
    const ExactInput<typename Ops::T>& input,
    ExactScratch<typename Ops::T>& scratch, unsigned max_iterations,
    std::uint64_t& alternations) {
  using T = typename Ops::T;
  using Sum = typename Ops::Sum;
  const std::size_t rows = input.rows;
  const std::size_t cols = input.cols;
  const std::size_t words = pattern_.size();
  const auto retype = [&](std::span<const std::uint64_t> raised,
                          std::span<const std::uint64_t> lowered) {
    return retype_rows<Ops>(input.rows_pad, input.diff_cols, raised, lowered,
                            input.sums0, input.sums1, scratch.match.data(),
                            row_types_.data());
  };

  // Types step for the drawn pattern: from the all-zero pattern, whose
  // match sums are the AllZero row sums, raise the drawn columns, or from
  // the all-one pattern lower the others, whichever moves fewer columns.
  std::size_t ones = 0;
  for (const std::uint64_t word : pattern_) ones += std::popcount(word);
  const bool from_zero = 2 * ones <= cols;
  std::copy_n(from_zero ? input.sums0 : input.sums1, input.rows_pad,
              scratch.match.data());
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
    // kPattern row contributes -(cost1 - cost0) to each balance, a
    // kComplement row +(cost1 - cost0).
    std::size_t plus = 0;
    std::size_t minus = 0;
    const auto list = [&](std::uint64_t rows_mask, std::size_t base,
                          std::vector<const T*>& out, std::size_t& count) {
      for (; rows_mask != 0; rows_mask &= rows_mask - 1) {
        const auto r = base + static_cast<std::size_t>(
                                  std::countr_zero(rows_mask));
        out[count++] = input.diff_rows + r * cols;
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
VtResult EvalWorkspace::exact_restarts(const ExactInput<typename Ops::T>& input,
                                       ExactScratch<typename Ops::T>& scratch,
                                       const OptForPartParams& params,
                                       util::Rng& rng, unsigned scale_bits,
                                       std::uint64_t& alternations) {
  const std::size_t rows = input.rows;
  const std::size_t cols = input.cols;
  const unsigned restarts = std::max(1u, params.init_patterns);
  scratch.match.resize(input.rows_pad);
  scratch.balance.resize(cols);
  scratch.plus_rows.resize(2 * rows + 2);
  scratch.minus_rows.resize(2 * rows + 2);
  // Whole 64-row words for the changed-row compare.
  const std::size_t type_rows = (input.rows_pad + 63) / 64 * 64;
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
    const auto total =
        exact_restart<Ops>(input, scratch, params.max_iterations, alternations);
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
  best.error = Ops::to_error(best_total, scale_bits);
  return best;
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
  std::uint64_t alternations = 0;

  if (matrix.exact) {
    // The cost differences, row-major then column-major (see ExactInput).
    derived_.resize(rows * cols + cols * rows_pad_);
    cost_diffs(matrix, rows_pad_, derived_.data(),
               derived_.data() + rows * cols);
    const ExactInput<double> input{rows,
                                   cols,
                                   rows_pad_,
                                   derived_.data(),
                                   derived_.data() + rows * cols,
                                   sums0_.data(),
                                   sums1_.data()};
    VtResult best = simd::enabled()
                        ? exact_restarts<VectorOps>(input, exact_doubles_,
                                                    params, rng, 0,
                                                    alternations)
                        : exact_restarts<ScalarOps>(input, exact_doubles_,
                                                    params, rng, 0,
                                                    alternations);
    count_opt_for_part(restarts, alternations, false);
    return best;
  }

  VtResult best;
  best.error = std::numeric_limits<double>::infinity();
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
      alternations += active_.size();
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
  count_opt_for_part(restarts, alternations, false);
  return best;
}

VtResult EvalWorkspace::opt_for_part(const CandidateRef& candidate,
                                     const OptForPartParams& params,
                                     util::Rng& rng) {
  if (!candidate.is_integer()) {
    return opt_for_part(*candidate.cells_, params, rng);
  }
  assert(params.init_patterns >= 1);
  const IntegerCostMatrix& m = *candidate.ints_;
  const ExactInput<std::int32_t> input{m.rows,
                                       m.cols,
                                       m.rows_pad,
                                       m.diff_rows.data(),
                                       m.diff_cols.data(),
                                       m.sums0.data(),
                                       m.sums1.data()};
  std::uint64_t alternations = 0;
  VtResult best =
      simd::enabled()
          ? exact_restarts<IntVectorOps>(input, exact_ints_, params, rng,
                                         m.scale_bits, alternations)
          : exact_restarts<IntScalarOps>(input, exact_ints_, params, rng,
                                         m.scale_bits, alternations);
  count_opt_for_part(std::max(1u, params.init_patterns), alternations, true);
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

VtResult EvalWorkspace::opt_for_part_bto(const CandidateRef& candidate) {
  if (!candidate.is_integer()) return opt_for_part_bto(*candidate.cells_);
  // Column c's if_one - if_zero is the column sum of its differences, and
  // the if_zero sums add up to the loss0 total: the error is that total
  // plus every negative column difference. Admission bounds each column sum
  // below 2^31.
  const IntegerCostMatrix& m = *candidate.ints_;
  col_diffs_.assign(m.cols, 0);
  std::int32_t* col_diffs = col_diffs_.data();
  for (std::size_t r = 0; r < m.rows; ++r) {
    const std::int32_t* diff = m.diff_rows.data() + r * m.cols;
    for (std::size_t c = 0; c < m.cols; ++c) col_diffs[c] += diff[c];
  }
  std::int64_t total = 0;
  for (std::size_t r = 0; r < m.rows; ++r) total += m.sums0[r];

  VtResult result;
  result.types.assign(m.rows, RowType::kPattern);
  result.pattern.assign(m.cols, 0);
  for (std::size_t c = 0; c < m.cols; ++c) {
    if (col_diffs[c] < 0) {
      result.pattern[c] = 1;
      total += col_diffs[c];
    }
  }
  result.error = IntegerTotals::to_error(total, m.scale_bits);
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
