#include "core/eval_workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <mutex>
#include <unordered_set>

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
  static D less(D a, D b) noexcept { return simd::dcmplt(a, b); }
  static D select(D m, D a, D b) noexcept { return simd::dselect(m, a, b); }
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
  static D less(D a, D b) noexcept {
    return std::bit_cast<double>(a < b ? ~std::uint64_t{0} : 0);
  }
  static D select(D m, D a, D b) noexcept {
    return std::bit_cast<std::uint64_t>(m) != 0 ? a : b;
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
    const double s0 = sums0[r + i];
    const double s1 = sums1[r + i];
    // The AllZero/AllOne comparison is the same for every restart.
    const bool one = s1 < s0;
    const D fixed_cost = Ops::splat(one ? s1 : s0);
    const D fixed_type =
        Ops::splat(type_code(one ? RowType::kAllOne : RowType::kAllZero));
    const D both = Ops::splat(s0 + s1);
    alignas(64) double codes[V * W];
    for (unsigned j = 0; j < V; ++j) {
      const D match = acc[i][j];
      const D complement = Ops::sub(both, match);
      D m = Ops::less(match, fixed_cost);
      D best = Ops::select(m, match, fixed_cost);
      D type = Ops::select(m, Ops::splat(type_code(RowType::kPattern)),
                           fixed_type);
      m = Ops::less(complement, best);
      best = Ops::select(m, complement, best);
      type = Ops::select(m, Ops::splat(type_code(RowType::kComplement)), type);
      total[j] = Ops::add(total[j], best);
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

// ---- Process-wide gather memo -------------------------------------------

struct MemoKey {
  std::uint64_t epoch = 0;
  std::uint32_t bound_mask = 0;
};

struct MemoStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> pending_evictions{0};
  std::atomic<std::uint64_t> gathers{0};
  std::atomic<std::uint64_t> slices{0};
};

MemoStats& memo_stats() {
  static MemoStats stats;
  return stats;
}

/// Registry mirrors of the MemoStats atomics. The atomics stay authoritative
/// for eval_cache_stats() (reset_eval_cache zeroes them without touching the
/// registry); these write-only counters feed the exported snapshot.
struct MemoMetrics {
  util::telemetry::Counter hits =
      util::telemetry::Counter::get("evalcache.hits");
  util::telemetry::Counter misses =
      util::telemetry::Counter::get("evalcache.misses");
  util::telemetry::Counter evictions =
      util::telemetry::Counter::get("evalcache.evictions");
  util::telemetry::Counter pending_evictions =
      util::telemetry::Counter::get("evalcache.pending_evictions");
  util::telemetry::Counter gathers =
      util::telemetry::Counter::get("evalcache.gathers");
  util::telemetry::Counter slices =
      util::telemetry::Counter::get("evalcache.slices");
};

MemoMetrics& memo_metrics() {
  static MemoMetrics metrics;
  return metrics;
}

std::size_t default_capacity() {
  if (const char* env = std::getenv("DALUT_EVAL_CACHE_MB")) {
    return static_cast<std::size_t>(std::strtoull(env, nullptr, 10)) << 20;
  }
  return std::size_t{64} << 20;
}

/// Byte-capped matrix memo keyed by (epoch, bound mask), bucketed per
/// epoch so a released epoch drops in time proportional to its own entries.
/// Entries are shared so an eviction never invalidates a matrix still in
/// use, and the buffers of evicted sole-owner entries are recycled into
/// later gathers.
class GatherMemo {
 public:
  static GatherMemo& instance() {
    static GatherMemo memo;
    return memo;
  }

  bool enabled() {
    std::lock_guard lock(mutex_);
    return capacity_ > 0;
  }

  /// One locked probe per full-matrix request: returns the cached matrix on
  /// a hit. Otherwise applies two-touch admission: the first sighting of a
  /// key only records it and keeps the gather in thread-local scratch — the
  /// overwhelmingly common case (a unique-partition stream) never writes
  /// the shared cache. A key sighted again is worth retaining, so `publish`
  /// is set: the caller gathers, insert()s, and every later access hits.
  std::shared_ptr<const InterleavedCostMatrix> lookup(const MemoKey& key,
                                                      bool& publish) {
    std::lock_guard lock(mutex_);
    publish = false;
    auto bucket = epochs_.find(key.epoch);
    if (bucket != epochs_.end()) {
      EpochBucket& b = bucket->second;
      if (const auto it = b.entries.find(key.bound_mask);
          it != b.entries.end()) {
        it->second.seq = ++seq_;
        return it->second.matrix;
      }
      if (b.pending.erase(key.bound_mask) != 0) {
        --pending_;
        publish = true;
        return nullptr;
      }
    }
    if (pending_ >= kMaxSeen) {
      evict_pending_batch();  // may erase buckets, `bucket` among them
      bucket = epochs_.find(key.epoch);
    }
    if (bucket == epochs_.end()) bucket = epochs_.try_emplace(key.epoch).first;
    bucket->second.pending.insert(key.bound_mask);
    ++pending_;
    return nullptr;
  }

  /// A writable matrix to gather into, recycled from an evicted entry when
  /// one is available.
  std::shared_ptr<InterleavedCostMatrix> acquire() {
    {
      std::lock_guard lock(mutex_);
      if (!free_.empty()) {
        auto matrix = std::move(free_.back());
        free_.pop_back();
        return matrix;
      }
    }
    return std::make_shared<InterleavedCostMatrix>();
  }

  /// Publishes a gathered matrix. If another thread inserted the same key
  /// concurrently the existing entry wins (contents are identical by
  /// construction) and `matrix`'s buffer is recycled.
  std::shared_ptr<const InterleavedCostMatrix> insert(
      const MemoKey& key, std::shared_ptr<InterleavedCostMatrix> matrix) {
    std::lock_guard lock(mutex_);
    auto& entries = epochs_[key.epoch].entries;
    const auto it = entries.find(key.bound_mask);
    if (it != entries.end()) {
      recycle(std::move(matrix));
      return it->second.matrix;
    }
    bytes_ += entry_bytes(*matrix);
    ++entries_;
    std::shared_ptr<const InterleavedCostMatrix> result =
        entries.emplace(key.bound_mask, Entry{matrix, ++seq_})
            .first->second.matrix;
    while (bytes_ > capacity_ && entries_ > 1) evict_oldest();
    return result;
  }

  /// Drops every entry and pending key of `epoch`.
  void release(std::uint64_t epoch) {
    std::lock_guard lock(mutex_);
    const auto bucket = epochs_.find(epoch);
    if (bucket == epochs_.end()) return;
    for (auto& [mask, entry] : bucket->second.entries) {
      bytes_ -= entry_bytes(*entry.matrix);
      recycle(std::move(entry.matrix));
    }
    entries_ -= bucket->second.entries.size();
    pending_ -= bucket->second.pending.size();
    epochs_.erase(bucket);
  }

  void set_capacity(std::size_t bytes) {
    std::lock_guard lock(mutex_);
    capacity_ = bytes;
    while (bytes_ > capacity_ && entries_ > 0) evict_oldest();
  }

  void reset() {
    std::lock_guard lock(mutex_);
    epochs_.clear();
    free_.clear();
    entries_ = 0;
    pending_ = 0;
    bytes_ = 0;
    seq_ = 0;
    memo_stats().hits = 0;
    memo_stats().misses = 0;
    memo_stats().evictions = 0;
    memo_stats().pending_evictions = 0;
    memo_stats().gathers = 0;
    memo_stats().slices = 0;
  }

  void snapshot(EvalCacheStats& out) {
    std::lock_guard lock(mutex_);
    out.entries = entries_;
    out.bytes = bytes_;
    out.pending = pending_;
  }

 private:
  struct Entry {
    std::shared_ptr<InterleavedCostMatrix> matrix;
    std::uint64_t seq = 0;
  };
  /// One epoch's published entries and two-touch pending keys, by bound
  /// mask. A bucket left with neither is erased.
  struct EpochBucket {
    std::unordered_map<std::uint32_t, Entry> entries;
    std::unordered_set<std::uint32_t> pending;
  };

  static std::size_t entry_bytes(const InterleavedCostMatrix& matrix) {
    return matrix.cells.capacity() * sizeof(double) + sizeof(Entry);
  }

  void recycle(std::shared_ptr<InterleavedCostMatrix> matrix) {
    if (matrix.use_count() == 1 && free_.size() < kMaxFree) {
      free_.push_back(std::move(matrix));
    }
  }

  void erase_if_empty(
      std::unordered_map<std::uint64_t, EpochBucket>::iterator bucket) {
    if (bucket->second.entries.empty() && bucket->second.pending.empty()) {
      epochs_.erase(bucket);
    }
  }

  /// Drops a small arbitrary batch of pending keys rather than flushing them
  /// all, so an overflow only delays admission for a handful of keys.
  void evict_pending_batch() {
    std::uint64_t evicted = 0;
    for (auto bucket = epochs_.begin();
         bucket != epochs_.end() && evicted < kPendingBatch;) {
      auto& pending = bucket->second.pending;
      for (auto it = pending.begin();
           it != pending.end() && evicted < kPendingBatch; ++evicted) {
        it = pending.erase(it);
      }
      const auto next = std::next(bucket);
      erase_if_empty(bucket);
      bucket = next;
    }
    pending_ -= evicted;
    memo_stats().pending_evictions.fetch_add(evicted,
                                             std::memory_order_relaxed);
    memo_metrics().pending_evictions.add(evicted);
  }

  void evict_oldest() {
    auto oldest_bucket = epochs_.end();
    std::unordered_map<std::uint32_t, Entry>::iterator oldest;
    for (auto bucket = epochs_.begin(); bucket != epochs_.end(); ++bucket) {
      auto& entries = bucket->second.entries;
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (oldest_bucket == epochs_.end() ||
            it->second.seq < oldest->second.seq) {
          oldest_bucket = bucket;
          oldest = it;
        }
      }
    }
    bytes_ -= entry_bytes(*oldest->second.matrix);
    --entries_;
    recycle(std::move(oldest->second.matrix));
    oldest_bucket->second.entries.erase(oldest);
    erase_if_empty(oldest_bucket);
    memo_stats().evictions.fetch_add(1, std::memory_order_relaxed);
    memo_metrics().evictions.add(1);
  }

  static constexpr std::size_t kMaxFree = 16;
  static constexpr std::size_t kMaxSeen = std::size_t{1} << 17;
  static constexpr std::uint64_t kPendingBatch = 64;

  std::mutex mutex_;
  std::unordered_map<std::uint64_t, EpochBucket> epochs_;
  std::vector<std::shared_ptr<InterleavedCostMatrix>> free_;
  std::size_t entries_ = 0;  ///< published entries across all buckets
  std::size_t pending_ = 0;  ///< pending keys across all buckets
  std::size_t bytes_ = 0;
  std::size_t capacity_ = default_capacity();
  std::uint64_t seq_ = 0;
};

}  // namespace

EvalCacheStats eval_cache_stats() {
  EvalCacheStats stats;
  auto& counters = memo_stats();
  stats.hits = counters.hits.load(std::memory_order_relaxed);
  stats.misses = counters.misses.load(std::memory_order_relaxed);
  stats.evictions = counters.evictions.load(std::memory_order_relaxed);
  stats.pending_evictions =
      counters.pending_evictions.load(std::memory_order_relaxed);
  stats.gathers = counters.gathers.load(std::memory_order_relaxed);
  stats.slices = counters.slices.load(std::memory_order_relaxed);
  GatherMemo::instance().snapshot(stats);
  return stats;
}

void reset_eval_cache() { GatherMemo::instance().reset(); }

void release_eval_cache_epoch(std::uint64_t epoch) {
  GatherMemo::instance().release(epoch);
}

void set_eval_cache_capacity(std::size_t bytes) {
  GatherMemo::instance().set_capacity(bytes);
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
    memo_stats().gathers.fetch_add(1, std::memory_order_relaxed);
    memo_metrics().gathers.add(1);
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
  memo_stats().gathers.fetch_add(1, std::memory_order_relaxed);
  memo_metrics().gathers.add(1);
}

MatrixRef EvalWorkspace::full_matrix(const Partition& partition,
                                     const CostView& costs) {
  auto& memo = GatherMemo::instance();
  if (costs.epoch != 0 && memo.enabled()) {
    const MemoKey key{costs.epoch, partition.bound_mask()};
    bool publish = false;
    if (auto cached = memo.lookup(key, publish)) {
      memo_stats().hits.fetch_add(1, std::memory_order_relaxed);
      memo_metrics().hits.add(1);
      return MatrixRef(std::move(cached));
    }
    memo_stats().misses.fetch_add(1, std::memory_order_relaxed);
    memo_metrics().misses.add(1);
    if (publish) {
      auto fresh = memo.acquire();
      gather_into(*fresh, partition, costs);
      return MatrixRef(memo.insert(key, std::move(fresh)));
    }
  }
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
  memo_stats().slices.fetch_add(1, std::memory_order_relaxed);
  memo_metrics().slices.add(1);
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
  sums0_.resize(matrix.rows);
  sums1_.resize(matrix.rows);
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
      matrix.cells.data(), swapped_.data()};
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

VtResult EvalWorkspace::opt_for_part(const InterleavedCostMatrix& matrix,
                                     const OptForPartParams& params,
                                     util::Rng& rng) {
  assert(params.init_patterns >= 1);
  const std::size_t rows = matrix.rows;
  const std::size_t cols = matrix.cols;
  const unsigned restarts = std::max(1u, params.init_patterns);
  const unsigned block = restart_block(rows, cols, restarts);
  row_sums(matrix);
  // {cost1, cost0} copy of the matrix for the pattern sweep's kComplement
  // rows.
  swapped_.resize(matrix.cells.size());
  for (std::size_t i = 0; i < swapped_.size(); i += 2) {
    swapped_[i] = matrix.cells[i + 1];
    swapped_[i + 1] = matrix.cells[i];
  }
  pair_rows_.resize(rows);

  VtResult best;
  best.error = std::numeric_limits<double>::infinity();

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
      for (std::size_t c = 0; c < cols; ++c) {
        patterns_[c * stride + z] = rng.next_bool() ? ~std::uint64_t{0} : 0;
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
