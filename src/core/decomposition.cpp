#include "core/decomposition.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/bits.hpp"
#include "util/simd.hpp"

namespace dalut::core {

namespace {

/// Expands a type vector into free-table contents: index = (row << 1) | phi.
std::vector<std::uint8_t> free_table_from_types(
    const std::vector<RowType>& types) {
  std::vector<std::uint8_t> table(types.size() * 2);
  for (std::size_t row = 0; row < types.size(); ++row) {
    std::uint8_t at_phi0 = 0;
    std::uint8_t at_phi1 = 0;
    switch (types[row]) {
      case RowType::kAllZero:
        break;
      case RowType::kAllOne:
        at_phi0 = at_phi1 = 1;
        break;
      case RowType::kPattern:
        at_phi1 = 1;
        break;
      case RowType::kComplement:
        at_phi0 = 1;
        break;
    }
    table[(row << 1) | 0] = at_phi0;
    table[(row << 1) | 1] = at_phi1;
  }
  return table;
}

/// The whole-domain walk's block: 16 consecutive inputs, the low nibble.
constexpr unsigned kBlock = 16;
/// Nibbles of a 32-bit input code.
constexpr unsigned kMaxNibbles = 8;

/// table[v] = the packed index (Partition::row_of / col_of over `mask`) of
/// the input code v << shift, for every nibble value v.
void nibble_offsets(std::uint32_t mask, unsigned shift,
                    std::uint32_t (&table)[kBlock]) {
  table[0] = 0;
  for (unsigned v = 1; v < kBlock; ++v) {
    const unsigned at = shift + static_cast<unsigned>(std::countr_zero(v));
    const std::uint32_t one =
        (mask >> at) & 1u
            ? std::uint32_t{1}
                  << util::popcount(mask & ((std::uint32_t{1} << at) - 1))
            : 0u;
    table[v] = table[v & (v - 1)] + one;
  }
}

}  // namespace

DecomposedBit DecomposedBit::realize(const Setting& setting) {
  if (!setting.valid()) {
    throw std::invalid_argument("cannot realize an invalid setting");
  }
  DecomposedBit bit;
  bit.mode_ = setting.mode;
  bit.partition_ = setting.partition;
  bit.shared_bit_ = setting.shared_bit;

  const std::size_t cols = setting.partition.num_cols();
  [[maybe_unused]] const std::size_t rows = setting.partition.num_rows();

  switch (setting.mode) {
    case DecompMode::kNormal:
      assert(setting.pattern.size() == cols);
      assert(setting.types.size() == rows);
      bit.bound_table_.assign(setting.pattern.begin(), setting.pattern.end());
      bit.free_table0_ = free_table_from_types(setting.types);
      break;
    case DecompMode::kBto:
      assert(setting.pattern.size() == cols);
      bit.bound_table_.assign(setting.pattern.begin(), setting.pattern.end());
      break;
    case DecompMode::kNonDisjoint: {
      if (!setting.partition.in_bound_set(setting.shared_bit)) {
        throw std::invalid_argument("ND shared bit must be in the bound set");
      }
      assert(setting.pattern0.size() == cols / 2);
      assert(setting.pattern1.size() == cols / 2);
      assert(setting.types0.size() == rows);
      assert(setting.types1.size() == rows);
      // Combined bound table phi(B) = ~x_s phi_0 + x_s phi_1 : split each
      // full-B column index into (x_s value, reduced index).
      const std::uint32_t bound_mask = setting.partition.bound_mask();
      const unsigned rank = util::popcount(
          bound_mask & ((std::uint32_t{1} << setting.shared_bit) - 1));
      const std::uint32_t low = (std::uint32_t{1} << rank) - 1;
      bit.bound_table_.resize(cols);
      for (std::uint32_t c = 0; c < cols; ++c) {
        const bool xs = (c >> rank) & 1u;
        const std::uint32_t reduced = (c & low) | ((c >> (rank + 1)) << rank);
        bit.bound_table_[c] =
            xs ? setting.pattern1[reduced] : setting.pattern0[reduced];
      }
      bit.free_table0_ = free_table_from_types(setting.types0);
      bit.free_table1_ = free_table_from_types(setting.types1);
      break;
    }
  }
  return bit;
}

std::size_t DecomposedBit::stored_entries() const noexcept {
  return bound_table_.size() + free_table0_.size() + free_table1_.size();
}

bool DecomposedBit::eval(InputWord x) const noexcept {
  const std::uint32_t col = partition_.col_of(x);
  const bool phi = bound_table_[col] != 0;
  switch (mode_) {
    case DecompMode::kBto:
      return phi;
    case DecompMode::kNormal: {
      const std::uint32_t row = partition_.row_of(x);
      return free_table0_[(row << 1) | (phi ? 1u : 0u)] != 0;
    }
    case DecompMode::kNonDisjoint: {
      const std::uint32_t row = partition_.row_of(x);
      const bool xs = util::get_bit(x, shared_bit_);
      const auto& table = xs ? free_table1_ : free_table0_;
      return table[(row << 1) | (phi ? 1u : 0u)] != 0;
    }
  }
  return false;
}

void DecomposedBit::eval_all(std::span<std::uint8_t> out) const {
  const unsigned n = partition_.num_inputs();
  assert(out.size() == std::size_t{1} << n);
  const bool nd = mode_ == DecompMode::kNonDisjoint;
  const std::uint32_t free_mask = partition_.free_mask();
  const std::uint32_t bound_mask = partition_.bound_mask();
  const std::size_t rows = partition_.num_rows();
  const std::size_t cols = bound_table_.size();

  // The walk reads byte windows of 16 rows and 16 columns, so each table
  // carries 16 bytes of padding past its last entry.
  //  - truth[r]: row r's output for each selector value s, as bit s;
  //  - select[c]: column c's selector as a one-hot bit: 1 << (phi(c) | 2 x_s)
  //    (x_s only in ND mode; the shared bit is bound, so fixed per column).
  std::vector<std::uint8_t> tables(rows + cols + 2 * kBlock);
  std::uint8_t* truth = tables.data();
  std::uint8_t* select = truth + rows + kBlock;
  for (std::size_t r = 0; r < rows; ++r) {
    unsigned t = 0b10;  // BTO: the bit is phi
    if (mode_ != DecompMode::kBto) {
      t = free_table0_[r << 1] | free_table0_[(r << 1) | 1] << 1;
    }
    if (nd) {
      t |= (free_table1_[r << 1] | free_table1_[(r << 1) | 1] << 1) << 2;
    }
    truth[r] = static_cast<std::uint8_t>(t);
  }
  const unsigned rank =
      nd ? util::popcount(bound_mask & ((std::uint32_t{1} << shared_bit_) - 1))
         : 0;
  for (std::size_t c = 0; c < cols; ++c) {
    const unsigned xs = nd ? (c >> rank) & 1u : 0u;
    select[c] = static_cast<std::uint8_t>(
        1u << ((bound_table_[c] != 0 ? 1u : 0u) | xs << 1));
  }

  // Row and column of x, one nibble of x at a time: row_of(x) is the sum
  // over nibbles j of row_nib[j][(x >> 4 j) & 15], and likewise col_of(x).
  // Nibble 0 places an input within its block of 16, which therefore
  // touches 2^|A ∩ low 4| consecutive rows and 2^|B ∩ low 4| consecutive
  // columns.
  const unsigned nibbles = (n + 3) / 4;
  std::uint32_t row_nib[kMaxNibbles][kBlock];
  std::uint32_t col_nib[kMaxNibbles][kBlock];
  std::uint8_t rlo[kBlock];
  std::uint8_t clo[kBlock];
  for (unsigned j = 0; j < nibbles; ++j) {
    nibble_offsets(free_mask, 4 * j, row_nib[j]);
    nibble_offsets(bound_mask, 4 * j, col_nib[j]);
  }
  for (unsigned i = 0; i < kBlock; ++i) {
    rlo[i] = static_cast<std::uint8_t>(row_nib[0][i]);
    clo[i] = static_cast<std::uint8_t>(col_nib[0][i]);
  }

  if (n < 5) {  // under two blocks: one input at a time
    for (std::size_t x = 0; x < out.size(); ++x) {
      out[x] = (truth[rlo[x]] & select[clo[x]]) != 0 ? 1 : 0;
    }
    return;
  }
  // Blocks in ascending order, two per step; each group of (up to) 16
  // blocks shares the row and column offsets of the nibbles above nibble 1.
  const std::size_t blocks = out.size() / kBlock;
  const std::size_t group = std::min<std::size_t>(blocks, kBlock);
  for (std::size_t g = 0; g < blocks; g += group) {
    std::uint32_t row_base = 0;
    std::uint32_t col_base = 0;
    for (unsigned j = 2; j < nibbles; ++j) {
      const std::size_t v = (g >> (4 * (j - 1))) & 15;
      row_base += row_nib[j][v];
      col_base += col_nib[j][v];
    }
    const std::uint8_t* const row_at = truth + row_base;
    const std::uint8_t* const col_at = select + col_base;
    for (std::size_t b = 0; b < group; b += 2) {
      const std::uint8_t* const rows_of[2] = {row_at + row_nib[1][b],
                                              row_at + row_nib[1][b + 1]};
      const std::uint8_t* const cols_of[2] = {col_at + col_nib[1][b],
                                              col_at + col_nib[1][b + 1]};
      util::simd::select_blocks2(out.data() + (g + b) * kBlock, rows_of,
                                 cols_of, rlo, clo);
    }
  }
}

std::vector<std::uint8_t> DecomposedBit::eval_all() const {
  std::vector<std::uint8_t> out(std::size_t{1} << partition_.num_inputs());
  eval_all(out);
  return out;
}

ApproxLut::ApproxLut(unsigned num_inputs, unsigned num_outputs,
                     std::vector<DecomposedBit> bits)
    : num_inputs_(num_inputs), bits_(std::move(bits)) {
  if (bits_.size() != num_outputs) {
    throw std::invalid_argument("need one decomposed bit per output");
  }
}

ApproxLut ApproxLut::realize(unsigned num_inputs,
                             const std::vector<Setting>& settings) {
  std::vector<DecomposedBit> bits;
  bits.reserve(settings.size());
  for (const auto& setting : settings) {
    if (setting.valid() &&
        setting.partition.num_inputs() != num_inputs) {
      throw std::invalid_argument(
          "setting partition width does not match the LUT input width");
    }
    bits.push_back(DecomposedBit::realize(setting));
  }
  return ApproxLut(num_inputs, static_cast<unsigned>(settings.size()),
                   std::move(bits));
}

OutputWord ApproxLut::eval(InputWord x) const noexcept {
  OutputWord y = 0;
  for (unsigned k = 0; k < bits_.size(); ++k) {
    if (bits_[k].eval(x)) y |= OutputWord{1} << k;
  }
  return y;
}

void or_bit_plane(const DecomposedBit& bit, unsigned k,
                  std::span<OutputWord> words, std::span<std::uint8_t> plane) {
  assert(words.size() == plane.size());
  bit.eval_all(plane);
  for (std::size_t x = 0; x < words.size(); ++x) {
    words[x] |= OutputWord{plane[x]} << k;
  }
}

std::vector<OutputWord> ApproxLut::values() const {
  const std::size_t domain = std::size_t{1} << num_inputs_;
  std::vector<OutputWord> table(domain, 0);
  std::vector<std::uint8_t> plane(domain);
  for (unsigned k = 0; k < bits_.size(); ++k) {
    or_bit_plane(bits_[k], k, table, plane);
  }
  return table;
}

MultiOutputFunction ApproxLut::to_function() const {
  return MultiOutputFunction(num_inputs_, num_outputs(), values());
}

std::size_t ApproxLut::stored_entries() const noexcept {
  std::size_t total = 0;
  for (const auto& bit : bits_) total += bit.stored_entries();
  return total;
}

}  // namespace dalut::core
