#include "core/decomposition.hpp"

#include <cassert>
#include <stdexcept>

#include "util/bits.hpp"

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
  assert(out.size() == std::size_t{1} << partition_.num_inputs());
  const bool nd = mode_ == DecompMode::kNonDisjoint;

  // Column side: column c's bound-set bits deposited into an input code,
  // and its selector into a row's truth table: phi(c), plus 2 * x_s in ND
  // mode (the shared bit is bound, so it is fixed within a column).
  const std::uint32_t bound_mask = partition_.bound_mask();
  const std::size_t cols = bound_table_.size();
  std::vector<std::uint32_t> col_x(cols);
  std::vector<std::uint8_t> select(cols);
  std::uint32_t bound_x = 0;
  for (std::size_t c = 0; c < cols; ++c) {
    col_x[c] = bound_x;
    const unsigned xs = nd ? (bound_x >> shared_bit_) & 1u : 0u;
    select[c] = static_cast<std::uint8_t>((bound_table_[c] != 0 ? 1u : 0u) |
                                          xs << 1);
    bound_x = (bound_x - bound_mask) & bound_mask;  // next code, ascending
  }

  // Row side: the row's output for each selector value, as a truth table
  // indexed by the selector. A constant row needs no selector.
  const std::uint32_t free_mask = partition_.free_mask();
  const std::size_t rows = partition_.num_rows();
  const unsigned all_one = nd ? 0b1111u : 0b11u;
  std::uint32_t row_x = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    unsigned truth = 0b10;  // BTO: the bit is phi
    if (mode_ != DecompMode::kBto) {
      truth = free_table0_[r << 1] | free_table0_[(r << 1) | 1] << 1;
    }
    if (nd) {
      truth |= (free_table1_[r << 1] | free_table1_[(r << 1) | 1] << 1) << 2;
    }
    std::uint8_t* row_out = out.data() + row_x;
    if (truth == 0 || truth == all_one) {
      const std::uint8_t value = truth != 0 ? 1 : 0;
      for (std::size_t c = 0; c < cols; ++c) row_out[col_x[c]] = value;
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        row_out[col_x[c]] =
            static_cast<std::uint8_t>((truth >> select[c]) & 1u);
      }
    }
    row_x = (row_x - free_mask) & free_mask;
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
