#include "core/two_dim_table.hpp"

#include <cassert>
#include <stdexcept>

#include "util/bits.hpp"

namespace dalut::core {

namespace {

/// Precomputed deposit table: packed index -> scattered input-code bits.
std::vector<InputWord> deposit_indices(std::uint32_t mask) {
  const std::size_t size = std::size_t{1} << util::popcount(mask);
  std::vector<InputWord> table(size);
  for (std::size_t i = 0; i < size; ++i) {
    table[i] = static_cast<InputWord>(util::deposit_bits(i, mask));
  }
  return table;
}

}  // namespace

CostMatrix CostMatrix::build(const Partition& partition,
                             std::span<const double> c0,
                             std::span<const double> c1) {
  assert(c0.size() == (std::size_t{1} << partition.num_inputs()));
  assert(c1.size() == c0.size());

  CostMatrix matrix;
  matrix.rows = partition.num_rows();
  matrix.cols = partition.num_cols();
  matrix.cost0.resize(matrix.rows * matrix.cols);
  matrix.cost1.resize(matrix.rows * matrix.cols);

  const auto row_x = deposit_indices(partition.free_mask());
  const auto col_x = deposit_indices(partition.bound_mask());
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    const InputWord rx = row_x[r];
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      const InputWord x = rx | col_x[c];
      matrix.cost0[cell] = c0[x];
      matrix.cost1[cell] = c1[x];
    }
  }
  return matrix;
}

CostMatrix CostMatrix::build_conditioned(const Partition& partition,
                                         unsigned shared_bit,
                                         bool shared_value,
                                         std::span<const double> c0,
                                         std::span<const double> c1) {
  if (!partition.in_bound_set(shared_bit)) {
    throw std::invalid_argument("shared bit must be in the bound set");
  }
  const std::uint32_t reduced_bound =
      partition.bound_mask() & ~(std::uint32_t{1} << shared_bit);
  const InputWord shared_mask = shared_value
                                    ? (InputWord{1} << shared_bit)
                                    : 0;

  CostMatrix matrix;
  matrix.rows = partition.num_rows();
  matrix.cols = partition.num_cols() / 2;
  matrix.cost0.resize(matrix.rows * matrix.cols);
  matrix.cost1.resize(matrix.rows * matrix.cols);

  const auto row_x = deposit_indices(partition.free_mask());
  const auto col_x = deposit_indices(reduced_bound);
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    const InputWord rx = row_x[r] | shared_mask;
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      const InputWord x = rx | col_x[c];
      matrix.cost0[cell] = c0[x];
      matrix.cost1[cell] = c1[x];
    }
  }
  return matrix;
}

CostMatrix CostMatrix::build_conditioned_set(const Partition& partition,
                                             std::uint32_t shared_mask,
                                             std::uint32_t shared_values,
                                             std::span<const double> c0,
                                             std::span<const double> c1) {
  if ((shared_mask & ~partition.bound_mask()) != 0 || shared_mask == 0) {
    throw std::invalid_argument(
        "shared set must be a nonempty subset of the bound set");
  }
  const unsigned shared_count = util::popcount(shared_mask);
  const std::uint32_t reduced_bound =
      partition.bound_mask() & ~shared_mask;
  const InputWord fixed_bits = static_cast<InputWord>(
      util::deposit_bits(shared_values, shared_mask));

  CostMatrix matrix;
  matrix.rows = partition.num_rows();
  matrix.cols = partition.num_cols() >> shared_count;
  matrix.cost0.resize(matrix.rows * matrix.cols);
  matrix.cost1.resize(matrix.rows * matrix.cols);

  const auto row_x = deposit_indices(partition.free_mask());
  const auto col_x = deposit_indices(reduced_bound);
  std::size_t cell = 0;
  for (std::size_t r = 0; r < matrix.rows; ++r) {
    const InputWord rx = row_x[r] | fixed_bits;
    for (std::size_t c = 0; c < matrix.cols; ++c, ++cell) {
      const InputWord x = rx | col_x[c];
      matrix.cost0[cell] = c0[x];
      matrix.cost1[cell] = c1[x];
    }
  }
  return matrix;
}

TwoDimTruthTable TwoDimTruthTable::build(const TruthTable& f,
                                         const Partition& partition) {
  assert(f.num_inputs() == partition.num_inputs());
  TwoDimTruthTable table;
  table.rows = partition.num_rows();
  table.cols = partition.num_cols();
  table.cells.resize(table.rows * table.cols);

  const auto row_x = deposit_indices(partition.free_mask());
  const auto col_x = deposit_indices(partition.bound_mask());
  std::size_t cell = 0;
  for (std::size_t r = 0; r < table.rows; ++r) {
    for (std::size_t c = 0; c < table.cols; ++c, ++cell) {
      table.cells[cell] = f.get(row_x[r] | col_x[c]) ? 1 : 0;
    }
  }
  return table;
}

}  // namespace dalut::core
