// Realization of decomposition settings into concrete LUT contents.
//
// A DecomposedBit is the software model of one "approximate single-output
// LUT" (Fig. 1(b) / Fig. 4): routing (the partition), a bound table of 2^b
// entries, and free table(s) of 2^(n-b+1) entries. The hardware layer
// mirrors exactly this structure; here we keep the functional view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/input_distribution.hpp"
#include "core/multi_output_function.hpp"
#include "core/setting.hpp"

namespace dalut::core {

class DecomposedBit {
 public:
  /// Materializes the LUT contents for a setting. `num_inputs` is n.
  static DecomposedBit realize(const Setting& setting);

  DecompMode mode() const noexcept { return mode_; }
  const Partition& partition() const noexcept { return partition_; }
  unsigned shared_bit() const noexcept { return shared_bit_; }

  /// Bound table phi: one bit per bound-set assignment (2^b entries).
  const std::vector<std::uint8_t>& bound_table() const noexcept {
    return bound_table_;
  }
  /// Free table F (normal) or F_0 (ND): index = (row << 1) | phi.
  const std::vector<std::uint8_t>& free_table0() const noexcept {
    return free_table0_;
  }
  /// F_1 (ND only; empty otherwise).
  const std::vector<std::uint8_t>& free_table1() const noexcept {
    return free_table1_;
  }

  /// Stored LUT entries: 2^b (+ free tables depending on mode). BTO counts
  /// only the bound table - the free table is not programmed.
  std::size_t stored_entries() const noexcept;

  /// Single-point read: the bit for input code x. This is the hardware
  /// read model; whole-domain consumers use eval_all.
  bool eval(InputWord x) const noexcept;

  /// Whole-domain read: out[x] = eval(x) for every x in [0, 2^n), with
  /// out.size() == 2^n. Walks x in ascending order, 16 inputs (the low
  /// nibble) at a time: a block reads a window of consecutive rows' truth
  /// nibbles and of consecutive columns' selectors, shuffles both by the low
  /// nibble (util::simd::select_blocks2), and stores 16 bytes in order. The
  /// two byte tables (2^|A| + 2^|B| bytes, padded) are per-call scratch.
  void eval_all(std::span<std::uint8_t> out) const;
  std::vector<std::uint8_t> eval_all() const;

 private:
  DecompMode mode_ = DecompMode::kNormal;
  Partition partition_{2, 0b01};
  unsigned shared_bit_ = 0;
  std::vector<std::uint8_t> bound_table_;
  std::vector<std::uint8_t> free_table0_;
  std::vector<std::uint8_t> free_table1_;
};

/// ORs `bit`'s whole-domain read into bit k of `words`: words[x] |=
/// bit.eval(x) << k for every x in [0, 2^n). `plane` is caller-owned scratch
/// of 2^n bytes, so a loop over a system's bits reuses one plane. The one
/// realization loop behind ApproxLut::values() and the stream engine's
/// table fill.
void or_bit_plane(const DecomposedBit& bit, unsigned k,
                  std::span<OutputWord> words, std::span<std::uint8_t> plane);

/// A complete m-bit approximate LUT: one DecomposedBit per output bit
/// (bit k of the output comes from bits_[k]).
class ApproxLut {
 public:
  ApproxLut(unsigned num_inputs, unsigned num_outputs,
            std::vector<DecomposedBit> bits);

  /// Realizes every per-bit setting of a full setting sequence.
  static ApproxLut realize(unsigned num_inputs,
                           const std::vector<Setting>& settings);

  unsigned num_inputs() const noexcept { return num_inputs_; }
  unsigned num_outputs() const noexcept {
    return static_cast<unsigned>(bits_.size());
  }
  const DecomposedBit& bit(unsigned k) const { return bits_.at(k); }

  OutputWord eval(InputWord x) const noexcept;
  /// Materializes the full output table (used for MED evaluation).
  std::vector<OutputWord> values() const;
  MultiOutputFunction to_function() const;

  std::size_t stored_entries() const noexcept;

 private:
  unsigned num_inputs_;
  std::vector<DecomposedBit> bits_;
};

}  // namespace dalut::core
