#include "hw/stream_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <thread>

#include "util/bits.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace dalut::hw {

namespace simd = util::simd;

namespace {

/// Copies a unit table into the arena at `off` (shape already validated),
/// normalized to 0/1 so the kernel can shift a free-table byte straight
/// into its output bit.
void copy_table(util::aligned_vector<std::uint8_t>& arena, std::size_t off,
                const std::vector<std::uint8_t>& table) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    arena[off + i] = table[i] != 0 ? 1 : 0;
  }
}

/// Bytes after the last table in an approx arena: a byte gather reads the
/// 4 bytes at its index (util/simd.hpp, i32gather_bytes).
constexpr std::size_t kGatherPad = 3;

/// The read kernels' operations on one sample: the batch tails, and every
/// batch when SIMD is off or force-scalar is set.
struct ReadScalarOps {
  using D = std::uint32_t;
  using Scalar = ReadScalarOps;
  static constexpr unsigned kWidth = 1;
  static D load(const std::uint32_t* p) noexcept { return *p; }
  static void store(std::uint32_t* p, D v) noexcept { *p = v; }
  static D splat(std::uint32_t v) noexcept { return v; }
  static D band(D a, D b) noexcept { return a & b; }
  static D bor(D a, D b) noexcept { return a | b; }
  static D srl(D v, unsigned count) noexcept { return v >> count; }
  static D sll(D v, unsigned count) noexcept { return v << count; }
  static D gather(const std::uint32_t* base, D idx) noexcept {
    return base[idx];
  }
  static D gather_bytes(const std::uint8_t* base, D idx) noexcept {
    return base[idx];
  }
};

/// The same operations on simd::kLanes32 samples.
struct ReadVectorOps {
  using D = simd::Vec32;
  using Scalar = ReadScalarOps;
  static constexpr unsigned kWidth = simd::kLanes32;
  static D load(const std::uint32_t* p) noexcept {
    return simd::i32load(reinterpret_cast<const std::int32_t*>(p));
  }
  static void store(std::uint32_t* p, D v) noexcept {
    simd::i32store(reinterpret_cast<std::int32_t*>(p), v);
  }
  static D splat(std::uint32_t v) noexcept {
    return simd::i32broadcast(static_cast<std::int32_t>(v));
  }
  static D band(D a, D b) noexcept { return simd::i32and(a, b); }
  static D bor(D a, D b) noexcept { return simd::i32or(a, b); }
  static D srl(D v, unsigned count) noexcept { return simd::i32srl(v, count); }
  static D sll(D v, unsigned count) noexcept { return simd::i32sll(v, count); }
  static D gather(const std::uint32_t* base, D idx) noexcept {
    return simd::i32gather(base, idx);
  }
  static D gather_bytes(const std::uint8_t* base, D idx) noexcept {
    return simd::i32gather_bytes(base, idx);
  }
};

}  // namespace

// ---- Compilation --------------------------------------------------------

StreamTarget::StreamTarget(StreamTarget&& other) noexcept
    : num_inputs_(other.num_inputs_),
      num_outputs_(other.num_outputs_),
      static_read_energy_(other.static_read_energy_),
      units_(std::move(other.units_)),
      slices_(std::move(other.slices_)),
      slice_count_(other.slice_count_),
      slice_bits_(other.slice_bits_),
      monolithic_(other.monolithic_),
      mono_addr_bits_(other.mono_addr_bits_),
      mono_width_(other.mono_width_),
      mono_addr_mask_(other.mono_addr_mask_),
      mono_addr_shift_(other.mono_addr_shift_),
      mono_out_shift_(other.mono_out_shift_),
      images_{std::move(other.images_[0]), std::move(other.images_[1])},
      published_(other.published_.load(std::memory_order_relaxed)),
      applied_(other.applied_.load(std::memory_order_relaxed)) {}

StreamTarget StreamTarget::compile(const ApproxLutSystem& system) {
  StreamTarget target;
  target.num_inputs_ = system.num_inputs();
  target.num_outputs_ = system.num_outputs();
  target.static_read_energy_ = system.cost().read_energy;
  target.monolithic_ = false;
  // The Partition limit: the kernel holds at most ceil(26 / 8) = 4 slice
  // indices, and an entry's num_inputs + 2 bits fit a signed gather index.
  if (target.num_inputs_ > 26) {
    throw std::invalid_argument(
        "StreamTarget::compile: more than 26 inputs");
  }

  // The constant {0, 1} table BTO units read their phi through sits first.
  constexpr std::size_t kConstOff = 0;
  std::size_t arena_size = 2;
  target.units_.reserve(system.units().size());
  for (const auto& unit : system.units()) {
    const core::DecomposedBit& bit = unit.decomposition();
    CompiledUnit compiled;
    compiled.mode = bit.mode();
    compiled.bound_mask = bit.partition().bound_mask();
    compiled.shared_bit = bit.shared_bit();
    compiled.col_bits = util::popcount(compiled.bound_mask);
    compiled.bound_size = bit.bound_table().size();
    compiled.free_size = bit.free_table0().size();
    compiled.bound_off = arena_size;
    arena_size += compiled.bound_size;
    compiled.free0_off = arena_size;
    compiled.read_off = compiled.mode == core::DecompMode::kBto
                            ? kConstOff
                            : compiled.free0_off;
    arena_size += bit.free_table0().size() + bit.free_table1().size();
    target.units_.push_back(compiled);
  }

  target.slice_count_ = std::max(1u, (target.num_inputs_ + 7) / 8);
  target.slice_bits_ = (target.num_inputs_ + target.slice_count_ - 1) /
                       target.slice_count_;
  const std::uint64_t slice_entries = std::uint64_t{1} << target.slice_bits_;
  target.slices_.assign(
      target.units_.size() * target.slice_count_ * slice_entries, 0);
  std::uint32_t* entry = target.slices_.data();
  for (std::size_t k = 0; k < target.units_.size(); ++k) {
    const CompiledUnit& compiled = target.units_[k];
    const core::Partition& p = system.units()[k].decomposition().partition();
    const bool nd = compiled.mode == core::DecompMode::kNonDisjoint;
    const bool bto = compiled.mode == core::DecompMode::kBto;
    for (unsigned j = 0; j < target.slice_count_; ++j) {
      for (std::uint64_t b = 0; b < slice_entries; ++b, ++entry) {
        const std::uint64_t bits = b << (target.slice_bits_ * j);
        const std::uint64_t col =
            util::extract_bits(bits, compiled.bound_mask);
        std::uint64_t row = 0;
        if (!bto) {
          const std::uint64_t xs = nd ? (bits >> compiled.shared_bit) & 1u : 0;
          row = (util::extract_bits(bits, p.free_mask()) |
                 xs << p.free_size())
                << 1;
        }
        *entry = static_cast<std::uint32_t>(col | row << compiled.col_bits);
      }
    }
  }

  for (TableImage& image : target.images_) {
    image.bytes_.assign(arena_size + kGatherPad, 0);
    image.bytes_[kConstOff + 1] = 1;
  }
  target.fill_image(target.images_[0], system);
  return target;
}

StreamTarget StreamTarget::compile(const MonolithicLut& lut,
                                   unsigned num_outputs) {
  StreamTarget target;
  target.num_inputs_ = lut.ram().addr_bits() + lut.addr_shift();
  target.num_outputs_ = num_outputs;
  target.static_read_energy_ = lut.cost().read_energy;
  target.monolithic_ = true;
  target.mono_addr_bits_ = lut.ram().addr_bits();
  target.mono_width_ = lut.ram().width();
  target.mono_addr_mask_ = lut.ram().addr_mask();
  target.mono_addr_shift_ = lut.addr_shift();
  target.mono_out_shift_ = lut.out_shift();

  for (TableImage& image : target.images_) {
    image.words_.assign(lut.ram().entries(), 0);
  }
  target.fill_image(target.images_[0], lut);
  return target;
}

void StreamTarget::fill_image(TableImage& image,
                              const ApproxLutSystem& system) const {
  for (std::size_t k = 0; k < units_.size(); ++k) {
    const CompiledUnit& compiled = units_[k];
    const core::DecomposedBit& bit =
        system.units()[k].decomposition();
    copy_table(image.bytes_, compiled.bound_off, bit.bound_table());
    copy_table(image.bytes_, compiled.free0_off, bit.free_table0());
    copy_table(image.bytes_, compiled.free0_off + compiled.free_size,
               bit.free_table1());
  }
}

void StreamTarget::fill_image(TableImage& image,
                              const MonolithicLut& lut) const {
  const std::size_t entries = lut.ram().entries();
  for (std::size_t i = 0; i < entries; ++i) {
    image.words_[i] = lut.ram().read(static_cast<std::uint32_t>(i));
  }
}

void StreamTarget::check_shape(const ApproxLutSystem& system) const {
  if (monolithic_ || system.num_inputs() != num_inputs_ ||
      system.num_outputs() != num_outputs_) {
    throw std::invalid_argument(
        "StreamTarget::reconfigure: system shape mismatch");
  }
  for (std::size_t k = 0; k < units_.size(); ++k) {
    const CompiledUnit& compiled = units_[k];
    const core::DecomposedBit& bit = system.units()[k].decomposition();
    if (bit.mode() != compiled.mode ||
        bit.partition().bound_mask() != compiled.bound_mask ||
        bit.shared_bit() != compiled.shared_bit ||
        bit.bound_table().size() != compiled.bound_size ||
        bit.free_table0().size() != compiled.free_size) {
      throw std::invalid_argument(
          "StreamTarget::reconfigure: unit " + std::to_string(k) +
          " structure differs (reconfiguration swaps contents only)");
    }
  }
}

void StreamTarget::check_shape(const MonolithicLut& lut) const {
  if (!monolithic_ || lut.ram().addr_bits() != mono_addr_bits_ ||
      lut.ram().width() != mono_width_ ||
      lut.addr_shift() != mono_addr_shift_ ||
      lut.out_shift() != mono_out_shift_) {
    throw std::invalid_argument(
        "StreamTarget::reconfigure: LUT geometry mismatch "
        "(reconfiguration swaps contents only)");
  }
}

// ---- Epoch protocol -----------------------------------------------------

TableImage& StreamTarget::begin_update() {
  const std::uint64_t published = published_.load(std::memory_order_acquire);
  // The inactive image may still be under a batch that acquired the
  // previous epoch; wait until the consumer retires it.
  while (applied_.load(std::memory_order_acquire) < published) {
    std::this_thread::yield();
  }
  return images_[(published + 1) & 1];
}

std::uint64_t StreamTarget::commit_update() noexcept {
  return published_.fetch_add(1, std::memory_order_release) + 1;
}

std::uint64_t StreamTarget::reconfigure(const ApproxLutSystem& system) {
  check_shape(system);
  // fill_image rewrites every unit table; the {0, 1} table is constant.
  fill_image(begin_update(), system);
  return commit_update();
}

std::uint64_t StreamTarget::reconfigure(const MonolithicLut& lut) {
  check_shape(lut);
  fill_image(begin_update(), lut);
  return commit_update();
}

// ---- Batch kernels ------------------------------------------------------

template <class Ops>
void StreamTarget::eval_approx(const TableImage& image,
                               const core::InputWord* x, core::OutputWord* y,
                               std::size_t count) const noexcept {
  // Samples outer, units inner: each step splits Ops::kWidth input words
  // into their slice indices once, then every unit ORs one gathered entry
  // per slice into its two table indices, gathers phi from its bound table
  // and its output bit from its free region. No mode branch (BTO units
  // read phi through the constant {0, 1} table) and one store per step.
  using D = typename Ops::D;
  constexpr unsigned kMaxSlices = 4;  // ceil(26 / 8)
  const std::uint8_t* bytes = image.bytes_.data();
  const std::size_t slice_entries = std::size_t{1} << slice_bits_;
  const D slice_mask =
      Ops::splat(static_cast<std::uint32_t>(slice_entries - 1));
  std::size_t i = 0;
  for (; i + Ops::kWidth <= count; i += Ops::kWidth) {
    const D xi = Ops::load(x + i);
    D index[kMaxSlices];
    for (unsigned j = 0; j < slice_count_; ++j) {
      index[j] = Ops::band(Ops::srl(xi, slice_bits_ * j), slice_mask);
    }
    D out = Ops::splat(0);
    const std::uint32_t* table = slices_.data();
    for (std::size_t k = 0; k < units_.size(); ++k) {
      const CompiledUnit& unit = units_[k];
      D entry = Ops::gather(table, index[0]);
      table += slice_entries;
      for (unsigned j = 1; j < slice_count_; ++j, table += slice_entries) {
        entry = Ops::bor(entry, Ops::gather(table, index[j]));
      }
      const D col =
          Ops::band(entry, Ops::splat((std::uint32_t{1} << unit.col_bits) - 1));
      const D phi = Ops::gather_bytes(bytes + unit.bound_off, col);
      // row' is even, so OR-ing phi in selects the {phi = 0, 1} byte.
      const D row = Ops::bor(Ops::srl(entry, unit.col_bits), phi);
      const D bit = Ops::gather_bytes(bytes + unit.read_off, row);
      out = Ops::bor(out, Ops::sll(bit, static_cast<unsigned>(k)));
    }
    Ops::store(y + i, out);
  }
  if constexpr (Ops::kWidth > 1) {
    eval_approx<typename Ops::Scalar>(image, x + i, y + i, count - i);
  }
}

template <class Ops>
void StreamTarget::eval_mono(const TableImage& image,
                             const core::InputWord* x, core::OutputWord* y,
                             std::size_t count) const noexcept {
  using D = typename Ops::D;
  const std::uint32_t* words = image.words_.data();
  const D mask = Ops::splat(mono_addr_mask_);
  std::size_t i = 0;
  for (; i + Ops::kWidth <= count; i += Ops::kWidth) {
    const D addr =
        Ops::band(Ops::srl(Ops::load(x + i), mono_addr_shift_), mask);
    Ops::store(y + i, Ops::sll(Ops::gather(words, addr), mono_out_shift_));
  }
  if constexpr (Ops::kWidth > 1) {
    eval_mono<typename Ops::Scalar>(image, x + i, y + i, count - i);
  }
}

void StreamTarget::eval_batch(const TableImage& image,
                              const core::InputWord* x, core::OutputWord* y,
                              std::size_t count) const noexcept {
  if (simd::enabled()) {
    monolithic_ ? eval_mono<ReadVectorOps>(image, x, y, count)
                : eval_approx<ReadVectorOps>(image, x, y, count);
  } else {
    monolithic_ ? eval_mono<ReadScalarOps>(image, x, y, count)
                : eval_approx<ReadScalarOps>(image, x, y, count);
  }
}

// ---- Batched accounting -------------------------------------------------

void accumulate_batch(BatchAccumulator& acc, const core::InputWord* x,
                      const core::OutputWord* y, std::size_t count,
                      const core::MultiOutputFunction* reference,
                      const Technology& tech, double static_read_energy,
                      core::OutputWord bus_mask) {
  // Mirror of the simulate() loop body, per sample and in sequence order:
  // the floating-point accumulation order is part of the bit-identity
  // contract, so nothing here may reassociate or batch the energy sums.
  SimulationReport& report = acc.report;
  for (std::size_t i = 0; i < count; ++i) {
    ++report.reads;
    report.total_energy += static_read_energy;
    if (!acc.first) {
      const unsigned toggles =
          std::popcount((acc.previous ^ y[i]) & bus_mask);
      report.output_toggles += toggles;
      report.total_energy += toggles * tech.wire_energy;
    }
    if (reference != nullptr && reference->value(x[i]) != y[i]) {
      ++report.mismatches;
    }
    acc.previous = y[i];
    acc.first = false;
  }
}

SimulationReport finish(BatchAccumulator& acc) noexcept {
  if (acc.report.reads > 0) {
    acc.report.avg_read_energy =
        acc.report.total_energy / static_cast<double>(acc.report.reads);
  }
  return acc.report;
}

// ---- Single-stream drop-in ----------------------------------------------

SimulationReport stream_simulate(StreamTarget& target,
                                 std::span<const core::InputWord> sequence,
                                 const core::MultiOutputFunction* reference,
                                 const Technology& tech,
                                 std::size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  std::vector<core::OutputWord> y(batch_size);
  BatchAccumulator acc;
  const core::OutputWord bus_mask = output_bus_mask(target.num_outputs());
  std::size_t done = 0;
  while (done < sequence.size()) {
    const std::size_t take =
        std::min(batch_size, sequence.size() - done);
    std::uint64_t epoch = 0;
    const TableImage& image = target.acquire(epoch);
    target.eval_batch(image, sequence.data() + done, y.data(), take);
    accumulate_batch(acc, sequence.data() + done, y.data(), take, reference,
                     tech, target.static_read_energy(), bus_mask);
    target.mark_applied(epoch);
    done += take;
  }
  return finish(acc);
}

// ---- Multi-producer engine ----------------------------------------------

StreamEngine::StreamEngine(StreamTarget& target, const Technology& tech,
                           std::size_t num_producers, StreamConfig config)
    : target_(target), tech_(tech), config_(config) {
  if (num_producers == 0) {
    throw std::invalid_argument("StreamEngine needs at least one producer");
  }
  if (config_.batch_size == 0) config_.batch_size = 1;
  // A ring smaller than one batch would deadlock the deterministic drain
  // (consumer waits for a full batch the producer can never buffer).
  if (config_.ring_capacity < config_.batch_size) {
    config_.ring_capacity = config_.batch_size;
  }
  rings_.reserve(num_producers);
  for (std::size_t i = 0; i < num_producers; ++i) {
    rings_.push_back(std::make_unique<util::SpscRing<core::InputWord>>(
        config_.ring_capacity));
  }
}

StreamReport StreamEngine::run(const core::MultiOutputFunction* reference) {
  static const auto reads_counter =
      util::telemetry::Counter::get("stream.reads");
  static const auto batches_counter =
      util::telemetry::Counter::get("stream.batches");
  static const auto reconfig_counter =
      util::telemetry::Counter::get("stream.reconfig.applied");
  static const auto wait_counter =
      util::telemetry::Counter::get("stream.consumer.wait_spins");
  static const auto epoch_gauge =
      util::telemetry::Gauge::get("stream.epoch");

  const std::size_t batch = config_.batch_size;
  std::vector<core::InputWord> xs(batch);
  std::vector<core::OutputWord> ys(batch);
  BatchAccumulator acc;
  const core::OutputWord bus_mask = output_bus_mask(target_.num_outputs());

  StreamReport stream;
  std::vector<bool> done(rings_.size(), false);
  std::size_t open = rings_.size();
  std::uint64_t last_epoch = target_.published_epoch();

  util::WallTimer timer;
  while (open > 0) {
    for (std::size_t i = 0; i < rings_.size(); ++i) {
      if (done[i]) continue;
      auto& ring = *rings_[i];
      // Deterministic drain: wait for a full batch or for the producer to
      // close, never skip ahead — the merged order must not depend on
      // producer timing.
      std::size_t avail = ring.size();
      while (avail < batch && !ring.closed()) {
        ++stream.wait_spins;
        // Idle: no batch in flight, so the newest published contents are
        // trivially safe to retire. Keeps a concurrent writer's
        // reconfigure() live while producers are slow.
        target_.mark_applied(target_.published_epoch());
        std::this_thread::yield();
        avail = ring.size();
      }
      if (avail < batch) avail = ring.size();  // closed: final count
      const std::size_t take = std::min(batch, avail);
      if (take == 0) {
        // Closed and drained.
        done[i] = true;
        --open;
        continue;
      }
      const std::size_t got = ring.try_pop(xs.data(), take);
      std::uint64_t epoch = 0;
      const TableImage& image = target_.acquire(epoch);
      target_.eval_batch(image, xs.data(), ys.data(), got);
      accumulate_batch(acc, xs.data(), ys.data(), got, reference, tech_,
                       target_.static_read_energy(), bus_mask);
      target_.mark_applied(epoch);
      if (epoch != last_epoch) {
        stream.reconfigs_observed += epoch - last_epoch;
        reconfig_counter.add(epoch - last_epoch);
        epoch_gauge.set(static_cast<double>(epoch));
        last_epoch = epoch;
      }
      ++stream.batches;
      batches_counter.add(1);
      reads_counter.add(got);
    }
  }
  stream.elapsed_seconds = timer.seconds();
  // Stream finished: retire whatever is published so a writer blocked in
  // reconfigure() is released.
  target_.mark_applied(target_.published_epoch());
  wait_counter.add(stream.wait_spins);

  stream.sim = finish(acc);
  stream.reads_per_sec =
      stream.elapsed_seconds > 0.0
          ? static_cast<double>(stream.sim.reads) / stream.elapsed_seconds
          : 0.0;
  return stream;
}

}  // namespace dalut::hw
