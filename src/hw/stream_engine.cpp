#include "hw/stream_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace dalut::hw {

namespace simd = util::simd;

namespace {

/// The read kernel's operations on one sample: the batch tails, and every
/// batch of a scalar build.
struct ReadScalarOps {
  using D = std::uint32_t;
  using Scalar = ReadScalarOps;
  static constexpr unsigned kWidth = 1;
  static D load(const std::uint32_t* p) noexcept { return *p; }
  static void store(std::uint32_t* p, D v) noexcept { *p = v; }
  static D splat(std::uint32_t v) noexcept { return v; }
  static D band(D a, D b) noexcept { return a & b; }
  static D srl(D v, unsigned count) noexcept { return v >> count; }
  static D sll(D v, unsigned count) noexcept { return v << count; }
  static D gather(const std::uint32_t* base, D idx) noexcept {
    return base[idx];
  }
};

/// The same operations on simd::kLanes32 samples.
struct ReadLaneOps {
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
  static D srl(D v, unsigned count) noexcept { return simd::i32srl(v, count); }
  static D sll(D v, unsigned count) noexcept { return simd::i32sll(v, count); }
  static D gather(const std::uint32_t* base, D idx) noexcept {
    return simd::i32gather(base, idx);
  }
};

}  // namespace

// ---- Compilation --------------------------------------------------------

StreamTarget::StreamTarget(StreamTarget&& other) noexcept
    : num_inputs_(other.num_inputs_),
      num_outputs_(other.num_outputs_),
      static_read_energy_(other.static_read_energy_),
      addr_mask_(other.addr_mask_),
      addr_shift_(other.addr_shift_),
      out_shift_(other.out_shift_),
      monolithic_(other.monolithic_),
      units_(std::move(other.units_)),
      mono_addr_bits_(other.mono_addr_bits_),
      mono_width_(other.mono_width_),
      images_{std::move(other.images_[0]), std::move(other.images_[1])},
      published_(other.published_.load(std::memory_order_relaxed)),
      applied_(other.applied_.load(std::memory_order_relaxed)) {}

StreamTarget StreamTarget::compile(const ApproxLutSystem& system) {
  StreamTarget target;
  target.num_inputs_ = system.num_inputs();
  target.num_outputs_ = system.num_outputs();
  target.static_read_energy_ = system.cost().read_energy;
  if (target.num_inputs_ > kMaxApproxInputs) {
    throw std::invalid_argument(
        "StreamTarget::compile: approximate target has more than " +
        std::to_string(kMaxApproxInputs) + " inputs");
  }
  const std::size_t domain = std::size_t{1} << target.num_inputs_;
  target.addr_mask_ = static_cast<std::uint32_t>(domain - 1);

  target.units_.reserve(system.units().size());
  for (const auto& unit : system.units()) {
    const core::DecomposedBit& bit = unit.decomposition();
    target.units_.push_back({bit.mode(), bit.partition().bound_mask(),
                             bit.shared_bit(), bit.bound_table().size(),
                             bit.free_table0().size()});
  }

  for (TableImage& image : target.images_) image.words_.assign(domain, 0);
  target.fill_image(target.images_[0], system);
  return target;
}

StreamTarget StreamTarget::compile(const MonolithicLut& lut,
                                   unsigned num_outputs) {
  StreamTarget target;
  target.num_inputs_ = lut.ram().addr_bits() + lut.addr_shift();
  target.num_outputs_ = num_outputs;
  target.static_read_energy_ = lut.cost().read_energy;
  target.addr_mask_ = lut.ram().addr_mask();
  target.addr_shift_ = lut.addr_shift();
  target.out_shift_ = lut.out_shift();
  target.monolithic_ = true;
  target.mono_addr_bits_ = lut.ram().addr_bits();
  target.mono_width_ = lut.ram().width();

  for (TableImage& image : target.images_) {
    image.words_.assign(lut.ram().entries(), 0);
  }
  target.fill_image(target.images_[0], lut);
  return target;
}

void StreamTarget::fill_image(TableImage& image,
                              const ApproxLutSystem& system) const {
  // One byte plane per unit, OR-ed into that unit's output bit: the same
  // whole-domain realization ApproxLut::values() runs.
  std::fill(image.words_.begin(), image.words_.end(), 0);
  std::vector<std::uint8_t> plane(image.words_.size());
  for (std::size_t k = 0; k < units_.size(); ++k) {
    core::or_bit_plane(system.units()[k].decomposition(),
                       static_cast<unsigned>(k), image.words_, plane);
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
    const UnitShape& shape = units_[k];
    const core::DecomposedBit& bit = system.units()[k].decomposition();
    if (bit.mode() != shape.mode ||
        bit.partition().bound_mask() != shape.bound_mask ||
        bit.shared_bit() != shape.shared_bit ||
        bit.bound_table().size() != shape.bound_size ||
        bit.free_table0().size() != shape.free_size) {
      throw std::invalid_argument(
          "StreamTarget::reconfigure: unit " + std::to_string(k) +
          " structure differs (reconfiguration swaps contents only)");
    }
  }
}

void StreamTarget::check_shape(const MonolithicLut& lut) const {
  if (!monolithic_ || lut.ram().addr_bits() != mono_addr_bits_ ||
      lut.ram().width() != mono_width_ ||
      lut.addr_shift() != addr_shift_ || lut.out_shift() != out_shift_) {
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
void StreamTarget::eval_words(const TableImage& image,
                              const core::InputWord* x, core::OutputWord* y,
                              std::size_t count) const noexcept {
  using D = typename Ops::D;
  const std::uint32_t* words = image.words_.data();
  const D mask = Ops::splat(addr_mask_);
  std::size_t i = 0;
  for (; i + Ops::kWidth <= count; i += Ops::kWidth) {
    const D addr = Ops::band(Ops::srl(Ops::load(x + i), addr_shift_), mask);
    Ops::store(y + i, Ops::sll(Ops::gather(words, addr), out_shift_));
  }
  if constexpr (Ops::kWidth > 1) {
    eval_words<typename Ops::Scalar>(image, x + i, y + i, count - i);
  }
}

void StreamTarget::eval_batch(const TableImage& image,
                              const core::InputWord* x, core::OutputWord* y,
                              std::size_t count) const noexcept {
  using Ops = std::conditional_t<simd::enabled(), ReadLaneOps, ReadScalarOps>;
  eval_words<Ops>(image, x, y, count);
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
