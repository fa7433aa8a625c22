// Streaming inference engine: batched LUT serving with runtime
// reconfiguration (docs/streaming.md).
//
// The cycle-accurate simulator (hw/simulator) verifies one read at a time
// through a std::function hop. This layer is its throughput backend: a
// StreamTarget *compiles* a programmed ApproxLutSystem / MonolithicLut into
// one flat word table (an approximate system is materialized into its 2^n
// output words), so a whole batch of sample words is evaluated by one
// devirtualized kernel, simd::kLanes32 samples per step over one gather —
// no indirect call, no virtual dispatch, no per-mode branch, the table hot
// in cache across the batch. Accounting (reads, energy, output toggles,
// mismatches) replays the exact per-sample arithmetic of simulate(), in
// the same order, so a StreamEngine report is bit-identical to the scalar
// loop on the same sequence: a drop-in faster backend, not a fork.
//
// Runtime reconfiguration follows the dynamic-reconfiguration approximate-
// multiplier scheme (PAPERS.md): LUT contents are double-buffered in two
// TableImage generations selected by an epoch counter. A writer fills the
// inactive image and publishes it with one atomic release increment; the
// consumer acquires the epoch once per batch, so in-flight batches always
// finish on the table they started with — no torn reads — and the writer
// can measure swap latency as publish -> first batch retired on the new
// epoch.
//
// Producers feed the engine through lock-free SPSC rings
// (util/spsc_ring.hpp), one per producer. The engine drains rings in a
// deterministic round-robin schedule (exactly one batch per open ring per
// cycle), so the merged sample order — and therefore the report — is a pure
// function of the shard contents, independent of producer timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/multi_output_function.hpp"
#include "hw/architectures.hpp"
#include "hw/simulator.hpp"
#include "util/simd.hpp"
#include "util/spsc_ring.hpp"

namespace dalut::hw {

/// One generation of LUT contents in compiled form: a packed word array —
/// an approximate system's 2^n output words, or a monolithic LUT's stored
/// words. Pure data — the read transform belongs to the StreamTarget that
/// built it.
class TableImage {
 public:
  const std::uint32_t* words() const noexcept { return words_.data(); }

 private:
  friend class StreamTarget;
  util::aligned_vector<std::uint32_t> words_;
};

/// A compiled, devirtualized simulation target with double-buffered,
/// epoch-swapped contents.
///
/// Threading contract: at most one writer thread (reconfigure) and at most
/// one consumer thread (acquire / mark_applied, i.e. one StreamEngine::run
/// or stream_simulate at a time).
/// The structural shape — unit count, partitions, modes, word widths — is
/// frozen at compile(); reconfiguration swaps *contents* only, exactly like
/// re-programming the DFF arrays of the physical LUTs.
class StreamTarget {
 public:
  /// Records the system's unit shapes and materializes its 2^n output
  /// words into epoch 0's image. Throws std::invalid_argument past
  /// kMaxApproxInputs inputs.
  static StreamTarget compile(const ApproxLutSystem& system);
  static StreamTarget compile(const MonolithicLut& lut, unsigned num_outputs);

  /// Widest approximate target compile() accepts: 2^20 words are 4 MiB per
  /// image, and every swap rewrites all of them.
  static constexpr unsigned kMaxApproxInputs = 20;

  /// Movable only before writer/consumer threads attach (the epoch atomics
  /// are transferred non-atomically).
  StreamTarget(StreamTarget&& other) noexcept;
  StreamTarget& operator=(StreamTarget&&) = delete;
  StreamTarget(const StreamTarget&) = delete;
  StreamTarget& operator=(const StreamTarget&) = delete;

  unsigned num_inputs() const noexcept { return num_inputs_; }
  unsigned num_outputs() const noexcept { return num_outputs_; }
  double static_read_energy() const noexcept { return static_read_energy_; }

  /// Evaluates `count` samples with `image`'s contents: y[i] = read(x[i]),
  /// bit-identical to the scalar read path of the source target.
  void eval_batch(const TableImage& image, const core::InputWord* x,
                  core::OutputWord* y, std::size_t count) const noexcept;

  // ---- Epoch protocol ---------------------------------------------------

  /// Epoch of the most recently committed contents.
  std::uint64_t published_epoch() const noexcept {
    return published_.load(std::memory_order_acquire);
  }
  /// Epoch of the newest contents the consumer has finished a batch on.
  std::uint64_t applied_epoch() const noexcept {
    return applied_.load(std::memory_order_acquire);
  }

  /// Writer: shape-checked whole-target content swaps. The source must
  /// match the compiled structure exactly (same units, partitions, modes /
  /// same geometry and shifts); throws std::invalid_argument otherwise.
  /// Blocks until the consumer has retired the previous epoch
  /// (applied_epoch() >= published_epoch()), so it never scribbles over an
  /// image a batch is still reading, then rewrites the inactive image and
  /// publishes it. An approximate system is re-materialized unit by unit:
  /// 2^n / 16 in-order block steps of DecomposedBit::eval_all into a byte
  /// plane, then one pass ORing the plane into the 2^n words. In-flight
  /// batches finish on the old image. With no consumer attached, call
  /// mark_applied(published_epoch()) first. Returns the new epoch.
  std::uint64_t reconfigure(const ApproxLutSystem& system);
  std::uint64_t reconfigure(const MonolithicLut& lut);

  /// Consumer: acquires the current contents for one batch. The returned
  /// image stays valid until mark_applied() confirms an epoch >= the one
  /// written to `epoch`.
  const TableImage& acquire(std::uint64_t& epoch) const noexcept {
    epoch = published_.load(std::memory_order_acquire);
    return images_[epoch & 1];
  }
  /// Consumer: records that a batch evaluated on `epoch` has fully retired
  /// (its results are accounted). Monotone.
  void mark_applied(std::uint64_t epoch) noexcept {
    if (epoch > applied_.load(std::memory_order_relaxed)) {
      applied_.store(epoch, std::memory_order_release);
    }
  }

 private:
  StreamTarget() = default;

  /// The structure of one approximate unit that reconfiguration must keep.
  struct UnitShape {
    core::DecompMode mode = core::DecompMode::kNormal;
    std::uint32_t bound_mask = 0;
    unsigned shared_bit = 0;
    std::size_t bound_size = 0;
    std::size_t free_size = 0;
  };

  /// The read kernel, written once against an op set (stream_engine.cpp):
  /// Ops::kWidth samples per step, batch tails on the one-lane Ops::Scalar.
  template <class Ops>
  void eval_words(const TableImage& image, const core::InputWord* x,
                  core::OutputWord* y, std::size_t count) const noexcept;

  /// Waits until the consumer has retired the published epoch and returns
  /// the inactive image, contents untouched.
  TableImage& begin_update();
  /// Publishes the image from begin_update(); returns the new epoch.
  std::uint64_t commit_update() noexcept;
  void fill_image(TableImage& image, const ApproxLutSystem& system) const;
  void fill_image(TableImage& image, const MonolithicLut& lut) const;
  void check_shape(const ApproxLutSystem& system) const;
  void check_shape(const MonolithicLut& lut) const;

  unsigned num_inputs_ = 0;
  unsigned num_outputs_ = 0;
  double static_read_energy_ = 0.0;

  // The read transform, y = words[(x >> addr_shift_) & addr_mask_] <<
  // out_shift_: the identity on x for an approximate target (its image
  // holds y for every x), the LUT's geometry for a monolithic one.
  std::uint32_t addr_mask_ = 0;
  unsigned addr_shift_ = 0;
  unsigned out_shift_ = 0;
  // Shape records for check_shape: one UnitShape per output bit of an
  // approximate target, the RAM geometry of a monolithic one.
  bool monolithic_ = false;
  std::vector<UnitShape> units_;
  unsigned mono_addr_bits_ = 0;
  unsigned mono_width_ = 0;

  TableImage images_[2];  ///< double buffer; active = published_ & 1
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> applied_{0};
};

// ---- Batched accounting -------------------------------------------------

/// Cross-batch accounting state. accumulate_batch() replays simulate()'s
/// per-sample arithmetic (read energy, masked toggle count, wire energy,
/// reference check) in sequence order, so feeding batches through an
/// accumulator yields a SimulationReport bit-identical to the scalar loop
/// over the concatenated sequence.
struct BatchAccumulator {
  SimulationReport report;
  core::OutputWord previous = 0;
  bool first = true;
};

void accumulate_batch(BatchAccumulator& acc, const core::InputWord* x,
                      const core::OutputWord* y, std::size_t count,
                      const core::MultiOutputFunction* reference,
                      const Technology& tech, double static_read_energy,
                      core::OutputWord bus_mask);

/// Finalizes avg_read_energy and returns the report.
SimulationReport finish(BatchAccumulator& acc) noexcept;

// ---- Engine -------------------------------------------------------------

struct StreamConfig {
  std::size_t batch_size = 1024;        ///< samples per kernel invocation
  std::size_t ring_capacity = 1 << 14;  ///< per-producer ring slots
};

/// Engine-level report: the simulator accounting plus throughput numbers.
struct StreamReport {
  SimulationReport sim;
  std::size_t batches = 0;
  std::uint64_t reconfigs_observed = 0;  ///< epoch advances seen mid-stream
  std::uint64_t wait_spins = 0;          ///< consumer spins on empty rings
  double elapsed_seconds = 0.0;
  double reads_per_sec = 0.0;
};

/// Drop-in batched replacement for simulate(): chunks `sequence` into
/// batches, evaluates through the compiled kernels, and returns a report
/// bit-identical to simulate(make_target(...), sequence, ...). Acts as the
/// target's consumer (acquires/retires epochs per batch).
SimulationReport stream_simulate(StreamTarget& target,
                                 std::span<const core::InputWord> sequence,
                                 const core::MultiOutputFunction* reference,
                                 const Technology& tech,
                                 std::size_t batch_size = 1024);

/// Multi-producer streaming front end: `num_producers` SPSC rings feed one
/// consuming engine thread (the caller of run()).
///
/// Producer contract: producer i pushes its shard into ring(i) and calls
/// close() when done; a producer that stops pushing without closing stalls
/// the engine. The engine drains rings in deterministic round-robin: one
/// batch_size batch per open ring per cycle (waiting for a slow producer
/// rather than skipping it), the sub-batch remainder once the ring closes.
/// The merged order — hence the report — depends only on the shard
/// contents, not on thread timing.
class StreamEngine {
 public:
  StreamEngine(StreamTarget& target, const Technology& tech,
               std::size_t num_producers, StreamConfig config = {});

  std::size_t num_producers() const noexcept { return rings_.size(); }
  util::SpscRing<core::InputWord>& ring(std::size_t producer) {
    return *rings_[producer];
  }

  /// Consumes until every ring is closed and drained. Records stream.*
  /// telemetry counters (visible on /metrics when a tool enables the
  /// exporter). Call from exactly one thread; reentrant after return.
  StreamReport run(const core::MultiOutputFunction* reference = nullptr);

 private:
  StreamTarget& target_;
  Technology tech_;
  StreamConfig config_;
  std::vector<std::unique_ptr<util::SpscRing<core::InputWord>>> rings_;
};

}  // namespace dalut::hw
