// Shared pieces of the DALTA and BS-SA decomposition drivers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bit_cost.hpp"
#include "core/decomposition.hpp"
#include "core/evaluate.hpp"
#include "core/setting.hpp"
#include "util/rng.hpp"
#include "util/run_control.hpp"

namespace dalut::core {

// Upper limits of the search parameters: validate() on DaltaParams and
// BssaParams enforces them, and set_job_field checks each manifest key.
inline constexpr unsigned kMaxRounds = 1u << 20;
inline constexpr unsigned kMaxPartitionLimit = 1u << 20;  ///< P
inline constexpr unsigned kMaxInitPatterns = 1u << 20;    ///< Z
inline constexpr unsigned kMaxBeamWidth = 4096;
inline constexpr unsigned kMaxChains = 4096;
inline constexpr unsigned kMaxNdCandidates = 4096;

/// Throw std::invalid_argument, beginning with `key` (the manifest key),
/// unless lo <= value <= hi, or unless `value` is finite and >= 0.
void check_count(const char* key, unsigned value, unsigned lo, unsigned hi);
void check_factor(const char* key, double value);

/// Outcome of a full approximate-decomposition run.
struct DecompositionResult {
  std::vector<Setting> settings;  ///< one per output bit, index = bit k
  double med = 0.0;               ///< exact MED of the realized LUT
  ErrorReport report;             ///< full error metrics of the realized LUT
  double runtime_seconds = 0.0;   ///< cumulative across resumed segments
  std::size_t partitions_evaluated = 0;  ///< total OptForPart partitions

  /// kCompleted, or how the attached RunControl stopped the run early. A
  /// stopped run still carries a fully valid, realizable settings vector
  /// (best-so-far, with deterministic fallbacks for never-reached bits).
  util::RunStatus status = util::RunStatus::kCompleted;
  /// True when this run was restored from a checkpoint.
  bool resumed = false;

  /// Realizes the settings into a functional approximate LUT.
  ApproxLut realize(unsigned num_inputs) const {
    return ApproxLut::realize(num_inputs, settings);
  }
};

/// Overwrites output bit k of every cached approximate value with the
/// realized behaviour of `setting`.
void write_bit_to_cache(std::vector<OutputWord>& cache, unsigned k,
                        const Setting& setting);

/// Exact error of an already-chosen setting under the current per-input
/// cost arrays: realizes the setting and sums c1/c0 per its output. Used to
/// compare an incumbent setting against freshly searched candidates so a
/// refinement round never regresses (coordinate descent stays monotone).
/// Deliberately evaluates over the realized 2^n domain rather than a
/// gathered matrix: it also covers ND settings, and keeping the summation
/// order fixed preserves historical error values bit-for-bit
/// (evaluate_vt on a gathered matrix agrees with it only up to FP
/// reassociation).
double setting_error_under_costs(const Setting& setting,
                                 std::span<const double> c0,
                                 std::span<const double> c1);

/// Up to `count` distinct random partitions with the given bound size
/// (fewer when the partition space is smaller than `count`).
std::vector<Partition> sample_partitions(unsigned num_inputs,
                                         unsigned bound_size, unsigned count,
                                         util::Rng& rng);

/// Deterministic, RNG-free stand-in setting for an output bit a stopped run
/// never reached: the best all-Pattern setting on the canonical partition
/// (lowest `bound_size` inputs bound), under exact costs for the current
/// cache. Labeled BTO only when `allow_bto` (the mode policy / target
/// architecture permits it); otherwise normal mode, whose setting space
/// contains every all-Pattern solution, so either label realizes the same
/// LUT. Bounded work (one cost build + one closed-form optimization), so
/// the graceful-degradation path adds at most seconds past a deadline.
/// Writes the realized bit into `cache`.
Setting fallback_setting(const MultiOutputFunction& g,
                         std::vector<OutputWord>& cache, unsigned k,
                         const InputDistribution& dist, CostMetric metric,
                         unsigned bound_size, bool allow_bto,
                         util::ThreadPool* pool);

}  // namespace dalut::core
