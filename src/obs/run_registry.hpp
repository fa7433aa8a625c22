// Live per-job run state for the /runs endpoint.
//
// A process-wide registry the suite runner (and dalut_opt, for its single
// run) publishes job lifecycle and progress into, and the embedded exporter
// reads out as JSON. Disabled by default: every publish call is one relaxed
// atomic load and a branch unless a tool turned the registry on for an
// exporter, so headless runs pay nothing.
//
// Publishing is write-only for the searches — the registry is fed from the
// progress-callback path (the live sink of the observation-only
// util::telemetry::ProgressRecorder) and from job scheduling boundaries;
// nothing is ever read back into search state. Per-job trajectories are
// bounded rings: past the cap the oldest rows are dropped and counted, so a
// long run cannot grow the registry without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/run_control.hpp"

namespace dalut::obs {

enum class JobPhase {
  kPending,    ///< declared, not yet scheduled
  kRunning,    ///< attempt in flight
  kRetrying,   ///< failed an attempt, queued for another
  kCompleted,  ///< finished with a result
  kCached,     ///< served from the result cache
  kFailed,     ///< gave up (quarantined)
  kCancelled,  ///< stopped mid-attempt by the master control
  kSkipped,    ///< never ran (suite stopped first)
};

const char* to_string(JobPhase phase) noexcept;

/// One retained progress report (mirrors util::telemetry::TrajectoryRow,
/// minus the wall-clock column: /runs reports elapsed time per job).
struct RunTrajectoryRow {
  std::string stage;
  unsigned round = 0;
  unsigned bit = 0;
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  double best_error = 0.0;
};

struct JobView {
  std::string name;
  std::string algorithm;
  JobPhase phase = JobPhase::kPending;
  unsigned attempts = 0;       ///< attempts started so far
  bool from_cache = false;
  bool resumed = false;
  std::string error;           ///< failure summary for kFailed
  bool has_best = false;
  double best_error = 0.0;     ///< min over reports; final MED when done
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  std::string stage;
  std::vector<RunTrajectoryRow> trajectory;  ///< newest kept, bounded
  std::uint64_t trajectory_dropped = 0;
};

class RunRegistry {
 public:
  static RunRegistry& instance();

  /// Turns publishing on or off. Off (the default) reduces every publish to
  /// a relaxed load + branch.
  void set_enabled(bool on) noexcept;
  bool enabled() const noexcept;

  /// Rows retained per job trajectory before oldest-first dropping.
  void set_trajectory_capacity(std::size_t rows) noexcept;

  /// Clears all jobs (keeps the enabled flag). Tests and tool re-runs.
  void reset();

  // Publishers (no-ops while disabled). `declare` fixes the /runs ordering;
  // the rest key on the job name and create the row on demand so partial
  // instrumentation still renders.
  void declare(std::string_view name, std::string_view algorithm);
  void job_started(std::string_view name);
  void job_retrying(std::string_view name);
  void job_progress(std::string_view name, const util::RunProgress& progress);
  void job_completed(std::string_view name, double best_error,
                     bool from_cache, bool resumed);
  void job_failed(std::string_view name, std::string_view error);
  void job_cancelled(std::string_view name);
  void job_skipped(std::string_view name);

  /// Copies the current state, declaration order preserved.
  std::vector<JobView> snapshot() const;

  /// Writes the jobs array portion of /runs: one JSON object per job with
  /// its bounded trajectory. `indent` spaces prefix every line.
  void write_jobs_json(std::ostream& out, int indent = 0) const;

 private:
  RunRegistry() = default;
};

}  // namespace dalut::obs
