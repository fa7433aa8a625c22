// Sharded suite execution: every job of a manifest runs through one shared
// ThreadPool, with per-job run control, checkpointing, and telemetry
// multiplexed over the PR-1..4 single-run machinery.
//
// Scheduling: jobs shard across the pool via parallel_for (manifest order,
// deterministic chunking), and each job's search internally reuses the same
// pool through nested parallel_for calls — a 4-job suite on 8 workers keeps
// all 8 busy, first across jobs, then inside the stragglers. Job results
// are bit-deterministic at any worker count (the PR-1 engine guarantee), so
// the deterministic report below is byte-identical for `-j1` and `-j8`.
//
// Resume: with a checkpoint directory, each unfinished job periodically
// snapshots to "<dir>/<job-name>.ck" (atomic, crash-safe). A killed suite
// re-run serves finished jobs from the result cache and resumes unfinished
// ones from their checkpoints bit-identically; completed jobs delete their
// checkpoint (and any stale *.tmp beside it).
//
// Reports: write_suite_csv emits only fields that are pure functions of the
// manifest and the deterministic results — no wall-clock, no cache/resume
// provenance — so an interrupted-and-resumed run and an uninterrupted run
// produce byte-identical CSVs, and so does an all-cache-hits re-run.
// Provenance and timing live in the JSON jobs section and the metrics
// registry instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/algorithm_common.hpp"
#include "core/checkpoint.hpp"
#include "core/input_distribution.hpp"
#include "core/table_io.hpp"
#include "suite/manifest.hpp"
#include "suite/result_cache.hpp"
#include "util/retry.hpp"
#include "util/run_control.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace dalut::suite {

struct SuiteOptions {
  util::ThreadPool* pool = nullptr;  ///< required; shared by jobs and suite
  /// Master control: a deadline or cancel here fans out to every job's
  /// chained per-job control at its next poll boundary.
  util::RunControl* control = nullptr;
  std::string cache_dir;           ///< "" = result cache off
  std::size_t cache_max_entries = 0;  ///< 0 = unbounded
  std::string checkpoint_dir;      ///< "" = per-job checkpoints off
  unsigned checkpoint_every = 2;   ///< bit-steps between job checkpoints
  /// Human-facing progress forwarding, labeled with the job name; throttled
  /// per job by `progress_interval` (at-completion reports always pass).
  std::function<void(const std::string&, const util::RunProgress&)> progress;
  std::chrono::nanoseconds progress_interval = std::chrono::seconds(5);
  /// When non-empty, each job's resolved input truth table (file-based or
  /// generated from a built-in benchmark) is exported here atomically as
  /// "<job-name>.dalut" (text) or "<job-name>.dalutb" (binary container,
  /// per `table_encoding`) — the exact bits the job optimized, re-runnable
  /// standalone via `dalut_opt --table`.
  std::string dump_tables_dir;
  core::TableEncoding table_encoding = core::TableEncoding::kText;
  /// Per-job fault isolation: a job failing with a *retryable* I/O error
  /// (util::errno_retryable) is re-run up to job_retry.max_attempts times
  /// before being quarantined as `failed`; deterministic errors fail on the
  /// first attempt. Sibling jobs always run to completion either way.
  util::RetryPolicy job_retry;
};

struct JobOutcome {
  SuiteJob job;
  std::uint64_t key = 0;      ///< result-cache key
  util::RunStatus status = util::RunStatus::kCompleted;
  bool started = false;       ///< false: the master tripped before this job
  bool from_cache = false;    ///< served from the result cache
  bool resumed = false;       ///< restored from a checkpoint
  std::string error;          ///< non-empty: the job failed with this error
  ResultRecord record;        ///< valid when started && error.empty()
};

struct SuiteReport {
  std::vector<JobOutcome> outcomes;  ///< manifest order
  std::vector<util::telemetry::TrajectoryRow> trajectory;  ///< time order
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// kCompleted unless the master control stopped the suite early.
  util::RunStatus status = util::RunStatus::kCompleted;
  double runtime_seconds = 0.0;
  bool any_failed = false;
};

/// Executes every job of `manifest` on `options.pool`. Never throws for
/// per-job failures (they land in JobOutcome::error); throws
/// std::invalid_argument / std::runtime_error only for suite-level
/// misconfiguration (no pool, unusable cache/checkpoint directory).
SuiteReport run_suite(const Manifest& manifest, const SuiteOptions& options);

/// Deterministic aggregate report: one CSV row per job, manifest order,
/// doubles at exact 17-digit round-trip precision. Contains no wall-clock
/// or provenance fields (see the file comment).
void write_suite_csv(std::ostream& out, const SuiteReport& report);

/// The per-job section of the dalut-metrics-v1 artifact: a JSON array with
/// provenance (cache/resume), timing, and metrics per job. `indent` spaces
/// prefix every line.
void write_suite_jobs_json(std::ostream& out, const SuiteReport& report,
                           int indent = 0);

// ---- The job path shared with dalut_opt ----------------------------------

/// A job's input function: its truth-table file, read under `load`, or the
/// built-in benchmark (Table I or the extended suite) at the job's width.
/// Throws std::runtime_error for an unknown benchmark.
core::MultiOutputFunction load_job_function(
    const SuiteJob& job, core::TableLoadMode load = core::TableLoadMode::kAuto);

/// A checkpoint sink that saves to `path` best-effort: a snapshot that
/// cannot be persisted (full disk, injected fault) is dropped with a warning
/// on stderr, and the search keeps running.
std::function<void(const core::SearchCheckpoint&)> checkpoint_sink(
    std::string path);

/// What a search needs besides its job and function.
struct SearchRun {
  util::ThreadPool* pool = nullptr;
  util::RunControl* control = nullptr;
  unsigned checkpoint_every = 0;  ///< bit-steps between `sink` calls
  std::function<void(const core::SearchCheckpoint&)> sink{};  ///< empty = off
  const core::SearchCheckpoint* resume = nullptr;
};

/// Runs the BS-SA or DALTA search a job describes (dalta_params /
/// bssa_params for g's width). Throws std::invalid_argument for params out
/// of range or a `run.resume` of other parameters (digest mismatch).
core::DecompositionResult run_search(const SuiteJob& job,
                                     const core::MultiOutputFunction& g,
                                     const core::InputDistribution& dist,
                                     const SearchRun& run);

}  // namespace dalut::suite
