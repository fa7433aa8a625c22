// Low-overhead, thread-safe observability for the search stack.
//
// A process-wide registry of named counters, gauges, and fixed-bucket
// histograms. Recording is built for the hot paths of the parallel engine:
//
//  * Per-thread sharded accumulation. Each thread owns a shard of plain
//    cache-line-local slots; a counter increment is one relaxed atomic load
//    (the enable flag) plus one single-writer store into the thread's own
//    slot. No RMW, no cross-thread cache-line traffic on the write path.
//    Shards of exited threads fold into a retired accumulator, so totals
//    survive worker churn.
//
//  * On-demand aggregation. snapshot_metrics() sums the live shards and the
//    retired accumulator under the registry lock. Mid-run snapshots may lag
//    in-flight increments by a few relaxed stores; once the recording
//    threads have been joined the totals are exact.
//
//  * Off by default. With metrics disabled every record call is a relaxed
//    load and a branch, so instrumentation can stay compiled into the hot
//    kernels unconditionally (the BM_TelemetryOverhead micro benchmark and
//    docs/observability.md track the enabled-path cost).
//
// Hard guarantee: telemetry is write-only for the searches. Nothing in the
// search stack reads a metric back, so MEDs and emitted settings are
// bit-identical with telemetry enabled, disabled, or compiled out, at any
// worker count (docs/parallelism.md). Wall-clock timestamps appear only in
// exported artifacts, never in search state.
//
// Span tracing (Chrome trace-event JSON) lives in util/trace_writer.hpp;
// both layers share this registry for derived counters such as
// trace.dropped_spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/run_control.hpp"

namespace dalut::util::telemetry {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
void counter_add(std::uint32_t id, std::uint64_t n) noexcept;
void gauge_set(std::uint32_t id, double value) noexcept;
void histogram_observe(std::uint32_t id, double value) noexcept;
inline constexpr std::uint32_t kNullId = 0xffffffffu;
}  // namespace detail

/// Turns metric recording on or off process-wide. Off (the default) reduces
/// every record call to a relaxed load + branch.
void set_metrics_enabled(bool on) noexcept;

inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Monotonically increasing event count. Handles are cheap value types that
/// refer to a registry slot; `get` registers on first use and returns the
/// same slot for the same name afterwards.
class Counter {
 public:
  /// `per_thread_detail` marks the counter for a per-shard breakdown in
  /// snapshots (used by the pool's per-worker task/idle counters).
  static Counter get(std::string_view name, bool per_thread_detail = false);

  void add(std::uint64_t n = 1) const noexcept {
    if (metrics_enabled() && id_ != detail::kNullId) {
      detail::counter_add(id_, n);
    }
  }

 private:
  explicit Counter(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

/// Last-write-wins instantaneous value (e.g. the current SA temperature).
/// Stored globally (not sharded): sets are rare and reads happen only at
/// snapshot time.
class Gauge {
 public:
  static Gauge get(std::string_view name);

  void set(double value) const noexcept {
    if (metrics_enabled() && id_ != detail::kNullId) {
      detail::gauge_set(id_, value);
    }
  }

 private:
  explicit Gauge(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

/// Fixed-bucket histogram: `bounds` are ascending upper edges with half-open
/// `[lo, hi)` semantics — bucket b counts values in [bounds[b-1], bounds[b])
/// (the first bucket is unbounded below), and a value landing exactly on an
/// edge belongs to the bucket *above* it. One overflow bucket catches
/// [bounds.back(), +inf). Count and sum are tracked alongside the buckets.
class Histogram {
 public:
  static Histogram get(std::string_view name, std::vector<double> bounds);

  void observe(double value) const noexcept {
    if (metrics_enabled() && id_ != detail::kNullId) {
      detail::histogram_observe(id_, value);
    }
  }

 private:
  explicit Histogram(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_;
};

// ---- Aggregated snapshots -----------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
  /// (shard thread id, contribution) rows for counters registered with
  /// per_thread_detail; retired threads fold into one row with
  /// thread id == kRetiredThreadId.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> per_thread;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
  bool ever_set = false;
};

struct HistogramValue {
  std::string name;
  std::vector<double> bounds;  ///< half-open [lo, hi) upper edges, ascending
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
};

inline constexpr std::uint32_t kRetiredThreadId = 0xffffffffu;

struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  const CounterValue* find_counter(std::string_view name) const noexcept;
  const GaugeValue* find_gauge(std::string_view name) const noexcept;
  const HistogramValue* find_histogram(std::string_view name) const noexcept;
  /// Total of `name`, or 0 if never registered.
  std::uint64_t counter_value(std::string_view name) const noexcept;
};

/// Aggregates every registered metric across the live shards and the
/// retired accumulator.
MetricsSnapshot snapshot_metrics();

/// Writes the snapshot as one JSON object:
///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// `indent` spaces prefix every line (for embedding in a larger document).
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        int indent = 0);

/// Zeroes every counter/gauge/histogram and drops retired shard totals.
/// Only safe while no other thread is recording (tests and benchmarks).
void reset_metrics_for_test();

// ---- Progress recorder --------------------------------------------------

/// One delivered progress report: the search-side fields plus the
/// wall-clock offset since the recorder was made. The per-bit best-error
/// trajectory of a run (the quality-vs-effort curves of the paper's Tables
/// 1-2 / Fig. 6) falls out of these rows directly.
struct TrajectoryRow {
  std::string job;  ///< the suite job that reported; empty for a single run
  double elapsed_seconds = 0.0;
  std::string stage;
  unsigned round = 0;
  unsigned bit = 0;
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  double best_error = 0.0;
};

/// Observes RunControls unthrottled (it installs itself with a zero
/// min-interval) and records every progress report as a TrajectoryRow. Two
/// optional sinks get the reports too: `live` every one, `forward` under a
/// throttle of `forward_interval` per attached control that always passes
/// the first report and any at-completion report (steps_done ==
/// steps_total).
///
/// The recorder is an observer only: it never touches a control's stop
/// state, so attaching it cannot perturb a search. Controls attached to one
/// recorder may report from different threads; each control's reports
/// reach the sinks from its own reporting thread.
class ProgressRecorder {
 public:
  using Sink =
      std::function<void(const std::string& job, const RunProgress&)>;

  explicit ProgressRecorder(
      Sink live = {}, Sink forward = {},
      std::chrono::nanoseconds forward_interval = std::chrono::nanoseconds{0});

  /// Installs the recorder as `control`'s progress callback; the rows it
  /// records carry `job`. The recorder must outlive the control's reports.
  void attach(RunControl& control, std::string job = {});

  /// The rows recorded so far, in time order (ties: job, then step).
  std::vector<TrajectoryRow> rows() const;

 private:
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start_ = Clock::now();
  const Sink live_;
  const Sink forward_;
  const std::chrono::nanoseconds forward_interval_;
  mutable std::mutex mutex_;
  std::vector<TrajectoryRow> rows_;  ///< guarded by mutex_
};

/// Writes `rows` as a JSON array, one object per row, each line prefixed by
/// `indent` spaces. A row carries a "job" key only when it has a job.
void write_trajectory_json(std::ostream& out,
                           const std::vector<TrajectoryRow>& rows,
                           int indent = 0);

/// Minimal JSON string escaping for names/stages embedded in artifacts.
std::string json_escape(std::string_view text);

/// Formats a double as a JSON number token. Non-finite values (a gauge that
/// was set to infinity, a best-MED read before the first report) serialize
/// as `null` — bare `nan`/`inf` are not valid JSON and break downstream
/// parsers.
std::string json_number(double value);

}  // namespace dalut::util::telemetry
