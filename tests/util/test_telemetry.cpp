// Telemetry layer tests: exact aggregation under concurrent hammering,
// histogram/gauge semantics, span ring overflow, and the purity of the
// disabled path. Each test resets the (process-wide) registry, so they rely
// on gtest's serial execution within one binary.
#include "util/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/run_control.hpp"
#include "util/trace_writer.hpp"

namespace dalut::util::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_metrics_for_test();
    set_metrics_enabled(true);
  }
  void TearDown() override {
    set_metrics_enabled(false);
    reset_metrics_for_test();
  }
};

TEST_F(TelemetryTest, ConcurrentCounterHammeringAggregatesExactly) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      const Counter counter = Counter::get("test.hammer");
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  // Threads are joined: every per-thread shard has been folded into the
  // retired accumulator, so the total is exact, not approximate.
  EXPECT_EQ(snapshot_metrics().counter_value("test.hammer"),
            kThreads * kPerThread);
}

TEST_F(TelemetryTest, ConcurrentHistogramHammeringAggregatesExactly) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const Histogram hist = Histogram::get("test.hist", {1.0, 10.0, 100.0});
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(static_cast<double>((t + i) % 4) * 9.0);  // 0,9,18,27
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto snap = snapshot_metrics();
  const HistogramValue* hist = snap.find_histogram("test.hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), 4u);  // 3 bounds + overflow
  const std::uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(hist->count, total);
  // Values cycle 0,9,18,27 uniformly over half-open buckets: 0 lands in
  // [..,1), 9 in [1,10), and 18/27 land in [10,100).
  EXPECT_EQ(hist->buckets[0], total / 4);
  EXPECT_EQ(hist->buckets[1], total / 4);
  EXPECT_EQ(hist->buckets[2], total / 2);
  EXPECT_EQ(hist->buckets[3], 0u);
  EXPECT_DOUBLE_EQ(hist->sum, static_cast<double>(total) / 4 * (0 + 9 + 18 + 27));
}

TEST_F(TelemetryTest, HistogramBucketsAreHalfOpen) {
  // A value exactly on a bucket's upper edge belongs to the bucket above:
  // bounds {1, 10, 100} define [..,1), [1,10), [10,100), [100,inf).
  const Histogram hist = Histogram::get("test.edge_hist", {1.0, 10.0, 100.0});
  hist.observe(1.0);
  hist.observe(10.0);
  const auto snap = snapshot_metrics();
  const HistogramValue* value = snap.find_histogram("test.edge_hist");
  ASSERT_NE(value, nullptr);
  ASSERT_EQ(value->buckets.size(), 4u);
  EXPECT_EQ(value->buckets[0], 0u);
  EXPECT_EQ(value->buckets[1], 1u);  // 1.0 -> [1,10)
  EXPECT_EQ(value->buckets[2], 1u);  // 10.0 -> [10,100)
  EXPECT_EQ(value->buckets[3], 0u);
}

TEST_F(TelemetryTest, HistogramLastEdgeLandsInOverflowBucket) {
  const Histogram hist = Histogram::get("test.edge_last", {1.0, 10.0});
  hist.observe(10.0);    // == last bound -> overflow [10, inf)
  hist.observe(1e300);   // far beyond
  const auto snap = snapshot_metrics();
  const HistogramValue* value = snap.find_histogram("test.edge_last");
  ASSERT_NE(value, nullptr);
  ASSERT_EQ(value->buckets.size(), 3u);
  EXPECT_EQ(value->buckets[0], 0u);
  EXPECT_EQ(value->buckets[1], 0u);
  EXPECT_EQ(value->buckets[2], 2u);
}

TEST_F(TelemetryTest, HistogramNegativeValuesLandInFirstBucket) {
  const Histogram hist = Histogram::get("test.edge_neg", {1.0, 10.0});
  hist.observe(-5.0);
  hist.observe(0.999);
  const auto snap = snapshot_metrics();
  const HistogramValue* value = snap.find_histogram("test.edge_neg");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->buckets[0], 2u);
}

TEST_F(TelemetryTest, GaugeKeepsLastWriteAndEverSetFlag) {
  const Gauge gauge = Gauge::get("test.gauge");
  {
    const MetricsSnapshot before = snapshot_metrics();
    const GaugeValue* value = before.find_gauge("test.gauge");
    ASSERT_NE(value, nullptr);
    EXPECT_FALSE(value->ever_set);
  }
  gauge.set(1.5);
  gauge.set(-2.25);
  const MetricsSnapshot after = snapshot_metrics();
  const GaugeValue* value = after.find_gauge("test.gauge");
  ASSERT_NE(value, nullptr);
  EXPECT_TRUE(value->ever_set);
  EXPECT_EQ(value->value, -2.25);
}

TEST_F(TelemetryTest, DisabledRecordingIsANoop) {
  const Counter counter = Counter::get("test.disabled");
  const Histogram hist = Histogram::get("test.disabled_hist", {1.0});
  const Gauge gauge = Gauge::get("test.disabled_gauge");
  set_metrics_enabled(false);
  counter.add(7);
  hist.observe(0.5);
  gauge.set(3.0);
  set_metrics_enabled(true);
  const auto snap = snapshot_metrics();
  EXPECT_EQ(snap.counter_value("test.disabled"), 0u);
  EXPECT_EQ(snap.find_histogram("test.disabled_hist")->count, 0u);
  EXPECT_FALSE(snap.find_gauge("test.disabled_gauge")->ever_set);
}

TEST_F(TelemetryTest, PerThreadDetailBreaksDownByShard) {
  std::thread worker([] {
    const Counter counter = Counter::get("test.detail", true);
    counter.add(5);
  });
  worker.join();
  const Counter counter = Counter::get("test.detail", true);
  counter.add(3);

  const MetricsSnapshot snap = snapshot_metrics();
  const CounterValue* value = snap.find_counter("test.detail");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, 8u);
  // One retired row (the joined worker) and one live row (this thread).
  ASSERT_EQ(value->per_thread.size(), 2u);
  std::uint64_t retired = 0;
  std::uint64_t live = 0;
  for (const auto& [tid, amount] : value->per_thread) {
    (tid == kRetiredThreadId ? retired : live) += amount;
  }
  EXPECT_EQ(retired, 5u);
  EXPECT_EQ(live, 3u);
}

TEST_F(TelemetryTest, MetricsJsonIsWellFormedEnoughToRoundTrip) {
  Counter::get("test.json_counter").add(42);
  Gauge::get("test.json_gauge").set(2.5);
  Histogram::get("test.json_hist", {1.0, 2.0}).observe(1.5);
  std::ostringstream out;
  write_metrics_json(out, snapshot_metrics());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"test.json_counter\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"test.json_gauge\": 2.5"), std::string::npos);
  EXPECT_NE(text.find("\"test.json_hist\""), std::string::npos);
  // Balanced braces as a cheap structural check (no JSON parser in-tree).
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
}

TEST_F(TelemetryTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

// ---- Span tracing -------------------------------------------------------

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_metrics_for_test();
    reset_tracing_for_test();
    set_metrics_enabled(true);
    set_tracing_enabled(true);
  }
  void TearDown() override {
    set_tracing_enabled(false);
    set_metrics_enabled(false);
    set_span_ring_capacity(16384);
    set_retired_span_capacity(65536);
    reset_tracing_for_test();
    reset_metrics_for_test();
  }
};

/// Emits spans "span-0".."span-(n-1)" on a fresh thread so the thread's ring
/// is created with the capacity set by the caller.
void emit_spans_on_fresh_thread(int n) {
  static const char* kNames[] = {"span-0", "span-1", "span-2", "span-3",
                                 "span-4", "span-5", "span-6", "span-7"};
  std::thread([n] {
    for (int i = 0; i < n; ++i) {
      Span span(kNames[i % 8]);
    }
  }).join();
}

TEST_F(TracingTest, RingOverflowDropsOldestFirstAndCountsDrops) {
  set_span_ring_capacity(4);
  emit_spans_on_fresh_thread(7);  // 3 oldest (span-0..2) overwritten

  EXPECT_EQ(dropped_span_count(), 3u);
  EXPECT_EQ(snapshot_metrics().counter_value("trace.dropped_spans"), 3u);

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();
  // Oldest-first drop: the survivors are exactly the 4 newest spans.
  EXPECT_EQ(text.find("\"span-0\""), std::string::npos);
  EXPECT_EQ(text.find("\"span-1\""), std::string::npos);
  EXPECT_EQ(text.find("\"span-2\""), std::string::npos);
  const auto pos3 = text.find("\"span-3\"");
  const auto pos4 = text.find("\"span-4\"");
  const auto pos5 = text.find("\"span-5\"");
  const auto pos6 = text.find("\"span-6\"");
  EXPECT_NE(pos3, std::string::npos);
  EXPECT_NE(pos4, std::string::npos);
  EXPECT_NE(pos5, std::string::npos);
  EXPECT_NE(pos6, std::string::npos);
  // ...and they are emitted oldest-first.
  EXPECT_LT(pos3, pos4);
  EXPECT_LT(pos4, pos5);
  EXPECT_LT(pos5, pos6);
  EXPECT_NE(text.find("\"dropped_spans\": 3"), std::string::npos);
}

TEST_F(TracingTest, NoOverflowKeepsEverySpan) {
  set_span_ring_capacity(16);
  emit_spans_on_fresh_thread(5);
  EXPECT_EQ(dropped_span_count(), 0u);
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(text.find("\"span-" + std::to_string(i) + "\""),
              std::string::npos);
  }
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
}

TEST_F(TracingTest, ExitedThreadSpansSurviveIntoExport) {
  // The regression this pins: a worker's ring used to vanish with the
  // thread, so short-lived workers left no spans in the export. Exiting
  // folds the ring into the retired list instead.
  std::thread([] {
    Span span("worker-span", trace_intern("job-alpha"));
  }).join();

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"worker-span\""), std::string::npos);
  // The retired track keeps the origin thread's label, marked exited.
  EXPECT_NE(text.find(" (exited)\""), std::string::npos);
  // Span args (the suite's job-name tags) survive retirement too.
  EXPECT_NE(text.find("\"args\": {\"arg\": \"job-alpha\"}"),
            std::string::npos);
  EXPECT_EQ(dropped_span_count(), 0u);
}

TEST_F(TracingTest, RetiredSpansAreBoundedOldestDroppedFirst) {
  set_retired_span_capacity(4);
  const auto emit_named = [](const char* name, int n) {
    std::thread([name, n] {
      for (int i = 0; i < n; ++i) {
        Span span(name);
      }
    }).join();
  };
  emit_named("old-span", 3);  // retired total: 3
  emit_named("new-span", 3);  // would be 6 > 4: two oldest drop

  EXPECT_EQ(dropped_span_count(), 2u);
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string text = out.str();
  const auto count_of = [&text](std::string_view needle) {
    std::size_t count = 0;
    for (auto pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
      ++count;
    }
    return count;
  };
  // The newest ring survives whole; the oldest keeps only its newest span.
  EXPECT_EQ(count_of("\"old-span\""), 1u);
  EXPECT_EQ(count_of("\"new-span\""), 3u);
  EXPECT_NE(text.find("\"dropped_spans\": 2"), std::string::npos);
}

TEST_F(TracingTest, RetiredCapZeroEvictsWholeRingsAndCounts) {
  set_retired_span_capacity(0);
  std::thread([] {
    Span a("evicted-a");
    Span b("evicted-b");
  }).join();

  EXPECT_EQ(dropped_span_count(), 2u);
  std::ostringstream out;
  write_chrome_trace(out);
  EXPECT_EQ(out.str().find("\"evicted-"), std::string::npos);
}

TEST_F(TracingTest, DisabledTracingRecordsNothing) {
  set_tracing_enabled(false);
  emit_spans_on_fresh_thread(3);
  std::ostringstream out;
  write_chrome_trace(out);
  EXPECT_EQ(out.str().find("\"span-"), std::string::npos);
  EXPECT_EQ(dropped_span_count(), 0u);
}

// ---- ProgressRecorder ---------------------------------------------------

RunProgress make_progress(std::size_t done, std::size_t total,
                          double error) {
  RunProgress progress;
  progress.stage = "test";
  progress.round = 1;
  progress.bit = static_cast<unsigned>(total - done);
  progress.steps_done = done;
  progress.steps_total = total;
  progress.best_error = error;
  return progress;
}

TEST(ProgressRecorder, RecordsEveryReportUnthrottled) {
  RunControl control;
  ProgressRecorder recorder;
  recorder.attach(control);
  for (std::size_t i = 1; i <= 5; ++i) {
    control.report_progress(make_progress(i, 10, 1.0 / i));
  }
  const auto rows = recorder.rows();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows.front().steps_done, 1u);
  EXPECT_EQ(rows.back().steps_done, 5u);
  EXPECT_EQ(rows.back().stage, "test");
  EXPECT_TRUE(rows.back().job.empty());
}

TEST(ProgressRecorder, ForwardThrottlePassesFirstAndFinalReports) {
  RunControl control;
  int live = 0;
  int forwarded = 0;
  ProgressRecorder recorder(
      [&](const std::string&, const RunProgress&) { ++live; },
      [&](const std::string&, const RunProgress&) { ++forwarded; },
      std::chrono::hours{1});
  recorder.attach(control);
  for (std::size_t i = 1; i <= 9; ++i) {
    control.report_progress(make_progress(i, 10, 1.0));
  }
  EXPECT_EQ(forwarded, 1);  // first passes, the rest are throttled
  control.report_progress(make_progress(10, 10, 1.0));
  EXPECT_EQ(forwarded, 2);  // the at-completion report always passes
  // The live sink and the recorder itself saw everything.
  EXPECT_EQ(live, 10);
  EXPECT_EQ(recorder.rows().size(), 10u);
}

TEST(ProgressRecorder, TrajectoryJsonHoldsOneObjectPerRow) {
  RunControl control;
  ProgressRecorder recorder;
  recorder.attach(control);
  control.report_progress(make_progress(1, 2, 0.5));
  control.report_progress(make_progress(2, 2, 0.25));
  std::ostringstream out;
  write_trajectory_json(out, recorder.rows());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"step\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"step\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"best_error\": 0.25"), std::string::npos);
  EXPECT_NE(text.find("\"stage\": \"test\""), std::string::npos);
  // A single run's rows carry no job key.
  EXPECT_EQ(text.find("\"job\""), std::string::npos);
}

}  // namespace
}  // namespace dalut::util::telemetry
