#include "suite/suite_runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>

#include "util/failpoint.hpp"
#include "util/run_control.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace dalut::suite {
namespace {

namespace fs = std::filesystem;

constexpr const char* kManifest =
    "dalut-manifest v1\n"
    "default width=8 rounds=1 partitions=8 patterns=4\n"
    "job cos8 benchmark=cos algorithm=bssa seed=3\n"
    "job log8 benchmark=log2 algorithm=dalta seed=5\n"
    "job rin benchmark=cos algorithm=round-in drop=2\n"
    "job rout benchmark=cos algorithm=round-out drop=1\n"
    "end\n";

std::string fresh_dir(const char* name) {
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string csv_of(const SuiteReport& report) {
  std::ostringstream out;
  write_suite_csv(out, report);
  return out.str();
}

TEST(SuiteRunner, RunsEveryJobOfTheManifest) {
  const auto manifest = manifest_from_string(kManifest);
  util::ThreadPool pool(2);
  SuiteOptions options;
  options.pool = &pool;
  const auto report = run_suite(manifest, options);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.started) << o.job.name;
    EXPECT_TRUE(o.error.empty()) << o.job.name << ": " << o.error;
    EXPECT_EQ(o.status, util::RunStatus::kCompleted) << o.job.name;
    EXPECT_FALSE(o.from_cache);
    EXPECT_GT(o.record.stored_bits, 0u) << o.job.name;
  }
  // Outcomes stay in manifest order regardless of completion order.
  EXPECT_EQ(report.outcomes[0].job.name, "cos8");
  EXPECT_EQ(report.outcomes[3].job.name, "rout");
  EXPECT_FALSE(report.any_failed);
  EXPECT_EQ(report.status, util::RunStatus::kCompleted);
}

TEST(SuiteRunner, CsvIsByteIdenticalAcrossWorkerCounts) {
  const auto manifest = manifest_from_string(kManifest);
  util::ThreadPool serial(1);
  util::ThreadPool wide(4);
  SuiteOptions options;
  options.pool = &serial;
  const auto report1 = run_suite(manifest, options);
  options.pool = &wide;
  const auto report4 = run_suite(manifest, options);
  EXPECT_EQ(csv_of(report1), csv_of(report4));
}

TEST(SuiteRunner, SecondRunIsAllCacheHitsWithIdenticalCsv) {
  const auto manifest = manifest_from_string(kManifest);
  const auto cache_dir = fresh_dir("dalut_suite_cache");
  util::ThreadPool pool(2);
  SuiteOptions options;
  options.pool = &pool;
  options.cache_dir = cache_dir;

  const auto first = run_suite(manifest, options);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, 4u);

  const auto second = run_suite(manifest, options);
  EXPECT_EQ(second.cache_hits, 4u);
  EXPECT_EQ(second.cache_misses, 0u);
  for (const auto& o : second.outcomes) {
    EXPECT_TRUE(o.from_cache) << o.job.name;
  }
  EXPECT_EQ(csv_of(first), csv_of(second));
  fs::remove_all(cache_dir);
}

TEST(SuiteRunner, EditedJobMissesWhileOthersStillHit) {
  auto manifest = manifest_from_string(kManifest);
  const auto cache_dir = fresh_dir("dalut_suite_cache_edit");
  util::ThreadPool pool(2);
  SuiteOptions options;
  options.pool = &pool;
  options.cache_dir = cache_dir;
  (void)run_suite(manifest, options);

  manifest.jobs[0].seed = 99;  // invalidates only cos8
  const auto report = run_suite(manifest, options);
  EXPECT_EQ(report.cache_hits, 3u);
  EXPECT_EQ(report.cache_misses, 1u);
  EXPECT_FALSE(report.outcomes[0].from_cache);
  EXPECT_TRUE(report.outcomes[1].from_cache);
  fs::remove_all(cache_dir);
}

TEST(SuiteRunner, FailedJobIsRecordedWithoutPoisoningSiblings) {
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "default width=8 rounds=1 partitions=8 patterns=4\n"
      "job good benchmark=cos algorithm=bssa\n"
      "job bad benchmark=no-such-function\n"
      "job bad-drop benchmark=cos algorithm=round-in drop=0\n"
      "end\n");
  util::ThreadPool pool(2);
  SuiteOptions options;
  options.pool = &pool;
  const auto report = run_suite(manifest, options);
  EXPECT_TRUE(report.any_failed);
  EXPECT_TRUE(report.outcomes[0].error.empty());
  EXPECT_EQ(report.outcomes[0].status, util::RunStatus::kCompleted);
  EXPECT_NE(report.outcomes[1].error.find("no-such-function"),
            std::string::npos);
  EXPECT_FALSE(report.outcomes[2].error.empty());
  // Failed rows still serialize (status "failed", empty metric cells).
  EXPECT_NE(csv_of(report).find("failed"), std::string::npos);
}

TEST(SuiteRunner, PreTrippedMasterSkipsEveryJob) {
  const auto manifest = manifest_from_string(kManifest);
  util::ThreadPool pool(2);
  util::RunControl control;
  control.request_cancel();
  SuiteOptions options;
  options.pool = &pool;
  options.control = &control;
  const auto report = run_suite(manifest, options);
  EXPECT_EQ(report.status, util::RunStatus::kCancelled);
  for (const auto& o : report.outcomes) {
    EXPECT_FALSE(o.started) << o.job.name;
    EXPECT_EQ(o.status, util::RunStatus::kCancelled) << o.job.name;
  }
  EXPECT_NE(csv_of(report).find("skipped"), std::string::npos);
}

TEST(SuiteRunner, CancelledSuiteResumesFromCheckpointsBitIdentically) {
  const auto manifest = manifest_from_string(kManifest);
  const auto ck_dir = fresh_dir("dalut_suite_ck");

  // Reference: uninterrupted single-worker run.
  util::ThreadPool serial(1);
  SuiteOptions reference_options;
  reference_options.pool = &serial;
  const auto reference = run_suite(manifest, reference_options);
  const auto reference_csv = csv_of(reference);

  // Interrupted run: cancel the master after a few progress reports; the
  // in-flight search stops cooperatively, leaving its checkpoint behind.
  util::RunControl master;
  SuiteOptions options;
  options.pool = &serial;
  options.control = &master;
  options.checkpoint_dir = ck_dir;
  options.checkpoint_every = 1;
  options.progress_interval = std::chrono::nanoseconds{0};
  int reports = 0;
  options.progress = [&](const std::string&, const util::RunProgress&) {
    if (++reports >= 3) master.request_cancel();
  };
  const auto stopped = run_suite(manifest, options);
  EXPECT_EQ(stopped.status, util::RunStatus::kCancelled);
  bool any_incomplete = false;
  for (const auto& o : stopped.outcomes) {
    any_incomplete |= o.status != util::RunStatus::kCompleted || !o.started;
  }
  ASSERT_TRUE(any_incomplete);

  // Resume run: fresh master, same checkpoint directory. Everything must
  // complete and the deterministic CSV must match the uninterrupted one.
  SuiteOptions resume_options;
  resume_options.pool = &serial;
  resume_options.checkpoint_dir = ck_dir;
  resume_options.checkpoint_every = 1;
  const auto resumed = run_suite(manifest, resume_options);
  for (const auto& o : resumed.outcomes) {
    EXPECT_EQ(o.status, util::RunStatus::kCompleted) << o.job.name;
  }
  EXPECT_EQ(csv_of(resumed), reference_csv);
  // Completed jobs leave no checkpoints (or stale tmps) behind.
  for (const auto& o : resumed.outcomes) {
    EXPECT_FALSE(fs::exists(ck_dir + "/" + o.job.name + ".ck"));
    EXPECT_FALSE(fs::exists(ck_dir + "/" + o.job.name + ".ck.tmp"));
  }
  fs::remove_all(ck_dir);
}

TEST(SuiteRunner, StaleCheckpointFromEditedJobIsDiscarded) {
  auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "job a benchmark=cos width=8 rounds=1 partitions=8 patterns=4\n"
      "end\n");
  const auto ck_dir = fresh_dir("dalut_suite_stale_ck");
  util::ThreadPool serial(1);

  // Produce a checkpoint by cancelling mid-run.
  util::RunControl master;
  SuiteOptions options;
  options.pool = &serial;
  options.control = &master;
  options.checkpoint_dir = ck_dir;
  options.checkpoint_every = 1;
  options.progress_interval = std::chrono::nanoseconds{0};
  options.progress = [&](const std::string&, const util::RunProgress&) {
    master.request_cancel();
  };
  (void)run_suite(manifest, options);
  ASSERT_TRUE(fs::exists(ck_dir + "/a.ck"));

  // Editing the job makes the checkpoint's params digest mismatch; the
  // suite must discard it and run the edited job fresh, not fail.
  manifest.jobs[0].seed = 42;
  SuiteOptions resume_options;
  resume_options.pool = &serial;
  resume_options.checkpoint_dir = ck_dir;
  const auto report = run_suite(manifest, resume_options);
  EXPECT_TRUE(report.outcomes[0].error.empty())
      << report.outcomes[0].error;
  EXPECT_EQ(report.outcomes[0].status, util::RunStatus::kCompleted);
  EXPECT_FALSE(report.outcomes[0].resumed);
  fs::remove_all(ck_dir);
}

class SuiteRunnerFailpoint : public ::testing::Test {
 protected:
  void TearDown() override { dalut::util::fp::reset(); }
};

TEST_F(SuiteRunnerFailpoint, TransientJobFaultIsRetriedToCompletion) {
  // suite.job=EIO@1: the first job attempt in the suite dies with a
  // retryable fault; the bounded per-job retry must land it cleanly, with
  // no failed rows and a CSV identical to an uninjected run.
  const auto manifest = manifest_from_string(kManifest);
  util::ThreadPool serial(1);
  SuiteOptions options;
  options.pool = &serial;
  options.job_retry.initial_backoff = std::chrono::microseconds{1};
  const auto reference = run_suite(manifest, options);

  util::fp::configure("suite.job=EIO@1");
  const auto injected = run_suite(manifest, options);
  util::fp::reset();
  EXPECT_FALSE(injected.any_failed);
  for (const auto& o : injected.outcomes) {
    EXPECT_TRUE(o.error.empty()) << o.job.name << ": " << o.error;
    EXPECT_EQ(o.status, util::RunStatus::kCompleted) << o.job.name;
  }
  EXPECT_EQ(csv_of(injected), csv_of(reference));
}

TEST_F(SuiteRunnerFailpoint, PersistentJobFaultIsQuarantinedNotRetried) {
  // An always-firing fatal fault: with one worker the first job hits it on
  // every attempt, fails exactly once (no retry for EACCES), and the
  // remaining hits quarantine the sibling jobs too — but the suite itself
  // completes and reports every row.
  const auto manifest = manifest_from_string(kManifest);
  util::ThreadPool serial(1);
  SuiteOptions options;
  options.pool = &serial;
  util::fp::configure("suite.job=EACCES");
  const auto report = run_suite(manifest, options);
  const auto fired = util::fp::stats();
  util::fp::reset();
  EXPECT_TRUE(report.any_failed);
  EXPECT_EQ(report.status, util::RunStatus::kCompleted);
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.started) << o.job.name;
    EXPECT_NE(o.error.find("injected job fault"), std::string::npos)
        << o.job.name;
  }
  // Fatal errors burn exactly one attempt per job: 4 jobs -> 4 hits.
  for (const auto& s : fired) {
    if (s.site == "suite.job") {
      EXPECT_EQ(s.hits, 4u);
    }
  }
  EXPECT_NE(csv_of(report).find("failed"), std::string::npos);
}

TEST_F(SuiteRunnerFailpoint, RetryExhaustionQuarantinesTheJob) {
  // Retryable fault that outlives the attempt budget: job 1 burns
  // max_attempts tries, then lands in the failed row; siblings (which probe
  // the spent trigger afterwards) complete untouched.
  const auto manifest = manifest_from_string(kManifest);
  util::ThreadPool serial(1);
  SuiteOptions options;
  options.pool = &serial;
  options.job_retry.max_attempts = 2;
  options.job_retry.initial_backoff = std::chrono::microseconds{1};
  util::fp::configure("suite.job=EIO@2");  // fires attempts 1 and 2
  const auto report = run_suite(manifest, options);
  util::fp::reset();
  EXPECT_TRUE(report.any_failed);
  EXPECT_FALSE(report.outcomes[0].error.empty());
  for (std::size_t i = 1; i < report.outcomes.size(); ++i) {
    EXPECT_TRUE(report.outcomes[i].error.empty())
        << report.outcomes[i].job.name;
    EXPECT_EQ(report.outcomes[i].status, util::RunStatus::kCompleted);
  }
}

TEST_F(SuiteRunnerFailpoint, BrokenCacheStoresDegradeToRecompute) {
  // Every cache store fails (persistent): jobs still complete, rows still
  // serialize, and a re-run simply misses again instead of hitting.
  const auto manifest = manifest_from_string(kManifest);
  const auto cache_dir = fresh_dir("dalut_suite_cachefail");
  util::ThreadPool pool(2);
  SuiteOptions options;
  options.pool = &pool;
  options.cache_dir = cache_dir;
  util::fp::configure("cache.store.open=EACCES");
  const auto first = run_suite(manifest, options);
  const auto second = run_suite(manifest, options);
  util::fp::reset();
  EXPECT_FALSE(first.any_failed);
  EXPECT_FALSE(second.any_failed);
  EXPECT_EQ(second.cache_hits, 0u);  // nothing ever landed on disk
  EXPECT_EQ(second.cache_misses, 4u);
  EXPECT_EQ(csv_of(first), csv_of(second));
  fs::remove_all(cache_dir);
}

TEST(SuiteRunner, TrajectoryRecordsEveryReportAndThrottlesTheForward) {
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "default width=8 rounds=1 partitions=8 patterns=4\n"
      "job cos8 benchmark=cos algorithm=bssa seed=3\n"
      "job log8 benchmark=log2 algorithm=dalta seed=5\n"
      "end\n");
  util::ThreadPool pool(2);
  using Forwarded = std::map<std::string, std::vector<util::RunProgress>>;
  const auto run = [&](std::chrono::nanoseconds interval, Forwarded& seen) {
    std::mutex mutex;
    SuiteOptions options;
    options.pool = &pool;
    options.progress_interval = interval;
    options.progress = [&](const std::string& job,
                           const util::RunProgress& p) {
      std::lock_guard lock(mutex);
      seen[job].push_back(p);
    };
    return run_suite(manifest, options);
  };
  // Unthrottled, the forward sees every report the searches make.
  Forwarded all;
  (void)run(std::chrono::nanoseconds{0}, all);
  Forwarded throttled;
  const auto report = run(std::chrono::hours{1}, throttled);

  std::map<std::string, std::vector<util::telemetry::TrajectoryRow>> rows;
  for (std::size_t i = 0; i < report.trajectory.size(); ++i) {
    const auto& row = report.trajectory[i];
    rows[row.job].push_back(row);
    if (i > 0) {
      EXPECT_LE(report.trajectory[i - 1].elapsed_seconds, row.elapsed_seconds);
    }
  }
  ASSERT_EQ(rows.size(), 2u);
  for (const char* job : {"cos8", "log8"}) {
    SCOPED_TRACE(job);
    const auto& job_rows = rows[job];
    // Every report is recorded, whatever the forward throttle.
    ASSERT_EQ(job_rows.size(), all[job].size());
    ASSERT_GE(job_rows.size(), 3u);
    for (std::size_t i = 0; i < job_rows.size(); ++i) {
      EXPECT_EQ(job_rows[i].steps_done, all[job][i].steps_done);
    }
    // The forward passes only each job's first and final reports.
    const auto& forwarded = throttled[job];
    ASSERT_EQ(forwarded.size(), 2u);
    EXPECT_EQ(forwarded.front().steps_done, job_rows.front().steps_done);
    EXPECT_EQ(forwarded.back().steps_done, forwarded.back().steps_total);
    EXPECT_EQ(forwarded.back().steps_done, job_rows.back().steps_done);
  }
  std::ostringstream out;
  util::telemetry::write_trajectory_json(out, report.trajectory);
  EXPECT_NE(out.str().find("{\"job\": \"cos8\", \"elapsed_seconds\": "),
            std::string::npos);
  EXPECT_NE(out.str().find("{\"job\": \"log8\", \"elapsed_seconds\": "),
            std::string::npos);
}

TEST(SuiteRunner, RequiresAPool) {
  const auto manifest = manifest_from_string(kManifest);
  EXPECT_THROW(run_suite(manifest, SuiteOptions{}), std::invalid_argument);
}

TEST(SuiteRunner, JobsJsonCarriesProvenance) {
  const auto manifest = manifest_from_string(kManifest);
  const auto cache_dir = fresh_dir("dalut_suite_json");
  util::ThreadPool pool(2);
  SuiteOptions options;
  options.pool = &pool;
  options.cache_dir = cache_dir;
  (void)run_suite(manifest, options);
  const auto second = run_suite(manifest, options);
  std::ostringstream out;
  write_suite_jobs_json(out, second);
  const auto text = out.str();
  EXPECT_NE(text.find("\"from_cache\": true"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"cos8\""), std::string::npos);
  EXPECT_NE(text.find("\"key\": \"0x"), std::string::npos);
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace dalut::suite
