#include "suite/manifest.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace dalut::suite {
namespace {

constexpr const char* kSmall =
    "dalut-manifest v1\n"
    "default width=8 rounds=2 partitions=16\n"
    "job cos8 benchmark=cos algorithm=bssa seed=3\n"
    "job rin benchmark=cos algorithm=round-in drop=2\n"
    "end\n";

TEST(Manifest, ParsesJobsWithDefaults) {
  const auto manifest = manifest_from_string(kSmall);
  ASSERT_EQ(manifest.jobs.size(), 2u);
  const auto& cos8 = manifest.jobs[0];
  EXPECT_EQ(cos8.name, "cos8");
  EXPECT_EQ(cos8.benchmark, "cos");
  EXPECT_EQ(cos8.algorithm, "bssa");
  EXPECT_EQ(cos8.width, 8u);
  EXPECT_EQ(cos8.rounds, 2u);      // from the default line
  EXPECT_EQ(cos8.partitions, 16u);
  EXPECT_EQ(cos8.seed, 3u);
  EXPECT_EQ(cos8.arch, "dalta");   // untouched built-in default
  const auto& rin = manifest.jobs[1];
  EXPECT_EQ(rin.algorithm, "round-in");
  EXPECT_EQ(rin.drop, 2u);
  EXPECT_EQ(rin.width, 8u);
}

TEST(Manifest, LaterDefaultsApplyOnlyToLaterJobs) {
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "job a benchmark=cos width=8\n"
      "default seed=9\n"
      "job b benchmark=cos width=8\n"
      "end\n");
  EXPECT_EQ(manifest.jobs[0].seed, 1u);
  EXPECT_EQ(manifest.jobs[1].seed, 9u);
}

TEST(Manifest, JobFieldsOverrideDefaults) {
  const auto manifest = manifest_from_string(
      "dalut-manifest v1\n"
      "default rounds=5\n"
      "job a benchmark=cos width=8 rounds=1\n"
      "end\n");
  EXPECT_EQ(manifest.jobs[0].rounds, 1u);
}

TEST(Manifest, RejectsBadMagic) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v2\nend\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsMissingEnd) {
  EXPECT_THROW(
      manifest_from_string("dalut-manifest v1\njob a benchmark=cos\n"),
      std::invalid_argument);
}

TEST(Manifest, RejectsEmptyManifest) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\nend\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsDuplicateJobNames) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a benchmark=cos\n"
                                    "job a benchmark=log2\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsBadJobName) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job bad/name benchmark=cos\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job " +
                                    std::string(65, 'x') +
                                    " benchmark=cos\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsUnknownKeysAndValues) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a benchmark=cos wat=1\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a algorithm=quantum\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a arch=wide\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a metric=vibes\n"
                                    "end\n"),
               std::invalid_argument);
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a width=99\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsNonKeyValueToken) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a benchmark cos\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, RejectsDaltaWithNonDaltaArch) {
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a algorithm=dalta arch=bto-normal\n"
                                    "end\n"),
               std::invalid_argument);
}

// Each search range is checked when the job line is read, before any run.
// `algorithm=dalta partitions=0` used to crash the run, BS-SA `beams=0` ran
// over no partitions and "completed", `delta=nan` was accepted, and
// `rounds=1` with an ND arch failed only as a job failure at run time.
TEST(Manifest, RejectsOutOfRangeSearchesAtParseTime) {
  const char* bad[] = {
      "algorithm=dalta partitions=0", "beams=0",
      "delta=nan",                    "arch=bto-normal-nd rounds=1",
      "arch=bto-normal-nd nd-candidates=0",
      "width=8 bound=8",              "algorithm=dalta arch=bto-normal",
  };
  for (const char* fields : bad) {
    try {
      manifest_from_string(std::string("dalut-manifest v1\n"
                                       "job a benchmark=cos width=8 ") +
                           fields + "\nend\n");
      FAIL() << fields << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("line 2: ", 0), 0u)
          << error.what();
    }
  }
  // A truth-table job's width is unknown at parse time: its bound is
  // checked by the run, every other range here.
  EXPECT_NO_THROW(manifest_from_string("dalut-manifest v1\n"
                                       "job a table=f.dalut bound=20\n"
                                       "end\n"));
  EXPECT_THROW(manifest_from_string("dalut-manifest v1\n"
                                    "job a table=f.dalut beams=0\n"
                                    "end\n"),
               std::invalid_argument);
}

TEST(Manifest, ParamsBuildersResolveTheJob) {
  EXPECT_EQ(default_bound(16), 9u);
  EXPECT_EQ(default_bound(12), 7u);
  EXPECT_EQ(default_bound(3), 2u);
  EXPECT_EQ(default_bound(2), 1u);

  SuiteJob job;
  job.arch = "bto-normal-nd";
  job.bound = 5;
  job.rounds = 4;
  job.partitions = 40;
  job.patterns = 7;
  job.beams = 2;
  job.chains = 6;
  job.nd_candidates = 3;
  job.metric = "mse";
  job.delta = 0.02;
  job.delta_prime = 0.2;
  job.seed = 11;
  const auto bssa = bssa_params(job, 10);
  EXPECT_EQ(bssa.bound_size, 5u);
  EXPECT_EQ(bssa.rounds, 4u);
  EXPECT_EQ(bssa.sa.partition_limit, 40u);
  EXPECT_EQ(bssa.sa.init_patterns, 7u);
  EXPECT_EQ(bssa.beam_width, 2u);
  EXPECT_EQ(bssa.sa.chains, 6u);
  EXPECT_EQ(bssa.nd_candidates, 3u);
  EXPECT_TRUE(bssa.modes.allow_bto && bssa.modes.allow_nd);
  EXPECT_EQ(bssa.modes.delta, 0.02);
  EXPECT_EQ(bssa.modes.delta_prime, 0.2);
  EXPECT_EQ(bssa.metric, core::CostMetric::kMse);
  EXPECT_EQ(bssa.seed, 11u);

  // DALTA targets only arch=dalta; the error names the key.
  try {
    dalta_params(job, 10);
    FAIL() << "DALTA accepted arch=bto-normal-nd";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("arch", 0), 0u) << error.what();
  }
  job.arch = "dalta";
  job.bound = 0;
  const auto dalta = dalta_params(job, 10);
  EXPECT_EQ(dalta.bound_size, default_bound(10));
  EXPECT_EQ(dalta.partition_limit, 40u);
  EXPECT_EQ(dalta.init_patterns, 7u);
  EXPECT_FALSE(bssa_params(job, 10).modes.allow_bto);
}

TEST(Manifest, ErrorsAreLineAnchored) {
  try {
    manifest_from_string("dalut-manifest v1\n"
                         "job ok benchmark=cos\n"
                         "job bad width=banana\n"
                         "end\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

TEST(Manifest, RejectsWidthsWithoutAProperBoundSet) {
  // Width 0 used to "complete" with a 0-input function and width 1 to fail
  // only at run time; both are rejected at parse time now.
  for (const char* width : {"0", "1"}) {
    try {
      manifest_from_string(std::string("dalut-manifest v1\n"
                                       "job a benchmark=cos width=") +
                           width + "\nend\n");
      FAIL() << "width=" << width << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("line 2: width"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_EQ(manifest_from_string("dalut-manifest v1\n"
                                 "job a benchmark=cos width=2\n"
                                 "end\n")
                .jobs[0]
                .width,
            2u);
}

TEST(Manifest, SetJobFieldErrorsBeginWithTheKey) {
  SuiteJob job;
  set_job_field(job, "metric", "mse");
  set_job_field(job, "delta-prime", "0.25");
  EXPECT_EQ(job.metric, "mse");
  EXPECT_EQ(job.delta_prime, 0.25);
  const std::pair<const char*, const char*> bad[] = {
      {"metric", "bogus"}, {"delta", "abc"}, {"width", "1"},
      {"patterns", "-1"},  {"arch", "wide"}, {"seed", "x"},
      {"rounds", "0"}};
  for (const auto& [key, value] : bad) {
    try {
      set_job_field(job, key, value);
      FAIL() << key << "=" << value << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(key, 0), 0u) << error.what();
    }
  }
}

TEST(Manifest, LoadMissingFileThrows) {
  EXPECT_THROW(load_manifest("/nonexistent-dir-zz/suite.manifest"),
               std::runtime_error);
}

}  // namespace
}  // namespace dalut::suite
