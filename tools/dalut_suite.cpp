// dalut_suite - sharded suite runner with a persistent result cache.
//
// Executes every job of a manifest (see docs/robustness.md, "Suite runs")
// through one shared thread pool: jobs shard across workers, and each
// job's search internally reuses the same pool, so small suites on big
// machines stay fully utilized. With --cache-dir, completed jobs persist
// to an on-disk result cache keyed by the job parameters plus the truth
// table content; re-running a manifest serves unchanged jobs from disk.
// With --checkpoint-dir, unfinished jobs snapshot crash-safely and a
// re-run resumes only them, bit-identically to an uninterrupted run.
//
// The CSV report is deterministic: byte-identical across worker counts,
// across kill/resume cycles, and across cache-hit re-runs.
//
// Fault isolation: a job failing with a transient I/O error is retried,
// then quarantined as a `failed` CSV row with its error message; sibling
// jobs always run to completion (docs/robustness.md, "Fault injection").
//
// Exit codes (docs/robustness.md, tool_runtime.hpp): 4 and 5 still emit a
// valid partial report, and 7 means the suite completed but at least one
// job was quarantined as failed (full report emitted; the failed rows carry
// the errors).
//
// Examples:
//   dalut_suite --manifest suite.manifest -j8 --csv-out results.csv
//   dalut_suite --manifest suite.manifest --cache-dir .dalut-cache
//               --checkpoint-dir .dalut-ck --deadline 10m
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "suite/manifest.hpp"
#include "suite/suite_runner.hpp"
#include "tool_runtime.hpp"
#include "util/cli.hpp"
#include "util/run_control.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dalut;
using namespace dalut::tools;

/// Expands `-j8` / `-j 8` into `--threads 8` so the make-style spelling
/// works alongside the repo's long-only CliParser.
std::vector<std::string> expand_short_jobs(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      args.emplace_back("--threads");
      args.emplace_back(arg + 2);
    } else if (std::strcmp(arg, "-j") == 0 && i + 1 < argc) {
      args.emplace_back("--threads");
      args.emplace_back(argv[++i]);
    } else {
      args.emplace_back(arg);
    }
  }
  return args;
}

int run(int argc, char** argv) {
  util::CliParser cli(
      "dalut_suite - run a manifest of optimization jobs on one shared "
      "thread pool, with a persistent result cache and crash-safe "
      "per-job checkpoints");
  cli.add_option("manifest", "", "dalut-manifest v1 file (required)");
  cli.add_option("threads", "0",
                 "worker threads shared by all jobs (0 = hardware; -jN is "
                 "accepted as shorthand)");
  cli.add_option("cache-dir", "",
                 "persistent result-cache directory; completed jobs are "
                 "served from it on re-runs (empty = off)");
  cli.add_option("cache-max", "0",
                 "result-cache entry cap, oldest evicted first (0 = "
                 "unbounded)");
  cli.add_option("checkpoint-dir", "",
                 "per-job crash-safe checkpoint directory; a re-run "
                 "resumes unfinished jobs from it (empty = off)");
  cli.add_option("checkpoint-every", "2",
                 "bit-steps between job checkpoints (with "
                 "--checkpoint-dir)");
  cli.add_option("csv-out", "",
                 "write the deterministic aggregate CSV here (empty = "
                 "stdout)");
  cli.add_option("dump-tables", "",
                 "export every job's resolved input truth table into this "
                 "directory as <job>.dalut (text) or <job>.dalutb "
                 "(--binary-tables)");
  cli.add_flag("binary-tables",
               "write exported truth tables as the bit-packed "
               "dalut-table-bin v1 container instead of hex text");
  ToolRuntime runtime(cli, stderr);

  const auto args = expand_short_jobs(argc, argv);
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (const auto& a : args) argv2.push_back(const_cast<char*>(a.c_str()));
  if (const auto code =
          runtime.parse(static_cast<int>(argv2.size()), argv2.data())) {
    return *code;
  }

  // Checked up front, in the ranges dalut_opt accepts, so that a negative
  // or oversized count is a usage error, not "hardware", a silent clamp, a
  // wrap to 2^32 - 1 that never checkpoints (`--checkpoint-every -1`), or
  // one that silently unbounds the result cache (`--cache-max -1`).
  std::int64_t threads = 0;
  std::int64_t checkpoint_every = 0;
  std::int64_t cache_max = 0;
  try {
    threads = cli.integer_in("threads", 0,
                             static_cast<std::int64_t>(util::kMaxWorkerCount));
    checkpoint_every = cli.integer_in("checkpoint-every", 0,
                                      std::numeric_limits<unsigned>::max());
    cache_max = cli.integer_in("cache-max", 0,
                               std::numeric_limits<std::int64_t>::max());
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitUsage;
  }

  const auto manifest_path = cli.str("manifest");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "error: --manifest <file> is required\n");
    return kExitFatal;
  }
  const auto manifest = suite::load_manifest(manifest_path);

  // The CSV and MEDs are bit-identical with the observability plane on or
  // off, at any worker count (docs/observability.md).
  if (const auto code = runtime.start()) return *code;
  util::ThreadPool pool(util::resolve_worker_count(threads));

  suite::SuiteOptions options;
  options.pool = &pool;
  options.control = &runtime.control();
  options.cache_dir = cli.str("cache-dir");
  options.cache_max_entries = static_cast<std::size_t>(cache_max);
  options.checkpoint_dir = cli.str("checkpoint-dir");
  options.checkpoint_every = static_cast<unsigned>(checkpoint_every);
  options.dump_tables_dir = cli.str("dump-tables");
  options.table_encoding = cli.flag("binary-tables")
                               ? core::TableEncoding::kBinary
                               : core::TableEncoding::kText;
  options.progress = runtime.progress_line();

  obs::EventLog& events = obs::EventLog::instance();
  events.emit("suite.start", {}, manifest.jobs.size());
  const auto report = suite::run_suite(manifest, options);
  events.emit("suite.finish", {},
              static_cast<std::uint64_t>(report.any_failed));

  // --- Human summary (stderr; the CSV owns stdout when --csv-out=""). ---
  for (const auto& o : report.outcomes) {
    if (!o.error.empty()) {
      std::fprintf(stderr, "job %-24s FAILED: %s\n", o.job.name.c_str(),
                   o.error.c_str());
    } else if (!o.started) {
      std::fprintf(stderr, "job %-24s skipped (%s)\n", o.job.name.c_str(),
                   util::to_string(o.status));
    } else {
      std::fprintf(stderr,
                   "job %-24s %s  med %.6g  stored %llu bits%s%s\n",
                   o.job.name.c_str(), util::to_string(o.status),
                   o.record.med,
                   static_cast<unsigned long long>(o.record.stored_bits),
                   o.from_cache ? "  [cache]" : "",
                   o.resumed ? "  [resumed]" : "");
    }
  }
  std::fprintf(stderr,
               "result cache: %llu hits, %llu misses\nsuite %s in %.2f s\n",
               static_cast<unsigned long long>(report.cache_hits),
               static_cast<unsigned long long>(report.cache_misses),
               util::to_string(report.status), report.runtime_seconds);

  // --- Deterministic CSV. ---
  if (const auto path = cli.str("csv-out"); !path.empty()) {
    if (!util::write_text_artifact(path, "CSV", [&](std::ostream& out) {
          suite::write_suite_csv(out, report);
        })) {
      return kExitIo;
    }
  } else {
    suite::write_suite_csv(std::cout, report);
  }

  const int code = runtime.finish(
      report.status, report.trajectory, [&](std::ostream& out) {
        out << "  \"suite\": {\n    \"manifest\": \""
            << util::telemetry::json_escape(manifest_path)
            << "\",\n    \"jobs\": " << manifest.jobs.size()
            << ",\n    \"threads\": " << pool.worker_count()
            << ",\n    \"status\": \"" << util::to_string(report.status)
            << "\",\n    \"cache_hits\": " << report.cache_hits
            << ",\n    \"cache_misses\": " << report.cache_misses
            << ",\n    \"runtime_seconds\": "
            << util::telemetry::json_number(report.runtime_seconds)
            << "\n  },\n  \"jobs\":\n";
        suite::write_suite_jobs_json(out, report, 2);
        out << ",\n";
      });
  if (code != kExitOk) return code;
  // Quarantined jobs exit distinctly *after* the full report is out: the
  // suite finished, the CSV names the failures, and automation can tell
  // "some jobs failed" (7) from "the suite itself fell over" (1/6).
  if (report.any_failed) return kExitJobsFailed;
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) { return run_main(run, argc, argv); }
