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
// Exit codes: 0 success, 1 fatal error, 2 usage error, 3 manifest/input
// parse error, 4 deadline expired, 5 cancelled by signal (valid partial
// report emitted for 4 and 5), 6 I/O failure (failing path + errno on
// stderr), 7 suite completed but at least one job was quarantined as
// failed (full report emitted; the failed rows carry the errors).
//
// Examples:
//   dalut_suite --manifest suite.manifest -j8 --csv-out results.csv
//   dalut_suite --manifest suite.manifest --cache-dir .dalut-cache
//               --checkpoint-dir .dalut-ck --deadline 10m
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/exporter.hpp"
#include "obs/run_registry.hpp"
#include "suite/manifest.hpp"
#include "suite/suite_runner.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"
#include "util/run_control.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/trace_writer.hpp"

namespace {

using namespace dalut;

constexpr int kExitOk = 0;
constexpr int kExitFatal = 1;
constexpr int kExitUsage = 2;  // also produced by CliParser directly
constexpr int kExitParse = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitCancelled = 5;
constexpr int kExitIo = 6;
constexpr int kExitJobsFailed = 7;

util::RunControl g_control;

extern "C" void handle_stop_signal(int) { g_control.request_cancel(); }

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
  cli.add_option("metrics-out", "",
                 "write the dalut-metrics-v1 JSON artifact (suite header, "
                 "per-job provenance, metrics snapshot, trajectory) here");
  cli.add_option("trace-out", "",
                 "write a Chrome trace-event JSON of the run here (one "
                 "suite.job span per job attempt, tagged with the job name), "
                 "loadable in Perfetto or chrome://tracing");
  cli.add_option("listen", "",
                 "serve GET /metrics (Prometheus), /healthz, and /runs over "
                 "HTTP while the suite is live; host:port, :port, or port "
                 "(host defaults to 127.0.0.1, port 0 binds an ephemeral "
                 "port; the bound endpoint is printed to stderr)");
  cli.add_option("events-out", "",
                 "write the dalut-events v1 structured JSONL lifecycle log "
                 "here (job/checkpoint/cache/failpoint events; bounded "
                 "queue, never blocks the workers)");
  cli.add_option("deadline", "",
                 "wall-clock budget for the whole suite ('30s', '5m', "
                 "'1h'); unfinished jobs checkpoint and exit code is 4");
  cli.add_option("dump-tables", "",
                 "export every job's resolved input truth table into this "
                 "directory as <job>.dalut (text) or <job>.dalutb "
                 "(--binary-tables)");
  cli.add_flag("binary-tables",
               "write exported truth tables as the bit-packed "
               "dalut-table-bin v1 container instead of hex text");
  cli.add_flag("progress",
               "print throttled per-job progress lines to stderr");
  cli.add_option("failpoints", "",
                 "arm deterministic fault injection: "
                 "site=error[@count|@every-k|@p=x:seed],... (also read "
                 "from DALUT_FAILPOINTS; see docs/robustness.md)");
  cli.add_flag("list-failpoints",
               "print every registered fault-injection site and exit");

  const auto args = expand_short_jobs(argc, argv);
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (const auto& a : args) argv2.push_back(const_cast<char*>(a.c_str()));
  if (!cli.parse(static_cast<int>(argv2.size()), argv2.data())) {
    return kExitOk;
  }

  if (cli.flag("list-failpoints")) {
    for (const auto& site : util::fp::all_sites()) {
      std::printf("%s\n", site.c_str());
    }
    return kExitOk;
  }
  try {
    util::fp::configure_from_env();
    if (const auto spec = cli.str("failpoints"); !spec.empty()) {
      util::fp::configure(spec);
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: --failpoints/DALUT_FAILPOINTS: %s\n",
                 error.what());
    return kExitUsage;
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

  util::RunControl& control = g_control;
  if (const auto deadline = cli.str("deadline"); !deadline.empty()) {
    control.set_deadline_after(util::parse_duration(deadline, "--deadline"));
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const auto metrics_out = cli.str("metrics-out");
  const auto trace_out = cli.str("trace-out");
  const auto listen_spec = cli.str("listen");
  const auto events_out = cli.str("events-out");
  if (!metrics_out.empty()) util::telemetry::set_metrics_enabled(true);
  if (!trace_out.empty()) util::telemetry::set_tracing_enabled(true);

  // The live observability plane. Both surfaces are write-only for the
  // searches (docs/observability.md): the suite CSV and MEDs are
  // bit-identical with them on or off, at any worker count.
  obs::EventLog& events = obs::EventLog::instance();
  if (!events_out.empty()) {
    util::telemetry::set_metrics_enabled(true);
    try {
      events.open(events_out);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "io error: %s\n", error.what());
      return kExitIo;
    }
  }
  obs::MetricsExporter exporter;  // stops (if started) when run() returns
  if (!listen_spec.empty()) {
    util::telemetry::set_metrics_enabled(true);
    obs::RunRegistry::instance().set_enabled(true);
    try {
      const auto [host, port] = obs::parse_listen_spec(listen_spec);
      obs::ExporterOptions exporter_options;
      exporter_options.host = host;
      exporter_options.port = port;
      exporter_options.control = &control;
      exporter.start(exporter_options);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return kExitUsage;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "io error: %s\n", error.what());
      return kExitIo;
    }
    // Grep-able and flushed before the run starts, so a harness scraping an
    // ephemeral port (--listen 127.0.0.1:0) can find it immediately.
    std::fprintf(stderr, "observability: listening on http://%s (/metrics, "
                 "/healthz, /runs)\n",
                 exporter.endpoint().c_str());
    std::fflush(stderr);
  }

  util::ThreadPool pool(util::resolve_worker_count(threads));

  suite::SuiteOptions options;
  options.pool = &pool;
  options.control = &control;
  options.cache_dir = cli.str("cache-dir");
  options.cache_max_entries = static_cast<std::size_t>(cache_max);
  options.checkpoint_dir = cli.str("checkpoint-dir");
  options.checkpoint_every = static_cast<unsigned>(checkpoint_every);
  options.dump_tables_dir = cli.str("dump-tables");
  options.table_encoding = cli.flag("binary-tables")
                               ? core::TableEncoding::kBinary
                               : core::TableEncoding::kText;
  if (cli.flag("progress")) {
    options.progress = [](const std::string& job,
                          const util::RunProgress& p) {
      std::fprintf(stderr,
                   "progress: [%s] %s round %u bit %u (step %zu/%zu, best "
                   "%.4f)\n",
                   job.c_str(), p.stage, p.round, p.bit, p.steps_done,
                   p.steps_total, p.best_error);
    };
  }

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
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "io error: cannot write CSV to '%s': %s\n",
                   path.c_str(), std::strerror(errno));
      return kExitIo;
    }
    suite::write_suite_csv(out, report);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "io error: cannot write CSV to '%s': %s\n",
                   path.c_str(), std::strerror(errno));
      return kExitIo;
    }
  } else {
    suite::write_suite_csv(std::cout, report);
  }

  // Close the event log before the metrics artifact so its written/dropped
  // counters are final in the snapshot below.
  events.close();

  // --- Metrics artifact. ---
  if (!metrics_out.empty()) {
    const bool written = util::write_text_artifact(
        metrics_out, "metrics", [&](std::ostream& out) {
          out << "{\n  \"schema\": \"dalut-metrics-v1\",\n  \"suite\": {\n"
              << "    \"manifest\": \""
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
          out << ",\n  \"metrics\":\n";
          util::telemetry::write_metrics_json(
              out, util::telemetry::snapshot_metrics(), 2);
          out << ",\n  \"trajectory\":\n";
          suite::write_suite_trajectory_json(out, report, 2);
          out << "\n}\n";
        });
    if (!written) return kExitIo;
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }

  // --- Trace artifact (one suite.job span per attempt, arg = job name). ---
  if (!trace_out.empty()) {
    if (!util::write_text_artifact(trace_out, "trace",
                                   util::telemetry::write_chrome_trace)) {
      return kExitIo;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_out.c_str());
  }

  if (util::fp::active()) {
    std::fprintf(stderr, "failpoints:\n%s", util::fp::dump().c_str());
  }

  switch (report.status) {
    case util::RunStatus::kDeadlineExpired:
      return kExitDeadline;
    case util::RunStatus::kCancelled:
      return kExitCancelled;
    case util::RunStatus::kCompleted:
      break;
  }
  // Quarantined jobs exit distinctly *after* the full report is out: the
  // suite finished, the CSV names the failures, and automation can tell
  // "some jobs failed" (7) from "the suite itself fell over" (1/6).
  if (report.any_failed) return kExitJobsFailed;
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "parse error: %s\n", error.what());
    return kExitParse;
  } catch (const util::IoError& error) {
    std::fprintf(stderr, "io error: %s (errno %d%s%s)\n", error.what(),
                 error.error_code(),
                 error.site().empty() ? "" : ", site ",
                 error.site().c_str());
    return kExitIo;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fatal: %s\n", error.what());
    return kExitFatal;
  }
}
