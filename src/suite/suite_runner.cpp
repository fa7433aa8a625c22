#include "suite/suite_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "baseline/round_in.hpp"
#include "baseline/round_out.hpp"
#include "core/bssa.hpp"
#include "core/checkpoint.hpp"
#include "core/dalta.hpp"
#include "core/evaluate.hpp"
#include "core/input_distribution.hpp"
#include "core/table_io.hpp"
#include "func/extended.hpp"
#include "func/registry.hpp"
#include "obs/event_log.hpp"
#include "obs/run_registry.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"
#include "util/run_control.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace_writer.hpp"

namespace dalut::suite {

namespace {

/// Write-only suite counters.
struct SuiteMetrics {
  util::telemetry::Counter jobs = util::telemetry::Counter::get("suite.jobs");
  util::telemetry::Counter completed =
      util::telemetry::Counter::get("suite.jobs_completed");
  util::telemetry::Counter failed =
      util::telemetry::Counter::get("suite.jobs_failed");
  util::telemetry::Counter resumed =
      util::telemetry::Counter::get("suite.jobs_resumed");
  util::telemetry::Counter retries =
      util::telemetry::Counter::get("suite.job_retries");
};

SuiteMetrics& suite_metrics() {
  static SuiteMetrics metrics;
  return metrics;
}

/// What every job of one run_suite call shares.
struct SuiteState {
  const SuiteOptions* options = nullptr;
  util::telemetry::ProgressRecorder* recorder = nullptr;
};

void run_rounding_job(const SuiteJob& job, const core::MultiOutputFunction& g,
                      const core::InputDistribution& dist,
                      util::ThreadPool* pool, JobOutcome& out) {
  const unsigned n = g.num_inputs();
  const unsigned m = g.num_outputs();
  std::vector<core::OutputWord> values;
  std::uint64_t stored = 0;
  if (job.algorithm == "round-in") {
    if (job.drop < 1 || job.drop >= n) {
      throw std::invalid_argument("round-in drop must be in [1, " +
                                  std::to_string(n - 1) + "]");
    }
    const baseline::RoundIn lut(g, job.drop);
    values = lut.values();
    stored = static_cast<std::uint64_t>(lut.table_entries()) * m;
  } else {
    if (job.drop >= m) {
      throw std::invalid_argument("round-out drop must be < " +
                                  std::to_string(m));
    }
    const baseline::RoundOut lut(g, job.drop);
    values = lut.values();
    stored = static_cast<std::uint64_t>(lut.table_entries()) * lut.stored_bits();
  }
  const auto report = core::error_report(g, values, dist, pool);
  out.record.med = report.med;
  out.record.mse = report.mse;
  out.record.error_rate = report.error_rate;
  out.record.max_ed = report.max_ed;
  out.record.stored_bits = stored;
  out.status = util::RunStatus::kCompleted;
}

void run_search_job(const SuiteJob& job, const core::MultiOutputFunction& g,
                    const core::InputDistribution& dist,
                    const SuiteOptions& options, util::RunControl& control,
                    JobOutcome& out) {
  SearchRun run;
  run.pool = options.pool;
  run.control = &control;
  std::string checkpoint_path;
  std::optional<core::SearchCheckpoint> resume_state;
  if (!options.checkpoint_dir.empty()) {
    checkpoint_path = options.checkpoint_dir + "/" + job.name + ".ck";
    run.checkpoint_every = options.checkpoint_every;
    run.sink = checkpoint_sink(checkpoint_path);
    // Generation-aware: a torn/corrupt latest checkpoint falls back to
    // "<path>.1"; with no loadable generation the job starts fresh.
    if (auto loaded = core::load_checkpoint_with_fallback(checkpoint_path)) {
      if (loaded->from_previous) {
        obs::EventLog::instance().emit("checkpoint.fallback");
      }
      resume_state = std::move(loaded->checkpoint);
      run.resume = &*resume_state;
    }
  }

  core::DecompositionResult result;
  try {
    result = run_search(job, g, dist, run);
  } catch (const std::invalid_argument&) {
    if (!run.resume) throw;
    // The checkpoint predates a manifest edit (digest mismatch). The edit
    // changed the job, so its old partial state is worthless: discard it
    // and start the job fresh.
    core::remove_checkpoint(checkpoint_path);
    run.resume = nullptr;
    result = run_search(job, g, dist, run);
  }

  out.status = result.status;
  out.resumed = result.resumed;
  out.record.med = result.report.med;
  out.record.mse = result.report.mse;
  out.record.error_rate = result.report.error_rate;
  out.record.max_ed = result.report.max_ed;
  out.record.runtime_seconds = result.runtime_seconds;
  out.record.partitions_evaluated = result.partitions_evaluated;
  out.record.stored_bits = result.realize(g.num_inputs()).stored_entries();
  out.record.settings = result.settings;
  if (result.status == util::RunStatus::kCompleted &&
      !checkpoint_path.empty()) {
    core::remove_checkpoint(checkpoint_path);
  }
}

void run_one_job(const SuiteJob& job, SuiteState& state, ResultCache* cache,
                 JobOutcome& out) {
  // Interned so the span arg outlives the manifest that owns the name.
  const util::telemetry::Span span(
      "suite.job", util::telemetry::trace_intern(job.name));
  const util::WallTimer timer;
  const auto g = load_job_function(job);
  if (const auto& dir = state.options->dump_tables_dir; !dir.empty()) {
    const bool binary =
        state.options->table_encoding == core::TableEncoding::kBinary;
    core::save_function_file(dir + "/" + job.name +
                                 (binary ? ".dalutb" : ".dalut"),
                             g, state.options->table_encoding);
  }
  out.key = result_key(job, g);
  out.record.algorithm = job.algorithm;
  out.record.num_inputs = g.num_inputs();
  out.record.num_outputs = g.num_outputs();

  if (cache != nullptr) {
    if (auto hit = cache->load(out.key)) {
      out.record = std::move(*hit);
      out.from_cache = true;
      out.status = util::RunStatus::kCompleted;
      return;
    }
  }

  const auto dist = core::InputDistribution::uniform(g.num_inputs());
  util::RunControl control;
  control.chain_to(state.options->control);
  state.recorder->attach(control, job.name);

  if (job.algorithm == "round-in" || job.algorithm == "round-out") {
    run_rounding_job(job, g, dist, state.options->pool, out);
  } else {
    run_search_job(job, g, dist, *state.options, control, out);
  }
  if (out.record.runtime_seconds == 0.0) {
    out.record.runtime_seconds = timer.seconds();
  }
  // Only completed results enter the cache: a best-so-far from a stopped
  // run must never masquerade as the converged answer on the next run.
  if (cache != nullptr && out.status == util::RunStatus::kCompleted) {
    cache->store(out.key, out.record);
  }
}

/// One job under full fault isolation: nothing a job throws escapes to
/// parallel_for (one poisoned job must never kill the fleet). Retryable
/// I/O errors get bounded retries per options.job_retry; everything else
/// fails the job immediately — a deterministic error (bad manifest field,
/// corrupt table) returns the same answer on every attempt, so retrying it
/// only burns time.
void run_job_isolated(const SuiteJob& job, SuiteState& state,
                      ResultCache* cache, JobOutcome& out) {
  // Lifecycle events emitted on this thread (including from lower layers:
  // checkpoint sinks, cache probes, failpoint fires) carry the job's name.
  const obs::EventLog::JobScope event_scope(job.name);
  auto& registry = obs::RunRegistry::instance();
  auto& events = obs::EventLog::instance();
  const util::RetryPolicy& policy = state.options->job_retry;
  for (unsigned attempt = 1;; ++attempt) {
    registry.job_started(job.name);
    events.emit("job.start", {}, attempt);
    try {
      if (const int error = util::fp::maybe_fail("suite.job")) {
        throw util::IoError("injected job fault", job.name, error,
                            "suite.job");
      }
      run_one_job(job, state, cache, out);
      suite_metrics().completed.add(
          out.status == util::RunStatus::kCompleted ? 1 : 0);
      suite_metrics().resumed.add(out.resumed ? 1 : 0);
      events.emit("job.finish", {}, attempt);
      registry.job_completed(job.name, out.record.med, out.from_cache,
                             out.resumed);
      return;
    } catch (const util::CancelledError&) {
      // The master control tripped while this job was inside a kernel: the
      // job is stopped, not broken. Report the master's verdict so the CSV
      // says cancelled/deadline, never failed.
      out.status = state.options->control != nullptr
                       ? state.options->control->status()
                       : util::RunStatus::kCancelled;
      events.emit("job.cancelled", {}, attempt);
      registry.job_cancelled(job.name);
      return;
    } catch (const util::IoError& error) {
      if (error.retryable() && attempt < policy.max_attempts) {
        suite_metrics().retries.add(1);
        events.emit("job.retry", error.site(), attempt);
        registry.job_retrying(job.name);
        std::this_thread::sleep_for(policy.backoff_before(attempt + 1));
        // Drop any partial outcome of the failed attempt before rerunning.
        out = JobOutcome{};
        out.job = job;
        out.started = true;
        continue;
      }
      out.error = error.what();
      suite_metrics().failed.add(1);
      events.emit("job.quarantine", error.site(), attempt);
      registry.job_failed(job.name, out.error);
      return;
    } catch (const std::exception& error) {
      out.error = error.what();
      suite_metrics().failed.add(1);
      events.emit("job.quarantine", {}, attempt);
      registry.job_failed(job.name, out.error);
      return;
    } catch (...) {
      out.error = "unknown non-standard exception";
      suite_metrics().failed.add(1);
      events.emit("job.quarantine", {}, attempt);
      registry.job_failed(job.name, out.error);
      return;
    }
  }
}

}  // namespace

core::MultiOutputFunction load_job_function(const SuiteJob& job,
                                            core::TableLoadMode load) {
  if (!job.table.empty()) {
    // Binary-mode open + container auto-detection (text or dalut-table-bin).
    return core::load_function_file(job.table, load);
  }
  if (auto spec = func::benchmark_by_name(job.benchmark, job.width)) {
    return core::MultiOutputFunction::from_eval(spec->num_inputs,
                                                spec->num_outputs, spec->eval);
  }
  for (const auto& spec : func::extended_suite(job.width)) {
    if (spec.name == job.benchmark) {
      return core::MultiOutputFunction::from_eval(
          spec.num_inputs, spec.num_outputs, spec.eval);
    }
  }
  throw std::runtime_error("unknown benchmark '" + job.benchmark + "'");
}

std::function<void(const core::SearchCheckpoint&)> checkpoint_sink(
    std::string path) {
  return [path = std::move(path)](const core::SearchCheckpoint& ck) {
    if (core::save_checkpoint_best_effort(path, ck)) {
      obs::EventLog::instance().emit("checkpoint.save");
      return;
    }
    obs::EventLog::instance().emit("checkpoint.save_failure");
    std::fprintf(stderr,
                 "warning: checkpoint save to '%s' failed, continuing "
                 "without this snapshot\n",
                 path.c_str());
  };
}

core::DecompositionResult run_search(const SuiteJob& job,
                                     const core::MultiOutputFunction& g,
                                     const core::InputDistribution& dist,
                                     const SearchRun& run) {
  const auto attach = [&run](auto params) {
    params.pool = run.pool;
    params.control = run.control;
    params.checkpoint_every = run.sink ? run.checkpoint_every : 0;
    params.checkpoint_sink = run.sink;
    params.resume = run.resume;
    return params;
  };
  const unsigned n = g.num_inputs();
  if (job.algorithm == "dalta") {
    return core::run_dalta(g, dist, attach(dalta_params(job, n)));
  }
  return core::run_bssa(g, dist, attach(bssa_params(job, n)));
}

SuiteReport run_suite(const Manifest& manifest, const SuiteOptions& options) {
  if (options.pool == nullptr) {
    throw std::invalid_argument("run_suite needs a thread pool");
  }
  std::unique_ptr<ResultCache> cache;
  if (!options.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(options.cache_dir,
                                          options.cache_max_entries);
  }
  if (!options.checkpoint_dir.empty()) {
    // Reuse the cache's directory bootstrap for the checkpoint directory.
    ResultCache bootstrap(options.checkpoint_dir);
  }
  if (!options.dump_tables_dir.empty()) {
    ResultCache bootstrap(options.dump_tables_dir);
  }

  // /runs sees every report; the human-facing line is throttled per job.
  util::telemetry::ProgressRecorder recorder(
      [](const std::string& job, const util::RunProgress& p) {
        obs::RunRegistry::instance().job_progress(job, p);
      },
      options.progress, options.progress_interval);
  SuiteState state{&options, &recorder};
  const util::WallTimer timer;

  SuiteReport report;
  report.outcomes.resize(manifest.jobs.size());
  suite_metrics().jobs.add(manifest.jobs.size());
  // Declare every job up front so /runs lists the whole suite (pending rows
  // included) from the first scrape, in manifest order.
  for (const auto& job : manifest.jobs) {
    obs::RunRegistry::instance().declare(job.name, job.algorithm);
  }

  // Jobs shard across the pool; each job body may itself call parallel_for
  // on the same pool (nested calls drain on the job's worker). Per-job
  // failures are retried, then quarantined, never thrown, so one bad job
  // cannot cancel its siblings; only the master control stops the suite
  // early. Outcome slots are indexed by manifest position, so CSV row
  // order stays deterministic whatever the completion order.
  options.pool->parallel_for(
      0, manifest.jobs.size(), [&](std::size_t i) {
        JobOutcome& out = report.outcomes[i];
        out.job = manifest.jobs[i];
        if (options.control != nullptr && options.control->stop_requested()) {
          out.status = options.control->status();
          const obs::EventLog::JobScope scope(manifest.jobs[i].name);
          obs::EventLog::instance().emit("job.skip");
          obs::RunRegistry::instance().job_skipped(manifest.jobs[i].name);
          return;  // never started; reported as skipped
        }
        out.started = true;
        run_job_isolated(manifest.jobs[i], state, cache.get(), out);
      });

  report.trajectory = recorder.rows();
  if (cache) {
    const auto stats = cache->stats();
    report.cache_hits = stats.hits;
    report.cache_misses = stats.misses;
  }
  for (const auto& out : report.outcomes) {
    if (!out.error.empty()) report.any_failed = true;
  }
  report.status = options.control != nullptr ? options.control->status()
                                             : util::RunStatus::kCompleted;
  report.runtime_seconds = timer.seconds();
  return report;
}

// ---- Reports -------------------------------------------------------------

namespace {

/// Exact round-trip formatting for the deterministic CSV; doubles from two
/// bit-identical runs must print byte-identically.
std::string csv_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += "\"";
  return out;
}

const char* status_cell(const JobOutcome& out) {
  if (!out.error.empty()) return "failed";
  if (!out.started) return "skipped";
  return util::to_string(out.status);
}

}  // namespace

void write_suite_csv(std::ostream& out, const SuiteReport& report) {
  out << "job,benchmark,width,inputs,outputs,algorithm,arch,seed,status,"
         "med,mse,error_rate,max_ed,stored_bits,partitions,budget,"
         "within_budget\n";
  for (const auto& o : report.outcomes) {
    const SuiteJob& job = o.job;
    const bool has_result = o.started && o.error.empty();
    const bool search = job.algorithm == "bssa" || job.algorithm == "dalta";
    out << csv_escape(job.name) << ','
        << csv_escape(job.table.empty() ? job.benchmark : job.table) << ','
        << job.width << ',';
    if (has_result) {
      out << o.record.num_inputs << ',' << o.record.num_outputs << ',';
    } else {
      out << ",,";
    }
    out << job.algorithm << ','
        << (job.algorithm == "bssa" ? job.arch
                                    : (job.algorithm == "dalta" ? "dalta"
                                                                : "-"))
        << ',' << job.seed << ',' << status_cell(o) << ',';
    if (has_result) {
      out << csv_double(o.record.med) << ',' << csv_double(o.record.mse)
          << ',' << csv_double(o.record.error_rate) << ','
          << csv_double(o.record.max_ed) << ',' << o.record.stored_bits << ','
          << (search ? std::to_string(o.record.partitions_evaluated) : "-");
    } else {
      out << ",,,,,";
    }
    out << ',';
    if (job.budget > 0.0) {
      out << csv_double(job.budget) << ','
          << (has_result ? (o.record.med <= job.budget ? "yes" : "no") : "");
    } else {
      out << "-,-";
    }
    out << '\n';
  }
}

void write_suite_jobs_json(std::ostream& out, const SuiteReport& report,
                           int indent) {
  using util::telemetry::json_escape;
  using util::telemetry::json_number;
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << pad << "[";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& o = report.outcomes[i];
    char key_buf[24];
    std::snprintf(key_buf, sizeof key_buf, "0x%016llx",
                  static_cast<unsigned long long>(o.key));
    out << (i == 0 ? "\n" : ",\n") << pad << "  {\"name\": \""
        << json_escape(o.job.name) << "\", \"algorithm\": \""
        << json_escape(o.job.algorithm) << "\", \"key\": \"" << key_buf
        << "\", \"status\": \"" << status_cell(o) << "\", \"from_cache\": "
        << (o.from_cache ? "true" : "false")
        << ", \"resumed\": " << (o.resumed ? "true" : "false")
        << ", \"med\": " << json_number(o.record.med)
        << ", \"stored_bits\": " << o.record.stored_bits
        << ", \"partitions_evaluated\": " << o.record.partitions_evaluated
        << ", \"runtime_seconds\": " << json_number(o.record.runtime_seconds);
    if (!o.error.empty()) {
      out << ", \"error\": \"" << json_escape(o.error) << "\"";
    }
    out << "}";
  }
  out << "\n" << pad << "]";
}

}  // namespace dalut::suite
