// dalut_opt - command-line front end for the whole flow:
//
//   optimize a function (built-in benchmark or truth-table file) with
//   BS-SA or DALTA, select an architecture, and emit any combination of a
//   configuration file, a synthesis-style cost report, Verilog, and a
//   self-checking testbench.
//
// Robustness contract (docs/robustness.md):
//   --deadline    bounds the run; on expiry the search stops cooperatively
//                 and the best-so-far result is realized and emitted.
//   SIGINT/SIGTERM request the same graceful stop (SIGKILL, of course,
//                 cannot be intercepted; use --checkpoint to survive it).
//   --checkpoint  cuts an atomic, crash-safe snapshot of the search every
//                 --checkpoint-every bit-steps; --resume continues from it
//                 bit-identically to an uninterrupted run. A run that
//                 completes deletes its checkpoint.
//
// Exit codes: 0 success, 1 fatal error, 2 usage error, 3 input parse
// error, 4 deadline expired (valid best-so-far emitted), 5 cancelled by
// signal (valid best-so-far emitted), 6 I/O error (an input, output, or
// checkpoint file could not be read or written; the message names the
// failing path and errno).
//
// Fault injection (docs/robustness.md): --failpoints or DALUT_FAILPOINTS
// arms deterministic I/O faults at named sites ("site=error[@trigger]");
// --list-failpoints prints every site. Unset, the probes are disarmed
// no-ops.
//
// Examples:
//   dalut_opt --benchmark cos --width 12 --arch bto-normal-nd --report
//   dalut_opt --table f.dalut --algorithm dalta --config-out f.cfg
//   dalut_opt --benchmark multiplier --verilog-out mult.v
//             --testbench-out mult_tb.v --tech my45nm.tech
//   dalut_opt --benchmark log2 --deadline 30s --checkpoint ck.dalut
//   dalut_opt --benchmark log2 --checkpoint ck.dalut --resume
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/bound_size.hpp"
#include "core/bssa.hpp"
#include "core/checkpoint.hpp"
#include "core/dalta.hpp"
#include "core/serialize.hpp"
#include "core/table_io.hpp"
#include "func/extended.hpp"
#include "func/registry.hpp"
#include "hw/report.hpp"
#include "hw/simulator.hpp"
#include "hw/tech_io.hpp"
#include "hw/verilog.hpp"
#include "obs/event_log.hpp"
#include "obs/exporter.hpp"
#include "obs/run_registry.hpp"
#include "suite/manifest.hpp"
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
// CliParser also produces 2 directly (std::exit in parse()) for unknown
// options; kExitUsage covers malformed values parsed after it returns.
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitCancelled = 5;
constexpr int kExitIo = 6;

// The RunControl outlives main()'s locals so the signal handler can reach
// it; request_cancel() is a relaxed atomic store, hence async-signal-safe.
util::RunControl g_control;

extern "C" void handle_stop_signal(int) { g_control.request_cancel(); }

std::optional<core::MultiOutputFunction> load_function(
    const util::CliParser& cli, unsigned width) {
  const auto table_path = cli.str("table");
  if (!table_path.empty()) {
    const auto load_str = cli.str("table-load");
    core::TableLoadMode mode = core::TableLoadMode::kAuto;
    if (load_str == "copy") {
      mode = core::TableLoadMode::kCopy;
    } else if (load_str == "map") {
      mode = core::TableLoadMode::kMap;
    } else if (load_str != "auto") {
      std::fprintf(stderr, "error: --table-load must be auto, copy, or map\n");
      return std::nullopt;
    }
    // Binary-mode open + container auto-detection (hex text or the
    // bit-packed dalut-table-bin container). Large binary tables are
    // served from a file mapping instead of heap copies under auto/map.
    return core::load_function_file(table_path, mode);
  }
  const auto name = cli.str("benchmark");
  if (auto spec = func::benchmark_by_name(name, width)) {
    return core::MultiOutputFunction::from_eval(spec->num_inputs,
                                                spec->num_outputs, spec->eval);
  }
  for (const auto& spec : func::extended_suite(width)) {
    if (spec.name == name) {
      return core::MultiOutputFunction::from_eval(
          spec.num_inputs, spec.num_outputs, spec.eval);
    }
  }
  std::fprintf(stderr, "error: unknown benchmark '%s'\n", name.c_str());
  return std::nullopt;
}

/// The search-size flags, range-checked up front.
struct SearchKnobs {
  unsigned width = 0;  ///< of the built-in benchmarks
  unsigned bound = 0;
  unsigned rounds = 0;
  unsigned partitions = 0;
  unsigned patterns = 0;
  unsigned beams = 0;
  unsigned chains = 0;
  unsigned threads = 0;  ///< 0 = hardware
  unsigned checkpoint_every = 0;  ///< 0 = off
  std::size_t tb_vectors = 0;     ///< --testbench-out vector count
};

/// Most --tb-vectors a testbench takes: about 40 MiB of Verilog.
constexpr std::int64_t kMaxTestbenchVectors = std::int64_t{1} << 20;

core::CostMetric parse_metric(const std::string& name) {
  if (name == "mse") return core::CostMetric::kMse;
  if (name == "er") return core::CostMetric::kErrorRate;
  return core::CostMetric::kMed;
}

int run(int argc, char** argv) {
  util::CliParser cli(
      "dalut_opt - optimize an approximate LUT decomposition and emit "
      "configuration / report / RTL");
  cli.add_option("benchmark", "cos",
                 "built-in function (Table I or extended suite)");
  cli.add_option("table", "",
                 "truth-table file, text or binary container, auto-detected "
                 "(overrides --benchmark)");
  cli.add_option("table-load", "auto",
                 "auto | copy | map: mmap large binary tables in place "
                 "(auto), always copy to memory, or always map");
  cli.add_option("table-out", "",
                 "export the input truth table here before optimizing "
                 "(with --binary-tables this converts text tables and "
                 "built-in benchmarks to the binary container)");
  cli.add_flag("binary-tables",
               "write --table-out as the bit-packed dalut-table-bin v1 "
               "container instead of hex text");
  cli.add_option("width", "12", "bit width for built-in benchmarks");
  cli.add_option("algorithm", "bssa", "bssa | dalta");
  cli.add_option("arch", "dalta",
                 "dalta | bto-normal | bto-normal-nd (bssa only)");
  cli.add_option("bound", "0", "bound-set size b (0 = 9/16 of width)");
  cli.add_option("rounds", "3", "optimization rounds R");
  cli.add_option("partitions", "60", "partition budget P");
  cli.add_option("patterns", "12", "initial pattern vectors Z");
  cli.add_option("beams", "3", "beam width (bssa)");
  cli.add_option("chains", "3", "SA chains (bssa)");
  cli.add_option("metric", "med", "objective: med | mse | er");
  cli.add_option("delta", "0.01", "mode factor delta");
  cli.add_option("delta-prime", "0.1", "mode factor delta'");
  cli.add_option("seed", "1", "random seed");
  cli.add_option("threads", "0", "worker threads (0 = hardware)");
  cli.add_option("tech", "", "technology file (default: built-in 45nm)");
  cli.add_option("config-out", "", "write the optimized configuration here");
  cli.add_option("verilog-out", "", "write synthesizable Verilog here");
  cli.add_option("testbench-out", "", "write a self-checking testbench here");
  cli.add_option("tb-vectors", "64", "testbench vector count (0..1048576)");
  cli.add_flag("report", "print the synthesis-style cost report");
  cli.add_flag("sweep-bound",
               "probe every bound-set size first and pick the best "
               "within --med-budget (0 = most accurate)");
  cli.add_option("med-budget", "0", "MED budget for --sweep-bound");
  cli.add_option("deadline", "",
                 "wall-clock budget ('30s', '5m', '1h'); on expiry the "
                 "best-so-far result is emitted and exit code is 4");
  cli.add_option("checkpoint", "",
                 "crash-safe search checkpoint file, rewritten atomically "
                 "during the run and deleted on success");
  cli.add_option("checkpoint-every", "2",
                 "bit-steps between checkpoints (with --checkpoint)");
  cli.add_flag("resume",
               "continue from --checkpoint (bit-identical to an "
               "uninterrupted run); fresh start if the file is missing");
  cli.add_option("metrics-out", "",
                 "write the aggregated metrics snapshot + per-bit "
                 "best-error trajectory here as JSON (enables metrics)");
  cli.add_option("trace-out", "",
                 "write a Chrome trace-event JSON of the run here, loadable "
                 "in Perfetto or chrome://tracing (enables span tracing)");
  cli.add_option("listen", "",
                 "serve GET /metrics (Prometheus), /healthz, and /runs over "
                 "HTTP while the run is live; host:port, :port, or port "
                 "(host defaults to 127.0.0.1, port 0 binds an ephemeral "
                 "port; the bound endpoint is printed to stderr)");
  cli.add_option("events-out", "",
                 "write the dalut-events v1 structured JSONL lifecycle log "
                 "here (job/checkpoint/retry/failpoint events; bounded "
                 "queue, never blocks the search)");
  cli.add_flag("progress",
               "print a human-readable progress line (throttled, plus the "
               "final at-completion report) to stderr");
  cli.add_option("failpoints", "",
                 "arm deterministic I/O fault injection: "
                 "\"site=error[@trigger]\" entries, comma-separated "
                 "(also read from DALUT_FAILPOINTS; see --list-failpoints)");
  cli.add_flag("list-failpoints",
               "print every registered fault-injection site and exit");
  if (!cli.parse(argc, argv)) return kExitOk;

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

  // --- Search knobs, in the suite manifest's ranges. ---
  // Checked before any work: a negative count would wrap to a huge unsigned
  // one, and `--patterns -1` would then run 2^32 - 1 restarts inside one
  // OptForPart call, which never polls for a stop. `--threads` is checked
  // against the pool's ceiling rather than silently clamped. A width below 2
  // has no proper nonempty bound set; one above the manifest's cap would
  // ask for a 2^27-entry table and more. `--tb-vectors -1` would ask for
  // 2^64 - 1 testbench lines.
  SearchKnobs knobs;
  try {
    knobs.width = static_cast<unsigned>(
        cli.integer_in("width", 2, suite::kMaxWidth));
    knobs.bound = static_cast<unsigned>(
        cli.integer_in("bound", 0, suite::kMaxBound));
    knobs.rounds = static_cast<unsigned>(
        cli.integer_in("rounds", 0, suite::kMaxRounds));
    knobs.partitions = static_cast<unsigned>(
        cli.integer_in("partitions", 0, suite::kMaxPartitions));
    knobs.patterns = static_cast<unsigned>(
        cli.integer_in("patterns", 0, suite::kMaxPatterns));
    knobs.beams = static_cast<unsigned>(
        cli.integer_in("beams", 0, suite::kMaxBeams));
    knobs.chains = static_cast<unsigned>(
        cli.integer_in("chains", 0, suite::kMaxChains));
    knobs.threads = static_cast<unsigned>(cli.integer_in(
        "threads", 0, static_cast<std::int64_t>(util::kMaxWorkerCount)));
    knobs.checkpoint_every = static_cast<unsigned>(cli.integer_in(
        "checkpoint-every", 0, std::numeric_limits<unsigned>::max()));
    knobs.tb_vectors = static_cast<std::size_t>(
        cli.integer_in("tb-vectors", 0, kMaxTestbenchVectors));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitUsage;
  }

  // --- Run control: deadline + signals. ---
  util::RunControl& control = g_control;
  if (const auto deadline = cli.str("deadline"); !deadline.empty()) {
    control.set_deadline_after(util::parse_duration(deadline, "--deadline"));
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // --- Observability: metrics registry, span tracing, progress. ---
  // Telemetry is write-only for the searches, so enabling it cannot change
  // the emitted settings or MEDs (docs/observability.md).
  const auto metrics_out = cli.str("metrics-out");
  const auto trace_out = cli.str("trace-out");
  const auto listen_spec = cli.str("listen");
  const auto events_out = cli.str("events-out");
  if (!metrics_out.empty()) util::telemetry::set_metrics_enabled(true);
  if (!trace_out.empty()) util::telemetry::set_tracing_enabled(true);

  // The live observability plane: counters feed /metrics, so both surfaces
  // force the registry on; neither reads anything back into the search
  // (write-only guarantee, docs/observability.md).
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
  // The single run shows up on /runs under its function name.
  const std::string run_name =
      cli.str("table").empty() ? cli.str("benchmark") : cli.str("table");
  obs::RunRegistry::instance().declare(run_name, cli.str("algorithm"));
  const obs::EventLog::JobScope event_scope(run_name);

  std::function<void(const util::RunProgress&)> progress_line;
  if (cli.flag("progress")) {
    progress_line = [](const util::RunProgress& p) {
      std::fprintf(stderr,
                   "progress: %s round %u bit %u (step %zu/%zu, best "
                   "%.4f)\n",
                   p.stage, p.round, p.bit, p.steps_done, p.steps_total,
                   p.best_error);
    };
  }
  // /runs rides the same throttled forward as the human progress line (the
  // first and at-completion reports always pass the throttle).
  std::function<void(const util::RunProgress&)> forward;
  if (progress_line || !listen_spec.empty()) {
    forward = [&, run_name](const util::RunProgress& p) {
      obs::RunRegistry::instance().job_progress(run_name, p);
      if (progress_line) progress_line(p);
    };
  }
  util::telemetry::SnapshotPump pump;
  if (!metrics_out.empty()) {
    // The pump observes every report (for the trajectory) and applies the
    // progress line's own 5 s throttle when forwarding.
    pump.attach(control, forward, std::chrono::seconds(5));
  } else if (forward) {
    control.set_progress_callback(forward, std::chrono::seconds(5));
  }

  // --- Checkpoint / resume. ---
  const auto checkpoint_path = cli.str("checkpoint");
  if (cli.flag("resume") && checkpoint_path.empty()) {
    std::fprintf(stderr, "error: --resume needs --checkpoint <file>\n");
    return kExitFatal;
  }
  std::optional<core::SearchCheckpoint> resume_state;
  if (cli.flag("resume")) {
    // Generation-aware load: a torn or corrupt latest checkpoint degrades
    // to the previous generation ("<path>.1"); neither usable starts fresh.
    if (auto loaded = core::load_checkpoint_with_fallback(checkpoint_path)) {
      if (loaded->from_previous) events.emit("checkpoint.fallback");
      resume_state = std::move(loaded->checkpoint);
      std::fprintf(stderr,
                   "resuming from %s%s (%s, round %u, %u bits done, %.2f s "
                   "elapsed)\n",
                   checkpoint_path.c_str(),
                   loaded->from_previous ? " (previous generation)" : "",
                   resume_state->algorithm.c_str(), resume_state->round,
                   resume_state->bits_done, resume_state->elapsed_seconds);
    } else {
      std::fprintf(stderr,
                   "note: no usable checkpoint at '%s', starting fresh\n",
                   checkpoint_path.c_str());
    }
  }
  std::function<void(const core::SearchCheckpoint&)> sink;
  if (!checkpoint_path.empty()) {
    sink = [&checkpoint_path, &events](const core::SearchCheckpoint& ck) {
      // Best-effort: a failed snapshot (after retries) must not kill the
      // search — the run degrades to a coarser resume point.
      if (core::save_checkpoint_best_effort(checkpoint_path, ck)) {
        events.emit("checkpoint.save");
      } else {
        events.emit("checkpoint.save_failure");
        std::fprintf(stderr,
                     "warning: checkpoint save to '%s' failed, continuing "
                     "without this snapshot\n",
                     checkpoint_path.c_str());
      }
    };
  }

  const auto function = load_function(cli, knobs.width);
  if (!function) return kExitFatal;
  const auto& g = *function;
  if (const auto path = cli.str("table-out"); !path.empty()) {
    const auto encoding = cli.flag("binary-tables")
                              ? core::TableEncoding::kBinary
                              : core::TableEncoding::kText;
    core::save_function_file(path, g, encoding);
    std::printf("wrote %s table to %s\n",
                encoding == core::TableEncoding::kBinary ? "binary" : "text",
                path.c_str());
  }
  const auto dist = core::InputDistribution::uniform(g.num_inputs());
  // resolve_worker_count turns 0 into the hardware's count, so
  // `--threads 0` cannot construct an empty, deadlocking pool.
  util::ThreadPool pool(util::resolve_worker_count(knobs.threads));

  unsigned bound = knobs.bound;
  if (bound == 0) {
    bound = std::max(2u, std::min(g.num_inputs() - 1,
                                  (9u * g.num_inputs() + 8) / 16));
  }
  if (cli.flag("sweep-bound")) {
    core::BoundSweepParams sweep;
    sweep.probe.rounds = 2;
    sweep.probe.beam_width = 2;
    sweep.probe.sa.partition_limit =
        std::max(8u, knobs.partitions / 3);
    sweep.probe.sa.init_patterns = knobs.patterns;
    sweep.probe.sa.chains = knobs.chains;
    sweep.probe.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    sweep.probe.pool = &pool;
    sweep.probe.control = &control;
    double budget = cli.real("med-budget");
    if (budget <= 0.0) budget = -1.0;  // unreachable -> most accurate size
    const auto chosen = core::choose_bound_size(g, dist, budget, sweep);
    std::printf("bound-size sweep picked b = %u (probe MED %.4f, %zu "
                "entries/bit)\n",
                chosen.bound_size, chosen.med, chosen.entries_per_bit);
    bound = chosen.bound_size;
  }

  const auto arch_name = cli.str("arch");
  hw::ArchKind arch = hw::ArchKind::kDalta;
  core::ModePolicy modes = core::ModePolicy::normal_only();
  if (arch_name == "bto-normal") {
    arch = hw::ArchKind::kBtoNormal;
    modes = core::ModePolicy::bto_normal(cli.real("delta"));
  } else if (arch_name == "bto-normal-nd") {
    arch = hw::ArchKind::kBtoNormalNd;
    modes = core::ModePolicy::bto_normal_nd(cli.real("delta"),
                                            cli.real("delta-prime"));
  } else if (arch_name != "dalta") {
    std::fprintf(stderr, "error: unknown arch '%s'\n", arch_name.c_str());
    return kExitFatal;
  }

  // --- Optimize. ---
  obs::RunRegistry::instance().job_started(run_name);
  events.emit("job.start");
  core::DecompositionResult result;
  if (cli.str("algorithm") == "dalta") {
    if (arch != hw::ArchKind::kDalta) {
      std::fprintf(stderr,
                   "error: the DALTA algorithm only supports --arch dalta\n");
      return kExitFatal;
    }
    core::DaltaParams params;
    params.bound_size = bound;
    params.rounds = knobs.rounds;
    params.partition_limit = knobs.partitions;
    params.init_patterns = knobs.patterns;
    params.metric = parse_metric(cli.str("metric"));
    params.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    params.pool = &pool;
    params.control = &control;
    params.checkpoint_every = sink ? knobs.checkpoint_every : 0;
    params.checkpoint_sink = sink;
    params.resume = resume_state ? &*resume_state : nullptr;
    result = core::run_dalta(g, dist, params);
  } else if (cli.str("algorithm") == "bssa") {
    core::BssaParams params;
    params.bound_size = bound;
    params.rounds = knobs.rounds;
    params.beam_width = knobs.beams;
    params.sa.partition_limit = knobs.partitions;
    params.sa.init_patterns = knobs.patterns;
    params.sa.chains = knobs.chains;
    params.modes = modes;
    params.metric = parse_metric(cli.str("metric"));
    params.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    params.pool = &pool;
    params.control = &control;
    params.checkpoint_every = sink ? knobs.checkpoint_every : 0;
    params.checkpoint_sink = sink;
    params.resume = resume_state ? &*resume_state : nullptr;
    result = core::run_bssa(g, dist, params);
  } else {
    std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                 cli.str("algorithm").c_str());
    return kExitFatal;
  }

  events.emit("job.finish");
  obs::RunRegistry::instance().job_completed(run_name, result.report.med,
                                             /*from_cache=*/false,
                                             result.resumed);
  if (result.status != util::RunStatus::kCompleted) {
    std::fprintf(stderr,
                 "note: run stopped early (%s); emitting the best-so-far "
                 "result\n",
                 util::to_string(result.status));
  }
  std::printf(
      "optimized %u->%u-bit function: MED %.4f, MSE %.4f, error rate %.4f, "
      "max ED %g\n",
      g.num_inputs(), g.num_outputs(), result.report.med, result.report.mse,
      result.report.error_rate, result.report.max_ed);
  std::printf("runtime %.2f s, %zu partitions evaluated\n",
              result.runtime_seconds, result.partitions_evaluated);

  const auto lut = result.realize(g.num_inputs());
  std::printf("stored LUT bits: %zu (direct LUT: %zu)\n",
              lut.stored_entries(),
              g.domain_size() * g.num_outputs());

  // --- Technology + hardware. ---
  hw::Technology tech = hw::Technology::nangate45();
  if (const auto tech_path = cli.str("tech"); !tech_path.empty()) {
    std::ifstream in(tech_path);
    if (!in) {
      std::fprintf(stderr, "io error: cannot open tech file '%s': %s\n",
                   tech_path.c_str(), std::strerror(errno));
      return kExitIo;
    }
    tech = hw::read_technology(in);
  }
  const hw::ApproxLutSystem system(arch, lut, tech);

  // Functional sign-off.
  const auto reference = lut.to_function();
  util::Rng rng(static_cast<std::uint64_t>(cli.integer("seed")) + 7);
  const auto sim = hw::simulate_random(hw::make_target(system), 1024,
                                       g.num_inputs(), &reference, tech, rng);
  if (sim.mismatches != 0) {
    std::fprintf(stderr, "FATAL: %zu hardware/functional mismatches\n",
                 sim.mismatches);
    return kExitFatal;
  }
  std::printf("hardware verified (1024 reads), avg %.0f fJ/read\n",
              sim.avg_read_energy);

  if (cli.flag("report")) {
    std::fputs(hw::format_report(system).c_str(), stdout);
  }

  // --- Outputs. ---
  if (const auto path = cli.str("config-out"); !path.empty()) {
    if (!util::write_text_artifact(
            path, "configuration", [&](std::ostream& out) {
              core::write_config(
                  out, {g.num_inputs(), g.num_outputs(), result.settings});
            })) {
      return kExitIo;
    }
    std::printf("wrote configuration to %s\n", path.c_str());
  }
  if (const auto path = cli.str("verilog-out"); !path.empty()) {
    if (!util::write_text_artifact(path, "Verilog", [&](std::ostream& out) {
          out << hw::emit_system_verilog(system, "dalut_top");
        })) {
      return kExitIo;
    }
    std::printf("wrote Verilog to %s\n", path.c_str());
  }
  if (const auto path = cli.str("testbench-out"); !path.empty()) {
    if (!util::write_text_artifact(path, "testbench", [&](std::ostream& out) {
          out << hw::emit_system_testbench(
              system, "dalut_top",
              knobs.tb_vectors,
              static_cast<std::uint64_t>(cli.integer("seed")));
        })) {
      return kExitIo;
    }
    std::printf("wrote testbench to %s\n", path.c_str());
  }

  // --- Telemetry artifacts (also emitted for early-stopped runs). ---
  // Close the event log first so its written/dropped counters are final in
  // the metrics snapshot below.
  events.close();
  if (!metrics_out.empty()) {
    const bool written = util::write_text_artifact(
        metrics_out, "metrics", [&](std::ostream& out) {
          out << "{\n  \"schema\": \"dalut-metrics-v1\",\n  \"run\": {\n"
              << "    \"algorithm\": \"" << cli.str("algorithm") << "\",\n"
              << "    \"arch\": \"" << arch_name << "\",\n    \"function\": \""
              << util::telemetry::json_escape(
                     cli.str("table").empty() ? cli.str("benchmark")
                                              : cli.str("table"))
              << "\",\n    \"num_inputs\": " << g.num_inputs()
              << ",\n    \"num_outputs\": " << g.num_outputs()
              << ",\n    \"threads\": " << knobs.threads
              << ",\n    \"seed\": " << cli.integer("seed")
              << ",\n    \"status\": \"" << util::to_string(result.status)
              << "\",\n    \"med\": ";
          // Exact 17-digit round-trip for finite MEDs; non-finite values (a
          // run stopped before any result) must land as null, not bare
          // inf/nan.
          char med_buf[64] = "null";
          if (std::isfinite(result.med)) {
            std::snprintf(med_buf, sizeof med_buf, "%.17g", result.med);
          }
          out << med_buf << ",\n    \"runtime_seconds\": "
              << result.runtime_seconds << ",\n    \"partitions_evaluated\": "
              << result.partitions_evaluated << "\n  },\n  \"metrics\":\n";
          util::telemetry::write_metrics_json(
              out, util::telemetry::snapshot_metrics(), 2);
          out << ",\n  \"trajectory\":\n";
          pump.write_trajectory_json(out, 2);
          out << "\n}\n";
        });
    if (!written) return kExitIo;
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!util::write_text_artifact(trace_out, "trace",
                                   util::telemetry::write_chrome_trace)) {
      return kExitIo;
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }

  // Telemetry for the injection harness: which sites were hit and fired.
  if (util::fp::active()) {
    std::fprintf(stderr, "failpoints:\n%s", util::fp::dump().c_str());
  }

  switch (result.status) {
    case util::RunStatus::kDeadlineExpired:
      return kExitDeadline;
    case util::RunStatus::kCancelled:
      return kExitCancelled;
    case util::RunStatus::kCompleted:
      break;
  }
  // A finished run leaves no stale checkpoint behind — including a *.tmp
  // orphaned by an earlier crash mid-save; a later --resume then simply
  // starts fresh (and lands on the identical result).
  if (!checkpoint_path.empty()) core::remove_checkpoint(checkpoint_path);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& error) {
    // Malformed inputs (truth tables, configurations, checkpoints, option
    // values) raise invalid_argument with line-anchored messages.
    std::fprintf(stderr, "parse error: %s\n", error.what());
    return kExitParse;
  } catch (const util::IoError& error) {
    // Fatal (or retry-exhausted) I/O on an input, output, or checkpoint
    // file; the message already names the path.
    std::fprintf(stderr, "io error: %s (errno %d%s%s)\n", error.what(),
                 error.error_code(), error.site().empty() ? "" : ", site ",
                 error.site().c_str());
    return kExitIo;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fatal: %s\n", error.what());
    return kExitFatal;
  }
}
