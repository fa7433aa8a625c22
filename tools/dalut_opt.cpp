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
// The search flags fill a suite::SuiteJob, and the search runs through the
// suite's job path (suite/suite_runner.hpp). The flags, fault injection,
// signals, observability and exit codes shared with dalut_suite live in
// tool_runtime.hpp; the exit codes are listed in docs/robustness.md.
//
// Examples:
//   dalut_opt --benchmark cos --width 12 --arch bto-normal-nd --report
//   dalut_opt --table f.dalut --algorithm dalta --config-out f.cfg
//   dalut_opt --benchmark multiplier --verilog-out mult.v
//             --testbench-out mult_tb.v --tech my45nm.tech
//   dalut_opt --benchmark log2 --deadline 30s --checkpoint ck.dalut
//   dalut_opt --benchmark log2 --checkpoint ck.dalut --resume
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/bound_size.hpp"
#include "core/checkpoint.hpp"
#include "core/serialize.hpp"
#include "core/table_io.hpp"
#include "hw/report.hpp"
#include "hw/simulator.hpp"
#include "hw/tech_io.hpp"
#include "hw/verilog.hpp"
#include "obs/event_log.hpp"
#include "obs/run_registry.hpp"
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

/// The flags that describe the search. Each sets the suite job field of the
/// same name, so a command line and a manifest job line accept the same
/// values.
constexpr const char* kJobFlags[] = {
    "benchmark", "table", "width", "algorithm", "arch",
    "bound", "rounds", "partitions", "patterns", "beams",
    "chains", "metric", "delta", "delta-prime", "seed"};

/// Most --tb-vectors a testbench takes: about 40 MiB of Verilog.
constexpr std::int64_t kMaxTestbenchVectors = std::int64_t{1} << 20;

core::TableLoadMode table_load_mode(const std::string& name) {
  if (name == "auto") return core::TableLoadMode::kAuto;
  if (name == "copy") return core::TableLoadMode::kCopy;
  if (name == "map") return core::TableLoadMode::kMap;
  throw std::invalid_argument(
      "--table-load must be auto, copy, or map, got '" + name + "'");
}

hw::ArchKind arch_kind(const std::string& arch) {
  if (arch == "bto-normal") return hw::ArchKind::kBtoNormal;
  if (arch == "bto-normal-nd") return hw::ArchKind::kBtoNormalNd;
  return hw::ArchKind::kDalta;
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
  cli.add_option("checkpoint", "",
                 "crash-safe search checkpoint file, rewritten atomically "
                 "during the run and deleted on success");
  cli.add_option("checkpoint-every", "2",
                 "bit-steps between checkpoints (with --checkpoint)");
  cli.add_flag("resume",
               "continue from --checkpoint (bit-identical to an "
               "uninterrupted run); fresh start if the file is missing");
  ToolRuntime runtime(cli, stdout);
  if (const auto code = runtime.parse(argc, argv)) return *code;

  // --- The search job and the tool's own counts, checked up front. ---
  // A negative count would wrap to a huge unsigned one: `--patterns -1`
  // would run 2^32 - 1 restarts inside one OptForPart call, which never
  // polls for a stop, and `--tb-vectors -1` would ask for 2^64 - 1
  // testbench lines. `--threads` is checked against the pool's ceiling
  // rather than silently clamped; validate_search adds the cross-flag rules.
  suite::SuiteJob job;
  try {
    // The rounding baselines have no settings to emit.
    if (const auto name = cli.str("algorithm");
        name != "bssa" && name != "dalta") {
      throw std::invalid_argument("algorithm '" + name +
                                  "' is not one of bssa, dalta");
    }
    for (const char* flag : kJobFlags) {
      suite::set_job_field(job, flag, cli.str(flag));
    }
    suite::validate_search(job);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: --%s\n", error.what());
    return kExitUsage;
  }
  unsigned threads = 0;  // 0 = hardware
  unsigned checkpoint_every = 0;
  std::size_t tb_vectors = 0;
  double med_budget = 0.0;
  core::TableLoadMode load_mode = core::TableLoadMode::kAuto;
  try {
    threads = static_cast<unsigned>(cli.integer_in(
        "threads", 0, static_cast<std::int64_t>(util::kMaxWorkerCount)));
    checkpoint_every = static_cast<unsigned>(cli.integer_in(
        "checkpoint-every", 0, std::numeric_limits<unsigned>::max()));
    tb_vectors = static_cast<std::size_t>(
        cli.integer_in("tb-vectors", 0, kMaxTestbenchVectors));
    med_budget = cli.real_in("med-budget", 0.0,
                             std::numeric_limits<double>::max());
    load_mode = table_load_mode(cli.str("table-load"));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return kExitUsage;
  }
  if (cli.flag("resume") && cli.str("checkpoint").empty()) {
    std::fprintf(stderr, "error: --resume needs --checkpoint <file>\n");
    return kExitUsage;
  }

  if (const auto code = runtime.start()) return *code;
  util::RunControl& control = runtime.control();
  obs::EventLog& events = obs::EventLog::instance();

  // The single run shows up on /runs under its function name.
  const std::string run_name = job.table.empty() ? job.benchmark : job.table;
  obs::RunRegistry::instance().declare(run_name, job.algorithm);
  const obs::EventLog::JobScope event_scope(run_name);
  // /runs sees every report, the --progress line at most one per 5 s (the
  // first and at-completion reports always pass).
  util::telemetry::ProgressRecorder recorder(
      [&run_name](const std::string&, const util::RunProgress& p) {
        obs::RunRegistry::instance().job_progress(run_name, p);
      },
      runtime.progress_line(), std::chrono::seconds(5));
  recorder.attach(control);

  // --- Checkpoint / resume. ---
  suite::SearchRun search;
  search.control = &control;
  const auto checkpoint_path = cli.str("checkpoint");
  std::optional<core::SearchCheckpoint> resume_state;
  if (cli.flag("resume")) {
    // Generation-aware load: a torn or corrupt latest checkpoint degrades
    // to the previous generation ("<path>.1"); neither usable starts fresh.
    if (auto loaded = core::load_checkpoint_with_fallback(checkpoint_path)) {
      if (loaded->from_previous) events.emit("checkpoint.fallback");
      resume_state = std::move(loaded->checkpoint);
      search.resume = &*resume_state;
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
  if (!checkpoint_path.empty()) {
    search.sink = suite::checkpoint_sink(checkpoint_path);
    search.checkpoint_every = checkpoint_every;
  }

  // Binary-mode open + container auto-detection for --table; large binary
  // tables are served from a file mapping under auto/map.
  const auto g = suite::load_job_function(job, load_mode);
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
  util::ThreadPool pool(util::resolve_worker_count(threads));
  search.pool = &pool;

  if (cli.flag("sweep-bound")) {
    core::BoundSweepParams sweep;
    sweep.probe = suite::bssa_params(job, g.num_inputs());
    sweep.probe.rounds = 2;
    sweep.probe.beam_width = 2;
    sweep.probe.sa.partition_limit = std::max(8u, job.partitions / 3);
    sweep.probe.pool = &pool;
    sweep.probe.control = &control;
    // Budget 0 is unreachable: the sweep picks the most accurate size.
    const double budget = med_budget > 0.0 ? med_budget : -1.0;
    const auto chosen = core::choose_bound_size(g, dist, budget, sweep);
    std::printf("bound-size sweep picked b = %u (probe MED %.4f, %zu "
                "entries/bit)\n",
                chosen.bound_size, chosen.med, chosen.entries_per_bit);
    job.bound = chosen.bound_size;
  }

  // --- Optimize. ---
  obs::RunRegistry::instance().job_started(run_name);
  events.emit("job.start");
  const auto result = suite::run_search(job, g, dist, search);
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
  const hw::ApproxLutSystem system(arch_kind(job.arch), lut, tech);

  // Functional sign-off.
  const auto reference = lut.to_function();
  util::Rng rng(job.seed + 7);
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
              tb_vectors, job.seed);
        })) {
      return kExitIo;
    }
    std::printf("wrote testbench to %s\n", path.c_str());
  }

  // --- Telemetry artifacts (also emitted for early-stopped runs). ---
  const int code = runtime.finish(
      result.status, recorder.rows(), [&](std::ostream& out) {
        out << "  \"run\": {\n    \"algorithm\": \"" << job.algorithm
            << "\",\n    \"arch\": \"" << job.arch
            << "\",\n    \"function\": \""
            << util::telemetry::json_escape(run_name)
            << "\",\n    \"num_inputs\": " << g.num_inputs()
            << ",\n    \"num_outputs\": " << g.num_outputs()
            << ",\n    \"threads\": " << threads
            << ",\n    \"seed\": " << job.seed
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
            << result.partitions_evaluated << "\n  },\n";
      });
  if (code != kExitOk) return code;
  // A finished run leaves no stale checkpoint behind — including a *.tmp
  // orphaned by an earlier crash mid-save; a later --resume then simply
  // starts fresh (and lands on the identical result).
  if (!checkpoint_path.empty()) core::remove_checkpoint(checkpoint_path);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) { return run_main(run, argc, argv); }
