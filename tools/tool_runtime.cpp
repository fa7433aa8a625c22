#include "tool_runtime.hpp"

#include <csignal>
#include <exception>
#include <ostream>
#include <stdexcept>

#include "obs/event_log.hpp"
#include "obs/run_registry.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"
#include "util/trace_writer.hpp"

namespace dalut::tools {

namespace {

// The RunControl outlives the tool's locals so the signal handler can reach
// it; request_cancel() is a relaxed atomic store, hence async-signal-safe.
util::RunControl g_control;

extern "C" void handle_stop_signal(int) { g_control.request_cancel(); }

}  // namespace

ToolRuntime::ToolRuntime(util::CliParser& cli, std::FILE* notes)
    : cli_(cli), notes_(notes) {
  cli.add_option("deadline", "",
                 "wall-clock budget ('30s', '5m', '1h'); on expiry the run "
                 "stops cooperatively, writes its best-so-far results (and "
                 "checkpoints, when on), and exits 4");
  cli.add_option("metrics-out", "",
                 "write the dalut-metrics-v1 JSON artifact (run header, "
                 "metrics snapshot, best-error trajectory) here (enables "
                 "metrics)");
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
                 "here (job/checkpoint/cache/retry/failpoint events; bounded "
                 "queue, never blocks the search)");
  cli.add_flag("progress",
               "print throttled progress lines, plus every at-completion "
               "report, to stderr");
  cli.add_option("failpoints", "",
                 "arm deterministic I/O fault injection: "
                 "\"site=error[@trigger]\" entries, comma-separated "
                 "(also read from DALUT_FAILPOINTS; see --list-failpoints)");
  cli.add_flag("list-failpoints",
               "print every registered fault-injection site and exit");
}

std::optional<int> ToolRuntime::parse(int argc, char** argv) {
  if (!cli_.parse(argc, argv)) return kExitOk;
  if (cli_.flag("list-failpoints")) {
    for (const auto& site : util::fp::all_sites()) {
      std::printf("%s\n", site.c_str());
    }
    return kExitOk;
  }
  try {
    util::fp::configure_from_env();
    if (const auto spec = cli_.str("failpoints"); !spec.empty()) {
      util::fp::configure(spec);
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: --failpoints/DALUT_FAILPOINTS: %s\n",
                 error.what());
    return kExitUsage;
  }
  return std::nullopt;
}

std::optional<int> ToolRuntime::start() {
  if (const auto deadline = cli_.str("deadline"); !deadline.empty()) {
    g_control.set_deadline_after(util::parse_duration(deadline, "--deadline"));
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  if (!cli_.str("metrics-out").empty()) {
    util::telemetry::set_metrics_enabled(true);
  }
  if (!cli_.str("trace-out").empty()) {
    util::telemetry::set_tracing_enabled(true);
  }
  // The live plane: counters feed /metrics, so both surfaces force the
  // registry on; neither reads anything back into the search.
  if (const auto path = cli_.str("events-out"); !path.empty()) {
    util::telemetry::set_metrics_enabled(true);
    try {
      obs::EventLog::instance().open(path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "io error: %s\n", error.what());
      return kExitIo;
    }
  }
  if (const auto spec = cli_.str("listen"); !spec.empty()) {
    util::telemetry::set_metrics_enabled(true);
    obs::RunRegistry::instance().set_enabled(true);
    try {
      const auto [host, port] = obs::parse_listen_spec(spec);
      obs::ExporterOptions options;
      options.host = host;
      options.port = port;
      options.control = &g_control;
      exporter_.start(options);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return kExitUsage;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "io error: %s\n", error.what());
      return kExitIo;
    }
    // Grep-able and flushed before the run starts, so a harness scraping an
    // ephemeral port (--listen 127.0.0.1:0) can find it immediately.
    std::fprintf(stderr,
                 "observability: listening on http://%s (/metrics, "
                 "/healthz, /runs)\n",
                 exporter_.endpoint().c_str());
    std::fflush(stderr);
  }
  return std::nullopt;
}

util::RunControl& ToolRuntime::control() { return g_control; }

util::telemetry::ProgressRecorder::Sink ToolRuntime::progress_line() const {
  if (!cli_.flag("progress")) return {};
  return [](const std::string& job, const util::RunProgress& p) {
    std::fprintf(stderr,
                 "progress: %s%s%s%s round %u bit %u (step %zu/%zu, best "
                 "%.4f)\n",
                 job.empty() ? "" : "[", job.c_str(), job.empty() ? "" : "] ",
                 p.stage, p.round, p.bit, p.steps_done, p.steps_total,
                 p.best_error);
  };
}

int ToolRuntime::finish(
    util::RunStatus status,
    const std::vector<util::telemetry::TrajectoryRow>& trajectory,
    const std::function<void(std::ostream&)>& header) {
  // Close the event log first so its written/dropped counters are final in
  // the metrics snapshot below.
  obs::EventLog::instance().close();
  if (const auto path = cli_.str("metrics-out"); !path.empty()) {
    if (!util::write_text_artifact(path, "metrics", [&](std::ostream& out) {
          out << "{\n  \"schema\": \"dalut-metrics-v1\",\n";
          header(out);
          out << "  \"metrics\":\n";
          util::telemetry::write_metrics_json(
              out, util::telemetry::snapshot_metrics(), 2);
          out << ",\n  \"trajectory\":\n";
          util::telemetry::write_trajectory_json(out, trajectory, 2);
          out << "\n}\n";
        })) {
      return kExitIo;
    }
    std::fprintf(notes_, "wrote metrics to %s\n", path.c_str());
  }
  if (const auto path = cli_.str("trace-out"); !path.empty()) {
    if (!util::write_text_artifact(path, "trace",
                                   util::telemetry::write_chrome_trace)) {
      return kExitIo;
    }
    std::fprintf(notes_, "wrote trace to %s\n", path.c_str());
  }
  // Telemetry for the injection harness: which sites were hit and fired.
  if (util::fp::active()) {
    std::fprintf(stderr, "failpoints:\n%s", util::fp::dump().c_str());
  }
  switch (status) {
    case util::RunStatus::kDeadlineExpired:
      return kExitDeadline;
    case util::RunStatus::kCancelled:
      return kExitCancelled;
    case util::RunStatus::kCompleted:
      break;
  }
  return kExitOk;
}

int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& error) {
    // Malformed inputs (truth tables, configurations, checkpoints,
    // manifests, option values) raise invalid_argument with line-anchored
    // messages.
    std::fprintf(stderr, "parse error: %s\n", error.what());
    return kExitParse;
  } catch (const util::IoError& error) {
    std::fprintf(stderr, "io error: %s (errno %d%s%s)\n", error.what(),
                 error.error_code(), error.site().empty() ? "" : ", site ",
                 error.site().c_str());
    return kExitIo;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fatal: %s\n", error.what());
    return kExitFatal;
  }
}

}  // namespace dalut::tools
