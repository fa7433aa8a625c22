// The wiring dalut_opt and dalut_suite share: the common flags, fault
// injection, the deadline and stop signals, the observability plane, the
// telemetry artifacts, and the exit-code table (docs/robustness.md).
// dalut_stream uses only the exit codes and run_main.
//
// Shared flags: --deadline --failpoints --list-failpoints --metrics-out
// --trace-out --listen --events-out --progress.
#pragma once

#include <cstdio>
#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

#include "obs/exporter.hpp"
#include "util/cli.hpp"
#include "util/run_control.hpp"
#include "util/telemetry.hpp"

namespace dalut::tools {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFatal = 1;
/// Also produced by CliParser itself for an unknown option.
inline constexpr int kExitUsage = 2;
inline constexpr int kExitParse = 3;
inline constexpr int kExitDeadline = 4;
inline constexpr int kExitCancelled = 5;
inline constexpr int kExitIo = 6;
/// dalut_suite only: the suite finished but some jobs were quarantined.
inline constexpr int kExitJobsFailed = 7;

/// One tool run's shared set-up and tear-down. The exporter it starts stops
/// when the runtime is destroyed.
class ToolRuntime {
 public:
  /// Registers the shared flags on `cli`. `notes` takes the "wrote
  /// <artifact>" lines: stdout, or stderr where stdout carries a report.
  ToolRuntime(util::CliParser& cli, std::FILE* notes);

  /// Parses the command line and arms fault injection (DALUT_FAILPOINTS,
  /// then --failpoints). Returns the exit code to stop with after --help,
  /// --list-failpoints or a bad fault spec; nullopt to go on.
  std::optional<int> parse(int argc, char** argv);

  /// Sets the --deadline, routes SIGINT/SIGTERM to control(), enables
  /// metrics and tracing as the flags ask, opens the event log and starts
  /// the exporter. Returns the exit code to stop with, or nullopt. Telemetry
  /// is write-only for the searches (docs/observability.md).
  std::optional<int> start();

  /// The run's master control; the signal handler cancels it.
  util::RunControl& control();

  /// The --progress line printer (labeled with the job when there is one),
  /// or an empty sink without --progress.
  util::telemetry::ProgressRecorder::Sink progress_line() const;

  /// Closes the event log, then writes the --metrics-out artifact (schema
  /// line, `header`, metrics snapshot, `trajectory`) and the --trace-out
  /// artifact, and dumps the failpoint counts. Returns kExitIo if an
  /// artifact failed, else the exit code of `status`.
  int finish(util::RunStatus status,
             const std::vector<util::telemetry::TrajectoryRow>& trajectory,
             const std::function<void(std::ostream&)>& header);

 private:
  util::CliParser& cli_;
  std::FILE* notes_;
  obs::MetricsExporter exporter_;
};

/// Runs a tool's body and maps what escapes it to an exit code:
/// std::invalid_argument (malformed input, line-anchored) -> 3,
/// util::IoError (the message names the path) -> 6, anything else -> 1.
int run_main(int (*body)(int, char**), int argc, char** argv);

}  // namespace dalut::tools
