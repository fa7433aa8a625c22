// Suite manifests (format "dalut-manifest v1"): the job list a dalut_suite
// run executes. One manifest reproduces a whole paper table — every
// benchmark function x {BS-SA, BS-SA-ND, DALTA, rounding} x error budget —
// in a single invocation instead of a shell loop of dalut_opt processes.
//
//   dalut-manifest v1
//   # defaults apply to every job line after them; later defaults override
//   default width=12 rounds=2 partitions=24 patterns=8 chains=2 beams=2
//   job cos-nd benchmark=cos algorithm=bssa arch=bto-normal-nd seed=1
//   job cos-dalta benchmark=cos algorithm=dalta budget=0.5
//   job cos-round algorithm=round-out benchmark=cos drop=6
//   end
//
// Job names must be unique (they key per-job checkpoints and report rows)
// and stay within [A-Za-z0-9._-] so they are safe as file-name stems.
// Parse errors are line-anchored std::invalid_argument, same policy as the
// dalut-config / dalut-checkpoint formats.
//
// Search keys (each also a dalut_opt flag) accept: width 2..26; bound 0
// (= default_bound) or 1..width-1; rounds >= 1, and >= 2 with a
// bto-normal* arch; partitions, patterns, beams, chains >= 1; nd-candidates
// >= 1 with arch=bto-normal-nd; delta, delta-prime finite and >= 0; arch
// dalta only with algorithm=dalta. Upper limits are core/algorithm_common's
// kMax*. DaltaParams/BssaParams::validate own these rules, and
// validate_search runs them on every job line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/bssa.hpp"
#include "core/dalta.hpp"

namespace dalut::suite {

/// One optimization (or baseline) job of a suite manifest. Field defaults
/// mirror dalut_opt's CLI defaults, so a one-key job line behaves like a
/// bare dalut_opt call.
struct SuiteJob {
  std::string name;       ///< unique label (report rows, checkpoint stems)
  std::string benchmark = "cos";  ///< built-in function name
  std::string table;      ///< truth-table file (overrides `benchmark`)
  unsigned width = 12;    ///< bit width for built-in benchmarks

  std::string algorithm = "bssa";  ///< bssa | dalta | round-in | round-out
  std::string arch = "dalta";  ///< dalta | bto-normal | bto-normal-nd (bssa)
  unsigned bound = 0;          ///< bound-set size b (0 = default_bound)
  unsigned rounds = 3;         ///< optimization rounds R
  unsigned partitions = 60;    ///< partition budget P
  unsigned patterns = 12;      ///< initial pattern vectors Z
  unsigned beams = 3;          ///< beam width (bssa)
  unsigned chains = 3;         ///< SA chains (bssa)
  unsigned nd_candidates = 4;  ///< ND candidate partitions (bssa)
  std::string metric = "med";  ///< med | mse | er
  double delta = 0.01;         ///< mode factor delta
  double delta_prime = 0.1;    ///< mode factor delta'
  std::uint64_t seed = 1;
  unsigned drop = 1;           ///< dropped bits (round-in / round-out)

  /// Optional MED budget for the report's within-budget column (0 = none).
  /// Purely descriptive: it does not steer the search, so it is not part of
  /// the result-cache key.
  double budget = 0.0;
};

/// Widths a job accepts: below 2 there is no proper nonempty bound set, and
/// above 26 a built-in benchmark asks for a 2^27-entry table.
inline constexpr unsigned kMinJobWidth = 2;
inline constexpr unsigned kMaxJobWidth = 26;

struct Manifest {
  std::vector<SuiteJob> jobs;  ///< manifest order == report order
};

/// Parses a manifest; throws std::invalid_argument with a line-anchored
/// message on malformed input.
Manifest read_manifest(std::istream& in);
Manifest manifest_from_string(const std::string& text);

/// Loads a manifest file; std::runtime_error if unreadable.
Manifest load_manifest(const std::string& path);

/// Sets the field a manifest `key=value` token names, e.g.
/// `set_job_field(job, "width", "12")`. Manifest lines and dalut_opt's
/// search flags both go through it, so a job line and a command line accept
/// the same values. Throws std::invalid_argument whose message begins with
/// the key (the manifest parser prefixes the line number).
void set_job_field(SuiteJob& job, const std::string& key,
                   const std::string& value);

// ---- The search a job describes -------------------------------------------

/// b for bound=0 on an n-input function: the paper's 9 at n = 16, scaled
/// as 9n/16 and kept in [1, n - 1].
unsigned default_bound(unsigned n);

/// The DALTA / BS-SA parameters a job describes for an n-input function;
/// pool, control and checkpointing are left to the caller. dalta_params
/// throws std::invalid_argument ("arch ...") unless arch=dalta.
core::DaltaParams dalta_params(const SuiteJob& job, unsigned n);
core::BssaParams bssa_params(const SuiteJob& job, unsigned n);

/// Runs validate() on the job's params before any work starts, for
/// n = width (kMaxJobWidth for a table job, whose bound the run checks);
/// rounding jobs pass. The error begins with the offending key.
void validate_search(const SuiteJob& job);

}  // namespace dalut::suite
