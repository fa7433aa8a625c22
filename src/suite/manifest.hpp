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
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dalut::suite {

/// Largest accepted value of each search knob. Manifest job fields and
/// dalut_opt's flags both enforce these, so a job line and a command line
/// accept the same values.
inline constexpr unsigned kMaxBound = 25;
inline constexpr unsigned kMaxRounds = 1u << 20;
inline constexpr unsigned kMaxPartitions = 1u << 20;
inline constexpr unsigned kMaxPatterns = 1u << 20;
inline constexpr unsigned kMaxBeams = 4096;
inline constexpr unsigned kMaxChains = 4096;
inline constexpr unsigned kMaxNdCandidates = 4096;

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
  unsigned bound = 0;          ///< bound-set size b (0 = 9/16 of width)
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

struct Manifest {
  std::vector<SuiteJob> jobs;  ///< manifest order == report order
};

/// Parses a manifest; throws std::invalid_argument with a line-anchored
/// message on malformed input.
Manifest read_manifest(std::istream& in);
Manifest manifest_from_string(const std::string& text);

/// Loads a manifest file; std::runtime_error if unreadable.
Manifest load_manifest(const std::string& path);

}  // namespace dalut::suite
