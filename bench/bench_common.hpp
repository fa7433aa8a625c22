// Shared helpers for the experiment harnesses (bench_table*/bench_fig*).
//
// The harnesses build suite::SuiteJobs and run them, or edit the params the
// suite's builders make of them, like a manifest job or dalut_opt. The
// paper's experiments run 16-bit functions with b = 9, P = 1000 (DALTA) /
// 500 (BS-SA), Z = 30, R = 5, 10 runs on a 48-core machine. The default
// harness scale is reduced so the whole suite regenerates in minutes on one
// core; `--full` restores the paper's parameters. Partition budgets scale
// with the partition-space size C(width, b) to keep the algorithms' relative
// coverage comparable to the paper's.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "func/registry.hpp"
#include "suite/suite_runner.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace dalut::bench {

inline core::MultiOutputFunction materialize(const func::FunctionSpec& spec) {
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

inline double binomial(unsigned n, unsigned k) {
  double result = 1.0;
  for (unsigned i = 0; i < k; ++i) {
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return result;
}

struct ExperimentScale {
  /// What every run searches: width, R, Z, beams, chains and the base
  /// seed; bound 0 is suite::default_bound(width).
  suite::SuiteJob job;
  unsigned dalta_partitions = 70;
  unsigned bssa_partitions = 35;
  unsigned runs = 3;
  std::size_t threads = 0;  ///< worker threads, 0 = hardware

  /// `job` as one run of `algorithm` ("dalta" or "bssa") with that
  /// algorithm's partition budget and the run's seed.
  suite::SuiteJob run(const char* algorithm, std::uint64_t seed) const {
    suite::SuiteJob run = job;
    run.algorithm = algorithm;
    run.partitions =
        run.algorithm == "dalta" ? dalta_partitions : bssa_partitions;
    run.seed = seed;
    return run;
  }
};

/// Registers the scale-related options every harness shares.
inline void add_scale_options(util::CliParser& cli) {
  cli.add_option("width", "12", "function bit width (16 = paper scale)");
  cli.add_option("runs", "3", "independent runs per algorithm");
  cli.add_option("rounds", "3", "optimization rounds R");
  cli.add_option("seed", "1", "base random seed");
  cli.add_option("threads", "0", "worker threads (0 = hardware)");
  cli.add_flag("full", "paper-scale parameters (width 16, R=5, 10 runs)");
}

/// Exits with status 2 and the error, which names the flag, when `read`
/// (a checked CliParser getter) rejects the flag's value.
template <class Read>
auto checked_flag(Read read) -> decltype(read()) {
  try {
    return read();
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
}

/// A harness's own integer flag, in [lo, hi].
inline std::int64_t integer_flag(const util::CliParser& cli,
                                 const std::string& name, std::int64_t lo,
                                 std::int64_t hi) {
  return checked_flag([&] { return cli.integer_in(name, lo, hi); });
}

/// A harness's own real flag, in [lo, hi].
inline double real_flag(const util::CliParser& cli, const std::string& name,
                        double lo, double hi) {
  return checked_flag([&] { return cli.real_in(name, lo, hi); });
}

/// Resolves the scale from CLI options (applying --full overrides). Exits
/// with status 2 and an error naming the flag when --width (3..20), --runs
/// or --rounds (1..1000) is out of range or malformed, or is given together
/// with --full, which fixes all three; or when --threads (0..512) or
/// --seed (non-negative) is.
inline ExperimentScale resolve_scale(const util::CliParser& cli) {
  ExperimentScale scale;
  suite::SuiteJob& job = scale.job;
  checked_flag([&] {
    if (cli.flag("full")) {
      for (const char* name : {"width", "runs", "rounds"}) {
        if (cli.given(name)) {
          throw std::invalid_argument(
              std::string("--") + name +
              " cannot be combined with --full (width 16, R = 5, 10 runs)");
        }
      }
      job.width = 16;
      job.rounds = 5;
      job.patterns = 30;
      job.chains = 10;
      scale.runs = 10;
      scale.dalta_partitions = 1000;
      scale.bssa_partitions = 500;
    } else {
      job.width = static_cast<unsigned>(cli.integer_in("width", 3, 20));
      scale.runs = static_cast<unsigned>(cli.integer_in("runs", 1, 1000));
      job.rounds = static_cast<unsigned>(cli.integer_in("rounds", 1, 1000));
      // Match the paper's coverage of the partition space:
      // 1000 / C(16,9) = 8.7% for DALTA, half that for BS-SA.
      const double space =
          binomial(job.width, suite::default_bound(job.width));
      scale.dalta_partitions = static_cast<unsigned>(
          std::min(1000.0, std::max(20.0, std::round(0.087 * space))));
      scale.bssa_partitions = std::max(10u, scale.dalta_partitions / 2);
    }
    scale.threads = static_cast<std::size_t>(cli.integer_in(
        "threads", 0, static_cast<std::int64_t>(util::kMaxWorkerCount)));
    job.seed = static_cast<std::uint64_t>(cli.integer_in(
        "seed", 0, std::numeric_limits<std::int64_t>::max()));
  });
  return scale;
}

/// Prints the scale as the suite's builders resolve it.
inline void print_scale(const ExperimentScale& scale) {
  const unsigned n = scale.job.width;
  const auto dalta = suite::dalta_params(scale.run("dalta", scale.job.seed), n);
  const auto bssa = suite::bssa_params(scale.run("bssa", scale.job.seed), n);
  std::printf(
      "scale: width=%u bound_size=%u rounds=%u Z=%u P(DALTA)=%u P(BS-SA)=%u "
      "beams=%u chains=%u runs=%u\n\n",
      n, bssa.bound_size, bssa.rounds, bssa.sa.init_patterns,
      dalta.partition_limit, bssa.sa.partition_limit, bssa.beam_width,
      bssa.sa.chains, scale.runs);
}

}  // namespace dalut::bench
