// Shared helpers for the experiment harnesses (bench_table*/bench_fig*).
//
// The paper's experiments run 16-bit functions with b = 9, P = 1000 (DALTA)
// / 500 (BS-SA), Z = 30, R = 5, 10 runs on a 48-core machine. The default
// harness scale is reduced so the whole suite regenerates in minutes on one
// core; `--full` restores the paper's parameters. Partition budgets scale
// with the partition-space size C(width, b) to keep the algorithms' relative
// coverage comparable to the paper's.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/bssa.hpp"
#include "core/dalta.hpp"
#include "func/registry.hpp"
#include "util/cli.hpp"

namespace dalut::bench {

inline core::MultiOutputFunction materialize(const func::FunctionSpec& spec) {
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

/// Paper bound-set fraction: b = 9 at n = 16.
inline unsigned default_bound_size(unsigned width) {
  const unsigned b = (9u * width + 8) / 16;
  return std::max(2u, std::min(b, width - 1));
}

inline double binomial(unsigned n, unsigned k) {
  double result = 1.0;
  for (unsigned i = 0; i < k; ++i) {
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return result;
}

struct ExperimentScale {
  unsigned width = 12;
  unsigned bound_size = 7;
  unsigned rounds = 3;
  unsigned init_patterns = 12;   ///< Z
  unsigned dalta_partitions = 70;
  unsigned bssa_partitions = 35;
  unsigned beam_width = 3;
  unsigned chains = 3;
  unsigned runs = 3;
};

/// Registers the scale-related options every harness shares.
inline void add_scale_options(util::CliParser& cli) {
  cli.add_option("width", "12", "function bit width (16 = paper scale)");
  cli.add_option("runs", "3", "independent runs per algorithm");
  cli.add_option("rounds", "3", "optimization rounds R");
  cli.add_option("seed", "1", "base random seed");
  cli.add_flag("full", "paper-scale parameters (width 16, R=5, 10 runs)");
}

/// Resolves the scale from CLI options (applying --full overrides). Exits
/// with status 2 and an error naming the flag when --width (3..20), --runs
/// or --rounds (1..1000) is out of range or malformed, or is given together
/// with --full, which fixes all three.
inline ExperimentScale resolve_scale(const util::CliParser& cli) {
  ExperimentScale scale;
  try {
    if (cli.flag("full")) {
      for (const char* name : {"width", "runs", "rounds"}) {
        if (cli.given(name)) {
          throw std::invalid_argument(
              std::string("--") + name +
              " cannot be combined with --full (width 16, R = 5, 10 runs)");
        }
      }
      scale.width = 16;
      scale.rounds = 5;
      scale.runs = 10;
      scale.init_patterns = 30;
      scale.dalta_partitions = 1000;
      scale.bssa_partitions = 500;
      scale.chains = 10;
    } else {
      scale.width = static_cast<unsigned>(cli.integer_in("width", 3, 20));
      scale.runs = static_cast<unsigned>(cli.integer_in("runs", 1, 1000));
      scale.rounds = static_cast<unsigned>(cli.integer_in("rounds", 1, 1000));
      scale.bound_size = default_bound_size(scale.width);
      // Match the paper's coverage of the partition space:
      // 1000 / C(16,9) = 8.7% for DALTA, half that for BS-SA.
      const double space = binomial(scale.width, scale.bound_size);
      scale.dalta_partitions = static_cast<unsigned>(
          std::min(1000.0, std::max(20.0, std::round(0.087 * space))));
      scale.bssa_partitions = std::max(10u, scale.dalta_partitions / 2);
    }
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
  scale.bound_size = default_bound_size(scale.width);
  return scale;
}

inline core::DaltaParams dalta_params(const ExperimentScale& scale,
                                      std::uint64_t seed,
                                      util::ThreadPool* pool = nullptr) {
  core::DaltaParams params;
  params.bound_size = scale.bound_size;
  params.rounds = scale.rounds;
  params.partition_limit = scale.dalta_partitions;
  params.init_patterns = scale.init_patterns;
  params.seed = seed;
  params.pool = pool;
  return params;
}

inline core::BssaParams bssa_params(const ExperimentScale& scale,
                                    std::uint64_t seed,
                                    util::ThreadPool* pool = nullptr) {
  core::BssaParams params;
  params.bound_size = scale.bound_size;
  params.rounds = scale.rounds;
  params.beam_width = scale.beam_width;
  params.sa.partition_limit = scale.bssa_partitions;
  params.sa.init_patterns = scale.init_patterns;
  params.sa.chains = scale.chains;
  params.seed = seed;
  params.pool = pool;
  return params;
}

inline void print_scale(const ExperimentScale& scale) {
  std::printf(
      "scale: width=%u bound_size=%u rounds=%u Z=%u P(DALTA)=%u P(BS-SA)=%u "
      "beams=%u chains=%u runs=%u\n\n",
      scale.width, scale.bound_size, scale.rounds, scale.init_patterns,
      scale.dalta_partitions, scale.bssa_partitions, scale.beam_width,
      scale.chains, scale.runs);
}

}  // namespace dalut::bench
