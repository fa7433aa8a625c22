// Ablation: input-distribution awareness.
//
// The MED is defined under an input occurrence distribution p_X; the paper's
// experiments assume uniform inputs, but the whole optimization pipeline
// accepts arbitrary distributions. This harness applies a truncated-Gaussian
// input profile (as produced by e.g. sensor front-ends) and compares
//   (a) optimizing under the uniform assumption, evaluated on the true
//       distribution, against
//   (b) optimizing under the true distribution directly,
// quantifying the MED a deployment leaves on the table by ignoring its
// input statistics.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dalut;

/// Truncated Gaussian centred at `centre` (fraction of the domain) with
/// sigma = `sigma_fraction` of the domain.
core::InputDistribution gaussian_inputs(unsigned num_inputs, double centre,
                                        double sigma_fraction) {
  const std::size_t domain = std::size_t{1} << num_inputs;
  const double mu = centre * static_cast<double>(domain - 1);
  const double sigma = sigma_fraction * static_cast<double>(domain);
  std::vector<double> weights(domain);
  for (std::size_t x = 0; x < domain; ++x) {
    const double z = (static_cast<double>(x) - mu) / sigma;
    weights[x] = std::exp(-0.5 * z * z);
  }
  return core::InputDistribution::from_weights(num_inputs,
                                               std::move(weights));
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Input-distribution ablation: uniform-assumed vs distribution-aware "
      "optimization under a truncated-Gaussian input profile");
  bench::add_scale_options(cli);
  cli.add_option("centre", "0.3", "Gaussian centre (fraction of domain)");
  cli.add_option("sigma", "0.15", "Gaussian sigma (fraction of domain)");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed = scale.job.seed;
  const double centre = bench::real_flag(cli, "centre", 0.0, 1.0);
  const double sigma = bench::real_flag(cli, "sigma", 0.001, 10.0);

  std::printf("=== Input-distribution ablation (Gaussian centre=%.2f "
              "sigma=%.2f) ===\n",
              centre, sigma);
  bench::print_scale(scale);

  util::TablePrinter table({"benchmark", "uniform-opt MED", "aware-opt MED",
                            "improvement"});
  std::vector<double> ratios;

  for (const auto& spec : func::benchmark_suite(scale.job.width)) {
    const auto g = bench::materialize(spec);
    const auto uniform = core::InputDistribution::uniform(g.num_inputs());
    const auto gaussian = gaussian_inputs(g.num_inputs(), centre, sigma);

    // Best of `runs` to damp optimizer noise - same protocol on both arms.
    double uniform_opt = 1e300;
    double aware_opt = 1e300;
    for (unsigned run = 0; run < scale.runs; ++run) {
      const auto job = scale.run("bssa", seed + run);
      const auto blind = suite::run_search(job, g, uniform, {&pool});
      uniform_opt = std::min(
          uniform_opt,
          core::mean_error_distance(
              g, blind.realize(g.num_inputs()).values(), gaussian));
      const auto aware = suite::run_search(job, g, gaussian, {&pool});
      aware_opt = std::min(aware_opt, aware.med);
    }
    const double ratio = aware_opt / std::max(uniform_opt, 1e-12);
    ratios.push_back(ratio);
    table.add_row({spec.name, util::TablePrinter::fmt(uniform_opt, 3),
                   util::TablePrinter::fmt(aware_opt, 3),
                   util::TablePrinter::fmt(100.0 * (1.0 - ratio), 1) + "%"});
  }
  table.print();
  std::printf("\ngeomean MED reduction from distribution awareness: %.1f%%\n",
              100.0 * (1.0 - util::geomean(ratios, 1e-6)));
  return 0;
}
