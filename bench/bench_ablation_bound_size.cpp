// Ablation: bound-set size b.
//
// The paper fixes b = 9 at n = 16 (the storage-minimizing split is around
// b = (n+1)/2; larger b gives phi more inputs and usually less error).
// This harness sweeps b over the benchmark suite and reports the
// accuracy / storage / energy trade-off, showing where the paper's 9/16
// ratio sits on the curve.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "core/bound_size.hpp"
#include "hw/lut_ram.hpp"
#include "hw/routing_box.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace dalut;

  util::CliParser cli(
      "Bound-set size ablation: accuracy vs storage vs energy across b");
  bench::add_scale_options(cli);
  cli.add_option("min-bound", "4", "smallest b to probe");
  cli.add_option("max-bound", "0", "largest b to probe (0 = n-3)");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed = scale.job.seed;
  const auto tech = hw::Technology::nangate45();

  const unsigned n = scale.job.width;
  const unsigned lo =
      static_cast<unsigned>(bench::integer_flag(cli, "min-bound", 2, n - 2));
  const unsigned hi_opt =
      static_cast<unsigned>(bench::integer_flag(cli, "max-bound", 0, n - 2));
  const unsigned hi = hi_opt == 0 ? n - 3 : hi_opt;

  std::printf("=== bound-set size ablation (paper: b = 9 at n = 16, i.e. "
              "b/n = 0.56) ===\n");
  bench::print_scale(scale);

  std::map<unsigned, std::vector<double>> med_by_bound;
  for (const auto& spec : func::benchmark_suite(n)) {
    const auto g = bench::materialize(spec);
    const auto dist = core::InputDistribution::uniform(n);

    core::BoundSweepParams sweep;
    sweep.min_bound = lo;
    sweep.max_bound = hi;
    sweep.probe = suite::bssa_params(scale.run("bssa", seed), n);
    sweep.probe.pool = &pool;
    const auto probes = core::sweep_bound_sizes(g, dist, sweep);
    std::printf("%-11s", spec.name.c_str());
    for (const auto& probe : probes) {
      med_by_bound[probe.bound_size].push_back(probe.med);
      std::printf("  b=%u: %.2f", probe.bound_size, probe.med);
    }
    std::printf("\n");
  }

  std::printf("\n=== geomean over the suite ===\n");
  util::TablePrinter table({"b", "b/n", "geomean MED", "entries/bit",
                            "energy(fJ)/bit"});
  for (const auto& [b, meds] : med_by_bound) {
    const std::size_t entries =
        (std::size_t{1} << b) + (std::size_t{1} << (n - b + 1));
    const hw::LutRam bound(b, 1, tech);
    const hw::LutRam free_table(n - b + 1, 1, tech);
    const hw::RoutingBox routing(n, tech);
    const double energy = routing.read_energy() + bound.read_energy(true) +
                          free_table.read_energy(true);
    table.add_row({std::to_string(b),
                   util::TablePrinter::fmt(static_cast<double>(b) / n, 2),
                   util::TablePrinter::fmt(util::geomean(meds, 1e-3), 2),
                   std::to_string(entries),
                   util::TablePrinter::fmt(energy, 0)});
  }
  table.print();
  return 0;
}
