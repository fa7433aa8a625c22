// Fig. 6: accuracy-energy trade-off of cos(x) on BTO-Normal-ND.
//
// For each output bit the harness derives the three mode candidates
// (BTO / normal / ND) around the BS-SA solution, then walks the greedy
// upgrade frontier (core::greedy_frontier) from the all-BTO (cheapest)
// configuration to the all-ND (most accurate) one, printing MED and
// per-read energy for every configuration together with the
// (#BTO, #Normal, #ND) label the paper annotates. The DALTA implementation
// serves as the reference point; the paper reports 6 consecutive
// configurations dominating it.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/bit_cost.hpp"
#include "core/config_sweep.hpp"
#include "core/partition_opt.hpp"
#include "core/sa_search.hpp"
#include "hw/architectures.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dalut;

double unit_energy(const core::Setting& setting, unsigned n,
                   const hw::Technology& tech) {
  const hw::ApproxLutUnit unit(hw::ArchKind::kBtoNormalNd,
                               core::DecomposedBit::realize(setting), n,
                               tech);
  return unit.read_energy();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Fig. 6 - accuracy-energy trade-off of cos(x) on the "
                      "BTO-Normal-ND architecture");
  bench::add_scale_options(cli);
  cli.add_option("benchmark", "cos", "function to sweep");
  cli.add_option("csv", "", "also write the frontier series to this file");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed = scale.job.seed;
  const auto tech = hw::Technology::nangate45();

  const auto spec_opt =
      func::benchmark_by_name(cli.str("benchmark"), scale.job.width);
  if (!spec_opt) {
    std::fprintf(stderr, "unknown benchmark '%s'\n",
                 cli.str("benchmark").c_str());
    return 1;
  }
  const auto g = bench::materialize(*spec_opt);
  const unsigned n = g.num_inputs();
  const unsigned m = g.num_outputs();
  const auto dist = core::InputDistribution::uniform(n);

  std::printf("=== Fig. 6: accuracy-energy trade-off of %s ===\n",
              spec_opt->name.c_str());
  bench::print_scale(scale);

  // DALTA reference point.
  core::DecompositionResult dalta;
  dalta.med = 1e300;
  for (unsigned run = 0; run < scale.runs; ++run) {
    auto result =
        suite::run_search(scale.run("dalta", seed + run), g, dist, {&pool});
    if (result.med < dalta.med) dalta = std::move(result);
  }
  const hw::ApproxLutSystem dalta_system(hw::ArchKind::kDalta,
                                         dalta.realize(n), tech);
  const double dalta_energy = dalta_system.cost().read_energy;
  std::printf("DALTA reference: MED=%.3f energy=%.0f fJ/read\n\n", dalta.med,
              dalta_energy);

  // BS-SA solution as the anchor for the per-bit mode candidates.
  auto params = suite::bssa_params(scale.run("bssa", seed), n);
  params.pool = &pool;
  const auto anchor = core::run_bssa(g, dist, params);
  auto cache = anchor.realize(n).values();

  std::vector<core::ModeCandidates> candidates(m);
  std::vector<std::array<double, 3>> energies(m);
  util::Rng rng(seed + 99);
  const core::OptForPartParams opt_params{params.sa.init_patterns, 64};
  for (unsigned k = 0; k < m; ++k) {
    const auto costs = core::build_bit_costs(
        g, cache, k, core::LsbModel::kCurrentApprox, dist);
    const auto found =
        core::find_best_settings(n, params.bound_size, costs, 4, params.sa,
                                 rng, &pool, /*track_bto=*/true);
    core::Setting normal = found.top.front();
    core::Setting bto = found.top_bto.front();
    core::Setting nd;
    for (const auto& top : found.top) {
      auto trial =
          core::optimize_nondisjoint(top.partition, costs, opt_params, rng);
      if (trial.error < nd.error) nd = std::move(trial);
    }
    // The fresh search can miss the anchor's (known good) routing; evaluate
    // every mode there too so no candidate is worse than the anchor's.
    const auto& anchor_p = anchor.settings[k].partition;
    auto a_normal = core::optimize_normal(anchor_p, costs, opt_params, rng);
    if (a_normal.error < normal.error) normal = std::move(a_normal);
    auto a_bto = core::optimize_bto(anchor_p, costs);
    if (a_bto.error < bto.error) bto = std::move(a_bto);
    auto a_nd = core::optimize_nondisjoint(anchor_p, costs, opt_params, rng);
    if (a_nd.error < nd.error) nd = std::move(a_nd);

    energies[k] = {unit_energy(bto, n, tech), unit_energy(normal, n, tech),
                   unit_energy(nd, n, tech)};
    candidates[k].by_level = {std::move(bto), std::move(normal),
                              std::move(nd)};
  }

  core::ConfigSweep sweep(g, dist, std::move(candidates),
                          std::move(energies));
  const auto frontier = core::greedy_frontier(sweep);

  util::TablePrinter table({"#BTO", "#Normal", "#ND", "MED", "MED/DALTA",
                            "energy(fJ)", "energy/DALTA", "dominates DALTA"});
  int dominating = 0;
  for (const auto& point : frontier) {
    const bool dominates =
        point.med <= dalta.med && point.cost <= dalta_energy;
    if (dominates) ++dominating;
    table.add_row(
        {std::to_string(point.mode_counts[0]),
         std::to_string(point.mode_counts[1]),
         std::to_string(point.mode_counts[2]),
         util::TablePrinter::fmt(point.med, 3),
         util::TablePrinter::fmt(point.med / dalta.med, 3),
         util::TablePrinter::fmt(point.cost, 0),
         util::TablePrinter::fmt(point.cost / dalta_energy, 3),
         dominates ? "yes" : ""});
  }
  table.print();
  std::printf(
      "\n%d configurations dominate the DALTA reference (paper: 6 at full "
      "scale).\n",
      dominating);

  if (const auto path = cli.str("csv"); !path.empty()) {
    util::CsvWriter csv(path);
    csv.write_row({"n_bto", "n_normal", "n_nd", "med", "energy_fj",
                   "dalta_med", "dalta_energy_fj"});
    for (const auto& point : frontier) {
      csv.write_row({std::to_string(point.mode_counts[0]),
                     std::to_string(point.mode_counts[1]),
                     std::to_string(point.mode_counts[2]),
                     util::CsvWriter::field(point.med),
                     util::CsvWriter::field(point.cost),
                     util::CsvWriter::field(dalta.med),
                     util::CsvWriter::field(dalta_energy)});
    }
    std::printf("wrote frontier series to %s\n", path.c_str());
  }
  return 0;
}
