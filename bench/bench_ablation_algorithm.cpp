// Ablation: where do BS-SA's gains come from?
//
// Decomposes the improvement over DALTA into its three ingredients by
// toggling each in isolation on a subset of benchmarks:
//   * first-round LSB model   - predictive (Sec. III-B) vs DALTA's
//     accurate-fill,
//   * beam search             - N_beam = 1 (greedy) vs 3 vs 5,
//   * SA multi-start          - 1 chain vs 3 vs 10 sharing the Phi budget.
// The last row runs DALTA's random-sampling search at BS-SA's partition
// budget, isolating the value of the SA walk itself.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dalut;

struct Variant {
  std::string name;
  std::function<core::DecompositionResult(
      const core::MultiOutputFunction&, const core::InputDistribution&,
      std::uint64_t)>
      run;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Algorithm ablation - contribution of the predictive model, beam "
      "search, and SA multi-start to BS-SA's improvement");
  bench::add_scale_options(cli);
  cli.add_option("benchmarks", "cos,exp,multiplier",
                 "comma-separated benchmark subset");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed_base = scale.job.seed;
  const std::string selected = cli.str("benchmarks");

  std::printf("=== Algorithm ablation ===\n");
  bench::print_scale(scale);

  auto bssa_variant = [&](auto mutate) {
    return [&, mutate](const core::MultiOutputFunction& g,
                       const core::InputDistribution& dist,
                       std::uint64_t seed) {
      auto params = suite::bssa_params(scale.run("bssa", seed), g.num_inputs());
      params.pool = &pool;
      mutate(params);
      return core::run_bssa(g, dist, params);
    };
  };

  std::vector<Variant> variants;
  variants.push_back({"BS-SA (full)", bssa_variant([](core::BssaParams&) {})});
  variants.push_back(
      {"- accurate-fill round 1", bssa_variant([](core::BssaParams& p) {
         p.first_round_model = core::LsbModel::kAccurateFill;
       })});
  variants.push_back({"- beam width 1", bssa_variant([](core::BssaParams& p) {
                        p.beam_width = 1;
                      })});
  variants.push_back({"- beam width 5", bssa_variant([](core::BssaParams& p) {
                        p.beam_width = 5;
                      })});
  variants.push_back({"- 1 SA chain", bssa_variant([](core::BssaParams& p) {
                        p.sa.chains = 1;
                      })});
  variants.push_back({"- 10 SA chains", bssa_variant([](core::BssaParams& p) {
                        p.sa.chains = 10;
                      })});
  auto dalta_variant = [&](unsigned partitions) {
    return [&, partitions](const core::MultiOutputFunction& g,
                           const core::InputDistribution& dist,
                           std::uint64_t seed) {
      auto job = scale.run("dalta", seed);
      job.partitions = partitions;
      return suite::run_search(job, g, dist, {&pool});
    };
  };
  variants.push_back({"random search @ BS-SA budget",
                      dalta_variant(scale.bssa_partitions)});
  variants.push_back({"DALTA (full budget)",
                      dalta_variant(scale.dalta_partitions)});

  util::TablePrinter table(
      {"variant", "geomean min MED", "geomean avg MED", "geomean stdev",
       "avg time(s)"});

  for (const auto& variant : variants) {
    std::vector<double> mins, avgs, stdevs;
    double total_time = 0.0;
    std::size_t total_runs = 0;
    for (const auto& spec : func::benchmark_suite(scale.job.width)) {
      if (selected.find(spec.name) == std::string::npos) continue;
      const auto g = bench::materialize(spec);
      const auto dist = core::InputDistribution::uniform(g.num_inputs());
      util::RunningStats stats;
      for (unsigned run = 0; run < scale.runs; ++run) {
        const auto result =
            variant.run(g, dist, seed_base + 1000 * run);
        stats.add(result.med);
        total_time += result.runtime_seconds;
        ++total_runs;
      }
      mins.push_back(stats.min());
      avgs.push_back(stats.mean());
      stdevs.push_back(stats.stdev());
    }
    table.add_row({variant.name,
                   util::TablePrinter::fmt(util::geomean(mins, 1e-3), 3),
                   util::TablePrinter::fmt(util::geomean(avgs, 1e-3), 3),
                   util::TablePrinter::fmt(util::geomean(stdevs, 1e-3), 3),
                   util::TablePrinter::fmt(
                       total_time / static_cast<double>(total_runs), 3)});
  }
  table.print();
  return 0;
}
