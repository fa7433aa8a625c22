// Fig. 5: normalized MED / area / latency / energy of the five
// architectures - RoundOut, RoundIn, DALTA, BTO-Normal, BTO-Normal-ND -
// geometric means over the benchmark suite, normalized to DALTA.
//
// Configuration follows Sec. V-B: DALTA uses its own algorithm's best of
// `runs` runs; BTO-Normal and BTO-Normal-ND run BS-SA once (its stability
// makes repeats unnecessary); RoundOut picks the smallest q whose MED
// exceeds DALTA's; RoundIn drops w input bits (6 of 16 in the paper, scaled
// proportionally) and stores block medians. Energy is averaged over 1024
// random reads through the simulator.
#include <array>
#include <cstdio>
#include <limits>
#include <vector>

#include "baseline/round_in.hpp"
#include "baseline/round_out.hpp"
#include "bench_common.hpp"
#include "core/evaluate.hpp"
#include "hw/simulator.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr std::size_t kArchCount = 5;
const char* kArchNames[kArchCount] = {"RoundOut", "RoundIn", "DALTA",
                                      "BTO-Normal", "BTO-Normal-ND"};

struct Metrics {
  double med = 0.0;
  double area = 0.0;
  double delay = 0.0;
  double energy = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dalut;

  util::CliParser cli(
      "Fig. 5 - performance of the reconfigurable hardware architectures");
  bench::add_scale_options(cli);
  cli.add_option("reads", "1024", "random reads for energy measurement");
  cli.add_option("delta", "0.01", "mode selection factor delta");
  cli.add_option("delta-prime", "0.1", "mode selection factor delta'");
  cli.add_flag("detail", "print per-benchmark absolute metrics");
  cli.add_option("csv", "", "also write normalized geomeans to this file");
  if (!cli.parse(argc, argv)) return 0;

  auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed_base = scale.job.seed;
  const auto reads = static_cast<std::size_t>(
      bench::integer_flag(cli, "reads", 1, std::int64_t{1} << 26));
  constexpr double kHuge = std::numeric_limits<double>::max();
  scale.job.delta = bench::real_flag(cli, "delta", 0.0, kHuge);
  scale.job.delta_prime = bench::real_flag(cli, "delta-prime", 0.0, kHuge);
  // Paper: fixed w = 6 at n = 16, chosen so RoundIn's MED is comparable to
  // (slightly above) the decomposition architectures'. At full scale we use
  // that value; at reduced scale the same intent is implemented per
  // benchmark: the smallest w whose MED exceeds DALTA's.
  const bool fixed_round_in = cli.flag("full");
  // The paper runs BS-SA once, relying on its full-scale stability
  // (Table II stdev ~0.3). At reduced budgets that stability shrinks, so
  // the scaled harness gives BS-SA the same best-of-runs protocol as DALTA;
  // --full restores the paper's single-run protocol.
  const unsigned bssa_runs = cli.flag("full") ? 1 : scale.runs;
  const auto tech = hw::Technology::nangate45();

  std::printf("=== Fig. 5: architecture comparison ===\n");
  bench::print_scale(scale);

  std::array<std::vector<double>, kArchCount> med, area, delay, energy;

  for (const auto& spec : func::benchmark_suite(scale.job.width)) {
    const auto g = bench::materialize(spec);
    const unsigned n = g.num_inputs();
    const unsigned m = g.num_outputs();
    const auto dist = core::InputDistribution::uniform(n);
    util::Rng sim_rng(seed_base + 17);

    auto measure_system = [&](const hw::ApproxLutSystem& system,
                              const std::vector<core::OutputWord>& values) {
      Metrics metrics;
      metrics.med = core::mean_error_distance(g, values, dist);
      const auto cost = system.cost();
      metrics.area = cost.area;
      metrics.delay = cost.delay;
      const auto reference = core::MultiOutputFunction(n, m, values);
      const auto report = hw::simulate_random(
          hw::make_target(system), reads, n, &reference, tech, sim_rng);
      if (report.mismatches != 0) {
        std::fprintf(stderr, "FATAL: functional mismatch in %s\n", spec.name.c_str());
        return metrics;
      }
      metrics.energy = report.avg_read_energy;
      return metrics;
    };
    auto measure_monolithic = [&](const hw::MonolithicLut& lut,
                                  const std::vector<core::OutputWord>& values) {
      Metrics metrics;
      metrics.med = core::mean_error_distance(g, values, dist);
      const auto cost = lut.cost();
      metrics.area = cost.area;
      metrics.delay = cost.delay;
      const auto report = hw::simulate_random(hw::make_target(lut, m), reads,
                                              n, nullptr, tech, sim_rng);
      metrics.energy = report.avg_read_energy;
      return metrics;
    };

    // The best of `runs` searches of one job, realized on `kind`: DALTA
    // runs its own algorithm; BTO-Normal and BTO-Normal-ND run BS-SA (see
    // the bssa_runs note above).
    auto measure_best = [&](const char* algorithm, const char* arch,
                            hw::ArchKind kind, unsigned runs) {
      core::DecompositionResult best;
      best.med = 1e300;
      for (unsigned run = 0; run < runs; ++run) {
        auto job = scale.run(algorithm, seed_base + run);
        job.arch = arch;
        auto result = suite::run_search(job, g, dist, {&pool});
        if (result.med < best.med) best = std::move(result);
      }
      const auto lut = best.realize(n);
      return measure_system(hw::ApproxLutSystem(kind, lut, tech),
                            lut.values());
    };
    const Metrics m_dalta =
        measure_best("dalta", "dalta", hw::ArchKind::kDalta, scale.runs);
    const Metrics m_bto = measure_best("bssa", "bto-normal",
                                       hw::ArchKind::kBtoNormal, bssa_runs);
    const Metrics m_nd = measure_best("bssa", "bto-normal-nd",
                                      hw::ArchKind::kBtoNormalNd, bssa_runs);

    // --- RoundOut: smallest q with MED above DALTA's. ---
    const unsigned q =
        baseline::RoundOut::choose_q(g, dist, m_dalta.med);
    const baseline::RoundOut round_out(g, q);
    std::vector<std::uint32_t> ro_contents(g.domain_size());
    for (core::InputWord x = 0; x < g.domain_size(); ++x) {
      ro_contents[x] = g.value(x) >> q;
    }
    const hw::MonolithicLut ro_lut(n, m - q, ro_contents, tech, 0, q);
    const Metrics m_ro = measure_monolithic(ro_lut, round_out.values());

    // --- RoundIn: drop w input LSBs, store block medians. ---
    unsigned round_in_w = 6;
    if (!fixed_round_in) {
      for (round_in_w = 1; round_in_w < n - 1; ++round_in_w) {
        const baseline::RoundIn trial(g, round_in_w);
        if (core::mean_error_distance(g, trial.values(), dist) >
            m_dalta.med) {
          break;
        }
      }
    }
    const baseline::RoundIn round_in(g, round_in_w);
    std::vector<std::uint32_t> ri_contents(round_in.table_entries());
    for (std::size_t i = 0; i < ri_contents.size(); ++i) {
      ri_contents[i] = round_in.eval(
          static_cast<core::InputWord>(i << round_in_w));
    }
    const hw::MonolithicLut ri_lut(n - round_in_w, m, ri_contents, tech,
                                   round_in_w, 0);
    const Metrics m_ri = measure_monolithic(ri_lut, round_in.values());

    const Metrics all[kArchCount] = {m_ro, m_ri, m_dalta, m_bto, m_nd};
    for (std::size_t a = 0; a < kArchCount; ++a) {
      med[a].push_back(all[a].med);
      area[a].push_back(all[a].area);
      delay[a].push_back(all[a].delay);
      energy[a].push_back(all[a].energy);
    }

    if (cli.flag("detail")) {
      std::printf("--- %s (q=%u, w=%u) ---\n", spec.name.c_str(), q,
                  round_in_w);
      util::TablePrinter detail(
          {"architecture", "MED", "area(um^2)", "delay(ns)", "energy(fJ)"});
      for (std::size_t a = 0; a < kArchCount; ++a) {
        detail.add_row({kArchNames[a], util::TablePrinter::fmt(all[a].med),
                        util::TablePrinter::fmt(all[a].area, 0),
                        util::TablePrinter::fmt(all[a].delay, 3),
                        util::TablePrinter::fmt(all[a].energy, 0)});
      }
      detail.print();
    } else {
      std::printf("done: %-11s (RoundOut q=%u, RoundIn w=%u)\n",
                  spec.name.c_str(), q, round_in_w);
    }
  }

  // --- Fig. 5 bars: geomeans normalized to DALTA (index 2). ---
  std::printf("\n=== normalized geometric means (DALTA = 1.0) ===\n");
  util::TablePrinter table({"architecture", "MED", "area", "latency",
                            "energy"});
  const double med0 = util::geomean(med[2], 1e-3);
  const double area0 = util::geomean(area[2]);
  const double delay0 = util::geomean(delay[2]);
  const double energy0 = util::geomean(energy[2]);
  for (std::size_t a = 0; a < kArchCount; ++a) {
    table.add_row(
        {kArchNames[a],
         util::TablePrinter::fmt(util::geomean(med[a], 1e-3) / med0, 3),
         util::TablePrinter::fmt(util::geomean(area[a]) / area0, 3),
         util::TablePrinter::fmt(util::geomean(delay[a]) / delay0, 3),
         util::TablePrinter::fmt(util::geomean(energy[a]) / energy0, 3)});
  }
  table.print();
  std::printf(
      "\npaper, full scale: BTO-Normal -10.4%% MED / -19.2%% energy vs "
      "DALTA;\nBTO-Normal-ND -23.0%% MED at ~same energy, +29%% area.\n");

  if (const auto path = cli.str("csv"); !path.empty()) {
    util::CsvWriter csv(path);
    csv.write_row({"architecture", "med", "area", "latency", "energy"});
    for (std::size_t a = 0; a < kArchCount; ++a) {
      csv.write_row(
          {kArchNames[a],
           util::CsvWriter::field(util::geomean(med[a], 1e-3) / med0),
           util::CsvWriter::field(util::geomean(area[a]) / area0),
           util::CsvWriter::field(util::geomean(delay[a]) / delay0),
           util::CsvWriter::field(util::geomean(energy[a]) / energy0)});
    }
    std::printf("wrote normalized series to %s\n", path.c_str());
  }
  return 0;
}
