// Table II: DALTA's algorithm vs BS-SA - min / avg / stdev of MED and
// average runtime over repeated independent runs, with geometric means.
//
// Paper reference (16-bit, 10 runs, 44 threads): BS-SA reduces the minimum
// MED by 11.1% and the stdev by 97.1% at half of DALTA's runtime. The
// default harness runs a scaled-down configuration (see bench_common.hpp);
// pass --full for the paper's parameters (about half an hour for the whole
// table on a 4-vCPU host).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace dalut;

  util::CliParser cli("Table II - comparison of DALTA's algorithm and BS-SA");
  bench::add_scale_options(cli);
  cli.add_option("benchmarks", "", "comma-separated subset (default: all)");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed_base = scale.job.seed;
  const std::string only = cli.str("benchmarks");

  std::printf("=== Table II: DALTA vs BS-SA (MED over %u runs) ===\n",
              scale.runs);
  bench::print_scale(scale);

  util::TablePrinter table({"benchmark", "DALTA Min", "DALTA Avg",
                            "DALTA Stdev", "DALTA Time(s)", "BS-SA Min",
                            "BS-SA Avg", "BS-SA Stdev", "BS-SA Time(s)"});

  struct Row {
    double d_min, d_avg, d_sd, d_t, b_min, b_avg, b_sd, b_t;
  };
  std::vector<Row> rows;

  for (const auto& spec : func::benchmark_suite(scale.job.width)) {
    if (!only.empty() && only.find(spec.name) == std::string::npos) continue;
    const auto g = bench::materialize(spec);
    const auto dist = core::InputDistribution::uniform(g.num_inputs());

    util::RunningStats dalta_med, bssa_med;
    double dalta_time = 0.0;
    double bssa_time = 0.0;
    for (unsigned run = 0; run < scale.runs; ++run) {
      const std::uint64_t seed = seed_base + 1000 * run;
      const auto d =
          suite::run_search(scale.run("dalta", seed), g, dist, {&pool});
      dalta_med.add(d.med);
      dalta_time += d.runtime_seconds;
      const auto b =
          suite::run_search(scale.run("bssa", seed), g, dist, {&pool});
      bssa_med.add(b.med);
      bssa_time += b.runtime_seconds;
    }
    const Row row{dalta_med.min(),
                  dalta_med.mean(),
                  dalta_med.stdev(),
                  dalta_time / scale.runs,
                  bssa_med.min(),
                  bssa_med.mean(),
                  bssa_med.stdev(),
                  bssa_time / scale.runs};
    rows.push_back(row);
    table.add_row({spec.name, util::TablePrinter::fmt(row.d_min),
                   util::TablePrinter::fmt(row.d_avg),
                   util::TablePrinter::fmt(row.d_sd),
                   util::TablePrinter::fmt(row.d_t, 3),
                   util::TablePrinter::fmt(row.b_min),
                   util::TablePrinter::fmt(row.b_avg),
                   util::TablePrinter::fmt(row.b_sd),
                   util::TablePrinter::fmt(row.b_t, 3)});
  }

  if (rows.size() > 1) {
    auto column = [&](double Row::* member) {
      std::vector<double> values;
      values.reserve(rows.size());
      for (const auto& row : rows) values.push_back(row.*member);
      return util::geomean(values, 1e-3);
    };
    const double d_min = column(&Row::d_min);
    const double b_min = column(&Row::b_min);
    const double d_sd = column(&Row::d_sd);
    const double b_sd = column(&Row::b_sd);
    const double d_t = column(&Row::d_t);
    const double b_t = column(&Row::b_t);
    table.add_separator();
    table.add_row({"GEOMEAN", util::TablePrinter::fmt(d_min),
                   util::TablePrinter::fmt(column(&Row::d_avg)),
                   util::TablePrinter::fmt(d_sd),
                   util::TablePrinter::fmt(d_t, 3),
                   util::TablePrinter::fmt(b_min),
                   util::TablePrinter::fmt(column(&Row::b_avg)),
                   util::TablePrinter::fmt(b_sd),
                   util::TablePrinter::fmt(b_t, 3)});
    table.print();
    std::printf(
        "\nBS-SA vs DALTA: min MED %+.1f%%, stdev %+.1f%%, runtime x%.2f\n"
        "(paper, full scale: -11.1%% min MED, -97.1%% stdev, x0.45 runtime)\n",
        100.0 * (b_min / d_min - 1.0), 100.0 * (b_sd / d_sd - 1.0),
        b_t / d_t);
  } else {
    table.print();
  }
  return 0;
}
