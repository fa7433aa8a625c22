// Table I: the benchmark suite. Prints the paper's benchmark listing plus
// derived statistics (exact-LUT storage, output range usage) that the other
// harnesses build on.
#include <cstdio>

#include "bench_common.hpp"
#include "core/evaluate.hpp"
#include "util/table_printer.hpp"

int main(int argc, char** argv) {
  using namespace dalut;

  util::CliParser cli(
      "Table I - benchmarks used in the experiments (continuous functions "
      "from ApproxLUT, non-continuous from AxBench)");
  cli.add_option("width", "16", "function bit width");
  if (!cli.parse(argc, argv)) return 0;
  const auto width =
      static_cast<unsigned>(bench::integer_flag(cli, "width", 3, 20));

  std::printf("=== Table I: benchmarks (width = %u) ===\n\n", width);
  util::TablePrinter table({"benchmark", "type", "domain", "range", "#input",
                            "#output", "exact LUT bits"});
  for (const auto& spec : func::benchmark_suite(width)) {
    const auto g = bench::materialize(spec);
    const double exact_bits =
        static_cast<double>(g.domain_size()) * spec.num_outputs;
    table.add_row({spec.name, spec.continuous ? "continuous" : "non-cont.",
                   spec.domain, spec.range, std::to_string(spec.num_inputs),
                   std::to_string(spec.num_outputs),
                   util::TablePrinter::fmt(exact_bits, 0)});
  }
  table.print();

  std::printf(
      "\nA direct LUT needs 2^n entries; the decomposition-based\n"
      "architectures store 2^b + 2^(n-b+1) entries per output bit instead\n"
      "(Sec. II-B), e.g. %u + %u per bit at the paper's n=16, b=9.\n",
      1u << 9, 1u << 8);
  return 0;
}
