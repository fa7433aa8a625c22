// Machine-readable performance report for the evaluation engine.
//
// Self-times the hot per-candidate kernels old vs. new — the reference
// CostMatrix::build / opt_for_part path against the EvalWorkspace gather and
// exact incremental OptForPart (both return bit-identical results, so only
// the time differs) — plus steady-state heap allocations per call
// (counted by a global operator new hook in this binary), an end-to-end
// BS-SA / DALTA subset of the table-2 experiment with candidates/sec, and a
// telemetry-overhead comparison of the instrumented SA hot path with
// metrics + tracing off vs. on. Results go to stdout or to `--out <path>`
// (BENCH_PR2.json / BENCH_PR4.json in the repo record past PR numbers; see
// docs/performance.md to regenerate).
//
// CI runs `dalut_bench_report --micro-only --runs 1` as a smoke check.
// Exits 6 when `--out` cannot be written.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bit_cost.hpp"
#include "core/filemap.hpp"
#include "core/bssa.hpp"
#include "core/dalta.hpp"
#include "core/eval_workspace.hpp"
#include "core/opt_for_part.hpp"
#include "core/partition_opt.hpp"
#include "core/sa_search.hpp"
#include "core/two_dim_table.hpp"
#include "func/registry.hpp"
#include "hw/stream_engine.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace_writer.hpp"

// ---- Allocation counting hook -------------------------------------------
// Replaces the global allocation functions for this binary only. Counting
// is off by default so the hook costs two relaxed atomic loads per call.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

struct AllocCounter {
  static void start() {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_alloc_counting.store(true, std::memory_order_relaxed);
  }
  static std::uint64_t stop() {
    g_alloc_counting.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
  }
};

void* counted_alloc(std::size_t size) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Over-aligned form: the eval-workspace scratch buffers allocate through
// aligned_vector, which calls the align_val_t operator new — without these
// overloads those allocations would bypass the counter.
void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t padded = (std::max<std::size_t>(size, 1) + align - 1) /
                             align * align;
  if (void* p = std::aligned_alloc(align, padded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dalut;

constexpr int kExitIo = 6;

core::MultiOutputFunction make_function(const std::string& name,
                                        unsigned width) {
  const auto spec = *func::benchmark_by_name(name, width);
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

unsigned bound_size_for(unsigned width) {
  const unsigned b = (9u * width + 8) / 16;  // paper's b = 9 at n = 16
  return std::max(2u, std::min(b, width - 1));
}

/// Best-of-`runs` nanoseconds per call of `body`, which is invoked `iters`
/// times per timed run after one untimed warm-up call.
template <typename Body>
double time_ns(unsigned runs, std::size_t iters, Body&& body) {
  body();  // warm up caches and scratch buffers
  double best = 1e300;
  for (unsigned run = 0; run < std::max(1u, runs); ++run) {
    util::WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) body();
    best = std::min(best, timer.seconds() * 1e9 /
                              static_cast<double>(iters));
  }
  return best;
}

/// Steady-state allocations per call of `body` (after one warm-up call).
template <typename Body>
double allocs_per_call(std::size_t iters, Body&& body) {
  body();
  AllocCounter::start();
  for (std::size_t i = 0; i < iters; ++i) body();
  return static_cast<double>(AllocCounter::stop()) /
         static_cast<double>(iters);
}

struct MicroResult {
  std::string name;
  unsigned width = 0;
  double old_ns = 0.0;
  double new_ns = 0.0;
  double old_allocs = 0.0;
  double new_allocs = 0.0;
};

struct Table2Result {
  std::string function;
  std::string algorithm;
  unsigned width = 0;
  double med = 0.0;
  double seconds = 0.0;
  std::size_t partitions = 0;
};

std::size_t micro_iters(unsigned width) {
  // Keep each timed run in the tens of milliseconds across widths.
  return std::max<std::size_t>(3, (std::size_t{1} << 22) >> width);
}

MicroResult bench_cost_matrix(unsigned width, unsigned runs) {
  const auto g = make_function("cos", width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(1);
  const auto p = core::Partition::random(width, bound_size_for(width), rng);
  auto& workspace = core::EvalWorkspace::local();
  const std::size_t iters = micro_iters(width);

  MicroResult result{"cost_matrix", width, 0, 0, 0, 0};
  auto old_body = [&] {
    auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
    volatile double sink = matrix.cost0[0];
    (void)sink;
  };
  auto new_body = [&] {
    const core::MatrixRef matrix = workspace.full_matrix(p, costs);
    volatile double sink = matrix.get().cells[0];
    (void)sink;
  };
  result.old_ns = time_ns(runs, iters, old_body);
  result.new_ns = time_ns(runs, iters, new_body);
  result.old_allocs = allocs_per_call(iters, old_body);
  result.new_allocs = allocs_per_call(iters, new_body);
  return result;
}

MicroResult bench_opt_for_part(unsigned width, unsigned runs) {
  const auto g = make_function("cos", width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(2);
  const auto p = core::Partition::random(width, bound_size_for(width), rng);
  const auto reference = core::CostMatrix::build(p, costs.c0, costs.c1);
  auto& workspace = core::EvalWorkspace::local();
  const core::MatrixRef matrix = workspace.full_matrix(p, costs);
  const core::OptForPartParams params{30, 64};
  const std::size_t iters =
      std::max<std::size_t>(2, (std::size_t{1} << 18) >> width);

  MicroResult result{"opt_for_part", width, 0, 0, 0, 0};
  util::Rng old_rng(3);
  auto old_body = [&] {
    auto vt = core::opt_for_part(reference, params, old_rng);
    volatile double sink = vt.error;
    (void)sink;
  };
  util::Rng new_rng(3);
  auto new_body = [&] {
    auto vt = workspace.opt_for_part(matrix, params, new_rng);
    volatile double sink = vt.error;
    (void)sink;
  };
  result.old_ns = time_ns(runs, iters, old_body);
  result.new_ns = time_ns(runs, iters, new_body);
  result.old_allocs = allocs_per_call(iters, old_body);
  result.new_allocs = allocs_per_call(iters, new_body);
  return result;
}

struct TelemetryOverheadResult {
  unsigned width = 0;
  double off_ns = 0.0;
  double on_ns = 0.0;
};

TelemetryOverheadResult bench_telemetry_overhead(unsigned width,
                                                 unsigned runs) {
  // The instrumented SA hot path: find_best_settings drives OptForPart per
  // candidate and carries the sa.* counters and sweep spans. Timed with
  // telemetry off, then with metrics + tracing on; the acceptance bound on
  // the delta is < 2% (docs/observability.md).
  const auto g = make_function("cos", width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  core::SaParams params;
  params.partition_limit = 20;
  params.init_patterns = 8;
  params.chains = 3;
  auto body = [&] {
    // Fresh RNG per call: off and on time the exact same search, so the
    // delta is pure telemetry cost, not seed-dependent search variance.
    util::Rng rng(6);
    auto found = core::find_best_settings(width, bound_size_for(width), costs,
                                          3, params, rng, nullptr, false);
    volatile double sink = found.top.empty() ? 0.0 : found.top[0].error;
    (void)sink;
  };
  const std::size_t iters = 4;

  TelemetryOverheadResult result;
  result.width = width;
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::set_tracing_enabled(false);
  result.off_ns = time_ns(runs, iters, body);
  util::telemetry::set_metrics_enabled(true);
  util::telemetry::set_tracing_enabled(true);
  result.on_ns = time_ns(runs, iters, body);
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::set_tracing_enabled(false);
  util::telemetry::reset_metrics_for_test();
  util::telemetry::reset_tracing_for_test();
  return result;
}

struct StreamMicroResult {
  unsigned width = 0;
  double scalar_ns = 0.0;   ///< simulate() per read
  double batched_ns = 0.0;  ///< stream_simulate() per read
  bool bit_identical = false;
};

StreamMicroResult bench_stream_micro(unsigned width, unsigned runs) {
  // The scalar simulate() loop vs the batched streaming kernels on an exact
  // monolithic LUT (hw/stream_engine). Both must return the same
  // SimulationReport bit for bit; only the time may differ.
  const auto g = make_function("cos", width);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const hw::Technology tech = hw::Technology::nangate45();
  const hw::MonolithicLut lut(width, g.num_outputs(), contents, tech);
  const auto target = hw::make_target(lut, g.num_outputs());

  util::Rng rng(5);
  std::vector<core::InputWord> sequence(std::size_t{1} << 16);
  for (auto& x : sequence) {
    x = static_cast<core::InputWord>(
        rng.next_below(std::uint64_t{1} << width));
  }

  StreamMicroResult result;
  result.width = width;
  hw::SimulationReport scalar_report;
  result.scalar_ns = time_ns(runs, 4, [&] {
    scalar_report = hw::simulate(target, sequence, &g, tech);
  }) / static_cast<double>(sequence.size());
  auto stream_target = hw::StreamTarget::compile(lut, g.num_outputs());
  hw::SimulationReport batched_report;
  result.batched_ns = time_ns(runs, 4, [&] {
    batched_report = hw::stream_simulate(stream_target, sequence, &g, tech);
  }) / static_cast<double>(sequence.size());
  result.bit_identical = batched_report == scalar_report;
  return result;
}

std::vector<Table2Result> bench_table2(unsigned width, unsigned runs,
                                       util::ThreadPool& pool) {
  // A subset of the table-2 function set, scaled down from the paper's
  // n = 16 / R = 5 so the end-to-end comparison finishes in seconds.
  const std::vector<std::string> functions{"cos", "exp", "ln"};
  std::vector<Table2Result> results;
  for (const auto& name : functions) {
    const auto g = make_function(name, width);
    const auto dist = core::InputDistribution::uniform(width);

    core::BssaParams bssa;
    bssa.bound_size = bound_size_for(width);
    bssa.rounds = 3;
    bssa.beam_width = 3;
    bssa.sa.partition_limit = 60;
    bssa.sa.init_patterns = 12;
    bssa.sa.chains = 3;
    bssa.seed = 1;
    bssa.pool = &pool;

    core::DaltaParams dalta;
    dalta.bound_size = bssa.bound_size;
    dalta.rounds = 3;
    dalta.partition_limit = 120;
    dalta.init_patterns = 12;
    dalta.seed = 1;
    dalta.pool = &pool;

    Table2Result bssa_row{name, "bssa", width, 0, 1e300, 0};
    Table2Result dalta_row{name, "dalta", width, 0, 1e300, 0};
    for (unsigned run = 0; run < std::max(1u, runs); ++run) {
      const auto b = core::run_bssa(g, dist, bssa);
      if (b.runtime_seconds < bssa_row.seconds) {
        bssa_row.med = b.med;
        bssa_row.seconds = b.runtime_seconds;
        bssa_row.partitions = b.partitions_evaluated;
      }
      const auto d = core::run_dalta(g, dist, dalta);
      if (d.runtime_seconds < dalta_row.seconds) {
        dalta_row.med = d.med;
        dalta_row.seconds = d.runtime_seconds;
        dalta_row.partitions = d.partitions_evaluated;
      }
    }
    results.push_back(bssa_row);
    results.push_back(dalta_row);
  }
  return results;
}

// ---- JSON emission ------------------------------------------------------

void write_json(std::FILE* out, const std::vector<MicroResult>& micro,
                const TelemetryOverheadResult& telemetry,
                const StreamMicroResult& stream,
                const std::vector<Table2Result>& table2, unsigned runs,
                bool micro_only, std::size_t workers) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"dalut-bench-report-v5\",\n");
  std::fprintf(out,
               "  \"config\": {\"runs\": %u, \"micro_only\": %s, "
               "\"pool_workers\": %zu, \"simd_isa\": \"%s\", "
               "\"simd_lanes\": %u, \"table_load\": \"%s\"},\n",
               runs, micro_only ? "true" : "false", workers,
               dalut::util::simd::isa_name(),
               static_cast<unsigned>(dalut::util::simd::kLanes),
               dalut::core::filemap_supported() ? "mmap" : "copy");

  std::fprintf(out, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micro.size(); ++i) {
    const auto& m = micro[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"width\": %u, "
                 "\"old_ns_per_call\": %.1f, \"new_ns_per_call\": %.1f, "
                 "\"speedup\": %.3f, \"old_allocs_per_call\": %.2f, "
                 "\"new_allocs_per_call\": %.2f}%s\n",
                 m.name.c_str(), m.width, m.old_ns, m.new_ns,
                 m.new_ns > 0 ? m.old_ns / m.new_ns : 0.0, m.old_allocs,
                 m.new_allocs, i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  std::fprintf(out,
               "  \"telemetry_overhead\": {\"width\": %u, "
               "\"off_ns_per_call\": %.1f, \"on_ns_per_call\": %.1f, "
               "\"overhead_percent\": %.3f},\n",
               telemetry.width, telemetry.off_ns, telemetry.on_ns,
               telemetry.off_ns > 0
                   ? 100.0 * (telemetry.on_ns - telemetry.off_ns) /
                         telemetry.off_ns
                   : 0.0);

  std::fprintf(out,
               "  \"stream\": {\"width\": %u, \"scalar_ns_per_read\": %.2f, "
               "\"batched_ns_per_read\": %.2f, \"speedup\": %.3f, "
               "\"bit_identical\": %s},\n",
               stream.width, stream.scalar_ns, stream.batched_ns,
               stream.batched_ns > 0 ? stream.scalar_ns / stream.batched_ns
                                     : 0.0,
               stream.bit_identical ? "true" : "false");

  std::fprintf(out, "  \"table2\": [\n");
  for (std::size_t i = 0; i < table2.size(); ++i) {
    const auto& t = table2[i];
    std::fprintf(out,
                 "    {\"function\": \"%s\", \"algorithm\": \"%s\", "
                 "\"width\": %u, \"med\": %.6f, \"seconds\": %.3f, "
                 "\"partitions_evaluated\": %zu, "
                 "\"candidates_per_sec\": %.1f}%s\n",
                 t.function.c_str(), t.algorithm.c_str(), t.width, t.med,
                 t.seconds, t.partitions,
                 t.seconds > 0 ? static_cast<double>(t.partitions) / t.seconds
                               : 0.0,
                 i + 1 < table2.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Times the candidate-evaluation kernels old vs. new and emits a "
      "machine-readable JSON performance report.");
  cli.add_option("out", "-", "output JSON path ('-' = stdout)");
  cli.add_option("runs", "3",
                 "timed repetitions per kernel, 1-1000 (best is kept)");
  cli.add_option("width", "12",
                 "bit width of the end-to-end table-2 subset, 3-20");
  cli.add_flag("micro-only", "skip the end-to-end table-2 subset (CI smoke)");
  if (!cli.parse(argc, argv)) return 0;

  unsigned runs = 0;
  unsigned width = 0;
  try {
    runs = static_cast<unsigned>(cli.integer_in("runs", 1, 1000));
    width = static_cast<unsigned>(cli.integer_in("width", 3, 20));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  const bool micro_only = cli.flag("micro-only");

  std::vector<MicroResult> micro;
  // Width 16 runs even under --micro-only: CI's regression smoke keys on the
  // width-16 cost_matrix row (scripts/check_bench_smoke.py).
  for (const unsigned w : {10u, 12u, 14u, 16u}) {
    micro.push_back(bench_cost_matrix(w, runs));
  }
  for (const unsigned w : {10u, 12u, 14u}) {
    micro.push_back(bench_opt_for_part(w, runs));
  }

  const TelemetryOverheadResult telemetry = bench_telemetry_overhead(10, runs);

  // Runs under --micro-only too: CI's smoke keys on bit_identical.
  const StreamMicroResult stream = bench_stream_micro(12, runs);

  std::vector<Table2Result> table2;
  std::size_t workers = 0;
  if (!micro_only) {
    util::ThreadPool pool;
    workers = pool.worker_count();
    table2 = bench_table2(width, runs, pool);
  }

  for (const auto& m : micro) {
    std::fprintf(stderr, "%-14s n=%-2u  old %10.0f ns  new %10.0f ns  x%.2f\n",
                 m.name.c_str(), m.width, m.old_ns, m.new_ns,
                 m.new_ns > 0 ? m.old_ns / m.new_ns : 0.0);
  }
  std::fprintf(stderr, "stream         n=%-2u  scalar %7.2f ns/read  batched %7.2f ns/read  x%.2f  identical=%s\n",
               stream.width, stream.scalar_ns, stream.batched_ns,
               stream.batched_ns > 0 ? stream.scalar_ns / stream.batched_ns
                                     : 0.0,
               stream.bit_identical ? "yes" : "NO");
  std::fprintf(stderr, "telemetry      n=%-2u  off %10.0f ns  on  %10.0f ns  %+.2f%%\n",
               telemetry.width, telemetry.off_ns, telemetry.on_ns,
               telemetry.off_ns > 0
                   ? 100.0 * (telemetry.on_ns - telemetry.off_ns) /
                         telemetry.off_ns
                   : 0.0);

  const std::string out_path = cli.str("out");
  std::FILE* out =
      out_path == "-" ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  write_json(out, micro, telemetry, stream, table2, runs, micro_only,
             workers);
  if (!util::close_text_artifact(out, out_path, "bench report")) {
    return kExitIo;
  }
  if (out != stdout) std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
