// Google-benchmark micro benchmarks for the core kernels: cost-array
// construction, cost-matrix scatter, OptForPart, the SA search, whole-domain
// realization of a setting, the served system's content swap, and the
// realized-LUT read path. These are the hot loops of both algorithms.
#include <benchmark/benchmark.h>

#include <optional>

#include "core/algorithm_common.hpp"
#include "core/bit_cost.hpp"
#include "core/bssa.hpp"
#include "core/dalta.hpp"
#include "core/eval_workspace.hpp"
#include "core/partition_opt.hpp"
#include "core/sa_search.hpp"
#include "func/registry.hpp"
#include "hw/simulator.hpp"
#include "hw/stream_engine.hpp"
#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace {

using namespace dalut;

core::MultiOutputFunction make_cos(unsigned width) {
  const auto spec = *func::benchmark_by_name("cos", width);
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

void BM_BuildBitCosts(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto cache = g.values();
  for (auto _ : state) {
    auto costs = core::build_bit_costs(g, cache, width - 1,
                                       core::LsbModel::kPredictive, dist);
    benchmark::DoNotOptimize(costs.c0.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_BuildBitCosts)->Arg(10)->Arg(12)->Arg(14);

void BM_CostMatrixScatter(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(1);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  for (auto _ : state) {
    auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
    benchmark::DoNotOptimize(matrix.cost0.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_CostMatrixScatter)->Arg(10)->Arg(12)->Arg(14)->Arg(16);

void BM_CostMatrixGather(benchmark::State& state) {
  // The EvalWorkspace replacement for BM_CostMatrixScatter: prepare() of
  // the certified arrays into thread-local scratch (int32 losses under MED,
  // int64 under MSE from width 12 on); every iteration pays the full
  // gather.
  const auto width = static_cast<unsigned>(state.range(0));
  const auto metric = state.range(1) != 0 ? core::CostMetric::kMse
                                          : core::CostMetric::kMed;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist, metric);
  util::Rng rng(1);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  auto& workspace = core::EvalWorkspace::local();
  for (auto _ : state) {
    const core::CandidateRef matrix = workspace.prepare(p, costs);
    benchmark::DoNotOptimize(&matrix);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_CostMatrixGather)
    ->ArgNames({"width", "mse"})
    ->ArgsProduct({{10, 12, 14, 16}, {0, 1}});

void BM_OptForPart(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(2);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  const auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
  for (auto _ : state) {
    auto result = core::opt_for_part(matrix, {30, 64}, rng);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_OptForPart)->Arg(10)->Arg(12)->Arg(14);

void BM_OptForPartWorkspace(benchmark::State& state) {
  // The EvalWorkspace kernel at Z restarts (12 is the dalut_opt and ledger
  // default, 30 the BM_OptForPart setting). refine=0 is BM_OptForPart's
  // problem: the MSB under first-round (kPredictive) costs, which converges
  // in one or two alternations. refine=1 is a middle bit under
  // refinement-round (kCurrentApprox) costs around a coarse approximation
  // (constant over groups of four inputs); its restarts alternate about
  // five times, as inside the searches, so it times the incremental
  // updates. mse=1 takes MSE costs, whose 2m-bit losses put widths 12 and
  // up on int64 lanes; MED stays on int32 lanes.
  const auto width = static_cast<unsigned>(state.range(0));
  const auto restarts = static_cast<unsigned>(state.range(1));
  const bool refine = state.range(2) != 0;
  const auto metric = state.range(3) != 0 ? core::CostMetric::kMse
                                          : core::CostMetric::kMed;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  std::vector<core::OutputWord> approx(g.domain_size());
  for (core::InputWord x = 0; x < approx.size(); ++x) {
    approx[x] = g.value(x & ~core::InputWord{3});
  }
  const auto costs =
      refine ? core::build_bit_costs(g, approx, width / 2,
                                     core::LsbModel::kCurrentApprox, dist,
                                     metric)
             : core::build_bit_costs(g, g.values(), width - 1,
                                     core::LsbModel::kPredictive, dist,
                                     metric);
  util::Rng rng(2);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  auto& workspace = core::EvalWorkspace::local();
  const core::CandidateRef matrix = workspace.prepare(p, costs);
  for (auto _ : state) {
    auto result = workspace.opt_for_part(matrix, {restarts, 64}, rng);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_OptForPartWorkspace)
    ->ArgNames({"width", "Z", "refine", "mse"})
    ->ArgsProduct({{10, 12, 14}, {12, 30}, {0, 1}, {0, 1}});

void BM_OptForPartBto(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  util::Rng rng(3);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  const auto matrix = core::CostMatrix::build(p, costs.c0, costs.c1);
  for (auto _ : state) {
    auto result = core::opt_for_part_bto(matrix);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_OptForPartBto)->Arg(10)->Arg(12);

void BM_FindBestSettings(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  core::SaParams params;
  params.partition_limit = static_cast<unsigned>(state.range(0));
  params.init_patterns = 8;
  params.chains = 3;
  util::Rng rng(4);
  for (auto _ : state) {
    auto result = core::find_best_settings(width, 6, costs, 3, params, rng,
                                           nullptr, false);
    benchmark::DoNotOptimize(result.top.data());
  }
}
BENCHMARK(BM_FindBestSettings)->Arg(10)->Arg(40);

void BM_TelemetryOverhead(benchmark::State& state) {
  // The instrumented SA hot path — find_best_settings drives OptForPart per
  // candidate and carries the sa.* counters and sweep spans — with telemetry
  // off (Arg 0) vs. metrics + tracing on (Arg 1). The delta between the two
  // rows is the telemetry tax; the acceptance bound is < 2%
  // (docs/observability.md).
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kPredictive, dist);
  core::SaParams params;
  params.partition_limit = 20;
  params.init_patterns = 8;
  params.chains = 3;
  const bool enabled = state.range(0) != 0;
  util::telemetry::set_metrics_enabled(enabled);
  util::telemetry::set_tracing_enabled(enabled);
  util::Rng rng(4);
  for (auto _ : state) {
    auto result = core::find_best_settings(width, 6, costs, 3, params, rng,
                                           nullptr, false);
    benchmark::DoNotOptimize(result.top.data());
  }
  util::telemetry::set_metrics_enabled(false);
  util::telemetry::set_tracing_enabled(false);
  util::telemetry::reset_metrics_for_test();
  util::telemetry::reset_tracing_for_test();
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- Parallel scaling: Arg is the pool worker count (0 = no pool). ----
// Run with several Args to measure speedup; results are bit-identical
// across worker counts by the determinism contract (docs/parallelism.md).

void BM_BuildBitCostsParallel(benchmark::State& state) {
  const unsigned width = 16;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto cache = g.values();
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::optional<util::ThreadPool> pool;
  if (workers > 0) pool.emplace(workers);
  util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  for (auto _ : state) {
    auto costs =
        core::build_bit_costs(g, cache, width - 1, core::LsbModel::kPredictive,
                              dist, core::CostMetric::kMed, pool_ptr);
    benchmark::DoNotOptimize(costs.c0.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_BuildBitCostsParallel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_FindBestSettingsParallel(benchmark::State& state) {
  // The acceptance benchmark of the parallel BS-SA rework: a 16-input
  // search whose cross-chain sweep batches feed the pool.
  const unsigned width = 16;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::optional<util::ThreadPool> pool;
  if (workers > 0) pool.emplace(workers);
  util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  const auto costs =
      core::build_bit_costs(g, g.values(), width - 1,
                            core::LsbModel::kPredictive, dist,
                            core::CostMetric::kMed, pool_ptr);
  core::SaParams params;
  params.partition_limit = 40;
  params.init_patterns = 6;
  params.chains = 10;
  for (auto _ : state) {
    util::Rng rng(4);
    auto result = core::find_best_settings(width, 9, costs, 3, params, rng,
                                           pool_ptr, false);
    benchmark::DoNotOptimize(result.top.data());
  }
  state.SetItemsProcessed(state.iterations() * params.partition_limit);
}
BENCHMARK(BM_FindBestSettingsParallel)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NonDisjointOptimize(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kCurrentApprox, dist);
  util::Rng rng(5);
  const auto p = core::Partition::random(width, 6, rng);
  for (auto _ : state) {
    auto result = core::optimize_nondisjoint(p, costs, {8, 64}, rng);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_NonDisjointOptimize);

// ---- Whole-domain realization: Arg 0 is the width, Arg 1 the mode (0 =
// normal, 1 = BTO, 2 = ND). The settings are optimized for cos's MSB. ----

core::Setting optimized_setting(unsigned width, int mode,
                                const core::BitCostArrays& costs) {
  util::Rng rng(8);
  const auto p = core::Partition::random(width, (9 * width + 8) / 16, rng);
  switch (mode) {
    case 0:
      return core::optimize_normal(p, costs, {8, 64}, rng);
    case 1:
      return core::optimize_bto(p, costs);
    default:
      return core::optimize_nondisjoint(p, costs, {8, 64}, rng);
  }
}

void BM_WriteBitToCache(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  auto cache = g.values();
  const auto costs = core::build_bit_costs(
      g, cache, width - 1, core::LsbModel::kCurrentApprox, dist);
  const auto setting =
      optimized_setting(width, static_cast<int>(state.range(1)), costs);
  for (auto _ : state) {
    core::write_bit_to_cache(cache, width - 1, setting);
    benchmark::DoNotOptimize(cache.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_WriteBitToCache)->ArgsProduct({{12, 14}, {0, 1, 2}});

void BM_SettingErrorUnderCosts(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  const auto costs = core::build_bit_costs(
      g, g.values(), width - 1, core::LsbModel::kCurrentApprox, dist);
  const auto setting =
      optimized_setting(width, static_cast<int>(state.range(1)), costs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::setting_error_under_costs(setting, costs.c0, costs.c1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.domain_size()));
}
BENCHMARK(BM_SettingErrorUnderCosts)->ArgsProduct({{12, 14}, {0, 1, 2}});

// ---- Whole-domain fill: random contents at the search's bound size. Arg 0
// is the width; BM_DecomposedBitEvalAll's Arg 1 is the mode as above. ----

core::Setting random_setting(unsigned width, int mode, util::Rng& rng) {
  core::Setting s;
  s.error = 0.0;
  s.partition = core::Partition::random(width, (9 * width + 8) / 16, rng);
  const std::size_t cols = s.partition.num_cols();
  const std::size_t rows = s.partition.num_rows();
  const auto bits = [&](std::size_t count) {
    std::vector<std::uint8_t> v(count);
    for (auto& bit : v) bit = rng.next_bool() ? 1 : 0;
    return v;
  };
  const auto types = [&] {
    std::vector<core::RowType> t(rows);
    for (auto& type : t) {
      type = static_cast<core::RowType>(1 + rng.next_below(4));
    }
    return t;
  };
  switch (mode) {
    case 0:
      s.mode = core::DecompMode::kNormal;
      s.pattern = bits(cols);
      s.types = types();
      break;
    case 1:
      s.mode = core::DecompMode::kBto;
      s.pattern = bits(cols);
      s.types.assign(rows, core::RowType::kPattern);
      break;
    default: {
      s.mode = core::DecompMode::kNonDisjoint;
      const auto bound = s.partition.bound_inputs();
      s.shared_bit = bound[rng.next_below(bound.size())];
      s.pattern0 = bits(cols / 2);
      s.pattern1 = bits(cols / 2);
      s.types0 = types();
      s.types1 = types();
      break;
    }
  }
  return s;
}

void BM_DecomposedBitEvalAll(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  util::Rng rng(9);
  const auto bit = core::DecomposedBit::realize(
      random_setting(width, static_cast<int>(state.range(1)), rng));
  std::vector<std::uint8_t> plane(std::size_t{1} << width);
  for (auto _ : state) {
    bit.eval_all(plane);
    benchmark::DoNotOptimize(plane.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plane.size()));
}
BENCHMARK(BM_DecomposedBitEvalAll)->ArgsProduct({{12, 16, 20}, {0, 1, 2}});

/// The units of the served ND system: 12 outputs, 9 ND, 2 normal, 1 BTO.
core::ApproxLut random_nd_lut(unsigned width, util::Rng& rng) {
  std::vector<core::Setting> settings;
  for (int k = 0; k < 12; ++k) {
    settings.push_back(random_setting(width, k < 9 ? 2 : k < 11 ? 0 : 1, rng));
  }
  return core::ApproxLut::realize(width, settings);
}

void BM_StreamReconfigureNd(benchmark::State& state) {
  // One content swap per iteration, rewriting the inactive image with the
  // same system. No consumer is attached, so each swap retires at once.
  const auto width = static_cast<unsigned>(state.range(0));
  util::Rng rng(10);
  const hw::ApproxLutSystem system(hw::ArchKind::kBtoNormalNd,
                                   random_nd_lut(width, rng),
                                   hw::Technology::nangate45());
  auto target = hw::StreamTarget::compile(system);
  for (auto _ : state) {
    target.mark_applied(target.reconfigure(system));
  }
  state.SetItemsProcessed(state.iterations() * (std::int64_t{1} << width));
}
BENCHMARK(BM_StreamReconfigureNd)
    ->Arg(12)
    ->Arg(16)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);

void BM_ApproxLutRead(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  core::BssaParams params;
  params.bound_size = 6;
  params.rounds = 2;
  params.sa.partition_limit = 20;
  params.sa.init_patterns = 6;
  params.seed = 6;
  const auto lut = core::run_bssa(g, dist, params).realize(width);
  core::InputWord x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.eval(x));
    x = (x + 97) & ((1u << width) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApproxLutRead);

void BM_HardwareSimulation(benchmark::State& state) {
  const unsigned width = 10;
  const auto g = make_cos(width);
  const auto dist = core::InputDistribution::uniform(width);
  core::BssaParams params;
  params.bound_size = 6;
  params.rounds = 2;
  params.sa.partition_limit = 20;
  params.sa.init_patterns = 6;
  params.seed = 7;
  const auto lut = core::run_bssa(g, dist, params).realize(width);
  const auto tech = hw::Technology::nangate45();
  const hw::ApproxLutSystem system(hw::ArchKind::kDalta, lut, tech);
  const auto target = hw::make_target(system);
  util::Rng rng(8);
  for (auto _ : state) {
    auto report = hw::simulate_random(target, 256, width, nullptr, tech, rng);
    benchmark::DoNotOptimize(report.total_energy);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_HardwareSimulation);

}  // namespace

BENCHMARK_MAIN();
