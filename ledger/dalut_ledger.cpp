// dalut_ledger - the measuring half of the benchmark ledger (ledger/run.py
// builds it, runs it, and turns its raw output into the reported metrics;
// ledger/README.md documents the workloads and metrics).
//
// One invocation runs one workload at one seed and prints a single JSON
// document of raw measurements: per-operation wall and CPU times and MEDs,
// set-up repetitions, serve rates and swap latency splits, the host
// fingerprint, the thread budget, and the correctness gate's
// attempted/failed counts. With --trace 1 it runs each fixed round a second
// time with the library's metrics and span tracing on, writes the Chrome
// trace to the scratch directory, and adds telemetry counters and kernel
// probes.
//
// The harness reaches the library only through its public API.
#include <sys/resource.h>
#include <time.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/bssa.hpp"
#include "core/checkpoint.hpp"
#include "core/dalta.hpp"
#include "core/eval_workspace.hpp"
#include "core/evaluate.hpp"
#include "func/registry.hpp"
#include "hw/simulator.hpp"
#include "hw/stream_engine.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/trace_writer.hpp"

namespace {

using namespace dalut;
using Clock = std::chrono::steady_clock;
namespace tel = util::telemetry;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process (all threads), in seconds. Unlike wall
/// time it does not grow while the host deschedules a virtual CPU.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Output -------------------------------------------------------------

/// Minimal streaming JSON writer: objects, arrays, numbers, strings.
class JsonWriter {
 public:
  JsonWriter& open(std::string_view key, char bracket) {
    prefix(key);
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& object(std::string_view key = {}) { return open(key, '{'); }
  JsonWriter& array(std::string_view key = {}) { return open(key, '['); }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& num(std::string_view key, double value) {
    prefix(key);
    if (std::isfinite(value)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  JsonWriter& num(double value) { return num({}, value); }
  JsonWriter& str(std::string_view key, std::string_view value) {
    prefix(key);
    out_ += '"';
    out_ += tel::json_escape(value);
    out_ += '"';
    return *this;
  }
  JsonWriter& str(std::string_view value) { return str({}, value); }
  JsonWriter& numbers(std::string_view key, const std::vector<double>& v) {
    array(key);
    for (const double x : v) num(x);
    return end_array();
  }

  const std::string& text() const noexcept { return out_; }

 private:
  void prefix(std::string_view key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ", ";
      first_.back() = false;
    }
    if (!key.empty()) {
      out_ += '"';
      out_ += tel::json_escape(key);
      out_ += "\": ";
    }
  }

  std::string out_;
  std::vector<bool> first_;
};

// ---- Correctness gate ----------------------------------------------------

/// Deliberate corruption applied before the gate checks, so the tests can
/// show that a wrong result is counted as a failed op (never used by the
/// benchmark itself).
enum class Inject { kNone, kMed, kMismatch };

/// Every op passes through check(); a failed check counts the op as failed
/// and keeps the first few reasons for the log.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (reasons.size() < 16) reasons.push_back(what);
    }
  }
};

// ---- Host fingerprint and thread budget ----------------------------------

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// Threads each workload may run at once; the sum stays within nproc
/// (except on a 1-CPU host, where the serve phases need two threads).
struct ThreadBudget {
  unsigned nproc = 1;
  unsigned pool = 1;       ///< search pool, caller included
  unsigned producers = 1;  ///< StreamEngine producer threads
  unsigned consumer = 1;   ///< the engine / live swap consumer
  unsigned writer = 1;     ///< the thread issuing reconfigure()
};

ThreadBudget thread_budget(unsigned nproc) {
  ThreadBudget budget;
  budget.nproc = nproc;
  budget.pool = nproc;
  budget.producers = std::clamp(nproc > 1 ? nproc - 1 : 1u, 1u, 2u);
  return budget;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Shared helpers ------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t round,
                          std::uint64_t item) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + round * 1000003ull + item);
  return 1 + rng.next_below(1u << 30);
}

core::MultiOutputFunction materialize(const std::string& name,
                                      unsigned width) {
  const auto spec = func::benchmark_by_name(name, width);
  if (!spec) throw std::invalid_argument("unknown benchmark " + name);
  return core::MultiOutputFunction::from_eval(spec->num_inputs,
                                              spec->num_outputs, spec->eval);
}

/// The paper's bound-set fraction (b = 9 at n = 16), as the harnesses use.
unsigned default_bound_size(unsigned width) {
  return std::max(2u, std::min((9u * width + 8) / 16, width - 1));
}

double binomial(unsigned n, unsigned k) {
  double result = 1.0;
  for (unsigned i = 0; i < k; ++i) {
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return result;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned rounds = 0;  ///< fixed rounds (0 = the workload's default)
  std::filesystem::path scratch = ".";
  Inject inject = Inject::kNone;
};

/// One timed search operation: a search or a design run.
struct Op {
  std::string kind;
  std::string function;
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of all threads
  double med = 0.0;
  std::uint64_t partitions = 0;
  bool quality = false;  ///< inside the fixed rounds that define quality
  double energy_fj = 0.0;            ///< design runs: simulated fJ/read
  std::uint64_t verify_reads = 0;    ///< design runs: simulated reads
  std::uint64_t mismatches = 0;      ///< design runs: verify mismatches
};

void write_ops(JsonWriter& out, std::string_view key,
               const std::vector<Op>& ops) {
  out.array(key);
  for (const auto& op : ops) {
    out.object()
        .str("kind", op.kind)
        .str("function", op.function)
        .num("seed", static_cast<double>(op.seed))
        .num("wall_s", op.wall_s)
        .num("cpu_s", op.cpu_s)
        .num("med", op.med)
        .num("partitions", static_cast<double>(op.partitions))
        .num("quality", op.quality ? 1.0 : 0.0)
        .num("energy_fj", op.energy_fj)
        .num("verify_reads", static_cast<double>(op.verify_reads))
        .num("mismatches", static_cast<double>(op.mismatches))
        .end_object();
  }
  out.end_array();
}

/// What the search workloads share: the pool, the functions, the search
/// bookkeeping and its correctness gate.
class SearchWorkload {
 public:
  SearchWorkload(const ThreadBudget& budget, unsigned width,
                 std::initializer_list<const char*> names)
      : width_(width),
        pool_(budget.pool),
        dist_(core::InputDistribution::uniform(width)) {
    for (const char* name : names) {
      functions_.emplace_back(name, materialize(name, width));
    }
  }

  util::ThreadPool& pool() { return pool_; }
  /// Probes run on the cost arrays of the first function.
  const core::MultiOutputFunction& probe_function() const {
    return functions_.front().second;
  }
  unsigned bound_size() const { return default_bound_size(width_); }
  std::uint64_t peak_memo_bytes() const { return peak_memo_bytes_; }

 protected:
  /// Every search starts from a cold gather memo, like a fresh process.
  static void reset_memo() {
    const tel::Span span("ledger.reset_memo");
    core::reset_eval_cache();
  }

  /// Completes `op` from its search result and gates it: the search
  /// completed, and its returned MED equals error_report() on the LUT its
  /// settings realize.
  void record(Op op, const core::DecompositionResult& result,
              const core::MultiOutputFunction& g, Gate& gate, Inject inject,
              std::vector<Op>& ops) {
    peak_memo_bytes_ =
        std::max(peak_memo_bytes_, core::eval_cache_stats().bytes);
    op.med = result.med + (inject == Inject::kMed ? 1e-9 : 0.0);
    op.partitions = result.partitions_evaluated;
    {
      const tel::Span span("ledger.check");
      const auto realized = result.realize(width_).to_function();
      const auto report =
          core::error_report(g, realized.values(), dist_, &pool_);
      gate.check(result.status == util::RunStatus::kCompleted &&
                     report.med == op.med,
                 op.kind + " " + op.function +
                     ": returned MED differs from error_report");
    }
    ops.push_back(std::move(op));
  }

  unsigned width_;
  util::ThreadPool pool_;
  core::InputDistribution dist_;
  std::vector<std::pair<std::string, core::MultiOutputFunction>> functions_;
  std::uint64_t peak_memo_bytes_ = 0;
};

// ---- Workload: table2-w12 ------------------------------------------------

/// BS-SA (normal-only, DALTA architecture) against DALTA on the paper's
/// Table II functions at width 12, at the harnesses' scaled parameters
/// (bench/bench_common.hpp): P = 8.7% of C(n, b) for DALTA, half for BS-SA.
class Table2Workload : public SearchWorkload {
 public:
  static constexpr unsigned kWidth = 12;
  static constexpr unsigned kRounds = 10;

  explicit Table2Workload(const ThreadBudget& budget)
      : SearchWorkload(budget, kWidth, {"cos", "exp", "ln", "erf"}) {}

  void round(std::uint64_t seed, unsigned r, bool quality, Gate& gate,
             Inject inject, std::vector<Op>& ops) {
    const unsigned b = bound_size();
    const auto dalta_p = static_cast<unsigned>(std::min(
        1000.0, std::max(20.0, std::round(0.087 * binomial(kWidth, b)))));
    for (std::size_t f = 0; f < functions_.size(); ++f) {
      const auto& [name, g] = functions_[f];
      const std::uint64_t s = derive_seed(seed, r, f);

      core::BssaParams bp;
      bp.bound_size = b;
      bp.rounds = 3;
      bp.beam_width = 3;
      bp.sa.partition_limit = std::max(10u, dalta_p / 2);
      bp.sa.init_patterns = 12;
      bp.sa.chains = 3;
      bp.seed = s;
      bp.pool = &pool_;
      core::DaltaParams dp;
      dp.bound_size = b;
      dp.rounds = 3;
      dp.partition_limit = dalta_p;
      dp.init_patterns = 12;
      dp.seed = s;
      dp.pool = &pool_;

      for (const bool bssa : {true, false}) {
        Op op{bssa ? "bssa" : "dalta", name, s};
        op.quality = quality;
        reset_memo();
        const auto start = Clock::now();
        const double cpu0 = process_cpu_s();
        core::DecompositionResult result;
        {
          const tel::Span span(bssa ? "ledger.bssa" : "ledger.dalta");
          result = bssa ? core::run_bssa(g, dist_, bp)
                        : core::run_dalta(g, dist_, dp);
        }
        op.wall_s = seconds_since(start);
        op.cpu_s = process_cpu_s() - cpu0;
        record(std::move(op), result, g, gate, inject, ops);
      }
    }
  }
};

// ---- Workload: nd-w14 ----------------------------------------------------

/// BS-SA BTO-Normal-ND design runs at width 14 with the dalut_opt defaults:
/// search with a checkpoint every 2 bit-steps, realize, build the hardware
/// model, and verify it over the full input domain.
class NdWorkload : public SearchWorkload {
 public:
  static constexpr unsigned kWidth = 14;
  static constexpr unsigned kRounds = 5;

  NdWorkload(const ThreadBudget& budget, std::filesystem::path scratch)
      : SearchWorkload(budget, kWidth, {"cos", "exp"}),
        tech_(hw::Technology::nangate45()),
        scratch_(std::move(scratch)),
        domain_(std::size_t{1} << kWidth) {
    for (std::size_t x = 0; x < domain_.size(); ++x) {
      domain_[x] = static_cast<core::InputWord>(x);
    }
  }

  void round(std::uint64_t seed, unsigned r, bool quality, Gate& gate,
             Inject inject, std::vector<Op>& ops) {
    for (std::size_t f = 0; f < functions_.size(); ++f) {
      const auto& [name, g] = functions_[f];
      const std::uint64_t s = derive_seed(seed, r, f);
      const auto checkpoint = (scratch_ / ("nd-" + name + ".ckpt")).string();

      core::BssaParams params;
      params.bound_size = bound_size();
      params.rounds = 3;
      params.beam_width = 3;
      params.sa.partition_limit = 60;
      params.sa.init_patterns = 12;
      params.sa.chains = 3;
      params.modes = core::ModePolicy::bto_normal_nd(0.01, 0.1);
      params.seed = s;
      params.pool = &pool_;
      params.checkpoint_every = 2;
      params.checkpoint_sink = [&](const core::SearchCheckpoint& ck) {
        const tel::Span span("ledger.checkpoint");
        core::save_checkpoint(checkpoint, ck);
      };

      Op op{"design", name, s};
      op.quality = quality;
      reset_memo();
      const auto start = Clock::now();
      const double cpu0 = process_cpu_s();
      core::DecompositionResult result;
      {
        const tel::Span span("ledger.search");
        result = core::run_bssa(g, dist_, params);
      }
      hw::SimulationReport sim;
      {
        const tel::Span span("ledger.design");
        const core::ApproxLut lut = [&] {
          const tel::Span realize_span("ledger.realize");
          return result.realize(kWidth);
        }();
        auto reference = lut.to_function();
        if (inject == Inject::kMismatch) {
          auto values = reference.copy_values();
          values[0] ^= 1u;
          reference = core::MultiOutputFunction(kWidth, g.num_outputs(),
                                                std::move(values));
        }
        const auto system = [&] {
          const tel::Span build_span("ledger.hw_build");
          return hw::ApproxLutSystem(hw::ArchKind::kBtoNormalNd, lut, tech_);
        }();
        const tel::Span verify_span("ledger.hw_verify");
        sim = hw::simulate(hw::make_target(system), domain_, &reference,
                           tech_);
      }
      op.wall_s = seconds_since(start);
      op.cpu_s = process_cpu_s() - cpu0;
      core::remove_checkpoint(checkpoint);
      op.energy_fj = sim.avg_read_energy;
      op.verify_reads = sim.reads;
      op.mismatches = sim.mismatches;
      gate.check(sim.mismatches == 0 && sim.reads == domain_.size(),
                 "design " + name + ": hardware/functional mismatch");
      record(std::move(op), result, g, gate, inject, ops);
    }
  }

 private:
  hw::Technology tech_;
  std::filesystem::path scratch_;
  std::vector<core::InputWord> domain_;
};

// ---- Workload: serve-w12 -------------------------------------------------

/// Split timing of one content swap, taken from outside the target.
struct Swap {
  double wait_retire_us = 0.0;  ///< until applied_epoch >= published_epoch
  double call_us = 0.0;         ///< reconfigure(): copy + fill + publish
  double first_retire_us = 0.0;  ///< publish -> first batch retired on it
};

struct SwapSeries {
  std::vector<Swap> swaps;
  std::uint64_t issued = 0;
  std::uint64_t observed = 0;
};

/// Everything one serve pass records.
struct ServeSamples {
  std::vector<double> nd_rps, mono_rps, engine_rps;  ///< reads per second
  std::uint64_t wait_spins = 0;
  SwapSeries swap_mono, swap_nd;
};

/// Closed-loop serving of random samples through an exact monolithic LUT
/// and a BTO-Normal-ND system programmed by a fixed small BS-SA search.
class ServeWorkload {
 public:
  static constexpr unsigned kWidth = 12;
  static constexpr unsigned kRounds = 4;
  static constexpr std::size_t kBlock = 4096;
  static constexpr std::size_t kSkew = 1024;
  static constexpr unsigned kNdPasses = 64;
  static constexpr unsigned kMonoPasses = 1024;
  static constexpr std::size_t kEngineReads = std::size_t{1} << 22;
  static constexpr std::size_t kPrefix = 4096;
  static constexpr std::size_t kSwapBatch = 4096;
  /// Even, so the monolithic target ends each series on its exact contents.
  static constexpr unsigned kMonoSwaps = 400;
  static_assert(kMonoSwaps % 2 == 0);
  static constexpr unsigned kNdSwaps = 40;
  static constexpr double kProbeSeconds = 0.2;

  ServeWorkload(const ThreadBudget& budget, Inject inject)
      : budget_(budget),
        tech_(hw::Technology::nangate45()),
        g_(materialize("cos", kWidth)),
        lut_(program(g_)),
        reference_(lut_.to_function()),
        system_(hw::ArchKind::kBtoNormalNd, lut_, tech_),
        mono_(kWidth, g_.num_outputs(),
              std::vector<std::uint32_t>(g_.values().begin(),
                                         g_.values().end()),
              tech_),
        mono_flipped_(kWidth, g_.num_outputs(), flipped(g_), tech_),
        nd_target_(compile_timed(system_)),
        mono_target_(compile_timed(mono_)) {
    if (inject == Inject::kMismatch) {
      auto values = reference_.copy_values();
      values[0] ^= 1u;
      reference_ = core::MultiOutputFunction(kWidth, g_.num_outputs(),
                                             std::move(values));
    }
  }

  double compile_s() const { return compile_s_; }

  void round(std::uint64_t seed, unsigned r, Gate& gate,
             ServeSamples& samples) {
    // A closed loop hands the server each sample right after making it, so
    // the single-stream phase replays one cache-resident block per target.
    std::vector<core::InputWord> nd_block;
    std::vector<core::InputWord> mono_block;
    std::vector<core::InputWord> engine_seq;
    {
      const tel::Span span("ledger.inputs");
      nd_block = sequence(kBlock + kSkew, derive_seed(seed, r, 0));
      mono_block = sequence(kBlock + kSkew, derive_seed(seed, r, 1));
      engine_seq = sequence(kEngineReads, derive_seed(seed, r, 4));
    }

    // Phase 1: reads only, single stream.
    {
      const tel::Span span("ledger.stream_nd");
      stream_passes(nd_target_, skewed(nd_block, derive_seed(seed, r, 5)),
                    kNdPasses, &reference_, samples.nd_rps, gate, "serve nd");
    }
    {
      const tel::Span span("ledger.stream_mono");
      stream_passes(mono_target_,
                    skewed(mono_block, derive_seed(seed, r, 6)), kMonoPasses,
                    &g_, samples.mono_rps, gate, "serve mono");
    }
    {
      const tel::Span span("ledger.prefix_check");
      const std::span<const core::InputWord> nd_prefix(nd_block.data(),
                                                       kPrefix);
      const std::span<const core::InputWord> mono_prefix(mono_block.data(),
                                                         kPrefix);
      gate.check(hw::stream_simulate(nd_target_, nd_prefix, &reference_,
                                     tech_) ==
                     hw::simulate(hw::make_target(system_), nd_prefix,
                                  &reference_, tech_),
                 "serve nd: stream report differs from simulate()");
      gate.check(hw::stream_simulate(mono_target_, mono_prefix, &g_, tech_) ==
                     hw::simulate(hw::make_target(mono_, g_.num_outputs()),
                                  mono_prefix, &g_, tech_),
                 "serve mono: stream report differs from simulate()");
    }

    // Phase 2: the multi-producer engine on the monolithic target, sharded
    // so its merged order is engine_seq itself.
    {
      const tel::Span span("ledger.engine");
      const hw::StreamConfig config;
      hw::StreamEngine engine(mono_target_, tech_, budget_.producers, config);
      const auto start = Clock::now();
      std::vector<std::thread> producers;
      for (std::size_t p = 0; p < engine.num_producers(); ++p) {
        producers.emplace_back([&engine, &engine_seq, &config, p] {
          auto& ring = engine.ring(p);
          const std::size_t n = engine.num_producers();
          const std::size_t batch = config.batch_size;
          for (std::size_t chunk = p * batch; chunk < engine_seq.size();
               chunk += n * batch) {
            const std::size_t take = std::min(batch, engine_seq.size() - chunk);
            std::size_t pushed = 0;
            while (pushed < take) {
              pushed += ring.try_push(engine_seq.data() + chunk + pushed,
                                      take - pushed);
              if (pushed < take) std::this_thread::yield();
            }
          }
          ring.close();
        });
      }
      const auto report = engine.run(&g_);
      for (auto& t : producers) t.join();
      samples.engine_rps.push_back(static_cast<double>(engine_seq.size()) /
                            seconds_since(start));
      samples.wait_spins += report.wait_spins;
      gate.check(report.sim == hw::stream_simulate(mono_target_, engine_seq,
                                                   &g_, tech_),
                 "serve engine: report differs from the single stream");
    }

    // Phase 3: swaps against a live consumer.
    {
      const tel::Span span("ledger.swap_mono");
      swap_series(mono_target_, kMonoSwaps, derive_seed(seed, r, 2), mono_,
                  gate, samples.swap_mono);
    }
    {
      const tel::Span span("ledger.swap_nd");
      swap_series(nd_target_, kNdSwaps, derive_seed(seed, r, 3), system_,
                  gate, samples.swap_nd);
    }
  }

  void write(JsonWriter& out, const ServeSamples& samples) const {
    out.object("serve")
        .numbers("nd_rps", samples.nd_rps)
        .numbers("mono_rps", samples.mono_rps)
        .numbers("engine_rps", samples.engine_rps)
        .num("wait_spins", static_cast<double>(samples.wait_spins));
    write_swaps(out, "swap_mono", samples.swap_mono);
    write_swaps(out, "swap_nd", samples.swap_nd);
    out.end_object();
  }

  /// Per-read cost of the serve kernels on one hot batch.
  void probe(JsonWriter& out) {
    const auto batch = sequence(kSwapBatch, 12345);
    std::vector<core::OutputWord> y(batch.size());
    auto eval_ns = [&](hw::StreamTarget& target) {
      std::uint64_t epoch = 0;
      const hw::TableImage& image = target.acquire(epoch);
      const auto start = Clock::now();
      std::size_t reads = 0;
      while (reads == 0 || seconds_since(start) < kProbeSeconds) {
        target.eval_batch(image, batch.data(), y.data(), batch.size());
        reads += batch.size();
      }
      return seconds_since(start) * 1e9 / static_cast<double>(reads);
    };
    const double nd_ns = eval_ns(nd_target_);
    const double mono_ns = eval_ns(mono_target_);
    hw::BatchAccumulator acc;
    const auto bus = hw::output_bus_mask(g_.num_outputs());
    std::uint64_t epoch = 0;
    mono_target_.eval_batch(mono_target_.acquire(epoch), batch.data(),
                            y.data(), batch.size());
    const auto start = Clock::now();
    std::size_t reads = 0;
    while (reads == 0 || seconds_since(start) < kProbeSeconds) {
      hw::accumulate_batch(acc, batch.data(), y.data(), batch.size(), &g_,
                           tech_, mono_target_.static_read_energy(), bus);
      reads += batch.size();
    }
    const double account_ns =
        seconds_since(start) * 1e9 / static_cast<double>(reads);
    out.object("serve_probe")
        .num("eval_ns_per_read_nd", nd_ns)
        .num("eval_ns_per_read_mono", mono_ns)
        .num("account_ns_per_read", account_ns)
        .end_object();
  }

 private:
  core::ApproxLut program(const core::MultiOutputFunction& g) {
    util::ThreadPool pool(budget_.pool);
    core::BssaParams params;
    params.bound_size = kWidth / 2;
    params.rounds = 2;
    params.beam_width = 2;
    params.sa.partition_limit = 12;
    params.sa.init_patterns = 6;
    params.modes = core::ModePolicy::bto_normal_nd(0.01, 0.1);
    params.seed = 3;
    params.pool = &pool;
    return core::run_bssa(g, core::InputDistribution::uniform(kWidth), params)
        .realize(kWidth);
  }

  /// `passes` single-stream passes over `block`: the read rate, and a gate
  /// that every pass matched the reference and reported exactly what the
  /// first pass did.
  /// The kBlock samples of `samples` (kBlock + kSkew long) starting at a
  /// per-round offset, so that over a run the block meets the library's
  /// internal buffers at many relative alignments instead of the one this
  /// process's allocator happened to give it.
  static std::span<const core::InputWord> skewed(
      const std::vector<core::InputWord>& samples, std::uint64_t seed) {
    return {samples.data() + seed % kSkew, kBlock};
  }

  void stream_passes(hw::StreamTarget& target,
                     std::span<const core::InputWord> block,
                     unsigned passes,
                     const core::MultiOutputFunction* reference,
                     std::vector<double>& rps, Gate& gate,
                     const std::string& what) {
    std::vector<hw::SimulationReport> reports(passes);
    const auto start = Clock::now();
    for (auto& report : reports) {
      report = hw::stream_simulate(target, block, reference, tech_);
    }
    const double reads = static_cast<double>(passes * block.size());
    rps.push_back(reads / seconds_since(start));
    const bool repeatable =
        std::all_of(reports.begin(), reports.end(),
                    [&](const auto& report) { return report == reports[0]; });
    gate.check(repeatable && reports[0].mismatches == 0 &&
                   reports[0].reads == block.size(),
               what + ": stream reads differ from the reference");
  }

  static std::vector<std::uint32_t> flipped(
      const core::MultiOutputFunction& g) {
    const std::uint32_t mask = hw::output_bus_mask(g.num_outputs());
    std::vector<std::uint32_t> out(g.values().begin(), g.values().end());
    for (auto& v : out) v = ~v & mask;
    return out;
  }

  template <typename Source>
  hw::StreamTarget compile_timed(const Source& source) {
    const auto start = Clock::now();
    auto target = [&] {
      if constexpr (std::is_same_v<Source, hw::MonolithicLut>) {
        return hw::StreamTarget::compile(source, g_.num_outputs());
      } else {
        return hw::StreamTarget::compile(source);
      }
    }();
    compile_s_ += seconds_since(start);
    return target;
  }

  static std::vector<core::InputWord> sequence(std::size_t count,
                                               std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<core::InputWord> out(count);
    for (auto& x : out) {
      x = static_cast<core::InputWord>(rng.next_below(1u << kWidth));
    }
    return out;
  }

  /// `swaps` content swaps while a consumer keeps evaluating batches. The
  /// monolithic target alternates between the exact and the complemented
  /// table; the ND target is re-programmed with its own contents. The
  /// consumer checks the first batch it retires on every new epoch against
  /// the contents that epoch must hold.
  template <typename Source>
  void swap_series(hw::StreamTarget& target, unsigned swaps,
                   std::uint64_t seed, const Source& base, Gate& gate,
                   SwapSeries& series) {
    constexpr bool kMono = std::is_same_v<Source, hw::MonolithicLut>;
    const auto batch = sequence(kSwapBatch, seed);
    const std::uint64_t epoch0 = target.published_epoch();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> observed{0};
    std::atomic<std::uint64_t> wrong{0};
    std::thread consumer([&] {
      std::vector<core::OutputWord> y(batch.size());
      std::uint64_t last = epoch0;
      while (!stop.load(std::memory_order_acquire)) {
        std::uint64_t epoch = 0;
        const hw::TableImage& image = target.acquire(epoch);
        target.eval_batch(image, batch.data(), y.data(), batch.size());
        target.mark_applied(epoch);
        if (epoch == last) continue;
        // Checked after the retire, so the check stays out of the latency.
        // Monolithic: odd epochs since the series start hold the complement.
        // ND: every epoch holds the realized function.
        const bool complement = kMono && ((epoch - epoch0) & 1) != 0;
        const std::uint32_t mask = hw::output_bus_mask(g_.num_outputs());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          core::OutputWord want =
              kMono ? g_.value(batch[i]) : reference_.value(batch[i]);
          if (complement) want = ~want & mask;
          if (y[i] != want) {
            wrong.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        observed.fetch_add(epoch - last, std::memory_order_relaxed);
        last = epoch;
      }
    });

    // The consumer must be stopped and joined on every path out.
    try {
      for (unsigned i = 0; i < swaps; ++i) {
        Swap swap;
        auto start = Clock::now();
        while (target.applied_epoch() < target.published_epoch()) {
          std::this_thread::yield();
        }
        swap.wait_retire_us = seconds_since(start) * 1e6;
        start = Clock::now();
        std::uint64_t epoch = 0;
        if constexpr (kMono) {
          epoch = target.reconfigure(i % 2 == 0 ? mono_flipped_ : base);
        } else {
          epoch = target.reconfigure(base);
        }
        const auto published = Clock::now();
        swap.call_us = std::chrono::duration<double, std::micro>(
                           published - start)
                           .count();
        while (target.applied_epoch() < epoch) std::this_thread::yield();
        swap.first_retire_us = seconds_since(published) * 1e6;
        series.swaps.push_back(swap);
      }
    } catch (...) {
      stop.store(true, std::memory_order_release);
      consumer.join();
      throw;
    }
    stop.store(true, std::memory_order_release);
    consumer.join();
    series.issued += swaps;
    const std::uint64_t seen = observed.load(std::memory_order_relaxed);
    series.observed += seen;
    gate.check(seen == target.published_epoch() - epoch0,
               "serve swap: a published epoch was never observed");
    gate.check(wrong.load(std::memory_order_relaxed) == 0,
               "serve swap: a batch read stale or torn contents");
  }

  static void write_swaps(JsonWriter& out, std::string_view key,
                          const SwapSeries& series) {
    out.object(key)
        .num("issued", static_cast<double>(series.issued))
        .num("observed", static_cast<double>(series.observed));
    out.array("wait_retire_us");
    for (const auto& s : series.swaps) out.num(s.wait_retire_us);
    out.end_array().array("call_us");
    for (const auto& s : series.swaps) out.num(s.call_us);
    out.end_array().array("first_retire_us");
    for (const auto& s : series.swaps) out.num(s.first_retire_us);
    out.end_array().end_object();
  }

  ThreadBudget budget_;
  hw::Technology tech_;
  core::MultiOutputFunction g_;
  double compile_s_ = 0.0;
  core::ApproxLut lut_;
  core::MultiOutputFunction reference_;
  hw::ApproxLutSystem system_;
  hw::MonolithicLut mono_;
  hw::MonolithicLut mono_flipped_;
  hw::StreamTarget nd_target_;
  hw::StreamTarget mono_target_;
};

// ---- Search-kernel probes --------------------------------------------------

/// Per-call cost of the gather and both OptForPart variants, timed on the
/// workload's own cost arrays (most significant bit of its first function)
/// and random partitions of its bound size. The memo is bypassed (epoch 0)
/// so every full_matrix() call gathers.
void probe_search_kernels(JsonWriter& out, const core::MultiOutputFunction& g,
                          unsigned bound_size, util::ThreadPool& pool) {
  const auto dist = core::InputDistribution::uniform(g.num_inputs());
  const auto costs = core::build_bit_costs(
      g, g.values(), g.num_outputs() - 1, core::LsbModel::kPredictive, dist,
      core::CostMetric::kMed, &pool);
  const core::CostView view(costs.c0, costs.c1, 0);
  util::Rng rng(99);
  const auto partitions =
      core::sample_partitions(g.num_inputs(), bound_size, 64, rng);
  auto& ws = core::EvalWorkspace::local();
  core::OptForPartParams params;
  params.init_patterns = 12;

  double gather_s = 0.0;
  double opt_s = 0.0;
  double bto_s = 0.0;
  double sink = 0.0;
  std::size_t calls = 0;
  const auto until = Clock::now() + std::chrono::milliseconds(600);
  while (Clock::now() < until || calls == 0) {
    for (const auto& partition : partitions) {
      auto start = Clock::now();
      const auto matrix = ws.full_matrix(partition, view);
      gather_s += seconds_since(start);
      start = Clock::now();
      sink += ws.opt_for_part(matrix, params, rng).error;
      opt_s += seconds_since(start);
      start = Clock::now();
      sink += ws.opt_for_part_bto(matrix).error;
      bto_s += seconds_since(start);
      ++calls;
    }
  }
  const double n = static_cast<double>(calls);
  out.object("search_probe")
      .num("gather_ns_per_call", gather_s * 1e9 / n)
      .num("opt_for_part_ns_per_call", opt_s * 1e9 / n)
      .num("opt_for_part_bto_ns_per_call", bto_s * 1e9 / n)
      .num("checksum", sink)
      .end_object();
}

void write_counters(JsonWriter& out) {
  const auto snapshot = tel::snapshot_metrics();
  out.object("counters");
  for (const auto& counter : snapshot.counters) {
    out.num(counter.name, static_cast<double>(counter.value));
  }
  out.end_object();
}

// ---- Main ------------------------------------------------------------------

/// Runs `round(r, quality)` for the fixed rounds, then more rounds until
/// `seconds` have passed. Returns the total wall time.
template <typename Round>
double run_rounds(unsigned fixed, double seconds, Round&& round) {
  const auto start = Clock::now();
  for (unsigned r = 0; r < fixed || seconds_since(start) < seconds; ++r) {
    round(r, r < fixed);
  }
  return seconds_since(start);
}

/// Functions a workload materializes, as (name, width).
std::vector<std::pair<std::string, unsigned>> workload_functions(
    const std::string& workload) {
  if (workload == "table2-w12") {
    return {{"cos", 12}, {"exp", 12}, {"ln", 12}, {"erf", 12}};
  }
  if (workload == "nd-w14") return {{"cos", 14}, {"exp", 14}};
  if (workload == "serve-w12") return {{"cos", 12}};
  return {};
}

std::vector<double> time_reps(unsigned reps, const std::function<void()>& f) {
  std::vector<double> out;
  for (unsigned i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    f();
    out.push_back(seconds_since(start));
  }
  return out;
}

/// Untraced (--trace 0): the fixed rounds, then more until `seconds`.
/// Traced (--trace 1): each fixed round twice, untraced and then with the
/// library's metrics and spans on, alternating so that a slow spell of the
/// host hits both passes alike; then the counters, the Chrome trace (in the
/// scratch directory) and the kernel probes.
template <typename Workload, typename Round, typename Probe>
void measure(const Options& opt, unsigned fixed, Workload& w, JsonWriter& out,
             Round&& round, Probe&& probe) {
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  if (!opt.trace) {
    untraced_wall = run_rounds(fixed, opt.seconds, [&](unsigned r, bool q) {
      round(w, r, q);
    });
  } else {
    tel::reset_metrics_for_test();
    tel::reset_tracing_for_test();
    for (unsigned r = 0; r < fixed; ++r) {
      auto start = Clock::now();
      round(w, r, true);
      untraced_wall += seconds_since(start);
      tel::set_metrics_enabled(true);
      tel::set_tracing_enabled(true);
      start = Clock::now();
      {
        const tel::Span span("ledger.pass");
        round(w, r, true);
      }
      traced_wall += seconds_since(start);
      tel::set_tracing_enabled(false);
      tel::set_metrics_enabled(false);
    }
    write_counters(out);
    std::ofstream trace(opt.scratch / "trace.json");
    tel::write_chrome_trace(trace);
    probe(w);
  }
  out.num("untraced_wall_s", untraced_wall).num("traced_wall_s", traced_wall);
}

int run(const Options& opt) {
  const auto functions = workload_functions(opt.workload);
  if (functions.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const ThreadBudget budget = thread_budget(online_cpus());
  Gate gate;
  JsonWriter out;
  out.object()
      .str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .num("seconds", opt.seconds);
  out.object("host")
      .str("cpu", cpu_model())
      .num("nproc", budget.nproc)
      .str("isa", util::simd::isa_name())
      .str("compiler", __VERSION__)
      .str("build_type", DALUT_LEDGER_BUILD_TYPE)
      .end_object();
  out.object("threads")
      .num("pool", budget.pool)
      .num("producers", budget.producers)
      .num("consumer", budget.consumer)
      .num("writer", budget.writer)
      .end_object();

  // Spans of a whole traced pass must fit in the per-thread rings.
  tel::set_span_ring_capacity(std::size_t{1} << 18);

  out.numbers("materialize_s", time_reps(9, [&] {
                for (const auto& [name, width] : functions) {
                  (void)materialize(name, width);
                }
              }));

  std::vector<Op> ops;
  std::vector<Op> traced_ops;
  auto search_round = [&](auto& w, unsigned r, bool quality) {
    w.round(opt.seed, r, quality, gate, opt.inject,
            tel::tracing_enabled() ? traced_ops : ops);
  };
  auto search_probe = [&](auto& w) {
    probe_search_kernels(out, w.probe_function(), w.bound_size(), w.pool());
  };
  if (opt.workload == "table2-w12") {
    out.numbers("setup_s", time_reps(51, [&] { Table2Workload w(budget); }));
    Table2Workload w(budget);
    measure(opt, opt.rounds ? opt.rounds : Table2Workload::kRounds, w, out,
            search_round, search_probe);
    out.num("memo_peak_bytes", static_cast<double>(w.peak_memo_bytes()));
  } else if (opt.workload == "nd-w14") {
    out.numbers("setup_s", time_reps(51, [&] {
                  NdWorkload w(budget, opt.scratch);
                }));
    NdWorkload w(budget, opt.scratch);
    measure(opt, opt.rounds ? opt.rounds : NdWorkload::kRounds, w, out,
            search_round, search_probe);
    out.num("memo_peak_bytes", static_cast<double>(w.peak_memo_bytes()));
  } else {
    std::vector<double> compile_s;
    out.numbers("setup_s", time_reps(9, [&] {
                  ServeWorkload w(budget, opt.inject);
                  compile_s.push_back(w.compile_s());
                }));
    out.numbers("compile_s", compile_s);
    ServeWorkload w(budget, opt.inject);
    ServeSamples samples;
    ServeSamples traced_samples;
    measure(
        opt, opt.rounds ? opt.rounds : ServeWorkload::kRounds, w, out,
        [&](ServeWorkload& s, unsigned r, bool) {
          s.round(opt.seed, r, gate,
                  tel::tracing_enabled() ? traced_samples : samples);
        },
        [&](ServeWorkload& s) { s.probe(out); });
    w.write(out, samples);
  }
  write_ops(out, "ops", ops);
  write_ops(out, "traced_ops", traced_ops);

  out.num("peak_rss_mb", peak_rss_mb())
      .num("attempted", static_cast<double>(gate.attempted))
      .num("failed", static_cast<double>(gate.failed));
  out.array("failures");
  for (const auto& reason : gate.reasons) out.str(reason);
  out.end_array().end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--rounds") {
      opt.rounds = static_cast<unsigned>(std::stoul(value));
    } else if (key == "--scratch") {
      opt.scratch = value;
    } else if (key == "--inject") {
      opt.inject = value == "med"        ? Inject::kMed
                   : value == "mismatch" ? Inject::kMismatch
                                         : Inject::kNone;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 2;
    }
  }
  try {
    return run(opt);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dalut_ledger: %s\n", error.what());
    return 1;
  }
}
