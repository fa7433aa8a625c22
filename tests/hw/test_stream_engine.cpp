#include "hw/stream_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/bssa.hpp"
#include "func/registry.hpp"

namespace dalut::hw {
namespace {

const Technology kTech = Technology::nangate45();

core::MultiOutputFunction benchmark(const std::string& name, unsigned width) {
  const auto spec = *func::benchmark_by_name(name, width);
  return core::MultiOutputFunction::from_eval(spec.num_inputs,
                                              spec.num_outputs, spec.eval);
}

std::vector<core::InputWord> random_sequence(std::size_t count,
                                             unsigned num_inputs,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::InputWord> sequence(count);
  const std::uint64_t domain = std::uint64_t{1} << num_inputs;
  for (auto& x : sequence) {
    x = static_cast<core::InputWord>(rng.next_below(domain));
  }
  return sequence;
}

core::ApproxLut searched_lut(unsigned width, std::uint64_t seed) {
  const auto g = benchmark("ln", width);
  core::BssaParams params;
  params.bound_size = width / 2;
  params.rounds = 2;
  params.beam_width = 2;
  params.sa.partition_limit = 12;
  params.sa.init_patterns = 6;
  params.seed = seed;
  const auto dist = core::InputDistribution::uniform(width);
  return core::run_bssa(g, dist, params).realize(width);
}

/// A hand-built 3-output ApproxLut exercising all three operating modes
/// (normal, BTO, non-disjoint) in one system.
core::ApproxLut all_modes_lut() {
  const unsigned n = 4;
  core::Setting normal;
  normal.error = 0.0;
  normal.partition = core::Partition(n, 0b0011);
  normal.mode = core::DecompMode::kNormal;
  normal.pattern = {0, 1, 1, 0};
  normal.types = {core::RowType::kAllZero, core::RowType::kAllOne,
                  core::RowType::kPattern, core::RowType::kComplement};

  core::Setting bto;
  bto.error = 0.0;
  bto.partition = core::Partition(n, 0b0101);
  bto.mode = core::DecompMode::kBto;
  bto.pattern = {1, 0, 0, 1};

  core::Setting nd;
  nd.error = 0.0;
  nd.partition = core::Partition(n, 0b0110);
  nd.mode = core::DecompMode::kNonDisjoint;
  nd.shared_bit = 1;  // member of the bound set 0b0110
  nd.pattern0 = {0, 1};
  nd.pattern1 = {1, 1};
  nd.types0 = {core::RowType::kPattern, core::RowType::kComplement,
               core::RowType::kAllOne, core::RowType::kAllZero};
  nd.types1 = {core::RowType::kComplement, core::RowType::kPattern,
               core::RowType::kAllZero, core::RowType::kAllOne};

  return core::ApproxLut::realize(n, {normal, bto, nd});
}

/// Input mask of the positions i < n with i % period == phase.
std::uint32_t strided_mask(unsigned n, unsigned period, unsigned phase) {
  std::uint32_t mask = 0;
  for (unsigned i = phase; i < n; i += period) mask |= std::uint32_t{1} << i;
  return mask;
}

std::vector<std::uint8_t> random_bits(std::size_t count, util::Rng& rng) {
  std::vector<std::uint8_t> bits(count);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_below(2));
  return bits;
}

std::vector<core::RowType> random_types(std::size_t count, util::Rng& rng) {
  std::vector<core::RowType> types(count);
  for (auto& t : types) {
    t = static_cast<core::RowType>(1 + rng.next_below(4));
  }
  return types;
}

/// The settings of a hand-built 3-output n-input system, one unit per
/// operating mode (normal, BTO, ND), with random contents. Every bound and
/// free set spreads over the whole input word, and the ND shared bit is
/// the top input, n - 1.
std::vector<core::Setting> wide_all_modes_settings(unsigned n,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  core::Setting normal;
  normal.error = 0.0;
  normal.partition = core::Partition(n, strided_mask(n, 3, 0));
  normal.mode = core::DecompMode::kNormal;
  normal.pattern = random_bits(normal.partition.num_cols(), rng);
  normal.types = random_types(normal.partition.num_rows(), rng);

  core::Setting bto;
  bto.error = 0.0;
  bto.partition = core::Partition(n, strided_mask(n, 3, 1));
  bto.mode = core::DecompMode::kBto;
  bto.pattern = random_bits(bto.partition.num_cols(), rng);

  core::Setting nd;
  nd.error = 0.0;
  nd.partition = core::Partition(
      n, strided_mask(n, 2, 1) | std::uint32_t{1} << (n - 1));
  nd.mode = core::DecompMode::kNonDisjoint;
  nd.shared_bit = n - 1;
  nd.pattern0 = random_bits(nd.partition.num_cols() / 2, rng);
  nd.pattern1 = random_bits(nd.partition.num_cols() / 2, rng);
  nd.types0 = random_types(nd.partition.num_rows(), rng);
  nd.types1 = random_types(nd.partition.num_rows(), rng);

  return {normal, bto, nd};
}

core::ApproxLut wide_all_modes_lut(unsigned n, std::uint64_t seed) {
  return core::ApproxLut::realize(n, wide_all_modes_settings(n, seed));
}

// ---- Bit identity: batched kernels vs the scalar simulate() loop --------

TEST(StreamEngine, MonolithicBitIdenticalToSimulate) {
  const auto g = benchmark("cos", 10);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(10, 10, contents, kTech);
  const auto sequence = random_sequence(5000, 10, 7);

  const auto scalar =
      simulate(make_target(lut, 10), sequence, &g, kTech);
  auto target = StreamTarget::compile(lut, 10);
  for (const std::size_t batch : {1u, 7u, 256u, 1024u, 8192u}) {
    const auto batched = stream_simulate(target, sequence, &g, kTech, batch);
    EXPECT_EQ(batched, scalar) << "batch size " << batch;
  }
}

TEST(StreamEngine, MonolithicShiftedReadsBitIdentical) {
  // RoundIn / RoundOut shapes: dropped address LSBs and output shifts.
  const auto g = benchmark("exp", 8);
  std::vector<std::uint32_t> contents;
  for (std::uint32_t i = 0; i < 64; ++i) {
    contents.push_back(g.value(i << 2) >> 1);
  }
  const MonolithicLut lut(6, 7, contents, kTech, /*addr_shift=*/2,
                          /*out_shift=*/1);
  const auto sequence = random_sequence(2000, 8, 9);
  const auto scalar = simulate(make_target(lut, 8), sequence, &g, kTech);
  auto target = StreamTarget::compile(lut, 8);
  EXPECT_EQ(stream_simulate(target, sequence, &g, kTech, 64), scalar);
}

TEST(StreamEngine, ArchitecturesBitIdenticalToSimulate) {
  const unsigned width = 8;
  const auto lut = searched_lut(width, 3);
  const auto reference = lut.to_function();
  const auto sequence = random_sequence(4096, width, 5);

  for (const auto kind : {ArchKind::kDalta, ArchKind::kBtoNormalNd}) {
    const ApproxLutSystem system(kind, lut, kTech);
    const auto scalar =
        simulate(make_target(system), sequence, &reference, kTech);
    auto target = StreamTarget::compile(system);
    for (const std::size_t batch : {1u, 33u, 1024u}) {
      const auto batched =
          stream_simulate(target, sequence, &reference, kTech, batch);
      EXPECT_EQ(batched, scalar)
          << to_string(kind) << " batch " << batch;
    }
  }
}

TEST(StreamEngine, AllThreeModesBitIdenticalOverFullDomain) {
  const auto lut = all_modes_lut();
  const auto reference = lut.to_function();
  const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);

  std::vector<core::InputWord> domain(16);
  for (core::InputWord x = 0; x < 16; ++x) domain[x] = x;
  auto shuffled = random_sequence(3000, 4, 13);
  domain.insert(domain.end(), shuffled.begin(), shuffled.end());

  const auto scalar =
      simulate(make_target(system), domain, &reference, kTech);
  EXPECT_EQ(scalar.mismatches, 0u);  // hardware == functional model
  auto target = StreamTarget::compile(system);
  EXPECT_EQ(stream_simulate(target, domain, &reference, kTech, 5), scalar);
}

TEST(StreamEngine, AllThreeModesBitIdenticalAcrossWidths) {
  // From 3 inputs, whose whole domain is one 8-lane step, to the 20-input
  // limit, whose 2^20-word image is sampled at random.
  for (const unsigned n : {3u, 5u, 6u, 9u, 16u, 17u, 20u}) {
    const auto lut = wide_all_modes_lut(n, 40 + n);
    const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);
    auto target = StreamTarget::compile(system);

    std::vector<core::InputWord> sequence;
    if (n <= 17) {
      sequence.resize(std::size_t{1} << n);
      for (std::size_t x = 0; x < sequence.size(); ++x) {
        sequence[x] = static_cast<core::InputWord>(x);
      }
    } else {
      sequence = random_sequence(1 << 16, n, 50 + n);
    }
    // The full-domain reference table is too large past 17 inputs; there
    // the per-read check below carries the functional comparison.
    std::optional<core::MultiOutputFunction> reference;
    if (n <= 17) reference = lut.to_function();
    const core::MultiOutputFunction* ref = reference ? &*reference : nullptr;
    const auto scalar = simulate(make_target(system), sequence, ref, kTech);
    EXPECT_EQ(scalar.mismatches, 0u) << "n " << n;
    // Below 8 inputs the batches are shorter than one 8-lane step, so
    // every read runs on the one-lane tail.
    const std::size_t batch = n < 8 ? 5 : 1000;
    EXPECT_EQ(stream_simulate(target, sequence, ref, kTech, batch), scalar)
        << "n " << n;

    std::vector<core::OutputWord> y(sequence.size());
    std::uint64_t epoch = 0;
    target.eval_batch(target.acquire(epoch), sequence.data(), y.data(),
                      sequence.size());
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      ASSERT_EQ(y[i], system.read(sequence[i]))
          << "n " << n << " x " << sequence[i];
    }
  }

  // Past 20 inputs an image would outgrow 4 MiB: compile() refuses.
  for (const unsigned n : {21u, 24u, 25u, 26u}) {
    const ApproxLutSystem system(ArchKind::kBtoNormalNd,
                                 wide_all_modes_lut(n, 40 + n), kTech);
    EXPECT_THROW(StreamTarget::compile(system), std::invalid_argument)
        << "n " << n;
  }
}

TEST(StreamEngine, BtoOutputsSurviveReconfiguration) {
  // Same structure, different contents: every swap lands on the other
  // image and re-materializes it whole, so the BTO unit's output bit is
  // rewritten like every other.
  const unsigned n = 12;
  const auto lut_a = wide_all_modes_lut(n, 1);
  const auto lut_b = wide_all_modes_lut(n, 2);
  const ApproxLutSystem sys_a(ArchKind::kBtoNormalNd, lut_a, kTech);
  const ApproxLutSystem sys_b(ArchKind::kBtoNormalNd, lut_b, kTech);
  auto target = StreamTarget::compile(sys_a);
  target.mark_applied(target.published_epoch());

  const auto sequence = random_sequence(4096, n, 6);
  std::vector<core::OutputWord> y(sequence.size());
  for (int swap = 0; swap < 4; ++swap) {
    const ApproxLutSystem& next = swap % 2 == 0 ? sys_b : sys_a;
    target.mark_applied(target.reconfigure(next));
    std::uint64_t epoch = 0;
    target.eval_batch(target.acquire(epoch), sequence.data(), y.data(),
                      sequence.size());
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      ASSERT_EQ(y[i], next.read(sequence[i])) << "swap " << swap;
    }
  }
}

TEST(StreamEngine, NdSwapsRewriteEveryWordOfBothImages) {
  // Swaps to b, b, a, a after compiling a: image 1 goes from empty to b,
  // image 0 from a to b, image 1 from b to a and image 0 from b to a, so
  // each image is rewritten over different contents. After every swap,
  // every input of the domain must read the new system.
  const unsigned n = 12;
  const ApproxLutSystem sys_a(ArchKind::kBtoNormalNd,
                              wide_all_modes_lut(n, 61), kTech);
  const ApproxLutSystem sys_b(ArchKind::kBtoNormalNd,
                              wide_all_modes_lut(n, 62), kTech);
  std::vector<core::InputWord> domain(std::size_t{1} << n);
  for (std::size_t x = 0; x < domain.size(); ++x) {
    domain[x] = static_cast<core::InputWord>(x);
  }
  std::size_t differing = 0;
  for (const core::InputWord x : domain) {
    differing += sys_a.read(x) != sys_b.read(x) ? 1 : 0;
  }
  ASSERT_GT(differing, 0u);  // every swap is visible somewhere

  auto target = StreamTarget::compile(sys_a);
  target.mark_applied(target.published_epoch());
  std::vector<core::OutputWord> y(domain.size());
  for (int swap = 0; swap < 4; ++swap) {
    const ApproxLutSystem& next = swap < 2 ? sys_b : sys_a;
    target.mark_applied(target.reconfigure(next));
    std::uint64_t epoch = 0;
    target.eval_batch(target.acquire(epoch), domain.data(), y.data(),
                      domain.size());
    for (const core::InputWord x : domain) {
      ASSERT_EQ(y[x], next.read(x)) << "swap " << swap << " x " << x;
    }
  }
}

TEST(StreamEngine, NdSwapImagesMatchValuesAtEveryWidth) {
  // The swap's fill walks 16-input blocks two at a time: 4 inputs are under
  // two blocks, 5 are exactly two, 12 is the served width and 20 the widest
  // image. At 4 inputs the ND shared bit (the top input) lies in the low
  // nibble. After each swap, the whole image must equal ApproxLut::values()
  // and ApproxLutSystem::read of the new contents.
  for (const unsigned n : {4u, 5u, 12u, 20u}) {
    const core::ApproxLut luts[2] = {wide_all_modes_lut(n, 70 + n),
                                     wide_all_modes_lut(n, 80 + n)};
    const ApproxLutSystem systems[2] = {
        {ArchKind::kBtoNormalNd, luts[0], kTech},
        {ArchKind::kBtoNormalNd, luts[1], kTech}};
    std::vector<core::InputWord> domain(std::size_t{1} << n);
    for (std::size_t x = 0; x < domain.size(); ++x) {
      domain[x] = static_cast<core::InputWord>(x);
    }
    auto target = StreamTarget::compile(systems[0]);
    target.mark_applied(target.published_epoch());
    std::vector<core::OutputWord> y(domain.size());
    for (const int next : {1, 0}) {
      target.mark_applied(target.reconfigure(systems[next]));
      std::uint64_t epoch = 0;
      target.eval_batch(target.acquire(epoch), domain.data(), y.data(),
                        domain.size());
      ASSERT_EQ(y, luts[next].values()) << "n " << n << " swap to " << next;
      for (const core::InputWord x : domain) {
        ASSERT_EQ(y[x], systems[next].read(x)) << "n " << n << " x " << x;
      }
    }
  }
}

TEST(StreamEngine, TogglesUseCorrectedMaskedAccounting) {
  // Reads wider than the declared output bus: the batched engine must
  // reproduce the *masked* toggle numbers of the fixed simulate() loop.
  const MonolithicLut lut(2, 2, {3, 0, 3, 0}, kTech, 0, /*out_shift=*/2);
  const std::vector<core::InputWord> sequence{0, 1, 0, 1, 0};
  // Declared bus of 2 wires: the shifted-out value toggles only bits 2..3,
  // which do not exist on the bus.
  const auto scalar = simulate(make_target(lut, 2), sequence, nullptr, kTech);
  EXPECT_EQ(scalar.output_toggles, 0u);
  EXPECT_NEAR(scalar.total_energy, 5 * lut.cost().read_energy, 1e-9);
  auto narrow = StreamTarget::compile(lut, 2);
  EXPECT_EQ(stream_simulate(narrow, sequence, nullptr, kTech, 2), scalar);

  // A 4-wire bus sees both toggling bits.
  const auto wide_scalar =
      simulate(make_target(lut, 4), sequence, nullptr, kTech);
  EXPECT_EQ(wide_scalar.output_toggles, 8u);
  auto wide = StreamTarget::compile(lut, 4);
  EXPECT_EQ(stream_simulate(wide, sequence, nullptr, kTech, 3), wide_scalar);
}

// ---- Multi-producer engine ----------------------------------------------

/// The engine's documented deterministic drain order: round-robin over the
/// rings, min(batch, remaining) from each per cycle.
std::vector<core::InputWord> expected_merge(
    const std::vector<std::vector<core::InputWord>>& shards,
    std::size_t batch) {
  std::vector<std::size_t> pos(shards.size(), 0);
  std::vector<bool> done(shards.size(), false);
  std::size_t open = shards.size();
  std::vector<core::InputWord> merged;
  while (open > 0) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (done[i]) continue;
      const std::size_t remaining = shards[i].size() - pos[i];
      const std::size_t take = std::min(batch, remaining);
      if (take == 0) {
        done[i] = true;
        --open;
        continue;
      }
      merged.insert(merged.end(), shards[i].begin() + pos[i],
                    shards[i].begin() + pos[i] + take);
      pos[i] += take;
    }
  }
  return merged;
}

void push_shard(util::SpscRing<core::InputWord>& ring,
                const std::vector<core::InputWord>& shard) {
  std::size_t pushed = 0;
  while (pushed < shard.size()) {
    pushed += ring.try_push(shard.data() + pushed, shard.size() - pushed);
    if (pushed < shard.size()) std::this_thread::yield();
  }
  ring.close();
}

TEST(StreamEngine, EngineReportBitIdenticalAtOneAndEightProducers) {
  const unsigned width = 8;
  const auto lut = searched_lut(width, 4);
  const auto reference = lut.to_function();
  const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);

  for (const std::size_t producers : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::vector<core::InputWord>> shards;
    for (std::size_t p = 0; p < producers; ++p) {
      // Deliberately ragged shard sizes: partial final batches everywhere.
      shards.push_back(
          random_sequence(1500 + 331 * p, width, 100 + p));
    }

    StreamConfig config;
    config.batch_size = 256;
    config.ring_capacity = 512;
    auto target = StreamTarget::compile(system);
    StreamEngine engine(target, kTech, producers, config);

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back(push_shard, std::ref(engine.ring(p)),
                           std::cref(shards[p]));
    }
    const auto report = engine.run(&reference);
    for (auto& t : threads) t.join();

    const auto merged = expected_merge(shards, config.batch_size);
    const auto scalar =
        simulate(make_target(system), merged, &reference, kTech);
    EXPECT_EQ(report.sim, scalar) << producers << " producers";
    EXPECT_EQ(report.sim.reads, merged.size());
    EXPECT_GT(report.batches, 0u);
    EXPECT_EQ(report.reconfigs_observed, 0u);
  }
}

TEST(StreamEngine, EngineIsReusableAcrossRuns) {
  const auto g = benchmark("cos", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  auto target = StreamTarget::compile(lut, 8);

  const auto shard = random_sequence(700, 8, 21);
  SimulationReport first;
  for (int round = 0; round < 2; ++round) {
    StreamEngine engine(target, kTech, 2, {64, 128});
    std::thread a(push_shard, std::ref(engine.ring(0)), std::cref(shard));
    std::thread b(push_shard, std::ref(engine.ring(1)), std::cref(shard));
    const auto report = engine.run(&g);
    a.join();
    b.join();
    if (round == 0) {
      first = report.sim;
    } else {
      EXPECT_EQ(report.sim, first);  // timing-independent determinism
    }
  }
}

// ---- Runtime reconfiguration --------------------------------------------

TEST(StreamEngine, ReconfigureRejectsShapeMismatch) {
  const auto g = benchmark("cos", 8);
  std::vector<std::uint32_t> contents(g.values().begin(), g.values().end());
  const MonolithicLut lut(8, 8, contents, kTech);
  auto target = StreamTarget::compile(lut, 8);
  target.mark_applied(target.published_epoch());

  const MonolithicLut narrower(7, 8,
                               std::vector<std::uint32_t>(128, 0), kTech);
  EXPECT_THROW(target.reconfigure(narrower), std::invalid_argument);
  const MonolithicLut shifted(8, 8, contents, kTech, 0, 1);
  EXPECT_THROW(target.reconfigure(shifted), std::invalid_argument);

  const auto lut_a = all_modes_lut();
  const ApproxLutSystem sys_a(ArchKind::kBtoNormalNd, lut_a, kTech);
  EXPECT_THROW(target.reconfigure(sys_a), std::invalid_argument);
}

TEST(StreamEngine, ReconfigureSwapsContentsBetweenBatches) {
  // Identity vs complement contents: every read unambiguously identifies
  // which table generation served it.
  std::vector<std::uint32_t> identity(256), complement(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    identity[i] = i;
    complement[i] = ~i & 0xffu;
  }
  const MonolithicLut lut_a(8, 8, identity, kTech);
  const MonolithicLut lut_b(8, 8, complement, kTech);
  auto target = StreamTarget::compile(lut_a, 8);
  target.mark_applied(target.published_epoch());

  const auto e1 = target.reconfigure(lut_b);
  EXPECT_EQ(e1, 1u);
  target.mark_applied(e1);
  const auto sequence = random_sequence(100, 8, 3);
  std::vector<core::OutputWord> y(sequence.size());
  std::uint64_t epoch = 0;
  const TableImage& image = target.acquire(epoch);
  EXPECT_EQ(epoch, e1);
  target.eval_batch(image, sequence.data(), y.data(), sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(y[i], complement[sequence[i]]);
  }
}

TEST(StreamEngine, NoTornReadsAcrossConcurrentSwapEpochs) {
  // A writer thread flips identity <-> complement while the consumer
  // evaluates batches. Every batch must be served entirely by the epoch it
  // acquired: a single mixed-generation read would break the expectation.
  std::vector<std::uint32_t> identity(256), complement(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    identity[i] = i;
    complement[i] = ~i & 0xffu;
  }
  const MonolithicLut lut_a(8, 8, identity, kTech);
  const MonolithicLut lut_b(8, 8, complement, kTech);
  auto target = StreamTarget::compile(lut_a, 8);

  constexpr int kSwaps = 200;
  std::thread writer([&] {
    for (int s = 0; s < kSwaps; ++s) {
      // Even published epochs hold identity, odd hold complement.
      target.reconfigure(s % 2 == 0 ? lut_b : lut_a);
    }
  });

  const auto sequence = random_sequence(64, 8, 17);
  std::vector<core::OutputWord> y(sequence.size());
  std::uint64_t max_epoch = 0;
  while (max_epoch < kSwaps) {
    std::uint64_t epoch = 0;
    const TableImage& image = target.acquire(epoch);
    target.eval_batch(image, sequence.data(), y.data(), sequence.size());
    const auto& expected = epoch % 2 == 0 ? identity : complement;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      ASSERT_EQ(y[i], expected[sequence[i]])
          << "torn read at epoch " << epoch;
    }
    target.mark_applied(epoch);
    max_epoch = std::max(max_epoch, epoch);
  }
  writer.join();
  EXPECT_EQ(target.published_epoch(), static_cast<std::uint64_t>(kSwaps));
}

TEST(StreamEngine, MidStreamReconfigurationObservedByEngine) {
  std::vector<std::uint32_t> identity(256), complement(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    identity[i] = i;
    complement[i] = ~i & 0xffu;
  }
  const MonolithicLut lut_a(8, 8, identity, kTech);
  const MonolithicLut lut_b(8, 8, complement, kTech);
  auto target = StreamTarget::compile(lut_a, 8);

  StreamConfig config;
  config.batch_size = 64;
  StreamEngine engine(target, kTech, 1, config);

  // The producer holds the second half of the stream until every swap has
  // been published and applied, so the engine is guaranteed to retire at
  // least one batch on the final epoch.
  const auto shard = random_sequence(1 << 14, 8, 23);
  constexpr int kSwaps = 4;
  std::atomic<bool> half_pushed{false};
  std::atomic<bool> swaps_done{false};
  std::thread producer([&] {
    auto& ring = engine.ring(0);
    const std::size_t half = shard.size() / 2;  // multiple of batch_size
    std::size_t pushed = 0;
    while (pushed < half) {
      pushed += ring.try_push(shard.data() + pushed, half - pushed);
      if (pushed < half) std::this_thread::yield();
    }
    half_pushed.store(true, std::memory_order_release);
    while (!swaps_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (pushed < shard.size()) {
      pushed += ring.try_push(shard.data() + pushed, shard.size() - pushed);
      if (pushed < shard.size()) std::this_thread::yield();
    }
    ring.close();
  });
  std::thread writer([&] {
    // Only swap once the engine has provably consumed batches (the first
    // half drained), so every epoch advance happens mid-stream.
    while (!half_pushed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    while (!engine.ring(0).empty()) std::this_thread::yield();
    for (int s = 0; s < kSwaps; ++s) {
      const auto epoch = target.reconfigure(s % 2 == 0 ? lut_b : lut_a);
      // Swap latency: publish -> consumer retires the new table (a batch,
      // or an idle tick while it waits for the held-back half).
      while (target.applied_epoch() < epoch) std::this_thread::yield();
    }
    swaps_done.store(true, std::memory_order_release);
  });

  const auto report = engine.run(nullptr);
  producer.join();
  writer.join();

  EXPECT_EQ(report.sim.reads, shard.size());
  EXPECT_EQ(report.reconfigs_observed, static_cast<std::uint64_t>(kSwaps));
  EXPECT_EQ(target.applied_epoch(), target.published_epoch());
  EXPECT_GT(report.reads_per_sec, 0.0);
}

// ---- The read kernel against the targets' reference values -------------

/// eval_batch on the first `count` samples must read exactly expected[i]
/// for sample i.
void expect_reads(const StreamTarget& target,
                  const std::vector<core::InputWord>& sequence,
                  const std::vector<core::OutputWord>& expected,
                  std::size_t count, const std::string& what) {
  std::uint64_t epoch = 0;
  const TableImage& image = target.acquire(epoch);
  std::vector<core::OutputWord> y(count);
  target.eval_batch(image, sequence.data(), y.data(), count);
  EXPECT_TRUE(std::equal(y.begin(), y.end(), expected.begin()))
      << what << " count " << count;
}

// Widths 7 to 20, the approximate-target limit; batch lengths 1..17 and
// 4099 leave every tail length of the kLanes32-wide steps, on whichever
// backend this build compiled.
TEST(SimdIdentity, StreamKernelsMatchScalar) {
  for (const unsigned n : {7u, 9u, 12u, 16u, 17u, 20u}) {
    const auto sequence = random_sequence(4099, n, 80 + n);
    std::vector<core::OutputWord> expected(sequence.size());

    const std::string approx_what = "approx n " + std::to_string(n);
    const auto lut = wide_all_modes_lut(n, 70 + n);
    const ApproxLutSystem system(ArchKind::kBtoNormalNd, lut, kTech);
    const auto approx = StreamTarget::compile(system);
    const auto function = lut.to_function();
    std::transform(sequence.begin(), sequence.end(), expected.begin(),
                   [&](core::InputWord x) { return function.value(x); });
    for (std::size_t count = 1; count <= 17; ++count) {
      expect_reads(approx, sequence, expected, count, approx_what);
    }
    expect_reads(approx, sequence, expected, sequence.size(), approx_what);

    // A monolithic LUT with a dropped address LSB and an output shift.
    const std::string mono_what = "mono n " + std::to_string(n);
    util::Rng rng(90 + n);
    std::vector<std::uint32_t> contents(std::size_t{1} << (n - 1));
    for (auto& v : contents) {
      v = static_cast<std::uint32_t>(rng.next_below(1u << 11));
    }
    const MonolithicLut mono_lut(n - 1, 11, contents, kTech,
                                 /*addr_shift=*/1, /*out_shift=*/1);
    const auto mono = StreamTarget::compile(mono_lut, 12);
    std::transform(sequence.begin(), sequence.end(), expected.begin(),
                   [&](core::InputWord x) { return contents[x >> 1] << 1; });
    for (std::size_t count = 1; count <= 17; ++count) {
      expect_reads(mono, sequence, expected, count, mono_what);
    }
    expect_reads(mono, sequence, expected, sequence.size(), mono_what);
  }

  // Past 20 inputs there is no approximate image to compare kernels on.
  for (const unsigned n : {24u, 26u}) {
    const ApproxLutSystem system(ArchKind::kBtoNormalNd,
                                 wide_all_modes_lut(n, 70 + n), kTech);
    EXPECT_THROW(StreamTarget::compile(system), std::invalid_argument)
        << "n " << n;
  }

  // The top address x = 2^n - 1 reads the image's last word. Its
  // neighbours with input 0 or input n - 1 cleared read different words:
  // the normal unit (input 0 bound, lowest column bit) outputs phi, which
  // is 1 only in the top column of the two, and the ND unit (shared bit
  // n - 1) reads an all-ones F_1 against an all-zeros F_0.
  const unsigned n = 12;
  auto settings = wide_all_modes_settings(n, 5);
  core::Setting& normal = settings.front();
  ASSERT_EQ(normal.mode, core::DecompMode::kNormal);
  std::fill(normal.types.begin(), normal.types.end(),
            core::RowType::kPattern);
  normal.pattern[normal.pattern.size() - 1] = 1;
  normal.pattern[normal.pattern.size() - 2] = 0;
  core::Setting& nd = settings.back();
  ASSERT_EQ(nd.mode, core::DecompMode::kNonDisjoint);
  std::fill(nd.types0.begin(), nd.types0.end(), core::RowType::kAllZero);
  std::fill(nd.types1.begin(), nd.types1.end(), core::RowType::kAllOne);
  const ApproxLutSystem system(ArchKind::kBtoNormalNd,
                               core::ApproxLut::realize(n, settings), kTech);
  const auto target = StreamTarget::compile(system);
  const core::InputWord top = (core::InputWord{1} << n) - 1;
  ASSERT_NE(system.read(top), system.read(top - 1));
  ASSERT_NE(system.read(top), system.read(top >> 1));
  const std::vector<core::InputWord> sequence(4099, top);
  std::vector<core::OutputWord> y(sequence.size());
  std::uint64_t epoch = 0;
  const TableImage& image = target.acquire(epoch);
  target.eval_batch(image, sequence.data(), y.data(), y.size());
  EXPECT_EQ(image.words()[top], system.read(top));
  EXPECT_EQ(y.front() & 0b101u, 0b101u);
  for (const core::OutputWord v : y) ASSERT_EQ(v, system.read(top));
}

}  // namespace
}  // namespace dalut::hw
