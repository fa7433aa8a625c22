#include "hw/multi_shared_unit.hpp"

#include <gtest/gtest.h>

#include "core/bit_cost.hpp"
#include "util/rng.hpp"

namespace dalut::hw {
namespace {

const Technology kTech = Technology::nangate45();

core::MultiSharedBit make_bit(unsigned shared_count, std::uint64_t seed) {
  const unsigned n = 7;
  util::Rng fn_rng(seed);
  const auto g = core::MultiOutputFunction::from_eval(
      n, 1, [&](core::InputWord) {
        return static_cast<core::OutputWord>(fn_rng.next_below(2));
      });
  const auto dist = core::InputDistribution::uniform(n);
  const auto costs = core::build_bit_costs(
      g, g.values(), 0, core::LsbModel::kCurrentApprox, dist);
  util::Rng rng(seed + 1);
  const auto p = core::Partition::random(n, 4, rng);
  const auto setting =
      core::optimize_multi_shared(p, shared_count, costs, {8, 64}, rng);
  return core::MultiSharedBit::realize(setting);
}

TEST(MultiSharedUnit, ReadMatchesFunctionalBit) {
  for (unsigned s = 0; s <= 2; ++s) {
    auto bit = make_bit(s, 10 + s);
    const MultiSharedUnit unit(bit, 7, kTech);
    for (core::InputWord x = 0; x < 128; ++x) {
      EXPECT_EQ(unit.read(x), bit.eval(x)) << "s=" << s << " x=" << x;
    }
  }
}

TEST(MultiSharedUnit, CostsGrowWithSharedCount) {
  const MultiSharedUnit u0(make_bit(0, 20), 7, kTech);
  const MultiSharedUnit u1(make_bit(1, 20), 7, kTech);
  const MultiSharedUnit u2(make_bit(2, 20), 7, kTech);
  EXPECT_LT(u0.area(), u1.area());
  EXPECT_LT(u1.area(), u2.area());
  EXPECT_LT(u0.read_energy(), u1.read_energy());
  EXPECT_LT(u1.read_energy(), u2.read_energy());
  EXPECT_LT(u0.leakage(), u1.leakage());
  EXPECT_LE(u0.delay(), u1.delay());
  EXPECT_LE(u1.delay(), u2.delay());
}

TEST(MultiSharedUnit, DoublingFreeTablesRoughlyDoublesTheirEnergy) {
  const MultiSharedUnit u0(make_bit(0, 30), 7, kTech);
  const MultiSharedUnit u2(make_bit(2, 30), 7, kTech);
  const LutRam free_table(7 - 4 + 1, 1, kTech);
  const double extra = u2.read_energy() - u0.read_energy();
  // |C| = 2 adds three extra free tables (4 total vs 1) plus the mux tree.
  EXPECT_NEAR(extra, 3 * free_table.read_energy(true), extra * 0.25);
}

TEST(MultiSharedUnit, VerilogStructure) {
  auto bit = make_bit(2, 40);
  const MultiSharedUnit unit(bit, 7, kTech);
  const auto v = emit_multi_shared_verilog(unit, "nd2");
  EXPECT_NE(v.find("module nd2 ("), std::string::npos);
  EXPECT_NE(v.find("BOUND_INIT"), std::string::npos);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NE(v.find("FREE" + std::to_string(j) + "_INIT"),
              std::string::npos);
  }
  EXPECT_NE(v.find("case (shared_sel)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(MultiSharedUnit, VerilogSemanticsMatchModel) {
  // Re-evaluate the emitted ROM semantics against the unit, as in the main
  // Verilog tests: parse BOUND/FREE localparams and replay the select.
  auto bit = make_bit(2, 50);
  const MultiSharedUnit unit(bit, 7, kTech);
  const auto v = emit_multi_shared_verilog(unit, "u");

  auto parse = [&](const std::string& name) {
    const auto at = v.find(name + " = ");
    EXPECT_NE(at, std::string::npos) << name;
    const auto tick = v.find("'b", at);
    const auto semi = v.find(';', tick);
    const std::string body = v.substr(tick + 2, semi - tick - 2);
    std::vector<std::uint8_t> bits(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
      bits[body.size() - 1 - i] = body[i] == '1' ? 1 : 0;
    }
    return bits;
  };

  const auto bound = parse("BOUND_INIT");
  std::vector<std::vector<std::uint8_t>> frees;
  for (int j = 0; j < 4; ++j) {
    frees.push_back(parse("FREE" + std::to_string(j) + "_INIT"));
  }
  const auto& partition = bit.partition();
  for (core::InputWord x = 0; x < 128; ++x) {
    const bool phi = bound[partition.col_of(x)] != 0;
    std::size_t sel = 0;
    for (std::size_t i = 0; i < bit.shared_bits().size(); ++i) {
      if ((x >> bit.shared_bits()[i]) & 1u) sel |= std::size_t{1} << i;
    }
    const bool y =
        frees[sel][(partition.row_of(x) << 1) | (phi ? 1u : 0u)] != 0;
    ASSERT_EQ(y, unit.read(x)) << x;
  }
}

}  // namespace
}  // namespace dalut::hw
