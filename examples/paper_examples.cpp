// Walks through the paper's three worked examples:
//   Example 1 (Sec. II-A)  - exact Ashenhurst decomposition of a 2D table.
//   Example 2 (Sec. IV-A)  - BTO restriction: all rows forced to type 3.
//   Example 3 (Sec. IV-B1) - non-disjoint decomposition with shared bit x2.
#include <cstdio>

#include "core/ashenhurst.hpp"
#include "core/bit_cost.hpp"
#include "core/decomposition.hpp"
#include "core/opt_for_part.hpp"
#include "core/partition_opt.hpp"
#include "util/rng.hpp"

using namespace dalut;
using namespace dalut::core;

namespace {

void print_two_dim(const TruthTable& f, const Partition& p) {
  const auto table = TwoDimTruthTable::build(f, p);
  std::printf("      B->");
  for (std::size_t c = 0; c < table.cols; ++c) std::printf(" %zu", c);
  std::printf("\n");
  for (std::size_t r = 0; r < table.rows; ++r) {
    std::printf("  A=%zu   ", r);
    for (std::size_t c = 0; c < table.cols; ++c) {
      std::printf(" %d", table.at(r, c));
    }
    std::printf("\n");
  }
}

void example1() {
  std::printf("=== Example 1: exact disjoint decomposition ===\n");
  // A function built like Fig. 1(a): rows over A = {x1,x2}, columns over
  // B = {x3,x4}; row types (Pattern, Complement, AllOne, AllZero) with the
  // XOR pattern V = (0,1,1,0).
  const Partition p(4, 0b1100);
  const auto f = TruthTable::from_eval(4, [&](InputWord x) {
    const bool v = ((x >> 2) ^ (x >> 3)) & 1;  // XOR of x3, x4
    switch (p.row_of(x)) {
      case 0: return v;        // type 3: pattern
      case 1: return !v;       // type 4: complement
      case 2: return true;     // type 2: all ones
      default: return false;   // type 1: all zeros
    }
  });
  std::printf("2D truth table with %s:\n", p.to_string().c_str());
  print_two_dim(f, p);

  const auto d = exact_decomposition(f, p);
  std::printf("decomposable: %s\n", d ? "yes" : "no");
  if (d) {
    std::printf("pattern vector V: ");
    for (const auto bit : d->pattern) std::printf("%d", bit);
    std::printf("\ntype vector T   : ");
    for (const auto type : d->types) {
      std::printf("%d", static_cast<int>(type));
    }
    std::printf("\nphi(x3,x4) truth table: ");
    const auto phi = d->phi();
    for (InputWord c = 0; c < 4; ++c) std::printf("%d", phi.get(c));
    std::printf("  (the XOR function)\n\n");
  }
}

void example2() {
  std::printf("=== Example 2: BTO restriction ===\n");
  // Fig. 2(a): exactly decomposable with V = (1,1,1,0) and T = (3,2,3,3) -
  // row 1 is all-ones, the rest follow V. Forcing every row to type 3 (BTO)
  // gets exactly one cell wrong: the "red cell" at (row 1, col 3).
  const Partition p(4, 0b1100);
  const auto f = TruthTable::from_eval(4, [&](InputWord x) {
    const auto c = p.col_of(x);
    const auto r = p.row_of(x);
    if (r == 1) return true;  // type 2 row
    return c != 3;            // pattern V = (1,1,1,0)
  });
  print_two_dim(f, p);

  // Cost arrays treating f as a 1-output function under uniform inputs.
  const auto g = MultiOutputFunction::from_eval(
      4, 1, [&](InputWord x) { return f.get(x) ? 1u : 0u; });
  const auto dist = InputDistribution::uniform(4);
  const auto costs =
      build_bit_costs(g, g.values(), 0, LsbModel::kCurrentApprox, dist);
  util::Rng rng(1);

  const auto full = optimize_normal(p, costs, {16, 64}, rng);
  const auto bto = optimize_bto(p, costs);
  std::printf("normal-mode error : %.5f (free table needed)\n", full.error);
  std::printf("BTO-mode error    : %.5f (free table POWERED OFF)\n",
              bto.error);
  std::printf("BTO pattern vector: ");
  for (const auto bit : bto.pattern) std::printf("%d", bit);
  std::printf("  -> phi = ~x3~x4 + ~x3x4 + x3~x4\n\n");
}

void example3() {
  std::printf("=== Example 3: non-disjoint decomposition ===\n");
  // A 5-input function that needs phi to carry information about x2:
  // t(X) = F(phi(B), A, x2) with A = {x4,x5}, B = {x1,x2,x3}.
  const auto g = MultiOutputFunction::from_eval(5, 1, [](InputWord x) {
    const bool x1 = x & 1, x2 = (x >> 1) & 1, x3 = (x >> 2) & 1;
    const bool x4 = (x >> 3) & 1, x5 = (x >> 4) & 1;
    const bool phi0 = x1 == x3;  // XNOR
    const bool phi1 = !x1;
    const bool f0 = (phi0 && !x5) || (x4 && x5);
    const bool f1 = (!x4 && !x5) || (phi1 && (x4 ^ x5));
    return static_cast<OutputWord>(x2 ? f1 : f0);
  });
  const auto dist = InputDistribution::uniform(5);
  const auto costs =
      build_bit_costs(g, g.values(), 0, LsbModel::kCurrentApprox, dist);
  const Partition p(5, 0b00111);
  util::Rng rng(2);

  const auto disjoint = optimize_normal(p, costs, {24, 64}, rng);
  const auto nd = optimize_nondisjoint(p, costs, {24, 64}, rng);
  std::printf("partition        : %s\n", p.to_string().c_str());
  std::printf("disjoint error   : %.5f\n", disjoint.error);
  std::printf("non-disjoint err : %.5f (shared bit x%u)\n", nd.error,
              nd.shared_bit + 1);

  const auto bit = DecomposedBit::realize(nd);
  std::size_t mismatches = 0;
  for (InputWord x = 0; x < 32; ++x) {
    if (bit.eval(x) != g.output_bit(x, 0)) ++mismatches;
  }
  std::printf("ND realization reproduces t(X) with %zu/32 mismatches\n",
              mismatches);
  std::printf("hardware: bound table %zu entries + 2 free tables of %zu\n",
              bit.bound_table().size(), bit.free_table0().size());
}

}  // namespace

int main() {
  example1();
  example2();
  example3();
  return 0;
}
