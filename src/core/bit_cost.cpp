#include "core/bit_cost.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>

#include "core/eval_workspace.hpp"
#include "util/simd.hpp"
#include "util/trace_writer.hpp"

namespace dalut::core {

namespace {

namespace simd = util::simd;

inline double raw_distance(OutputWord a, OutputWord b) noexcept {
  return a > b ? static_cast<double>(a - b) : static_cast<double>(b - a);
}

/// loss(Y, Yhat) for the chosen metric given the absolute distance.
inline double loss_of_distance(double distance, CostMetric metric) noexcept {
  switch (metric) {
    case CostMetric::kMed:
      return distance;
    case CostMetric::kMse:
      return distance * distance;
    case CostMetric::kErrorRate:
      return distance != 0.0 ? 1.0 : 0.0;
  }
  return distance;
}

// ---- Vector kernel -------------------------------------------------------
// One i32 lane per input. Output words are < 2^m with m <= 30 on this path,
// so every intermediate difference fits a signed i32, the signed lane
// compares are order-correct, and i32 -> double conversion is exact; the
// kMse square is taken in the double domain exactly as the scalar path
// does. All arithmetic is elementwise per input, so results are
// bit-identical to the scalar fill.

inline simd::VecI iabs_diff(simd::VecI a, simd::VecI b) noexcept {
  return simd::iselect(simd::icmpgt(a, b), simd::isub(a, b),
                       simd::isub(b, a));
}

inline simd::VecD loss_vec(simd::VecI distance, CostMetric metric) noexcept {
  const simd::VecD d = simd::i_to_d(distance);
  switch (metric) {
    case CostMetric::kMed:
      return d;
    case CostMetric::kMse:
      return simd::dmul(d, d);
    case CostMetric::kErrorRate:
      // The nonzero-mask AND picks exactly 1.0 or +0.0.
      return simd::dand(simd::dcmpneq(d, simd::dzero()),
                        simd::dbroadcast(1.0));
  }
  return d;
}

}  // namespace

std::uint64_t next_cost_epoch() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

BitCostArrays build_bit_costs(const MultiOutputFunction& g,
                              const std::vector<OutputWord>& approx_values,
                              unsigned k, LsbModel model,
                              const InputDistribution& dist,
                              CostMetric metric, util::ThreadPool* pool) {
  const util::telemetry::Span span("build_bit_costs");
  assert(k < g.num_outputs());
  assert(approx_values.size() == g.domain_size());
  assert(dist.num_inputs() == g.num_inputs());

  const std::size_t domain = g.domain_size();
  const OutputWord bit_k = OutputWord{1} << k;
  const OutputWord below_mask = bit_k - 1;
  const OutputWord above_mask = g.output_mask() & ~(below_mask | bit_k);

  BitCostArrays costs;
  costs.c0.resize(domain);
  costs.c1.resize(domain);
  costs.epoch = next_cost_epoch();
  costs.lease = std::shared_ptr<const void>(
      nullptr, [e = costs.epoch](const void*) { release_eval_cache_epoch(e); });

  auto fill = [&](std::size_t i) {
    const auto x = static_cast<InputWord>(i);
    const double p = dist.probability(x);
    const OutputWord y = g.value(x);
    const OutputWord msb = approx_values[x] & above_mask;

    double distance[2] = {0.0, 0.0};
    switch (model) {
      case LsbModel::kCurrentApprox: {
        const OutputWord lsb = approx_values[x] & below_mask;
        distance[0] = raw_distance(y, msb | lsb);
        distance[1] = raw_distance(y, msb | bit_k | lsb);
        break;
      }
      case LsbModel::kAccurateFill: {
        const OutputWord lsb = y & below_mask;
        distance[0] = raw_distance(y, msb | lsb);
        distance[1] = raw_distance(y, msb | bit_k | lsb);
        break;
      }
      case LsbModel::kPredictive: {
        const OutputWord y_m = y & ~below_mask;  // Y_M: bits >= k of Y
        for (unsigned v = 0; v < 2; ++v) {
          const OutputWord yhat_m = msb | (v ? bit_k : 0);
          if (yhat_m > y_m) {
            // Case 1: overshoot - the optimizer would zero the LSBs.
            distance[v] = static_cast<double>(yhat_m - y);
          } else if (yhat_m < y_m) {
            // Case 2: undershoot - the optimizer would max out the LSBs.
            distance[v] = static_cast<double>(y - yhat_m - below_mask);
          } else {
            // Case 3: match - the LSBs can reproduce Y exactly.
            distance[v] = 0.0;
          }
        }
        break;
      }
    }
    costs.c0[x] = p * loss_of_distance(distance[0], metric);
    costs.c1[x] = p * loss_of_distance(distance[1], metric);
  };

  // Vector path: i32 lanes need every intermediate difference to fit a
  // signed 32-bit value, and the dense value array to exist (out-of-core
  // tables unpack per input and take the scalar fill).
  const OutputWord* gv = g.dense_data();
  const bool vec = simd::enabled() && g.num_outputs() <= 30 && gv != nullptr;
  const double* ptable = dist.table_data();

  auto fill_range = [&](std::size_t begin, std::size_t end) {
    std::size_t x = begin;
    if (vec) {
      const OutputWord* av = approx_values.data();
      double* c0 = costs.c0.data();
      double* c1 = costs.c1.data();
      const simd::VecD pu = simd::dbroadcast(dist.probability(0));
      const auto vabove = simd::ibroadcast(static_cast<std::int32_t>(above_mask));
      const auto vbelow = simd::ibroadcast(static_cast<std::int32_t>(below_mask));
      const auto vbitk = simd::ibroadcast(static_cast<std::int32_t>(bit_k));
      const auto vzero = simd::ibroadcast(0);
      for (; x + simd::kLanes <= end; x += simd::kLanes) {
        const simd::VecI y = simd::iloadu(gv + x);
        const simd::VecI ap = simd::iloadu(av + x);
        const simd::VecI msb = simd::iand(ap, vabove);
        simd::VecI d0, d1;
        switch (model) {
          case LsbModel::kCurrentApprox:
          case LsbModel::kAccurateFill: {
            const simd::VecI lsb =
                simd::iand(model == LsbModel::kCurrentApprox ? ap : y, vbelow);
            const simd::VecI a0 = simd::ior(msb, lsb);
            d0 = iabs_diff(y, a0);
            d1 = iabs_diff(y, simd::ior(a0, vbitk));
            break;
          }
          case LsbModel::kPredictive: {
            const simd::VecI y_m = simd::iandnot(vbelow, y);
            const simd::VecI yhats[2] = {msb, simd::ior(msb, vbitk)};
            simd::VecI d[2];
            for (unsigned v = 0; v < 2; ++v) {
              // Overshoot: yhat_m - y; undershoot: y - yhat_m - below_mask;
              // match: 0. The selected branch is nonnegative by definition,
              // matching the scalar case analysis exactly.
              const simd::VecI over = simd::icmpgt(yhats[v], y_m);
              const simd::VecI under = simd::icmpgt(y_m, yhats[v]);
              const simd::VecI d_over = simd::isub(yhats[v], y);
              const simd::VecI d_under =
                  simd::isub(simd::isub(y, yhats[v]), vbelow);
              d[v] = simd::iselect(
                  over, d_over, simd::iselect(under, d_under, vzero));
            }
            d0 = d[0];
            d1 = d[1];
            break;
          }
        }
        const simd::VecD p = ptable ? simd::dloadu(ptable + x) : pu;
        simd::dstoreu(c0 + x, simd::dmul(p, loss_vec(d0, metric)));
        simd::dstoreu(c1 + x, simd::dmul(p, loss_vec(d1, metric)));
      }
    }
    for (; x < end; ++x) fill(x);
  };

  // Below ~16k inputs the loop is cheaper than waking the pool. The
  // parallel grain is a fixed 4096-input chunk (always a lane multiple for
  // power-of-two domains) — per-input stores are elementwise, so chunking
  // is purely a dispatch-overhead choice and cannot affect results.
  constexpr std::size_t kParallelDomainThreshold = std::size_t{1} << 14;
  constexpr std::size_t kChunk = std::size_t{1} << 12;
  if (pool != nullptr && domain >= kParallelDomainThreshold) {
    pool->parallel_for(0, domain / kChunk, [&](std::size_t chunk) {
      fill_range(chunk * kChunk, (chunk + 1) * kChunk);
    });
  } else {
    fill_range(0, domain);
  }
  return costs;
}

}  // namespace dalut::core
