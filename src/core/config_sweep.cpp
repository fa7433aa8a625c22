#include "core/config_sweep.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dalut::core {

ConfigSweep::ConfigSweep(const MultiOutputFunction& g,
                         const InputDistribution& dist,
                         std::vector<ModeCandidates> candidates,
                         std::vector<std::array<double, 3>> costs)
    : g_(g),
      dist_(dist),
      candidates_(std::move(candidates)),
      costs_(std::move(costs)) {
  if (candidates_.size() != g.num_outputs() ||
      costs_.size() != g.num_outputs()) {
    throw std::invalid_argument("need candidates and costs for every bit");
  }
  const std::size_t domain = g.domain_size();
  bit_values_.resize(candidates_.size());
  for (unsigned k = 0; k < candidates_.size(); ++k) {
    for (unsigned level = 0; level < 3; ++level) {
      const auto& setting = candidates_[k].by_level[level];
      if (!setting.valid()) {
        throw std::invalid_argument("invalid candidate setting");
      }
      bit_values_[k][level] = DecomposedBit::realize(setting).eval_all();
      if (bit_values_[k][level].size() != domain) {
        throw std::invalid_argument("candidate setting width mismatch");
      }
    }
  }
  levels_.assign(candidates_.size(), 0);
  values_.resize(domain);
  rebuild();
}

void ConfigSweep::rebuild() {
  const std::size_t domain = g_.domain_size();
  for (InputWord x = 0; x < domain; ++x) {
    OutputWord y = 0;
    for (unsigned k = 0; k < levels_.size(); ++k) {
      if (bit_values_[k][levels_[k]][x]) y |= OutputWord{1} << k;
    }
    values_[x] = y;
  }
  current_med_ = mean_error_distance(g_, values_, dist_);
  current_cost_ = 0.0;
  for (unsigned k = 0; k < levels_.size(); ++k) {
    current_cost_ += costs_[k][levels_[k]];
  }
}

void ConfigSweep::set_all(unsigned level) {
  assert(level < 3);
  levels_.assign(levels_.size(), level);
  rebuild();
}

void ConfigSweep::set_level(unsigned k, unsigned level) {
  assert(k < levels_.size() && level < 3);
  if (levels_[k] == level) return;
  const auto& table = bit_values_[k][level];
  const OutputWord mask = OutputWord{1} << k;
  for (InputWord x = 0; x < values_.size(); ++x) {
    values_[x] = table[x] ? (values_[x] | mask) : (values_[x] & ~mask);
  }
  current_cost_ += costs_[k][level] - costs_[k][levels_[k]];
  levels_[k] = level;
  current_med_ = mean_error_distance(g_, values_, dist_);
}

double ConfigSweep::med_with(unsigned k, unsigned level) const {
  assert(k < levels_.size() && level < 3);
  const auto& table = bit_values_[k][level];
  const OutputWord mask = OutputWord{1} << k;
  double med = 0.0;
  for (InputWord x = 0; x < values_.size(); ++x) {
    const OutputWord y =
        table[x] ? (values_[x] | mask) : (values_[x] & ~mask);
    const OutputWord exact = g_.value(x);
    const double diff = exact > y ? exact - y : y - exact;
    med += dist_.probability(x) * diff;
  }
  return med;
}

std::vector<Setting> ConfigSweep::settings() const {
  std::vector<Setting> result(levels_.size());
  for (unsigned k = 0; k < levels_.size(); ++k) {
    result[k] = candidates_[k].by_level[levels_[k]];
  }
  return result;
}

std::vector<FrontierPoint> greedy_frontier(ConfigSweep& sweep,
                                           util::RunControl* control) {
  sweep.set_all(0);
  const unsigned m = sweep.num_outputs();

  std::vector<FrontierPoint> frontier;
  auto record = [&] {
    FrontierPoint point;
    point.mode_counts = {0, 0, 0};
    for (const unsigned level : sweep.levels()) ++point.mode_counts[level];
    point.med = sweep.current_med();
    point.cost = sweep.current_cost();
    frontier.push_back(point);
  };
  record();

  for (;;) {
    if (control != nullptr && control->stop_requested()) break;
    double best_ratio = -1e300;
    int best_bit = -1;
    unsigned best_level = 0;
    for (unsigned k = 0; k < m; ++k) {
      for (unsigned level = sweep.levels()[k] + 1; level <= 2; ++level) {
        const double med = sweep.med_with(k, level);
        const double d_cost = std::max(
            sweep.cost_of(k, level) - sweep.cost_of(k, sweep.levels()[k]),
            1e-9);
        const double ratio = (sweep.current_med() - med) / d_cost;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best_bit = static_cast<int>(k);
          best_level = level;
        }
      }
    }
    if (best_bit < 0) break;  // everything at the top level
    sweep.set_level(static_cast<unsigned>(best_bit), best_level);
    record();
    if (control != nullptr) {
      util::RunProgress progress;
      progress.stage = "frontier";
      progress.bit = static_cast<unsigned>(best_bit);
      progress.steps_done = frontier.size() - 1;  // upgrades taken so far
      progress.steps_total = 2u * m;              // level-0 -> level-2 per bit
      progress.best_error = sweep.current_med();
      control->report_progress(progress);
    }
  }
  return frontier;
}

}  // namespace dalut::core
