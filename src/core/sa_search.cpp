#include "core/sa_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace dalut::core {

namespace {

/// Registry handles for the SA search. Write-only: nothing here is ever read
/// back, so the trajectory is bit-identical with telemetry on or off.
struct SaMetrics {
  util::telemetry::Counter sweeps = util::telemetry::Counter::get("sa.sweeps");
  util::telemetry::Counter proposals =
      util::telemetry::Counter::get("sa.proposals");
  util::telemetry::Counter evaluated =
      util::telemetry::Counter::get("sa.evaluated");
  util::telemetry::Counter dedup_skipped =
      util::telemetry::Counter::get("sa.dedup_skipped");
  util::telemetry::Counter moves_downhill =
      util::telemetry::Counter::get("sa.moves_downhill");
  util::telemetry::Counter moves_uphill =
      util::telemetry::Counter::get("sa.moves_uphill");
  util::telemetry::Counter moves_rejected =
      util::telemetry::Counter::get("sa.moves_rejected");
  util::telemetry::Counter chains_finished =
      util::telemetry::Counter::get("sa.chains_finished");
  util::telemetry::Histogram batch_size = util::telemetry::Histogram::get(
      "sa.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  util::telemetry::Gauge temperature =
      util::telemetry::Gauge::get("sa.temperature");
  util::telemetry::Gauge best_error =
      util::telemetry::Gauge::get("sa.best_error");
};

SaMetrics& sa_metrics() {
  static SaMetrics metrics;
  return metrics;
}

/// Keeps `top` sorted ascending by error with at most `limit` entries and at
/// most one entry per partition.
void insert_top(std::vector<Setting>& top, Setting setting, unsigned limit) {
  for (const auto& existing : top) {
    if (existing.partition == setting.partition) return;
  }
  const auto pos = std::upper_bound(
      top.begin(), top.end(), setting,
      [](const Setting& a, const Setting& b) { return a.error < b.error; });
  top.insert(pos, std::move(setting));
  if (top.size() > limit) top.pop_back();
}

/// State shared by all chains: the visited set Phi, the running top-N, and
/// the global best error E*.
struct SharedState {
  std::unordered_map<std::uint32_t, double> visited;  ///< Phi
  std::vector<Setting> top;
  std::vector<Setting> top_bto;
  double best_error = std::numeric_limits<double>::infinity();  ///< E*
};

/// One SA walk. All chains advance in lock-step sweeps: each sweep they
/// propose neighbours, every fresh proposal across every chain is evaluated
/// in one batch, and then each chain takes its accept/reject decision
/// against the updated Phi — the way the paper's 10 concurrent SA processes
/// shared one visited set.
struct Chain {
  std::optional<Partition> current;
  double current_error = std::numeric_limits<double>::infinity();
  double tau = 0.0;
  unsigned stagnant = 0;
  bool done = false;
  util::Rng rng{0};
  /// This sweep's proposals: the random initial partition while
  /// `current` is unset, the neighbour candidates afterwards.
  std::vector<Partition> pending;
};

class SaSearch {
 public:
  SaSearch(unsigned num_inputs, unsigned bound_size, const CostView& costs,
           unsigned n_beam, const SaParams& params, util::ThreadPool* pool,
           bool track_bto, util::RunControl* control)
      : num_inputs_(num_inputs),
        bound_size_(bound_size),
        costs_(costs),
        n_beam_(n_beam),
        params_(params),
        pool_(pool),
        track_bto_(track_bto),
        control_(control) {}

  SaSearchResult run(util::Rng& rng) {
    std::vector<Chain> chains(std::max(1u, params_.chains));
    for (auto& chain : chains) {
      chain.rng = rng.fork();
      chain.tau = params_.initial_temperature;
    }

    bool any_active = true;
    while (any_active && state_.visited.size() < params_.partition_limit) {
      // Cooperative stop, polled only here at the sweep boundary: every
      // merged sweep is complete, so the tops are always a valid prefix of
      // the uninterrupted search.
      if (control_ != nullptr && control_->stop_requested()) break;
      const util::telemetry::Span sweep_span("sa.sweep");
      sa_metrics().sweeps.add(1);
      // Phase 1 — propose. Serial and index-ordered: each chain draws only
      // from its own pre-forked RNG, so the proposal set is identical
      // regardless of pool presence or worker count.
      for (auto& chain : chains) {
        chain.pending.clear();
        if (chain.done) continue;
        if (!chain.current.has_value()) {
          // Algorithm 2 lines 1-3: random initial partition.
          chain.pending.push_back(
              Partition::random(num_inputs_, bound_size_, chain.rng));
        } else {
          chain.pending =
              chain.current->random_neighbours(params_.num_neighbours,
                                               chain.rng);
          if (chain.pending.empty()) chain.done = true;
        }
      }

      // Phase 2 — collect one cross-chain batch of fresh partitions,
      // deduplicated by bound mask (random_neighbours can repeat a
      // partition, and chains can propose each other's candidates) and
      // clamped so Phi cannot overshoot the partition budget mid-batch.
      const std::size_t room = params_.partition_limit - state_.visited.size();
      std::vector<Partition> batch;
      std::unordered_set<std::uint32_t> fresh_masks;
      for (const auto& chain : chains) {
        sa_metrics().proposals.add(chain.pending.size());
        for (const auto& p : chain.pending) {
          if (batch.size() >= room) break;
          const std::uint32_t mask = p.bound_mask();
          if (state_.visited.contains(mask) || fresh_masks.contains(mask)) {
            sa_metrics().dedup_skipped.add(1);
            continue;
          }
          fresh_masks.insert(mask);
          batch.push_back(p);
        }
        if (batch.size() >= room) break;
      }
      sa_metrics().evaluated.add(batch.size());
      sa_metrics().batch_size.observe(static_cast<double>(batch.size()));

      // Phase 3 — one parallel evaluation of the whole batch; results merge
      // into Phi in index order on this thread. A control trip mid-batch
      // discards the whole (partial) batch, leaving Phi at the previous
      // sweep's state.
      if (!evaluate_batch(batch, rng)) break;

      // Phase 4 — step every chain against the updated Phi (serial,
      // index-ordered; only chain-local RNG draws happen here).
      any_active = false;
      double hottest_tau = 0.0;
      for (auto& chain : chains) {
        if (chain.done) continue;
        step(chain, fresh_masks);
        if (chain.done) {
          sa_metrics().chains_finished.add(1);
        } else {
          any_active = true;
          hottest_tau = std::max(hottest_tau, chain.tau);
        }
      }
      if (any_active) sa_metrics().temperature.set(hottest_tau);
      if (std::isfinite(state_.best_error)) {
        sa_metrics().best_error.set(state_.best_error);
      }
    }

    SaSearchResult result;
    result.top = std::move(state_.top);
    result.top_bto = std::move(state_.top_bto);
    result.partitions_visited = state_.visited.size();
    if (control_ != nullptr) result.status = control_->status();
    return result;
  }

 private:
  /// Evaluates a batch of distinct unvisited partitions (parallel when a
  /// pool is given) and merges the results into the shared state. Each item
  /// gets an RNG pre-forked in index order, and the merge is index-ordered,
  /// so the outcome is independent of evaluation order. Returns false —
  /// merging nothing — when the RunControl tripped before every item was
  /// evaluated.
  bool evaluate_batch(const std::vector<Partition>& batch, util::Rng& rng) {
    const OptForPartParams opt_params{params_.init_patterns, 64};
    std::vector<Setting> results(batch.size());
    std::vector<Setting> bto_results(batch.size());
    std::vector<util::Rng> rngs;
    rngs.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) rngs.push_back(rng.fork());

    auto work = [&](std::size_t i) {
      // One gathered matrix serves both the normal and the BTO variant.
      auto& workspace = EvalWorkspace::local();
      const CandidateRef matrix = workspace.prepare(batch[i], costs_);
      auto vt = workspace.opt_for_part(matrix, opt_params, rngs[i]);
      results[i].error = vt.error;
      results[i].partition = batch[i];
      results[i].mode = DecompMode::kNormal;
      results[i].pattern = std::move(vt.pattern);
      results[i].types = std::move(vt.types);
      if (track_bto_) {
        auto bto = workspace.opt_for_part_bto(matrix);
        bto_results[i].error = bto.error;
        bto_results[i].partition = batch[i];
        bto_results[i].mode = DecompMode::kBto;
        bto_results[i].pattern = std::move(bto.pattern);
        bto_results[i].types = std::move(bto.types);
      }
    };
    try {
      if (pool_ != nullptr && batch.size() > 1) {
        pool_->parallel_for(0, batch.size(), work, control_);
      } else {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (control_ != nullptr && control_->stop_requested()) {
            return false;
          }
          work(i);
        }
      }
    } catch (const util::CancelledError&) {
      return false;  // partial batch: results[] holes, do not merge
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      state_.visited.emplace(batch[i].bound_mask(), results[i].error);
      state_.best_error = std::min(state_.best_error, results[i].error);
      insert_top(state_.top, std::move(results[i]), n_beam_);
      if (track_bto_) {
        insert_top(state_.top_bto, std::move(bto_results[i]), n_beam_);
      }
    }
    return true;
  }

  /// The decision half of one SA iteration (Algorithm 2 lines 5-19) for one
  /// chain, after this sweep's batch has been merged into Phi.
  /// `fresh_masks` holds the bound masks evaluated this sweep.
  void step(Chain& chain,
            const std::unordered_set<std::uint32_t>& fresh_masks) {
    if (!chain.current.has_value()) {
      // Adopt the initial partition once its error is known. It can miss
      // Phi only when the batch clamp cut it, i.e. the budget is exhausted
      // and the outer loop is about to stop; the chain then retries (with a
      // fresh draw) should the budget somehow allow another sweep.
      if (!chain.pending.empty()) {
        const auto it = state_.visited.find(chain.pending.front().bound_mask());
        if (it != state_.visited.end()) {
          chain.current = chain.pending.front();
          chain.current_error = it->second;
        }
      }
      return;
    }

    // Best neighbour among this chain's proposals with a known error. A
    // proposal can be unknown only if the batch clamp dropped it.
    const Partition* best_nb = nullptr;
    double best_nb_error = std::numeric_limits<double>::infinity();
    bool phi_changed = false;
    for (const auto& nb : chain.pending) {
      const std::uint32_t mask = nb.bound_mask();
      if (fresh_masks.contains(mask)) phi_changed = true;
      const auto it = state_.visited.find(mask);
      if (it == state_.visited.end()) continue;
      if (it->second < best_nb_error) {
        best_nb_error = it->second;
        best_nb = &nb;
      }
    }

    if (best_nb != nullptr) {
      // Lines 16-17: hill step, or probabilistic uphill step scaled by the
      // normalized error difference.
      if (best_nb_error <= chain.current_error) {
        chain.current = *best_nb;
        chain.current_error = best_nb_error;
        sa_metrics().moves_downhill.add(1);
      } else {
        const double denom = std::max(chain.tau * state_.best_error, 1e-300);
        const double accept =
            std::exp((chain.current_error - best_nb_error) / denom);
        if (chain.rng.next_double() < accept) {
          chain.current = *best_nb;
          chain.current_error = best_nb_error;
          sa_metrics().moves_uphill.add(1);
        } else {
          sa_metrics().moves_rejected.add(1);
        }
      }
      chain.tau *= params_.cooling;
    }

    if (phi_changed) {
      chain.stagnant = 0;
    } else if (++chain.stagnant >= params_.max_stagnant) {
      chain.done = true;  // Line 19
    }
  }

  unsigned num_inputs_;
  unsigned bound_size_;
  CostView costs_;
  unsigned n_beam_;
  SaParams params_;
  util::ThreadPool* pool_;
  bool track_bto_;
  util::RunControl* control_;
  SharedState state_;
};

}  // namespace

SaSearchResult find_best_settings(unsigned num_inputs, unsigned bound_size,
                                  const CostView& costs, unsigned n_beam,
                                  const SaParams& params, util::Rng& rng,
                                  util::ThreadPool* pool, bool track_bto,
                                  util::RunControl* control) {
  SaSearch search(num_inputs, bound_size, costs, n_beam, params, pool,
                  track_bto, control);
  return search.run(rng);
}

}  // namespace dalut::core
