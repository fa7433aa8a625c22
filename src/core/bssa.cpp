#include "core/bssa.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/bit_cost.hpp"
#include "core/partition_opt.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace_writer.hpp"

namespace dalut::core {

namespace {

/// Write-only registry handles for the BS-SA driver.
struct BssaMetrics {
  util::telemetry::Counter bit_steps =
      util::telemetry::Counter::get("bssa.bit_steps");
  util::telemetry::Counter beam_candidates =
      util::telemetry::Counter::get("bssa.beam_candidates");
  util::telemetry::Counter nd_trials =
      util::telemetry::Counter::get("bssa.nd_trials");
};

BssaMetrics& bssa_metrics() {
  static BssaMetrics metrics;
  return metrics;
}

/// One beam of the first-round search: a partial setting sequence (bits
/// m-1..k already decided), the realized approximate values of those bits,
/// and the sequence error (the E of its most recent setting, which already
/// accounts for decided MSBs and predicted LSBs).
struct Beam {
  std::vector<Setting> settings;
  std::vector<OutputWord> cache;
  double error = std::numeric_limits<double>::infinity();
};

/// Fingerprint of every parameter that shapes the BS-SA trajectory. Folding
/// them in a fixed order means a checkpoint taken under one configuration
/// cannot silently resume under another.
std::uint64_t bssa_digest(const MultiOutputFunction& g,
                          const BssaParams& params) {
  ParamsDigest d;
  d.add_string("bssa");
  d.add(g.num_inputs()).add(g.num_outputs());
  d.add(params.bound_size).add(params.rounds).add(params.beam_width);
  d.add(params.sa.partition_limit).add(params.sa.num_neighbours);
  d.add_double(params.sa.initial_temperature);
  d.add_double(params.sa.cooling);
  d.add(params.sa.init_patterns).add(params.sa.max_stagnant);
  d.add(params.sa.chains);
  d.add(params.modes.allow_bto ? 1 : 0).add(params.modes.allow_nd ? 1 : 0);
  d.add_double(params.modes.delta).add_double(params.modes.delta_prime);
  d.add(params.nd_candidates);
  d.add(static_cast<std::uint64_t>(params.metric));
  d.add(static_cast<std::uint64_t>(params.first_round_model));
  d.add(params.seed);
  return d.value();
}

[[noreturn]] void reject_resume(const std::string& what) {
  throw std::invalid_argument("cannot resume BS-SA: " + what);
}

/// Checks a checkpoint against this run's shape before any state is
/// restored. Round 1 requires the decided set of every beam to be exactly
/// the top `bits_done` bits (the beam search decides MSB-first); refinement
/// rounds carry a single fully decided beam.
void validate_resume(const SearchCheckpoint& ck, std::uint64_t digest,
                     unsigned n, unsigned m, unsigned rounds) {
  if (ck.algorithm != "bssa") {
    reject_resume("checkpoint holds a '" + ck.algorithm + "' search");
  }
  if (ck.params_digest != digest) {
    reject_resume("checkpoint was taken under different search parameters");
  }
  if (ck.num_inputs != n || ck.num_outputs != m) {
    reject_resume("checkpoint is for a different function size");
  }
  if (ck.round < 1 || ck.round > rounds) {
    reject_resume("checkpoint round is outside this run's rounds");
  }
  if (ck.bits_done > m) reject_resume("bits-done exceeds the output width");
  if (ck.beams.empty()) reject_resume("checkpoint holds no beams");
  if (ck.round >= 2 && ck.beams.size() != 1) {
    reject_resume("refinement rounds carry exactly one beam");
  }
  for (const auto& beam : ck.beams) {
    if (beam.decided.size() != m || beam.settings.size() != m) {
      reject_resume("beam width disagrees with the output width");
    }
    for (unsigned k = 0; k < m; ++k) {
      const bool expect =
          ck.round >= 2 ? true : k >= m - ck.bits_done;
      if ((beam.decided[k] != 0) != expect) {
        reject_resume("beam decided-set does not match the cursor");
      }
      if (beam.decided[k] != 0 && !beam.settings[k].valid()) {
        reject_resume("decided bit carries an invalid setting");
      }
    }
  }
}

}  // namespace

void BssaParams::validate(unsigned num_inputs) const {
  check_count("bound", bound_size, 1, std::max(num_inputs, 1u) - 1);
  // BTO/ND modes are selected in the refinement rounds, from round 2 on.
  check_count("rounds", rounds, modes.allow_bto || modes.allow_nd ? 2 : 1,
              kMaxRounds);
  check_count("beams", beam_width, 1, kMaxBeamWidth);
  check_count("partitions", sa.partition_limit, 1, kMaxPartitionLimit);
  check_count("patterns", sa.init_patterns, 1, kMaxInitPatterns);
  check_count("chains", sa.chains, 1, kMaxChains);
  check_count("nd-candidates", nd_candidates, modes.allow_nd ? 1 : 0,
              kMaxNdCandidates);
  check_factor("delta", modes.delta);
  check_factor("delta-prime", modes.delta_prime);
}

DecompositionResult run_bssa(const MultiOutputFunction& g,
                             const InputDistribution& dist,
                             const BssaParams& params) {
  params.validate(g.num_inputs());
  const unsigned m = g.num_outputs();
  const bool reconfigurable = params.modes.allow_bto || params.modes.allow_nd;

  util::WallTimer timer;
  util::Rng rng(params.seed);
  std::size_t partitions_evaluated = 0;
  double elapsed_before = 0.0;
  const bool debug_bssa = std::getenv("DALUT_DEBUG_BSSA") != nullptr;
  util::RunControl* const control = params.control;
  const std::uint64_t digest = bssa_digest(g, params);
  const std::size_t steps_total =
      static_cast<std::size_t>(params.rounds) * m;

  // ---- Restore, or start fresh. ----
  unsigned start_round = 1;
  unsigned start_bits_done = 0;
  std::vector<Beam> beams;
  if (params.resume != nullptr) {
    const SearchCheckpoint& ck = *params.resume;
    validate_resume(ck, digest, g.num_inputs(), m, params.rounds);
    start_round = ck.round;
    start_bits_done = ck.bits_done;
    rng.set_state(ck.rng_state);
    partitions_evaluated =
        static_cast<std::size_t>(ck.partitions_evaluated);
    elapsed_before = ck.elapsed_seconds;
    beams.resize(ck.beams.size());
    for (std::size_t b = 0; b < beams.size(); ++b) {
      beams[b].settings = ck.beams[b].settings;
      beams[b].error = ck.beams[b].error;
      // The approximate-value cache is derived state: replay every decided
      // bit over the exact values, exactly as the original run built it.
      beams[b].cache = g.copy_values();
      for (unsigned k = 0; k < m; ++k) {
        if (ck.beams[b].decided[k] != 0) {
          write_bit_to_cache(beams[b].cache, k, beams[b].settings[k]);
        }
      }
    }
  } else {
    beams.resize(1);
    beams[0].settings.resize(m);
    beams[0].cache = g.copy_values();  // contents above the current bit are
                                       // unused until that bit has been
                                       // decided
  }

  // Checkpoints are cut only at bit-step boundaries: the cursor plus the
  // master RNG state there fully determine the remaining trajectory, since
  // every intra-step draw forks from the master stream in a fixed order.
  unsigned steps_since_checkpoint = 0;
  auto checkpoint_due = [&]() {
    if (params.checkpoint_every == 0 || !params.checkpoint_sink) return false;
    if (++steps_since_checkpoint < params.checkpoint_every) return false;
    steps_since_checkpoint = 0;
    return true;
  };
  auto snapshot = [&](const Beam& beam) {
    BeamCheckpoint bc;
    bc.error = beam.error;
    bc.settings = beam.settings;
    bc.decided.resize(m);
    for (unsigned j = 0; j < m; ++j) {
      bc.decided[j] = beam.settings[j].valid() ? 1 : 0;
    }
    return bc;
  };
  auto emit_checkpoint = [&](unsigned round, unsigned bits_done,
                             std::vector<BeamCheckpoint> snaps) {
    SearchCheckpoint ck;
    ck.algorithm = "bssa";
    ck.params_digest = digest;
    ck.num_inputs = g.num_inputs();
    ck.num_outputs = m;
    ck.round = round;
    ck.bits_done = bits_done;
    ck.rng_state = rng.state();
    ck.partitions_evaluated = partitions_evaluated;
    ck.elapsed_seconds = elapsed_before + timer.seconds();
    ck.beams = std::move(snaps);
    params.checkpoint_sink(ck);
  };
  auto report = [&](const char* stage, unsigned round, unsigned bit,
                    double best_error) {
    if (control == nullptr) return;
    util::RunProgress progress;
    progress.stage = stage;
    progress.round = round;
    progress.bit = bit;
    progress.steps_done =
        static_cast<std::size_t>(round - 1) * m + (m - bit);
    progress.steps_total = steps_total;
    progress.best_error = best_error;
    control->report_progress(progress);
  };

  bool interrupted = false;

  // ---- Round 1: beam search (Algorithm 1, lines 1-10). ----
  if (start_round == 1) {
    for (unsigned k = m - start_bits_done; k-- > 0;) {
      if (control != nullptr && control->stop_requested()) {
        interrupted = true;
        break;
      }
      const util::telemetry::Span bit_span("bssa.beam_bit");
      // Each beam's cost build + FindBestSettings is independent of the
      // others, so beams extend in parallel. RNGs are pre-forked in beam
      // order and results merge in beam order, keeping the outcome identical
      // to the serial run at any worker count.
      std::vector<util::Rng> beam_rngs;
      beam_rngs.reserve(beams.size());
      for (std::size_t b = 0; b < beams.size(); ++b) {
        beam_rngs.push_back(rng.fork());
      }
      std::vector<SaSearchResult> founds(beams.size());
      auto extend = [&](std::size_t b) {
        const auto costs = build_bit_costs(g, beams[b].cache, k,
                                           params.first_round_model, dist,
                                           params.metric, params.pool);
        founds[b] = find_best_settings(g.num_inputs(), params.bound_size,
                                       costs, params.beam_width, params.sa,
                                       beam_rngs[b], params.pool,
                                       /*track_bto=*/false, control);
      };
      try {
        if (params.pool != nullptr && beams.size() > 1) {
          params.pool->parallel_for(0, beams.size(), extend, control);
        } else {
          for (std::size_t b = 0; b < beams.size(); ++b) extend(b);
        }
      } catch (const util::CancelledError&) {
        interrupted = true;  // some beams were never extended
        break;
      }
      // A trip inside any beam's search leaves that beam shallower than the
      // uninterrupted run would: discard the whole bit-step so the state
      // stays at the previous boundary — exactly where a resume restarts.
      if (control != nullptr && control->stop_requested()) {
        interrupted = true;
        break;
      }

      std::vector<Beam> extended;
      for (std::size_t b = 0; b < beams.size(); ++b) {
        partitions_evaluated += founds[b].partitions_visited;
        for (auto& setting : founds[b].top) {
          Beam next;
          next.settings = beams[b].settings;
          next.cache = beams[b].cache;
          next.error = setting.error;
          next.settings[k] = std::move(setting);
          write_bit_to_cache(next.cache, k, next.settings[k]);
          extended.push_back(std::move(next));
        }
      }
      if (extended.empty()) {
        interrupted = true;  // no search produced a candidate
        break;
      }
      bssa_metrics().beam_candidates.add(extended.size());
      // FindTops: keep the N_beam sequences with the least error. Stable so
      // equal-error sequences keep their (deterministic) build order.
      std::stable_sort(
          extended.begin(), extended.end(),
          [](const Beam& a, const Beam& b) { return a.error < b.error; });
      if (extended.size() > params.beam_width) {
        extended.resize(params.beam_width);
      }
      beams = std::move(extended);
      bssa_metrics().bit_steps.add(1);

      report("beam-search", 1, k, beams.front().error);
      if (checkpoint_due()) {
        std::vector<BeamCheckpoint> snaps;
        snaps.reserve(beams.size());
        for (const auto& beam : beams) snaps.push_back(snapshot(beam));
        emit_checkpoint(1, m - k, std::move(snaps));
      }
    }
  }

  Beam best = std::move(beams.front());

  // ---- Rounds 2..R: greedy refinement + mode selection (lines 11-15). ----
  if (!interrupted) {
    const OptForPartParams opt_params{params.sa.init_patterns, 64};
    for (unsigned round = std::max(2u, start_round);
         round <= params.rounds && !interrupted; ++round) {
      const unsigned skip = round == start_round ? start_bits_done : 0;
      for (unsigned k = m - skip; k-- > 0;) {
        if (control != nullptr && control->stop_requested()) {
          interrupted = true;
          break;
        }
        const util::telemetry::Span bit_span("bssa.refine_bit");
        const auto costs =
            build_bit_costs(g, best.cache, k, LsbModel::kCurrentApprox, dist,
                            params.metric, params.pool);
        const unsigned n_beam =
            params.modes.allow_nd ? std::max(1u, params.nd_candidates) : 1u;
        auto found = find_best_settings(g.num_inputs(), params.bound_size,
                                        costs, n_beam, params.sa, rng,
                                        params.pool, params.modes.allow_bto,
                                        control);
        partitions_evaluated += found.partitions_visited;
        // A stopped (or, defensively, empty) search is shallower than the
        // uninterrupted one: discard the step, keep the incumbent.
        if ((control != nullptr && control->stop_requested()) ||
            found.top.empty()) {
          interrupted = true;
          break;
        }
        Setting normal = found.top.front();

        // The incumbent setting competes within its own mode category: the
        // per-bit cost arrays are exact given the other bits, so merging it
        // keeps each category's candidate monotone across rounds while the
        // delta rules still arbitrate *between* modes.
        Setting incumbent = best.settings[k];
        incumbent.error =
            setting_error_under_costs(incumbent, costs.c0, costs.c1);

        Setting chosen;
        if (!reconfigurable) {
          chosen = incumbent.error <= normal.error ? std::move(incumbent)
                                                   : std::move(normal);
        } else {
          Setting bto;  // invalid unless tracked
          if (!found.top_bto.empty()) bto = found.top_bto.front();

          Setting nd;  // best ND over the top normal partitions
          if (params.modes.allow_nd && !found.top.empty()) {
            const util::telemetry::Span nd_span("bssa.nd_round");
            bssa_metrics().nd_trials.add(found.top.size());
            // Every candidate's shared-bit enumeration is independent:
            // pre-fork the RNGs, evaluate in parallel, reduce in index
            // order.
            std::vector<util::Rng> nd_rngs;
            nd_rngs.reserve(found.top.size());
            for (std::size_t i = 0; i < found.top.size(); ++i) {
              nd_rngs.push_back(rng.fork());
            }
            std::vector<Setting> trials(found.top.size());
            auto trial_work = [&](std::size_t i) {
              trials[i] = optimize_nondisjoint(found.top[i].partition, costs,
                                               opt_params, nd_rngs[i]);
            };
            try {
              if (params.pool != nullptr && found.top.size() > 1) {
                params.pool->parallel_for(0, found.top.size(), trial_work,
                                          control);
              } else {
                for (std::size_t i = 0; i < trials.size(); ++i) {
                  trial_work(i);
                }
              }
            } catch (const util::CancelledError&) {
              interrupted = true;  // partial trials: discard the step
              break;
            }
            for (auto& trial : trials) {
              if (trial.error < nd.error) nd = std::move(trial);
            }
          }

          // The delta rules compare every mode against the normal-mode error
          // E, implicitly assuming E is the best known for this bit. A fresh
          // random-start search can miss the incumbent's (already good)
          // routing, which would let a mediocre BTO/ND candidate pass the
          // rules against an inflated E. Re-optimizing the incumbent's
          // partition in every supported mode restores that assumption.
          {
            const auto& p = incumbent.partition;
            auto inc_normal = optimize_normal(p, costs, opt_params, rng);
            if (inc_normal.error < normal.error) {
              normal = std::move(inc_normal);
            }
            if (params.modes.allow_bto) {
              auto inc_bto = optimize_bto(p, costs);
              if (inc_bto.error < bto.error) bto = std::move(inc_bto);
            }
            if (params.modes.allow_nd) {
              auto inc_nd = optimize_nondisjoint(p, costs, opt_params, rng);
              if (inc_nd.error < nd.error) nd = std::move(inc_nd);
            }
          }

          Setting* category = nullptr;
          switch (incumbent.mode) {
            case DecompMode::kNormal:
              category = &normal;
              break;
            case DecompMode::kBto:
              category = &bto;
              break;
            case DecompMode::kNonDisjoint:
              category = &nd;
              break;
          }
          if (category != nullptr && incumbent.error <= category->error) {
            *category = std::move(incumbent);
          }
          if (debug_bssa) {
            std::fprintf(stderr,
                         "  select k=%u normal=%.4f bto=%.4f nd=%.4f\n", k,
                         normal.error, bto.error, nd.error);
          }
          chosen = select_mode(normal, bto, nd, params.modes);
        }

        best.settings[k] = std::move(chosen);
        write_bit_to_cache(best.cache, k, best.settings[k]);
        best.error = best.settings[k].error;
        bssa_metrics().bit_steps.add(1);
        if (debug_bssa) {
          std::fprintf(stderr,
                       "round=%u k=%u inc(mode=%d,e=%.4f) chosen(mode=%d,"
                       "e=%.4f) med=%.4f\n",
                       round, k, static_cast<int>(incumbent.mode),
                       incumbent.error,
                       static_cast<int>(best.settings[k].mode),
                       best.settings[k].error,
                       mean_error_distance(g, best.cache, dist, params.pool));
        }

        report("refine", round, k, best.settings[k].error);
        if (checkpoint_due()) {
          std::vector<BeamCheckpoint> snaps;
          snaps.push_back(snapshot(best));
          emit_checkpoint(round, m - k, std::move(snaps));
        }
      }
    }
  }

  // ---- Graceful degradation: a stopped round-1 run can leave bits the
  // beam search never reached. Fill them (MSB-first, like the search) with
  // deterministic fallback settings so the result always realizes.
  if (interrupted) {
    for (unsigned k = m; k-- > 0;) {
      if (!best.settings[k].valid()) {
        best.settings[k] =
            fallback_setting(g, best.cache, k, dist, params.metric,
                             params.bound_size, params.modes.allow_bto,
                             params.pool);
      }
    }
  }

  DecompositionResult result;
  result.settings = std::move(best.settings);
  result.report = error_report(g, best.cache, dist, params.pool);
  result.med = result.report.med;
  result.runtime_seconds = elapsed_before + timer.seconds();
  result.partitions_evaluated = partitions_evaluated;
  result.status =
      control != nullptr ? control->status() : util::RunStatus::kCompleted;
  result.resumed = params.resume != nullptr;
  return result;
}

}  // namespace dalut::core
