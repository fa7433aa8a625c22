#include "core/dalta.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/partition_opt.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace_writer.hpp"

namespace dalut::core {

namespace {

/// Write-only registry handles for the DALTA driver.
struct DaltaMetrics {
  util::telemetry::Counter bit_steps =
      util::telemetry::Counter::get("dalta.bit_steps");
  util::telemetry::Counter candidates =
      util::telemetry::Counter::get("dalta.candidates");
};

DaltaMetrics& dalta_metrics() {
  static DaltaMetrics metrics;
  return metrics;
}

std::uint64_t dalta_digest(const MultiOutputFunction& g,
                           const DaltaParams& params) {
  ParamsDigest d;
  d.add_string("dalta");
  d.add(g.num_inputs()).add(g.num_outputs());
  d.add(params.bound_size).add(params.rounds);
  d.add(params.partition_limit).add(params.init_patterns);
  d.add(static_cast<std::uint64_t>(params.metric));
  d.add(params.seed);
  return d.value();
}

[[noreturn]] void reject_resume(const std::string& what) {
  throw std::invalid_argument("cannot resume DALTA: " + what);
}

/// DALTA carries a single settings vector throughout, stored as one beam.
/// Round 1 decides bits MSB-first; later rounds have every bit decided.
void validate_resume(const SearchCheckpoint& ck, std::uint64_t digest,
                     unsigned n, unsigned m, unsigned rounds) {
  if (ck.algorithm != "dalta") {
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
  if (ck.beams.size() != 1) {
    reject_resume("DALTA checkpoints carry exactly one beam");
  }
  const auto& beam = ck.beams.front();
  if (beam.decided.size() != m || beam.settings.size() != m) {
    reject_resume("beam width disagrees with the output width");
  }
  for (unsigned k = 0; k < m; ++k) {
    const bool expect = ck.round >= 2 ? true : k >= m - ck.bits_done;
    if ((beam.decided[k] != 0) != expect) {
      reject_resume("decided-set does not match the cursor");
    }
    if (beam.decided[k] != 0 && !beam.settings[k].valid()) {
      reject_resume("decided bit carries an invalid setting");
    }
  }
}

}  // namespace

void DaltaParams::validate(unsigned num_inputs) const {
  check_count("bound", bound_size, 1, std::max(num_inputs, 1u) - 1);
  check_count("rounds", rounds, 1, kMaxRounds);
  check_count("partitions", partition_limit, 1, kMaxPartitionLimit);
  check_count("patterns", init_patterns, 1, kMaxInitPatterns);
}

DecompositionResult run_dalta(const MultiOutputFunction& g,
                              const InputDistribution& dist,
                              const DaltaParams& params) {
  params.validate(g.num_inputs());
  const unsigned m = g.num_outputs();
  const OptForPartParams opt_params{params.init_patterns, 64};
  util::RunControl* const control = params.control;
  const std::uint64_t digest = dalta_digest(g, params);

  util::WallTimer timer;
  util::Rng rng(params.seed);
  double elapsed_before = 0.0;

  DecompositionResult result;
  result.settings.resize(m);
  std::vector<OutputWord> cache = g.copy_values();

  unsigned start_round = 1;
  unsigned start_bits_done = 0;
  if (params.resume != nullptr) {
    const SearchCheckpoint& ck = *params.resume;
    validate_resume(ck, digest, g.num_inputs(), m, params.rounds);
    start_round = ck.round;
    start_bits_done = ck.bits_done;
    rng.set_state(ck.rng_state);
    result.partitions_evaluated =
        static_cast<std::size_t>(ck.partitions_evaluated);
    elapsed_before = ck.elapsed_seconds;
    result.settings = ck.beams.front().settings;
    for (unsigned k = 0; k < m; ++k) {
      if (ck.beams.front().decided[k] != 0) {
        write_bit_to_cache(cache, k, result.settings[k]);
      }
    }
    result.resumed = true;
  }

  unsigned steps_since_checkpoint = 0;
  auto after_step = [&](unsigned round, unsigned k) {
    if (control != nullptr) {
      util::RunProgress progress;
      progress.stage = "dalta";
      progress.round = round;
      progress.bit = k;
      progress.steps_done =
          static_cast<std::size_t>(round - 1) * m + (m - k);
      progress.steps_total = static_cast<std::size_t>(params.rounds) * m;
      progress.best_error = result.settings[k].error;
      control->report_progress(progress);
    }
    if (params.checkpoint_every == 0 || !params.checkpoint_sink) return;
    if (++steps_since_checkpoint < params.checkpoint_every) return;
    steps_since_checkpoint = 0;
    SearchCheckpoint ck;
    ck.algorithm = "dalta";
    ck.params_digest = digest;
    ck.num_inputs = g.num_inputs();
    ck.num_outputs = m;
    ck.round = round;
    ck.bits_done = m - k;
    ck.rng_state = rng.state();
    ck.partitions_evaluated = result.partitions_evaluated;
    ck.elapsed_seconds = elapsed_before + timer.seconds();
    BeamCheckpoint bc;
    bc.error = result.settings[k].error;
    bc.settings = result.settings;
    bc.decided.resize(m);
    for (unsigned j = 0; j < m; ++j) {
      bc.decided[j] = result.settings[j].valid() ? 1 : 0;
    }
    ck.beams.push_back(std::move(bc));
    params.checkpoint_sink(ck);
  };

  bool interrupted = false;
  for (unsigned round = start_round;
       round <= params.rounds && !interrupted; ++round) {
    const LsbModel model =
        round == 1 ? LsbModel::kAccurateFill : LsbModel::kCurrentApprox;
    const unsigned skip = round == start_round ? start_bits_done : 0;
    for (unsigned k = m - skip; k-- > 0;) {  // MSB to LSB
      if (control != nullptr && control->stop_requested()) {
        interrupted = true;
        break;
      }
      const util::telemetry::Span bit_span("dalta.bit");
      const auto costs =
          build_bit_costs(g, cache, k, model, dist, params.metric,
                          params.pool);

      const auto candidates = sample_partitions(
          g.num_inputs(), params.bound_size, params.partition_limit, rng);
      std::vector<Setting> settings(candidates.size());
      std::vector<util::Rng> rngs;
      rngs.reserve(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        rngs.push_back(rng.fork());
      }

      auto work = [&](std::size_t i) {
        settings[i] =
            optimize_normal(candidates[i], costs, opt_params, rngs[i]);
      };
      // A trip mid-batch leaves holes in settings[]; discard the whole
      // bit-step so the state stays at the previous boundary — exactly
      // where a resume restarts.
      try {
        if (params.pool != nullptr && candidates.size() > 1) {
          params.pool->parallel_for(0, candidates.size(), work, control);
        } else {
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (control != nullptr && control->stop_requested()) {
              throw util::CancelledError();
            }
            work(i);
          }
        }
      } catch (const util::CancelledError&) {
        interrupted = true;
        break;
      }
      result.partitions_evaluated += candidates.size();
      dalta_metrics().bit_steps.add(1);
      dalta_metrics().candidates.add(candidates.size());

      std::size_t best = 0;
      for (std::size_t i = 1; i < settings.size(); ++i) {
        if (settings[i].error < settings[best].error) best = i;
      }

      // From round 2 on there is an incumbent setting for this bit; keep it
      // unless the fresh search found something strictly better (its error
      // is re-scored under the current cost arrays first, since the other
      // bits have changed). This keeps the refinement rounds monotone. The
      // cache already realizes the incumbent, so only a replacement writes.
      bool keep_incumbent = false;
      if (round > 1) {
        Setting& incumbent = result.settings[k];
        incumbent.error =
            setting_error_under_costs(incumbent, costs.c0, costs.c1);
        keep_incumbent = incumbent.error <= settings[best].error;
      }
      if (!keep_incumbent) {
        result.settings[k] = std::move(settings[best]);
        write_bit_to_cache(cache, k, result.settings[k]);
      }
      after_step(round, k);
    }
  }

  // Graceful degradation: a stopped first round can leave bits it never
  // reached; fill them (MSB-first) with deterministic fallback settings so
  // the result always realizes.
  if (interrupted) {
    for (unsigned k = m; k-- > 0;) {
      if (!result.settings[k].valid()) {
        result.settings[k] =
            fallback_setting(g, cache, k, dist, params.metric,
                             params.bound_size, /*allow_bto=*/false,
                             params.pool);
      }
    }
  }

  result.report = error_report(g, cache, dist, params.pool);
  result.med = result.report.med;
  result.runtime_seconds = elapsed_before + timer.seconds();
  result.status =
      control != nullptr ? control->status() : util::RunStatus::kCompleted;
  return result;
}

}  // namespace dalut::core
