#include "util/telemetry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <ostream>

namespace dalut::util::telemetry {

std::atomic<bool> detail::g_metrics_enabled{false};

namespace {

// Registry capacities. Handles past the cap degrade to no-ops rather than
// failing, so an over-instrumented build cannot crash a run.
constexpr std::uint32_t kMaxCounters = 128;
constexpr std::uint32_t kMaxGauges = 32;
constexpr std::uint32_t kMaxHistograms = 16;
constexpr std::uint32_t kMaxBuckets = 16;

// All slots are written only by the owning thread (relaxed store of
// load + delta); atomics exist for cross-thread visibility at aggregation,
// not for contention.
struct HistSlot {
  std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_bits{0};  ///< bit pattern of a double
};

struct alignas(64) Shard {
  std::uint32_t thread_id = 0;
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistSlot, kMaxHistograms> hists{};
};

/// Plain (non-atomic) mirror of a shard, used for the retired accumulator.
struct ShardTotals {
  std::array<std::uint64_t, kMaxCounters> counters{};
  struct Hist {
    std::array<std::uint64_t, kMaxBuckets + 1> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::array<Hist, kMaxHistograms> hists{};
};

struct CounterDesc {
  std::string name;
  bool per_thread_detail = false;
};

struct HistDesc {
  std::string name;
  std::vector<double> bounds;  ///< ascending, size <= kMaxBuckets
};

class Registry {
 public:
  static Registry& instance() {
    static Registry* registry = new Registry();  // never destroyed: shards
    return *registry;  // of late-exiting threads may outlive main()
  }

  std::uint32_t register_counter(std::string_view name, bool per_thread) {
    std::lock_guard lock(mutex_);
    for (std::uint32_t i = 0; i < counters_.size(); ++i) {
      if (counters_[i].name == name) {
        counters_[i].per_thread_detail |= per_thread;
        return i;
      }
    }
    if (counters_.size() >= kMaxCounters) return detail::kNullId;
    counters_.push_back({std::string(name), per_thread});
    return static_cast<std::uint32_t>(counters_.size() - 1);
  }

  std::uint32_t register_gauge(std::string_view name) {
    std::lock_guard lock(mutex_);
    for (std::uint32_t i = 0; i < gauges_.size(); ++i) {
      if (gauges_[i] == name) return i;
    }
    if (gauges_.size() >= kMaxGauges) return detail::kNullId;
    gauges_.push_back(std::string(name));
    return static_cast<std::uint32_t>(gauges_.size() - 1);
  }

  std::uint32_t register_histogram(std::string_view name,
                                   std::vector<double> bounds) {
    std::lock_guard lock(mutex_);
    for (std::uint32_t i = 0; i < hists_.size(); ++i) {
      if (hists_[i].name == name) return i;
    }
    if (hists_.size() >= kMaxHistograms || bounds.empty() ||
        bounds.size() > kMaxBuckets ||
        !std::is_sorted(bounds.begin(), bounds.end())) {
      return detail::kNullId;
    }
    hists_.push_back({std::string(name), std::move(bounds)});
    return static_cast<std::uint32_t>(hists_.size() - 1);
  }

  Shard* adopt_shard() {
    auto* shard = new Shard();
    std::lock_guard lock(mutex_);
    shard->thread_id = next_thread_id_++;
    live_.push_back(shard);
    return shard;
  }

  /// Folds a departing thread's shard into the retired accumulator.
  void retire_shard(Shard* shard) {
    std::lock_guard lock(mutex_);
    for (std::uint32_t i = 0; i < kMaxCounters; ++i) {
      retired_.counters[i] +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::uint32_t h = 0; h < kMaxHistograms; ++h) {
      auto& into = retired_.hists[h];
      const auto& from = shard->hists[h];
      for (std::uint32_t b = 0; b <= kMaxBuckets; ++b) {
        into.buckets[b] += from.buckets[b].load(std::memory_order_relaxed);
      }
      into.count += from.count.load(std::memory_order_relaxed);
      into.sum += std::bit_cast<double>(
          from.sum_bits.load(std::memory_order_relaxed));
    }
    live_.erase(std::find(live_.begin(), live_.end(), shard));
    delete shard;
  }

  void gauge_set(std::uint32_t id, double value) noexcept {
    gauge_bits_[id].store(std::bit_cast<std::uint64_t>(value),
                          std::memory_order_relaxed);
    gauge_ever_set_[id].store(true, std::memory_order_relaxed);
  }

  const std::vector<double>* hist_bounds(std::uint32_t id) {
    std::lock_guard lock(mutex_);
    return id < hists_.size() ? &hists_[id].bounds : nullptr;
  }

  MetricsSnapshot snapshot() {
    std::lock_guard lock(mutex_);
    MetricsSnapshot snap;

    snap.counters.resize(counters_.size());
    for (std::uint32_t i = 0; i < counters_.size(); ++i) {
      auto& out = snap.counters[i];
      out.name = counters_[i].name;
      out.value = retired_.counters[i];
      if (counters_[i].per_thread_detail && retired_.counters[i] != 0) {
        out.per_thread.emplace_back(kRetiredThreadId, retired_.counters[i]);
      }
      for (const Shard* shard : live_) {
        const std::uint64_t v =
            shard->counters[i].load(std::memory_order_relaxed);
        out.value += v;
        if (counters_[i].per_thread_detail && v != 0) {
          out.per_thread.emplace_back(shard->thread_id, v);
        }
      }
    }

    snap.gauges.resize(gauges_.size());
    for (std::uint32_t i = 0; i < gauges_.size(); ++i) {
      snap.gauges[i].name = gauges_[i];
      snap.gauges[i].value = std::bit_cast<double>(
          gauge_bits_[i].load(std::memory_order_relaxed));
      snap.gauges[i].ever_set =
          gauge_ever_set_[i].load(std::memory_order_relaxed);
    }

    snap.histograms.resize(hists_.size());
    for (std::uint32_t h = 0; h < hists_.size(); ++h) {
      auto& out = snap.histograms[h];
      out.name = hists_[h].name;
      out.bounds = hists_[h].bounds;
      out.buckets.assign(out.bounds.size() + 1, 0);
      const auto& base = retired_.hists[h];
      for (std::size_t b = 0; b < out.buckets.size(); ++b) {
        out.buckets[b] = base.buckets[b];
      }
      out.count = base.count;
      out.sum = base.sum;
      for (const Shard* shard : live_) {
        const auto& slot = shard->hists[h];
        for (std::size_t b = 0; b < out.buckets.size(); ++b) {
          out.buckets[b] += slot.buckets[b].load(std::memory_order_relaxed);
        }
        out.count += slot.count.load(std::memory_order_relaxed);
        out.sum += std::bit_cast<double>(
            slot.sum_bits.load(std::memory_order_relaxed));
      }
    }
    return snap;
  }

  void reset() {
    std::lock_guard lock(mutex_);
    retired_ = ShardTotals{};
    for (Shard* shard : live_) {
      for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
      for (auto& h : shard->hists) {
        for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
        h.count.store(0, std::memory_order_relaxed);
        h.sum_bits.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& g : gauge_bits_) g.store(0, std::memory_order_relaxed);
    for (auto& g : gauge_ever_set_) g.store(false, std::memory_order_relaxed);
  }

 private:
  Registry() = default;

  std::mutex mutex_;
  std::vector<CounterDesc> counters_;
  std::vector<std::string> gauges_;
  std::vector<HistDesc> hists_;
  std::vector<Shard*> live_;
  ShardTotals retired_;
  std::uint32_t next_thread_id_ = 1;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_bits_{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_ever_set_{};
};

/// RAII owner tying one shard to one thread; retires it on thread exit.
struct ShardOwner {
  Shard* shard = Registry::instance().adopt_shard();
  ~ShardOwner() { Registry::instance().retire_shard(shard); }
};

Shard& local_shard() {
  thread_local ShardOwner owner;
  return *owner.shard;
}

/// Single-writer add: plain load + store, no RMW.
inline void slot_add(std::atomic<std::uint64_t>& slot,
                     std::uint64_t n) noexcept {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace

void detail::counter_add(std::uint32_t id, std::uint64_t n) noexcept {
  slot_add(local_shard().counters[id], n);
}

void detail::gauge_set(std::uint32_t id, double value) noexcept {
  Registry::instance().gauge_set(id, value);
}

void detail::histogram_observe(std::uint32_t id, double value) noexcept {
  const std::vector<double>* bounds = Registry::instance().hist_bounds(id);
  if (bounds == nullptr) return;
  auto& slot = local_shard().hists[id];
  // Half-open [lo, hi) buckets: a value exactly on an upper edge belongs to
  // the bucket above it, and a value on the last edge is overflow. Strict
  // `<` keeps every call site consistent however it quantizes its values.
  std::size_t bucket = bounds->size();  // overflow unless an edge catches it
  for (std::size_t b = 0; b < bounds->size(); ++b) {
    if (value < (*bounds)[b]) {
      bucket = b;
      break;
    }
  }
  slot_add(slot.buckets[bucket], 1);
  slot_add(slot.count, 1);
  const double sum =
      std::bit_cast<double>(slot.sum_bits.load(std::memory_order_relaxed));
  slot.sum_bits.store(std::bit_cast<std::uint64_t>(sum + value),
                      std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

Counter Counter::get(std::string_view name, bool per_thread_detail) {
  return Counter(
      Registry::instance().register_counter(name, per_thread_detail));
}

Gauge Gauge::get(std::string_view name) {
  return Gauge(Registry::instance().register_gauge(name));
}

Histogram Histogram::get(std::string_view name, std::vector<double> bounds) {
  return Histogram(
      Registry::instance().register_histogram(name, std::move(bounds)));
}

MetricsSnapshot snapshot_metrics() { return Registry::instance().snapshot(); }

void reset_metrics_for_test() { Registry::instance().reset(); }

const CounterValue* MetricsSnapshot::find_counter(
    std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeValue* MetricsSnapshot::find_gauge(
    std::string_view name) const noexcept {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(
    std::string_view name) const noexcept {
  const CounterValue* c = find_counter(name);
  return c != nullptr ? c->value : 0;
}

// ---- JSON emission ------------------------------------------------------

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

namespace {

std::string format_double(double value) { return json_number(value); }

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << pad << "{\n";

  out << pad << "  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    out << (i == 0 ? "\n" : ",\n") << pad << "    \""
        << json_escape(c.name) << "\": " << c.value;
  }
  out << "\n" << pad << "  },\n";

  out << pad << "  \"counter_per_thread\": {";
  bool first = true;
  for (const auto& c : snapshot.counters) {
    if (c.per_thread.empty()) continue;
    out << (first ? "\n" : ",\n") << pad << "    \"" << json_escape(c.name)
        << "\": {";
    for (std::size_t t = 0; t < c.per_thread.size(); ++t) {
      out << (t == 0 ? "" : ", ") << "\"";
      if (c.per_thread[t].first == kRetiredThreadId) {
        out << "retired";
      } else {
        out << "t" << c.per_thread[t].first;
      }
      out << "\": " << c.per_thread[t].second;
    }
    out << "}";
    first = false;
  }
  out << "\n" << pad << "  },\n";

  out << pad << "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    if (!g.ever_set) continue;
    out << (first ? "\n" : ",\n") << pad << "    \"" << json_escape(g.name)
        << "\": " << format_double(g.value);
    first = false;
  }
  out << "\n" << pad << "  },\n";

  out << pad << "  \"histograms\": {";
  for (std::size_t h = 0; h < snapshot.histograms.size(); ++h) {
    const auto& hist = snapshot.histograms[h];
    out << (h == 0 ? "\n" : ",\n") << pad << "    \""
        << json_escape(hist.name) << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      out << (b == 0 ? "" : ", ") << format_double(hist.bounds[b]);
    }
    out << "], \"buckets\": [";
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << hist.buckets[b];
    }
    out << "], \"count\": " << hist.count
        << ", \"sum\": " << format_double(hist.sum) << "}";
  }
  out << "\n" << pad << "  }\n";

  out << pad << "}";
}

// ---- ProgressRecorder ---------------------------------------------------

ProgressRecorder::ProgressRecorder(Sink live, Sink forward,
                                   std::chrono::nanoseconds forward_interval)
    : live_(std::move(live)),
      forward_(std::move(forward)),
      forward_interval_(forward_interval) {}

void ProgressRecorder::attach(RunControl& control, std::string job) {
  // Zero min-interval: the recorder sees every report; the forward sink
  // gets this control's own throttle below so a human-readable line stays
  // quiet.
  control.set_progress_callback(
      [this, job = std::move(job), forwarded = false,
       last_forward = Clock::time_point{}](
          const RunProgress& progress) mutable {
        const auto now = Clock::now();
        TrajectoryRow row;
        row.job = job;
        row.elapsed_seconds =
            std::chrono::duration<double>(now - start_).count();
        row.stage = progress.stage;
        row.round = progress.round;
        row.bit = progress.bit;
        row.steps_done = progress.steps_done;
        row.steps_total = progress.steps_total;
        row.best_error = progress.best_error;
        {
          std::lock_guard lock(mutex_);
          rows_.push_back(std::move(row));
        }
        if (live_) live_(job, progress);
        if (!forward_) return;
        const bool final_step = progress.steps_total != 0 &&
                                progress.steps_done >= progress.steps_total;
        if (forwarded && !final_step &&
            now - last_forward < forward_interval_) {
          return;
        }
        forwarded = true;
        last_forward = now;
        forward_(job, progress);
      },
      std::chrono::nanoseconds{0});
}

std::vector<TrajectoryRow> ProgressRecorder::rows() const {
  std::vector<TrajectoryRow> rows;
  {
    std::lock_guard lock(mutex_);
    rows = rows_;
  }
  // Controls on different threads append in completion order.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TrajectoryRow& a, const TrajectoryRow& b) {
                     if (a.elapsed_seconds != b.elapsed_seconds) {
                       return a.elapsed_seconds < b.elapsed_seconds;
                     }
                     if (a.job != b.job) return a.job < b.job;
                     return a.steps_done < b.steps_done;
                   });
  return rows;
}

void write_trajectory_json(std::ostream& out,
                           const std::vector<TrajectoryRow>& rows,
                           int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << pad << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    out << (i == 0 ? "\n" : ",\n") << pad << "  {";
    if (!row.job.empty()) {
      out << "\"job\": \"" << json_escape(row.job) << "\", ";
    }
    out << "\"elapsed_seconds\": " << format_double(row.elapsed_seconds)
        << ", \"stage\": \"" << json_escape(row.stage)
        << "\", \"round\": " << row.round << ", \"bit\": " << row.bit
        << ", \"step\": " << row.steps_done
        << ", \"steps_total\": " << row.steps_total
        << ", \"best_error\": " << format_double(row.best_error) << "}";
  }
  out << "\n" << pad << "]";
}

}  // namespace dalut::util::telemetry
