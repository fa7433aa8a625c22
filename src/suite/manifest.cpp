#include "suite/manifest.hpp"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/format.hpp"
#include "core/serialize_detail.hpp"
#include "util/retry.hpp"

namespace dalut::suite {

namespace {

using core::detail::fail_at;
using core::detail::token_excerpt;

constexpr core::format::FormatSpec kFormat{"dalut-manifest", 1, 1};
constexpr std::size_t kMaxJobs = 4096;

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

unsigned parse_knob(const std::string& key, const std::string& value,
                    unsigned max, unsigned min = 0) {
  const auto parsed = static_cast<unsigned>(core::detail::parse_unsigned(
      value, key.c_str(), std::numeric_limits<unsigned>::max()));
  core::check_count(key.c_str(), parsed, min, max);
  return parsed;
}

const std::string& one_of(const std::string& key, const std::string& value,
                          std::initializer_list<const char*> choices) {
  std::string list;
  for (const char* choice : choices) {
    if (value == choice) return value;
    list += (list.empty() ? "" : ", ") + std::string(choice);
  }
  throw std::invalid_argument(key + " '" + token_excerpt(value) +
                              "' is not one of " + list);
}

/// Applies the `key=value` tokens from `first` on. Validation that spans
/// fields (validate_search) happens after the whole job line is read.
void apply_fields(SuiteJob& job, const std::vector<std::string>& tokens,
                  std::size_t first, std::size_t line) {
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      fail_at(line, "expected key=value, got '" + token_excerpt(tokens[i]) +
                        "'");
    }
    try {
      set_job_field(job, tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
    } catch (const std::invalid_argument& error) {
      fail_at(line, error.what());
    }
  }
}

core::CostMetric metric_of(const SuiteJob& job) {
  if (job.metric == "mse") return core::CostMetric::kMse;
  if (job.metric == "er") return core::CostMetric::kErrorRate;
  return core::CostMetric::kMed;
}

}  // namespace

Manifest read_manifest(std::istream& in) {
  core::detail::LineReader reader(in);
  const auto magic_line = reader.next();  // read first: arg order is unspecified
  core::format::check_header_line(magic_line, kFormat, reader.number());

  Manifest manifest;
  SuiteJob defaults;
  std::set<std::string> names;
  for (;;) {
    const auto line = reader.next();
    const auto tokens = core::detail::tokens_of(line);
    const auto line_no = reader.number();
    if (tokens[0] == "end") {
      if (tokens.size() != 1) fail_at(line_no, "trailing tokens after 'end'");
      break;
    }
    if (tokens[0] == "default") {
      apply_fields(defaults, tokens, 1, line_no);
      continue;
    }
    if (tokens[0] != "job") {
      fail_at(line_no, "expected 'job', 'default', or 'end', got '" +
                           token_excerpt(tokens[0]) + "'");
    }
    if (tokens.size() < 2) fail_at(line_no, "job line needs a name");
    SuiteJob job = defaults;
    job.name = tokens[1];
    if (!valid_name(job.name)) {
      fail_at(line_no, "job name '" + token_excerpt(job.name) +
                           "' must be 1-64 chars of [A-Za-z0-9._-]");
    }
    if (!names.insert(job.name).second) {
      fail_at(line_no, "duplicate job name '" + job.name + "'");
    }
    apply_fields(job, tokens, 2, line_no);
    try {
      validate_search(job);
    } catch (const std::invalid_argument& error) {
      fail_at(line_no, error.what());
    }
    if (manifest.jobs.size() >= kMaxJobs) {
      fail_at(line_no, "manifest exceeds " + std::to_string(kMaxJobs) +
                           " jobs");
    }
    manifest.jobs.push_back(std::move(job));
  }
  if (manifest.jobs.empty()) {
    throw std::invalid_argument("manifest lists no jobs");
  }
  return manifest;
}

Manifest manifest_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_manifest(in);
}

Manifest load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw util::IoError("cannot open manifest", path, errno);
  }
  return read_manifest(in);
}

void set_job_field(SuiteJob& job, const std::string& key,
                   const std::string& value) {
  if (key == "benchmark") {
    job.benchmark = value;
  } else if (key == "table") {
    job.table = value;
  } else if (key == "width") {
    job.width = parse_knob(key, value, kMaxJobWidth, kMinJobWidth);
  } else if (key == "algorithm") {
    job.algorithm = one_of(key, value, {"bssa", "dalta", "round-in",
                                        "round-out"});
  } else if (key == "arch") {
    job.arch = one_of(key, value, {"dalta", "bto-normal", "bto-normal-nd"});
  } else if (key == "bound") {
    job.bound = parse_knob(key, value, kMaxJobWidth - 1);
  } else if (key == "rounds") {
    job.rounds = parse_knob(key, value, core::kMaxRounds, 1);
  } else if (key == "partitions") {
    job.partitions = parse_knob(key, value, core::kMaxPartitionLimit, 1);
  } else if (key == "patterns") {
    job.patterns = parse_knob(key, value, core::kMaxInitPatterns, 1);
  } else if (key == "beams") {
    job.beams = parse_knob(key, value, core::kMaxBeamWidth, 1);
  } else if (key == "chains") {
    job.chains = parse_knob(key, value, core::kMaxChains, 1);
  } else if (key == "nd-candidates") {
    job.nd_candidates = parse_knob(key, value, core::kMaxNdCandidates);
  } else if (key == "metric") {
    job.metric = one_of(key, value, {"med", "mse", "er"});
  } else if (key == "delta") {
    job.delta = core::detail::parse_double(value, key.c_str());
    core::check_factor(key.c_str(), job.delta);
  } else if (key == "delta-prime") {
    job.delta_prime = core::detail::parse_double(value, key.c_str());
    core::check_factor(key.c_str(), job.delta_prime);
  } else if (key == "seed") {
    job.seed = core::detail::parse_unsigned(value, key.c_str());
  } else if (key == "drop") {
    job.drop = parse_knob(key, value, kMaxJobWidth - 1);
  } else if (key == "budget") {
    job.budget = core::detail::parse_double(value, key.c_str());
    core::check_factor(key.c_str(), job.budget);
  } else {
    throw std::invalid_argument("unknown job field '" + token_excerpt(key) +
                                "'");
  }
}

unsigned default_bound(unsigned n) {
  return std::min(n - 1, std::max(1u, (9u * n + 8) / 16));
}

core::DaltaParams dalta_params(const SuiteJob& job, unsigned n) {
  if (job.arch != "dalta") {
    throw std::invalid_argument("arch '" + job.arch +
                                "' needs algorithm=bssa (DALTA supports "
                                "only arch=dalta)");
  }
  core::DaltaParams params;
  params.bound_size = job.bound != 0 ? job.bound : default_bound(n);
  params.rounds = job.rounds;
  params.partition_limit = job.partitions;
  params.init_patterns = job.patterns;
  params.metric = metric_of(job);
  params.seed = job.seed;
  return params;
}

core::BssaParams bssa_params(const SuiteJob& job, unsigned n) {
  core::BssaParams params;
  params.bound_size = job.bound != 0 ? job.bound : default_bound(n);
  params.rounds = job.rounds;
  params.beam_width = job.beams;
  params.sa.partition_limit = job.partitions;
  params.sa.init_patterns = job.patterns;
  params.sa.chains = job.chains;
  params.nd_candidates = job.nd_candidates;
  if (job.arch == "bto-normal") {
    params.modes = core::ModePolicy::bto_normal(job.delta);
  } else if (job.arch == "bto-normal-nd") {
    params.modes = core::ModePolicy::bto_normal_nd(job.delta, job.delta_prime);
  }
  params.metric = metric_of(job);
  params.seed = job.seed;
  return params;
}

void validate_search(const SuiteJob& job) {
  const unsigned n = job.table.empty() ? job.width : kMaxJobWidth;
  if (job.algorithm == "dalta") {
    dalta_params(job, n).validate(n);
  } else if (job.algorithm == "bssa") {
    bssa_params(job, n).validate(n);
  }
}

}  // namespace dalut::suite
