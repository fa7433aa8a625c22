#include "suite/manifest.hpp"

#include <cerrno>
#include <fstream>
#include <initializer_list>
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

// Accepted ranges of the search knobs. A width below 2 has no proper
// nonempty bound set; one above 26 asks for a 2^27-entry table. A search
// needs at least one round.
constexpr unsigned kMinWidth = 2;
constexpr unsigned kMaxWidth = 26;
constexpr unsigned kMaxBound = 25;
constexpr unsigned kMaxRounds = 1u << 20;
constexpr unsigned kMaxPartitions = 1u << 20;
constexpr unsigned kMaxPatterns = 1u << 20;
constexpr unsigned kMaxBeams = 4096;
constexpr unsigned kMaxChains = 4096;
constexpr unsigned kMaxNdCandidates = 4096;

[[noreturn]] void fail_field(const std::string& key, const std::string& value,
                             const std::string& why) {
  throw std::invalid_argument(key + " '" + token_excerpt(value) + "' " + why);
}

unsigned parse_knob(const std::string& key, const std::string& value,
                    unsigned max, unsigned min = 0) {
  const auto parsed = core::detail::parse_unsigned(value, key.c_str(), max);
  if (parsed < min) {
    fail_field(key, value, "is out of range (min " + std::to_string(min) + ")");
  }
  return static_cast<unsigned>(parsed);
}

const std::string& one_of(const std::string& key, const std::string& value,
                          std::initializer_list<const char*> choices) {
  std::string list;
  for (const char* choice : choices) {
    if (value == choice) return value;
    list += (list.empty() ? "" : ", ") + std::string(choice);
  }
  fail_field(key, value, "is not one of " + list);
}

/// Applies the `key=value` tokens from `first` on. Validation that spans
/// fields (algorithm/arch compatibility) happens after the whole line is read.
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

/// Cross-field checks a finished job line must pass.
void validate_job(const SuiteJob& job, std::size_t line) {
  if (job.algorithm == "dalta" && job.arch != "dalta") {
    fail_at(line, "job '" + job.name +
                      "': the DALTA algorithm only supports arch=dalta");
  }
  if (!job.table.empty() && job.table.find('\n') != std::string::npos) {
    fail_at(line, "table path contains a newline");
  }
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
    validate_job(job, line_no);
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
    job.width = parse_knob(key, value, kMaxWidth, kMinWidth);
  } else if (key == "algorithm") {
    job.algorithm = one_of(key, value, {"bssa", "dalta", "round-in",
                                        "round-out"});
  } else if (key == "arch") {
    job.arch = one_of(key, value, {"dalta", "bto-normal", "bto-normal-nd"});
  } else if (key == "bound") {
    job.bound = parse_knob(key, value, kMaxBound);
  } else if (key == "rounds") {
    job.rounds = parse_knob(key, value, kMaxRounds, 1);
  } else if (key == "partitions") {
    job.partitions = parse_knob(key, value, kMaxPartitions);
  } else if (key == "patterns") {
    job.patterns = parse_knob(key, value, kMaxPatterns);
  } else if (key == "beams") {
    job.beams = parse_knob(key, value, kMaxBeams);
  } else if (key == "chains") {
    job.chains = parse_knob(key, value, kMaxChains);
  } else if (key == "nd-candidates") {
    job.nd_candidates = parse_knob(key, value, kMaxNdCandidates);
  } else if (key == "metric") {
    job.metric = one_of(key, value, {"med", "mse", "er"});
  } else if (key == "delta") {
    job.delta = core::detail::parse_double(value, key.c_str());
  } else if (key == "delta-prime") {
    job.delta_prime = core::detail::parse_double(value, key.c_str());
  } else if (key == "seed") {
    job.seed = core::detail::parse_unsigned(value, key.c_str());
  } else if (key == "drop") {
    job.drop = parse_knob(key, value, 25);
  } else if (key == "budget") {
    job.budget = core::detail::parse_double(value, key.c_str());
    if (job.budget < 0.0) fail_field(key, value, "must be >= 0");
  } else {
    throw std::invalid_argument("unknown job field '" + token_excerpt(key) +
                                "'");
  }
}

}  // namespace dalut::suite
