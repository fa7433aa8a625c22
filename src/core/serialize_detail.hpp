// Shared internals of the text formats (dalut-config, dalut-checkpoint,
// dalut-table): line-anchored reading, hardened numeric parsing with
// bounded token echoes, and per-setting record IO.
//
// Hostile-input policy: every parse error is a std::invalid_argument whose
// message is anchored to a line number and echoes at most kMaxTokenEcho
// characters of the offending token, with non-printable bytes escaped — a
// malformed file can never blow up the error path itself (multi-megabyte
// messages, terminal-control bytes, NULs).
#pragma once

#include <cstdint>
#include <cstdio>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/setting.hpp"

namespace dalut::core::detail {

/// Longest slice of a hostile token echoed back in an error message.
inline constexpr std::size_t kMaxTokenEcho = 40;

/// Bounded, printable excerpt of `token` for error messages.
inline std::string token_excerpt(const std::string& token) {
  std::string out;
  out.reserve(kMaxTokenEcho + 8);
  for (std::size_t i = 0; i < token.size() && i < kMaxTokenEcho; ++i) {
    const unsigned char c = static_cast<unsigned char>(token[i]);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", c);
      out += buf;
    }
  }
  if (token.size() > kMaxTokenEcho) out += "...";
  return out;
}

[[noreturn]] inline void fail_at(std::size_t line, const std::string& what) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + what);
}

/// A line reader that tracks the line number for error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next non-empty, non-comment line; throws at EOF.
  std::string next() {
    std::string line;
    while (std::getline(in_, line)) {
      ++number_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) return line;
    }
    throw std::invalid_argument("unexpected end of file at line " +
                                std::to_string(number_));
  }

  std::size_t number() const noexcept { return number_; }

 private:
  std::istream& in_;
  std::size_t number_ = 0;
};

/// Splits a line into whitespace-separated tokens.
inline std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return tokens;
}

/// Finds `key` in tokens and returns the following token.
inline std::string value_after(const std::vector<std::string>& tokens,
                               const std::string& key, std::size_t line) {
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i] == key) return tokens[i + 1];
  }
  fail_at(line, "missing '" + key + "'");
}

/// Expects the line to be "<key> <payload>" and returns the payload.
inline std::string expect_keyed_line(LineReader& reader,
                                     const std::string& key) {
  const auto line = reader.next();
  const auto tokens = tokens_of(line);
  if (tokens.size() != 2 || tokens[0] != key) {
    fail_at(reader.number(), "expected '" + key + " <value>'");
  }
  return tokens[1];
}

/// Parses an unsigned integer (base 10, or base 16 with 0x prefix when
/// `base0`), rejecting trailing garbage, overflow, and values > `max`.
/// The token must start with a digit: stoull's silent tolerance for a
/// leading '+' (or, post-negation, '-') contradicts the hostile-input
/// contract — no writer ever emits signs on unsigned fields. Throws
/// std::invalid_argument whose message begins with `what`.
inline std::uint64_t parse_unsigned(
    const std::string& token, const char* what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
    bool base0 = false) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument(std::string(what) + " '" +
                                token_excerpt(token) + "' " + why);
  };
  std::size_t consumed = 0;
  unsigned long long value = 0;
  if (!token.empty() && token[0] >= '0' && token[0] <= '9') {
    try {
      value = std::stoull(token, &consumed, base0 ? 0 : 10);
    } catch (const std::exception&) {
      consumed = 0;
    }
  }
  if (consumed == 0 || consumed != token.size()) fail("is not a valid number");
  if (value > max) {
    fail("is out of range (max " + std::to_string(max) + ")");
  }
  return value;
}

/// parse_unsigned with its error anchored at `line`.
inline std::uint64_t parse_unsigned(const std::string& token, std::size_t line,
                                    const char* what,
                                    std::uint64_t max =
                                        std::numeric_limits<std::uint64_t>::max(),
                                    bool base0 = false) {
  try {
    return parse_unsigned(token, what, max, base0);
  } catch (const std::invalid_argument& error) {
    fail_at(line, error.what());
  }
}

/// Parses a double, rejecting trailing garbage ("inf"/"nan" allowed — they
/// round-trip sentinel errors such as an undecided setting's infinity).
/// stod's silent extras are rejected too: a leading '+' and hexfloats
/// ("0x1p3") never come from our writers, so they are hostile input, not
/// numbers. Throws std::invalid_argument whose message begins with `what`.
inline double parse_double(const std::string& token, const char* what) {
  std::size_t consumed = 0;
  double value = 0.0;
  if (!token.empty() && token[0] != '+' &&
      token.find_first_of("xX") == std::string::npos) {
    try {
      value = std::stod(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
  }
  if (consumed == 0 || consumed != token.size()) {
    throw std::invalid_argument(std::string(what) + " '" +
                                token_excerpt(token) +
                                "' is not a valid number");
  }
  return value;
}

/// parse_double with its error anchored at `line`.
inline double parse_double(const std::string& token, std::size_t line,
                           const char* what) {
  try {
    return parse_double(token, what);
  } catch (const std::invalid_argument& error) {
    fail_at(line, error.what());
  }
}

std::string bits_to_string(const std::vector<std::uint8_t>& bits);
std::string types_to_string(const std::vector<RowType>& types);
std::vector<std::uint8_t> parse_bits(const std::string& s, std::size_t line);
std::vector<RowType> parse_types(const std::string& s, std::size_t line);

const char* mode_name(DecompMode mode) noexcept;

/// Writes one per-bit setting record ("bit k mode ... / pattern ... /
/// types ..."), the unit shared by dalut-config and dalut-checkpoint.
/// The stream should carry precision(17) so errors round-trip exactly.
void write_setting_record(std::ostream& out, unsigned k, const Setting& s);

/// Reads one per-bit setting record. Returns the bit index; validates the
/// partition against `num_inputs` and every payload length against the
/// partition. Throws line-anchored std::invalid_argument on anything off.
unsigned read_setting_record(LineReader& reader, unsigned num_inputs,
                             unsigned num_outputs, Setting& out);

}  // namespace dalut::core::detail
