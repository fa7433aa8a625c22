// Tiny command-line argument parser for the bench/example executables.
//
// Supports `--flag`, `--key value`, and `--key=value` forms. Unknown
// arguments abort with a usage message listing the registered options.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dalut::util {

/// Parses a human wall-clock duration: "30" or "30s" = seconds, "5m" =
/// minutes, "2h" = hours. Throws std::invalid_argument (mentioning `what`,
/// e.g. "--deadline") for anything that is not a positive duration.
std::chrono::nanoseconds parse_duration(const std::string& text,
                                        const std::string& what);

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Registers an option with a default, returned by the typed getters when
  /// the option is absent on the command line.
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parses argv; on `--help` prints usage and returns false (caller should
  /// exit 0). Aborts with a message on unknown options.
  bool parse(int argc, char** argv);

  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  /// Value of the integer option `--name`, which must lie in [lo, hi].
  /// Throws std::invalid_argument naming the flag otherwise, so a negative
  /// count cannot wrap to a huge unsigned one.
  std::int64_t integer_in(const std::string& name, std::int64_t lo,
                          std::int64_t hi) const;
  double real(const std::string& name) const;

  void print_usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string description_;
  std::string program_name_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
};

}  // namespace dalut::util
