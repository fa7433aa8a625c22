// Tiny command-line argument parser for the bench/example executables, and
// the tools' checked artifact writer.
//
// Supports `--flag`, `--key value`, and `--key=value` forms. Unknown
// arguments abort with a usage message listing the registered options.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
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

/// Checked text-artifact write: opens `path`, streams `body(out)`, flushes,
/// and reports any failure (open or write) on stderr as an I/O error naming
/// `what` and the path. Returns false after printing the error; the tools
/// then exit with their I/O status.
bool write_text_artifact(const std::string& path, const char* what,
                         const std::function<void(std::ostream&)>& body);

/// Checked end of a text artifact written through C stdio: `out` is
/// fopen(path) or, for path "-", stdout. Flushes, closes unless stdout, and
/// reports a failed write, flush or close (a full disk surfaces only there)
/// like write_text_artifact. Returns false after printing the error.
bool close_text_artifact(std::FILE* out, const std::string& path,
                         const char* what);

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
  /// True when `--name` appeared on the command line.
  bool given(const std::string& name) const;
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
