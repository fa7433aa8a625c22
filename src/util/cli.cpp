#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dalut::util {

std::chrono::nanoseconds parse_duration(const std::string& text,
                                        const std::string& what) {
  std::string number = text;
  double scale = 1.0;
  if (!number.empty()) {
    switch (number.back()) {
      case 's':
        number.pop_back();
        break;
      case 'm':
        scale = 60.0;
        number.pop_back();
        break;
      case 'h':
        scale = 3600.0;
        number.pop_back();
        break;
      default:
        break;
    }
  }
  std::size_t pos = 0;
  double seconds = 0.0;
  try {
    seconds = std::stod(number, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (number.empty() || pos != number.size() || seconds <= 0.0) {
    throw std::invalid_argument(what +
                                " wants a positive duration like '45', "
                                "'30s', '5m', or '1h', got '" +
                                text + "'");
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds * scale));
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_flag("help", "Show this help message");
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{"false", help, /*is_flag=*/true};
}

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  options_[name] = Option{default_value, help, /*is_flag=*/false};
}

bool CliParser::parse(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      print_usage();
      std::exit(2);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      std::fprintf(stderr, "error: unknown option '--%s'\n", arg.c_str());
      print_usage();
      std::exit(2);
    }
    if (it->second.is_flag) {
      values_[arg] = has_value ? value : "true";
    } else if (has_value) {
      values_[arg] = value;
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: option '--%s' needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      values_[arg] = argv[++i];
    }
  }
  if (flag("help")) {
    print_usage();
    return false;
  }
  return true;
}

bool CliParser::flag(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  return it->second == "true" || it->second == "1";
}

std::string CliParser::str(const std::string& name) const {
  const auto value = values_.find(name);
  if (value != values_.end()) return value->second;
  const auto option = options_.find(name);
  if (option == options_.end()) {
    throw std::invalid_argument("unregistered option: " + name);
  }
  return option->second.default_value;
}

std::int64_t CliParser::integer(const std::string& name) const {
  return std::stoll(str(name));
}

std::int64_t CliParser::integer_in(const std::string& name, std::int64_t lo,
                                   std::int64_t hi) const {
  const std::string text = str(name);
  std::int64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " must be an integer, got '" +
                                text + "'");
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + name + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
  return value;
}

double CliParser::real(const std::string& name) const {
  return std::stod(str(name));
}

void CliParser::print_usage() const {
  std::printf("%s\n\nusage: %s [options]\n\noptions:\n", description_.c_str(),
              program_name_.c_str());
  for (const auto& [name, option] : options_) {
    if (option.is_flag) {
      std::printf("  --%-24s %s\n", name.c_str(), option.help.c_str());
    } else {
      std::printf("  --%-24s %s (default: %s)\n", (name + " <v>").c_str(),
                  option.help.c_str(), option.default_value.c_str());
    }
  }
}

}  // namespace dalut::util
