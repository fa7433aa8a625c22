#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dalut::util {
namespace {

std::vector<char*> make_argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  CliParser cli("test");
  cli.add_option("width", "16", "bit width");
  cli.add_flag("full", "full scale");
  std::vector<std::string> args{"prog"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.integer("width"), 16);
  EXPECT_FALSE(cli.flag("full"));
}

TEST(Cli, SpaceSeparatedValue) {
  CliParser cli("test");
  cli.add_option("runs", "10", "runs");
  std::vector<std::string> args{"prog", "--runs", "3"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.integer("runs"), 3);
}

TEST(Cli, EqualsSeparatedValue) {
  CliParser cli("test");
  cli.add_option("seed", "1", "seed");
  std::vector<std::string> args{"prog", "--seed=99"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.integer("seed"), 99);
}

TEST(Cli, FlagPresence) {
  CliParser cli("test");
  cli.add_flag("verbose", "chatty");
  std::vector<std::string> args{"prog", "--verbose"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, RealValues) {
  CliParser cli("test");
  cli.add_option("delta", "0.01", "mode factor");
  std::vector<std::string> args{"prog", "--delta", "0.25"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_DOUBLE_EQ(cli.real("delta"), 0.25);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  std::vector<std::string> args{"prog", "--help"};
  auto argv = make_argv(args);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, BoundedIntegerNamesTheFlagWhenRejected) {
  CliParser cli("test");
  cli.add_option("patterns", "12", "restarts");
  cli.add_option("beams", "3", "beam width");
  cli.add_option("chains", "3", "chains");
  std::vector<std::string> args{"prog", "--patterns", "-1", "--beams", "2x"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.integer_in("chains", 0, 4096), 3);
  EXPECT_EQ(cli.integer_in("chains", 3, 3), 3);
  for (const char* name : {"patterns", "beams"}) {
    try {
      (void)cli.integer_in(name, 0, 4096);
      ADD_FAILURE() << name << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("--") + name),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW((void)cli.integer_in("chains", 4, 10), std::invalid_argument);
}

TEST(Cli, UnregisteredOptionThrowsOnAccess) {
  CliParser cli("test");
  EXPECT_THROW((void)cli.str("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace dalut::util
