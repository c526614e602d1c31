// The flag table every tool and bench parses its argv with: each flag
// kind's accepted values and refusals, --help, the positional and the
// pass-through prefix. A refusal exits 2 with one stderr line naming the
// flag, then the usage.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "../tools/cli_parse.hpp"

namespace hydra::tools {
namespace {

constexpr const char* kArgs = "[--flags ...] [--help]";

struct Outcome {
  std::optional<int> rc;
  std::string out;
  std::string err;
};

Outcome parse(Cli& cli, std::vector<std::string> args) {
  std::string prog = "prog";
  std::vector<char*> argv = {prog.data()};
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  Outcome o;
  o.rc = cli.parse(static_cast<int>(argv.size()), argv.data());
  o.out = testing::internal::GetCapturedStdout();
  o.err = testing::internal::GetCapturedStderr();
  return o;
}

void expect_runs(const Outcome& o) {
  EXPECT_EQ(o.rc, std::nullopt);
  EXPECT_EQ(o.out, "");
  EXPECT_EQ(o.err, "");
}

// Exit 2, nothing on stdout, and on stderr `line`, then the usage.
void expect_refused(const Outcome& o, const std::string& line) {
  EXPECT_EQ(o.rc, std::optional<int>(2));
  EXPECT_EQ(o.out, "");
  EXPECT_EQ(o.err, "prog: " + line + "\nusage: prog " + kArgs + "\n");
}

TEST(Cli, HelpPrintsUsageToStdoutAndExitsZero) {
  bool on = false;
  Cli cli(kArgs);
  cli.help("-h").flag("--on", &on);
  for (const char* help : {"--help", "-h"}) {
    const Outcome o = parse(cli, {help, "--on", "--bogus"});
    EXPECT_EQ(o.rc, std::optional<int>(0));
    EXPECT_EQ(o.out, std::string("usage: prog ") + kArgs + "\n");
    EXPECT_EQ(o.err, "");
  }
  EXPECT_FALSE(on);  // arguments after --help are not read
  expect_refused(parse(cli, {"--bogus", "--help"}),
                 "unknown argument '--bogus'");
}

TEST(Cli, NoArgumentsRunsWithTheDefaults) {
  long ring = 7;
  std::string out = "default";
  Cli cli(kArgs);
  cli.integer("--ring", &ring, 1, 9).text("--out", &out);
  expect_runs(parse(cli, {}));
  EXPECT_EQ(ring, 7);
  EXPECT_EQ(out, "default");
  EXPECT_FALSE(cli.given("--ring"));
  char* empty_argv[] = {nullptr};
  EXPECT_EQ(cli.parse(0, empty_argv), std::nullopt);
}

TEST(Cli, UnknownArgumentIsRefused) {
  Cli cli(kArgs);
  expect_refused(parse(cli, {"--bogus"}), "unknown argument '--bogus'");
  expect_refused(parse(cli, {"--engine=parallel:4"}),
                 "unknown argument '--engine=parallel:4'");
  expect_refused(parse(cli, {"bare"}), "unknown argument 'bare'");
}

TEST(Cli, PresenceFlag) {
  bool on = false;
  bool off = false;
  Cli cli(kArgs);
  cli.flag("--on", &on).flag("--off", &off);
  expect_runs(parse(cli, {"--on"}));
  EXPECT_TRUE(on);
  EXPECT_FALSE(off);
  EXPECT_TRUE(cli.given("--on"));
  EXPECT_FALSE(cli.given("--off"));
}

TEST(Cli, TextTakesTheNextArgumentVerbatim) {
  std::string out;
  Cli cli(kArgs);
  cli.text("--out", &out);
  expect_runs(parse(cli, {"--out", "a.json"}));
  EXPECT_EQ(out, "a.json");
  expect_runs(parse(cli, {"--out", "--help"}));
  EXPECT_EQ(out, "--help");
  expect_refused(parse(cli, {"--out"}), "--out needs a value");
}

TEST(Cli, IntegerInRange) {
  long ring = 0;
  int reps = 0;
  std::uint32_t sessions = 0;
  Cli cli(kArgs);
  cli.integer("--ring", &ring, 1, 1 << 20)
      .integer("--reps", &reps, -5, 5)
      .integer("--sessions", &sessions, 1, 100000000);
  expect_runs(parse(cli, {"--ring", "1", "--reps", "-5", "--sessions",
                          "100000000"}));
  EXPECT_EQ(ring, 1);
  EXPECT_EQ(reps, -5);
  EXPECT_EQ(sessions, 100000000u);
  expect_runs(parse(cli, {"--ring", "1048576"}));
  EXPECT_EQ(ring, 1 << 20);
  const std::string expected = ": expected an integer in [1, 1048576]";
  for (const char* bad :
       {"0", "1048577", "8x", "1e9", "", "-", "0x10", "99999999999999999999"}) {
    expect_refused(parse(cli, {"--ring", bad}),
                   "bad value '" + std::string(bad) + "' for --ring" +
                       expected);
  }
  EXPECT_EQ(ring, 1 << 20);
  expect_refused(parse(cli, {"--ring"}), "--ring needs a value");
}

TEST(Cli, UnsignedSixtyFourBit) {
  std::uint64_t seed = 1;
  Cli cli(kArgs);
  cli.u64("--seed", &seed);
  expect_runs(parse(cli, {"--seed", "0"}));
  EXPECT_EQ(seed, 0u);
  expect_runs(parse(cli, {"--seed", "18446744073709551615"}));
  EXPECT_EQ(seed, UINT64_MAX);
  for (const char* bad :
       {"-1", "+1", " 5", " -5", "18446744073709551616", "x", "", "7 "}) {
    expect_refused(parse(cli, {"--seed", bad}),
                   "bad value '" + std::string(bad) +
                       "' for --seed: expected an unsigned integer");
  }
  EXPECT_EQ(seed, UINT64_MAX);
  expect_refused(parse(cli, {"--seed"}), "--seed needs a value");
}

TEST(Cli, NumberAboveOrAtZero) {
  double interval = 1.0;
  double churn = 1.0;
  Cli cli(kArgs);
  cli.number("--interval", &interval).number("--churn", &churn, true);
  expect_runs(parse(cli, {"--interval", "5e-6", "--churn", "0"}));
  EXPECT_EQ(interval, 5e-6);
  EXPECT_EQ(churn, 0.0);
  churn = 1.0;
  expect_runs(parse(cli, {"--churn", "0.0"}));
  EXPECT_EQ(churn, 0.0);
  expect_runs(parse(cli, {"--churn", "2.5"}));
  EXPECT_EQ(churn, 2.5);
  for (const char* bad : {"0", "0.0", "-1", "nan", "1e-400", "1x", ""}) {
    expect_refused(parse(cli, {"--interval", bad}),
                   "bad value '" + std::string(bad) +
                       "' for --interval: expected a number > 0");
  }
  for (const char* bad : {"-1", "nan", "1e999", "x"}) {
    expect_refused(parse(cli, {"--churn", bad}),
                   "bad value '" + std::string(bad) +
                       "' for --churn: expected a number >= 0");
  }
  EXPECT_EQ(interval, 5e-6);
  expect_refused(parse(cli, {"--churn"}), "--churn needs a value");
}

TEST(Cli, ChoiceOfNames) {
  std::string role = "edge";
  Cli cli(kArgs);
  cli.choice("--role", &role, {"edge", "core"});
  expect_runs(parse(cli, {"--role", "core"}));
  EXPECT_EQ(role, "core");
  for (const char* bad : {"spine", "Core", ""}) {
    expect_refused(parse(cli, {"--role", bad}),
                   "bad value '" + std::string(bad) +
                       "' for --role: expected one of edge|core");
  }
  EXPECT_EQ(role, "core");
  expect_refused(parse(cli, {"--role"}), "--role needs a value");
}

TEST(Cli, OnePositional) {
  std::string dir = ".";
  bool on = false;
  // A table reads one command line: each case gets its own.
  const auto table = [&] {
    Cli cli(kArgs);
    cli.positional("dir", &dir).flag("--on", &on);
    return cli;
  };
  Cli none = table();
  expect_runs(parse(none, {}));
  EXPECT_EQ(dir, ".");
  Cli after_flag = table();
  expect_runs(parse(after_flag, {"--on", "out"}));
  EXPECT_EQ(dir, "out");
  EXPECT_TRUE(on);
  Cli metavar = table();
  expect_runs(parse(metavar, {"dir"}));  // the metavar is no flag name
  EXPECT_EQ(dir, "dir");
  Cli two = table();
  expect_refused(parse(two, {"a", "b"}), "unknown argument 'b'");
  Cli dash = table();
  expect_refused(parse(dash, {"-x"}), "unknown argument '-x'");
  dir = ".";
  Cli empty = table();
  expect_refused(parse(empty, {""}), "unknown argument ''");
  EXPECT_EQ(dir, ".");
}

TEST(Cli, RequiredPositional) {
  std::string input;
  Cli cli(kArgs);
  cli.positional("checker.indus", &input, /*required=*/true);
  expect_refused(parse(cli, {}), "missing checker.indus");
  expect_runs(parse(cli, {"loops.indus"}));
  EXPECT_EQ(input, "loops.indus");
}

TEST(Cli, PassThroughPrefixIsLeftForTheLibrary) {
  Cli cli(kArgs);
  cli.pass("--benchmark_");
  expect_runs(parse(cli, {"--benchmark_filter=BM_Parse",
                          "--benchmark_min_time=0.01s"}));
  expect_refused(parse(cli, {"--benchmark"}),
                 "unknown argument '--benchmark'");
  expect_refused(parse(cli, {"--benchmark_filter=x", "--bogus"}),
                 "unknown argument '--bogus'");
}

TEST(Cli, RefuseReportsARuleAcrossFlags) {
  bool watch = false;
  std::string prom;
  Cli cli(kArgs);
  cli.flag("--watch", &watch).text("--prom", &prom);
  expect_runs(parse(cli, {"--watch"}));
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli.refuse("--watch requires --prom FILE"), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            std::string("prog: --watch requires --prom FILE\nusage: prog ") +
                kArgs + "\n");
}

}  // namespace
}  // namespace hydra::tools
