// ArgParser + command-table coverage. The help output is golden-tested:
// it is user-facing contract, and the golden keeps accidental wording /
// alignment churn out of unrelated diffs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace mfa::cli {
namespace {

Status parse(ArgParser& parser, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, GoldenSolveHelp) {
  auto parser = command_parser("mfalloc_cli", "solve");
  ASSERT_TRUE(parser.is_ok());
  EXPECT_EQ(parser.value().usage_line(),
            "usage: mfalloc_cli solve <problem.json> [options]");
  const std::string expected =
      "usage: mfalloc_cli solve <problem.json> [options]\n"
      "\n"
      "Solve one problem with GP+A, or prove the optimum.\n"
      "\n"
      "options:\n"
      "  <problem.json>  problem file (see src/io/serialize.hpp)\n"
      "  --exact         prove the optimum with the exact branch-and-bound\n"
      "  --json          print the allocation as JSON instead of text\n"
      "  --help          show this help and exit\n";
  EXPECT_EQ(parser.value().help_text(), expected);
}

TEST(Cli, GoldenServeUsageLine) {
  auto parser = command_parser("mfalloc_cli", "serve");
  ASSERT_TRUE(parser.is_ok());
  // Required options surface in the usage line, not under [options].
  EXPECT_EQ(parser.value().usage_line(),
            "usage: mfalloc_cli serve --trace <trace.json> [options]");
}

TEST(Cli, GlobalUsageListsEveryCommand) {
  const std::string usage = global_usage("mfalloc_cli");
  EXPECT_EQ(usage.rfind("usage: mfalloc_cli <command> [args]", 0), 0u);
  for (const std::string& name : command_names()) {
    EXPECT_NE(usage.find("\n  " + name + " "), std::string::npos) << name;
    // Every listed command resolves to a parser.
    EXPECT_TRUE(command_parser("mfalloc_cli", name).is_ok()) << name;
  }
}

TEST(Cli, MfallocdParserShape) {
  ArgParser parser = mfallocd_parser("mfallocd");
  EXPECT_EQ(parser.usage_line(), "usage: mfallocd [options]");
  const std::string help = parser.help_text();
  for (const char* flag :
       {"--platform", "--port", "--data", "--shards", "--max-moves",
        "--max-disturbed", "--recover", "--no-fsync", "--help"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
}

TEST(Cli, ServingCommandsTakeNoJobs) {
  // The server runs its lanes on the dispatcher thread: neither the
  // daemon nor `serve` declares a thread count.
  ArgParser daemon = mfallocd_parser("mfallocd");
  const Status daemon_jobs = parse(daemon, {"--jobs", "2"});
  EXPECT_EQ(daemon_jobs.code(), Code::kInvalid);
  EXPECT_NE(daemon_jobs.message().find("unknown flag '--jobs'"),
            std::string::npos);
  auto serve = command_parser("mfalloc_cli", "serve");
  ASSERT_TRUE(serve.is_ok());
  const Status serve_jobs =
      parse(serve.value(), {"--trace", "t.json", "--jobs", "2"});
  EXPECT_EQ(serve_jobs.code(), Code::kInvalid);
  EXPECT_NE(serve_jobs.message().find("unknown flag '--jobs'"),
            std::string::npos);
}

TEST(Cli, ServeExposesStabilityBudgets) {
  auto parser = command_parser("mfalloc_cli", "serve");
  ASSERT_TRUE(parser.is_ok());
  const std::string help = parser.value().help_text();
  for (const char* flag : {"--max-moves", "--max-disturbed"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
  ASSERT_TRUE(parse(parser.value(), {"--trace", "t.json", "--max-moves",
                                     "4", "--max-disturbed", "1"})
                  .is_ok());
  EXPECT_EQ(parser.value().int_or("max-moves", -1, -1, 1 << 30).value(), 4);
  EXPECT_EQ(
      parser.value().int_or("max-disturbed", -1, -1, 1 << 30).value(), 1);
}

TEST(Cli, UnknownCommandRejected) {
  auto parser = command_parser("mfalloc_cli", "bogus");
  EXPECT_EQ(parser.status().code(), Code::kInvalid);
}

TEST(Cli, ParsesPositionalsFlagsAndOptions) {
  auto parser = command_parser("mfalloc_cli", "solve");
  ASSERT_TRUE(parser.is_ok());
  ASSERT_TRUE(parse(parser.value(), {"p.json", "--exact"}).is_ok());
  ASSERT_EQ(parser.value().positionals().size(), 1u);
  EXPECT_EQ(parser.value().positionals()[0], "p.json");
  EXPECT_TRUE(parser.value().flag_set("exact"));
  EXPECT_FALSE(parser.value().flag_set("json"));
}

TEST(Cli, InlineValuesAndLastOccurrenceWins) {
  auto parser = command_parser("mfalloc_cli", "portfolio");
  ASSERT_TRUE(parser.is_ok());
  ASSERT_TRUE(
      parse(parser.value(),
            {"p.json", "--seconds=2.5", "--seconds", "5", "--jobs=4"})
          .is_ok());
  EXPECT_EQ(parser.value().value_or("seconds", ""), "5");
  const auto seconds = parser.value().real_or("seconds", 0.0, 0.0, 100.0);
  ASSERT_TRUE(seconds.is_ok());
  EXPECT_DOUBLE_EQ(seconds.value(), 5.0);
  const auto jobs = parser.value().int_or("jobs", 1, 0, 64);
  ASSERT_TRUE(jobs.is_ok());
  EXPECT_EQ(jobs.value(), 4);
}

TEST(Cli, RejectsBadInvocations) {
  // Unknown flag.
  {
    auto parser = command_parser("mfalloc_cli", "solve");
    ASSERT_TRUE(parser.is_ok());
    const Status st = parse(parser.value(), {"p.json", "--nope"});
    EXPECT_EQ(st.code(), Code::kInvalid);
    EXPECT_NE(st.message().find("--nope"), std::string::npos);
  }
  // Missing positional.
  {
    auto parser = command_parser("mfalloc_cli", "solve");
    ASSERT_TRUE(parser.is_ok());
    const Status st = parse(parser.value(), {"--exact"});
    EXPECT_EQ(st.code(), Code::kInvalid);
    EXPECT_NE(st.message().find("problem.json"), std::string::npos);
  }
  // Missing required option.
  {
    auto parser = command_parser("mfalloc_cli", "serve");
    ASSERT_TRUE(parser.is_ok());
    const Status st = parse(parser.value(), {});
    EXPECT_EQ(st.code(), Code::kInvalid);
    EXPECT_NE(st.message().find("--trace"), std::string::npos);
  }
  // Boolean flag given a value.
  {
    auto parser = command_parser("mfalloc_cli", "solve");
    ASSERT_TRUE(parser.is_ok());
    EXPECT_EQ(parse(parser.value(), {"p.json", "--exact=1"}).code(),
              Code::kInvalid);
  }
  // Option at end of line with no value.
  {
    auto parser = command_parser("mfalloc_cli", "portfolio");
    ASSERT_TRUE(parser.is_ok());
    EXPECT_EQ(parse(parser.value(), {"p.json", "--seconds"}).code(),
              Code::kInvalid);
  }
  // Extra positional.
  {
    auto parser = command_parser("mfalloc_cli", "solve");
    ASSERT_TRUE(parser.is_ok());
    EXPECT_EQ(parse(parser.value(), {"p.json", "extra"}).code(),
              Code::kInvalid);
  }
  // Short options are not a thing (except -h).
  {
    auto parser = command_parser("mfalloc_cli", "solve");
    ASSERT_TRUE(parser.is_ok());
    EXPECT_EQ(parse(parser.value(), {"p.json", "-x"}).code(),
              Code::kInvalid);
  }
}

TEST(Cli, HelpShortCircuitsRequiredChecks) {
  auto parser = command_parser("mfalloc_cli", "serve");
  ASSERT_TRUE(parser.is_ok());
  // --trace is required, but --help must still succeed.
  ASSERT_TRUE(parse(parser.value(), {"--help"}).is_ok());
  EXPECT_TRUE(parser.value().help_requested());
}

TEST(Cli, BareDashIsAPositional) {
  auto parser = command_parser("mfalloc_cli", "gen");
  ASSERT_TRUE(parser.is_ok());
  ASSERT_TRUE(parse(parser.value(), {"-", "--seed", "7"}).is_ok());
  EXPECT_EQ(parser.value().positionals()[0], "-");
}

TEST(Cli, TypedAccessorsValidate) {
  ArgParser parser = mfallocd_parser("mfallocd");
  ASSERT_TRUE(parse(parser, {"--port", "notaport", "--shards", "999"})
                  .is_ok());
  const auto port = parser.int_or("port", 8080, 0, 65535);
  EXPECT_EQ(port.status().code(), Code::kInvalid);
  EXPECT_NE(port.status().message().find("--port"), std::string::npos);
  // In range [1, 256]? 999 is out of bounds (inclusive bounds).
  EXPECT_EQ(parser.int_or("shards", 2, 1, 256).status().code(),
            Code::kInvalid);
  // Absent → fallback, not an error.
  const auto snapshot_every =
      parser.int_or("snapshot-every", 256, 0, 1 << 30);
  ASSERT_TRUE(snapshot_every.is_ok());
  EXPECT_EQ(snapshot_every.value(), 256);
}

TEST(Cli, ParseHelpersRejectGarbage) {
  EXPECT_TRUE(ArgParser::parse_int("7", "x", 0, 10).is_ok());
  EXPECT_FALSE(ArgParser::parse_int("7x", "x", 0, 10).is_ok());
  EXPECT_FALSE(ArgParser::parse_int("", "x", 0, 10).is_ok());
  EXPECT_FALSE(ArgParser::parse_int("11", "x", 0, 10).is_ok());
  EXPECT_TRUE(ArgParser::parse_real("2.5", "x", 0.0, 10.0).is_ok());
  EXPECT_FALSE(ArgParser::parse_real("2.5ms", "x", 0.0, 10.0).is_ok());
  EXPECT_FALSE(ArgParser::parse_real("nan", "x", 0.0, 10.0).is_ok());
}

}  // namespace
}  // namespace mfa::cli
