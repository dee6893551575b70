// hulkv::cli::Parser — the shared flag table behind the bench
// binaries (report::parse_bench_args) and the serve tools.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "report/report.hpp"

namespace {

using namespace hulkv;

/// argv helper: materialize a writable char** from string literals.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    ptrs.push_back(const_cast<char*>("prog"));
    for (std::string& s : storage) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> storage;
  std::vector<char*> ptrs;
};

TEST(CliParser, ParsesBothFlagSpellings) {
  std::string name;
  u32 count = 0;
  u64 big = 0;
  double rate = 0.0;
  bool verbose = false;
  cli::Parser parser("t");
  parser.add_string("--name", &name, "")
      .add_u32("--count", &count, "")
      .add_u64("--big", &big, "")
      .add_double("--rate", &rate, "")
      .add_flag("--verbose", &verbose, "");

  Argv args({"--name", "alpha", "--count=7", "--big",
             "12884901888", "--rate=2.5", "--verbose"});
  ASSERT_TRUE(parser.parse(args.argc(), args.argv())) << parser.error();
  EXPECT_EQ(name, "alpha");
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(big, 12884901888ull);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(verbose);
}

TEST(CliParser, OptionalValueNeverConsumesNextArgument) {
  bool present = false;
  std::string value;
  bool other = false;
  cli::Parser parser("t");
  parser.add_optional_value("--profile", &present, &value, "")
      .add_flag("--other", &other, "");

  // Bare form: the next flag must still be parsed as a flag.
  Argv bare({"--profile", "--other"});
  ASSERT_TRUE(parser.parse(bare.argc(), bare.argv()));
  EXPECT_TRUE(present);
  EXPECT_TRUE(value.empty());
  EXPECT_TRUE(other);

  // `=` form carries the value.
  present = false;
  Argv eq({"--profile=out/prof"});
  ASSERT_TRUE(parser.parse(eq.argc(), eq.argv()));
  EXPECT_TRUE(present);
  EXPECT_EQ(value, "out/prof");
}

TEST(CliParser, RejectsBadNumbersAndMissingValues) {
  u32 count = 0;
  cli::Parser parser("t");
  parser.add_u32("--count", &count, "");

  Argv bad({"--count", "seven"});
  EXPECT_FALSE(parser.parse(bad.argc(), bad.argv()));
  EXPECT_FALSE(parser.error().empty());

  Argv missing({"--count"});
  EXPECT_FALSE(parser.parse(missing.argc(), missing.argv()));
  EXPECT_FALSE(parser.error().empty());

  Argv trailing({"--count=7x"});
  EXPECT_FALSE(parser.parse(trailing.argc(), trailing.argv()));
}

TEST(CliParser, UnknownFlagPolicy) {
  u32 count = 0;
  cli::Parser parser("t");
  parser.add_u32("--count", &count, "");

  // Tools: unknown flag is a hard error.
  Argv unknown({"--count", "3", "--mystery"});
  EXPECT_FALSE(
      parser.parse(unknown.argc(), unknown.argv(), cli::Parser::OnUnknown::kError));
  EXPECT_NE(parser.error().find("--mystery"), std::string::npos);

  // Benches: unknown flags belong to a wrapped tool and are ignored,
  // and known flags around them still apply.
  Argv ignored({"--mystery", "--count", "5"});
  ASSERT_TRUE(parser.parse(ignored.argc(), ignored.argv(),
                           cli::Parser::OnUnknown::kIgnore));
  EXPECT_EQ(count, 5u);
}

TEST(CliParser, UsageListsEveryFlag) {
  u32 count = 0;
  bool quick = false;
  cli::Parser parser("mytool", "does a thing");
  parser.add_u32("--count", &count, "how many")
      .add_flag("--quick", &quick, "skip the slow part");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("mytool"), std::string::npos);
  EXPECT_NE(usage.find("does a thing"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("--quick"), std::string::npos);
}

TEST(CliBench, BenchFlagParserKeepsHistoricalSemantics) {
  Argv args({"--json", "out.json", "--jobs=3", "--tier", "interp",
             "--telemetry=runs2", "--profile",
             "--benchmark_filter=all"});  // wrapped-tool flag: kept
  int argc = args.argc();
  const report::BenchOptions options =
      report::parse_bench_args(argc, args.argv());
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(args.argv()[1], "--benchmark_filter=all");
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_EQ(options.jobs, 3u);
  EXPECT_EQ(options.tier, "interp");
  EXPECT_TRUE(options.telemetry);
  EXPECT_EQ(options.telemetry_dir, "runs2");
  EXPECT_TRUE(options.profile);
  EXPECT_TRUE(options.profile_path.empty());
}

TEST(CliBench, ParseBenchArgsMatchesParser) {
  Argv args({"--jobs", "2", "--telemetry"});
  int argc = args.argc();
  const report::BenchOptions options =
      report::parse_bench_args(argc, args.argv());
  EXPECT_EQ(argc, 1);
  EXPECT_EQ(options.jobs, 2u);
  EXPECT_TRUE(options.telemetry);
  EXPECT_TRUE(options.telemetry_dir.empty());
}

}  // namespace
