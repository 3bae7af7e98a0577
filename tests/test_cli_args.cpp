// Tests for the CliArgs numeric/boolean getters: strict full-token parsing
// (PR 4 bugfixes).  Before these fixes `--n 10x` silently parsed as 10,
// get_uint routed through stoll and rejected legitimate values above
// INT64_MAX, get_bool mapped any unrecognized token to false, and parse
// failures leaked bare std::stoll exceptions that did not name the flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/cli.hpp"

namespace saer {
namespace {

CliArgs make_args(std::vector<std::string> args) { return CliArgs(args); }

/// The thrown message must name the flag and echo the offending value so a
/// user of a 10-flag figure binary can tell which one is broken.
template <typename Fn>
void expect_named_error(Fn&& fn, const std::string& flag,
                        const std::string& value) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument for --" << flag;
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find(value), std::string::npos) << what;
  }
}

TEST(CliArgsNumbers, TrailingGarbageIsRejectedNotTruncated) {
  const CliArgs args = make_args({"--n", "10x"});
  expect_named_error([&] { (void)args.get_int("n", 0); }, "n", "10x");
  expect_named_error([&] { (void)args.get_uint("n", 0); }, "n", "10x");
  expect_named_error([&] { (void)args.get_double("n", 0); }, "n", "10x");
}

TEST(CliArgsNumbers, EmbeddedGarbageAndNonNumbersAreRejected) {
  const CliArgs args = make_args({"--a", "1 2", "--b", "x7", "--c=3.5.7"});
  expect_named_error([&] { (void)args.get_int("a", 0); }, "a", "1 2");
  expect_named_error([&] { (void)args.get_uint("b", 0); }, "b", "x7");
  expect_named_error([&] { (void)args.get_double("c", 0); }, "c", "3.5.7");
}

TEST(CliArgsNumbers, ValidTokensStillParse) {
  const CliArgs args =
      make_args({"--i", "-42", "--u", "7", "--d", "2.5", "--e", "1e-3"});
  EXPECT_EQ(args.get_int("i", 0), -42);
  EXPECT_EQ(args.get_uint("u", 0), 7u);
  EXPECT_DOUBLE_EQ(args.get_double("d", 0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double("e", 0), 1e-3);
  EXPECT_EQ(args.get_int("missing", -7), -7);
  EXPECT_EQ(args.get_uint("missing", 9u), 9u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.5), 0.5);
}

TEST(CliArgsNumbers, GetUintCoversTheFullUint64Range) {
  // Above INT64_MAX: the old std::stoll path threw out_of_range here.
  const CliArgs args = make_args(
      {"--mid", "9223372036854775808", "--max", "18446744073709551615"});
  EXPECT_EQ(args.get_uint("mid", 0), 9223372036854775808ULL);
  EXPECT_EQ(args.get_uint("max", 0),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(CliArgsNumbers, GetUintRejectsNegativesInsteadOfWrapping) {
  // std::stoull would happily wrap "-1" to UINT64_MAX.
  const CliArgs args = make_args({"--n", "-1"});
  try {
    (void)args.get_uint("n", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("--n"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 0"), std::string::npos) << what;
  }
}

TEST(CliArgsNumbers, OutOfRangeNamesTheFlag) {
  const CliArgs args = make_args({"--big", "99999999999999999999999",
                                  "--huge", "1e999"});
  expect_named_error([&] { (void)args.get_int("big", 0); }, "big",
                     "out of range");
  expect_named_error([&] { (void)args.get_uint("big", 0); }, "big",
                     "out of range");
  expect_named_error([&] { (void)args.get_double("huge", 0); }, "huge",
                     "out of range");
}

TEST(CliArgsBool, AcceptsTheFullTokenSetOnly) {
  const CliArgs args = make_args({"--a", "true", "--b", "1", "--c", "yes",
                                  "--d", "on", "--e", "false", "--f", "0",
                                  "--g", "no", "--h", "off"});
  for (const std::string flag : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(args.get_bool(flag, false)) << flag;
  }
  for (const std::string flag : {"e", "f", "g", "h"}) {
    EXPECT_FALSE(args.get_bool(flag, true)) << flag;
  }
  EXPECT_TRUE(args.get_bool("missing", true));
  EXPECT_FALSE(args.get_bool("missing2", false));
}

TEST(CliArgsBool, UnrecognizedTokenThrowsInsteadOfSilentFalse) {
  // The old behaviour turned `--share-graph banana` into false silently.
  const CliArgs args = make_args({"--share-graph", "banana"});
  expect_named_error([&] { (void)args.get_bool("share-graph", false); },
                     "share-graph", "banana");
}

TEST(CliArgsBool, BareFlagIsStillTrue) {
  const CliArgs args = make_args({"--quiet"});
  EXPECT_TRUE(args.get_bool("quiet", false));
}

TEST(CliArgsLists, EveryElementIsValidated) {
  const CliArgs args = make_args({"--sizes", "1,2x,3", "--cs", "1.5,oops"});
  expect_named_error([&] { (void)args.get_uint_list("sizes", {}); }, "sizes",
                     "2x");
  expect_named_error([&] { (void)args.get_double_list("cs", {}); }, "cs",
                     "oops");
}

TEST(CliArgsLists, Uint64RangeAndNegativesInLists) {
  const CliArgs ok = make_args({"--sizes", "1,18446744073709551615"});
  const auto parsed = ok.get_uint_list("sizes", {});
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1], std::numeric_limits<std::uint64_t>::max());
  const CliArgs bad = make_args({"--sizes", "1,-2"});
  EXPECT_THROW((void)bad.get_uint_list("sizes", {}), std::invalid_argument);
}

TEST(CliArgsLists, ValidListsAndFallbacksUnchanged) {
  const CliArgs args = make_args({"--sizes", "128,256", "--cs", "1.5,2"});
  EXPECT_EQ(args.get_uint_list("sizes", {}),
            (std::vector<std::uint64_t>{128, 256}));
  EXPECT_EQ(args.get_double_list("cs", {}), (std::vector<double>{1.5, 2.0}));
  EXPECT_EQ(args.get_uint_list("missing", {7}),
            (std::vector<std::uint64_t>{7}));
}

TEST(CliArgsUnknown, GettersMarkFlagsConsumed) {
  const CliArgs args = make_args({"--jobs", "4", "--jsonl", "out.jsonl",
                                  "--jbos", "8"});
  (void)args.get_uint("jobs", 0);
  (void)args.get("jsonl", "");
  EXPECT_EQ(args.unknown_flags(), std::vector<std::string>{"jbos"});
}

TEST(CliArgsUnknown, RejectUnknownNamesEveryStrayFlag) {
  const CliArgs args = make_args({"--jobs", "4", "--jbos", "8", "--sheed",
                                  "1"});
  (void)args.get_uint("jobs", 0);
  try {
    args.reject_unknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("--jbos"), std::string::npos) << what;
    EXPECT_NE(what.find("--sheed"), std::string::npos) << what;
  }
}

TEST(CliArgsUnknown, RejectUnknownPassesWhenAllConsumed) {
  const CliArgs args = make_args({"--jobs", "4", "--quiet"});
  (void)args.get_uint("jobs", 0);
  (void)args.get_bool("quiet", false);
  EXPECT_NO_THROW(args.reject_unknown());
  // has() counts as consumption too.
  const CliArgs probed = make_args({"--trace"});
  (void)probed.has("trace");
  EXPECT_NO_THROW(probed.reject_unknown());
}

TEST(CliArgsUnknown, BenchmarkFlagsArePassedThrough) {
  const CliArgs args = make_args({"--benchmark_filter", "x"});
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(CheckedNodeId, ThirtyTwoBitBoundary) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(checked_node_id("n", kMax), kMax);
  EXPECT_EQ(checked_node_id("n", 0), 0u);
  expect_named_error([] { (void)checked_node_id("n", kMax + 1); }, "n",
                     "does not fit 32 bits");
  expect_named_error([] { (void)checked_node_id("side", 4294967312ULL); },
                     "side", "4294967312");
}

}  // namespace
}  // namespace saer
