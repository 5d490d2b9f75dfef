// Unit tests for src/util: stats, rng, bytebuf, table, cli.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "util/bytebuf.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace tracered {
namespace {

// --- stats ---------------------------------------------------------------

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(stddev({5}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 4.6);
}

TEST(Stats, PercentileEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 90), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
}

TEST(Stats, MedianUnsortedInput) {
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, PearsonPerfectAndAnti) {
  EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantProfileCountsAsCorrelated) {
  EXPECT_DOUBLE_EQ(pearson({5, 5, 5}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(pearson({1, 2, 3}, {5, 5, 5}), 1.0);
}

TEST(Stats, PearsonSizeMismatchIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 2}, {1, 2, 3}), 0.0);
}

TEST(Stats, RunningStats) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  rs.add(3);
  rs.add(-1);
  rs.add(4);
  EXPECT_EQ(rs.count(), 3u);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
  EXPECT_DOUBLE_EQ(rs.total(), 6.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.0);
}

TEST(Stats, MaxAbs) {
  EXPECT_DOUBLE_EQ(maxAbs({}), 0.0);
  EXPECT_DOUBLE_EQ(maxAbs({-5, 3}), 5.0);
}

// --- rng -----------------------------------------------------------------

TEST(Rng, Deterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(77);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IntInRange) {
  SplitMix64 rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.nextInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, GaussianRoughlyStandard) {
  SplitMix64 rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.nextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, SeedForIsStableAndRankSensitive) {
  const auto a = seedFor("x", 1, 0);
  EXPECT_EQ(a, seedFor("x", 1, 0));
  EXPECT_NE(a, seedFor("x", 1, 1));
  EXPECT_NE(a, seedFor("y", 1, 0));
  EXPECT_NE(a, seedFor("x", 2, 0));
}

// --- bytebuf ---------------------------------------------------------------

TEST(ByteBuf, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.str("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteBuf, VarintRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint64_t> values = {0, 1, 127, 128, 300, 1u << 20,
                                             0xffffffffffffffffull};
  for (auto v : values) w.uvarint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.uvarint(), v);
}

TEST(ByteBuf, SvarintRoundTrip) {
  ByteWriter w;
  const std::vector<std::int64_t> values = {0, 1, -1, 63, -64, 1000000, -1000000,
                                            INT64_MAX, INT64_MIN};
  for (auto v : values) w.svarint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(ByteBuf, SmallVarintsAreCompact) {
  ByteWriter w;
  w.uvarint(5);
  EXPECT_EQ(w.size(), 1u);
  w.svarint(-3);
  EXPECT_EQ(w.size(), 2u);
}

TEST(ByteBuf, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.u8(), std::out_of_range);
}

// --- table -----------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TextTable t;
  t.header({"name", "v"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // header and both rows plus a rule
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, CsvEscapes) {
  TextTable t;
  t.header({"a", "b"});
  t.row({"x,y", "q\"z"});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"z\""), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmtF(3.14159, 2), "3.14");
  EXPECT_EQ(fmtPct(12.5, 1), "12.5%");
  EXPECT_EQ(fmtBytes(512), "512 B");
  EXPECT_EQ(fmtBytes(2048), "2.00 KiB");
  EXPECT_EQ(fmtBytes(3 << 20), "3.00 MiB");
}

// --- cli -------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--iters=5", "--name", "foo", "pos1", "--verbose"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.getInt("iters", 0), 5);
  EXPECT_EQ(args.get("name"), "foo");
  EXPECT_TRUE(args.getBool("verbose"));
  EXPECT_FALSE(args.getBool("absent"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.getInt("x", 9), 9);
  EXPECT_DOUBLE_EQ(args.getDouble("y", 2.5), 2.5);
  EXPECT_EQ(args.get("z", "dflt"), "dflt");
}

TEST(Cli, MalformedNumericValuesAreUsageErrors) {
  // A typo'd numeric value must never be silently read as 0.
  const char* argv[] = {"prog", "--threads", "abc", "--scale", "1.5x"};
  CliArgs args(5, argv);
  EXPECT_THROW(args.getInt("threads", 0), UsageError);
  EXPECT_THROW(args.getDouble("scale", 1.0), UsageError);
  const char* ok[] = {"prog", "--threads", "4", "--scale", "0.25"};
  CliArgs okArgs(5, ok);
  EXPECT_EQ(okArgs.getInt("threads", 0), 4);
  EXPECT_DOUBLE_EQ(okArgs.getDouble("scale", 1.0), 0.25);
  // ... nor silently saturated on overflow.
  const char* huge[] = {"prog", "--threads", "99999999999999999999", "--scale", "1e999"};
  CliArgs hugeArgs(5, huge);
  EXPECT_THROW(hugeArgs.getInt("threads", 0), UsageError);
  EXPECT_THROW(hugeArgs.getDouble("scale", 1.0), UsageError);
}

TEST(Cli, ThreadsFlagRejectsValuesOutsideZeroToIntMax) {
  // 4294967297 narrows to 1 and -1 would read as "hardware concurrency";
  // both must be usage errors instead.
  for (const char* bad : {"4294967297", "-1"}) {
    const char* argv[] = {"prog", "--threads", bad};
    EXPECT_THROW(threadsFlag(CliArgs(3, argv), 1), UsageError) << bad;
  }
  for (const char* good : {"0", "4"}) {
    const char* argv[] = {"prog", "--threads", good};
    EXPECT_EQ(threadsFlag(CliArgs(3, argv), 1), std::stoi(good)) << good;
  }
  const char* absent[] = {"prog"};
  EXPECT_EQ(threadsFlag(CliArgs(1, absent), 7), 7);
}

TEST(Cli, DeclaredBooleanFlagsConsumeExplicitBoolWords) {
  // `--csv false` must mean false, while `--streaming app.trf` keeps the
  // file positional.
  const char* argv[] = {"prog", "--csv", "false", "--streaming", "app.trf"};
  CliArgs args(5, argv, /*booleanFlags=*/{"csv", "streaming"});
  EXPECT_FALSE(args.getBool("csv", true));
  EXPECT_TRUE(args.getBool("streaming"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "app.trf");
}

TEST(Cli, DeclaredBooleanFlagsDoNotSwallowOperands) {
  const char* argv[] = {"prog", "--streaming", "app.trf", "--out", "x.trr"};
  CliArgs args(5, argv, /*booleanFlags=*/{"streaming"});
  EXPECT_TRUE(args.getBool("streaming"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "app.trf");
  EXPECT_EQ(args.get("out"), "x.trr");
  // The explicit `=` form still overrides a boolean.
  const char* argv2[] = {"prog", "--streaming=false"};
  EXPECT_FALSE(CliArgs(2, argv2, {"streaming"}).getBool("streaming", true));
}

TEST(Cli, EditDistance) {
  EXPECT_EQ(editDistance("", ""), 0u);
  EXPECT_EQ(editDistance("abc", "abc"), 0u);
  EXPECT_EQ(editDistance("abc", ""), 3u);
  EXPECT_EQ(editDistance("", "xy"), 2u);
  EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(editDistance("confg", "config"), 1u);
  EXPECT_EQ(editDistance("scale", "seed"), 4u);
}

TEST(Cli, NearestCandidateBoundsTheDistance) {
  const std::vector<std::string> known = {"scale", "seed", "csv", "threads"};
  EXPECT_EQ(nearestCandidate("sclae", known), "scale");
  EXPECT_EQ(nearestCandidate("thread", known), "threads");
  EXPECT_EQ(nearestCandidate("zzzzzzzz", known), "");  // nothing plausibly close
}

TEST(Cli, UnknownFlagErrorsSuggestNearestFlag) {
  const char* argv[] = {"prog", "--sclae", "2", "--csv"};
  CliArgs args(4, argv);
  EXPECT_TRUE(args.unknownFlagErrors({"scale", "csv"}).empty() == false);
  const auto errors = args.unknownFlagErrors({"scale", "csv"});
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("--sclae"), std::string::npos);
  EXPECT_NE(errors[0].find("did you mean --scale?"), std::string::npos);
  EXPECT_TRUE(args.unknownFlagErrors({"sclae", "csv"}).empty());
}

TEST(Cli, AppGeneratesHelpAndDispatches) {
  CliApp app("tool", "does things");
  int ran = 0;
  CliCommand cmd;
  cmd.name = "frob";
  cmd.usage = "frob <x> [flags]";
  cmd.summary = "frobnicates";
  cmd.flags = {{"level", "<n>", "how hard (default 1)"}, {"dry-run", "", "no writes"}};
  cmd.run = [&](const CliArgs& args) {
    ran = static_cast<int>(args.getInt("level", 1));
    return 0;
  };
  app.add(cmd);

  EXPECT_NE(app.help().find("frob"), std::string::npos);
  EXPECT_NE(app.help().find("frobnicates"), std::string::npos);
  EXPECT_NE(app.help(cmd).find("--level <n>"), std::string::npos);
  EXPECT_NE(app.help(cmd).find("--dry-run"), std::string::npos);

  const char* ok[] = {"tool", "frob", "--level", "3"};
  EXPECT_EQ(app.main(4, ok), 0);
  EXPECT_EQ(ran, 3);

  const char* badFlag[] = {"tool", "frob", "--levle", "3"};
  EXPECT_EQ(app.main(4, badFlag), 2);
  const char* badCmd[] = {"tool", "forb"};
  EXPECT_EQ(app.main(2, badCmd), 2);
  const char* usageErr[] = {"tool", "frob", "--boom"};
  EXPECT_EQ(app.main(3, usageErr), 2);
}

TEST(Cli, AppMapsExceptionsToExitCodes) {
  CliApp app("tool", "does things");
  CliCommand usage;
  usage.name = "u";
  usage.summary = "throws UsageError";
  usage.run = [](const CliArgs&) -> int { throw UsageError("missing operand"); };
  app.add(usage);
  CliCommand runtime;
  runtime.name = "r";
  runtime.summary = "throws runtime_error";
  runtime.run = [](const CliArgs&) -> int { throw std::runtime_error("boom"); };
  app.add(runtime);

  const char* u[] = {"tool", "u"};
  EXPECT_EQ(app.main(2, u), 2);
  const char* r[] = {"tool", "r"};
  EXPECT_EQ(app.main(2, r), 1);
}

}  // namespace
}  // namespace tracered
