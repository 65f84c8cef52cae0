#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/small_vec.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hp::util {
namespace {

TEST(Hash, SplitmixIsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
  // Avalanche smoke test: flipping one input bit flips many output bits.
  const std::uint64_t a = splitmix64(0x1234);
  const std::uint64_t b = splitmix64(0x1235);
  EXPECT_GE(__builtin_popcountll(a ^ b), 16);
}

TEST(Hash, CombineDependsOnBothArgsAndOrder) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(1, 2), hash_combine(1, 3));
  EXPECT_EQ(hash_combine(7, 9), hash_combine(7, 9));
}

TEST(SmallVec, InlineUse) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 2);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 3);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, SpillsToHeapBeyondInlineCapacity) {
  SmallVec<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(Table, RendersAlignedRows) {
  Table t({"a", "long_header", "c"});
  t.add_row({std::int64_t{1}, 2.5, "x"});
  t.add_row({std::int64_t{100}, 3.25, "yy"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
  EXPECT_NE(out.find("yy"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRoundTrip) {
  Table t({"n", "rate"});
  t.add_row({std::int64_t{8}, 1.5});
  t.add_row({std::uint64_t{16}, 2.0});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "n,rate\n8,1.500\n16,2.000\n");
}

TEST(Table, CsvFile) {
  Table t({"x"});
  t.add_row({std::int64_t{7}});
  const std::string path = ::testing::TempDir() + "/hp_table_test.csv";
  t.write_csv_file(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x");
  std::getline(f, line);
  EXPECT_EQ(line, "7");
  std::remove(path.c_str());
}

TEST(Cli, ParsesTypedFlags) {
  const char* argv[] = {"prog", "--n=16", "--rate=2.5", "--verbose",
                        "--name=abc"};
  Cli cli(5, const_cast<char**>(argv),
          {{"n", ""}, {"rate", ""}, {"verbose", ""}, {"name", ""}});
  EXPECT_EQ(cli.get_int("n", 0), 16);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get("name", ""), "abc");
  EXPECT_TRUE(cli.has("n"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
}

TEST(Cli, BoolishValues) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=no", "--d=1"};
  Cli cli(5, const_cast<char**>(argv), {{"a", ""}, {"b", ""}, {"c", ""}, {"d", ""}});
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_FALSE(cli.get_bool("c", true));
  EXPECT_TRUE(cli.get_bool("d", false));
}

TEST(SpecValues, IntegersAreStrictAndRangeChecked) {
  std::uint64_t u64 = 7;
  EXPECT_TRUE(parse_u64("18446744073709551615", u64));
  EXPECT_EQ(u64, 18446744073709551615ull);
  std::uint32_t u32 = 7;
  EXPECT_TRUE(parse_u32("4294967295", u32));
  EXPECT_EQ(u32, 4294967295u);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "abc"}) {
    EXPECT_FALSE(parse_u64(bad, u64)) << bad;
    EXPECT_FALSE(parse_u32(bad, u32)) << bad;
  }
  // Out of range is rejected, never wrapped, and leaves the output alone.
  EXPECT_FALSE(parse_u64("18446744073709551616", u64));
  EXPECT_FALSE(parse_u32("4294967296", u32));
  EXPECT_EQ(u64, 18446744073709551615ull);
  EXPECT_EQ(u32, 4294967295u);
}

TEST(SpecValues, DoublesAndTrim) {
  double d = 0.0;
  EXPECT_TRUE(parse_double("2.5", d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(parse_double("", d));
  EXPECT_FALSE(parse_double("2.5x", d));
  // Non-finite values and magnitudes strtod can only saturate are rejected.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                          "1e999", "-1e999"}) {
    EXPECT_FALSE(parse_double(bad, d)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(trim(" \tk=v \t"), "k=v");
  EXPECT_EQ(trim("   "), "");
}

TEST(HistogramMerge, EmptySideIsNoOpAndAdoptsShape) {
  Histogram a(0.0, 1.0, 4);
  a.add(0.5);
  a.add(2.5);
  const Histogram before = a;
  a.merge(Histogram{});  // merging in a default-constructed histogram: no-op
  EXPECT_EQ(a, before);

  Histogram empty;
  empty.merge(a);  // empty side adopts the other's layout and counts
  EXPECT_EQ(empty, a);
  EXPECT_EQ(empty.counts().size(), 4u);
  EXPECT_EQ(empty.lo(), 0.0);
  EXPECT_EQ(empty.bin_width(), 1.0);
}

TEST(HistogramMerge, MatchingLayoutsAddBinwise) {
  Histogram a(0.0, 2.0, 3);
  Histogram b(0.0, 2.0, 3);
  a.add(1.0);   // bin 0
  a.add(3.0);   // bin 1
  b.add(3.5);   // bin 1
  b.add(99.0);  // overflow bin
  a.merge(b);
  EXPECT_EQ(a.counts()[0], 1u);
  EXPECT_EQ(a.counts()[1], 2u);
  EXPECT_EQ(a.counts()[2], 1u);
}

TEST(HistogramMergeDeath, MismatchedBinConfigAborts) {
  // Positional bins: adding counts across different (lo, width, size)
  // layouts would silently scramble the distribution, so merge aborts.
  Histogram bins3(0.0, 1.0, 3);
  bins3.add(0.5);
  Histogram bins5(0.0, 1.0, 5);
  bins5.add(0.5);
  EXPECT_DEATH(bins3.merge(bins5), "bin-config mismatch");

  Histogram width2(0.0, 2.0, 3);
  width2.add(0.5);
  EXPECT_DEATH(bins3.merge(width2), "bin-config mismatch");

  Histogram lo1(1.0, 1.0, 3);
  lo1.add(1.5);
  EXPECT_DEATH(bins3.merge(lo1), "bin-config mismatch");
}

TEST(CliDeath, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(
      { Cli cli(2, const_cast<char**>(argv), {{"n", ""}}); },
      ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(CliDeath, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(
      { Cli cli(2, const_cast<char**>(argv), {{"n", ""}}); },
      ::testing::ExitedWithCode(2), "positional");
}

}  // namespace
}  // namespace hp::util
