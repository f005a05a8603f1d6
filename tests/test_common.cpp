// Unit tests of the common utilities: statistics, ring buffer, RNG, time
// conversions, env parsing, the table printer, and checked file output.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/env.hpp"
#include "common/file.hpp"
#include "common/json.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

using namespace narma;

TEST(Stats, MeanMedianOfKnownData) {
  std::vector<double> xs{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 22.0);
  EXPECT_DOUBLE_EQ(stats::median(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::min(xs), 1.0);
  EXPECT_DOUBLE_EQ(stats::max(xs), 100.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 10.0);
}

TEST(RingBuffer, PushPopFifo) {
  RingBuffer<int> rb(4);
  for (int i = 0; i < 4; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.try_push(99));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop(), i);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAround) {
  RingBuffer<int> rb(4);
  for (int round = 0; round < 10; ++round) {
    rb.push(round);
    rb.push(round + 100);
    EXPECT_EQ(rb.pop(), round);
    EXPECT_EQ(rb.pop(), round + 100);
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, CapacityRoundsUpToPow2) {
  RingBuffer<int> rb(5);
  EXPECT_EQ(rb.capacity(), 8u);
}

TEST(RingBuffer, PeekSeesInOrder) {
  RingBuffer<int> rb(8);
  rb.push(10);
  rb.push(20);
  EXPECT_EQ(rb.peek(0), 10);
  EXPECT_EQ(rb.peek(1), 20);
  EXPECT_EQ(rb.front(), 10);
}

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BelowBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(ns(1), 1000u);
  EXPECT_EQ(us(1), 1000000u);
  EXPECT_EQ(ms(1), 1000000000u);
  EXPECT_DOUBLE_EQ(to_us(us(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(1.5)), 1.5);
  EXPECT_DOUBLE_EQ(to_ns(ns(0.5)), 0.5);
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("NARMA_TEST_INT", "42", 1);
  ::setenv("NARMA_TEST_DBL", "2.5", 1);
  ::setenv("NARMA_TEST_BOOL", "true", 1);
  ::setenv("NARMA_TEST_EMPTY", "", 1);
  EXPECT_EQ(env::get_int("NARMA_TEST_INT", 7), 42);
  EXPECT_EQ(env::get_int("NARMA_TEST_MISSING", 7), 7);
  EXPECT_EQ(env::get_int("NARMA_TEST_EMPTY", 7), 7);
  EXPECT_DOUBLE_EQ(env::get_double("NARMA_TEST_DBL", 0.0), 2.5);
  EXPECT_TRUE(env::get_bool("NARMA_TEST_BOOL", false));
  EXPECT_EQ(env::get_string("NARMA_TEST_MISSING", "d"), "d");
}

// A malformed value is fatal and names the variable: NARMA_REPS=3x must not
// silently run the default rep count.
TEST(Env, MalformedValueIsFatal) {
  ::setenv("NARMA_TEST_BAD", "xyz", 1);
  ::setenv("NARMA_TEST_JUNK", "3x", 1);
  EXPECT_DEATH(env::get_int("NARMA_TEST_BAD", 7),
               "NARMA_TEST_BAD=xyz: expected an integer");
  EXPECT_DEATH(env::get_int("NARMA_TEST_JUNK", 7),
               "NARMA_TEST_JUNK=3x: expected an integer");
  EXPECT_DEATH(env::get_double("NARMA_TEST_JUNK", 1.0),
               "NARMA_TEST_JUNK=3x: expected a number");
  EXPECT_DEATH(env::get_bool("NARMA_TEST_BAD", false),
               "NARMA_TEST_BAD=xyz: expected one of");
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "100"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(std::size_t{42}), "42");
}

TEST(Table, MismatchedRowAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row has 1 cells");
}

// --- JSON \uXXXX escapes -----------------------------------------------------

TEST(Json, BasicUnicodeEscapesDecodeToUtf8) {
  // One-, two-, and three-byte UTF-8 results from BMP code points:
  // U+0041 'A', U+00E9 'é', U+4E2D '中'.
  const auto r = json::parse(R"(["\u0041\u00e9\u4e2d"])");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value[std::size_t{0}].as_string(), "A\xc3\xa9\xe4\xb8\xad");
}

TEST(Json, SurrogatePairDecodesToFourByteUtf8) {
  // U+1F600 GRINNING FACE is 😀 in JSON and F0 9F 98 80 in UTF-8.
  const auto r = json::parse(R"(["\ud83d\ude00"])");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value[std::size_t{0}].as_string(), "\xf0\x9f\x98\x80");
  // Mixed with surrounding text and a second astral pair (U+10348).
  const auto r2 = json::parse(R"(["x\ud83d\ude00y\ud800\udf48z"])");
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.value[std::size_t{0}].as_string(),
            "x\xf0\x9f\x98\x80y\xf0\x90\x8d\x88z");
}

TEST(Json, CaseInsensitiveHexInSurrogates) {
  const auto r = json::parse(R"(["\uD83D\uDE00"])");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value[std::size_t{0}].as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, LoneSurrogatesAreParseErrors) {
  // High surrogate at end of string.
  EXPECT_FALSE(json::parse(R"(["\ud83d"])").ok);
  // High surrogate followed by plain text.
  EXPECT_FALSE(json::parse(R"(["\ud83dxy"])").ok);
  // High surrogate followed by a non-low-surrogate escape.
  EXPECT_FALSE(json::parse(R"(["\ud83d\u0041"])").ok);
  // Low surrogate with no preceding high surrogate.
  EXPECT_FALSE(json::parse(R"(["\ude00"])").ok);
  // Truncated hex digits.
  EXPECT_FALSE(json::parse(R"(["\ud83d\ude0"])").ok);
  const auto r = json::parse(R"(["\ud83d\u0041"])");
  EXPECT_NE(r.error.find("surrogate"), std::string::npos) << r.error;
}

TEST(Json, DeepNestingIsAnErrorNotACrash) {
  const auto r = json::parse(std::string(200000, '['));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nested deeper than 256 levels"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.error_pos, static_cast<std::size_t>(json::kMaxNesting));
  const auto keyed = json::parse([] {
    std::string s;
    for (int i = 0; i < 100000; ++i) s += "{\"k\":";
    return s;
  }());
  EXPECT_FALSE(keyed.ok);
  EXPECT_NE(keyed.error.find("nested deeper"), std::string::npos)
      << keyed.error;
}

TEST(Json, NestingUpToTheLimitParses) {
  const int n = json::kMaxNesting;
  const auto ok = json::parse(std::string(static_cast<std::size_t>(n), '[') +
                              std::string(static_cast<std::size_t>(n), ']'));
  EXPECT_TRUE(ok.ok) << ok.error;
  const auto over =
      json::parse(std::string(static_cast<std::size_t>(n) + 1, '[') +
                  std::string(static_cast<std::size_t>(n) + 1, ']'));
  EXPECT_FALSE(over.ok);
}

TEST(File, WriteRoundTripsAndNamesThePathOnFailure) {
  const std::string dir = testing::TempDir() + "file_test/a/b";
  ASSERT_EQ(file::make_dirs(dir), "");
  ASSERT_EQ(file::make_dirs(dir), "");  // existing is fine
  const std::string path = dir + "/x.json";
  ASSERT_EQ(file::write(path, "{}"), "");
  const json::ParseResult r = json::parse_file(path);
  ASSERT_TRUE(r.ok) << r.error;
  // fopen fails: the parent is a regular file.
  const std::string under_file = path + "/y.json";
  EXPECT_EQ(file::write(under_file, "{}").rfind(under_file + ": ", 0), 0u);
  EXPECT_EQ(file::make_dirs(under_file).rfind(under_file + ": ", 0), 0u);
  EXPECT_EQ(file::make_dirs(path).rfind(path + ": ", 0), 0u);
}

TEST(File, WriteReportsAFailedFlush) {
  // /dev/full accepts the open and the buffered write; only the final
  // flush in fclose fails (ENOSPC), which write() must not drop.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string err = file::write("/dev/full", "{}");
  EXPECT_EQ(err.rfind("/dev/full: ", 0), 0u) << err;
}
