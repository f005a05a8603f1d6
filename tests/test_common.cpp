// Unit tests of the common utilities: statistics, ring buffer, RNG, time
// conversions, env parsing, the table printer, checked file output, and
// page commits.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/file.hpp"
#include "common/json.hpp"
#include "common/pages.hpp"
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

// A value outside the caller's range is fatal and names the range: strtoll
// saturates 99999999999999999999, which an int cast would then wrap, and
// NaN would pass a plain `> 0` test.
TEST(Env, OutOfRangeValueIsFatal) {
  ::setenv("NARMA_TEST_HUGE", "99999999999999999999", 1);
  ::setenv("NARMA_TEST_ZERO", "0", 1);
  ::setenv("NARMA_TEST_NAN", "nan", 1);
  EXPECT_DEATH(env::get_int("NARMA_TEST_HUGE", 7),
               "NARMA_TEST_HUGE=99999999999999999999: expected an integer in");
  EXPECT_DEATH(env::get_int("NARMA_TEST_ZERO", 7, 1),
               "NARMA_TEST_ZERO=0: expected an integer in \\[1, 2147483647\\]");
  EXPECT_DEATH(env::get_double("NARMA_TEST_NAN", 1.0),
               "NARMA_TEST_NAN=nan: expected a finite number");
  EXPECT_DEATH(env::get_double("NARMA_TEST_ZERO", 1.0, 0.0, 10.0),
               "NARMA_TEST_ZERO=0: expected a finite number in \\(0, 10\\]");
  EXPECT_EQ(env::get_int("NARMA_TEST_ZERO", 7, 0, 0), 0);
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

TEST(Pages, CommitMapsOnlyTheWholePagesInside) {
  const std::size_t page = page_size();
  void* map = mmap(nullptr, 8 * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  char* base = static_cast<char*>(map);
  const bool committed = commit_pages(base + 100, base + 5 * page + 10);
  unsigned char resident[8] = {};
  const int rc = mincore(base, 8 * page, resident);
  munmap(map, 8 * page);
  if (!committed) GTEST_SKIP() << "kernel refuses MADV_POPULATE_WRITE";
  ASSERT_EQ(rc, 0);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(resident[i] & 1, i >= 1 && i <= 4 ? 1 : 0) << "page " << i;
}

namespace {

/// Whether the kernel maps pages in on MADV_POPULATE_WRITE.
bool can_commit() {
  const std::size_t page = page_size();
  void* map = mmap(nullptr, page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) return false;
  char* base = static_cast<char*>(map);
  const bool ok = commit_pages(base, base + page);
  munmap(map, page);
  return ok;
}

/// mincore bits of the region, one per page.
std::vector<int> resident_pages(const PageRegion& r) {
  std::vector<unsigned char> vec(r.size() / page_size());
  EXPECT_EQ(mincore(r.data(), r.size(), vec.data()), 0);
  std::vector<int> bits;
  for (const unsigned char v : vec) bits.push_back(v & 1);
  return bits;
}

/// One mapping of /proc/self/smaps that overlaps [lo, hi).
struct Vma {
  std::uintptr_t lo = 0, hi = 0;
  long anon_huge_kb = 0;
  std::string flags;
};

std::vector<Vma> vmas_within(const void* begin, std::size_t bytes) {
  const auto lo = reinterpret_cast<std::uintptr_t>(begin);
  const std::uintptr_t hi = lo + bytes;
  std::ifstream in("/proc/self/smaps");
  std::vector<Vma> all;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    const std::size_t dash = key.find('-');
    if (dash != std::string::npos && key.back() != ':') {
      Vma v;
      v.lo = std::stoull(key.substr(0, dash), nullptr, 16);
      v.hi = std::stoull(key.substr(dash + 1), nullptr, 16);
      all.push_back(v);
    } else if (!all.empty() && key == "AnonHugePages:") {
      ls >> all.back().anon_huge_kb;
    } else if (!all.empty() && key == "VmFlags:") {
      // " rd wr ... hg ": each flag between spaces.
      std::string& flags = all.back().flags;
      for (std::string flag; ls >> flag;) flags.append(" ").append(flag);
      flags.append(" ");
    }
  }
  std::vector<Vma> out;
  for (const Vma& v : all)
    if (v.lo < hi && v.hi > lo) out.push_back(v);
  return out;
}

/// The selected value of a transparent_hugepage setting, "" if absent.
std::string thp_setting(const char* name) {
  std::ifstream in(std::string("/sys/kernel/mm/transparent_hugepage/") +
                   name);
  std::string all;
  std::getline(in, all);
  const std::size_t open = all.find('['), close = all.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return all.substr(open + 1, close - open - 1);
}

}  // namespace

TEST(Pages, RegionCommitsOnlyTheDenseRange) {
  if (!can_commit()) GTEST_SKIP() << "kernel refuses MADV_POPULATE_WRITE";
  // Two whole huge pages and 1 MiB of a third are dense; the third huge
  // page lies wholly inside the region, so hinting past the dense range
  // would map the rest of it.
  const std::size_t dense = 5 * (kHugePageBytes / 2);
  const PageRegion r(4 * kHugePageBytes, dense);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.data()) % kHugePageBytes, 0u);
  EXPECT_EQ(r.size(), 4 * kHugePageBytes);
  EXPECT_TRUE(r.huge_bytes() == 0 || r.huge_bytes() == 2 * kHugePageBytes)
      << r.huge_bytes();
  const std::vector<int> bits = resident_pages(r);
  const std::size_t dense_pages = dense / page_size();
  for (std::size_t i = 0; i < bits.size(); ++i)
    ASSERT_EQ(bits[i], i < dense_pages ? 1 : 0) << "page " << i;
  const auto* bytes = static_cast<const unsigned char*>(r.data());
  EXPECT_EQ(bytes[0], 0);
  EXPECT_EQ(bytes[dense - 1], 0);
}

TEST(Pages, RegionBelowAHugePageGetsNoHint) {
  const std::size_t sizes[][2] = {
      {kHugePageBytes / 2, kHugePageBytes / 2},    // all dense, small
      {4 * kHugePageBytes, kHugePageBytes - 4096},  // big, dense part small
  };
  for (const auto& [bytes, dense] : sizes) {
    const PageRegion r(bytes, dense);
    EXPECT_EQ(r.huge_bytes(), 0u) << bytes << " / " << dense;
    for (const Vma& v : vmas_within(r.data(), r.size()))
      EXPECT_EQ(v.flags.find(" hg "), std::string::npos)
          << bytes << " / " << dense << ": " << v.flags;
  }
}

// Reads the THP settings and /proc/self/smaps only; never writes them.
TEST(Pages, RegionDenseRangeOnHugePages) {
  const std::string enabled = thp_setting("enabled");
  if (enabled != "always" && enabled != "madvise")
    GTEST_SKIP() << "transparent huge pages are "
                 << (enabled.empty() ? "absent" : enabled);
  const PageRegion r(4 * kHugePageBytes, 3 * kHugePageBytes);
  ASSERT_EQ(r.huge_bytes(), 3 * kHugePageBytes);
  long anon_huge_kb = 0;
  for (const Vma& v : vmas_within(r.data(), r.size())) {
    anon_huge_kb += v.anon_huge_kb;
    // Only the dense huge pages are hinted; the rest is excluded.
    const bool in_dense =
        v.hi <= reinterpret_cast<std::uintptr_t>(r.data()) + r.huge_bytes();
    EXPECT_NE(v.flags.find(in_dense ? " hg " : " nh "), std::string::npos)
        << v.flags;
  }
  EXPECT_GT(anon_huge_kb, 0);
}
