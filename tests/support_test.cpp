#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "support/clock.hpp"
#include "support/crc32.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/strutil.hpp"

namespace {

using namespace support;

// --- VirtualClock -----------------------------------------------------------

TEST(VirtualClock, StartsAtZero) {
  VirtualClock c;
  EXPECT_EQ(c.now(), 0u);
}

TEST(VirtualClock, AdvanceReturnsNewTime) {
  VirtualClock c;
  EXPECT_EQ(c.advance(100), 100u);
  EXPECT_EQ(c.advance(50), 150u);
  EXPECT_EQ(c.now(), 150u);
}

TEST(VirtualClock, ResetRestoresZero) {
  VirtualClock c;
  c.advance(123);
  c.reset();
  EXPECT_EQ(c.now(), 0u);
}

TEST(VirtualClock, ConcurrentAdvancesSumExactly) {
  VirtualClock c;
  constexpr int kThreads = 8;
  constexpr int kIters = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.advance(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.now(), static_cast<Nanoseconds>(kThreads) * kIters * 3);
}

TEST(CycleConverter, RoundTripsApproximately) {
  CycleConverter conv(2.75);
  // 5,850 cycles should be about 2,127 ns — the paper's §2.3.1 anchor.
  EXPECT_NEAR(static_cast<double>(conv.cycles_to_ns(5850)), 2127.0, 2.0);
  EXPECT_NEAR(static_cast<double>(conv.ns_to_cycles(2130)), 5857.0, 3.0);
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextInIsInclusive) {
  Rng r(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.next_in(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, StringHasRequestedLength) {
  Rng r(1);
  EXPECT_EQ(r.next_string(0).size(), 0u);
  EXPECT_EQ(r.next_string(12).size(), 12u);
}

// --- stats ------------------------------------------------------------------

TEST(Stats, EmptyInput) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleValue) {
  const Summary s = summarize(std::vector<double>{5.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.median, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.p99, 5.0);
}

TEST(Stats, KnownDistribution) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p90, 90.1, 0.2);
  EXPECT_NEAR(s.p99, 99.01, 0.2);
  EXPECT_NEAR(s.stddev, 28.866, 0.01);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(Stats, PercentileSortedEdges) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 2.5);
}

TEST(Stats, IntegerOverload) {
  const std::vector<std::uint64_t> v{10, 20, 30};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
}

// --- Histogram ----------------------------------------------------------------

TEST(Histogram, RejectsBadArguments) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
}

TEST(Histogram, BinsValues) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.7);
  h.add(9.99);
  h.add(10.0);  // boundary lands in last bin
  h.add(11.0);  // out of range: dropped
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(1), 2u);
  EXPECT_EQ(h.count_at(9), 2u);
  EXPECT_EQ(h.mode_bin(), 1u);
}

TEST(Histogram, FromValuesSpansData) {
  const std::vector<double> v{2.0, 4.0, 6.0, 8.0};
  const Histogram h = Histogram::from_values(v, 4);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.lo(), 2.0);
  EXPECT_DOUBLE_EQ(h.hi(), 8.0);
}

TEST(Histogram, FromValuesDegenerate) {
  const Histogram h = Histogram::from_values({3.0, 3.0}, 5);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, AsciiAndCsvRender) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string ascii = h.render_ascii(10, "us");
  EXPECT_NE(ascii.find('#'), std::string::npos);
  const std::string csv = h.to_csv();
  EXPECT_NE(csv.find("bin_lo,bin_hi,count"), std::string::npos);
  EXPECT_NE(csv.find(",2\n"), std::string::npos);
}

// --- strutil --------------------------------------------------------------------

TEST(StrUtil, Format) {
  EXPECT_EQ(format("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(format("%s", ""), "");
}

TEST(StrUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  x \n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("ecall_foo", "ecall_"));
  EXPECT_FALSE(starts_with("e", "ecall_"));
  EXPECT_TRUE(ends_with("lib.so", ".so"));
  EXPECT_FALSE(ends_with("x", ".so"));
}

TEST(StrUtil, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StrUtil, FormatDuration) {
  EXPECT_EQ(format_duration_ns(999), "999 ns");
  EXPECT_EQ(format_duration_ns(15'000), "15.0 us");
  EXPECT_EQ(format_duration_ns(45'377'000), "45.4 ms");
  EXPECT_EQ(format_duration_ns(31'000'000'000ull), "31.00 s");
}

TEST(StrUtil, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1'320'000), "1.26 MiB");
}

// --- crc32 --------------------------------------------------------------------

/// The IEEE CRC-32 one bit at a time: the definition both kernels must
/// agree with.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> crc_test_bytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  Rng rng(42);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_below(256));
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// Lengths up to 1,100 cross the 64-byte entry to the folding kernel, its
// 64-byte main loop and its 16-byte step, with every tail length after them.
constexpr std::size_t kCrcMaxLength = 1100;
constexpr std::size_t kCrcOffsets = 9;

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // crc32() folds long inputs where the CPU allows, so the table kernel is
  // checked on its own as well.
  const auto bytes = crc_test_bytes(kCrcMaxLength + kCrcOffsets);
  for (std::size_t offset = 0; offset < kCrcOffsets; ++offset) {
    for (std::size_t n = 0; n <= kCrcMaxLength; ++n) {
      const std::uint32_t expected = bitwise_crc32(bytes.data() + offset, n);
      ASSERT_EQ(crc32(bytes.data() + offset, n), expected)
          << "offset " << offset << " length " << n;
      ASSERT_EQ(detail::crc32_slicing8(bytes.data() + offset, n, 0), expected)
          << "slicing-by-8, offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32, IsIncrementalAtEverySplit) {
  // Long enough that each side of a split is sometimes folded and sometimes
  // not, and that the seed enters both kernels.
  const auto bytes = crc_test_bytes(320);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole) << split;
    EXPECT_EQ(detail::crc32_slicing8(bytes.data() + split, bytes.size() - split, head), whole)
        << split;
  }
}

// --- json::Writer ------------------------------------------------------------
//
// Every JSON golden in the repo is this writer's output, so its bytes are
// pinned here directly: escapes, integer and double formatting, and comma
// placement.

std::string json_value(std::string_view v) {
  json::Writer w;
  w.value(v);
  return w.take();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndWhitespace) {
  EXPECT_EQ(json_value("plain"), "\"plain\"");
  EXPECT_EQ(json_value(""), "\"\"");
  EXPECT_EQ(json_value("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(json_value("C:\\dir\\"), "\"C:\\\\dir\\\\\"");
  EXPECT_EQ(json_value("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
}

TEST(JsonWriter, EscapesControlBytesAsUnicode) {
  EXPECT_EQ(json_value("\x01"), "\"\\u0001\"");
  EXPECT_EQ(json_value("x\x1fy"), "\"x\\u001fy\"");
  EXPECT_EQ(json_value("\b\f"), "\"\\u0008\\u000c\"");
  EXPECT_EQ(json_value(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
}

TEST(JsonWriter, PassesDelAndUtf8Through) {
  EXPECT_EQ(json_value("\x7f"), "\"\x7f\"");
  EXPECT_EQ(json_value("caf\xc3\xa9 \xe2\x82\xac"), "\"caf\xc3\xa9 \xe2\x82\xac\"");
}

TEST(JsonWriter, EscapesKeysLikeValues) {
  json::Writer w;
  w.begin_object();
  w.kv("k\"\\\n\x01\x7f\xc3\xa9", "v\"\\\t\x1f");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"k\\\"\\\\\\n\\u0001\x7f\xc3\xa9\":\"v\\\"\\\\\\t\\u001f\"}");
}

TEST(JsonWriter, EscapeMatchesWriterBody) {
  EXPECT_EQ(json::escape(""), "");
  EXPECT_EQ(json::escape("a\"b\\c\n\x02\x7f"), "a\\\"b\\\\c\\n\\u0002\x7f");
}

TEST(JsonWriter, FormatsIntegersExactly) {
  json::Writer w;
  w.begin_array();
  w.value(std::uint64_t{0});
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::int64_t{0});
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(-1);
  w.value(42);
  w.end_array();
  EXPECT_EQ(w.str(),
            "[0,18446744073709551615,0,-9223372036854775808,9223372036854775807,-1,42]");
}

TEST(JsonWriter, FormatsDoublesDeterministically) {
  json::Writer w;
  w.begin_array();
  w.value(1e15 - 1);
  w.value(1e15);
  w.value(-(1e15 - 1));
  w.value(0.1);
  w.value(-0.5);
  w.value(0.0);
  w.value(-42.0);
  w.value(1.0 / 3.0);
  w.value(123456.789);
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.str(),
            "[999999999999999,1e+15,-999999999999999,0.1,-0.5,0,-42,0.333333333333,"
            "123456.789,null,null]");
}

TEST(JsonWriter, PlacesCommasInNestedEmptyContainers) {
  json::Writer w;
  w.begin_object();
  w.key("a").begin_object().end_object();
  w.key("b").begin_array().end_array();
  w.key("c").begin_array();
  w.begin_object().end_object();
  w.begin_array().end_array();
  w.begin_array().begin_array().end_array().end_array();
  w.null();
  w.end_array();
  w.kv("d", true);
  w.kv("e", false);
  w.key("f").null();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":{},\"b\":[],\"c\":[{},[],[[]],null],\"d\":true,\"e\":false,"
                     "\"f\":null}");
}

}  // namespace
