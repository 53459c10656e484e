#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <string_view>

#include "util/byte_codec.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace alem {
namespace {

// ---- Rng ----

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliRateApproximatelyCorrect) {
  Rng rng(5);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(13);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullPermutation) {
  Rng rng(13);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleWithReplacementBounds) {
  Rng rng(17);
  const std::vector<size_t> sample = rng.SampleWithReplacement(5, 200);
  EXPECT_EQ(sample.size(), 200u);
  for (const size_t v : sample) EXPECT_LT(v, 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // Child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SaveRestoreContinuesTheStream) {
  Rng saved(5);
  saved.NextGaussian();  // Leaves the second Box-Muller value cached.
  const std::string state = saved.SaveState();
  EXPECT_EQ(state.size(), 41u);  // Four words, the cache flag, the double.
  Rng restored(0);
  ASSERT_TRUE(restored.RestoreState(state));
  EXPECT_EQ(restored.NextGaussian(), saved.NextGaussian());
  EXPECT_EQ(restored.NextGaussian(), saved.NextGaussian());
  EXPECT_EQ(restored.Next(), saved.Next());

  // Truncated, padded, or a cache flag other than 0/1: rejected, and the
  // generator is unchanged.
  std::string bad_flag = state;
  bad_flag[32] = 2;
  for (const std::string& bad :
       {state.substr(0, 40), state + "x", bad_flag, std::string()}) {
    Rng target(9);
    EXPECT_FALSE(target.RestoreState(bad));
    EXPECT_EQ(target.Next(), Rng(9).Next());
  }
}

// ---- Byte codec ----

// Pinned values: the offset basis is not the published one (see
// util/byte_codec.h), so these differ from FNV-1a's reference vectors.
TEST(ByteCodecTest, Fnv1aValuesArePinned) {
  EXPECT_EQ(Fnv1a("", 0), kFnv1aOffsetBasis);
  EXPECT_EQ(Fnv1a("a", 1), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(Fnv1a("foobar", 6), 0x88fad7c0a8ff07f2ULL);
  // Continuing a hash hashes the concatenation.
  EXPECT_EQ(Fnv1a("bar", 3, Fnv1a("foo", 3)), Fnv1a("foobar", 6));
}

TEST(ByteCodecTest, FieldsRoundTripBitwise) {
  ByteWriter w;
  w.U8(7);
  w.U32(0xdeadbeef);
  w.U64(~uint64_t{0});
  w.I64(-3);
  w.F64(-0.0);
  w.Str("name with spaces\n");
  w.Bytes("xy");
  const std::string bytes = w.Take();
  EXPECT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 8 + (8 + 17) + 2);

  ByteReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 1.0;
  std::string str;
  std::string_view raw;
  ASSERT_TRUE(r.U8(&u8) && r.U32(&u32) && r.U64(&u64) && r.I64(&i64) &&
              r.F64(&f64) && r.Str(&str) && r.Bytes(2, &raw));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, ~uint64_t{0});
  EXPECT_EQ(i64, -3);
  EXPECT_TRUE(std::signbit(f64) && f64 == 0.0);
  EXPECT_EQ(str, "name with spaces\n");
  EXPECT_EQ(raw, "xy");
}

TEST(ByteCodecTest, ReaderRejectsTruncationAndOversizedLengths) {
  ByteWriter w;
  w.U64(3);
  w.Bytes("abc");
  const std::string bytes = w.Take();

  uint64_t u64 = 0;
  EXPECT_FALSE(ByteReader(bytes.substr(0, 7)).U64(&u64));
  std::string str;
  EXPECT_TRUE(ByteReader(bytes).Str(&str));
  EXPECT_FALSE(ByteReader(bytes.substr(0, 10)).Str(&str));
  // A length or count past the bytes left fails before anything is sized
  // from it, up to the largest u64.
  for (const uint64_t huge : {uint64_t{4}, ~uint64_t{0}}) {
    ByteWriter h;
    h.U64(huge);
    h.Bytes("abc");
    const std::string blob = h.Take();
    EXPECT_FALSE(ByteReader(blob).Str(&str)) << huge;
    uint64_t count = 0;
    EXPECT_FALSE(ByteReader(blob).Count(&count, 1)) << huge;
  }
  // Three one-byte items fit; three two-byte items do not.
  uint64_t count = 0;
  EXPECT_TRUE(ByteReader(bytes).Count(&count, 1));
  EXPECT_EQ(count, 3u);
  EXPECT_FALSE(ByteReader(bytes).Count(&count, 2));
}

// ---- RunningStats ----

TEST(RunningStatsTest, MeanAndStddev) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_EQ(stats.count(), 8u);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

// ---- string_util ----

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC-12 Z"), "abc-12 z");
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  ab c \t\n"), "ab c");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

// ---- CSV ----

TEST(CsvTest, ParsesSimpleRows) {
  const auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvTest, HandlesQuotedFields) {
  const auto rows = ParseCsv("\"a,b\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "he said \"hi\"");
  EXPECT_EQ(rows[0][2], "line\nbreak");
}

TEST(CsvTest, HandlesCrLf) {
  const auto rows = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(CsvTest, LastRowWithoutNewline) {
  const auto rows = ParseCsv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], "c");
}

TEST(CsvTest, EmptyInput) { EXPECT_TRUE(ParseCsv("").empty()); }

TEST(CsvTest, WriteReadRoundTrip) {
  const std::vector<std::vector<std::string>> rows = {
      {"name", "desc"},
      {"widget, deluxe", "says \"best\"\nreally"},
      {"", "trailing"},
  };
  const auto parsed = ParseCsv(WriteCsv(rows));
  EXPECT_EQ(parsed, rows);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/alem_csv_test.csv";
  const std::vector<std::vector<std::string>> rows = {{"a", "b"}, {"1", "2"}};
  ASSERT_TRUE(WriteCsvFile(path, rows));
  std::vector<std::vector<std::string>> read_back;
  ASSERT_TRUE(ReadCsvFile(path, &read_back));
  EXPECT_EQ(read_back, rows);
}

TEST(CsvTest, ReadMissingFileFails) {
  std::vector<std::vector<std::string>> rows;
  EXPECT_FALSE(ReadCsvFile("/nonexistent/path/file.csv", &rows));
}

}  // namespace
}  // namespace alem
