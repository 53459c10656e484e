#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/oracle.h"
#include "util/byte_codec.h"

namespace alem {
namespace {

std::vector<int> MakeTruth(size_t n) {
  std::vector<int> truth(n);
  for (size_t i = 0; i < n; ++i) truth[i] = i % 3 == 0 ? 1 : 0;
  return truth;
}

TEST(PerfectOracleTest, ReturnsGroundTruth) {
  const std::vector<int> truth = MakeTruth(30);
  PerfectOracle oracle(truth);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(oracle.Label(i), truth[i]);
  }
  EXPECT_EQ(oracle.queries(), truth.size());
}

TEST(NoisyOracleTest, ZeroNoiseEqualsPerfect) {
  const std::vector<int> truth = MakeTruth(50);
  NoisyOracle oracle(truth, 0.0, 1);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(oracle.Label(i), truth[i]);
  }
}

TEST(NoisyOracleTest, FlipRateApproximatelyMatchesNoise) {
  const size_t n = 20000;
  const std::vector<int> truth = MakeTruth(n);
  NoisyOracle oracle(truth, 0.3, 42);
  size_t flips = 0;
  for (size_t i = 0; i < n; ++i) {
    if (oracle.Label(i) != truth[i]) ++flips;
  }
  const double rate = static_cast<double>(flips) / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(NoisyOracleTest, RepeatedQueriesAreConsistent) {
  const std::vector<int> truth = MakeTruth(200);
  NoisyOracle oracle(truth, 0.4, 7);
  std::vector<int> first(200);
  for (size_t i = 0; i < 200; ++i) first[i] = oracle.Label(i);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(oracle.Label(i), first[i]) << "row " << i;
  }
}

TEST(NoisyOracleTest, DeterministicPerSeedAndQueryOrder) {
  const std::vector<int> truth = MakeTruth(100);
  NoisyOracle a(truth, 0.25, 99);
  NoisyOracle b(truth, 0.25, 99);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Label(i), b.Label(i));
  }
}

TEST(NoisyOracleTest, FullNoiseInvertsEverything) {
  const std::vector<int> truth = MakeTruth(50);
  NoisyOracle oracle(truth, 1.0, 3);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(oracle.Label(i), 1 - truth[i]);
  }
}

TEST(OracleTest, QueryCounting) {
  const std::vector<int> truth = MakeTruth(10);
  NoisyOracle oracle(truth, 0.1, 5);
  EXPECT_EQ(oracle.queries(), 0u);
  oracle.Label(0);
  oracle.Label(0);
  oracle.Label(1);
  EXPECT_EQ(oracle.queries(), 3u);
}

// ---- Saved state (the session snapshot's "ORCL" section) ----

TEST(NoisyOracleTest, RestoredStateHandsOutTheSameLabels) {
  const std::vector<int> truth = MakeTruth(40);
  for (const bool majority : {false, true}) {
    SCOPED_TRACE(majority ? "majority vote" : "noisy");
    const auto make = [&]() -> std::unique_ptr<Oracle> {
      if (majority) {
        return std::make_unique<MajorityVoteOracle>(truth, 0.3, 3, 8);
      }
      return std::make_unique<NoisyOracle>(truth, 0.3, 8);
    };
    std::unique_ptr<Oracle> first = make();
    for (const size_t row : {5, 1, 5, 30}) first->Label(row);
    std::unique_ptr<Oracle> second = make();
    ASSERT_TRUE(second->RestoreState(first->SaveState()));
    EXPECT_EQ(second->queries(), 4u);
    for (size_t row = 0; row < truth.size(); ++row) {
      EXPECT_EQ(second->Label(row), first->Label(row)) << row;
    }
  }
}

// The noisy oracles' layout: u64 queries, the RNG state as a u64 length
// and its bytes, a u64 entry count, then (u64 row, u8 label) per entry in
// ascending row order.
std::string NoisyState(uint64_t entries,
                       const std::vector<std::pair<uint64_t, uint8_t>>& rows,
                       const std::string& rng_state) {
  ByteWriter w;
  w.U64(2);
  w.Str(rng_state);
  w.U64(entries);
  for (const auto& [row, label] : rows) {
    w.U64(row);
    w.U8(label);
  }
  return w.Take();
}

TEST(NoisyOracleTest, RestoreRejectsMalformedState) {
  const std::vector<int> truth = MakeTruth(10);
  const std::string rng = Rng(3).SaveState();
  NoisyOracle oracle(truth, 0.2, 3);
  ASSERT_TRUE(oracle.RestoreState(NoisyState(2, {{1, 0}, {9, 1}}, rng)));
  EXPECT_EQ(oracle.queries(), 2u);

  const std::string valid = NoisyState(1, {{4, 1}}, rng);
  const struct {
    const char* name;
    std::string state;
  } rejected[] = {
      {"row past the pool", NoisyState(1, {{10, 1}}, rng)},
      {"label 2", NoisyState(1, {{4, 2}}, rng)},
      {"rows out of order", NoisyState(2, {{5, 0}, {4, 1}}, rng)},
      {"repeated row", NoisyState(2, {{4, 0}, {4, 0}}, rng)},
      {"count past the bytes", NoisyState(~uint64_t{0}, {{4, 1}}, rng)},
      {"truncated", valid.substr(0, valid.size() - 1)},
      {"trailing byte", valid + "x"},
      {"bad RNG state", NoisyState(1, {{4, 1}}, rng.substr(1))},
      {"a perfect oracle's state", PerfectOracle(truth).SaveState()},
  };
  for (const auto& row : rejected) {
    NoisyOracle target(truth, 0.2, 3);
    EXPECT_FALSE(target.RestoreState(row.state)) << row.name;
    EXPECT_EQ(target.queries(), 0u) << row.name;
  }
  // And a perfect oracle takes no noisy state.
  PerfectOracle perfect(truth);
  EXPECT_FALSE(perfect.RestoreState(valid));
}

}  // namespace
}  // namespace alem
