// Persistent feature-matrix cache: store/load round trips, corruption
// robustness (a bad file is a miss, never a crash), key invalidation, and
// the end-to-end PrepareDataset contract — a warm run must be bitwise
// identical to a cold one, at any thread count.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/harness.h"
#include "features/feature_cache.h"
#include "features/feature_matrix.h"
#include "features/feature_schema.h"
#include "parallel/pool.h"
#include "sim/similarity.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

namespace fs = std::filesystem;

std::string MakeTempCacheDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("alem_cache_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

FeatureMatrix PatternMatrix(size_t rows, size_t dims) {
  FeatureMatrix matrix(rows, dims);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t d = 0; d < dims; ++d) {
      matrix.Set(r, d,
                 0.123f * static_cast<float>(r + 1) /
                     static_cast<float>(d + 2));
    }
  }
  return matrix;
}

FeatureCacheKey TestKey() {
  FeatureCacheKey key;
  key.dataset_name = "Abt-Buy";
  key.profile_fingerprint = 0x1111;
  key.data_seed = 7;
  key.scale = 0.5;
  key.sim_fingerprint = 0x2222;
  key.num_dims = 6;
  return key;
}

void ExpectBitwiseEqual(const FeatureMatrix& a, const FeatureMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dims(), b.dims());
  for (size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.Row(r), b.Row(r), a.dims() * sizeof(float)), 0)
        << "row " << r;
  }
}

TEST(FeatureCacheTest, StoreLoadRoundTripIsBitwise) {
  const FeatureCache cache(MakeTempCacheDir("roundtrip"));
  ASSERT_TRUE(cache.enabled());
  const FeatureCacheKey key = TestKey();
  const FeatureMatrix matrix = PatternMatrix(17, key.num_dims);

  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));  // Cold: nothing stored yet.
  ASSERT_TRUE(cache.Store(key, matrix));
  ASSERT_TRUE(cache.Load(key, &loaded));
  ExpectBitwiseEqual(matrix, loaded);
}

TEST(FeatureCacheTest, DisabledCacheMissesAndStoresNothing) {
  const FeatureCache cache("");
  EXPECT_FALSE(cache.enabled());
  const FeatureMatrix matrix = PatternMatrix(3, TestKey().num_dims);
  EXPECT_FALSE(cache.Store(TestKey(), matrix));
  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(TestKey(), &loaded));
}

TEST(FeatureCacheTest, TruncatedEntryIsAMissAndRecoverable) {
  const std::string dir = MakeTempCacheDir("truncated");
  const FeatureCache cache(dir);
  const FeatureCacheKey key = TestKey();
  const FeatureMatrix matrix = PatternMatrix(17, key.num_dims);
  ASSERT_TRUE(cache.Store(key, matrix));

  const fs::path path = fs::path(dir) / key.FileName();
  ASSERT_TRUE(fs::exists(path));
  fs::resize_file(path, fs::file_size(path) / 2);

  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));  // Miss, not a crash.

  // The recompute-and-overwrite path restores a readable entry.
  ASSERT_TRUE(cache.Store(key, matrix));
  ASSERT_TRUE(cache.Load(key, &loaded));
  ExpectBitwiseEqual(matrix, loaded);
}

TEST(FeatureCacheTest, CorruptPayloadIsAMiss) {
  const std::string dir = MakeTempCacheDir("corrupt");
  const FeatureCache cache(dir);
  const FeatureCacheKey key = TestKey();
  ASSERT_TRUE(cache.Store(key, PatternMatrix(17, key.num_dims)));

  const fs::path path = fs::path(dir) / key.FileName();
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(fs::file_size(path)) - 3);
  file.put('\x7f');
  file.close();

  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));
}

TEST(FeatureCacheTest, EveryKeyComponentAddressesADistinctEntry) {
  const FeatureCacheKey base = TestKey();

  FeatureCacheKey profile_changed = base;
  profile_changed.profile_fingerprint ^= 1;
  FeatureCacheKey seed_changed = base;
  seed_changed.data_seed += 1;
  FeatureCacheKey scale_changed = base;
  scale_changed.scale += 0.1;
  FeatureCacheKey sim_changed = base;  // A kSimRegistryVersion bump.
  sim_changed.sim_fingerprint ^= 1;
  FeatureCacheKey dims_changed = base;
  dims_changed.num_dims += kNumSimilarityFunctions;

  for (const FeatureCacheKey& changed :
       {profile_changed, seed_changed, scale_changed, sim_changed,
        dims_changed}) {
    EXPECT_NE(changed.FileName(), base.FileName());
  }

  // A stored entry is invisible under the bumped similarity-registry key:
  // stale matrices are simply never found.
  const FeatureCache cache(MakeTempCacheDir("invalidate"));
  ASSERT_TRUE(cache.Store(base, PatternMatrix(9, base.num_dims)));
  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(sim_changed, &loaded));
  EXPECT_TRUE(cache.Load(base, &loaded));
}

// The shared FNV-1a (util/byte_codec.h) keeps every fingerprint and cache
// key of the code before it, so existing .fmat entries stay hits. These are
// the values the private copies computed.
TEST(FeatureCacheTest, FingerprintsAndKeysArePinned) {
  EXPECT_EQ(SimRegistryFingerprint(), 0xe240887363786fbbULL);
  EXPECT_EQ(ProfileFingerprint(AbtBuyProfile()), 0x9b7b84602a94680aULL);
  EXPECT_EQ(ProfileFingerprint(CoraProfile()), 0xf01bcc613e265efaULL);
  EXPECT_EQ(ProfileFingerprint(DblpScholarProfile()), 0x2a7c029bb59803f2ULL);

  // PrepareDataset's key for Abt-Buy at scale 0.25 with data seed 7.
  const EmDataset dataset = GenerateDataset(AbtBuyProfile(), 7, 0.25);
  FeatureCacheKey key;
  key.dataset_name = "Abt-Buy";
  key.profile_fingerprint = ProfileFingerprint(AbtBuyProfile());
  key.data_seed = 7;
  key.scale = 0.25;
  key.sim_fingerprint = SimRegistryFingerprint();
  key.num_dims = FeatureSchema::FromDataset(dataset).num_dims();
  EXPECT_EQ(key.FileName(), "Abt_Buy-ce7860a3aa915448.fmat");
}

// ---- PrepareDataset integration ----

PrepareOptions SmallAbtBuy(const std::string& cache_dir) {
  PrepareOptions options;
  options.profile = AbtBuyProfile();
  options.data_seed = 11;
  options.scale = 0.2;
  options.cache_dir = cache_dir;
  return options;
}

std::vector<double> CurveF1(const PreparedDataset& data) {
  ApproachSpec spec;
  EXPECT_TRUE(ApproachFromName("linear-margin", &spec));
  RunConfig config;
  config.approach = spec;
  config.max_labels = 60;
  config.run_seed = 1;
  const RunResult result = RunActiveLearning(data, config);
  std::vector<double> f1;
  f1.reserve(result.curve.size());
  for (const IterationStats& stats : result.curve) {
    f1.push_back(stats.metrics.f1);
  }
  return f1;
}

TEST(FeatureCachePrepareTest, ColdAndWarmRunsAreBitwiseIdentical) {
  const std::string dir = MakeTempCacheDir("prepare");
  const PrepareOptions options = SmallAbtBuy(dir);

  const PreparedDataset cold = PrepareDataset(options);
  EXPECT_EQ(cold.feature_cache, "miss");
  const PreparedDataset warm = PrepareDataset(options);
  EXPECT_EQ(warm.feature_cache, "hit");

  ExpectBitwiseEqual(cold.float_features, warm.float_features);
  ExpectBitwiseEqual(cold.boolean_features, warm.boolean_features);
  EXPECT_EQ(cold.feature_names, warm.feature_names);

  // The whole learning curve — not just the features — must match.
  const std::vector<double> cold_f1 = CurveF1(cold);
  const std::vector<double> warm_f1 = CurveF1(warm);
  ASSERT_EQ(cold_f1.size(), warm_f1.size());
  for (size_t i = 0; i < cold_f1.size(); ++i) {
    EXPECT_EQ(cold_f1[i], warm_f1[i]) << "iteration " << i;
  }
}

TEST(FeatureCachePrepareTest, WarmHitAtFourThreadsMatchesSerialCold) {
  const int previous_threads = parallel::NumThreads();
  const std::string dir = MakeTempCacheDir("prepare_threads");

  PrepareOptions cold_options = SmallAbtBuy(dir);
  cold_options.threads = 1;
  const PreparedDataset cold = PrepareDataset(cold_options);
  EXPECT_EQ(cold.feature_cache, "miss");

  PrepareOptions warm_options = SmallAbtBuy(dir);
  warm_options.threads = 4;
  const PreparedDataset warm = PrepareDataset(warm_options);
  EXPECT_EQ(warm.feature_cache, "hit");
  ExpectBitwiseEqual(cold.float_features, warm.float_features);

  // And a 4-thread recompute (cache off) matches the serial cold matrix:
  // batch extraction is thread-count independent.
  PrepareOptions nocache_options = SmallAbtBuy("");
  nocache_options.use_cache = false;
  nocache_options.threads = 4;
  const PreparedDataset recomputed = PrepareDataset(nocache_options);
  EXPECT_EQ(recomputed.feature_cache, "off");
  ExpectBitwiseEqual(cold.float_features, recomputed.float_features);

  parallel::SetNumThreads(previous_threads);
}

TEST(FeatureCachePrepareTest, UseCacheFalseBypassesTheDirectory) {
  const std::string dir = MakeTempCacheDir("bypass");
  PrepareOptions options = SmallAbtBuy(dir);
  options.use_cache = false;
  const PreparedDataset data = PrepareDataset(options);
  EXPECT_EQ(data.feature_cache, "off");
  EXPECT_TRUE(fs::is_empty(dir));  // No entry was written.
}

}  // namespace
}  // namespace alem
