// Micro-benchmarks: featurization engine throughput (google-benchmark).
//
// Compares the three ways a prepared dataset's float feature matrix can be
// obtained — the legacy per-pair extraction loop, batched per-dimension
// kernel sweeps (SimilarityFunction::EvaluateBatch at 1 and 4 threads), and
// a warm feature-cache load — plus the serialize/deserialize halves of the
// cache format in isolation. The workload is the acceptance-criteria one:
// Abt-Buy at scale 0.3. Numbers live in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/harness.h"
#include "features/feature_cache.h"
#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "parallel/pool.h"
#include "synth/profiles.h"

namespace alem {
namespace {

// Shared prepared dataset (cache off: this binary measures featurization
// itself, so PrepareDataset must always recompute).
const PreparedDataset& Data() {
  static const auto& data = *new PreparedDataset([] {
    PrepareOptions options;
    options.profile = AbtBuyProfile();
    options.data_seed = 7;
    options.scale = 0.3;
    options.use_cache = false;
    return PrepareDataset(options);
  }());
  return data;
}

const FeatureExtractor& Extractor() {
  static const auto& extractor = *new FeatureExtractor(Data().dataset);
  return extractor;
}

// The legacy extraction plan: one full feature vector at a time, paying the
// per-function setup (scratch allocation, registry walk) for every pair.
void BM_ExtractPerPair(benchmark::State& state) {
  const auto& extractor = Extractor();
  const auto& pairs = Data().pairs;
  FeatureMatrix out(pairs.size(), extractor.num_dims());
  for (auto _ : state) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      extractor.ExtractPair(pairs[i], out.MutableRow(i));
    }
    benchmark::DoNotOptimize(out.At(0, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_ExtractPerPair)->Unit(benchmark::kMillisecond);

// Batched per-dimension sweeps; arg = worker threads (1 = serial path).
void BM_ExtractBatch(benchmark::State& state) {
  parallel::SetNumThreads(static_cast<int>(state.range(0)));
  const auto& extractor = Extractor();
  const auto& pairs = Data().pairs;
  FeatureMatrix out;
  for (auto _ : state) {
    extractor.ExtractBatch(pairs, &out);
    benchmark::DoNotOptimize(out.At(0, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
  parallel::SetNumThreads(1);
}
BENCHMARK(BM_ExtractBatch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Warm cache load: the whole matrix from disk, validated and checksummed.
void BM_CacheLoad(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alem_bench_featurize")
          .string();
  const FeatureCache cache(dir);
  FeatureCacheKey key;
  key.dataset_name = Data().name;
  key.profile_fingerprint = ProfileFingerprint(AbtBuyProfile());
  key.data_seed = Data().data_seed;
  key.scale = Data().scale;
  key.num_dims = Data().float_features.dims();
  cache.Store(key, Data().float_features);
  FeatureMatrix loaded;
  for (auto _ : state) {
    const bool hit = cache.Load(key, &loaded);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(loaded.rows()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CacheLoad)->Unit(benchmark::kMillisecond);

void BM_MatrixSerialize(benchmark::State& state) {
  const FeatureMatrix& matrix = Data().float_features;
  for (auto _ : state) {
    std::ostringstream out;
    const bool ok = matrix.SerializeTo(out);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.str().size());
  }
}
BENCHMARK(BM_MatrixSerialize)->Unit(benchmark::kMillisecond);

void BM_MatrixDeserialize(benchmark::State& state) {
  std::ostringstream out;
  Data().float_features.SerializeTo(out);
  const std::string blob = out.str();
  FeatureMatrix parsed;
  for (auto _ : state) {
    std::istringstream in(blob);
    const bool ok = FeatureMatrix::DeserializeFrom(in, blob.size(), &parsed);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_MatrixDeserialize)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace alem
