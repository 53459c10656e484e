// Micro-benchmarks: offline blocking throughput — the posting-list join
// vs the brute-force reference across dataset scales, and the join on the
// pool-scan workload's input (google-benchmark).

#include <benchmark/benchmark.h>

#include <map>

#include "blocking/jaccard_blocking.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

const EmDataset& DatasetAtScale(int permille) {
  // Cache generated datasets across benchmark iterations.
  static auto& cache = *new std::map<int, EmDataset>();
  auto it = cache.find(permille);
  if (it == cache.end()) {
    it = cache
             .emplace(permille, GenerateDataset(AbtBuyProfile(), 7,
                                                permille / 1000.0))
             .first;
  }
  return it->second;
}

void BM_JaccardBlockingIndexed(benchmark::State& state) {
  const EmDataset& dataset = DatasetAtScale(static_cast<int>(state.range(0)));
  const BlockingConfig config{0.1875};
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = JaccardBlocking(dataset, config).size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["post_blocking_pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(dataset.TotalPairs()));
}
BENCHMARK(BM_JaccardBlockingIndexed)->Arg(100)->Arg(300)->Arg(1000);

// The input every pool-scan pass of bench/perf blocks: DBLP-Scholar at
// data seed 7 and scale 4 (2,840 x 5,126 records), 33,991 pairs survive.
void BM_JaccardBlockingPoolScan(benchmark::State& state) {
  static const EmDataset& dataset =
      *new EmDataset(GenerateDataset(DblpScholarProfile(), 7, 4.0));
  const BlockingConfig config{0.1875};
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = JaccardBlocking(dataset, config).size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["post_blocking_pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(dataset.TotalPairs()));
}
BENCHMARK(BM_JaccardBlockingPoolScan)->Unit(benchmark::kMillisecond);

void BM_JaccardBlockingBruteForce(benchmark::State& state) {
  const EmDataset& dataset = DatasetAtScale(static_cast<int>(state.range(0)));
  const BlockingConfig config{0.1875};
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardBlockingBruteForce(dataset, config));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(dataset.TotalPairs()));
}
BENCHMARK(BM_JaccardBlockingBruteForce)->Arg(100)->Arg(300);

}  // namespace
}  // namespace alem
