// Tests for src/parallel/: thread-pool lifecycle, exception propagation,
// grain-size edge cases, nested-submit rejection, the per-member seed_seq
// regression pins, and the determinism contract — committee selections,
// forest models/predictions, and progressive-F1 curves must be
// bitwise-identical for threads=1 vs threads=4.

#include "parallel/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/approaches.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "core/harness.h"
#include "core/learner.h"
#include "core/pool.h"
#include "core/selector.h"
#include "features/feature_matrix.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"
#include "synth/profiles.h"
#include "util/rng.h"

namespace alem {
namespace {

// Restores the global thread count after every test so suites that follow
// see the environment-resolved default again.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { original_threads_ = parallel::NumThreads(); }
  void TearDown() override { parallel::SetNumThreads(original_threads_); }

 private:
  int original_threads_ = 1;
};

// ---- ThreadPool lifecycle ----------------------------------------------

TEST_F(ParallelTest, PoolStartsUpAndShutsDownRepeatedly) {
  for (int threads = 1; threads <= 4; ++threads) {
    for (int round = 0; round < 3; ++round) {
      parallel::ThreadPool pool(threads);
      EXPECT_EQ(pool.num_threads(), threads);
      std::atomic<int> sum{0};
      pool.Run(16, [&](size_t chunk) {
        sum.fetch_add(static_cast<int>(chunk), std::memory_order_relaxed);
      });
      EXPECT_EQ(sum.load(), 120);  // 0 + 1 + ... + 15.
    }
  }
  // A pool that never ran a job must also shut down cleanly.
  { parallel::ThreadPool idle(4); }
}

TEST_F(ParallelTest, RunExecutesEveryChunkExactlyOnce) {
  parallel::ThreadPool pool(4);
  constexpr size_t kChunks = 100;
  std::vector<std::atomic<int>> hits(kChunks);
  pool.Run(kChunks, [&](size_t chunk) {
    hits[chunk].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "chunk " << i;
  }
}

TEST_F(ParallelTest, RunWithZeroChunksIsANoOp) {
  parallel::ThreadPool pool(2);
  bool called = false;
  pool.Run(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, PoolIsReusableAcrossManyJobs) {
  parallel::ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<size_t> count{0};
    pool.Run(7, [&](size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 7u) << "job " << job;
  }
}

// ---- Exception propagation ---------------------------------------------

TEST_F(ParallelTest, LowestChunkExceptionWinsDeterministically) {
  parallel::ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.Run(32, [&](size_t chunk) {
        if (chunk >= 3) {
          throw std::runtime_error("chunk-" + std::to_string(chunk));
        }
      });
      FAIL() << "Run must rethrow";
    } catch (const std::runtime_error& error) {
      // Chunks 3..31 all throw; regardless of scheduling, the recorded
      // exception must be the lowest-indexed one.
      EXPECT_STREQ(error.what(), "chunk-3");
    }
  }
}

TEST_F(ParallelTest, AllChunksStillRunWhenOneThrows) {
  parallel::ThreadPool pool(2);
  std::atomic<size_t> executed{0};
  EXPECT_THROW(pool.Run(20,
                        [&](size_t chunk) {
                          executed.fetch_add(1);
                          if (chunk == 0) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 20u);
}

TEST_F(ParallelTest, PoolSurvivesAThrowingJob) {
  parallel::ThreadPool pool(2);
  EXPECT_THROW(
      pool.Run(4, [](size_t) { throw std::runtime_error("first job"); }),
      std::runtime_error);
  std::atomic<size_t> count{0};
  pool.Run(4, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4u);
}

TEST_F(ParallelTest, ParallelForPropagatesExceptions) {
  parallel::SetNumThreads(4);
  EXPECT_THROW(
      parallel::ParallelFor(0, 100, 10,
                            [](size_t, size_t, size_t) {
                              throw std::runtime_error("from chunk");
                            }),
      std::runtime_error);
}

// ---- Nested submission -------------------------------------------------

TEST_F(ParallelTest, NestedRunIsRejectedWithLogicError) {
  parallel::ThreadPool pool(2);
  // The inner Run throws std::logic_error inside a worker; the pool
  // records and rethrows it from the outer Run.
  EXPECT_THROW(pool.Run(2,
                        [&](size_t) {
                          pool.Run(2, [](size_t) {});
                        }),
               std::logic_error);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  parallel::SetNumThreads(4);
  std::atomic<size_t> inner_total{0};
  parallel::ParallelFor(0, 8, 1, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      // Nested region: must degrade to inline serial execution.
      parallel::ParallelFor(0, 10, 2, [&](size_t b, size_t e, size_t) {
        inner_total.fetch_add(e - b, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80u);
}

// ---- ParallelFor chunk decomposition -----------------------------------

// Records every (begin, end, chunk) triple a ParallelFor produced.
using Chunk = std::tuple<size_t, size_t, size_t>;
std::vector<Chunk> Chunks(size_t begin, size_t end, size_t grain) {
  std::mutex mutex;
  std::vector<Chunk> chunks;
  parallel::ParallelFor(begin, end, grain,
                        [&](size_t b, size_t e, size_t chunk) {
                          std::lock_guard<std::mutex> lock(mutex);
                          chunks.emplace_back(b, e, chunk);
                        });
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) {
              return std::get<2>(a) < std::get<2>(b);
            });
  return chunks;
}

TEST_F(ParallelTest, GrainEdgeCases) {
  parallel::SetNumThreads(4);

  // Empty range: no chunks at all.
  EXPECT_TRUE(Chunks(5, 5, 3).empty());
  EXPECT_TRUE(Chunks(7, 2, 3).empty());

  // Grain larger than the range: one chunk covering everything.
  auto one = Chunks(2, 7, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], Chunk(2, 7, 0));

  // Grain 1: one chunk per element.
  auto singles = Chunks(0, 5, 1);
  ASSERT_EQ(singles.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(singles[i], Chunk(i, i + 1, i));
  }

  // Non-dividing grain: a short final chunk.
  auto uneven = Chunks(0, 10, 4);
  ASSERT_EQ(uneven.size(), 3u);
  EXPECT_EQ(uneven[0], Chunk(0, 4, 0));
  EXPECT_EQ(uneven[1], Chunk(4, 8, 1));
  EXPECT_EQ(uneven[2], Chunk(8, 10, 2));

  // Decomposition is thread-count independent.
  parallel::SetNumThreads(1);
  EXPECT_EQ(Chunks(0, 10, 4), uneven);
  EXPECT_EQ(parallel::NumChunks(0, 10, 4), 3u);
  EXPECT_EQ(parallel::NumChunks(5, 5, 4), 0u);
}

// ---- Deterministic seeding ---------------------------------------------

TEST_F(ParallelTest, TaskSeedIsStableAndDistinct) {
  // Pinned values: changing TaskSeed silently reseeds every parallel
  // region, so a change here must be deliberate.
  EXPECT_EQ(parallel::TaskSeed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(parallel::TaskSeed(42, 7), 0xccf635ee9e9e2fa4ULL);

  std::set<uint64_t> seen;
  for (uint64_t index = 0; index < 1000; ++index) {
    seen.insert(parallel::TaskSeed(123, index));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST_F(ParallelTest, MemberSeedsRegressionPins) {
  // Recorded seeds for round_seed 0x123456789abcdef0. A deliberate change
  // to the derivation invalidates every recorded committee selection;
  // update these pins only alongside the determinism goldens.
  const CommitteeMemberSeeds member0 = MemberSeeds(0x123456789abcdef0ULL, 0);
  const CommitteeMemberSeeds member1 = MemberSeeds(0x123456789abcdef0ULL, 1);
  EXPECT_EQ(member0.resample_seed, 0x52ece3ba7fd8e422ULL);
  EXPECT_EQ(member0.learner_seed, 0xf73b196a063d7029ULL);
  EXPECT_NE(member1.resample_seed, member0.resample_seed);
  EXPECT_NE(member1.learner_seed, member0.learner_seed);

  // Pin the member-0 bootstrap resample itself: this is what the fit
  // consumes, so it is the real regression surface.
  Rng resample(member0.resample_seed);
  const std::vector<size_t> sample = resample.SampleWithReplacement(8, 8);
  const std::vector<size_t> expected = {6, 1, 0, 6, 6, 4, 2, 6};
  EXPECT_EQ(sample, expected);
}

TEST_F(ParallelTest, MemberSeedsIndependentOfCommitteeSizeAndOrder) {
  // The seed-stability property the seed_seq fix buys: member m's seeds are
  // a pure function of (round_seed, m). With the old shared-engine scheme,
  // growing the committee or reordering fits changed every member's stream.
  for (int member = 0; member < 4; ++member) {
    const CommitteeMemberSeeds a = MemberSeeds(99, member);
    const CommitteeMemberSeeds b = MemberSeeds(99, member);
    EXPECT_EQ(a.resample_seed, b.resample_seed);
    EXPECT_EQ(a.learner_seed, b.learner_seed);
  }
  std::set<uint64_t> distinct;
  for (int member = 0; member < 64; ++member) {
    distinct.insert(MemberSeeds(7, member).resample_seed);
  }
  EXPECT_EQ(distinct.size(), 64u);
}

// ---- Pool utilization accounting ---------------------------------------

TEST_F(ParallelTest, SerialPathLeavesPoolProfileDisengaged) {
  parallel::ResetPoolProfile();
  parallel::SetNumThreads(1);
  std::atomic<size_t> total{0};
  parallel::ParallelFor(
      0, 100, 10,
      [&](size_t b, size_t e, size_t) {
        total.fetch_add(e - b, std::memory_order_relaxed);
      },
      "acct.serial");
  EXPECT_EQ(total.load(), 100u);

  // threads=1 never creates a pool, so the profile stays empty and
  // StampPoolProfile must leave the report untouched.
  const parallel::PoolProfile profile = parallel::SnapshotPoolProfile();
  EXPECT_FALSE(profile.engaged());
  EXPECT_DOUBLE_EQ(profile.worker_wall_seconds, 0.0);
  obs::RunReport report;
  parallel::StampPoolProfile(&report);
  EXPECT_FALSE(report.has_pool);
}

TEST_F(ParallelTest, PoolAccountingTilesWorkerWall) {
  parallel::ResetPoolProfile();
  obs::SetMetricsEnabled(true);
  parallel::SetNumThreads(4);
  for (int run = 0; run < 3; ++run) {
    parallel::ParallelFor(
        0, 64, 4,
        [&](size_t b, size_t e, size_t) {
          volatile double sink = 0.0;
          for (size_t i = b * 2000; i < e * 2000; ++i) {
            sink = sink + static_cast<double>(i) * 1e-9;
          }
        },
        "acct.pool");
  }
  // Destroy the pool so every worker's wall clock is closed before the
  // invariant check (live snapshots extrapolate open idle waits).
  parallel::SetNumThreads(1);

  const parallel::PoolProfile profile = parallel::SnapshotPoolProfile();
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(profile.engaged());
  EXPECT_EQ(profile.workers, 4);
  EXPECT_GT(profile.busy_seconds, 0.0);
  EXPECT_GT(profile.utilization, 0.0);
  EXPECT_LE(profile.utilization, 1.0 + 1e-9);

  // The accounting invariant: busy + idle + queue-wait tiles each
  // worker's wall clock (1% relative or 10ms absolute slack).
  const double accounted = profile.busy_seconds + profile.idle_seconds +
                           profile.queue_wait_seconds;
  EXPECT_NEAR(accounted, profile.worker_wall_seconds,
              std::max(0.01 * profile.worker_wall_seconds, 0.01));

  // Region imbalance stats: 16 chunks per run, three runs, and the
  // min/mean/max ordering must hold.
  bool found = false;
  for (const parallel::PoolRegionProfile& region : profile.regions) {
    if (region.name != "acct.pool") continue;
    found = true;
    EXPECT_EQ(region.runs, 3u);
    EXPECT_EQ(region.chunks, 48u);
    EXPECT_GT(region.min_chunk_seconds, 0.0);
    EXPECT_LE(region.min_chunk_seconds, region.mean_chunk_seconds);
    EXPECT_LE(region.mean_chunk_seconds, region.max_chunk_seconds);
    EXPECT_GT(region.utilization, 0.0);
    EXPECT_LE(region.utilization, 1.0 + 1e-9);
  }
  EXPECT_TRUE(found);
  parallel::ResetPoolProfile();
}

// A snapshot taken while a chunk still runs charges that chunk as busy up
// to the snapshot, so busy + idle + queue-wait tiles the wall then too. A
// snapshot that counted only closed intervals would fall short by the time
// the chunk has been blocked.
TEST_F(ParallelTest, SnapshotDuringARunningChunkTilesWorkerWall) {
  parallel::ResetPoolProfile();
  parallel::SetNumThreads(2);
  std::latch started(1);
  std::latch release(1);
  std::thread submitter([&] {
    parallel::ParallelFor(0, 2, 1, [&](size_t, size_t, size_t chunk) {
      if (chunk != 0) return;
      started.count_down();
      release.wait();
    });
  });
  started.wait();
  constexpr double kBlockedSeconds = 0.1;
  std::this_thread::sleep_for(std::chrono::duration<double>(kBlockedSeconds));
  const parallel::PoolProfile profile = parallel::SnapshotPoolProfile();
  release.count_down();
  submitter.join();

  ASSERT_TRUE(profile.engaged());
  EXPECT_GE(profile.busy_seconds, kBlockedSeconds);
  const double accounted = profile.busy_seconds + profile.idle_seconds +
                           profile.queue_wait_seconds;
  EXPECT_NEAR(accounted, profile.worker_wall_seconds, 1e-6);
  parallel::ResetPoolProfile();
}

// Snapshots taken while workers keep starting and finishing chunks each
// read every account as of one instant (the seqlock), so each tiles the
// wall too. Run it under -DALEM_SANITIZE=thread as well.
TEST_F(ParallelTest, ConcurrentSnapshotsTileWorkerWall) {
  parallel::ResetPoolProfile();
  parallel::SetNumThreads(3);
  std::atomic<bool> stop{false};
  std::latch first_run(1);
  std::thread submitter([&] {
    for (bool first = true; !stop.load(std::memory_order_relaxed);
         first = false) {
      parallel::ParallelFor(0, 48, 1, [](size_t b, size_t, size_t) {
        volatile double sink = 0.0;
        for (size_t i = 0; i < 200; ++i) {
          sink = sink + static_cast<double>(b + i) * 1e-9;
        }
      });
      if (first) first_run.count_down();
    }
  });
  first_run.wait();
  // Each worker's buckets sum to its wall in whole nanoseconds, so only
  // rounding separates the totals; a torn read would be off by at least
  // the interval it lost or counted twice.
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const parallel::PoolProfile profile = parallel::SnapshotPoolProfile();
    EXPECT_TRUE(profile.engaged());
    EXPECT_NEAR(profile.busy_seconds + profile.idle_seconds +
                    profile.queue_wait_seconds,
                profile.worker_wall_seconds, 1e-9);
  }
  stop.store(true, std::memory_order_relaxed);
  submitter.join();
  parallel::ResetPoolProfile();
}

TEST_F(ParallelTest, StampPoolProfileFillsReportAfterPoolRuns) {
  parallel::ResetPoolProfile();
  obs::SetMetricsEnabled(true);
  parallel::SetNumThreads(2);
  parallel::ParallelFor(
      0, 32, 2, [](size_t, size_t, size_t) {}, "acct.stamp");
  obs::RunReport report;
  parallel::StampPoolProfile(&report);
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(report.has_pool);
  EXPECT_EQ(report.pool.workers, 2);
  EXPECT_GT(report.pool.worker_wall_seconds, 0.0);
  ASSERT_EQ(report.pool.regions.size(), 1u);
  EXPECT_EQ(report.pool.regions[0].name, "acct.stamp");
  EXPECT_EQ(report.pool.regions[0].chunks, 16u);
  parallel::ResetPoolProfile();
}

// ---- Determinism goldens: threads=1 vs threads=4 -----------------------

// A small two-cluster feature matrix with an ambiguous band in the middle.
FeatureMatrix SyntheticFeatures(size_t rows, size_t dims, uint64_t seed) {
  Rng rng(seed);
  FeatureMatrix features(rows, dims);
  for (size_t r = 0; r < rows; ++r) {
    const double center = (r % 2 == 0) ? 0.25 : 0.75;
    for (size_t d = 0; d < dims; ++d) {
      features.Set(r, d,
                   static_cast<float>(center + 0.2 * (rng.NextDouble() - 0.5)));
    }
  }
  return features;
}

std::vector<int> SyntheticLabels(size_t rows) {
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) labels[r] = r % 2 == 0 ? 0 : 1;
  return labels;
}

TEST_F(ParallelTest, ForestFitAndPredictionsIdenticalAcrossThreadCounts) {
  const FeatureMatrix features = SyntheticFeatures(120, 6, 3);
  const std::vector<int> labels = SyntheticLabels(120);

  RandomForestConfig config;
  config.num_trees = 12;
  config.seed = 17;

  parallel::SetNumThreads(1);
  RandomForest serial(config);
  serial.Fit(features, labels);
  const std::vector<int> serial_predictions = serial.PredictAll(features);

  parallel::SetNumThreads(4);
  RandomForest threaded(config);
  threaded.Fit(features, labels);
  const std::vector<int> threaded_predictions = threaded.PredictAll(features);

  // Bitwise-identical models, not just matching predictions.
  EXPECT_EQ(SerializeForest(serial), SerializeForest(threaded));
  EXPECT_EQ(serial_predictions, threaded_predictions);
}

// At 1 thread the six SVM members fit as Pegasos lane groups of 4 and 2,
// at 4 threads as three groups of 2: the selections must still match.
std::vector<size_t> QbcSelection(int threads) {
  parallel::SetNumThreads(threads);
  FeatureMatrix features = SyntheticFeatures(200, 5, 11);
  ActivePool pool(std::move(features));
  const std::vector<int> labels = SyntheticLabels(200);
  for (size_t row = 0; row < 40; ++row) pool.AddLabel(row, labels[row]);

  SvmLearner learner;
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());
  QbcSelector selector(6, 29);
  return selector.Select(learner, pool, 10, nullptr);
}

TEST_F(ParallelTest, CommitteeSelectionsIdenticalAcrossThreadCounts) {
  const std::vector<size_t> serial = QbcSelection(1);
  const std::vector<size_t> threaded = QbcSelection(4);
  ASSERT_EQ(serial.size(), 10u);
  EXPECT_EQ(serial, threaded);
}

// Full progressive runs on paper-profile datasets: the whole curve —
// selection sequence, labels, and F1 values — must be bitwise-identical.
RunResult ProfileRun(const std::string& profile_name,
                     const std::string& approach, int threads) {
  parallel::SetNumThreads(threads);
  const PreparedDataset data = PrepareDataset(
      {*ProfileByName(profile_name), /*data_seed=*/7, /*scale=*/0.2});
  ApproachSpec spec;
  EXPECT_TRUE(ApproachFromName(approach, &spec));
  RunConfig config;
  config.approach = spec;
  config.max_labels = 70;
  config.run_seed = 1;
  return RunActiveLearning(data, config);
}

void ExpectIdenticalCurves(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].labels_used, b.curve[i].labels_used) << i;
    EXPECT_EQ(a.curve[i].metrics.f1, b.curve[i].metrics.f1) << i;
    EXPECT_EQ(a.curve[i].metrics.precision, b.curve[i].metrics.precision)
        << i;
    EXPECT_EQ(a.curve[i].metrics.recall, b.curve[i].metrics.recall) << i;
    EXPECT_EQ(a.curve[i].scored_examples, b.curve[i].scored_examples) << i;
  }
  EXPECT_EQ(a.best_f1, b.best_f1);
  EXPECT_EQ(a.labels_to_converge, b.labels_to_converge);
}

TEST_F(ParallelTest, AbtBuyForestCurveIdenticalAcrossThreadCounts) {
  const RunResult serial = ProfileRun("Abt-Buy", "trees10", 1);
  const RunResult threaded = ProfileRun("Abt-Buy", "trees10", 4);
  ExpectIdenticalCurves(serial, threaded);
}

// One lane group of four members at 1 thread, four one-member fits at 4.
TEST_F(ParallelTest, AbtBuyLinearQbcCurveIdenticalAcrossThreadCounts) {
  const RunResult serial = ProfileRun("Abt-Buy", "linear-qbc4", 1);
  const RunResult threaded = ProfileRun("Abt-Buy", "linear-qbc4", 4);
  ExpectIdenticalCurves(serial, threaded);
}

TEST_F(ParallelTest, CoraMarginCurveIdenticalAcrossThreadCounts) {
  const RunResult serial = ProfileRun("Cora", "linear-margin-2dim", 1);
  const RunResult threaded = ProfileRun("Cora", "linear-margin-2dim", 4);
  ExpectIdenticalCurves(serial, threaded);
}

}  // namespace
}  // namespace alem
