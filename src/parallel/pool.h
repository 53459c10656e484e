// Deterministic fixed-size thread-pool parallelism.
//
// The pool exists for the embarrassingly parallel hot paths of the
// benchmark — bootstrap-committee member fits, per-example committee voting
// and margin scoring, per-tree forest fits, batch prediction — under one
// hard contract: **results are bitwise-identical at every thread count,
// including 1**. The contract is enforced structurally:
//
//   * ParallelFor splits [begin, end) into fixed chunks of `grain`; the
//     decomposition depends only on (begin, end, grain), never on how many
//     workers exist or which worker runs which chunk.
//   * Randomized chunk work derives its stream from TaskSeed(base, index)
//     (or a per-member std::seed_seq at call sites), never from a shared
//     engine whose state would depend on execution order.
//   * Callers accumulate into disjoint per-chunk slots and merge in chunk
//     index order; the pool itself never reorders or merges results.
//
// There is no work stealing and no task graph: one blocking fork-join
// region at a time, chunks handed out by an atomic counter. Nested
// ParallelFor calls (from inside a pool worker) degrade to inline serial
// execution of the same chunk decomposition, so composition (e.g. a forest
// fit inside a committee-member fit) is safe and still deterministic.
//
// Thread count resolution: SetNumThreads() > ALEM_THREADS env > hardware
// concurrency; 1 selects the pure serial path (no pool threads, no extra
// trace spans — byte-identical behavior to the pre-parallel code).
//
// Observability: a ParallelFor with a nonempty `region` that actually runs
// on the pool emits an aggregate "<region>.parallel" span on the calling
// thread plus one "parallel.chunk" span (detail = region) on whichever
// worker executed each chunk, so traces show the fan-out per thread (see
// docs/parallelism.md).
//
// Utilization profiling: every pool worker keeps per-thread busy / idle /
// queue-wait nanosecond totals (a handful of relaxed atomic stores under a
// seqlock per chunk, exact at any instant),
// and ParallelFor accumulates per-region chunk-duration imbalance stats
// while metrics are enabled. SnapshotPoolProfile() folds both into a
// PoolProfile; StampPoolProfile() writes it into a RunReport `pool`
// section plus `parallel.*` gauges. The pure serial path (threads=1) never
// creates a pool, so it carries zero accounting cost and reports stay
// byte-identical to pre-profiler ones.

#ifndef ALEM_PARALLEL_POOL_H_
#define ALEM_PARALLEL_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace alem {
namespace obs {
struct RunReport;
}  // namespace obs

namespace parallel {

// Fixed-size pool of worker threads executing one fork-join job at a time.
class ThreadPool {
 public:
  // Spawns exactly `num_threads` (>= 1) workers; the submitting thread
  // blocks in Run() and does not execute chunks itself.
  explicit ThreadPool(int num_threads);
  // Joins all workers. No job may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Invokes fn(chunk) once for every chunk in [0, num_chunks), distributed
  // over the workers, and blocks until all chunks finished. If chunks
  // throw, the exception of the *lowest-indexed* throwing chunk is rethrown
  // (deterministic regardless of scheduling); the remaining chunks still
  // run. Throws std::logic_error when called from inside any pool worker:
  // nested submission could deadlock, so it is rejected outright (use
  // ParallelFor, which degrades to inline execution instead).
  void Run(size_t num_chunks, const std::function<void(size_t)>& fn);

  // True on a thread owned by any ThreadPool.
  static bool OnWorkerThread();

  // Per-pool busy / idle / queue-wait / wall totals in seconds, summed over
  // the workers. Safe to call at any time, also while a job runs: each
  // worker's open interval (parked, inside a chunk or between chunks) is
  // charged up to "now", so busy + idle + queue-wait equals the wall.
  struct Totals {
    double busy_seconds = 0.0;
    double idle_seconds = 0.0;
    double queue_wait_seconds = 0.0;
    double worker_wall_seconds = 0.0;
  };
  Totals SnapshotAccounts() const;

 private:
  // Heap-allocated per-job state, shared with the workers so a straggler
  // that wakes after Run() returned still sees a consistent (stale) job
  // instead of racing the next one.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t num_chunks = 0;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> completed{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    size_t error_chunk = 0;
  };

  // What a worker is doing; each phase but kOff is charged to one bucket.
  enum class Phase : uint8_t { kOff, kIdle, kQueue, kBusy };

  // Per-worker accounting slot. Every nanosecond of a worker's wall clock
  // falls in one interval: parked (idle), executing a chunk body (busy), or
  // in a job between chunks (queue wait). An interval is charged to its
  // bucket when it closes; the open one is charged by SnapshotAccounts.
  // The worker is the only writer. `version` is a seqlock, odd while the
  // worker updates the other fields, so a snapshot reads them as of one
  // instant. Cache-line aligned: the fields change on every chunk, and
  // false sharing between workers would show up as exactly the kind of
  // overhead this profiler measures.
  struct alignas(64) WorkerAccount {
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> busy_ns{0};   // Executing chunk bodies.
    std::atomic<uint64_t> idle_ns{0};   // Blocked waiting for a job.
    std::atomic<uint64_t> queue_ns{0};  // In a job but between chunks.
    std::atomic<uint64_t> start_ns{0};  // Worker wall-clock start.
    std::atomic<uint64_t> end_ns{0};    // Worker wall-clock end.
    std::atomic<uint64_t> open_ns{0};   // Start of the open interval.
    std::atomic<Phase> phase{Phase::kOff};  // Bucket of the open interval.
  };

  // Closes the worker's open interval at `now`, charging it to its bucket,
  // and opens one in `next`. The first call starts the wall clock; a call
  // with kOff ends it.
  static void Enter(WorkerAccount& account, Phase next, uint64_t now);

  void WorkerLoop(size_t worker);
  // Executes chunks of `job` until none remain.
  void RunChunks(Job& job, WorkerAccount& account);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;  // Non-null while a job is in flight.
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::unique_ptr<WorkerAccount[]> accounts_;  // One per worker.
  std::vector<std::thread> workers_;
};

// ---- Global pool configuration ----------------------------------------

// The thread count every ParallelFor uses. Resolved on first use from
// ALEM_THREADS (when set and >= 1) or std::thread::hardware_concurrency();
// always >= 1.
int NumThreads();

// Overrides the thread count (values < 1 clamp to 1; 1 = serial path).
// Rebuilds the lazily created global pool. Call from the main thread only,
// never while a ParallelFor is in flight.
void SetNumThreads(int num_threads);

// std::thread::hardware_concurrency(), never 0.
int HardwareThreads();

// ---- Pool utilization profile ------------------------------------------

// Chunk-duration imbalance statistics for one named ParallelFor region,
// accumulated across every pool execution of that region while metrics
// were enabled.
struct PoolRegionProfile {
  std::string name;
  uint64_t runs = 0;    // Pool-executed ParallelFor calls for this region.
  uint64_t chunks = 0;  // Total chunks across those runs.
  double min_chunk_seconds = 0.0;
  double max_chunk_seconds = 0.0;
  double mean_chunk_seconds = 0.0;
  double busy_seconds = 0.0;  // Sum of all chunk durations.
  double wall_seconds = 0.0;  // Sum of the region aggregate-span walls.
  // busy / (workers × wall): 1.0 = every worker busy for the whole region.
  double utilization = 0.0;
};

// Process-wide pool accounting: the live pool plus totals folded in from
// pools destroyed by SetNumThreads. Satisfies busy + idle + queue_wait ==
// worker_wall up to floating-point rounding, at any instant.
struct PoolProfile {
  int workers = 0;  // Worker count of the live (or last) pool.
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  double worker_wall_seconds = 0.0;
  double utilization = 0.0;  // busy / worker_wall, 0 when wall is 0.
  std::vector<PoolRegionProfile> regions;  // Sorted by name.

  // True once any pool worker has run; false on the pure serial path.
  bool engaged() const { return worker_wall_seconds > 0.0; }
};

PoolProfile SnapshotPoolProfile();

// Discards all accounting — folded totals, region stats, and the live pool
// (lazily rebuilt on the next ParallelFor). Test isolation only; never
// call while a ParallelFor is in flight.
void ResetPoolProfile();

// Writes SnapshotPoolProfile() into the report's `pool` section and
// publishes `parallel.*` gauges, but only when the pool actually engaged —
// a threads=1 run keeps its report byte-identical. Call before
// obs::StampObservability so the gauges land in the same report.
void StampPoolProfile(obs::RunReport* report);

// ---- Deterministic parallel-for ----------------------------------------

// Number of chunks ParallelFor(begin, end, grain, ...) executes. Exposed so
// callers can pre-size per-chunk accumulation slots that match the
// decomposition exactly.
inline size_t NumChunks(size_t begin, size_t end, size_t grain) {
  return end > begin ? (end - begin + grain - 1) / grain : 0;
}

// Chunk body: processes [begin, end) as chunk number `chunk`.
using ChunkFn = std::function<void(size_t begin, size_t end, size_t chunk)>;

// Runs fn over the fixed chunk decomposition of [begin, end) with chunk
// size `grain` (> 0; the final chunk may be short). Chunks run on the
// global pool when NumThreads() > 1, inline (in index order) otherwise or
// when already inside a pool worker. fn must only write to disjoint
// per-chunk state; merge in chunk index order afterwards.
void ParallelFor(size_t begin, size_t end, size_t grain, const ChunkFn& fn,
                 std::string_view region = "");

// Deterministic 64-bit stream seed for task `index` of a region keyed by
// `base` (splitmix64-style mix): independent of execution order and thread
// count, and distinct across indices for any fixed base.
uint64_t TaskSeed(uint64_t base, uint64_t index);

}  // namespace parallel
}  // namespace alem

#endif  // ALEM_PARALLEL_POOL_H_
