// Persistent worker pool: the process-wide thread substrate under every
// parallel phase (scheduler walks, preprocessing, profiling, quantization,
// multi-device fan-out). Workers are spawned once and park on a condition
// variable between jobs, so repeated small batches — the serving workload —
// pay no thread-spawn cost per Run. See docs/ARCHITECTURE.md for the full
// execution-flow picture.
//
// This header is layer-independent on purpose: it depends only on the
// standard library, so lower layers (src/graph, src/sampling, src/runtime)
// can shard work over the pool without pulling in walker types.
//
// Nesting: a job body may itself call WorkerPool::Run (e.g. a multi-device
// body whose engine fans out a scheduler job). The submitting thread always
// participates in its own job — it claims and executes unclaimed indices
// instead of just blocking — so a nested submission makes progress even when
// every pool thread is busy; nesting cannot deadlock.
#ifndef FLEXIWALKER_SRC_WALKER_WORKER_POOL_H_
#define FLEXIWALKER_SRC_WALKER_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flexi {

// Process-wide default worker-thread count: hardware concurrency unless
// overridden (the CLI's --threads flag and the benches set it explicitly),
// further capped by the calling thread's ScopedWorkerBudget, if any.
unsigned DefaultWorkerThreads();
void SetDefaultWorkerThreads(unsigned threads);  // 0 restores the hardware default

// The worker count a walk run uses for a `requested` thread count (0 =>
// DefaultWorkerThreads()). The calling thread's ScopedWorkerBudget caps even
// an explicit request — the budget owner decided how much of the machine
// this context may use — and the result lies in [1, kMaxHostWorkers]. Both
// walk tiers resolve here, so a pinned --threads behaves identically in each.
unsigned ResolveWorkerThreads(unsigned requested);

// Hard ceiling on host workers per parallel region. Oversubscription past a
// few times the core count only adds scheduling noise, and an unchecked
// request (e.g. a negative CLI value cast to unsigned) must not turn into
// millions of std::thread spawns.
inline constexpr unsigned kMaxHostWorkers = 256;

// Thread-local cap on worker parallelism. RunMultiDevice splits
// DefaultWorkerThreads() between its device bodies by installing one of
// these on each device thread: any WalkScheduler or DefaultWorkerThreads()
// resolution on that thread then sees the device's share instead of the full
// machine, so D devices share one budgeted pool instead of demanding D full
// ones. Scopes nest by taking the minimum; 0 means "no extra cap".
class ScopedWorkerBudget {
 public:
  explicit ScopedWorkerBudget(unsigned budget);
  ~ScopedWorkerBudget();
  ScopedWorkerBudget(const ScopedWorkerBudget&) = delete;
  ScopedWorkerBudget& operator=(const ScopedWorkerBudget&) = delete;

  // The calling thread's active budget (0 = unlimited).
  static unsigned Current();

 private:
  unsigned previous_;
};

// A pool of persistent worker threads executing indexed jobs.
//
// Run(workers, body) executes body(w) exactly once for every w in
// [0, workers) and returns when all have completed. Indices are claimed
// under the pool mutex, so each index runs on exactly one thread; which
// thread is unspecified (the caller itself is one of them). The pool grows
// lazily up to kMaxHostWorkers threads and never shrinks; idle workers park
// on a condition variable.
class WorkerPool {
 public:
  // `initial_threads` workers are spawned eagerly; more are added on demand
  // by Run. The default pool starts empty and grows to fit the first job.
  explicit WorkerPool(unsigned initial_threads = 0);

  // Joins all workers. Every Run must have returned; submitting concurrently
  // with destruction is undefined.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs body(w) for w in [0, workers), blocking until every index has
  // completed. workers may exceed the pool's thread count — indices queue
  // and run as threads free up — and may exceed kMaxHostWorkers (the cap
  // bounds threads, not job width). workers <= 1 runs inline. Safe to call
  // from multiple threads and from inside a running job body.
  //
  // Exceptions: if body throws on the submitting thread, Run waits for the
  // job's in-flight indices, drops its unclaimed ones, and rethrows. A body
  // that throws on a pool thread terminates the process, exactly as with a
  // plain std::thread.
  void Run(unsigned workers, const std::function<void(unsigned)>& body);

  // Number of persistent threads spawned so far. Stable across Runs of the
  // same width — the "no spawn per batch" property worker_pool_test checks.
  size_t thread_count() const;

  // The shared process-wide pool every RunOnWorkers call executes on.
  static WorkerPool& Global();

 private:
  struct Job;

  void WorkerLoop();
  void EnsureThreadsLocked(unsigned target);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job*> queue_;  // jobs with unclaimed indices, FIFO
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

// Runs body(worker) for worker in [0, workers) on the global WorkerPool,
// inline when workers == 1; returns when every body has. The single pool
// primitive behind the WalkScheduler, ParallelForRanges, the partitioned
// runner, and the multi-device fan-out. `workers` is clamped to
// [1, kMaxHostWorkers].
void RunOnWorkers(unsigned workers, const std::function<void(unsigned)>& body);

// Shards [0, n) into contiguous ranges, one per worker, and runs `body` on
// the global pool. For preprocessing/profiling/quantization kernels whose
// work is indexed by node or edge rather than by query; `body(begin, end)`
// must only write state owned by its range. Runs inline when one worker
// suffices. Like WalkScheduler, it honors the calling thread's
// ScopedWorkerBudget even over an explicit `threads` request — the budget
// owner decided how much of the machine this context may use. Range
// boundaries shift with the effective worker count, but every caller in the
// repo computes range-local results merged in range order, so outputs don't.
void ParallelForRanges(unsigned threads, size_t n,
                       const std::function<void(unsigned worker, size_t begin, size_t end)>& body);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_WORKER_POOL_H_
