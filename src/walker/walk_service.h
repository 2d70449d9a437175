// Streaming front-end over the WalkScheduler: accept walk-query batches
// continuously instead of one-shot Run() calls (the ROADMAP serving item).
//
// Submit(batch) assigns the batch a contiguous range of *global* query ids
// from a monotonic cursor, enqueues it, and returns a future; dispatcher
// threads (one per pipeline slot, Options::pipeline_depth) claim batches in
// submission order and run each through the shared QueryQueue /
// DeviceContext machinery on the persistent WorkerPool, so up to
// pipeline_depth batches overlap. Because every query's randomness is a
// Philox subsequence
// keyed by its global id — PhiloxStream(seed, query_id) — results are
// bit-identical regardless of batch interleaving, pipelining depth, or
// worker count: submitting A and B back-to-back without waiting yields the
// same paths as submitting A, waiting, then submitting B. The full
// determinism contract, batch format, and CLI usage live in
// docs/SERVING.md; walk_service_test.cc enforces the contract.
#ifndef FLEXIWALKER_SRC_WALKER_WALK_SERVICE_H_
#define FLEXIWALKER_SRC_WALKER_WALK_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "src/walker/flexiwalker_engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

// One submitted unit of serving work: a set of start nodes walked under the
// service's (graph, workload, seed). Queries get one path row each, in
// `starts` order.
struct WalkBatch {
  std::vector<NodeId> starts;
};

struct BatchResult {
  WalkResult walk;
  // Global id of starts[0]; the batch occupies [first_query_id,
  // first_query_id + walk.num_queries). Replaying query q standalone —
  // PhiloxStream(seed, first_query_id + q) — reproduces its path exactly.
  uint64_t first_query_id = 0;
  uint64_t batch_index = 0;  // submission order, 0-based
};

class WalkService {
 public:
  struct Options {
    SchedulerOptions scheduler;
    uint64_t seed = 0;
    // In-flight batch depth: how many accepted batches may execute on the
    // WorkerPool at once. 1 keeps the original FIFO one-at-a-time dispatch;
    // deeper pipelines let small batches (e.g. the network front-end's
    // coalesced flushes) overlap instead of queueing behind each other.
    // Paths are unaffected — global ids are assigned at Submit, so
    // pipelining moves execution, never randomness (docs/SERVING.md).
    unsigned pipeline_depth = 1;
  };

  // `make_step` builds each scheduler worker's kernel, exactly as in
  // WalkScheduler::RunWithWorkers; it must tolerate every worker index below
  // the resolved thread count for the service's lifetime. `kernel_state`
  // optionally pins shared ownership of whatever the factory captures
  // (helpers, preprocessed arrays, selectors); per-(batch, worker) state
  // rides in each returned WorkerKernel's own keepalive.
  WalkService(const Graph& graph, const WalkLogic& logic, Options options,
              WorkerStepFactory make_step, std::shared_ptr<void> kernel_state = nullptr);

  // Convenience: one step kernel shared by all workers.
  WalkService(const Graph& graph, const WalkLogic& logic, Options options, StepKernel step);

  ~WalkService();  // Shutdown()

  WalkService(const WalkService&) = delete;
  WalkService& operator=(const WalkService&) = delete;

  // Enqueues the batch and returns immediately. Batches start in submission
  // order; up to `pipeline_depth` of them execute concurrently, each fanning
  // out over the worker pool. After Shutdown the returned future holds a
  // std::runtime_error; a batch with a start node outside the graph
  // resolves to std::invalid_argument without affecting other batches.
  std::future<BatchResult> Submit(WalkBatch batch);

  // As Submit, but the batch's path rows are written straight into `out` —
  // caller-owned arena storage with stride == path_stride() and at least
  // batch.starts.size() rows, valid until the returned future resolves. The
  // completed BatchResult's walk.paths is empty; the caller reads rows from
  // its arena. This is the zero-copy serving path: the BatchCoalescer
  // allocates one PathArena per flushed batch and hands per-request slices
  // of it to the response writer.
  //
  // `cancel` optionally arms cooperative cancellation for this batch: the
  // per-batch scheduler polls it at pass boundaries and abandons the run
  // when it reads true (SchedulerOptions::cancel). The token must outlive
  // the returned future; the future still resolves (with whatever rows the
  // walk wrote before stopping — the caller set the token because nobody
  // wants them). Global query ids are consumed at Submit either way, so a
  // cancelled batch never shifts a later batch's Philox subsequences.
  std::future<BatchResult> SubmitInto(WalkBatch batch, PathArenaView out,
                                      std::shared_ptr<const std::atomic<bool>> cancel = nullptr);

  // Stops accepting new batches, drains everything already queued, and joins
  // the dispatchers. Idempotent; the destructor calls it.
  void Shutdown();

  // Worker threads each batch fans out over (resolved at construction).
  unsigned num_threads() const { return num_threads_; }

  // Nodes per path row every served batch produces (walk length + 1) — the
  // row pitch a caller sizing a SubmitInto arena must use.
  uint32_t path_stride() const { return logic_.walk_length() + 1; }

  // In-flight batch depth resolved at construction (>= 1).
  unsigned pipeline_depth() const { return pipeline_depth_; }

  uint64_t queries_submitted() const;
  uint64_t batches_completed() const { return batches_completed_.load(); }

 private:
  struct Pending {
    WalkBatch batch;
    PathArenaView out;  // empty => the batch allocates its own walk.paths
    std::shared_ptr<const std::atomic<bool>> cancel;  // null => not cancellable
    uint64_t first_query_id = 0;
    uint64_t batch_index = 0;
    std::promise<BatchResult> promise;
  };

  void ServeLoop();

  const Graph& graph_;
  const WalkLogic& logic_;
  Options options_;
  WorkerStepFactory make_step_;
  std::shared_ptr<void> kernel_state_;
  unsigned num_threads_;
  unsigned pipeline_depth_ = 1;  // resolved (clamped) at construction

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  uint64_t next_query_id_ = 0;   // guarded by mutex_: the global id cursor
  uint64_t next_batch_index_ = 0;
  std::atomic<uint64_t> batches_completed_{0};

  std::vector<std::thread> dispatchers_;  // one per pipeline slot
};

// Builds a serving FlexiWalker: performs the engine's one-time phases —
// helper generation (§4.2), EdgeCost profiling (§5.1), preprocessing
// reductions, optional INT8 quantization, and (when
// options.cache_static_tables applies) the cached static-walk alias tables —
// exactly once, then serves every batch with the mixed eRJS/eRVS kernel and
// per-batch SamplerSelectors (per-batch so pipelined batches share no
// mutable state). A single batch submitted first thing reproduces
// FlexiWalkerEngine::Run's paths bit-for-bit (same seed, same starts, same
// options). `pipeline_depth` > 1 lets that many batches overlap on the pool.
std::unique_ptr<WalkService> MakeFlexiWalkerService(const Graph& graph, const WalkLogic& logic,
                                                    FlexiWalkerOptions options, uint64_t seed,
                                                    unsigned pipeline_depth = 1);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_WALK_SERVICE_H_
