#include "src/walker/walk_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace flexi {

WalkService::WalkService(const Graph& graph, const WalkLogic& logic, Options options,
                         WorkerStepFactory make_step, std::shared_ptr<void> kernel_state)
    : graph_(graph),
      logic_(logic),
      options_(std::move(options)),
      make_step_(std::move(make_step)),
      kernel_state_(std::move(kernel_state)) {
  // Resolve the worker count once, on the constructing thread, so a
  // ScopedWorkerBudget active here sticks for the service's lifetime and the
  // dispatcher thread (which carries no budget) can't widen it later.
  num_threads_ = ResolveWorkerThreads(options_.scheduler.num_threads);
  options_.scheduler.num_threads = num_threads_;
  // One dispatcher per pipeline slot: each claims the oldest queued batch,
  // so up to pipeline_depth batches run on the pool at once. Depth shares
  // the kMaxHostWorkers rationale — a wild value must not spawn thousands
  // of threads.
  pipeline_depth_ = std::clamp(options_.pipeline_depth, 1u, kMaxHostWorkers);
  unsigned depth = pipeline_depth_;
  dispatchers_.reserve(depth);
  for (unsigned d = 0; d < depth; ++d) {
    dispatchers_.emplace_back([this] { ServeLoop(); });
  }
}

WalkService::WalkService(const Graph& graph, const WalkLogic& logic, Options options,
                         StepKernel step)
    : WalkService(graph, logic, std::move(options),
                  [step](unsigned, DeviceContext&) { return WorkerKernel(step); }) {}

WalkService::~WalkService() { Shutdown(); }

std::future<BatchResult> WalkService::Submit(WalkBatch batch) {
  return SubmitInto(std::move(batch), PathArenaView{});
}

std::future<BatchResult> WalkService::SubmitInto(WalkBatch batch, PathArenaView out,
                                                 std::shared_ptr<const std::atomic<bool>> cancel) {
  Pending pending;
  pending.batch = std::move(batch);
  pending.out = out;
  pending.cancel = std::move(cancel);
  std::future<BatchResult> future = pending.promise.get_future();
  // A mismatched arena would have scheduler workers writing past the
  // caller's allocation; fail the future on the submitting thread instead
  // of corrupting memory on a dispatcher.
  if (!out.empty() && (out.stride != path_stride() || out.rows < pending.batch.starts.size())) {
    pending.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
        "SubmitInto arena mismatch: need stride " + std::to_string(path_stride()) + " and " +
        std::to_string(pending.batch.starts.size()) + " rows, got stride " +
        std::to_string(out.stride) + " and " + std::to_string(out.rows) + " rows")));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      pending.promise.set_exception(
          std::make_exception_ptr(std::runtime_error("WalkService is shut down")));
      return future;
    }
    // The id cursor advances under the same lock that orders the queue, so
    // batch k's ids are exactly the cursor values between submissions k and
    // k+1 — the property the determinism contract hangs off.
    pending.first_query_id = next_query_id_;
    next_query_id_ += pending.batch.starts.size();
    pending.batch_index = next_batch_index_++;
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

void WalkService::ServeLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown, everything drained
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    SchedulerOptions batch_options = options_.scheduler;
    batch_options.query_id_offset = pending.first_query_id;
    batch_options.cancel = pending.cancel.get();
    WalkScheduler scheduler(batch_options);
    BatchResult result;
    try {
      if (pending.out.empty()) {
        result.walk = scheduler.RunWithWorkers(graph_, logic_, pending.batch.starts,
                                               options_.seed, make_step_);
      } else {
        // Zero-copy path: rows land in the submitter's arena; walk.paths
        // stays empty on purpose.
        result.walk = scheduler.RunWithWorkersInto(graph_, logic_, pending.batch.starts,
                                                   options_.seed, make_step_, pending.out);
      }
    } catch (...) {
      // A rejected batch (e.g. a start node outside the graph) fails its
      // own future; escaping this dispatcher thread would be
      // std::terminate.
      pending.promise.set_exception(std::current_exception());
      continue;
    }
    result.first_query_id = pending.first_query_id;
    result.batch_index = pending.batch_index;
    batches_completed_.fetch_add(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(result));
  }
}

void WalkService::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    // Claim the dispatcher handles under the lock so concurrent Shutdown
    // calls (e.g. explicit Shutdown racing the destructor) join only once.
    to_join.swap(dispatchers_);
  }
  cv_.notify_all();
  for (std::thread& dispatcher : to_join) {
    if (dispatcher.joinable()) {
      dispatcher.join();
    }
  }
}

uint64_t WalkService::queries_submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_query_id_;
}

std::unique_ptr<WalkService> MakeFlexiWalkerService(const Graph& graph, const WalkLogic& logic,
                                                    FlexiWalkerOptions options, uint64_t seed,
                                                    unsigned pipeline_depth) {
  DeviceContext device(options.device);
  // The engine's one-time phases — the same PrepareFlexiWalker call
  // FlexiWalkerEngine::Run makes, so a served batch reproduces the engine.
  // Owned by the service's kernel_state handle and reused by every batch;
  // the step factory captures a raw pointer into it.
  auto prep = std::make_shared<FlexiPreparation>(PrepareFlexiWalker(graph, logic, options, device));

  WalkService::Options service_options;
  service_options.seed = seed;
  service_options.pipeline_depth = pipeline_depth;
  service_options.scheduler.profile = options.device;
  service_options.scheduler.num_threads = options.host_threads;
  service_options.scheduler.dispense = options.dispense;
  service_options.scheduler.wavefront = options.wavefront;
  service_options.scheduler.preprocessed =
      prep->preprocessed.empty() ? nullptr : &prep->preprocessed;
  service_options.scheduler.int8_weights = prep->int8_store.empty() ? nullptr : &prep->int8_store;

  uint64_t selector_seed = FlexiSelectorSeed(seed);
  const FlexiPreparation* raw = prep.get();
  // The factory runs once per (batch, worker) and builds fresh per-worker
  // state each time, because pipelined batches execute concurrently and
  // would otherwise race on shared selector counters. Selection is a pure
  // function of (strategy, params, helpers, selector_seed), so per-batch
  // state cannot change paths; the service reports no selection tallies, so
  // it passes no sink. A compiled kernel finishing mid-service swaps in at
  // the next batch: the factory polls TryGet() per call, and compiled vs
  // interpreted steps are bit-identical, so the swap is invisible to
  // clients.
  WorkerStepFactory factory = [raw, selector_seed, strategy = options.strategy](
                                  unsigned, DeviceContext&) -> WorkerKernel {
    jit::JitStepFn jit_fn = raw->jit_kernel != nullptr ? raw->jit_kernel->TryGet() : nullptr;
    return MakeFlexiWorkerKernel(*raw, strategy, selector_seed, jit_fn, /*tally=*/nullptr);
  };
  return std::make_unique<WalkService>(graph, logic, std::move(service_options),
                                       std::move(factory), std::move(prep));
}

}  // namespace flexi
