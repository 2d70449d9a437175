#include "src/walker/scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/walker/wavefront.h"

namespace flexi {
namespace {

// Registry series for the scheduler layer, resolved once (obs/metrics.h).
// Workers accumulate into stack-local counters during the drain and fold
// them in with one sharded Add each on the way out — nothing per-step ever
// touches a shared line.
struct SchedulerMetrics {
  obs::Counter& batches;
  obs::Counter& queries;
  obs::Counter& steps;
  obs::Counter& wavefront_passes;
  obs::Counter& dispensed;
  obs::Counter& steals;
  obs::Counter& refills;

  static SchedulerMetrics& Get() {
    static SchedulerMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new SchedulerMetrics{
          registry.GetCounter("flexi_scheduler_batches_total"),
          registry.GetCounter("flexi_scheduler_queries_total"),
          registry.GetCounter("flexi_scheduler_steps_total"),
          registry.GetCounter("flexi_scheduler_wavefront_passes_total"),
          registry.GetCounter("flexi_scheduler_queries_dispensed_total"),
          registry.GetCounter("flexi_scheduler_steals_total"),
          registry.GetCounter("flexi_scheduler_refills_total"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

WalkScheduler::WalkScheduler(SchedulerOptions options)
    : options_(std::move(options)),
      // Resolved at construction time, because Run may later execute on
      // pool threads that carry no ScopedWorkerBudget of their own.
      num_threads_(ResolveWorkerThreads(options_.num_threads)) {}

WalkResult WalkScheduler::Run(const Graph& graph, const WalkLogic& logic,
                              std::span<const NodeId> starts, uint64_t seed,
                              StepKernel step) const {
  return RunWithWorkers(graph, logic, starts, seed,
                        [step](unsigned, DeviceContext&) { return WorkerKernel(step); });
}

WalkResult WalkScheduler::RunWithWorkers(const Graph& graph, const WalkLogic& logic,
                                         std::span<const NodeId> starts, uint64_t seed,
                                         const WorkerStepFactory& make_step) const {
  // One contiguous arena, one row per query; the storage moves into
  // result.paths at drain time, so the classic vector-of-paths result is
  // the arena, not a copy of it.
  PathArena arena(starts.size(), logic.walk_length() + 1);
  WalkResult result = RunWithWorkersInto(graph, logic, starts, seed, make_step, arena.view());
  result.paths = arena.TakeNodes();
  return result;
}

WalkResult WalkScheduler::RunWithWorkersInto(const Graph& graph, const WalkLogic& logic,
                                             std::span<const NodeId> starts, uint64_t seed,
                                             const WorkerStepFactory& make_step,
                                             PathArenaView out) const {
  uint32_t length = logic.walk_length();
  // Contract (see header): the caller's arena rows/stride must fit this
  // run. WalkService::SubmitInto validates user-facing submissions; this
  // assert catches direct scheduler misuse before any out-of-arena write.
  assert(starts.empty() || (out.stride == length + 1 && out.rows >= starts.size()));
  WalkResult result;
  result.path_stride = length + 1;
  result.num_queries = starts.size();

  ValidateStarts(starts, graph.num_nodes());

  // Never occupy more workers than there are queries; tiny batches run inline.
  unsigned workers = static_cast<unsigned>(
      std::clamp<size_t>(starts.size(), 1, num_threads_));

  QueryQueue queue(starts, workers, options_.dispense);
  std::vector<DeviceContext> devices(workers, DeviceContext(options_.profile));
  const uint32_t width = ResolveWavefront(options_.wavefront, graph.MemoryFootprintBytes());

  // One worker: drain the queue through DrainWavefront. Every write a
  // worker makes — path rows, its private DeviceContext — is keyed by the
  // query ids it drew or owned outright, so workers never touch the same
  // memory; the pool's job-completion handshake publishes everything to
  // this thread.
  auto worker_body = [&](unsigned w) {
    DeviceContext& device = devices[w];
    WalkContext ctx{&graph, &device, options_.preprocessed, options_.int8_weights};
    WorkerKernel kernel = make_step(w, device);  // keepalive lives to end of drain

    auto launch = [&](WalkSlot& slot) {
      std::optional<QueryQueue::Query> next = queue.Next(w);
      if (!next.has_value()) {
        return false;
      }
      slot.q = QueryState{};
      // Per-query Philox subsequence: the walk's randomness is a pure
      // function of (seed, global query id), independent of the worker
      // running it, the wavefront slot it lands in, and how batches were
      // carved up.
      slot.q.query_id = options_.query_id_offset + next->id;
      slot.q.start = next->start;
      slot.q.cur = next->start;
      logic.Init(slot.q);
      slot.stream = PhiloxStream(seed, /*subsequence=*/slot.q.query_id);
      slot.path = out.Row(next->id);
      slot.path[0] = slot.q.cur;
      slot.written = 0;
      return true;
    };
    WavefrontTally tally = DrainWavefront(ctx, logic, kernel.step, width, options_.cancel,
                                          launch, [](const WalkSlot&) { return true; });
    SchedulerMetrics& metrics = SchedulerMetrics::Get();
    metrics.steps.Add(tally.steps);
    metrics.wavefront_passes.Add(tally.passes);
  };

  auto t0 = std::chrono::steady_clock::now();
  RunOnWorkers(workers, worker_body);
  auto t1 = std::chrono::steady_clock::now();

  if (obs::MetricsEnabled()) {
    SchedulerMetrics& metrics = SchedulerMetrics::Get();
    metrics.batches.Add(1);
    metrics.queries.Add(starts.size());
    metrics.dispensed.Add(queue.dispensed());
    metrics.steals.Add(queue.steals());
    metrics.refills.Add(queue.refills());
  }

  // Deterministic drain: fold per-worker counters in worker-index order.
  // The counts are integer sums, so the merged totals equal the
  // single-thread totals exactly, whatever the interleaving was.
  CostCounters merged;
  for (unsigned w = 0; w < workers; ++w) {
    merged += devices[w].mem().counters();
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.cost = merged;
  result.sim_ms = options_.profile.SimulatedMsFor(merged);
  result.joules = options_.profile.SimulatedJoulesFor(merged);
  return result;
}

}  // namespace flexi
