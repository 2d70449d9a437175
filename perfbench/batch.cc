// The two batch workloads.
//
// n2v-offline-big: the paper's headline dynamic walk (node2vec, a=2, b=0.5,
// length 80) as one-shot FlexiWalkerEngine::Run calls with the cost-model
// selector and compiled step kernels, on an R-MAT graph at least 4x the
// LLC. The run is a sequence of fixed-size batches of seeded start nodes;
// steps_per_s, op_p50_us (one walk call) and sim_ms are medians over the
// batches.
//
// ooc-deepwalk-half: deepwalk-80 through RunFlexiWalkerOutOfCore over the
// same graph's block file, with a GraphCache of half the blocks and a
// pinned edge-cost ratio, so block loads, evictions, parks and
// re-activations all happen inside every call.
//
// Both check every returned row against the graph (CountBadRows) and a
// sample of rows against a reference run: interpreted vs compiled for
// node2vec, in-memory vs out-of-core for deepwalk.
#include <algorithm>
#include <memory>
#include <string>

#include "perfbench/trace_reduce.h"
#include "perfbench/workloads.h"
#include "src/compiler/jit.h"
#include "src/graph/block_store.h"
#include "src/graph/io.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"

namespace perfbench {
namespace {

// One timed walk call: its wall time, sampled steps and simulated time.
struct BatchSample {
  double wall_s = 0.0;
  uint64_t steps = 0;
  double sim_ms = 0.0;
  double scheduler_ms = 0.0;
};

// Aggregates of one measured pass (untraced, or traced).
struct PassResult {
  std::vector<BatchSample> batches;
  flexi::CostCounters cost;
  flexi::SelectionCounters selection;
  double wall_s = 0.0;  // sum of walk-call wall time

  double StepsPerSecond() const {
    std::vector<double> rates;
    for (const BatchSample& b : batches) {
      rates.push_back(static_cast<double>(b.steps) / b.wall_s);
    }
    return Median(rates);
  }
  double CallP50Us() const {
    std::vector<double> walls;
    for (const BatchSample& b : batches) {
      walls.push_back(b.wall_s * 1e6);
    }
    return Median(walls);
  }
  double SimMs() const {
    std::vector<double> sims;
    for (const BatchSample& b : batches) {
      sims.push_back(b.sim_ms);
    }
    return Median(sims);
  }
  uint64_t Steps() const {
    uint64_t steps = 0;
    for (const BatchSample& b : batches) {
      steps += b.steps;
    }
    return steps;
  }
};

// Runs `walk_call(batch_index)` until `seconds` of wall time have passed
// (at least `min_batches` calls), timing each call. `walk_call` returns the
// call's WalkResult and its starts; `check` validates the rows outside the
// timed region.
template <typename Call, typename Check>
PassResult MeasurePass(double seconds, int min_batches, uint64_t first_batch, Call&& walk_call,
                       Check&& check) {
  PassResult pass;
  double deadline = NowSeconds() + seconds;
  for (uint64_t b = first_batch; pass.batches.empty() || NowSeconds() < deadline ||
                                 static_cast<int>(pass.batches.size()) < min_batches;
       ++b) {
    double t0 = NowSeconds();
    auto [result, starts] = walk_call(b);
    double t1 = NowSeconds();
    BatchSample sample;
    sample.wall_s = t1 - t0;
    sample.steps = CountSteps(result.paths, result.path_stride);
    sample.sim_ms = result.sim_ms;
    sample.scheduler_ms = result.wall_ms;
    pass.batches.push_back(sample);
    pass.cost += result.cost;
    pass.selection += result.selection;
    pass.wall_s += sample.wall_s;
    deadline += NowSeconds() - t1;  // checks are not part of the run time
    check(b, result, starts);
  }
  return pass;
}

std::string BatchRates(const PassResult& pass) {
  std::string text;
  for (const BatchSample& b : pass.batches) {
    text += ' ';
    text += std::to_string(static_cast<int64_t>(static_cast<double>(b.steps) / b.wall_s));
  }
  return text;
}

// The end-to-end metrics of a batch workload's untraced pass.
void ReportBatchEndToEnd(Report& report, const PassResult& pass, double setup_s,
                         double peak_rss) {
  report.Metric("setup_s", setup_s, "s");
  report.Metric("steps_per_s", pass.StepsPerSecond(), "1/s");
  report.Metric("op_p50_us", pass.CallP50Us(), "us");
  report.Metric("peak_rss_mb", peak_rss, "MiB");
  report.Metric("success_ratio", report.SuccessRatio(), "ratio");
}

// Per-layer metrics every batch workload derives from a traced pass.
void ReportWalkerLayers(Report& report, const PassResult& pass, const RegistryValues& before,
                        const RegistryValues& after, unsigned threads) {
  const double steps = static_cast<double>(std::max<uint64_t>(pass.Steps(), 1));
  const double batches = static_cast<double>(pass.batches.size());
  report.Metric("sampling.rng_draws_per_step", pass.cost.rng_draws / steps, "count");
  report.Metric("sampling.random_tx_per_step", pass.cost.random_transactions / steps, "count");
  report.Metric("sampling.coalesced_tx_per_step", pass.cost.coalesced_transactions / steps,
                "count");
  report.Metric("sampling.bytes_per_step", pass.cost.bytes_read / steps, "B");
  std::vector<double> scheduler_s;
  for (const BatchSample& b : pass.batches) {
    scheduler_s.push_back(b.scheduler_ms / 1e3);
  }
  report.Metric("scheduler.walk_s", Median(scheduler_s), "s");
  // The WalkScheduler's own counters exist only where it ran the walks
  // (the out-of-core driver has its own loop).
  if (RegistryDelta(before, after, "flexi_scheduler_batches_total") > 0) {
    double passes = RegistryDelta(before, after, "flexi_scheduler_wavefront_passes_total");
    double sched_steps = RegistryDelta(before, after, "flexi_scheduler_steps_total");
    report.Metric("scheduler.steps_per_pass", passes > 0 ? sched_steps / passes : 0.0, "count");
    report.Metric("scheduler.steals",
                  RegistryDelta(before, after, "flexi_scheduler_steals_total") / batches, "count");
    report.Metric("scheduler.refills",
                  RegistryDelta(before, after, "flexi_scheduler_refills_total") / batches,
                  "count");
  }
  report.Metric("pool.busy_share",
                RegistryDelta(before, after, "flexi_worker_busy_us_total") /
                    (pass.wall_s * 1e6 * threads),
                "ratio");
}

}  // namespace

int RunN2vOfflineBig(const Args& args, Report& report) {
  const unsigned threads = HostThreads();
  const size_t batch_queries = args.tiny ? 256 : 32768;
  const size_t parity_queries = args.tiny ? 64 : 2048;
  flexi::Node2VecWalk walk(2.0, 0.5, 80);
  flexi::FlexiWalkerOptions options;
  options.jit = flexi::jit::JitMode::kOn;
  options.host_threads = threads;

  // Set-up, several times: graph load, then PrepareFlexiWalker (profile,
  // preprocess, and a JIT compile into a fresh cache directory).
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> prepare_s;
  std::vector<double> compile_ms;
  double fallbacks = 0.0;
  Graph graph;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    flexi::jit::KernelCache::Global().ResetForTest();
    graph = Graph();
    RegistryValues before = SnapshotRegistry();
    double t0 = NowSeconds();
    graph = flexi::ReadBinaryFile(args.graph);
    double t1 = NowSeconds();
    options.jit_cache_dir = FreshJitDir(args, "n2v");
    flexi::DeviceContext device(options.device);
    flexi::FlexiPreparation prep = flexi::PrepareFlexiWalker(graph, walk, options, device);
    double t2 = NowSeconds();
    RegistryValues after = SnapshotRegistry();
    double compile = RegistryDelta(before, after, "jit_compile_ms_sum");
    setup_s.push_back(t2 - t0);
    load_s.push_back(t1 - t0);
    prepare_s.push_back(t2 - t1 - compile / 1e3);
    compile_ms.push_back(compile);
    fallbacks += RegistryDelta(before, after, "jit_fallbacks_total");
    if (prep.jit_kernel == nullptr || prep.jit_kernel->TryGet() == nullptr) {
      report.Fail(1, "no compiled node2vec kernel");
    }
    RemoveTree(options.jit_cache_dir);  // the loaded kernel stays mapped
  }
  report.Note("graph " + std::to_string(graph.num_nodes()) + " nodes, " +
              std::to_string(graph.num_edges()) + " edges, " +
              std::to_string(graph.MemoryFootprintBytes() >> 20) + " MiB");

  flexi::FlexiWalkerEngine engine(options);
  auto call = [&](uint64_t b) {
    std::vector<NodeId> starts = SeededStarts(args.seed, b, graph.num_nodes(), batch_queries);
    flexi::WalkResult result = engine.Run(graph, walk, starts, args.seed);
    return std::make_pair(std::move(result), std::move(starts));
  };
  auto check = [&](uint64_t b, flexi::WalkResult& result, const std::vector<NodeId>& starts) {
    if (args.corrupt && b == 0) {
      result.paths[1] = result.paths[1] == 0 ? 1 : result.paths[1] - 1;
    }
    report.Attempt(starts.size());
    report.Fail(CountBadRows(graph, starts, result.paths, result.path_stride, threads),
                "node2vec rows that are not walks of the graph");
    if (b == 0) {
      // Compiled rows equal interpreted rows: the first queries of the
      // batch have the same query ids in both runs.
      flexi::FlexiWalkerOptions interpreted = options;
      interpreted.jit = flexi::jit::JitMode::kOff;
      std::span<const NodeId> sample(starts.data(), std::min(parity_queries, starts.size()));
      flexi::WalkResult reference =
          flexi::FlexiWalkerEngine(interpreted).Run(graph, walk, sample, args.seed);
      std::span<const NodeId> compiled(result.paths.data(), reference.paths.size());
      report.Fail(CountRowMismatches(compiled, reference.paths, result.path_stride),
                  "compiled rows that differ from interpreted rows");
    }
  };

  RegistryValues run_before = SnapshotRegistry();
  PassResult pass = MeasurePass(args.seconds, 3, 0, call, check);
  double peak_rss = PeakRssMb();
  fallbacks += RegistryDelta(run_before, SnapshotRegistry(), "jit_fallbacks_total");
  if (fallbacks > 0) {
    report.Fail(static_cast<uint64_t>(fallbacks), "JIT fallbacks (interpreted kernel ran)");
  }
  report.Note("batches " + std::to_string(pass.batches.size()) + ", steps " +
              std::to_string(pass.Steps()) + ", steps/s per batch:" + BatchRates(pass));

  if (!args.trace) {
    ReportBatchEndToEnd(report, pass, Median(setup_s), peak_rss);
    return 0;
  }

  TracedRun traced;
  PassResult traced_pass = MeasurePass(args.seconds, 3, 1000, call, check);
  traced.Finish();
  report.Metric("sim_ms", pass.SimMs(), "ms");
  report.Metric("graph.load_s", Median(load_s), "s");
  report.Metric("runtime.prepare_s", Median(prepare_s), "s");
  report.Metric("compiler.jit_compile_ms", Median(compile_ms), "ms");
  report.Metric("compiler.jit_fallbacks", fallbacks, "count");
  const flexi::SelectionCounters& sel = traced_pass.selection;
  report.Metric("runtime.rjs_share",
                static_cast<double>(sel.chose_rjs) /
                    static_cast<double>(std::max<uint64_t>(sel.chose_rjs + sel.chose_rvs, 1)),
                "ratio");
  ReportWalkerLayers(report, traced_pass, traced.before, traced.after, threads);
  report.Metric("obs.trace_overhead", pass.StepsPerSecond() / traced_pass.StepsPerSecond(),
                "ratio");
  return 0;
}

int RunOocDeepwalkHalf(const Args& args, Report& report) {
  const unsigned threads = HostThreads();
  const size_t batch_queries = args.tiny ? 256 : 16384;
  const size_t parity_queries = args.tiny ? 256 : 4096;
  flexi::DeepWalk walk(80);
  flexi::FlexiWalkerOptions options;
  options.edge_cost_ratio = kPinnedEdgeCostRatio;
  // One walk thread: each activation then runs inline. With all threads,
  // most of the ~190k activations per call hand a few walks to the pool,
  // and the cost of those wake-ups swung steps_per_s 3x between runs with
  // the host's CPU steal (README.md).
  options.host_threads = 1;

  std::vector<double> setup_s;
  std::unique_ptr<flexi::BlockStore> store;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    double t0 = NowSeconds();
    store = std::make_unique<flexi::BlockStore>(flexi::BlockStore::Open(args.blocks));
    setup_s.push_back(NowSeconds() - t0);
  }
  const uint32_t cache_blocks =
      std::max<uint32_t>(1, static_cast<uint32_t>(store->num_blocks() / 2));
  report.Note("block store " + std::to_string(store->num_blocks()) + " blocks, cache " +
              std::to_string(cache_blocks));

  flexi::OutOfCoreStats untraced_stats;
  flexi::OutOfCoreStats traced_stats;
  flexi::OutOfCoreStats* stats_sink = &untraced_stats;  // the pass being measured
  auto call = [&](uint64_t b) {
    std::vector<NodeId> starts = SeededStarts(args.seed, b, store->num_nodes(), batch_queries);
    flexi::OutOfCoreStats stats;
    flexi::WalkResult result = flexi::RunFlexiWalkerOutOfCore(*store, walk, options, cache_blocks,
                                                              starts, args.seed, &stats);
    stats_sink->block_loads += stats.block_loads;
    stats_sink->block_evictions += stats.block_evictions;
    stats_sink->cache_hits += stats.cache_hits;
    stats_sink->bytes_read += stats.bytes_read;
    stats_sink->parks += stats.parks;
    stats_sink->block_activations += stats.block_activations;
    return std::make_pair(std::move(result), std::move(starts));
  };
  // Rows are checked after the pass against the in-memory graph, which is
  // loaded only then so the out-of-core process's peak RSS stays the
  // tier's own.
  std::vector<std::pair<flexi::WalkResult, std::vector<NodeId>>> kept;
  auto keep = [&](uint64_t b, flexi::WalkResult& result, const std::vector<NodeId>& starts) {
    if (args.corrupt && b == 0) {
      result.paths[1] = result.paths[1] == 0 ? 1 : result.paths[1] - 1;
    }
    kept.emplace_back(std::move(result), starts);
  };

  PassResult pass = MeasurePass(args.seconds, 3, 0, call, keep);
  double peak_rss = PeakRssMb();
  PassResult traced_pass;
  std::unique_ptr<TracedRun> traced;
  if (args.trace) {
    stats_sink = &traced_stats;
    traced = std::make_unique<TracedRun>();
    traced_pass = MeasurePass(args.seconds, 3, 1000, call, keep);
    traced->Finish();
  }

  Graph graph = flexi::ReadBinaryFile(args.graph);
  for (auto& [result, starts] : kept) {
    report.Attempt(starts.size());
    report.Fail(CountBadRows(graph, starts, result.paths, result.path_stride, threads),
                "out-of-core rows that are not walks of the graph");
  }
  {
    // Out-of-core rows equal the in-memory engine's rows (same pinned
    // options, same seed, same query ids).
    const auto& [result, starts] = kept.front();
    std::span<const NodeId> sample(starts.data(), std::min(parity_queries, starts.size()));
    flexi::WalkResult reference = flexi::FlexiWalkerEngine(options).Run(graph, walk, sample,
                                                                        args.seed);
    std::span<const NodeId> ooc_rows(result.paths.data(), reference.paths.size());
    report.Fail(CountRowMismatches(ooc_rows, reference.paths, result.path_stride),
                "out-of-core rows that differ from in-memory rows");
  }
  report.Note("batches " + std::to_string(pass.batches.size()) + ", loads " +
              std::to_string(untraced_stats.block_loads) + ", steps " +
              std::to_string(pass.Steps()) + ", steps/s per batch:" + BatchRates(pass));

  if (!args.trace) {
    ReportBatchEndToEnd(report, pass, Median(setup_s), peak_rss);
    return 0;
  }

  const flexi::OutOfCoreStats& s = traced_stats;
  const double steps = static_cast<double>(std::max<uint64_t>(traced_pass.Steps(), 1));
  const double batches = static_cast<double>(traced_pass.batches.size());
  report.Metric("sim_ms", pass.SimMs(), "ms");
  report.Metric("graph.block_open_s", Median(setup_s), "s");
  report.Metric("graph_cache.loads", s.block_loads / batches, "count");
  report.Metric("graph_cache.hit_rate",
                static_cast<double>(s.cache_hits) /
                    static_cast<double>(std::max<uint64_t>(s.cache_hits + s.block_loads, 1)),
                "ratio");
  report.Metric("graph_cache.evictions", s.block_evictions / batches, "count");
  report.Metric("graph_cache.read_mib", s.bytes_read / 1048576.0 / batches, "MiB");
  report.Metric("ooc.parks_per_step", s.parks / steps, "ratio");
  report.Metric("ooc.activations", s.block_activations / batches, "count");
  report.Metric("ooc.steps_per_activation",
                steps / static_cast<double>(std::max<uint64_t>(s.block_activations, 1)), "count");
  ReportWalkerLayers(report, traced_pass, traced->before, traced->after, options.host_threads);
  report.Metric("obs.trace_overhead", pass.StepsPerSecond() / traced_pass.StepsPerSecond(),
                "ratio");
  return 0;
}

}  // namespace perfbench
