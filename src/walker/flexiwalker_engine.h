// The FlexiWalker engine: compile-time specialization (Flexi-Compiler) +
// runtime per-step sampler selection (Flexi-Runtime) + the optimized eRJS /
// eRVS kernels (Flexi-Kernel), executed as the concurrent mixed warp kernel
// of §5.2 with dynamic query scheduling (§5.3).
#ifndef FLEXIWALKER_SRC_WALKER_FLEXIWALKER_ENGINE_H_
#define FLEXIWALKER_SRC_WALKER_FLEXIWALKER_ENGINE_H_

#include <memory>
#include <optional>

#include "src/compiler/generator.h"
#include "src/compiler/jit.h"
#include "src/runtime/cost_model.h"
#include "src/runtime/preprocess.h"
#include "src/sampling/alias.h"
#include "src/walker/engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

struct FlexiWalkerOptions {
  SelectionStrategy strategy = SelectionStrategy::kCostModel;
  // When unset, the EdgeCost ratio is profiled at startup (§5.1).
  std::optional<double> edge_cost_ratio;
  uint32_t degree_threshold = 1000;
  bool use_int8_weights = false;  // §7.2 extension
  // Cached static-walk fast path (ROADMAP serving item): when the workload's
  // transition weight is static (IsStaticTransitionProgram — DeepWalk,
  // unweighted first-order walks), build every node's alias table once via
  // BuildNodeAliasTables and sample each step in O(1) from the cache instead
  // of running the per-step eRJS/eRVS kernels. Same per-node distribution,
  // different RNG draw sequence — paths differ from the uncached
  // configuration but stay bit-identical across thread counts, batch
  // carvings, and engine-vs-service for a fixed seed and options. No effect
  // on dynamic workloads. Off by default so existing one-shot results are
  // unchanged; the serving CLI enables it for static workloads.
  bool cache_static_tables = false;
  DeviceProfile device = DeviceProfile::SimulatedGpu();
  // Host worker threads for the WalkScheduler (0 = process default). Walk
  // paths are bit-identical for any value — see scheduler.h.
  unsigned host_threads = 0;
  // Query-id dispensation (query_queue.h): adaptive chunked claiming with
  // bounded stealing by default, per-query ticketing as the §5.3 reference.
  // Like host_threads, either mode leaves walk paths bit-identical.
  DispenseMode dispense = DispenseMode::kChunkedSteal;
  // Wavefront width for the scheduler's batched inner loop (scheduler.h):
  // in-flight walks each worker advances per pass. 0 = kDefaultWavefront,
  // 1 = walk-at-a-time. Any width leaves walk paths bit-identical; the
  // CLI's --wavefront flag lands here.
  uint32_t wavefront = 0;
  // Compiled step kernels (src/compiler/jit.h): emit the workload's step as
  // one specialized C++ function, compile it to a dlopen'd .so cached by
  // program hash, and run it instead of the interpreted mixed-kernel body.
  // Paths and cost counters are bit-identical either way (jit_test's parity
  // matrix enforces it); kAuto compiles in the background and swaps in when
  // ready, kOn blocks until the kernel is available (or falls back with a
  // warning). Off by default. Any compile/load failure silently degrades to
  // the interpreted kernel, counted in jit_fallbacks_total{reason=...}.
  jit::JitMode jit = jit::JitMode::kOff;
  // On-disk .so cache directory; empty = jit::DefaultCacheDir().
  std::string jit_cache_dir;
};

// Everything FlexiWalker computes once per (graph, workload) before any
// query runs: the generated helper bundle (§4.2), the calibrated cost-model
// parameters (§5.1), the preprocessing reductions, and the optional INT8
// store. Shared by the one-shot engine (rebuilt per Run), the streaming
// WalkService (built once at service construction), and the out-of-core
// runner (which fills it block by block) so they can never drift — a
// service's first batch reproduces an engine Run bit-for-bit.
struct FlexiPreparation {
  GeneratedHelpers helpers;
  CostModelParams params;  // params.edge_cost_ratio is the profiled/pinned ratio
  PreprocessedData preprocessed;
  Int8WeightStore int8_store;
  // One alias table per node when the cached static-walk fast path applies
  // (options.cache_static_tables and a static program); empty otherwise.
  // Non-empty tables route every step through CachedAliasStep.
  std::vector<AliasTable> static_tables;
  // The compiled step kernel (possibly still compiling, possibly failed);
  // null when options.jit was kOff or the emitter rejected the program.
  // Holding the preparation pins the dlopen'd code.
  std::shared_ptr<jit::JitKernel> jit_kernel;
  // Simulated cost of the profiling / preprocessing phases (Table 3);
  // zero when the phase was skipped.
  double profile_sim_ms = 0.0;
  double preprocess_sim_ms = 0.0;
};

// Runs the one-time phases, charging profiling and preprocessing traffic to
// `device`.
FlexiPreparation PrepareFlexiWalker(const Graph& graph, const WalkLogic& logic,
                                    const FlexiWalkerOptions& options, DeviceContext& device);

// The walk seed's derived selection-RNG seed — one definition so the engine
// and the serving factory can't disagree.
inline uint64_t FlexiSelectorSeed(uint64_t seed) { return seed ^ 0x5E1EC7; }

// Emits the workload's step kernel and fetches it from (or starts compiling
// it into) the process-wide kernel cache, as options.jit asks. Null for kOff
// and for programs the emitter rejects (counted as an unsupported_program
// fallback); with kOn, a kernel that cannot be produced prints a warning and
// the run stays interpreted. PrepareFlexiWalker and the out-of-core runner
// both get their kernel here.
std::shared_ptr<jit::JitKernel> PrepareFlexiJit(const WalkLogic& logic,
                                                const FlexiWalkerOptions& options,
                                                bool use_static_tables);

// Builds one worker's FlexiWalker kernel for one run — the factory body the
// one-shot engine, the serving WalkService, and the out-of-core runner all
// share. The step is the mixed kernel of §5.2: ballot accounting, per-step
// eRJS/eRVS selection, then eRJS or warp-cooperative eRVS — compiled when
// `jit_fn` is non-null (the caller resolves it from prep.jit_kernel), and
// replaced by an O(1) alias lookup when prep.static_tables is non-empty.
// The kRandom strategy's coin flips come from a per-(query, step) Philox
// position keyed on `selector_seed`, never from worker-shared state, so
// selection — and therefore paths — stays seed-stable under threading and
// across service batches.
//
// Per-worker state (a SamplerSelector, or a JitStepState plus a pin on the
// compiled code) rides in the returned keepalive, so the delegate itself
// stays a non-allocating pointer capture. When the worker's drain releases
// it, the worker's selection tally is added to `*tally`; pass null to drop
// it. A sink must be touched by one worker at a time — callers pass one per
// worker index. `prep` must outlive the run.
WorkerKernel MakeFlexiWorkerKernel(const FlexiPreparation& prep, SelectionStrategy strategy,
                                   uint64_t selector_seed, jit::JitStepFn jit_fn,
                                   SelectionCounters* tally);

class FlexiWalkerEngine : public Engine {
 public:
  explicit FlexiWalkerEngine(FlexiWalkerOptions options = {});

  std::string name() const override;
  WalkResult Run(const Graph& graph, const WalkLogic& logic, std::span<const NodeId> starts,
                 uint64_t seed) override;

  // Exposed for tests and the Table 3 bench: the generated helper bundle and
  // preprocessed arrays of the last Run.
  const GeneratedHelpers& helpers() const { return helpers_; }
  double last_profiled_ratio() const { return last_profiled_ratio_; }

 private:
  FlexiWalkerOptions options_;
  GeneratedHelpers helpers_;
  double last_profiled_ratio_ = 0.0;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_FLEXIWALKER_ENGINE_H_
