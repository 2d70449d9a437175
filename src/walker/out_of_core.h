// Out-of-core walk execution: run walks over a block-partitioned graph
// (block_store.h) whose edges do not fit in memory.
//
// The design follows the block-cache + walk-parking architecture of
// out-of-core walk systems: a bounded GraphCache holds N resident edge
// blocks, every not-currently-executing walk is *parked* in the buffer of
// the block holding its current node's row, and the driver repeatedly (1)
// asks the BlockScheduler for the next block — by pending-walk count and
// I/O cost — (2) makes it resident, and (3) runs the block's parked walks
// to their next block boundary through DrainWavefront (wavefront.h), the
// same loop the in-memory WalkScheduler runs, with a residency test as its
// may-continue predicate and the block buffers as its park sink. A walk
// whose next row lies outside the resident block re-parks; one whose walk
// completes (full length or dead end) retires.
//
// Eligibility: first-order workloads only (IsFirstOrderProgram) — a step at
// node v may read only v's row, so block residency of v is sufficient.
// Second-order workloads (Node2Vec, 2nd-order PageRank) probe the previous
// node's adjacency and are rejected.
//
// Determinism contract (identical to scheduler.h): a walk's randomness is
// PhiloxStream(seed, query_id), consumed strictly in step order. A parked
// walk records its stream offset and the stream is reconstructed there on
// resume — seek-then-read is bit-identical to sequential consumption
// (philox.h) — so park/resume interleaving, cache size, block size, thread
// count, wavefront width, and dispensation mode can never change a path:
// out-of-core paths are bit-identical to the in-memory engine's
// (outofcore_test.cc, OutOfCoreMatchesInMemory*).
#ifndef FLEXIWALKER_SRC_WALKER_OUT_OF_CORE_H_
#define FLEXIWALKER_SRC_WALKER_OUT_OF_CORE_H_

#include <cstdint>
#include <span>

#include "src/graph/block_store.h"
#include "src/graph/graph_cache.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

struct OutOfCoreOptions {
  // Resident-block budget (GraphCache capacity). The run's edge-array
  // memory is bounded by cache_blocks * block payload bytes.
  uint32_t cache_blocks = 4;
  unsigned num_threads = 0;  // 0 => DefaultWorkerThreads()
  // Wavefront width inside a resident block (scheduler.h semantics):
  // 0 = auto by the *full* graph's payload footprint, 1 = walk-at-a-time.
  uint32_t wavefront = 0;
  // Dispensation of a block's parked-walk buffer across workers; same modes
  // and determinism guarantees as the in-memory tier (query_queue.h).
  DispenseMode dispense = DispenseMode::kChunkedSteal;
  uint64_t query_id_offset = 0;
  DeviceProfile profile = DeviceProfile::SimulatedGpu();
  const PreprocessedData* preprocessed = nullptr;
  const Int8WeightStore* int8_weights = nullptr;
};

struct OutOfCoreStats {
  uint64_t block_loads = 0;        // disk reads (GraphCache misses)
  uint64_t block_evictions = 0;
  uint64_t cache_hits = 0;
  uint64_t bytes_read = 0;         // payload bytes loaded from disk
  uint64_t parks = 0;              // walk re-parks at block boundaries
  uint64_t block_activations = 0;  // scheduler picks (a block may run many times)
};

// Picks the next block to execute. Policy: among blocks with parked walks,
// prefer a resident one with the most pending walks (zero I/O); otherwise
// load the block with the best pending-walks-per-payload-byte ratio, so a
// nearly-free small block beats a marginally-more-pending huge one. Ties
// break toward the lowest block id — the policy is deterministic, though
// paths never depend on it.
class BlockScheduler {
 public:
  BlockScheduler(const BlockStore* store, const GraphCache* cache)
      : store_(store), cache_(cache) {}

  // `pending[b]` = parked walks on block b; at least one entry must be
  // non-zero. Returns the chosen block id.
  uint32_t PickNext(std::span<const uint64_t> pending) const;

 private:
  const BlockStore* store_;
  const GraphCache* cache_;
};

// Runs every query in `starts` to completion over the partitioned graph,
// using `cache` for residency. `logic` must be first-order
// (IsFirstOrderProgram) and every start a node of the store — throws
// std::invalid_argument otherwise, before any walk launches. The
// result's paths live in a result-owned arena exactly like
// WalkScheduler::RunWithWorkers; RunOutOfCoreInto writes into caller-owned
// storage under the same contract as RunWithWorkersInto (stride ==
// walk_length + 1, rows prefilled with kInvalidNode).
WalkResult RunOutOfCore(const BlockStore& store, GraphCache& cache, const WalkLogic& logic,
                        std::span<const NodeId> starts, uint64_t seed,
                        const WorkerStepFactory& make_step, const OutOfCoreOptions& options,
                        OutOfCoreStats* stats = nullptr);
WalkResult RunOutOfCoreInto(const BlockStore& store, GraphCache& cache, const WalkLogic& logic,
                            std::span<const NodeId> starts, uint64_t seed,
                            const WorkerStepFactory& make_step, const OutOfCoreOptions& options,
                            PathArenaView out, OutOfCoreStats* stats = nullptr);

// Streamed h_MAX / h_SUM preprocessing: one pass over the blocks through
// `cache`, computing each node's reductions with the same per-row
// arithmetic as RunPreprocess — the arrays are bit-identical to the
// in-memory preprocess, which the out-of-core parity guarantee depends on
// (bound estimators read them).
PreprocessedData PreprocessOutOfCore(const BlockStore& store, GraphCache& cache,
                                     const PreprocessPlan& plan, DeviceContext& device);

// FlexiWalker over a block store: the out-of-core counterpart of
// FlexiWalkerEngine::Run. Requirements beyond first-order logic:
//   * options.edge_cost_ratio must be pinned — profiling samples the whole
//     graph, which is exactly what out-of-core execution cannot assume is
//     loadable. Pin the same ratio on the in-memory engine to compare runs.
//   * use_int8_weights and cache_static_tables are rejected: both build
//     O(edges) resident structures, defeating the memory bound.
// With the same seed, starts, and pinned options, paths are bit-identical
// to FlexiWalkerEngine::Run on the unpartitioned graph.
WalkResult RunFlexiWalkerOutOfCore(const BlockStore& store, const WalkLogic& logic,
                                   const FlexiWalkerOptions& options, uint32_t cache_blocks,
                                   std::span<const NodeId> starts, uint64_t seed,
                                   OutOfCoreStats* stats = nullptr);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_OUT_OF_CORE_H_
