// Common types for one-step neighbor sampling kernels.
//
// Every kernel answers the same question: at the query's current node v,
// draw neighbor index i with probability w̃(i) / Σ w̃ where w̃ = w * h
// (Eq. 1). Kernels differ in their auxiliary structures, memory traffic and
// RNG consumption — precisely the trade-offs the paper studies (§2.2, §3).
//
// Concurrency contract: the WalkScheduler invokes step kernels from many
// worker threads at once. A kernel may only touch the read-only WalkContext
// pointers (graph / preprocessed / int8 weights), the query's own state, and
// the KernelRng + MemoryModel it was handed — both are private to the
// calling worker. No kernel may keep mutable static or global state.
#ifndef FLEXIWALKER_SRC_SAMPLING_SAMPLER_H_
#define FLEXIWALKER_SRC_SAMPLING_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/rng/philox.h"
#include "src/simt/memory_model.h"
#include "src/walks/walk_context.h"
#include "src/walks/walk_logic.h"

namespace flexi {

inline constexpr uint32_t kNoIndex = std::numeric_limits<uint32_t>::max();

enum class SamplerKind {
  kAlias,             // ALS — Skywalker
  kInverseTransform,  // ITS — C-SAW
  kRejection,         // RJS — NextDoor
  kReservoir,         // RVS — FlowWalker
  kERjs,              // eRJS — this paper, §3.3
  kERvs,              // eRVS — this paper, §3.2
};

const char* SamplerKindName(SamplerKind kind);

struct StepResult {
  uint32_t index = kNoIndex;  // selected neighbor index, kNoIndex if none
  bool dead_end = false;      // all transition weights were zero

  bool ok() const { return index != kNoIndex; }
};

// RNG adapter that charges every draw to the device so kernels cannot forget
// to account for random-number generation.
class KernelRng {
 public:
  KernelRng(PhiloxStream& stream, MemoryModel& mem) : stream_(stream), mem_(mem) {}

  double Uniform() {
    mem_.CountRng(1);
    return stream_.NextUniform();
  }
  double UniformOpen() {
    mem_.CountRng(1);
    return stream_.NextUniformOpen();
  }
  uint32_t Bounded(uint32_t bound) {
    mem_.CountRng(1);
    return stream_.NextBounded(bound);
  }
  double Exponential() {
    mem_.CountRng(1);
    return stream_.NextExponential();
  }

  PhiloxStream& stream() { return stream_; }

 private:
  PhiloxStream& stream_;
  MemoryModel& mem_;
};

// --- Prefetch hints for batched (wavefront) execution ------------------
//
// The wavefront loop (src/walker/wavefront.h) advances W in-flight walks
// one step per pass and stages the *next* access's cache lines while the
// current slot samples — the CPU recovery of the memory-level parallelism
// the paper's warp-lockstep kernels get for free. These are hints only:
// they charge nothing to the device model, touch no state, and cannot
// affect a sampled path; on compilers without __builtin_prefetch they
// compile to nothing.

inline void PrefetchHint(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// How much of a row's adjacency / weight span one hint pulls in. Four cache
// lines covers the whole row for degrees up to 64 (NodeId) — beyond that the
// kernels' sequential scans trigger the hardware streamer anyway.
inline constexpr size_t kPrefetchSpanBytes = 256;

inline void PrefetchSpan(const void* p, size_t bytes) {
  const char* c = static_cast<const char*>(p);
  size_t n = bytes < kPrefetchSpanBytes ? bytes : kPrefetchSpanBytes;
  for (size_t off = 0; off < n; off += 64) {
    PrefetchHint(c + off);
  }
}

// Stage v's CSR row offsets (EdgesBegin and the closing offset that yields
// the degree). Issued when a step decides its next node, one full pass
// before that node is sampled.
inline void PrefetchRowOffsets(const WalkContext& ctx, NodeId v) {
  const EdgeId* row = ctx.graph->row_offsets().data() + v;
  PrefetchHint(row);
  PrefetchHint(row + 1);
}

// Stage the leading cache lines of v's adjacency span and its property
// weight span (float array, or the INT8 code array when that store is
// active). Reads the row offsets — which PrefetchRowOffsets staged a pass
// earlier — to compute the span addresses. Issued at the head of a pass,
// several slot-steps before the kernel scans the row.
inline void PrefetchEdgeSpans(const WalkContext& ctx, NodeId v) {
  const Graph& g = *ctx.graph;
  uint32_t degree = g.Degree(v);
  if (degree == 0) {
    return;
  }
  // Row-addressed spans, not raw-array-plus-global-EdgeId: on a block view
  // (Graph::BlockView) the edge arrays hold only the resident block, so the
  // row helpers apply the view's edge_base translation.
  PrefetchSpan(g.Neighbors(v).data(), static_cast<size_t>(degree) * sizeof(NodeId));
  if (ctx.int8_weights != nullptr && !ctx.int8_weights->empty()) {
    // The INT8 store is always a full-graph array (quantization is
    // in-memory-only), so global edge ids index it directly.
    PrefetchSpan(ctx.int8_weights->codes().data() + g.EdgesBegin(v), degree);
  } else if (g.weighted()) {
    PrefetchSpan(g.NeighborWeights(v).data(), static_cast<size_t>(degree) * sizeof(float));
  }
}

// Charges the memory traffic of one full scan over the adjacency and
// property weights of `count` neighbors (coalesced CSR access).
inline void ChargeWeightScan(const WalkContext& ctx, uint32_t count) {
  ctx.mem().LoadCoalesced(1, static_cast<size_t>(count) * (sizeof(NodeId) + ctx.HBytes()));
}

// Charges one random (uncoalesced) access to a single adjacency entry and
// its property weight — the per-trial cost of rejection sampling.
inline void ChargeRandomEdgeLoad(const WalkContext& ctx) {
  ctx.mem().LoadRandom(sizeof(NodeId) + ctx.HBytes());
}

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_SAMPLING_SAMPLER_H_
