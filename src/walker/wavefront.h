// The wavefront drain: the one per-worker walk loop behind both execution
// tiers. WalkScheduler (in-memory) and RunOutOfCoreInto (block-cached) each
// run one DrainWavefront per worker and differ only in what they hand it:
//
//   * launch(slot) -> bool: claims the next walk into the slot — a fresh
//     query from the QueryQueue, or a parked walk re-seeked to its Philox
//     offset — or returns false once the caller's source has drained.
//   * may_continue(slot) -> bool: asked after every step that leaves a walk
//     unfinished whether its next step may run here. In memory the answer
//     is always yes; out of core it is the resident-block range test, and
//     a "no" means the callable has already moved the walk to its park sink.
//   * cancel: an optional token polled at claim and pass boundaries only
//     (SchedulerOptions::cancel); out-of-core runs pass null.
//
// Both callables are template parameters, so nothing on the per-step path
// goes through a std::function or a virtual call; the step kernel itself is
// the non-allocating StepKernel delegate. The determinism argument is the
// one in scheduler.h: each slot consumes its own query's Philox stream in
// step order, so neither the width nor the interleaving of slots nor a park
// between steps can move a draw (docs/ARCHITECTURE.md, "The hot loop").
#ifndef FLEXIWALKER_SRC_WALKER_WAVEFRONT_H_
#define FLEXIWALKER_SRC_WALKER_WAVEFRONT_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sampling/sampler.h"
#include "src/walker/scheduler.h"

namespace flexi {

// One in-flight walk: the query's state, its Philox stream (consumed
// strictly in per-query order), its arena row, and the number of path
// nodes written after the start. `row` is the batch-local arena row, which
// out-of-core runs need to re-park the walk. `path == nullptr` marks an
// idle slot.
struct WalkSlot {
  QueryState q;
  PhiloxStream stream;
  NodeId* path = nullptr;
  uint32_t written = 0;
  uint32_t row = 0;
};

// Work one DrainWavefront did, for the caller's telemetry.
struct WavefrontTally {
  uint64_t steps = 0;
  uint64_t passes = 0;
};

// The width a run uses: an explicit request clamped to [1, kMaxWavefront],
// or for 0 (auto) kDefaultWavefront once the graph's footprint outgrows
// kWavefrontAutoBytes and walk-at-a-time below it — a cache-resident graph
// has no row misses for the staging to overlap.
inline uint32_t ResolveWavefront(uint32_t requested, size_t footprint_bytes) {
  if (requested == 0) {
    return footprint_bytes > kWavefrontAutoBytes ? kDefaultWavefront : 1;
  }
  return std::clamp(requested, 1u, kMaxWavefront);
}

// Rejects a start node the graph does not have. Both tiers call it before
// any walk launches: an out-of-range start would otherwise index past the
// CSR row offsets on its first step.
inline void ValidateStarts(std::span<const NodeId> starts, NodeId num_nodes) {
  for (size_t i = 0; i < starts.size(); ++i) {
    if (starts[i] >= num_nodes) {
      throw std::invalid_argument("start node " + std::to_string(starts[i]) + " (query " +
                                  std::to_string(i) + ") is out of range: the graph has " +
                                  std::to_string(num_nodes) + " nodes");
    }
  }
}

// Drains `launch` through a wavefront of `width` in-flight walks, advancing
// every live slot one step per pass. A launched walk runs until it finishes
// (dead end or full length — the row's padding is already kInvalidNode),
// may_continue turns it away, or the cancel token abandons the pass.
template <typename Launch, typename MayContinue>
WavefrontTally DrainWavefront(const WalkContext& ctx, const WalkLogic& logic, StepKernel step,
                              uint32_t width, const std::atomic<bool>* cancel, Launch&& launch,
                              MayContinue&& may_continue) {
  WavefrontTally tally;
  const uint32_t length = logic.walk_length();
  const Graph& graph = *ctx.graph;
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };

  // Claims the next walk into `slot`, staging its row offsets so the pass
  // that first samples it finds them cached.
  auto claim = [&](WalkSlot& slot) {
    if (!launch(slot)) {
      slot.path = nullptr;
      return false;
    }
    PrefetchRowOffsets(ctx, slot.q.cur);
    return true;
  };

  // Advances `slot` one step; false when the walk leaves the wavefront. The
  // may_continue test reads q.cur *after* logic.Update: a workload may move
  // the walker somewhere other than the sampled neighbor (PPR's teleport),
  // and the post-update node's row is the one the next step reads — which
  // is also why that row's offsets are what gets staged.
  auto advance = [&](WalkSlot& slot) {
    KernelRng rng(slot.stream, ctx.mem());
    StepResult result = step(ctx, logic, slot.q, rng);
    if (!result.ok()) {
      return false;
    }
    NodeId next_node = graph.Neighbor(slot.q.cur, result.index);
    logic.Update(ctx, slot.q, next_node, result.index);
    slot.path[++slot.written] = next_node;
    ++tally.steps;
    ctx.mem().StoreCoalesced(1, sizeof(NodeId));
    if (slot.written == length || !may_continue(slot)) {
      return false;
    }
    PrefetchRowOffsets(ctx, slot.q.cur);
    return true;
  };

  if (length == 0) {
    // Degenerate walks: every query is just its start node, which launch
    // wrote.
    WalkSlot slot;
    while (!cancelled() && launch(slot)) {
    }
    return tally;
  }
  if (width == 1) {
    // Walk-at-a-time: with one walk in flight there is no other slot's work
    // to hide a prefetch behind, so no span staging. The cancellation
    // boundary is the claim: a launched walk always runs to completion.
    WalkSlot slot;
    while (!cancelled() && claim(slot)) {
      while (advance(slot)) {
      }
    }
    return tally;
  }

  std::vector<WalkSlot> slots(width);
  size_t active = 0;
  for (WalkSlot& slot : slots) {
    if (!claim(slot)) {
      break;
    }
    ++active;
  }
  // Abandoning on cancel leaves mid-flight walks where they stand: their
  // rows are never delivered, and no other query's draws depend on theirs.
  while (active > 0 && !cancelled()) {
    ++tally.passes;
    // One pass: each live slot stages the following slot's adjacency +
    // weight spans (whose row offsets the previous pass prefetched) and
    // then takes its own step, so every span prefetch has one slot-step of
    // sampling work to hide behind; the wrap-around stages slot 0 for the
    // next pass. A slot whose walk left relaunches at once, keeping the
    // wavefront full until the source drains.
    for (uint32_t i = 0; i < width; ++i) {
      WalkSlot& slot = slots[i];
      if (slot.path == nullptr) {
        continue;
      }
      WalkSlot& staged = slots[(i + 1) % width];
      if (staged.path != nullptr) {
        PrefetchEdgeSpans(ctx, staged.q.cur);
      }
      if (!advance(slot) && !claim(slot)) {
        --active;
      }
    }
  }
  return tally;
}

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_WAVEFRONT_H_
