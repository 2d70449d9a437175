// Header-only step-kernel primitives, shared by the interpreted kernels and
// by JIT-compiled step functions.
//
// The bodies below are the eRJS / eRVS kernels of rejection.cc and
// reservoir.cc, lifted verbatim into function templates parameterized on a
// weight functor (float operator()(uint32_t i) -> w̃ of neighbor i). The
// interpreted kernels instantiate them with a functor that calls
// WalkLogic::TransitionWeight; the source the step emitter
// (src/compiler/step_emitter.cc) generates #includes this header and
// instantiates the very same templates with the workload's weight expression
// inlined. Because both sides execute identical template bodies, compiled
// and interpreted kernels consume Philox draws in exactly the same order and
// perform the same float/double arithmetic — the RNG-order invariant the
// compiled-vs-interpreted parity matrix pins down.
//
// Nothing here may depend on out-of-line sampling code: a JIT-emitted .so is
// compiled standalone against the repo headers and resolves any remaining
// out-of-line symbols (Philox refill, Graph::HasEdge, MemoryModel) from the
// host executable at dlopen time.
#ifndef FLEXIWALKER_SRC_SAMPLING_STEP_INLINE_H_
#define FLEXIWALKER_SRC_SAMPLING_STEP_INLINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sampling/sampler.h"
#include "src/simt/warp.h"

namespace flexi {

struct RejectionStats {
  uint64_t trials = 0;
  uint64_t fallback_scans = 0;
};

struct ReservoirStats {
  uint64_t keys_generated = 0;  // explicit key computations (RNG + pow)
  uint64_t neighbors_scanned = 0;
};

// Shared trial loop; returns kNoIndex when the trial budget is exhausted.
// Charging: the first trial pulls the node's adjacency line into cache
// (full random transaction); subsequent trials on the same node hit that
// line for the neighbor id, but on weighted graphs each trial still pays a
// random load for its property weight — the weight array is too large for
// spatial reuse. This is exactly why RJS degrades on weighted workloads
// relative to unweighted ones (Fig. 3a vs 3b).
template <typename WeightFn>
uint32_t TrialLoopT(const WalkContext& ctx, const WeightFn& weight, KernelRng& rng, double bound,
                    uint32_t degree, uint64_t max_trials, RejectionStats* stats) {
  bool weighted = ctx.graph->weighted();
  for (uint64_t t = 0; t < max_trials; ++t) {
    uint32_t x = rng.Bounded(degree);
    double y = rng.Uniform() * bound;
    if (t == 0) {
      ChargeRandomEdgeLoad(ctx);
    } else if (weighted) {
      ctx.mem().LoadRandom(ctx.HBytes());
    } else {
      ctx.mem().CountAlu(2);  // cached adjacency probe
    }
    double w = weight(x);
    if (stats != nullptr) {
      ++stats->trials;
    }
    if (y < w) {
      return x;
    }
  }
  return kNoIndex;
}

// Full-scan fallback: exact inversion, used when trials keep failing (tiny
// acceptance area or an all-zero weight row).
template <typename WeightFn>
StepResult ScanFallbackT(const WalkContext& ctx, const WeightFn& weight, KernelRng& rng,
                         uint32_t degree, RejectionStats* stats) {
  if (stats != nullptr) {
    ++stats->fallback_scans;
  }
  ChargeWeightScan(ctx, degree);
  std::vector<double> prefix(degree);
  double running = 0.0;
  for (uint32_t i = 0; i < degree; ++i) {
    running += weight(i);
    prefix[i] = running;
  }
  StepResult result;
  if (running <= 0.0) {
    result.dead_end = true;
    return result;
  }
  double target = rng.Uniform() * running;
  uint32_t index = 0;
  while (index + 1 < degree && prefix[index] <= target) {
    ++index;
  }
  result.index = index;
  return result;
}

// eRJS step against a caller-supplied upper bound (see rejection.h for the
// contract; ERjsStep is the WalkLogic-backed instantiation).
template <typename WeightFn>
StepResult ERjsStepT(const WalkContext& ctx, const WeightFn& weight, const QueryState& q,
                     KernelRng& rng, double bound, RejectionStats* stats = nullptr) {
  uint32_t degree = ctx.graph->Degree(q.cur);
  StepResult result;
  if (degree == 0 || bound <= 0.0) {
    result.dead_end = (degree == 0);
    if (degree != 0) {
      // A zero bound with non-zero degree means the helper proved all
      // weights are zero for this step.
      result.dead_end = true;
    }
    return result;
  }
  uint64_t budget = std::max<uint64_t>(64, 8ull * degree);
  uint32_t index = TrialLoopT(ctx, weight, rng, bound, degree, budget, stats);
  if (index != kNoIndex) {
    result.index = index;
    return result;
  }
  return ScanFallbackT(ctx, weight, rng, degree, stats);
}

// Full eRVS: ES keys + exponential jumps, warp-strided (Fig. 4b); see
// reservoir.h for the algorithm notes. ERvsJumpStep is the WalkLogic-backed
// instantiation.
template <typename WeightFn>
StepResult ERvsJumpStepT(const WalkContext& ctx, const WeightFn& weight, const QueryState& q,
                         KernelRng& rng, ReservoirStats* stats = nullptr) {
  uint32_t degree = ctx.graph->Degree(q.cur);
  StepResult result;
  if (degree == 0) {
    result.dead_end = true;
    return result;
  }
  ChargeWeightScan(ctx, degree);

  // Warp-strided execution (Fig. 4b). Lane l owns neighbors l, l+32, ...
  // Iteration 1 computes one key per lane and reduces them to the shared
  // global max key; each lane then jumps through its remaining neighbors
  // conditioning on the best key it knows (>= the shared seed), and a final
  // reduction picks the winner. A-ExpJ conditioning keeps the selection
  // distribution exactly proportional to the weights (the jump argument in
  // reservoir.h; sampling_distribution_test.cc, ERvsWithJump, checks it).
  // Keys live in log space throughout: log k = log(u)/w̃ (all negative;
  // larger means a better key), immune to pow() underflow.
  uint32_t lanes = std::min<uint32_t>(degree, kWarpSize);
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  struct LaneState {
    double best_key = -std::numeric_limits<double>::infinity();  // log key
    uint32_t best = kNoIndex;
    uint32_t seed_index = kNoIndex;  // first positive-weight neighbor owned
  };
  std::vector<LaneState> lane_state(lanes);

  // Iteration 1: seed keys. Each lane takes its first positive-weight
  // neighbor; zero-weight neighbors never win.
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    for (uint32_t i = lane; i < degree; i += lanes) {
      double w = weight(i);
      if (stats != nullptr) {
        ++stats->neighbors_scanned;
      }
      if (w > 0.0) {
        double key = -std::max(rng.Exponential(), 1e-300) / w;
        ctx.mem().CountAlu(4);
        if (stats != nullptr) {
          ++stats->keys_generated;
        }
        lane_state[lane].best_key = key;
        lane_state[lane].best = i;
        lane_state[lane].seed_index = i;
        break;
      }
    }
  }
  // Shared global max key after iteration 1 (warp reduce).
  ctx.mem().CountCollective(5);
  double global_key = kNegInf;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    global_key = std::max(global_key, lane_state[lane].best_key);
  }
  if (global_key == kNegInf) {
    result.dead_end = true;  // every weight was zero
    return result;
  }

  // Jump phase per lane, starting after the lane's seed neighbor.
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    LaneState& state = lane_state[lane];
    if (state.seed_index == kNoIndex) {
      continue;  // lane owned only zero-weight neighbors
    }
    // Condition on the best key this lane can observe: the shared seed.
    // With L = log(local max key) < 0, the jump threshold of Eq. (4) is
    // T = log(u)/L = Exponential()/(-L).
    double local_max = std::max(state.best_key, global_key);
    double threshold = std::max(rng.Exponential(), 1e-300) / -local_max;
    ctx.mem().CountAlu(3);
    double cumulative = 0.0;
    for (uint32_t i = state.seed_index + lanes; i < degree; i += lanes) {
      double w = weight(i);
      if (stats != nullptr) {
        ++stats->neighbors_scanned;
      }
      ctx.mem().CountAlu(1);
      if (w <= 0.0) {
        continue;
      }
      cumulative += w;
      if (cumulative >= threshold) {
        // This neighbor's (implicit) key beats local_max: draw it from the
        // conditional law Uniform(k^w, 1)^(1/w), i.e. in log space
        // log k' = log(floor + U (1 - floor)) / w with floor = exp(L w).
        double floor_u = std::exp(local_max * w);
        double u = floor_u + rng.UniformOpen() * (1.0 - floor_u);
        double key = std::log(std::min(u, 1.0)) / w;
        if (key == 0.0) {
          key = -1e-300;  // u rounded to 1: the best representable key
        }
        ctx.mem().CountAlu(8);
        if (stats != nullptr) {
          ++stats->keys_generated;
        }
        state.best_key = key;
        state.best = i;
        local_max = key;
        threshold = std::max(rng.Exponential(), 1e-300) / -local_max;
        cumulative = 0.0;
      }
    }
  }

  // Final reduction over lane maxima.
  ctx.mem().CountCollective(5);
  double best_key = kNegInf;
  uint32_t best = kNoIndex;
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    if (lane_state[lane].best_key > best_key) {
      best_key = lane_state[lane].best_key;
      best = lane_state[lane].best;
    }
  }
  if (best == kNoIndex) {
    result.dead_end = true;
    return result;
  }
  result.index = best;
  return result;
}

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_SAMPLING_STEP_INLINE_H_
