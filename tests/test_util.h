// Shared fixtures and helpers for the FlexiWalker test suite.
#ifndef FLEXIWALKER_TESTS_TEST_UTIL_H_
#define FLEXIWALKER_TESTS_TEST_UTIL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/metrics/stats.h"
#include "src/sampling/inverse_transform.h"
#include "src/sampling/sampler.h"
#include "src/walker/scheduler.h"
#include "src/walks/deepwalk.h"
#include "src/walks/walk_context.h"

namespace flexi {

// A "fan" graph: node 0 points at nodes 1..weights.size() with the given
// property weights. Sampling at node 0 under DeepWalk (w = 1) then follows
// exactly the normalized weight distribution — the controlled environment
// for the sampler distribution-correctness tests.
struct FanGraph {
  Graph graph;
  DeviceContext device{DeviceProfile::SimulatedGpu()};
  WalkContext ctx;
  QueryState query;

  explicit FanGraph(std::span<const float> weights) {
    NodeId n = static_cast<NodeId>(weights.size()) + 1;
    GraphBuilder builder(n);
    for (NodeId leaf = 1; leaf < n; ++leaf) {
      builder.AddEdge(0, leaf);
      builder.AddEdge(leaf, 0);  // keep every node non-sink
    }
    graph = builder.Build();
    std::vector<float> h(graph.num_edges(), 1.0f);
    // Node 0's out-edges come first in CSR order (sorted by destination 1..n-1).
    for (uint32_t i = 0; i < weights.size(); ++i) {
      h[graph.EdgesBegin(0) + i] = weights[i];
    }
    graph.SetPropertyWeights(std::move(h));
    ctx = WalkContext{&graph, &device, nullptr, nullptr};
    query.cur = 0;
    query.prev = kInvalidNode;
  }

  // Exact transition probabilities at node 0.
  std::vector<double> ExactProbabilities(const WalkLogic& logic) const {
    uint32_t d = graph.Degree(0);
    std::vector<double> p(d);
    double total = 0.0;
    for (uint32_t i = 0; i < d; ++i) {
      p[i] = logic.TransitionWeight(ctx, query, i);
      total += p[i];
    }
    for (double& x : p) {
      x /= total;
    }
    return p;
  }
};

// Draws `trials` samples via `sample()` (returning a neighbor index or
// kNoIndex) and chi-square-tests the histogram against `probabilities`.
template <typename SampleFn>
ChiSquareResult SampleAndTest(uint32_t num_outcomes, std::span<const double> probabilities,
                              uint64_t trials, SampleFn&& sample) {
  std::vector<uint64_t> observed(num_outcomes, 0);
  for (uint64_t t = 0; t < trials; ++t) {
    uint32_t index = sample(t);
    if (index != kNoIndex) {
      ++observed[index];
    }
  }
  return ChiSquareGoodnessOfFit(observed, probabilities);
}

// Weight patterns exercised by the parameterized distribution tests.
inline std::vector<std::vector<float>> DistributionTestWeightSets() {
  return {
      {1.0f, 1.0f, 1.0f, 1.0f},                             // uniform, small
      {3.0f, 2.0f, 4.0f, 1.0f},                             // the paper's Fig. 2 example
      {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f},     // ramp
      {100.0f, 1.0f, 1.0f, 1.0f, 1.0f},                     // heavy skew
      {0.0f, 2.0f, 0.0f, 5.0f, 3.0f},                       // zeros interleaved
      {0.001f, 0.002f, 0.003f},                             // tiny magnitudes
      // > warp-size row so the strided lanes and jump paths are exercised
      {5, 1, 2, 8, 3, 1, 1, 9, 2, 2, 4, 7, 1, 3, 6, 2, 1, 1, 2, 5, 4, 3, 2, 1,
       7, 2, 9, 1, 3, 2, 8, 4, 2, 6, 1, 5, 3, 2, 7, 1},
  };
}

// A step gate for serving tests that need a busy pipeline: every step of a
// service built on Step() yields until Release(), then samples exactly as
// InverseTransformStep. On a pipeline_depth 1 service, one batch held at the
// gate occupies the only slot, so the coalescer keeps later requests
// pending — deterministically, with no timer. Declare the gate before the
// service (the kernel points at it) and a ReleaseAtExit after the
// coalescer or server, so a failing assertion cannot leave a batch spinning
// while they shut down.
class StepGate {
 public:
  StepKernel Step() const {
    const std::atomic<bool>* open = &open_;
    return [open](const WalkContext& ctx, const WalkLogic& logic, const QueryState& q,
                  KernelRng& rng) {
      while (!open->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      return InverseTransformStep(ctx, logic, q, rng);
    };
  }
  void Release() { open_.store(true, std::memory_order_release); }

  struct ReleaseAtExit {
    StepGate& gate;
    ~ReleaseAtExit() { gate.Release(); }
  };

 private:
  std::atomic<bool> open_{false};
};

}  // namespace flexi

#endif  // FLEXIWALKER_TESTS_TEST_UTIL_H_
