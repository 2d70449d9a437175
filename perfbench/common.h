// Shared plumbing for the repo benchmark (perfbench): arguments, the result
// line, clocks, percentiles, registry deltas, and the path checks every
// workload runs on its outputs.
#ifndef FLEXIWALKER_PERFBENCH_COMMON_H_
#define FLEXIWALKER_PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace perfbench {

using flexi::EdgeId;
using flexi::Graph;
using flexi::NodeId;

// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;
// Edge-cost ratio where a workload pins it (as the repo's benches do).
inline constexpr double kPinnedEdgeCostRatio = 4.0;

struct Args {
  std::string command;  // gen | n2v-offline-big | serve-two-tenant | ooc-deepwalk-half
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     // self-test scale: every workload in seconds
  bool corrupt = false;  // self-test: flip one checked path node
  std::string graph;     // binary CSR file
  std::string blocks;    // block file (out-of-core workload)
  std::string work_dir;  // scratch space for JIT caches
  // gen only
  std::string kind;  // rmat | yt
  uint32_t scale = 0;
  uint32_t edge_factor = 0;
  uint64_t block_bytes = 0;
};

Args ParseArgs(int argc, char** argv);

// The result line: `correct`, `attempted`, `failed`, and named metrics with
// units, printed as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Human-readable detail on stderr; never part of the result line.
  void Note(const std::string& text) const;
  void Attempt(uint64_t n) { attempted_ += n; }
  void Fail(uint64_t n, const std::string& why);
  bool correct() const { return failed_ == 0; }
  // Share of attempted operations that did not fail.
  double SuccessRatio() const;
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double NowSeconds();  // steady clock
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);  // obs::PercentileOfSorted
unsigned HostThreads();
// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb();

// Flat view of the metrics registry's Prometheus text: full series name
// (family plus labels) -> value. Histograms appear as their summary series.
using RegistryValues = std::map<std::string, double>;
RegistryValues SnapshotRegistry();
// Sum over every series of `family` (any labels) of after - before.
double RegistryDelta(const RegistryValues& before, const RegistryValues& after,
                     const std::string& family);

// Path-row validity against the graph the rows were walked on: the row
// starts at `start`, every consecutive pair is an edge, and the row ends
// early only at a node without out-edges, padded with kInvalidNode to the
// stride.
bool RowOk(const Graph& graph, NodeId start, const NodeId* row, uint32_t stride);
// RowOk over row r = starts[r] of a path matrix; returns the number of bad
// rows. Runs on `threads` threads.
uint64_t CountBadRows(const Graph& graph, std::span<const NodeId> starts,
                      std::span<const NodeId> paths, uint32_t stride, unsigned threads);
// Sampled steps in a path matrix: non-padding nodes beyond each row's start.
uint64_t CountSteps(std::span<const NodeId> paths, uint32_t stride);
// Rows of `a` that differ from the same rows of `b` (both `stride` wide).
uint64_t CountRowMismatches(std::span<const NodeId> a, std::span<const NodeId> b,
                            uint32_t stride);

// Runs fn(i) for i in [0, n) on `threads` threads (dynamic chunks).
void ParallelFor(uint64_t n, unsigned threads, const std::function<void(uint64_t, uint64_t)>& fn);

// Seeded uniform start nodes; the same (seed, stream) gives the same list.
std::vector<NodeId> SeededStarts(uint64_t seed, uint64_t stream, NodeId num_nodes, size_t count);

// A JIT cache directory that does not exist yet, under args.work_dir.
std::string FreshJitDir(const Args& args, const std::string& tag);
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // FLEXIWALKER_PERFBENCH_COMMON_H_
