// Shared helpers for the per-figure/per-table bench binaries.
//
// Every bench prints (a) the paper's rows/series measured on the scaled
// stand-in datasets and (b) the flags (OOM) derived from full-scale
// footprint formulas, so the *shape* of each figure — who wins, by what
// factor, where crossovers fall — can be compared against the paper
// directly. Simulated milliseconds come from the substrate's transaction
// accounting (docs/ARCHITECTURE.md, "Layer map"), which is deterministic and
// machine-independent; wall-clock on the host is reported alongside where
// useful.
#ifndef FLEXIWALKER_BENCH_BENCH_UTIL_H_
#define FLEXIWALKER_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/graph/datasets.h"
#include "src/metrics/report.h"
#include "src/walker/engine.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

inline constexpr uint64_t kBenchSeed = 20260427;  // EuroSys'26 first day
inline constexpr uint64_t kDeviceMemoryBytes = 48ull << 30;  // A6000 VRAM

// Upper-bounds the number of walk queries per dataset so bench wall-clock
// stays tractable on one host core; queries remain uniformly spread.
inline std::vector<NodeId> BenchStarts(const Graph& graph, size_t max_queries = 4096) {
  uint32_t stride =
      static_cast<uint32_t>((graph.num_nodes() + max_queries - 1) / max_queries);
  return StridedStarts(graph, std::max<uint32_t>(stride, 1));
}

// Full-scale OOM reproduction: the original dataset's resident footprint
// plus an engine's auxiliary structures vs. device memory.
inline bool WouldOom(const DatasetSpec& spec, uint64_t engine_extra_bytes) {
  return FullScaleFootprintBytes(spec) + engine_extra_bytes > kDeviceMemoryBytes;
}

// NextDoor's transit-parallel sort keeps roughly one 8-byte key per edge of
// sampling frontier at full scale (see baselines.h).
inline uint64_t NextDoorSortBytes(const DatasetSpec& spec) {
  return spec.paper_edges * 8;
}

// Formats a result cell: the simulated time, or an OOM sentinel.
inline std::string Cell(double sim_ms, bool oom = false) {
  if (oom) {
    return "OOM";
  }
  return Table::Num(sim_ms);
}

// Peak-power model for Fig. 16: sustained bandwidth utilization (coalesced
// traffic) drives a device toward its peak; random-access-heavy mixes leave
// lanes stalled and draw less.
inline double MaxWatts(const WalkResult& result, const DeviceProfile& profile) {
  uint64_t total = result.cost.coalesced_transactions + result.cost.random_transactions;
  double coalesced_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(result.cost.coalesced_transactions) /
                       static_cast<double>(total);
  return profile.idle_watts + (profile.peak_watts - profile.idle_watts) * coalesced_fraction;
}

// Total neighbor-sampling steps a result actually took (dead ends cut walks
// short, so this counts written transitions, not queries x length). The
// numerator of every steps/sec figure the benches report.
inline uint64_t CountSampledSteps(const WalkResult& result) {
  uint64_t steps = 0;
  for (size_t qid = 0; qid < result.num_queries; ++qid) {
    auto path = result.Path(qid);
    for (size_t s = 1; s < path.size() && path[s] != kInvalidNode; ++s) {
      ++steps;
    }
  }
  return steps;
}

// --- Bench run metadata (perf-trajectory attribution) ----------------------
//
// Every --json bench emitter stamps these fields so a CI diff between two
// runs (scripts/perf_trajectory.py) can attribute a swing to a commit, a
// date, or a machine shape instead of guessing.

// Commit under test: GITHUB_SHA in CI, `git rev-parse HEAD` locally,
// "unknown" outside a checkout.
inline std::string BenchGitSha() {
  if (const char* sha = std::getenv("GITHUB_SHA"); sha != nullptr && sha[0] != '\0') {
    return sha;
  }
  std::string sha;
  if (std::FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    pclose(pipe);
  }
  return sha.empty() ? "unknown" : sha;
}

inline std::string BenchDateUtc() {
  std::time_t now = std::time(nullptr);
  char buf[32] = {};
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  return buf;
}

// Process peak resident set in bytes (getrusage: ru_maxrss is KiB on
// Linux). High-water mark, monotonic over the process lifetime — a bench
// sweeping memory-bounded configs must measure the smallest budget first
// (or fork per config) for per-config attribution. 0 if unavailable.
inline uint64_t BenchPeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

// Writes the shared `"meta": {...},` object (with trailing comma) as the
// first member of a bench's JSON document. peak_rss_bytes is sampled at
// call time — benches write JSON after their runs, so it reflects the run's
// high-water mark and lets the perf-trajectory diff catch memory
// regressions alongside throughput ones.
inline void WriteBenchMetaJson(std::FILE* f, const char* bench_name, bool quick) {
  std::fprintf(f,
               "  \"meta\": {\"bench\": \"%s\", \"quick\": %s, \"git_sha\": \"%s\", "
               "\"date_utc\": \"%s\", \"hardware_concurrency\": %u, "
               "\"peak_rss_bytes\": %llu},\n",
               bench_name, quick ? "true" : "false", BenchGitSha().c_str(),
               BenchDateUtc().c_str(), std::max(1u, std::thread::hardware_concurrency()),
               static_cast<unsigned long long>(BenchPeakRssBytes()));
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("host: %u scheduler worker threads (walk paths are thread-count invariant)\n",
              DefaultWorkerThreads());
  std::printf(
      "(sim_ms = substrate-accounted simulated milliseconds; see docs/ARCHITECTURE.md)\n\n");
}

}  // namespace flexi

#endif  // FLEXIWALKER_BENCH_BENCH_UTIL_H_
