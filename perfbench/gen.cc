// Input generation: the benchmark's graphs, written once per (params, seed)
// into the benchmark's cache by a process of their own.
//
// `rmat` is the memory-bound graph behind n2v-offline-big and
// ooc-deepwalk-half. It follows the repo's R-MAT recipe (GenerateRmat: the
// same a/b/c quadrant split, no self-loops, duplicates merged, every node
// given an out-edge to v+1 when it has none) and the paper's uniform [1, 5)
// weights, but runs on every core: at scale 22 the single-threaded
// GenerateRmat takes ~50 s, more than a benchmark run may spend on a new
// seed. Each 64Ki-edge chunk draws from its own seeded stream, so the graph
// depends on the seed only, never on the thread count.
//
// `yt` is the serving graph: the repo's YT stand-in recipe (DatasetByName)
// with the workload seed in place of the dataset's fixed one.
#include "perfbench/workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <thread>

#include "src/graph/block_store.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/rng/philox.h"

namespace perfbench {
namespace {

constexpr uint64_t kChunkEdges = uint64_t{1} << 16;

// SplitMix64: a fast per-chunk stream (R-MAT needs ~6 draws per edge; the
// Philox stream would make generation several times slower).
struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

// Runs body(t) on threads t = 0..threads-1 and joins them.
void OnThreads(unsigned threads, const std::function<void(unsigned)>& body) {
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(body, t);
  }
  body(0);
  for (std::thread& thread : pool) {
    thread.join();
  }
}

Graph GenerateRmatParallel(uint32_t scale, uint32_t edge_factor, uint64_t seed,
                           unsigned threads) {
  const flexi::RmatParams shape;  // the repo's quadrant probabilities
  const NodeId n = NodeId{1} << scale;
  const uint64_t target_edges = uint64_t{edge_factor} * n;
  const uint64_t chunks = (target_edges + kChunkEdges - 1) / kChunkEdges;
  // Each quadrant choice compares 16 random bits against the cumulative
  // probabilities, four levels per 64-bit draw.
  const uint32_t cut_a = static_cast<uint32_t>(shape.a * 65536.0);
  const uint32_t cut_ab = static_cast<uint32_t>((shape.a + shape.b) * 65536.0);
  const uint32_t cut_abc = static_cast<uint32_t>((shape.a + shape.b + shape.c) * 65536.0);

  // Each chunk's edges land in their own slice of `keys` as src << 32 | dst
  // (self-loops included, dropped below), so the array depends on the seed
  // alone.
  std::vector<uint64_t> keys(target_edges);
  ParallelFor(chunks, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t c = begin; c < end; ++c) {
      SplitMix64 rng{seed * 0x9E3779B97F4A7C15ull ^ (0x52A7000000ull + c)};
      rng.Next();
      uint64_t last = std::min(target_edges, (c + 1) * kChunkEdges);
      for (uint64_t e = c * kChunkEdges; e < last; ++e) {
        uint64_t src = 0;
        uint64_t dst = 0;
        uint64_t bits = 0;
        for (uint32_t level = 0; level < scale; ++level) {
          if (level % 4 == 0) {
            bits = rng.Next();
          }
          uint32_t r = static_cast<uint32_t>(bits & 0xFFFF);
          bits >>= 16;
          src = (src << 1) | (r >= cut_ab ? 1u : 0u);
          dst = (dst << 1) | ((r >= cut_a && r < cut_ab) || r >= cut_abc ? 1u : 0u);
        }
        keys[e] = src << 32 | dst;
      }
    }
  });

  // Bucket by the top bits of src (one pass, per-thread histograms over
  // static slices), then sort each bucket: buckets are contiguous src
  // ranges, so the concatenation is the sorted edge list.
  const uint32_t bucket_bits = std::min<uint32_t>(scale, 10);
  const uint64_t buckets = uint64_t{1} << bucket_bits;
  auto bucket_of = [&](uint64_t key) { return (key >> 32) >> (scale - bucket_bits); };
  const uint64_t slice = (target_edges + threads - 1) / threads;
  std::vector<std::vector<uint64_t>> offset(threads, std::vector<uint64_t>(buckets + 1, 0));
  OnThreads(threads, [&](unsigned t) {
    uint64_t last = std::min(target_edges, (t + 1) * slice);
    for (uint64_t e = t * slice; e < last; ++e) {
      ++offset[t][bucket_of(keys[e])];
    }
  });
  std::vector<uint64_t> bucket_begin(buckets + 1, 0);
  uint64_t running = 0;
  for (uint64_t b = 0; b < buckets; ++b) {
    bucket_begin[b] = running;
    for (unsigned t = 0; t < threads; ++t) {
      uint64_t count = offset[t][b];
      offset[t][b] = running;
      running += count;
    }
  }
  bucket_begin[buckets] = running;
  std::vector<uint64_t> sorted(target_edges);
  OnThreads(threads, [&](unsigned t) {
    uint64_t last = std::min(target_edges, (t + 1) * slice);
    for (uint64_t e = t * slice; e < last; ++e) {
      sorted[offset[t][bucket_of(keys[e])]++] = keys[e];
    }
  });
  keys.clear();
  keys.shrink_to_fit();
  ParallelFor(buckets, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t b = begin; b < end; ++b) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(bucket_begin[b]),
                sorted.begin() + static_cast<std::ptrdiff_t>(bucket_begin[b + 1]));
    }
  });

  // CSR: distinct non-loop edges per row; a row left empty gets v -> v+1.
  // `keep(e)` marks the first copy of each distinct non-loop edge.
  auto keep = [&](uint64_t e) {
    uint64_t key = sorted[e];
    return (key >> 32) != (key & 0xFFFFFFFFu) && (e == 0 || sorted[e - 1] != key);
  };
  const NodeId nodes_per_bucket = NodeId{1} << (scale - bucket_bits);
  std::vector<EdgeId> row_ptr(static_cast<size_t>(n) + 1, 0);
  ParallelFor(buckets, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t b = begin; b < end; ++b) {
      for (uint64_t e = bucket_begin[b]; e < bucket_begin[b + 1]; ++e) {
        row_ptr[(sorted[e] >> 32) + 1] += keep(e) ? 1 : 0;
      }
      for (NodeId v = static_cast<NodeId>(b) * nodes_per_bucket;
           v < static_cast<NodeId>(b + 1) * nodes_per_bucket; ++v) {
        row_ptr[v + 1] = std::max<EdgeId>(row_ptr[v + 1], 1);
      }
    }
  });
  for (NodeId v = 0; v < n; ++v) {
    row_ptr[v + 1] += row_ptr[v];
  }
  std::vector<NodeId> col(row_ptr[n], 0);
  ParallelFor(buckets, threads, [&](uint64_t begin, uint64_t end) {
    for (uint64_t b = begin; b < end; ++b) {
      NodeId first = static_cast<NodeId>(b) * nodes_per_bucket;
      std::vector<EdgeId> filled(nodes_per_bucket, 0);
      for (uint64_t e = bucket_begin[b]; e < bucket_begin[b + 1]; ++e) {
        if (keep(e)) {
          NodeId src = static_cast<NodeId>(sorted[e] >> 32);
          col[row_ptr[src] + filled[src - first]++] = static_cast<NodeId>(sorted[e]);
        }
      }
      for (NodeId i = 0; i < nodes_per_bucket; ++i) {
        if (filled[i] == 0) {
          col[row_ptr[first + i]] = (first + i + 1) % n;
        }
      }
    }
  });
  sorted.clear();
  sorted.shrink_to_fit();
  Graph graph(std::move(row_ptr), std::move(col));

  // Uniform [1, 5) property weights, one Philox subsequence per chunk.
  std::vector<float> weights(graph.num_edges());
  ParallelFor((graph.num_edges() + kChunkEdges - 1) / kChunkEdges, threads,
              [&](uint64_t begin, uint64_t end) {
                for (uint64_t c = begin; c < end; ++c) {
                  flexi::PhiloxStream rng(seed, 0x3E16000000ull + c);
                  uint64_t last = std::min<uint64_t>(weights.size(), (c + 1) * kChunkEdges);
                  for (uint64_t e = c * kChunkEdges; e < last; ++e) {
                    weights[e] = static_cast<float>(1.0 + 4.0 * rng.NextUniform());
                  }
                }
              });
  graph.SetPropertyWeights(std::move(weights));
  return graph;
}

// Flushes a written file to disk, so that its writeback does not compete
// with the measured run that follows.
void SyncFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) {
      ::close(fd);
    }
    throw std::runtime_error("gen: cannot sync " + path);
  }
  ::close(fd);
}

}  // namespace

int RunGen(const Args& args, Report& report) {
  double t0 = NowSeconds();
  Graph graph;
  if (args.kind == "rmat") {
    if (args.scale < 4 || args.scale > 30 || args.edge_factor == 0) {
      throw std::invalid_argument("gen rmat: --scale in [4, 30] and --edge-factor > 0");
    }
    graph = GenerateRmatParallel(args.scale, args.edge_factor, args.seed, HostThreads());
  } else if (args.kind == "yt") {
    flexi::RmatParams params = flexi::DatasetByName("YT").rmat;
    params.seed = args.seed;
    graph = flexi::GenerateRmat(params);
    flexi::AssignWeights(graph, flexi::WeightDistribution::kUniform, 0.0, args.seed + 1);
  } else {
    throw std::invalid_argument("gen: --kind rmat|yt");
  }
  double t1 = NowSeconds();
  flexi::WriteBinaryFile(graph, args.graph);
  SyncFile(args.graph);
  size_t blocks = 0;
  if (!args.blocks.empty()) {
    blocks = flexi::PartitionToBlockFile(graph, args.blocks, args.block_bytes);
    SyncFile(args.blocks);
  }
  double t2 = NowSeconds();
  report.Attempt(1);
  report.Metric("nodes", graph.num_nodes(), "count");
  report.Metric("edges", static_cast<double>(graph.num_edges()), "count");
  report.Metric("blocks", static_cast<double>(blocks), "count");
  report.Metric("csr_mib", graph.MemoryFootprintBytes() / 1048576.0, "MiB");
  report.Metric("generate_s", t1 - t0, "s");
  report.Metric("write_s", t2 - t1, "s");
  return 0;
}

}  // namespace perfbench
