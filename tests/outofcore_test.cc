// Out-of-core execution tier tests: block-store round-trips, GraphCache
// pin/evict semantics, and the determinism contract — block-cached walks
// are bit-identical to the in-memory engine across every cache size, thread
// count, wavefront width, and JIT setting (out_of_core.h), and out-of-range
// starts are rejected. Block files are untrusted input: truncated and
// corrupted files must end in std::runtime_error, never in a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/graph/block_store.h"
#include "src/graph/generators.h"
#include "src/graph/graph_cache.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"
#include "src/walks/ppr.h"

namespace flexi {
namespace {

// Each test writes its own file so parallel ctest shards never collide.
std::string BlockFilePath(const char* tag) {
  return std::string("/tmp/flexi_outofcore_test_") + tag + ".blk";
}

Graph TestGraph(NodeId nodes = 500, double degree = 6.0, uint64_t seed = 13) {
  Graph g = GenerateErdosRenyi(nodes, degree, seed);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, seed + 1);
  return g;
}

std::vector<NodeId> AllStarts(const Graph& g) {
  std::vector<NodeId> starts(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    starts[v] = v;
  }
  return starts;
}

// ---------------------------------------------------------- block store --

TEST(BlockStore, RoundTripReassemblesTheGraph) {
  Graph g = TestGraph(300, 5.0, 7);
  AssignLabels(g, 4, 8);
  AssignTimestamps(g, 100.0f, 9);
  const std::string path = BlockFilePath("roundtrip");
  size_t blocks = PartitionToBlockFile(g, path, kMinBlockBytes);
  ASSERT_GT(blocks, 1u) << "graph must span several blocks for the test to bite";

  for (bool map : {false, true}) {
    BlockStore store = BlockStore::Open(path, map);
    EXPECT_EQ(store.num_nodes(), g.num_nodes());
    EXPECT_EQ(store.num_edges(), g.num_edges());
    EXPECT_EQ(store.num_blocks(), blocks);
    EXPECT_TRUE(store.weighted());
    EXPECT_TRUE(store.labeled());
    EXPECT_TRUE(store.temporal());
    EXPECT_EQ(store.max_degree(), g.MaxDegree());
    ASSERT_EQ(store.row_offsets().size(), g.num_nodes() + 1u);

    // Blocks tile [0, num_nodes) in order, and every node maps back to the
    // block that holds it.
    NodeId covered = 0;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      EXPECT_EQ(store.block(b).first_node, covered);
      covered += store.block(b).node_count;
    }
    EXPECT_EQ(covered, g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const BlockMeta& meta = store.block(store.BlockOf(v));
      EXPECT_GE(v, meta.first_node);
      EXPECT_LT(v, meta.first_node + meta.node_count);
    }

    // Every row read through a block view matches the original graph.
    BlockData data;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      store.ReadBlock(b, data);
      Graph view = store.MakeBlockView(b, data);
      const BlockMeta& meta = store.block(b);
      for (NodeId v = meta.first_node; v < meta.first_node + meta.node_count; ++v) {
        ASSERT_EQ(view.Degree(v), g.Degree(v)) << "node " << v;
        for (uint32_t i = 0; i < g.Degree(v); ++i) {
          EXPECT_EQ(view.Neighbor(v, i), g.Neighbor(v, i));
          EdgeId e = g.EdgesBegin(v) + i;
          EXPECT_EQ(view.PropertyWeight(e), g.PropertyWeight(e));
          EXPECT_EQ(view.EdgeLabel(e), g.EdgeLabel(e));
          EXPECT_EQ(view.EdgeTimestamp(e), g.EdgeTimestamp(e));
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(BlockStore, RejectsBudgetBelowMinimum) {
  Graph g = TestGraph(64, 4.0, 3);
  EXPECT_THROW(PartitionToBlockFile(g, BlockFilePath("tiny"), kMinBlockBytes - 1),
               std::invalid_argument);
}

TEST(BlockStore, OversizedRowGetsItsOwnBlock) {
  // A hub whose single row exceeds the budget must still land in exactly
  // one (oversized) block rather than being split or dropped.
  Graph g = GenerateStar(600);  // hub 0 has 600 out-edges = 2400 B > 1 KiB
  const std::string path = BlockFilePath("hub");
  PartitionToBlockFile(g, path, kMinBlockBytes);
  BlockStore store = BlockStore::Open(path);
  const BlockMeta& hub = store.block(store.BlockOf(0));
  EXPECT_GE(hub.edge_count, 600u);
  EXPECT_EQ(store.BlockOf(0), 0u);
  BlockData data;
  store.ReadBlock(store.BlockOf(0), data);
  Graph view = store.MakeBlockView(store.BlockOf(0), data);
  EXPECT_EQ(view.Degree(0), g.Degree(0));
  std::remove(path.c_str());
}

// ---------------------------------------------------------- graph cache --

TEST(GraphCache, PinsEvictsAndCounts) {
  Graph g = TestGraph(400, 5.0, 21);
  const std::string path = BlockFilePath("cache");
  size_t blocks = PartitionToBlockFile(g, path, kMinBlockBytes);
  ASSERT_GE(blocks, 4u);
  BlockStore store = BlockStore::Open(path);
  GraphCache cache(&store, 2);

  const Graph& b0 = cache.Acquire(0);
  EXPECT_EQ(b0.num_nodes(), g.num_nodes());  // views share the global node space
  EXPECT_TRUE(cache.IsResident(0));
  cache.Acquire(1);
  // Both slots pinned: a third block has nowhere to go.
  EXPECT_THROW(cache.Acquire(2), std::runtime_error);
  cache.Release(0);
  cache.Acquire(2);  // evicts block 0 (the only unpinned slot)
  EXPECT_FALSE(cache.IsResident(0));
  EXPECT_TRUE(cache.IsResident(2));
  // Re-acquiring a resident block is a hit, not a load.
  uint64_t loads_before = cache.stats().loads;
  cache.Acquire(2);
  EXPECT_EQ(cache.stats().loads, loads_before);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().bytes_read, 0u);
  // Releasing an unpinned block is a caller bug.
  EXPECT_THROW(cache.Release(0), std::logic_error);
  std::remove(path.c_str());
}

// ------------------------------------------------- out-of-core execution --

// The acceptance matrix: out-of-core paths and eRJS/eRVS selection tallies
// bit-identical to the in-memory engine for every cache budget (thrashing
// single block through all-resident), thread count, wavefront width, and
// interpreted or compiled step kernel.
TEST(OutOfCore, MatchesInMemoryAcrossCacheThreadsAndWavefront) {
  Graph g = TestGraph();
  const std::string path = BlockFilePath("parity");
  size_t blocks = PartitionToBlockFile(g, path, 2048);
  ASSERT_GE(blocks, 4u) << "cache=1 must be well under 1/4 of the blocks";
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(12);

  FlexiWalkerOptions base;
  base.edge_cost_ratio = 4.0;  // profiling needs the full graph: pin it
  base.jit_cache_dir = "/tmp/flexi_outofcore_test_jit";
  WalkResult reference = FlexiWalkerEngine(base).Run(g, walk, starts, uint64_t{4242});
  ASSERT_GT(reference.selection.chose_rjs + reference.selection.chose_rvs, 0u);

  FlexiWalkerOptions compiled = base;
  compiled.jit = jit::JitMode::kOn;
  ASSERT_NE(PrepareFlexiJit(walk, compiled, false)->TryGet(), nullptr)
      << "the jit=on runs below must run the compiled kernel";

  for (jit::JitMode jit : {jit::JitMode::kOff, jit::JitMode::kOn}) {
    for (uint32_t cache_blocks : {1u, 2u, static_cast<uint32_t>(blocks)}) {
      for (unsigned threads : {1u, 2u, 8u}) {
        for (uint32_t wavefront : {1u, 8u}) {
          FlexiWalkerOptions options = base;
          options.jit = jit;
          options.host_threads = threads;
          options.wavefront = wavefront;
          OutOfCoreStats stats;
          WalkResult ooc = RunFlexiWalkerOutOfCore(store, walk, options, cache_blocks, starts,
                                                   uint64_t{4242}, &stats);
          ASSERT_EQ(ooc.paths, reference.paths)
              << "cache=" << cache_blocks << " threads=" << threads
              << " wavefront=" << wavefront << " jit=" << static_cast<int>(jit);
          EXPECT_EQ(ooc.selection.chose_rjs, reference.selection.chose_rjs);
          EXPECT_EQ(ooc.selection.chose_rvs, reference.selection.chose_rvs);
          EXPECT_GE(stats.block_loads, 1u);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(OutOfCore, PprTeleportsAcrossBlockBoundaries) {
  // PPR restarts teleport the walker to its start node mid-walk — a park
  // decision that must be taken on the post-update position. Parity across
  // a thrashing cache proves the RNG order survives every re-park.
  Graph g = TestGraph(400, 5.0, 29);
  const std::string path = BlockFilePath("ppr");
  size_t blocks = PartitionToBlockFile(g, path, 2048);
  ASSERT_GE(blocks, 4u);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  PersonalizedPageRankWalk walk(0.25, 16);

  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  WalkResult reference = FlexiWalkerEngine(options).Run(g, walk, starts, 777);
  OutOfCoreStats stats;
  WalkResult ooc = RunFlexiWalkerOutOfCore(store, walk, options, 1, starts, 777, &stats);
  EXPECT_EQ(ooc.paths, reference.paths);
  // cache=1 with several blocks must thrash: more loads than blocks.
  EXPECT_GT(stats.block_loads, static_cast<uint64_t>(blocks));
  EXPECT_GT(stats.block_evictions, 0u);
  EXPECT_GT(stats.parks, 0u);
  std::remove(path.c_str());
}

TEST(OutOfCore, SecondOrderWorkloadIsRejected) {
  Graph g = TestGraph(200, 4.0, 31);
  const std::string path = BlockFilePath("reject");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  Node2VecWalk walk(2.0, 0.5, 8);  // prev-node terms: not first-order
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, options, 2, starts, 1),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(OutOfCore, ResidentOnlyOptionsAreRejected) {
  Graph g = TestGraph(200, 4.0, 37);
  const std::string path = BlockFilePath("options");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(8);

  FlexiWalkerOptions unpinned;  // profiling would need the whole graph
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, unpinned, 2, starts, 1),
               std::invalid_argument);

  FlexiWalkerOptions int8;
  int8.edge_cost_ratio = 4.0;
  int8.use_int8_weights = true;  // O(edges) resident store
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, int8, 2, starts, 1),
               std::invalid_argument);

  FlexiWalkerOptions cached;
  cached.edge_cost_ratio = 4.0;
  cached.cache_static_tables = true;  // O(edges) resident alias tables
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, cached, 2, starts, 1),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(OutOfCore, OutOfRangeStartIsRejectedBeforeAnyWalk) {
  Graph g = TestGraph(200, 4.0, 43);
  const std::string path = BlockFilePath("range");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  DeepWalk walk(8);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  std::vector<NodeId> starts = {0, g.num_nodes()};
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, options, 2, starts, 1),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(OutOfCore, DispenseModesLeavePathsIdentical) {
  // Both execution tiers share the QueryQueue dispensation subsystem; the
  // out-of-core driver dispenses parked-walk buffers through it, and no
  // mode may move a path.
  Graph g = TestGraph(300, 5.0, 41);
  const std::string path = BlockFilePath("dispense");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(10);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  options.host_threads = 4;

  WalkResult reference = RunFlexiWalkerOutOfCore(store, walk, options, 2, starts, 5);
  for (DispenseMode mode : {DispenseMode::kPerQuery, DispenseMode::kChunkedSteal}) {
    FlexiWalkerOptions variant = options;
    variant.dispense = mode;
    WalkResult ooc = RunFlexiWalkerOutOfCore(store, walk, variant, 2, starts, 5);
    EXPECT_EQ(ooc.paths, reference.paths) << "mode=" << static_cast<int>(mode);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- untrusted block files --

// Byte layout of a block file (block_store.cc): 8-byte magic, 40-byte
// header, (num_nodes + 1) u64 row_ptr entries, 32-byte index entries, then
// the packed payloads.
constexpr size_t kHeaderAt = 8;
constexpr size_t kRowPtrAt = kHeaderAt + 40;
constexpr size_t kIndexEntryBytes = 32;

struct BlockFileImage {
  std::vector<char> bytes;
  size_t index_at = 0;
  size_t payload_at = 0;
  size_t num_blocks = 0;
};

// A small weighted, labeled, temporal graph spread over several blocks,
// written once and read back as bytes for the corruption tests.
BlockFileImage SmallBlockFile(const std::string& path) {
  Graph g = TestGraph(64, 4.0, 53);
  AssignLabels(g, 3, 54);
  AssignTimestamps(g, 50.0f, 55);
  BlockFileImage image;
  image.num_blocks = PartitionToBlockFile(g, path, kMinBlockBytes);
  std::ifstream in(path, std::ios::binary);
  image.bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  image.index_at = kRowPtrAt + (static_cast<size_t>(g.num_nodes()) + 1) * sizeof(EdgeId);
  image.payload_at = image.index_at + image.num_blocks * kIndexEntryBytes;
  return image;
}

void WriteImage(const std::string& path, const std::vector<char>& bytes, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(size));
}

template <typename T>
void Poke(std::vector<char>& bytes, size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

template <typename T>
T Peek(const std::vector<char>& bytes, size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

// Opens the file, loads every block and walks a few starts out of core.
// Returns false when the store rejected the file with std::runtime_error;
// any other exception escapes and fails the calling test, and a crash
// fails the whole suite.
bool OpensLoadsAndWalks(const std::string& path, bool map) {
  try {
    BlockStore store = BlockStore::Open(path, map);
    BlockData data;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      store.ReadBlock(b, data);
    }
    std::vector<NodeId> starts;
    for (NodeId v = 0; v < std::min<NodeId>(store.num_nodes(), 16); ++v) {
      starts.push_back(v);
    }
    DeepWalk walk(6);
    FlexiWalkerOptions options;
    options.edge_cost_ratio = 4.0;
    options.host_threads = 1;
    RunFlexiWalkerOutOfCore(store, walk, options, 2, starts, 1);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

TEST(BlockFileFuzz, IntactFileOpensLoadsAndWalks) {
  const std::string path = BlockFilePath("fuzz_intact");
  BlockFileImage image = SmallBlockFile(path);
  ASSERT_GE(image.num_blocks, 3u) << "the corruption tests need several blocks";
  EXPECT_EQ(image.payload_at + Peek<uint64_t>(image.bytes, kHeaderAt + 8) * 13,
            image.bytes.size())
      << "layout constants disagree with block_store.cc";
  for (bool map : {false, true}) {
    EXPECT_TRUE(OpensLoadsAndWalks(path, map));
  }
  std::remove(path.c_str());
}

TEST(BlockFileFuzz, EveryTruncationIsRejected) {
  const std::string path = BlockFilePath("fuzz_truncate");
  BlockFileImage image = SmallBlockFile(path);
  for (size_t size = 0; size < image.bytes.size(); ++size) {
    WriteImage(path, image.bytes, size);
    for (bool map : {false, true}) {
      EXPECT_FALSE(OpensLoadsAndWalks(path, map)) << "prefix " << size << " map " << map;
    }
  }
  std::remove(path.c_str());
}

TEST(BlockFileFuzz, InconsistentStructureIsRejected) {
  const std::string path = BlockFilePath("fuzz_structure");
  const BlockFileImage image = SmallBlockFile(path);
  const uint32_t num_nodes = Peek<uint32_t>(image.bytes, kHeaderAt);
  const size_t last_entry = image.index_at + (image.num_blocks - 1) * kIndexEntryBytes;
  struct Case {
    const char* name;
    std::function<void(std::vector<char>&)> corrupt;
  };
  const Case cases[] = {
      {"num_nodes past the file",
       [&](std::vector<char>& b) { Poke<uint32_t>(b, kHeaderAt, num_nodes + 1000); }},
      {"num_blocks past the file",
       [&](std::vector<char>& b) { Poke<uint32_t>(b, kHeaderAt + 4, 1000); }},
      {"unknown flag", [&](std::vector<char>& b) { Poke<uint32_t>(b, kHeaderAt + 24, 1u << 7); }},
      {"decreasing row_ptr",
       [&](std::vector<char>& b) {
         size_t at = kRowPtrAt + 10 * sizeof(EdgeId);
         Poke<EdgeId>(b, at, Peek<EdgeId>(b, at + sizeof(EdgeId)) + 1);
       }},
      {"block skips a node",
       [&](std::vector<char>& b) {
         size_t at = image.index_at + kIndexEntryBytes;
         Poke<uint32_t>(b, at, Peek<uint32_t>(b, at) + 1);
       }},
      {"block edge range off row_ptr",
       [&](std::vector<char>& b) {
         size_t at = image.index_at + kIndexEntryBytes + 16;
         Poke<uint64_t>(b, at, Peek<uint64_t>(b, at) + 1);
       }},
      {"payload offset that wraps",
       [&](std::vector<char>& b) { Poke<uint64_t>(b, last_entry + 24, ~uint64_t{0} - 2); }},
      {"payload offset past the end",
       [&](std::vector<char>& b) { Poke<uint64_t>(b, last_entry + 24, b.size()); }},
      {"neighbor id outside the graph",
       [&](std::vector<char>& b) { Poke<NodeId>(b, image.payload_at, num_nodes); }},
  };
  for (const Case& c : cases) {
    std::vector<char> bytes = image.bytes;
    c.corrupt(bytes);
    WriteImage(path, bytes, bytes.size());
    for (bool map : {false, true}) {
      EXPECT_FALSE(OpensLoadsAndWalks(path, map)) << c.name << ", map " << map;
    }
  }
  std::remove(path.c_str());
}

TEST(BlockFileFuzz, SeededByteFlipsAreRejectedOrHarmless) {
  // Some flips leave a different but well-formed file (a weight's mantissa,
  // the max_degree hint, an interior row_ptr entry that stays sorted); those
  // must load and walk cleanly. Every flip in the block index breaks the
  // tiling or the packed layout, so those must all be rejected.
  const std::string path = BlockFilePath("fuzz_flips");
  const BlockFileImage image = SmallBlockFile(path);
  struct Region {
    const char* name;
    size_t begin;
    size_t end;
    bool always_rejected;
  };
  const Region regions[] = {
      {"header", kHeaderAt, kRowPtrAt, false},
      {"row_ptr", kRowPtrAt, image.index_at, false},
      {"index", image.index_at, image.payload_at, true},
      {"payload", image.payload_at, image.bytes.size(), false},
  };
  std::mt19937_64 rng(20240611);
  for (const Region& region : regions) {
    int rejected = 0;
    constexpr int kFlips = 64;
    for (int i = 0; i < kFlips; ++i) {
      std::vector<char> bytes = image.bytes;
      size_t at = region.begin + rng() % (region.end - region.begin);
      bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(1 + rng() % 255));
      WriteImage(path, bytes, bytes.size());
      bool loaded = OpensLoadsAndWalks(path, false);
      EXPECT_EQ(OpensLoadsAndWalks(path, true), loaded) << region.name << " byte " << at;
      rejected += loaded ? 0 : 1;
      if (region.always_rejected) {
        EXPECT_FALSE(loaded) << region.name << " byte " << at;
      }
    }
    EXPECT_GT(rejected, 0) << region.name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flexi
