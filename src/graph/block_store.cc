#include "src/graph/block_store.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace flexi {
namespace {

constexpr std::array<char, 8> kBlockMagic = {'F', 'X', 'W', 'B', 'L', 'K', '0', '1'};

// Per-edge array presence flags in the header.
constexpr uint32_t kFlagWeighted = 1u << 0;
constexpr uint32_t kFlagLabeled = 1u << 1;
constexpr uint32_t kFlagTemporal = 1u << 2;

struct FileHeader {
  uint32_t num_nodes = 0;
  uint32_t num_blocks = 0;
  uint64_t num_edges = 0;
  uint64_t block_bytes = 0;
  uint32_t flags = 0;
  uint32_t max_degree = 0;
  uint32_t num_labels = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 40);

// The on-disk block index entry; kept explicit (not BlockMeta itself) so the
// in-memory struct can evolve without a format bump.
struct DiskBlock {
  uint32_t first_node = 0;
  uint32_t node_count = 0;
  uint64_t first_edge = 0;
  uint64_t edge_count = 0;
  uint64_t payload_offset = 0;
};
static_assert(sizeof(DiskBlock) == 32);

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Reads `count` values of T at `offset` into `dst` in cache-sized chunks,
// calling check(begin, end) on each chunk as soon as it lands. A second
// validation pass over a multi-megabyte array, after it has left the
// cache, costs a large share of the read itself; a hot chunk checks for a
// fraction of that.
template <typename T, typename Check>
void ReadChecked(const RandomAccessFile& file, T* dst, size_t count, uint64_t offset,
                 Check&& check) {
  constexpr size_t kChunk = (size_t{128} << 10) / sizeof(T);
  for (size_t begin = 0; begin < count; begin += kChunk) {
    size_t n = std::min(kChunk, count - begin);
    file.ReadAt(dst + begin, n * sizeof(T), offset + begin * sizeof(T));
    check(begin, begin + n);
  }
}

size_t EdgeBytes(bool weighted, bool labeled, bool temporal) {
  size_t bytes = sizeof(NodeId);
  if (weighted) {
    bytes += sizeof(float);
  }
  if (labeled) {
    bytes += sizeof(uint8_t);
  }
  if (temporal) {
    bytes += sizeof(float);
  }
  return bytes;
}

}  // namespace

size_t PartitionToBlockFile(const Graph& graph, const std::string& path, size_t block_bytes) {
  if (block_bytes < kMinBlockBytes) {
    throw std::invalid_argument("PartitionToBlockFile: block_bytes below kMinBlockBytes");
  }
  const size_t per_edge = EdgeBytes(graph.weighted(), graph.labeled(), graph.temporal());
  const NodeId n = graph.num_nodes();

  // Greedy contiguous partition: extend the current block while its payload
  // stays within budget; an oversized single row closes into its own block.
  std::vector<DiskBlock> blocks;
  {
    NodeId first = 0;
    while (first < n) {
      NodeId last = first;
      size_t bytes = 0;
      while (last < n) {
        size_t row = static_cast<size_t>(graph.Degree(last)) * per_edge;
        if (last > first && bytes + row > block_bytes) {
          break;
        }
        bytes += row;
        ++last;
        if (bytes > block_bytes) {
          break;  // single oversized row — block of one node
        }
      }
      DiskBlock b;
      b.first_node = first;
      b.node_count = last - first;
      b.first_edge = graph.EdgesBegin(first);
      b.edge_count = (last < n ? graph.EdgesBegin(last) : graph.num_edges()) - b.first_edge;
      blocks.push_back(b);
      first = last;
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("PartitionToBlockFile: cannot open " + path);
  }
  FileHeader header;
  header.num_nodes = n;
  header.num_blocks = static_cast<uint32_t>(blocks.size());
  header.num_edges = graph.num_edges();
  header.block_bytes = block_bytes;
  header.flags = (graph.weighted() ? kFlagWeighted : 0) | (graph.labeled() ? kFlagLabeled : 0) |
                 (graph.temporal() ? kFlagTemporal : 0);
  header.max_degree = graph.MaxDegree();
  header.num_labels = graph.num_labels();

  // Payloads start right after header + row_ptr + index.
  uint64_t offset = sizeof(kBlockMagic) + sizeof(FileHeader) +
                    (static_cast<uint64_t>(n) + 1) * sizeof(EdgeId) +
                    blocks.size() * sizeof(DiskBlock);
  for (DiskBlock& b : blocks) {
    b.payload_offset = offset;
    offset += b.edge_count * per_edge;
  }

  out.write(kBlockMagic.data(), kBlockMagic.size());
  WriteRaw(out, header);
  std::span<const EdgeId> row = graph.row_offsets();
  out.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size_bytes()));
  for (const DiskBlock& b : blocks) {
    WriteRaw(out, b);
  }
  for (const DiskBlock& b : blocks) {
    // Row-addressed spans so this works on any owning graph; blocks are
    // contiguous edge ranges, so one write per array covers the block.
    std::span<const NodeId> adj = graph.adjacency().subspan(b.first_edge, b.edge_count);
    out.write(reinterpret_cast<const char*>(adj.data()),
              static_cast<std::streamsize>(adj.size_bytes()));
    if (graph.weighted()) {
      std::span<const float> w = graph.property_weights().subspan(b.first_edge, b.edge_count);
      out.write(reinterpret_cast<const char*>(w.data()),
                static_cast<std::streamsize>(w.size_bytes()));
    }
    if (graph.labeled()) {
      for (EdgeId e = b.first_edge; e < b.first_edge + b.edge_count; ++e) {
        uint8_t label = graph.EdgeLabel(e);
        WriteRaw(out, label);
      }
    }
    if (graph.temporal()) {
      for (EdgeId e = b.first_edge; e < b.first_edge + b.edge_count; ++e) {
        float ts = graph.EdgeTimestamp(e);
        WriteRaw(out, ts);
      }
    }
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("PartitionToBlockFile: write failed for " + path);
  }
  return blocks.size();
}

BlockStore BlockStore::Open(const std::string& path, bool map) {
  // The file is untrusted input: every count, offset and range it declares
  // is checked against the file's size and the resident row_ptr before it
  // sizes an allocation or addresses a read, so a truncated or corrupt file
  // ends in std::runtime_error, never in a huge resize or a stray read.
  auto reject = [&path](const std::string& what) {
    throw std::runtime_error("BlockStore: " + what + " in " + path);
  };
  BlockStore store;
  store.file_ = RandomAccessFile::Open(path, map);
  const uint64_t file_size = store.file_.size();

  std::array<char, 8> magic{};
  store.file_.ReadAt(magic.data(), magic.size(), 0);
  if (magic != kBlockMagic) {
    reject("bad magic");
  }
  FileHeader header;
  store.file_.ReadAt(&header, sizeof(header), sizeof(kBlockMagic));
  store.num_nodes_ = header.num_nodes;
  store.num_edges_ = header.num_edges;
  store.block_bytes_ = header.block_bytes;
  store.max_degree_ = header.max_degree;
  store.num_labels_ = static_cast<uint8_t>(header.num_labels);
  store.weighted_ = (header.flags & kFlagWeighted) != 0;
  store.labeled_ = (header.flags & kFlagLabeled) != 0;
  store.temporal_ = (header.flags & kFlagTemporal) != 0;
  if ((header.flags & ~(kFlagWeighted | kFlagLabeled | kFlagTemporal)) != 0) {
    reject("unknown per-edge array flags");
  }

  // Counts are 32-bit, so these byte totals cannot overflow 64 bits.
  uint64_t offset = sizeof(kBlockMagic) + sizeof(FileHeader);
  const uint64_t row_ptr_bytes = (uint64_t{header.num_nodes} + 1) * sizeof(EdgeId);
  const uint64_t index_bytes = uint64_t{header.num_blocks} * sizeof(DiskBlock);
  if (row_ptr_bytes + index_bytes > file_size - offset) {
    reject("header declares more row_ptr/index entries than the file holds");
  }
  std::vector<EdgeId>& row = store.row_ptr_;
  row.resize(static_cast<size_t>(store.num_nodes_) + 1);
  // With every entry below 2^63, a step down shows as the top bit of the
  // entry's difference from its predecessor: one branch-free OR per entry.
  uint64_t top_bits = 0;
  ReadChecked(store.file_, row.data(), row.size(), offset, [&](size_t begin, size_t end) {
    uint64_t bits = 0;
    for (size_t i = std::max<size_t>(begin, 1); i < end; ++i) {
      bits |= row[i] | (row[i] - row[i - 1]);
    }
    top_bits |= bits;
  });
  offset += row_ptr_bytes;
  if (row.front() != 0 || row.back() != store.num_edges_ || (top_bits >> 63) != 0) {
    reject("row_ptr does not rise from 0 to num_edges");
  }

  // Blocks must tile [0, num_nodes) in order, each agreeing with row_ptr,
  // and their payloads must be packed back to back from the end of the
  // index to the end of the file, exactly as PartitionToBlockFile lays
  // them out.
  const uint64_t per_edge = store.BytesPerEdge();
  store.blocks_.resize(header.num_blocks);
  uint64_t next_node = 0;
  uint64_t next_payload = offset + index_bytes;
  for (uint32_t b = 0; b < header.num_blocks; ++b) {
    DiskBlock disk;
    store.file_.ReadAt(&disk, sizeof(disk), offset);
    offset += sizeof(disk);
    const uint64_t end_node = uint64_t{disk.first_node} + disk.node_count;
    if (disk.first_node != next_node || disk.node_count == 0 || end_node > header.num_nodes) {
      reject("block " + std::to_string(b) + " does not continue the node tiling");
    }
    if (disk.first_edge != store.row_ptr_[disk.first_node] ||
        disk.edge_count != store.row_ptr_[end_node] - disk.first_edge) {
      reject("block " + std::to_string(b) + " edge range disagrees with row_ptr");
    }
    // next_payload <= file_size holds here, so neither side can wrap.
    if (disk.payload_offset != next_payload ||
        disk.edge_count > (file_size - next_payload) / per_edge) {
      reject("block " + std::to_string(b) + " payload is not where the layout puts it");
    }
    next_node = end_node;
    next_payload += disk.edge_count * per_edge;
    BlockMeta& meta = store.blocks_[b];
    meta.first_node = disk.first_node;
    meta.node_count = disk.node_count;
    meta.first_edge = disk.first_edge;
    meta.edge_count = disk.edge_count;
    meta.payload_offset = disk.payload_offset;
  }
  if (next_node != header.num_nodes) {
    reject("blocks do not cover every node");
  }
  if (next_payload != file_size) {
    reject("file size disagrees with the blocks' payloads");
  }
  return store;
}

size_t BlockStore::BytesPerEdge() const { return EdgeBytes(weighted_, labeled_, temporal_); }

uint32_t BlockStore::BlockOf(NodeId v) const {
  // Last block whose first_node <= v; blocks cover [0, num_nodes) in order.
  auto it = std::upper_bound(blocks_.begin(), blocks_.end(), v,
                             [](NodeId node, const BlockMeta& b) { return node < b.first_node; });
  return static_cast<uint32_t>(it - blocks_.begin()) - 1;
}

void BlockStore::ReadBlock(size_t b, BlockData& out) const {
  const BlockMeta& meta = blocks_[b];
  size_t edges = static_cast<size_t>(meta.edge_count);
  uint64_t offset = meta.payload_offset;
  out.adjacency.resize(edges);
  // Walks index row_ptr and the block index by these ids; one past the
  // graph must fail the load, not the walk.
  NodeId* ids = out.adjacency.data();
  uint32_t outside = 0;
  ReadChecked(file_, ids, edges, offset, [ids, &outside, this](size_t begin, size_t end) {
    uint32_t bits = 0;
    for (size_t i = begin; i < end; ++i) {
      bits |= ids[i] >= num_nodes_;
    }
    outside |= bits;
  });
  offset += edges * sizeof(NodeId);
  if (outside != 0) {
    throw std::runtime_error("BlockStore: block " + std::to_string(b) +
                             " holds a neighbor id outside the graph");
  }
  if (weighted_) {
    out.weights.resize(edges);
    file_.ReadAt(out.weights.data(), edges * sizeof(float), offset);
    offset += edges * sizeof(float);
  } else {
    out.weights.clear();
  }
  if (labeled_) {
    out.labels.resize(edges);
    file_.ReadAt(out.labels.data(), edges * sizeof(uint8_t), offset);
    offset += edges * sizeof(uint8_t);
  } else {
    out.labels.clear();
  }
  if (temporal_) {
    out.timestamps.resize(edges);
    file_.ReadAt(out.timestamps.data(), edges * sizeof(float), offset);
  } else {
    out.timestamps.clear();
  }
}

Graph BlockStore::MakeBlockView(size_t b, const BlockData& data) const {
  const BlockMeta& meta = blocks_[b];
  return Graph::BlockView(row_ptr_, meta.first_edge, data.adjacency, data.weights, data.labels,
                          num_labels_, data.timestamps, max_degree_);
}

}  // namespace flexi
