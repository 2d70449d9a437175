// On-disk edge-block container for out-of-core walk execution.
//
// PartitionToBlockFile splits a CSR graph into blocks of contiguous node
// ranges whose edge payload (adjacency plus whatever per-edge arrays the
// graph carries) fits a fixed byte budget, and writes one file:
//
//   header   magic, version, counts, block_bytes, per-edge array flags,
//            global max degree
//   row_ptr  the full (num_nodes + 1) global offset array — this stays
//            resident in memory even out of core (8 bytes per node, the
//            standard out-of-core compromise: degrees and block membership
//            are always answerable without I/O)
//   index    one BlockMeta per block: node range, edge range, payload offset
//   payload  per block, tightly packed: adjacency NodeId[], then weights
//            float[], labels uint8[], timestamps float[] when present
//
// All fields are little-endian host-width PODs, same convention as the
// binary CSR container in io.cc. A node whose single row exceeds the budget
// gets a block of its own (the block is simply bigger than block_bytes);
// every node lives in exactly one block and blocks cover [0, num_nodes) in
// order.
//
// BlockStore opens such a file, keeps the header + row_ptr + index resident,
// and serves ReadBlock via positioned reads (RandomAccessFile — pread by
// default, mmap-backed copies on request). It is read-only and safe to share
// across threads.
#ifndef FLEXIWALKER_SRC_GRAPH_BLOCK_STORE_H_
#define FLEXIWALKER_SRC_GRAPH_BLOCK_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/io.h"

namespace flexi {

// Smallest accepted block budget: below this the per-block metadata and
// syscall overhead dwarf the payload, and CLI typos (e.g. "--block-bytes 0")
// must not produce a one-edge-per-block file.
inline constexpr size_t kMinBlockBytes = 1024;
inline constexpr size_t kDefaultBlockBytes = size_t{4} << 20;

struct BlockMeta {
  NodeId first_node = 0;
  NodeId node_count = 0;
  EdgeId first_edge = 0;
  EdgeId edge_count = 0;
  uint64_t payload_offset = 0;  // absolute file offset of the block's payload
};

// Partitions `graph` into blocks of at most `block_bytes` of edge payload
// (except single-node oversized rows) and writes the block file at `path`.
// Returns the number of blocks written. Throws on I/O failure or a budget
// below kMinBlockBytes.
size_t PartitionToBlockFile(const Graph& graph, const std::string& path, size_t block_bytes);

// One block's edge arrays, loaded from disk. Reused across loads so a cache
// slot's buffers stop reallocating once they reach the block-size high-water
// mark.
struct BlockData {
  std::vector<NodeId> adjacency;
  std::vector<float> weights;
  std::vector<uint8_t> labels;
  std::vector<float> timestamps;
};

class BlockStore {
 public:
  // Opens a block file, loading header, row_ptr, and block index into
  // memory. `map` selects mmap-backed reads (RandomAccessFile::Open). The
  // file is untrusted: throws std::runtime_error, before allocating for it,
  // when the header's counts do not fit the file, and when row_ptr
  // decreases, the blocks do not tile [0, num_nodes) in order consistently
  // with row_ptr, or the payloads are not packed back to back up to the
  // file's end (so none runs past it).
  static BlockStore Open(const std::string& path, bool map = false);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }
  size_t num_blocks() const { return blocks_.size(); }
  size_t block_bytes() const { return block_bytes_; }
  uint32_t max_degree() const { return max_degree_; }
  bool weighted() const { return weighted_; }
  bool labeled() const { return labeled_; }
  bool temporal() const { return temporal_; }
  uint8_t num_labels() const { return num_labels_; }

  // The full resident row-offset array (num_nodes + 1 entries).
  std::span<const EdgeId> row_offsets() const { return row_ptr_; }

  const BlockMeta& block(size_t b) const { return blocks_[b]; }

  // Bytes of one edge across every stored per-edge array.
  size_t BytesPerEdge() const;
  // On-disk payload bytes of block b — the I/O cost of loading it.
  size_t BlockPayloadBytes(size_t b) const {
    return static_cast<size_t>(blocks_[b].edge_count) * BytesPerEdge();
  }
  // Total payload bytes across all blocks (the graph's edge footprint).
  size_t TotalPayloadBytes() const {
    return static_cast<size_t>(num_edges_) * BytesPerEdge();
  }

  // Index of the block holding node v's row. O(log num_blocks).
  uint32_t BlockOf(NodeId v) const;

  // Loads block b's payload into `out`, resizing its vectors to the block's
  // edge count (absent arrays are cleared). Thread-safe. Throws
  // std::runtime_error when a neighbor id is not below num_nodes().
  void ReadBlock(size_t b, BlockData& out) const;

  // Builds the non-owning Graph view over block b's loaded payload. `data`
  // must hold ReadBlock(b)'s output and outlive the view.
  Graph MakeBlockView(size_t b, const BlockData& data) const;

 private:
  RandomAccessFile file_;
  std::vector<EdgeId> row_ptr_;
  std::vector<BlockMeta> blocks_;
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  size_t block_bytes_ = 0;
  uint32_t max_degree_ = 0;
  uint8_t num_labels_ = 0;
  bool weighted_ = false;
  bool labeled_ = false;
  bool temporal_ = false;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_GRAPH_BLOCK_STORE_H_
