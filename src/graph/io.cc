#include "src/graph/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace flexi {
namespace {

constexpr std::array<char, 8> kMagic = {'F', 'X', 'W', 'G', 'R', 'P', 'H', '1'};

struct ParsedEdge {
  NodeId src;
  NodeId dst;
  float weight;
  int label;  // -1 when absent
  bool has_weight;
};

[[noreturn]] void Malformed(size_t line_no, const std::string& line) {
  throw std::runtime_error("malformed edge list at line " + std::to_string(line_no) + ": " +
                           line);
}

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& vec) {
  uint64_t n = vec.size();
  WriteRaw(out, n);
  out.write(reinterpret_cast<const char*>(vec.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
T ReadRaw(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error("truncated binary graph");
  }
  return value;
}

template <typename T>
std::vector<T> ReadVec(std::istream& in) {
  auto n = ReadRaw<uint64_t>(in);
  std::vector<T> vec(n);
  in.read(reinterpret_cast<char*>(vec.data()), static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) {
    throw std::runtime_error("truncated binary graph");
  }
  return vec;
}

}  // namespace

Graph ReadEdgeList(std::istream& in, NodeId num_nodes) {
  std::vector<ParsedEdge> edges;
  std::unordered_map<NodeId, NodeId> remap;
  bool dense = num_nodes != 0;
  bool any_weight = false;
  bool any_label = false;

  auto map_id = [&](uint64_t raw, size_t line_no, const std::string& line) -> NodeId {
    if (dense) {
      if (raw >= num_nodes) {
        Malformed(line_no, line);
      }
      return static_cast<NodeId>(raw);
    }
    auto [it, inserted] = remap.try_emplace(static_cast<NodeId>(raw),
                                            static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    uint64_t src_raw = 0;
    uint64_t dst_raw = 0;
    if (!(fields >> src_raw >> dst_raw)) {
      Malformed(line_no, line);
    }
    ParsedEdge edge{};
    edge.label = -1;
    edge.weight = 1.0f;
    double w = 0.0;
    if (fields >> w) {
      edge.weight = static_cast<float>(w);
      edge.has_weight = true;
      any_weight = true;
      int label = 0;
      if (fields >> label) {
        if (label < 0 || label > 255) {
          Malformed(line_no, line);
        }
        edge.label = label;
        any_label = true;
      }
    }
    edge.src = map_id(src_raw, line_no, line);
    edge.dst = map_id(dst_raw, line_no, line);
    edges.push_back(edge);
  }

  NodeId n = dense ? num_nodes : static_cast<NodeId>(remap.size());
  // Build CSR preserving per-edge weight/label: sort-by-(src,dst) mirrors
  // GraphBuilder but carries attributes along.
  std::sort(edges.begin(), edges.end(), [](const ParsedEdge& a, const ParsedEdge& b) {
    return a.src < b.src || (a.src == b.src && a.dst < b.dst);
  });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const ParsedEdge& a, const ParsedEdge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          }),
              edges.end());

  std::vector<EdgeId> row_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<NodeId> col_idx;
  std::vector<float> weights;
  std::vector<uint8_t> labels;
  uint8_t max_label = 0;
  col_idx.reserve(edges.size());
  for (const ParsedEdge& edge : edges) {
    ++row_ptr[edge.src + 1];
    col_idx.push_back(edge.dst);
    if (any_weight) {
      weights.push_back(edge.weight);
    }
    if (any_label) {
      uint8_t label = edge.label < 0 ? 0 : static_cast<uint8_t>(edge.label);
      labels.push_back(label);
      max_label = std::max(max_label, label);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    row_ptr[v + 1] += row_ptr[v];
  }
  Graph graph(std::move(row_ptr), std::move(col_idx));
  if (any_weight) {
    graph.SetPropertyWeights(std::move(weights));
  }
  if (any_label) {
    graph.SetEdgeLabels(std::move(labels), static_cast<uint8_t>(max_label + 1));
  }
  return graph;
}

Graph ReadEdgeListFile(const std::string& path, NodeId num_nodes) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return ReadEdgeList(in, num_nodes);
}

void WriteEdgeList(const Graph& graph, std::ostream& out) {
  out << "# nodes " << graph.num_nodes() << " edges " << graph.num_edges() << "\n";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (uint32_t i = 0; i < graph.Degree(v); ++i) {
      EdgeId e = graph.EdgesBegin(v) + i;
      out << v << ' ' << graph.Neighbor(v, i);
      if (graph.weighted()) {
        out << ' ' << graph.PropertyWeight(e);
        if (graph.labeled()) {
          out << ' ' << static_cast<int>(graph.EdgeLabel(e));
        }
      }
      out << '\n';
    }
  }
}

void WriteEdgeListFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  WriteEdgeList(graph, out);
}

void WriteBinary(const Graph& graph, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  WriteRaw<uint32_t>(out, graph.num_nodes());
  WriteRaw<uint64_t>(out, graph.num_edges());
  WriteRaw<uint8_t>(out, graph.weighted() ? 1 : 0);
  WriteRaw<uint8_t>(out, graph.labeled() ? graph.num_labels() : 0);

  // Reconstruct row_ptr from degrees (Graph does not expose it raw).
  std::vector<EdgeId> row_ptr(static_cast<size_t>(graph.num_nodes()) + 1, 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    row_ptr[v + 1] = row_ptr[v] + graph.Degree(v);
  }
  WriteVec(out, row_ptr);
  std::vector<NodeId> col_idx(graph.num_edges());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (uint32_t i = 0; i < graph.Degree(v); ++i) {
      col_idx[graph.EdgesBegin(v) + i] = graph.Neighbor(v, i);
    }
  }
  WriteVec(out, col_idx);
  if (graph.weighted()) {
    std::vector<float> weights(graph.property_weights().begin(),
                               graph.property_weights().end());
    WriteVec(out, weights);
  }
  if (graph.labeled()) {
    std::vector<uint8_t> labels(graph.num_edges());
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      labels[e] = graph.EdgeLabel(e);
    }
    WriteVec(out, labels);
  }
}

void WriteBinaryFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  WriteBinary(graph, out);
}

Graph ReadBinary(std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("not a FlexiWalker binary graph");
  }
  auto num_nodes = ReadRaw<uint32_t>(in);
  auto num_edges = ReadRaw<uint64_t>(in);
  auto weighted = ReadRaw<uint8_t>(in);
  auto num_labels = ReadRaw<uint8_t>(in);
  auto row_ptr = ReadVec<EdgeId>(in);
  auto col_idx = ReadVec<NodeId>(in);
  if (row_ptr.size() != static_cast<size_t>(num_nodes) + 1 || col_idx.size() != num_edges) {
    throw std::runtime_error("inconsistent binary graph header");
  }
  Graph graph(std::move(row_ptr), std::move(col_idx));
  if (weighted != 0) {
    graph.SetPropertyWeights(ReadVec<float>(in));
  }
  if (num_labels != 0) {
    graph.SetEdgeLabels(ReadVec<uint8_t>(in), num_labels);
  }
  return graph;
}

Graph ReadBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return ReadBinary(in);
}

RandomAccessFile::~RandomAccessFile() {
  if (map_ != nullptr) {
    ::munmap(map_, size_);
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

RandomAccessFile::RandomAccessFile(RandomAccessFile&& other) noexcept
    : fd_(other.fd_), size_(other.size_), map_(other.map_) {
  other.fd_ = -1;
  other.size_ = 0;
  other.map_ = nullptr;
}

RandomAccessFile& RandomAccessFile::operator=(RandomAccessFile&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) {
      ::munmap(map_, size_);
    }
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    size_ = other.size_;
    map_ = other.map_;
    other.fd_ = -1;
    other.size_ = 0;
    other.map_ = nullptr;
  }
  return *this;
}

RandomAccessFile RandomAccessFile::Open(const std::string& path, bool map) {
  RandomAccessFile file;
  file.fd_ = ::open(path.c_str(), O_RDONLY);
  if (file.fd_ < 0) {
    throw std::runtime_error("RandomAccessFile: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(file.fd_, &st) != 0) {
    throw std::runtime_error("RandomAccessFile: fstat " + path + ": " + std::strerror(errno));
  }
  file.size_ = static_cast<size_t>(st.st_size);
  if (map && file.size_ > 0) {
    void* p = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, file.fd_, 0);
    if (p == MAP_FAILED) {
      throw std::runtime_error("RandomAccessFile: mmap " + path + ": " + std::strerror(errno));
    }
    file.map_ = p;
  }
  return file;
}

void RandomAccessFile::ReadAt(void* dst, size_t bytes, uint64_t offset) const {
  // Written so a huge `offset` cannot wrap past the check.
  if (offset > size_ || bytes > size_ - offset) {
    throw std::runtime_error("RandomAccessFile: read past end of file");
  }
  if (map_ != nullptr) {
    std::memcpy(dst, static_cast<const char*>(map_) + offset, bytes);
    return;
  }
  char* out = static_cast<char*>(dst);
  size_t done = 0;
  while (done < bytes) {
    ssize_t n = ::pread(fd_, out + done, bytes - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("RandomAccessFile: pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("RandomAccessFile: unexpected EOF");
    }
    done += static_cast<size_t>(n);
  }
}

}  // namespace flexi
