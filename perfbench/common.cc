#include "perfbench/common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "src/obs/metrics.h"
#include "src/rng/philox.h"

namespace perfbench {

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: perfbench <gen|workload> [--flag value]...");
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    std::string value = argv[++i];
    if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--graph") {
      args.graph = value;
    } else if (flag == "--blocks") {
      args.blocks = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--kind") {
      args.kind = value;
    } else if (flag == "--scale") {
      args.scale = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--edge-factor") {
      args.edge_factor = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--block-bytes") {
      args.block_bytes = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Note(const std::string& text) const {
  std::fprintf(stderr, "perfbench: %s\n", text.c_str());
}

void Report::Fail(uint64_t n, const std::string& why) {
  if (n == 0) {
    return;
  }
  failed_ += n;
  Note("FAILED " + std::to_string(n) + ": " + why);
}

double Report::SuccessRatio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
}

std::string Report::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, metric] = metrics_[i];
    out << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": " << metric.first
        << ", \"unit\": \"" << metric.second << "\"}";
  }
  out << "}}";
  return out.str();
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return flexi::obs::PercentileOfSorted(values, q);
}

unsigned HostThreads() { return std::max(1u, std::thread::hardware_concurrency()); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

RegistryValues SnapshotRegistry() {
  RegistryValues values;
  std::istringstream text(flexi::obs::MetricsRegistry::Global().RenderPrometheusText());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    values[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return values;
}

double RegistryDelta(const RegistryValues& before, const RegistryValues& after,
                     const std::string& family) {
  auto in_family = [&](const std::string& series) {
    return series.compare(0, family.size(), family) == 0 &&
           (series.size() == family.size() || series[family.size()] == '{');
  };
  double delta = 0.0;
  for (const auto& [series, value] : after) {
    if (in_family(series)) {
      delta += value;
    }
  }
  for (const auto& [series, value] : before) {
    if (in_family(series)) {
      delta -= value;
    }
  }
  return delta;
}

void ParallelFor(uint64_t n, unsigned threads,
                 const std::function<void(uint64_t, uint64_t)>& fn) {
  // ~16 claims per thread: enough to balance skewed items, few enough that
  // the shared cursor stays cold.
  const uint64_t chunk = std::clamp<uint64_t>(n / (uint64_t{threads} * 16), 1, 4096);
  std::atomic<uint64_t> next{0};
  auto body = [&] {
    for (;;) {
      uint64_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      fn(begin, std::min(n, begin + chunk));
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back(body);
  }
  body();
  for (std::thread& thread : pool) {
    thread.join();
  }
}

bool RowOk(const Graph& graph, NodeId start, const NodeId* row, uint32_t stride) {
  if (stride == 0 || row[0] != start) {
    return false;
  }
  uint32_t i = 1;
  for (; i < stride && row[i] != flexi::kInvalidNode; ++i) {
    if (row[i] >= graph.num_nodes() || !graph.HasEdge(row[i - 1], row[i])) {
      return false;
    }
  }
  if (i == stride) {
    return true;
  }
  if (graph.Degree(row[i - 1]) != 0) {
    return false;  // ended early away from a dead end
  }
  for (; i < stride; ++i) {
    if (row[i] != flexi::kInvalidNode) {
      return false;
    }
  }
  return true;
}

uint64_t CountBadRows(const Graph& graph, std::span<const NodeId> starts,
                      std::span<const NodeId> paths, uint32_t stride, unsigned threads) {
  if (paths.size() != starts.size() * stride) {
    return starts.size();
  }
  std::atomic<uint64_t> bad{0};
  ParallelFor(starts.size(), threads, [&](uint64_t begin, uint64_t end) {
    uint64_t local = 0;
    for (uint64_t r = begin; r < end; ++r) {
      local += RowOk(graph, starts[r], paths.data() + r * stride, stride) ? 0 : 1;
    }
    bad.fetch_add(local, std::memory_order_relaxed);
  });
  return bad.load();
}

uint64_t CountSteps(std::span<const NodeId> paths, uint32_t stride) {
  uint64_t steps = 0;
  for (size_t r = 0; r + stride <= paths.size(); r += stride) {
    for (uint32_t i = 1; i < stride && paths[r + i] != flexi::kInvalidNode; ++i) {
      ++steps;
    }
  }
  return steps;
}

uint64_t CountRowMismatches(std::span<const NodeId> a, std::span<const NodeId> b,
                            uint32_t stride) {
  if (a.size() != b.size()) {
    return std::max(a.size(), b.size()) / std::max<uint32_t>(stride, 1);
  }
  uint64_t mismatches = 0;
  for (size_t r = 0; r + stride <= a.size(); r += stride) {
    if (!std::equal(a.begin() + r, a.begin() + r + stride, b.begin() + r)) {
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<NodeId> SeededStarts(uint64_t seed, uint64_t stream, NodeId num_nodes,
                                 size_t count) {
  flexi::PhiloxStream rng(seed, 0x57A2700 + stream);
  std::vector<NodeId> starts(count);
  for (NodeId& start : starts) {
    start = static_cast<NodeId>(rng.NextBounded(num_nodes));
  }
  return starts;
}

std::string FreshJitDir(const Args& args, const std::string& tag) {
  static int counter = 0;
  std::string dir = args.work_dir + "/jit-" + std::to_string(::getpid()) + "-" + tag + "-" +
                    std::to_string(counter++);
  RemoveTree(dir);
  return dir;
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

}  // namespace perfbench
