// Command-line driver: run any workload on any engine over a generated
// stand-in dataset or a user-supplied edge-list file, and print walk
// statistics (optionally writing the paths).
//
//   $ ./flexiwalker_cli --dataset YT --workload node2vec --engine flexiwalker
//   $ ./flexiwalker_cli --graph edges.txt --workload 2ndpr --queries 1000
//   $ echo "0 1 2 3" | ./flexiwalker_cli --dataset YT --serve
//   $ ./flexiwalker_cli --dataset YT --workload deepwalk --listen 7331   # TCP server
//   $ printf '0 1 2\nquit\n' | ./flexiwalker_cli --connect 7331         # TCP client
//   $ ./flexiwalker_cli --help
//
// Every flag is one row of FlagTable(), which drives parsing, the usage
// text, and the gate that rejects a flag given where it has no effect.
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/walk_analysis.h"
#include "src/baselines/baselines.h"
#include "src/graph/block_store.h"
#include "src/graph/datasets.h"
#include "src/graph/io.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walker/scheduler.h"
#include "src/walker/walk_service.h"
#include "src/walks/autoregressive.h"
#include "src/walks/deepwalk.h"
#include "src/walks/metapath.h"
#include "src/walks/node2vec.h"
#include "src/walks/ppr.h"
#include "src/walks/second_order_pr.h"
#include "src/walks/temporal.h"

namespace flexi {
namespace {

// Run modes. Every flag names the modes where it has an effect; giving it in
// any other mode is a usage error, never a silent no-op.
enum Mode : unsigned {
  kOneShot = 1u << 0,  // walk the --queries starts once and exit
  kServe = 1u << 1,    // --serve: stdin batches through one WalkService
  kListen = 1u << 2,   // --listen: TCP WalkServer
  kConnect = 1u << 3,  // --connect: TCP client; builds no graph or engine
};
constexpr unsigned kLocalModes = kOneShot | kServe | kListen;
constexpr unsigned kAllModes = kLocalModes | kConnect;

struct CliOptions {
  const DatasetSpec* dataset = &DatasetByName("YT");
  std::string graph_path;
  std::string workload = "node2vec";
  std::string engine = "flexiwalker";
  WeightDistribution weights = WeightDistribution::kUniform;
  double alpha = 2.0;
  uint32_t length = 80;
  size_t queries = 0;    // 0 = one per node
  unsigned threads = 0;  // 0 = hardware concurrency
  uint64_t seed = 2026;
  std::string out_path;
  uint32_t wavefront = 0;  // 0 = the scheduler default
  // Out-of-core tier (out_of_core.h): giving either flag routes the
  // one-shot run through the block-cached executor.
  size_t block_bytes = kDefaultBlockBytes;
  uint32_t cache_blocks = 4;
  uint16_t listen_port = 0;
  std::string connect;  // "port" or "host:port"
  unsigned coalesce_us = 200;
  size_t max_batch = 512;
  size_t admit = 1 << 16;
  BatchCoalescer::OverflowPolicy overflow = BatchCoalescer::OverflowPolicy::kBlock;
  unsigned pipeline = 2;
  std::string workloads;  // extra server workloads, see ParseWorkloadSpecs
  uint32_t workload_id = 0;
  uint64_t deadline_us = 0;
  unsigned request_timeout_ms = 0;
  unsigned retries = 0;
  unsigned drain_ms = 5000;
  std::string metrics_out;
  std::string trace_out;
  jit::JitMode jit = jit::JitMode::kOff;
  std::string jit_cache_dir;
  // Every flag given on the command line, by its table name.
  std::set<std::string_view> given;

  bool Given(std::string_view flag) const { return given.count(flag) != 0; }
};

// Distinct exit codes so scripts can tell failure modes apart: flag/usage
// errors, a --serve/--listen engine the serving stack does not support, and
// malformed stdin input (non-numeric/overflowing start-node tokens).
constexpr int kExitUsage = 1;
constexpr int kExitUnsupportedEngine = 2;
constexpr int kExitMalformedInput = 3;

// Strict unsigned parse: digits only, no sign, no trailing garbage, within
// [lo, hi]. A wrapped negative would mean a 71-minute wait bound or 4
// billion walks rather than a harmless default.
bool ParseUnsigned(const char* text, uint64_t lo, uint64_t hi, uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' || errno == ERANGE ||
      value < lo || value > hi) {
    return false;
  }
  out = value;
  return true;
}

template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

template <typename T>
bool ParseChoice(std::string_view text, const Choices<T>& choices, T& out) {
  for (const auto& [name, value] : choices) {
    if (text == name) {
      out = value;
      return true;
    }
  }
  return false;
}

template <typename T>
std::string ChoiceList(const Choices<T>& choices) {
  std::string list;
  for (const auto& choice : choices) {
    list += (list.empty() ? "" : "|") + choice.first;
  }
  return list;
}

const Choices<BatchCoalescer::OverflowPolicy> kOverflowChoices = {
    {"block", BatchCoalescer::OverflowPolicy::kBlock},
    {"reject", BatchCoalescer::OverflowPolicy::kReject}};

const char* OverflowName(BatchCoalescer::OverflowPolicy policy) {
  return policy == BatchCoalescer::OverflowPolicy::kReject ? "reject" : "block";
}

// How a flag's value is parsed and where it lands. `store` is null for
// presence flags, which take no value.
struct FlagValue {
  std::string metavar;  // usage placeholder
  std::string want;     // what a bad value is told to be
  std::function<bool(const char* text, CliOptions& options)> store;
};

FlagValue Presence() { return {}; }

FlagValue String(std::string CliOptions::*field, std::string metavar) {
  return {std::move(metavar), "",
          [field](const char* text, CliOptions& options) {
            options.*field = text;
            return true;
          }};
}

template <typename T>
FlagValue Unsigned(T CliOptions::*field, uint64_t lo, uint64_t hi, std::string metavar = "<n>") {
  return {std::move(metavar), std::to_string(lo) + ".." + std::to_string(hi),
          [field, lo, hi](const char* text, CliOptions& options) {
            uint64_t value = 0;
            if (!ParseUnsigned(text, lo, hi, value)) {
              return false;
            }
            options.*field = static_cast<T>(value);
            return true;
          }};
}

FlagValue Double(double CliOptions::*field) {
  return {"<float>", "a finite number", [field](const char* text, CliOptions& options) {
            errno = 0;
            char* end = nullptr;
            double value = std::strtod(text, &end);
            if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
              return false;
            }
            options.*field = value;
            return true;
          }};
}

template <typename T>
FlagValue Enum(T CliOptions::*field, Choices<T> choices) {
  std::string list = ChoiceList(choices);
  return {"<" + list + ">", list,
          [field, choices = std::move(choices)](const char* text, CliOptions& options) {
            return ParseChoice(text, choices, options.*field);
          }};
}

Choices<const DatasetSpec*> DatasetChoices() {
  Choices<const DatasetSpec*> choices;
  for (const DatasetSpec& spec : AllDatasets()) {
    choices.emplace_back(spec.name, &spec);
  }
  return choices;
}

// One row per flag: the table drives parsing, the usage text, and the mode
// gate, so a flag is declared exactly once.
struct Flag {
  std::string_view name;
  FlagValue value;
  unsigned modes;         // Mode bits where the flag has an effect
  bool flexiwalker_only;  // reaches only FlexiWalkerOptions
  const char* help;
};

const std::vector<Flag>& FlagTable() {
  using O = CliOptions;
  static const std::vector<Flag> table = {
      {"--help", Presence(), kAllModes, false, "print this text and exit (also -h)"},
      {"--dataset", Enum(&O::dataset, DatasetChoices()), kLocalModes, false,
       "stand-in dataset (default YT)"},
      {"--graph", String(&O::graph_path, "<path>"), kLocalModes, false,
       "edge-list file instead of a dataset"},
      {"--workload",
       String(&O::workload,
              "<node2vec|metapath|2ndpr|deepwalk|ppr|temporal|temporal-decay|autoregressive>"),
       kLocalModes, false, "walk workload (default node2vec)"},
      {"--engine",
       String(&O::engine,
              "<flexiwalker|flowwalker|nextdoor|csaw|skywalker|thunderrw|knightking|sowalker>"),
       kLocalModes, false, "walk engine (default flexiwalker; the serving modes need it)"},
      {"--weights",
       Enum(&O::weights, Choices<WeightDistribution>{{"uniform", WeightDistribution::kUniform},
                                                     {"pareto", WeightDistribution::kPareto},
                                                     {"degree", WeightDistribution::kDegreeBased},
                                                     {"none", WeightDistribution::kUnweighted}}),
       kLocalModes, false, "property weights (default uniform)"},
      {"--alpha", Double(&O::alpha), kLocalModes, false,
       "Pareto shape when --weights pareto (default 2.0)"},
      // The wire carries path_stride = length + 1 as a u32.
      {"--length", Unsigned(&O::length, 0, 0xFFFFFFFEull, "<steps>"), kLocalModes, false,
       "walk length (default 80)"},
      {"--queries", Unsigned(&O::queries, 0, 0xFFFFFFFFull), kOneShot, false,
       "number of start nodes (default: every node)"},
      {"--threads", Unsigned(&O::threads, 0, kMaxHostWorkers), kLocalModes, false,
       "host worker threads (default: hardware concurrency; walk paths are identical for "
       "any value)"},
      {"--seed", Unsigned(&O::seed, 0, std::numeric_limits<uint64_t>::max()), kAllModes, false,
       "RNG seed (default 2026; seeds the client's retry backoff under --connect)"},
      {"--out", String(&O::out_path, "<path>"), kOneShot | kServe | kConnect, false,
       "write walks, one per line"},
      {"--wavefront", Unsigned(&O::wavefront, 0, kMaxWavefront), kLocalModes, true,
       "in-flight walks per worker in the scheduler's batched inner loop (default 0 = "
       "scheduler default; 1 = walk-at-a-time; paths identical for any width)"},
      {"--jit",
       Enum(&O::jit, Choices<jit::JitMode>{{"on", jit::JitMode::kOn},
                                           {"off", jit::JitMode::kOff},
                                           {"auto", jit::JitMode::kAuto}}),
       kLocalModes, true,
       "compiled step kernels: specialize the workload's step into one dlopen'd function "
       "cached by program hash (default off; auto compiles in the background and swaps in; "
       "paths identical compiled or interpreted)"},
      {"--jit-cache-dir", String(&O::jit_cache_dir, "<path>"), kLocalModes, true,
       "on-disk .so cache for --jit (default: system temp)"},
      {"--static-cache", Presence(), kLocalModes, true,
       "cached static-walk fast path: walk static workloads (deepwalk/unweighted) from "
       "per-node alias tables"},
      // 1 GiB ceiling: a larger "block" defeats partitioning and is surely a
      // typo. The floor is the partitioner's own (block_store.h).
      {"--block-bytes", Unsigned(&O::block_bytes, kMinBlockBytes, 1ull << 30), kOneShot, true,
       "out-of-core: partition the graph into <= n-byte edge blocks (default 4 MiB); paths "
       "identical to the in-memory engine; giving this or --cache-blocks enables the tier"},
      {"--cache-blocks", Unsigned(&O::cache_blocks, 1, 1ull << 20), kOneShot, true,
       "out-of-core: resident-block budget (default 4); edge memory is bounded by "
       "cache-blocks x block-bytes; first-order workloads only"},
      {"--serve", Presence(), kServe, false,
       "streaming mode: read batches of start-node ids from stdin, one batch per line, "
       "until EOF or \"quit\"; see docs/SERVING.md"},
      {"--pipeline", Unsigned(&O::pipeline, 0, 256), kServe | kListen, false,
       "in-flight batch depth on the WalkService (default 2)"},
      {"--listen", Unsigned(&O::listen_port, 0, 65535, "<port>"), kListen, false,
       "serve over TCP on 127.0.0.1:<port> (0 = ephemeral; the bound port is printed); "
       "stdin EOF or \"quit\" stops"},
      // 60 s ceiling: anything longer is surely a typo, not a bound.
      {"--coalesce-us", Unsigned(&O::coalesce_us, 0, 60'000'000), kListen, false,
       "coalescer wait bound: the longest a request waits for a free pipeline slot; "
       "0 = one batch per request (default 200)"},
      {"--max-batch", Unsigned(&O::max_batch, 0, 1ull << 32), kListen, false,
       "coalescer flush threshold, queries (default 512)"},
      {"--admit", Unsigned(&O::admit, 0, 1ull << 32), kListen, false,
       "admission bound, queries pending + in flight (default 65536)"},
      {"--overflow", Enum(&O::overflow, kOverflowChoices), kListen, false,
       "backpressure when the bound is hit (default block)"},
      {"--workloads", String(&O::workloads, "<spec>"), kListen, false,
       "register extra workloads besides the primary --workload (always id 0): "
       "comma-separated name[:admit=<n>][:overflow=<block|reject>] entries, e.g. "
       "deepwalk:admit=1024:overflow=reject,ppr"},
      {"--drain-ms", Unsigned(&O::drain_ms, 0, 3'600'000), kListen, false,
       "SIGTERM/SIGINT graceful-drain grace: stop accepting, answer new requests "
       "\"draining\", let admitted work finish up to <n> ms (default 5000)"},
      {"--metrics-out", String(&O::metrics_out, "<path>"), kListen, false,
       "write the metrics registry as Prometheus text on SIGUSR1 and at shutdown"},
      {"--trace-out", String(&O::trace_out, "<path>"), kListen, false,
       "record request-lifecycle spans; write Chrome trace_event JSON at shutdown"},
      {"--connect", String(&O::connect, "<[host:]port>"), kConnect, false,
       "client mode: send stdin batches to a WalkServer"},
      {"--workload-id", Unsigned(&O::workload_id, 0, 0xFFFFFFFFull), kConnect, false,
       "route requests to server workload <n> (default 0; nonzero emits v2 frames)"},
      // 1 h ceiling, matching --coalesce-us's "surely a typo" convention.
      {"--deadline-us", Unsigned(&O::deadline_us, 0, 3'600'000'000ull), kConnect, false,
       "attach an <n>-microsecond latency budget to each request (v3 frames); the server "
       "sheds lapsed work and answers \"deadline exceeded\""},
      {"--request-timeout-ms", Unsigned(&O::request_timeout_ms, 0, 3'600'000), kConnect, false,
       "fail a request locally when no answer arrives within <n> ms (also bounds connect)"},
      {"--retries", Unsigned(&O::retries, 0, 1000), kConnect, false,
       "retry transient failures (torn connection, timeout, overloaded/draining/deadline-"
       "exceeded) up to <n> times with jittered exponential backoff"},
      {"--stats", Presence(), kConnect, false,
       "scrape the server's metrics registry, print the Prometheus text, exit"},
  };
  return table;
}

const Flag* FindFlag(std::string_view name) {
  for (const Flag& flag : FlagTable()) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

Mode RunMode(const CliOptions& options) {
  if (options.Given("--connect")) {
    return kConnect;
  }
  if (options.Given("--listen")) {
    return kListen;
  }
  return options.Given("--serve") ? kServe : kOneShot;
}

std::string ModeNames(unsigned modes) {
  static const std::pair<Mode, const char*> kNames[] = {
      {kOneShot, "one-shot"}, {kServe, "--serve"}, {kListen, "--listen"}, {kConnect, "--connect"}};
  std::string names;
  for (const auto& [mode, name] : kNames) {
    if ((modes & mode) != 0) {
      names += (names.empty() ? "" : "/") + std::string(name);
    }
  }
  return names;
}

// Prints `text` word-wrapped to `width` columns, continuation lines
// indented by `indent`.
void PrintWrapped(const std::string& text, size_t indent, size_t width) {
  std::istringstream words(text);
  std::string word;
  size_t column = indent;
  bool first = true;
  while (words >> word) {
    if (!first && column + 1 + word.size() > width) {
      std::printf("\n%*s", static_cast<int>(indent), "");
      column = indent;
      first = true;
    }
    std::printf("%s%s", first ? "" : " ", word.c_str());
    column += word.size() + (first ? 0 : 1);
    first = false;
  }
  std::printf("\n");
}

void PrintUsage() {
  std::printf(
      "flexiwalker_cli — run dynamic random walks\n\n"
      "modes: one-shot (default), --serve, --listen, --connect. A flag given in a mode (or\n"
      "with an --engine) where it has no effect is a usage error.\n\n");
  constexpr size_t kHelpColumn = 28;
  for (const Flag& flag : FlagTable()) {
    std::string left = "  " + std::string(flag.name);
    if (flag.value.store) {
      left += " " + flag.value.metavar;
    }
    std::string help = flag.help;
    if (!flag.value.want.empty() && flag.value.metavar.find(flag.value.want) == std::string::npos) {
      help += " (" + flag.value.want + ")";
    }
    help += " [" + ModeNames(flag.modes) + (flag.flexiwalker_only ? "; flexiwalker" : "") + "]";
    if (left.size() + 1 > kHelpColumn) {
      std::printf("%s\n%*s", left.c_str(), static_cast<int>(kHelpColumn), "");
    } else {
      std::printf("%-*s", static_cast<int>(kHelpColumn), left.c_str());
    }
    PrintWrapped(help, kHelpColumn, 100);
  }
  std::printf("exit codes: 0 ok | %d usage | %d unsupported engine | %d malformed input\n",
              kExitUsage, kExitUnsupportedEngine, kExitMalformedInput);
}

bool ParseArgs(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const Flag* flag = FindFlag(arg == "-h" ? "--help" : arg);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return false;
    }
    options.given.insert(flag->name);
    if (flag->name == "--help") {
      return true;
    }
    if (!flag->value.store) {
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return false;
    }
    const char* text = argv[++i];
    if (!flag->value.store(text, options)) {
      std::fprintf(stderr, "bad value for %s: %s (want %s)\n", argv[i - 1], text,
                   flag->value.want.c_str());
      return false;
    }
  }
  return true;
}

// The mode gate: every given flag must have an effect in this run.
bool FlagsApply(const CliOptions& options) {
  const Mode mode = RunMode(options);
  const bool flexiwalker = options.engine == "flexiwalker";
  for (const Flag& flag : FlagTable()) {
    if (!options.Given(flag.name) ||
        ((flag.modes & mode) != 0 && (flexiwalker || !flag.flexiwalker_only))) {
      continue;
    }
    std::string run = ModeNames(mode);
    if (mode != kConnect) {
      run += ", --engine " + options.engine;
    }
    std::fprintf(stderr, "%s applies only to %s runs%s (this run: %s)\n",
                 std::string(flag.name).c_str(), ModeNames(flag.modes).c_str(),
                 flag.flexiwalker_only ? " with --engine flexiwalker" : "", run.c_str());
    return false;
  }
  return true;
}

// The one FlexiWalkerOptions every mode runs with.
FlexiWalkerOptions MakeFlexiOptions(const CliOptions& options) {
  FlexiWalkerOptions engine_options;
  engine_options.host_threads = options.threads;
  engine_options.cache_static_tables = options.Given("--static-cache");
  engine_options.wavefront = options.wavefront;
  engine_options.jit = options.jit;
  engine_options.jit_cache_dir = options.jit_cache_dir;
  return engine_options;
}

std::unique_ptr<WalkLogic> MakeWorkload(const CliOptions& options) {
  if (options.workload == "node2vec") {
    return std::make_unique<Node2VecWalk>(2.0, 0.5, options.length);
  }
  if (options.workload == "metapath") {
    return std::make_unique<MetaPathWalk>(std::vector<uint8_t>{0, 1, 2, 3, 4});
  }
  if (options.workload == "2ndpr") {
    return std::make_unique<SecondOrderPageRankWalk>(0.2, options.length);
  }
  if (options.workload == "deepwalk") {
    return std::make_unique<DeepWalk>(options.length);
  }
  if (options.workload == "ppr") {
    return std::make_unique<PersonalizedPageRankWalk>(0.15, options.length);
  }
  if (options.workload == "temporal") {
    return std::make_unique<TemporalWalk>(options.length);
  }
  if (options.workload == "temporal-decay") {
    return std::make_unique<TemporalDecayWalk>(0.1, options.length);
  }
  if (options.workload == "autoregressive") {
    return std::make_unique<AutoregressiveWalk>(0.5, options.length);
  }
  return nullptr;
}

std::unique_ptr<Engine> MakeEngine(const CliOptions& options) {
  const std::string& name = options.engine;
  if (name == "flexiwalker") {
    return std::make_unique<FlexiWalkerEngine>(MakeFlexiOptions(options));
  }
  if (name == "flowwalker") {
    return std::make_unique<FlowWalkerEngine>();
  }
  if (name == "nextdoor") {
    return std::make_unique<NextDoorEngine>();
  }
  if (name == "csaw") {
    return std::make_unique<CSawEngine>();
  }
  if (name == "skywalker") {
    return std::make_unique<SkywalkerEngine>();
  }
  if (name == "thunderrw") {
    return std::make_unique<ThunderRWEngine>();
  }
  if (name == "knightking") {
    return std::make_unique<KnightKingEngine>();
  }
  if (name == "sowalker") {
    return std::make_unique<SOWalkerEngine>();
  }
  return nullptr;
}

// One walk per line, nodes space-separated, truncated at the first
// kInvalidNode (dead end). Shared by one-shot --out, serve-mode --out, and
// client-mode --out: WalkResult and WalkClient::Result both expose
// num_queries + Path(q).
template <typename ResultT>
void WriteWalks(std::ostream& out, const ResultT& result) {
  for (size_t qid = 0; qid < result.num_queries; ++qid) {
    bool first = true;
    for (NodeId node : result.Path(qid)) {
      if (node == kInvalidNode) {
        break;
      }
      out << (first ? "" : " ") << node;
      first = false;
    }
    out << "\n";
  }
}

// Parses one stdin line of whitespace-separated start-node ids. Returns
// false on the first malformed token (non-numeric, negative, overflow) —
// the serving modes exit kExitMalformedInput on that, because walking a
// partial batch would silently consume global query ids and shift every
// later batch's id range.
bool ParseStartsLine(const std::string& line, std::vector<NodeId>& starts,
                     std::string& bad_token) {
  std::istringstream tokens(line);
  std::string token;
  while (tokens >> token) {
    errno = 0;
    char* end = nullptr;
    unsigned long long id = std::strtoull(token.c_str(), &end, 10);
    if (token[0] == '-' || end == token.c_str() || *end != '\0' || errno == ERANGE ||
        id > std::numeric_limits<NodeId>::max()) {
      bad_token = token;
      return false;
    }
    starts.push_back(static_cast<NodeId>(id));
  }
  return true;
}

// Streaming mode: one WalkService over the prepared (graph, workload), fed
// batches of start-node ids from stdin — one whitespace-separated batch per
// line — until EOF or "quit". Query ids are global and monotonic across
// batches, so the printed paths for a given seed are bit-identical however
// the same starts are carved into lines (docs/SERVING.md).
int Serve(const CliOptions& options, const Graph& graph, const WalkLogic& workload) {
  if (options.engine != "flexiwalker") {
    std::fprintf(stderr, "--serve supports only --engine flexiwalker (got --engine %s)\n",
                 options.engine.c_str());
    return kExitUnsupportedEngine;
  }
  auto service = MakeFlexiWalkerService(graph, workload, MakeFlexiOptions(options), options.seed,
                                        options.pipeline);
  std::printf("serving on %u workers | one batch per line of start-node ids | EOF or \"quit\" ends\n",
              service->num_threads());

  std::ofstream out;
  if (!options.out_path.empty()) {
    out.open(options.out_path);
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") {
      break;
    }
    WalkBatch batch;
    std::string bad_token;
    if (!ParseStartsLine(line, batch.starts, bad_token)) {
      std::fprintf(stderr, "malformed input: token \"%s\" in line \"%s\"\n", bad_token.c_str(),
                   line.c_str());
      service->Shutdown();
      return kExitMalformedInput;
    }
    // Well-formed but out-of-range ids drop the whole batch (walking a
    // partial batch would shift every later batch's global id range), with
    // a warning rather than ending the session.
    bool in_range = true;
    for (NodeId id : batch.starts) {
      if (id >= graph.num_nodes()) {
        std::fprintf(stderr, "batch dropped: node %u out of range (graph has %u nodes)\n", id,
                     graph.num_nodes());
        in_range = false;
        break;
      }
    }
    if (!in_range || batch.starts.empty()) {
      continue;
    }
    BatchResult result = service->Submit(std::move(batch)).get();
    std::printf("batch %llu: %zu queries | qid [%llu, %llu) | wall %.2f ms | sim %.3f ms\n",
                static_cast<unsigned long long>(result.batch_index), result.walk.num_queries,
                static_cast<unsigned long long>(result.first_query_id),
                static_cast<unsigned long long>(result.first_query_id + result.walk.num_queries),
                result.walk.wall_ms, result.walk.sim_ms);
    if (out.is_open()) {
      WriteWalks(out, result.walk);
    }
  }
  uint64_t queries = service->queries_submitted();
  uint64_t batches = service->batches_completed();
  service->Shutdown();
  std::printf("served %llu queries in %llu batches\n", static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(batches));
  if (out.is_open()) {
    std::printf("walks written : %s\n", options.out_path.c_str());
  }
  return 0;
}

// One --workloads entry: a workload name plus optional per-workload
// admission overrides (defaults inherit the primary --admit/--overflow).
struct WorkloadSpec {
  std::string name;
  size_t admit = 0;
  BatchCoalescer::OverflowPolicy overflow = BatchCoalescer::OverflowPolicy::kBlock;
};

// Parses "name[:admit=<n>][:overflow=<block|reject>],..." — every name must
// be a known workload, names must be unique (each is a routing key), and
// "default" is reserved for the primary --workload at id 0.
bool ParseWorkloadSpecs(const CliOptions& options, std::vector<WorkloadSpec>& specs) {
  std::string text = options.workloads;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    std::string entry = text.substr(pos, comma == std::string::npos ? std::string::npos
                                                                    : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) {
      std::fprintf(stderr, "bad --workloads entry: empty name\n");
      return false;
    }
    WorkloadSpec spec;
    spec.admit = options.admit;
    spec.overflow = options.overflow;
    size_t field = 0;
    size_t colon = entry.find(':');
    spec.name = entry.substr(0, colon);
    while (colon != std::string::npos) {
      field = colon + 1;
      colon = entry.find(':', field);
      std::string suffix = entry.substr(field, colon == std::string::npos ? std::string::npos
                                                                          : colon - field);
      if (suffix.rfind("admit=", 0) == 0) {
        uint64_t n = 0;
        if (!ParseUnsigned(suffix.c_str() + 6, 1, 1ull << 32, n)) {
          std::fprintf(stderr, "bad --workloads entry: %s\n", entry.c_str());
          return false;
        }
        spec.admit = static_cast<size_t>(n);
      } else if (suffix.rfind("overflow=", 0) == 0) {
        if (!ParseChoice(std::string_view(suffix).substr(9), kOverflowChoices, spec.overflow)) {
          std::fprintf(stderr, "bad --workloads entry: %s (overflow wants %s)\n", entry.c_str(),
                       ChoiceList(kOverflowChoices).c_str());
          return false;
        }
      } else {
        std::fprintf(stderr, "bad --workloads entry: %s (unknown suffix \"%s\")\n",
                     entry.c_str(), suffix.c_str());
        return false;
      }
    }
    if (spec.name == "default") {
      std::fprintf(stderr,
                   "bad --workloads entry: \"default\" is reserved for the primary "
                   "--workload (id 0)\n");
      return false;
    }
    for (const WorkloadSpec& existing : specs) {
      if (existing.name == spec.name) {
        std::fprintf(stderr, "bad --workloads entry: duplicate name %s\n", spec.name.c_str());
        return false;
      }
    }
    CliOptions probe = options;
    probe.workload = spec.name;
    if (MakeWorkload(probe) == nullptr) {
      std::fprintf(stderr, "bad --workloads entry: unknown workload %s\n", spec.name.c_str());
      return false;
    }
    specs.push_back(std::move(spec));
  }
  return true;
}

// Snapshots the process metrics registry to `path` as Prometheus text.
// Truncate-and-rewrite so a scraper always sees one complete exposition.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write --metrics-out file: %s\n", path.c_str());
    return false;
  }
  out << obs::MetricsRegistry::Global().RenderPrometheusText();
  return true;
}

// --listen: serve the prepared (graph, workload) over TCP until stdin EOF
// or "quit". Requests coalesce into scheduler-sized batches while the
// service's pipeline slots are busy, under the configured wait bound and
// size threshold, with admission backpressure; see
// docs/SERVING.md ("Network serving").
int Listen(const CliOptions& options, const Graph& graph, const WalkLogic& workload) {
  if (options.engine != "flexiwalker") {
    std::fprintf(stderr, "--listen supports only --engine flexiwalker (got --engine %s)\n",
                 options.engine.c_str());
    return kExitUnsupportedEngine;
  }
  std::vector<WorkloadSpec> specs;
  if (options.Given("--workloads") && !ParseWorkloadSpecs(options, specs)) {
    return kExitUsage;
  }
  // Telemetry and signal setup, before any serving thread spawns: the
  // handled signals must be blocked process-wide (threads inherit the mask)
  // so only the dedicated sigwait thread sees them — SIGUSR1 scrapes
  // --metrics-out, SIGTERM/SIGINT drain the server gracefully — and the
  // trace ring must be live before the first request records a span. The
  // thread itself spawns after the server starts (it drives BeginDrain).
  if (!options.trace_out.empty()) {
    obs::TraceRing::Global().Enable(1 << 16);
  }
  sigset_t handled_signals;
  sigemptyset(&handled_signals);
  sigaddset(&handled_signals, SIGUSR1);
  sigaddset(&handled_signals, SIGTERM);
  sigaddset(&handled_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &handled_signals, nullptr);
  std::thread signal_thread;
  std::atomic<bool> signal_thread_stop{false};
  std::atomic<bool> drain_requested{false};
  const FlexiWalkerOptions engine_options = MakeFlexiOptions(options);
  auto service =
      MakeFlexiWalkerService(graph, workload, engine_options, options.seed, options.pipeline);

  WalkServer::Options server_options;
  server_options.port = options.listen_port;
  server_options.coalescer.max_delay_ms = options.coalesce_us / 1000.0;
  server_options.coalescer.max_batch_queries = options.max_batch;
  server_options.coalescer.max_outstanding_queries = options.admit;
  server_options.coalescer.overflow = options.overflow;
  WalkServer server(*service, graph.num_nodes(), server_options);

  // Extra workloads share the graph and engine configuration but get their
  // own WalkLogic, WalkService (seeded off the workload id so streams stay
  // independent), and admission quota.
  std::vector<std::unique_ptr<WalkLogic>> extra_logics;
  std::vector<std::unique_ptr<WalkService>> extra_services;
  for (size_t i = 0; i < specs.size(); ++i) {
    const WorkloadSpec& spec = specs[i];
    CliOptions spec_options = options;
    spec_options.workload = spec.name;
    extra_logics.push_back(MakeWorkload(spec_options));
    extra_services.push_back(MakeFlexiWalkerService(graph, *extra_logics.back(), engine_options,
                                                    options.seed + i + 1, options.pipeline));
    BatchCoalescer::Options admission = server_options.coalescer;
    admission.max_outstanding_queries = spec.admit;
    admission.overflow = spec.overflow;
    uint32_t id = server.RegisterWorkload(spec.name, *extra_services.back(), admission);
    std::printf("workload %u: %s | admit %zu | overflow %s\n", id, spec.name.c_str(), spec.admit,
                OverflowName(spec.overflow));
  }

  auto shutdown_services = [&] {
    service->Shutdown();
    for (auto& extra : extra_services) {
      extra->Shutdown();
    }
  };
  // Final telemetry dumps, after serving stops: poke the sigwait thread
  // loose with one last SIGUSR1 (the stop flag tells it apart from a user
  // scrape), then write the end-of-run snapshot and the trace.
  auto finish_telemetry = [&] {
    if (signal_thread.joinable()) {
      signal_thread_stop.store(true, std::memory_order_release);
      pthread_kill(signal_thread.native_handle(), SIGUSR1);
      signal_thread.join();
    }
    if (!options.metrics_out.empty() && WriteMetricsFile(options.metrics_out)) {
      std::printf("metrics written: %s\n", options.metrics_out.c_str());
    }
    if (!options.trace_out.empty()) {
      if (obs::TraceRing::Global().WriteChromeTrace(options.trace_out)) {
        std::printf("trace written  : %s (%zu spans)\n", options.trace_out.c_str(),
                    obs::TraceRing::Global().Snapshot().size());
      } else {
        std::fprintf(stderr, "cannot write --trace-out file: %s\n", options.trace_out.c_str());
      }
      obs::TraceRing::Global().Disable();
    }
  };
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    shutdown_services();
    finish_telemetry();
    return kExitUsage;
  }
  signal_thread = std::thread([&options, &server, &signal_thread_stop, &drain_requested,
                               &handled_signals] {
    for (;;) {
      int sig = 0;
      if (sigwait(&handled_signals, &sig) != 0) {
        return;
      }
      if (signal_thread_stop.load(std::memory_order_acquire)) {
        return;  // shutdown poke from Listen's exit path
      }
      if (sig == SIGUSR1) {
        if (!options.metrics_out.empty() && WriteMetricsFile(options.metrics_out)) {
          std::fprintf(stderr, "metrics written: %s\n", options.metrics_out.c_str());
        }
        continue;
      }
      // SIGTERM / SIGINT: graceful drain — stop accepting, answer new
      // requests kDraining, let admitted work finish up to the grace.
      // BeginDrain ends in Stop(), so by the time drain_requested becomes
      // visible the server is fully down and the main thread's own Stop()
      // is a no-op; telemetry is then flushed on the normal exit path.
      std::fprintf(stderr, "signal %d: draining (grace %u ms)\n", sig, options.drain_ms);
      server.BeginDrain(std::chrono::milliseconds(options.drain_ms));
      drain_requested.store(true, std::memory_order_release);
    }
  });
  std::printf(
      "listening on 127.0.0.1:%u | %u workers | wait bound %u us | max batch %zu | "
      "pipeline %u | overflow %s | EOF or \"quit\" stops\n",
      server.port(), service->num_threads(), options.coalesce_us, options.max_batch,
      service->pipeline_depth(), OverflowName(options.overflow));
  std::fflush(stdout);

  // Wait for an operator stop — stdin EOF or "quit" (interactive and script
  // use), or a signal-initiated drain. Polling stdin keeps the loop
  // responsive to the drain flag without a second thread owning stdin.
  std::string line;
  for (;;) {
    if (drain_requested.load(std::memory_order_acquire)) {
      break;
    }
    pollfd stdin_ready{STDIN_FILENO, POLLIN, 0};
    int ready = ::poll(&stdin_ready, 1, 100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0) {
      continue;
    }
    if (!std::getline(std::cin, line) || line == "quit") {
      break;
    }
  }
  server.Stop();
  uint64_t queries = service->queries_submitted();
  uint64_t batches = service->batches_completed();
  for (const auto& extra : extra_services) {
    queries += extra->queries_submitted();
    batches += extra->batches_completed();
  }
  shutdown_services();
  std::printf("served %llu queries in %llu batches | %llu connections | %llu requests "
              "(%llu rejected, %llu malformed frames)\n",
              static_cast<unsigned long long>(queries), static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.requests_received()),
              static_cast<unsigned long long>(server.requests_rejected()),
              static_cast<unsigned long long>(server.frames_malformed()));
  finish_telemetry();
  return 0;
}

// --connect: forward stdin batches to a WalkServer and print each result,
// mirroring serve-mode output so scripts can treat the two alike.
int Client(const CliOptions& options) {
  std::string host = "127.0.0.1";
  std::string port_text = options.connect;
  if (size_t colon = options.connect.rfind(':'); colon != std::string::npos) {
    host = options.connect.substr(0, colon);
    port_text = options.connect.substr(colon + 1);
  }
  uint64_t port = 0;
  if (!ParseUnsigned(port_text.c_str(), 1, 65535, port)) {
    std::fprintf(stderr, "bad --connect port: %s\n", options.connect.c_str());
    return kExitUsage;
  }
  WalkClient::Options client_options;
  client_options.connect_timeout_ms = options.request_timeout_ms;
  client_options.request_timeout_ms = options.request_timeout_ms;
  client_options.max_retries = options.retries;
  client_options.backoff.seed = options.seed;  // reproducible retry delays
  WalkClient client(client_options);
  std::string error;
  if (!client.Connect(host, static_cast<uint16_t>(port), &error)) {
    std::fprintf(stderr, "cannot connect to %s:%u: %s\n", host.c_str(),
                 static_cast<unsigned>(port), error.c_str());
    return kExitUsage;
  }
  // --stats: one scrape, print the Prometheus text verbatim, done. Scripts
  // pipe this through grep (scripts/ci smoke, docs/OBSERVABILITY.md).
  if (options.Given("--stats")) {
    try {
      std::string text = client.FetchStats();
      std::fwrite(text.data(), 1, text.size(), stdout);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stats scrape failed: %s\n", e.what());
      client.Close();
      return kExitUsage;
    }
    client.Close();
    return 0;
  }
  std::ofstream out;
  if (!options.out_path.empty()) {
    out.open(options.out_path);
  }
  uint64_t requests = 0;
  uint64_t queries = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") {
      break;
    }
    std::vector<NodeId> starts;
    std::string bad_token;
    if (!ParseStartsLine(line, starts, bad_token)) {
      std::fprintf(stderr, "malformed input: token \"%s\" in line \"%s\"\n", bad_token.c_str(),
                   line.c_str());
      return kExitMalformedInput;
    }
    if (starts.empty()) {
      continue;
    }
    try {
      WalkClient::Result result =
          client.Walk(std::move(starts), options.workload_id, options.deadline_us);
      std::printf("request %llu: %zu queries | qid [%llu, %llu)\n",
                  static_cast<unsigned long long>(requests), result.num_queries,
                  static_cast<unsigned long long>(result.first_query_id),
                  static_cast<unsigned long long>(result.first_query_id + result.num_queries));
      queries += result.num_queries;
      ++requests;
      if (out.is_open()) {
        WriteWalks(out, result);
      }
    } catch (const std::exception& e) {
      // Per-request server errors (out-of-range start, overload rejection)
      // keep the session alive; a dead connection ends it.
      std::fprintf(stderr, "request failed: %s\n", e.what());
      if (!client.connected()) {
        return kExitUsage;
      }
    }
  }
  client.Close();
  std::printf("received %llu results (%llu walks)\n", static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(queries));
  if (out.is_open()) {
    std::printf("walks written : %s\n", options.out_path.c_str());
  }
  return 0;
}

int Run(const CliOptions& options) {
  if (!FlagsApply(options)) {
    return kExitUsage;
  }
  // Client mode talks to a remote server: no graph, workload, or engine is
  // built locally (the server validates start ids against its own graph).
  const Mode mode = RunMode(options);
  if (mode == kConnect) {
    return Client(options);
  }
  // Every engine executes through the WalkScheduler; this sets its
  // process-wide worker count (0 keeps the hardware default).
  SetDefaultWorkerThreads(options.threads);

  Graph graph;
  if (!options.graph_path.empty()) {
    try {
      graph = ReadEdgeListFile(options.graph_path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "cannot read --graph: %s\n", e.what());
      return kExitUsage;
    }
    if (!graph.weighted() && options.weights != WeightDistribution::kUnweighted) {
      AssignWeights(graph, options.weights, options.alpha, options.seed + 1);
    }
    if (!graph.labeled()) {
      AssignLabels(graph, 5, options.seed + 2);
    }
  } else {
    graph = LoadDataset(*options.dataset, options.weights, options.alpha);
  }
  if ((options.workload == "temporal" || options.workload == "temporal-decay") &&
      !graph.temporal()) {
    AssignTimestamps(graph, 1.0f, options.seed + 3);
  }

  std::unique_ptr<WalkLogic> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload: %s\n", options.workload.c_str());
    return 1;
  }
  if (mode == kListen) {
    return Listen(options, graph, *workload);
  }
  if (mode == kServe) {
    return Serve(options, graph, *workload);
  }
  std::unique_ptr<Engine> engine = MakeEngine(options);
  if (engine == nullptr) {
    std::fprintf(stderr, "unknown --engine: %s\n", options.engine.c_str());
    return 1;
  }

  std::vector<NodeId> starts = AllNodesAsStarts(graph);
  if (options.queries != 0 && options.queries < starts.size()) {
    starts.resize(options.queries);
  }

  const bool out_of_core = options.Given("--block-bytes") || options.Given("--cache-blocks");
  std::printf(
      "graph: %u nodes / %llu edges | workload: %s | engine: %s%s | queries: %zu | threads: %u\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      workload->name().c_str(), engine->name().c_str(), out_of_core ? " (out-of-core)" : "",
      starts.size(), DefaultWorkerThreads());
  WalkResult result;
  if (out_of_core) {
    // Partition to a throwaway block file and walk it under the bounded
    // cache. The cost ratio is pinned: profiling samples the whole graph,
    // which is exactly what out-of-core execution cannot assume is
    // loadable (out_of_core.h).
    const std::string block_path =
        "/tmp/flexiwalker_cli_" + std::to_string(getpid()) + ".blk";
    size_t blocks = PartitionToBlockFile(graph, block_path, options.block_bytes);
    BlockStore store = BlockStore::Open(block_path);
    FlexiWalkerOptions engine_options = MakeFlexiOptions(options);
    engine_options.edge_cost_ratio = 4.0;
    OutOfCoreStats ooc_stats;
    std::printf("out-of-core   : %zu blocks of <= %zu bytes | cache %u blocks (%.2f MiB budget)\n",
                blocks, store.block_bytes(), options.cache_blocks,
                options.cache_blocks * static_cast<double>(store.block_bytes()) /
                    (1024.0 * 1024.0));
    try {
      result = RunFlexiWalkerOutOfCore(store, *workload, engine_options, options.cache_blocks,
                                       starts, options.seed, &ooc_stats);
    } catch (const std::invalid_argument& e) {
      // Second-order workloads (node2vec, 2ndpr) probe the previous node's
      // row, which block residency of the current node cannot serve; the
      // static-table and INT8 paths need the whole graph up front.
      std::fprintf(stderr, "out-of-core run rejected: %s\n", e.what());
      std::remove(block_path.c_str());
      return kExitUsage;
    }
    std::remove(block_path.c_str());
    std::printf("block loads   : %llu (%llu evictions, %llu cache hits, %llu walk parks)\n",
                static_cast<unsigned long long>(ooc_stats.block_loads),
                static_cast<unsigned long long>(ooc_stats.block_evictions),
                static_cast<unsigned long long>(ooc_stats.cache_hits),
                static_cast<unsigned long long>(ooc_stats.parks));
    std::printf("disk read     : %.2f MiB (%llu payload bytes)\n",
                ooc_stats.bytes_read / (1024.0 * 1024.0),
                static_cast<unsigned long long>(ooc_stats.bytes_read));
  } else {
    result = engine->Run(graph, *workload, starts, options.seed);
  }

  uint64_t steps = 0;
  for (size_t qid = 0; qid < result.num_queries; ++qid) {
    auto path = result.Path(qid);
    for (size_t s = 1; s < path.size() && path[s] != kInvalidNode; ++s) {
      ++steps;
    }
  }
  auto freq = VisitFrequencies(result, graph.num_nodes());
  NodeId hottest = 0;
  for (NodeId v = 1; v < graph.num_nodes(); ++v) {
    if (freq[v] > freq[hottest]) {
      hottest = v;
    }
  }
  std::printf("steps sampled : %llu\n", static_cast<unsigned long long>(steps));
  std::printf("wall clock    : %.2f ms\n", result.wall_ms);
  std::printf("simulated time: %.3f ms\n", result.sim_ms);
  std::printf("energy        : %.4f J\n", result.joules);
  std::printf("hottest node  : %u (%.3f%% of visits)\n", hottest, freq[hottest] * 100.0);

  if (!options.out_path.empty()) {
    std::ofstream out(options.out_path);
    WriteWalks(out, result);
    std::printf("walks written : %s\n", options.out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace flexi

int main(int argc, char** argv) {
  flexi::CliOptions options;
  if (!flexi::ParseArgs(argc, argv, options)) {
    return 1;
  }
  if (options.Given("--help")) {
    flexi::PrintUsage();
    return 0;
  }
  return flexi::Run(options);
}
