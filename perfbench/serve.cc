// serve-two-tenant: an in-process WalkServer over the YT stand-in (LLC
// resident) with two registered workloads, driven open loop.
//
//   walk  deepwalk-16 on cached static tables, 1 start per request, ~98%
//   n2v   node2vec-80 with a compiled step kernel, 8 starts, ~2%
//
// One generator thread sends on a seeded Poisson schedule over a few client
// connections (walk requests alternate over kWalkConnections, n2v has one
// of its own); a harvester thread per connection waits for each response
// in send order. Latency runs from the request's *scheduled* send time, so
// a stall also charges the requests queued behind it. Phases: a short
// warm-up, then kRounds rounds of the frozen `half` and `near` rates, and
// (traced runs only) a fixed-step sweep for the highest rate meeting the
// SLO (walk p99 <= 2 ms, no failures, no backlog).
//
// Every served row is checked against the graph as it arrives, and a
// prefix of each tenant's rows, ordered by service-global query id, against
// a one-shot FlexiWalkerEngine run over the same starts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include <sys/prctl.h>

#include "perfbench/trace_reduce.h"
#include "perfbench/workloads.h"
#include "src/compiler/jit.h"
#include "src/graph/io.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/obs/metrics.h"
#include "src/rng/philox.h"
#include "src/walker/walk_service.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"

namespace perfbench {
namespace {

// Offered rates (requests/s, both tenants together), frozen from the first
// max_qps_slo measured on the reference host, 50000/s (README.md): near is
// 85% of it, half 50%. The sweep walks a fixed grid of kSweepStep
// multiples, starting at the near rate.
constexpr double kHalfRate = 25000;
constexpr double kNearRate = 42500;
constexpr double kSweepStep = 2500;
constexpr double kSloP99Us = 2000;

constexpr double kBulkShare = 0.02;
constexpr size_t kBulkStarts = 8;
constexpr int kWalkConnections = 2;
constexpr int kSlices = 10;  // a phase's percentile is the median over slices
// Rounds of alternating half/near phases; a reported latency is the median
// over rounds, so a host stall of a few seconds moves one round, not the
// result.
constexpr int kRounds = 6;
constexpr uint32_t kRequestTimeoutMs = 5000;

enum Tenant : uint32_t { kWalk = 0, kBulk = 1 };

struct Request {
  uint32_t tenant = kWalk;
  uint64_t sched_us = 0;
  uint64_t sent_us = 0;
  uint64_t done_us = 0;
  bool ok = false;
  uint64_t steps = 0;  // sampled steps in the answer
  uint64_t first_query_id = 0;
  std::vector<NodeId> starts;
  std::vector<NodeId> rows;  // kept only inside the parity prefix
  std::future<flexi::WalkClient::Result> future;
};

// One open-loop phase's requests, in schedule order.
struct Phase {
  double rate = 0.0;
  uint64_t begin_us = 0;  // schedule start
  uint64_t end_us = 0;    // schedule end
  std::deque<Request> requests;
};

// What the harvesters check on every response, and the totals they keep.
struct HarvestRules {
  const Graph* graph = nullptr;
  uint32_t stride[2] = {0, 0};          // per tenant
  uint64_t parity_queries[2] = {0, 0};  // rows kept below this global id
  std::atomic<bool> corrupt_next{false};  // self-test: flip a walk row node
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> bad_rows{0};
};

// Client connections plus their harvesters. The generator (the caller of
// RunPhase) creates each Request and hands it to a harvester through the
// connection's queue; the Phase owns the storage and outlives the harvest
// because RunPhase waits for every response.
class LoadDriver {
 public:
  LoadDriver(uint16_t port, uint32_t bulk_workload, HarvestRules* rules)
      : bulk_workload_(bulk_workload), rules_(rules) {
    flexi::WalkClient::Options options;
    options.request_timeout_ms = kRequestTimeoutMs;
    for (int c = 0; c <= kWalkConnections; ++c) {
      auto conn = std::make_unique<Connection>(options);
      std::string error;
      if (!conn->client.Connect("127.0.0.1", port, &error)) {
        throw std::runtime_error("connect: " + error);
      }
      conns_.push_back(std::move(conn));
    }
    for (auto& conn : conns_) {
      conn->harvester = std::thread([this, c = conn.get()] { Harvest(*c); });
    }
  }

  ~LoadDriver() {
    for (auto& conn : conns_) {
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->stop = true;
      }
      conn->cv.notify_all();
      conn->harvester.join();
      conn->client.Close();
    }
  }

  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  // Sends one phase at `rate` for `seconds` on the schedule drawn from
  // (seed, phase_id), then waits until every request was answered or
  // failed.
  std::unique_ptr<Phase> RunPhase(uint64_t phase_id, double rate, double seconds, uint64_t seed,
                                  NodeId num_nodes) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // precise sleeps on this thread
    auto phase = std::make_unique<Phase>();
    phase->rate = rate;
    flexi::PhiloxStream rng(seed, 0xA7717A1 + phase_id);
    const uint64_t begin_us = flexi::obs::NowMicros() + 1000;
    phase->begin_us = begin_us;
    phase->end_us = begin_us + static_cast<uint64_t>(seconds * 1e6);
    double offset_us = 0.0;
    uint64_t walk_turn = 0;
    for (;;) {
      offset_us += -std::log(1.0 - rng.NextUniform()) * 1e6 / rate;
      uint64_t sched = begin_us + static_cast<uint64_t>(offset_us);
      if (sched >= phase->end_us) {
        break;
      }
      Request& request = phase->requests.emplace_back();
      request.sched_us = sched;
      request.tenant = rng.NextUniform() < kBulkShare ? kBulk : kWalk;
      size_t count = request.tenant == kBulk ? kBulkStarts : 1;
      for (size_t i = 0; i < count; ++i) {
        request.starts.push_back(static_cast<NodeId>(rng.NextBounded(num_nodes)));
      }
      Connection& conn = request.tenant == kBulk ? *conns_[kWalkConnections]
                                                 : *conns_[walk_turn++ % kWalkConnections];
      WaitUntil(sched);
      request.sent_us = flexi::obs::NowMicros();
      request.future =
          conn.client.Submit(request.starts, request.tenant == kBulk ? bulk_workload_ : 0);
      outstanding_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(conn.mutex);
        conn.queue.push_back(&request);
      }
      conn.cv.notify_one();
    }
    rules_->attempted.fetch_add(phase->requests.size());
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [&] { return outstanding_.load() == 0; });
    return phase;
  }

 private:
  struct Connection {
    explicit Connection(const flexi::WalkClient::Options& options) : client(options) {}
    flexi::WalkClient client;
    std::mutex mutex;  // guards queue and stop
    std::condition_variable cv;
    std::deque<Request*> queue;
    bool stop = false;
    std::thread harvester;
  };

  // Sleeps until shortly before `us`, then spins: the generator must not
  // hold a core between sends, or it preempts the server's workers.
  static void WaitUntil(uint64_t us) {
    for (;;) {
      uint64_t now = flexi::obs::NowMicros();
      if (now >= us) {
        return;
      }
      if (us - now > 30) {
        std::this_thread::sleep_for(std::chrono::microseconds(us - now - 20));
      }
    }
  }

  void Harvest(Connection& conn) {
    for (;;) {
      Request* request = nullptr;
      {
        std::unique_lock<std::mutex> lock(conn.mutex);
        conn.cv.wait(lock, [&] { return conn.stop || !conn.queue.empty(); });
        if (conn.queue.empty()) {
          return;
        }
        request = conn.queue.front();
        conn.queue.pop_front();
      }
      request->future.wait();
      request->done_us = flexi::obs::NowMicros();
      Check(*request);
      if (outstanding_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void Check(Request& request) {
    flexi::WalkClient::Result result;
    try {
      result = request.future.get();
    } catch (const std::exception&) {
      rules_->errors.fetch_add(1);
      return;
    }
    const uint32_t stride = rules_->stride[request.tenant];
    if (result.num_queries != request.starts.size() || result.path_stride != stride) {
      rules_->errors.fetch_add(1);
      return;
    }
    if (request.tenant == kWalk && rules_->corrupt_next.exchange(false)) {
      result.paths[1] = result.paths[1] == 0 ? 1 : result.paths[1] - 1;
    }
    for (size_t q = 0; q < result.num_queries; ++q) {
      if (!RowOk(*rules_->graph, request.starts[q], result.paths.data() + q * stride, stride)) {
        rules_->bad_rows.fetch_add(1);
        return;
      }
    }
    request.ok = true;
    request.steps = CountSteps(result.paths, stride);
    request.first_query_id = result.first_query_id;
    if (result.first_query_id < rules_->parity_queries[request.tenant]) {
      request.rows = std::move(result.paths);
    }
  }

  uint32_t bulk_workload_;
  HarvestRules* rules_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<uint64_t> outstanding_{0};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

// Latencies (us, scheduled -> answered) of one tenant's successful
// requests among requests[begin, end).
std::vector<double> Latencies(const Phase& phase, uint32_t tenant, size_t begin, size_t end) {
  std::vector<double> out;
  for (size_t i = begin; i < end; ++i) {
    const Request& r = phase.requests[i];
    if (r.tenant == tenant && r.ok) {
      out.push_back(static_cast<double>(r.done_us - r.sched_us));
    }
  }
  return out;
}

std::vector<double> Latencies(const Phase& phase, uint32_t tenant) {
  return Latencies(phase, tenant, 0, phase.requests.size());
}

// Median over kSlices consecutive slices (schedule order) of the q-th
// latency percentile: one short stall moves one slice, not the result.
double SlicedPercentile(const Phase& phase, uint32_t tenant, double q) {
  std::vector<double> per_slice;
  size_t n = phase.requests.size();
  for (int s = 0; s < kSlices; ++s) {
    std::vector<double> lat = Latencies(phase, tenant, n * s / kSlices, n * (s + 1) / kSlices);
    if (!lat.empty()) {
      per_slice.push_back(Percentile(lat, q));
    }
  }
  return per_slice.empty() ? 0.0 : Median(per_slice);
}

// Median over phases (rounds) of SlicedPercentile.
double RoundMedian(const std::vector<const Phase*>& rounds, uint32_t tenant, double q) {
  std::vector<double> values;
  for (const Phase* phase : rounds) {
    values.push_back(SlicedPercentile(*phase, tenant, q));
  }
  return Median(values);
}

// Median over phases (rounds) of the bulk tenant's q-th percentile (whole
// phase: the bulk tenant has too few requests to slice).
double BulkRoundMedian(const std::vector<const Phase*>& rounds, double q) {
  std::vector<double> values;
  for (const Phase* phase : rounds) {
    std::vector<double> lat = Latencies(*phase, kBulk);
    if (!lat.empty()) {
      values.push_back(Percentile(lat, q));
    }
  }
  return values.empty() ? 0.0 : Median(values);
}

// Median over phases (rounds) of the sampled steps answered per second of
// the phase's schedule, both tenants together.
double RoundStepsPerSecond(const std::vector<const Phase*>& rounds) {
  std::vector<double> values;
  for (const Phase* phase : rounds) {
    uint64_t steps = 0;
    for (const Request& r : phase->requests) {
      steps += r.ok ? r.steps : 0;
    }
    values.push_back(static_cast<double>(steps) * 1e6 /
                     static_cast<double>(phase->end_us - phase->begin_us));
  }
  return Median(values);
}

// The SLO at one sweep step: no failed walk request, sliced walk p99 within
// the limit, and no backlog — requests still unanswered at the step's end
// may not exceed what twice the latency limit keeps in flight.
bool MeetsSlo(const Phase& phase, const Report& report) {
  uint64_t failed = 0;
  uint64_t late = 0;
  for (const Request& r : phase.requests) {
    failed += r.tenant == kWalk && !r.ok ? 1 : 0;
    late += r.done_us > phase.end_us ? 1 : 0;
  }
  double p99 = SlicedPercentile(phase, kWalk, 0.99);
  report.Note("sweep " + std::to_string(static_cast<int>(phase.rate)) + "/s: walk p99 " +
              std::to_string(p99) + " us, unanswered at step end " + std::to_string(late) +
              ", failed " + std::to_string(failed));
  return failed == 0 && p99 > 0 && p99 <= kSloP99Us &&
         static_cast<double>(late) <= std::max(16.0, 2.0 * phase.rate * kSloP99Us / 1e6);
}

// One complete serving stack: two services and the server routing to them.
struct Stack {
  std::unique_ptr<flexi::WalkService> walk_service;
  std::unique_ptr<flexi::WalkService> bulk_service;
  std::unique_ptr<flexi::WalkServer> server;
  uint32_t bulk_workload = 0;

  ~Stack() {
    if (server != nullptr) {
      server->Stop();
    }
    if (walk_service != nullptr) {
      walk_service->Shutdown();
    }
    if (bulk_service != nullptr) {
      bulk_service->Shutdown();
    }
  }
};

}  // namespace

int RunServeTwoTenant(const Args& args, Report& report) {
  const unsigned threads = HostThreads();
  flexi::DeepWalk walk(16);
  flexi::Node2VecWalk bulk(2.0, 0.5, 80);
  flexi::FlexiWalkerOptions walk_options;
  walk_options.cache_static_tables = true;
  walk_options.edge_cost_ratio = kPinnedEdgeCostRatio;
  walk_options.host_threads = threads;
  flexi::FlexiWalkerOptions bulk_options;
  bulk_options.jit = flexi::jit::JitMode::kOn;
  bulk_options.edge_cost_ratio = kPinnedEdgeCostRatio;
  bulk_options.host_threads = threads;
  const uint64_t walk_seed = args.seed;
  const uint64_t bulk_seed = args.seed + 1;

  // Set-up, several times: graph load, both services (static tables; JIT
  // compile into a fresh cache directory), server start.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> prepare_s;
  std::vector<double> compile_ms;
  double fallbacks = 0.0;
  Graph graph;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    flexi::jit::KernelCache::Global().ResetForTest();
    RegistryValues before = SnapshotRegistry();
    double t0 = NowSeconds();
    graph = flexi::ReadBinaryFile(args.graph);
    double t1 = NowSeconds();
    bulk_options.jit_cache_dir = FreshJitDir(args, "serve");
    stack = std::make_unique<Stack>();
    stack->walk_service = flexi::MakeFlexiWalkerService(graph, walk, walk_options, walk_seed, 2);
    stack->bulk_service = flexi::MakeFlexiWalkerService(graph, bulk, bulk_options, bulk_seed, 2);
    double t2 = NowSeconds();
    flexi::WalkServer::Options server_options;
    server_options.backlog = 256;
    server_options.coalescer.max_delay_ms = 0.3;
    stack->server = std::make_unique<flexi::WalkServer>(*stack->walk_service, graph.num_nodes(),
                                                        server_options);
    flexi::BatchCoalescer::Options bulk_admission;
    bulk_admission.max_delay_ms = 0.3;
    stack->bulk_workload =
        stack->server->RegisterWorkload("n2v", *stack->bulk_service, bulk_admission);
    std::string error;
    if (!stack->server->Start(&error)) {
      throw std::runtime_error("server start: " + error);
    }
    double t3 = NowSeconds();
    RegistryValues after = SnapshotRegistry();
    double compile = RegistryDelta(before, after, "jit_compile_ms_sum");
    setup_s.push_back(t3 - t0);
    load_s.push_back(t1 - t0);
    prepare_s.push_back(t2 - t1 - compile / 1e3);
    compile_ms.push_back(compile);
    fallbacks += RegistryDelta(before, after, "jit_fallbacks_total");
    RemoveTree(bulk_options.jit_cache_dir);
  }

  // The self-test scale runs the same phases at 1/20 of the rates.
  const double scale = args.tiny ? 0.05 : 1.0;
  const double half_rate = kHalfRate * scale;
  const double near_rate = kNearRate * scale;
  const double step = kSweepStep * scale;
  const double half_s = args.seconds * 0.6;
  const double near_s = args.seconds * 0.3;
  const double sweep_step_s = args.seconds * 0.06;

  HarvestRules rules;
  rules.graph = &graph;
  rules.stride[kWalk] = walk.walk_length() + 1;
  rules.stride[kBulk] = bulk.walk_length() + 1;
  rules.parity_queries[kWalk] = args.tiny ? 2000 : 100000;
  rules.parity_queries[kBulk] = args.tiny ? 400 : 4096;
  rules.corrupt_next = args.corrupt;
  std::vector<std::unique_ptr<Phase>> kept;  // phases whose rows/latencies are used
  uint64_t phase_id = 0;
  auto driver = std::make_unique<LoadDriver>(stack->server->port(), stack->bulk_workload, &rules);
  auto run = [&](double rate, double seconds) {
    return driver->RunPhase(phase_id++, rate, seconds, args.seed, graph.num_nodes());
  };

  // kRounds alternating half/near phases; returns the two phase lists.
  auto run_rounds = [&]() {
    std::pair<std::vector<const Phase*>, std::vector<const Phase*>> rounds;
    for (int r = 0; r < kRounds; ++r) {
      kept.push_back(run(half_rate, half_s / kRounds));
      rounds.first.push_back(kept.back().get());
      kept.push_back(run(near_rate, near_s / kRounds));
      rounds.second.push_back(kept.back().get());
    }
    return rounds;
  };

  RegistryValues run_before = SnapshotRegistry();
  kept.push_back(run(half_rate, std::min(0.5, half_s)));  // warm-up
  const auto [half, near] = run_rounds();

  // Sweep on the fixed grid from the near rate. Upward: until two steps in
  // a row miss the SLO (one miss can be a passing stall; saturation misses
  // every step). When the first step misses it, downward until one meets
  // it. max_qps_slo is the highest rate that met it.
  // The sweep runs only in the traced invocation: on the reference host its
  // result is not steady enough to gate (README.md), and it would double
  // every untraced run.
  double max_qps_slo = 0.0;
  double rate = near_rate;
  bool first_ok = true;
  int misses_in_a_row = 0;
  for (int s = 0; args.trace && s < 16 && rate > 0; ++s, rate += first_ok ? step : -step) {
    bool ok = MeetsSlo(*run(rate, sweep_step_s), report);
    first_ok = s == 0 ? ok : first_ok;
    misses_in_a_row = ok ? 0 : misses_in_a_row + 1;
    if (ok) {
      max_qps_slo = std::max(max_qps_slo, rate);
    }
    if ((first_ok && misses_in_a_row == 2) || (!first_ok && ok)) {
      break;
    }
  }
  double peak_rss = PeakRssMb();
  fallbacks += RegistryDelta(run_before, SnapshotRegistry(), "jit_fallbacks_total");

  std::unique_ptr<TracedRun> traced;
  std::vector<const Phase*> traced_half;
  std::vector<const Phase*> traced_near;
  double traced_wall_s = 0.0;
  if (args.trace) {
    traced = std::make_unique<TracedRun>();
    double t0 = NowSeconds();
    std::tie(traced_half, traced_near) = run_rounds();
    traced_wall_s = NowSeconds() - t0;
    traced->Finish();
  }
  driver.reset();
  stack.reset();

  // Output checks: the harvesters counted failures and invalid rows; here
  // a prefix of each tenant's rows in service-global id order must equal a
  // one-shot engine run over the same starts.
  report.Attempt(rules.attempted.load());
  report.Fail(rules.errors.load(), "requests refused, failed or timed out");
  report.Fail(rules.bad_rows.load(), "served requests with rows that are not walks of the graph");
  auto parity = [&](uint32_t tenant, const flexi::WalkLogic& logic,
                    const flexi::FlexiWalkerOptions& options, uint64_t seed) {
    std::vector<const Request*> served;
    for (const auto& phase : kept) {
      for (const Request& r : phase->requests) {
        if (r.tenant == tenant && !r.rows.empty()) {
          served.push_back(&r);
        }
      }
    }
    std::sort(served.begin(), served.end(), [](const Request* a, const Request* b) {
      return a->first_query_id < b->first_query_id;
    });
    std::vector<NodeId> starts;
    size_t prefix = 0;
    while (prefix < served.size() && served[prefix]->first_query_id == starts.size()) {
      starts.insert(starts.end(), served[prefix]->starts.begin(), served[prefix]->starts.end());
      ++prefix;
    }
    flexi::WalkResult reference = flexi::FlexiWalkerEngine(options).Run(graph, logic, starts, seed);
    uint64_t mismatched = 0;
    for (size_t i = 0; i < prefix; ++i) {
      const Request& r = *served[i];
      const NodeId* expected = reference.paths.data() + r.first_query_id * reference.path_stride;
      mismatched += std::equal(r.rows.begin(), r.rows.end(), expected) ? 0 : 1;
    }
    report.Note(std::string("parity ") + (tenant == kBulk ? "n2v" : "walk") + ": " +
                std::to_string(prefix) + " requests, " + std::to_string(starts.size()) +
                " queries");
    if (prefix == 0) {
      report.Fail(1, "no served rows to check against the one-shot engine");
    }
    report.Fail(mismatched, "served requests whose rows differ from the one-shot engine's");
  };
  parity(kWalk, walk, walk_options, walk_seed);
  parity(kBulk, bulk, bulk_options, bulk_seed);
  if (fallbacks > 0) {
    report.Fail(static_cast<uint64_t>(fallbacks), "JIT fallbacks (interpreted kernel ran)");
  }

  const double half_p50 = RoundMedian(half, kWalk, 0.50);
  report.Note("max_qps_slo " + std::to_string(max_qps_slo));
  if (!args.trace) {
    // A serving operation is one `walk`-tenant request at the half rate.
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("steps_per_s", RoundStepsPerSecond(half), "1/s");
    report.Metric("op_p50_us", half_p50, "us");
    report.Metric("peak_rss_mb", peak_rss, "MiB");
    report.Metric("success_ratio", report.SuccessRatio(), "ratio");
    return 0;
  }

  // Per-layer metrics from the traced pass: spans reduced by name, registry
  // deltas, and the client's own clocks. Request-scoped spans are read for
  // the walk tenant (workload 0); batch-scoped ones cover both tenants.
  auto delta = [&](const std::string& family) {
    return RegistryDelta(traced->before, traced->after, family);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto pct = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : Percentile(v, q);
  };
  std::map<std::string, std::vector<double>> walk_spans = SpanDurations(traced->spans, kWalk);
  std::map<std::string, std::vector<double>> all_spans = SpanDurations(traced->spans);
  std::vector<double> client_us;
  std::vector<double> send_lag_us;
  for (const std::vector<const Phase*>* rounds : {&traced_half, &traced_near}) {
    for (const Phase* phase : *rounds) {
      std::vector<double> lat = Latencies(*phase, kWalk);
      client_us.insert(client_us.end(), lat.begin(), lat.end());
      for (const Request& r : phase->requests) {
        send_lag_us.push_back(static_cast<double>(r.sent_us - r.sched_us));
      }
    }
  }
  const double batches = delta("flexi_scheduler_batches_total");
  // The near rate, the bulk tenant, the tails and the SLO capacity of the
  // untraced pass: reported here, without a bound (README.md).
  report.Metric("p50_us.near", RoundMedian(near, kWalk, 0.50), "us");
  report.Metric("bulk_p50_us.near", BulkRoundMedian(near, 0.50), "us");
  report.Metric("p90_us.half", RoundMedian(half, kWalk, 0.90), "us");
  report.Metric("p99_us.half", RoundMedian(half, kWalk, 0.99), "us");
  report.Metric("p90_us.near", RoundMedian(near, kWalk, 0.90), "us");
  report.Metric("p99_us.near", RoundMedian(near, kWalk, 0.99), "us");
  report.Metric("bulk_p90_us.near", BulkRoundMedian(near, 0.90), "us");
  report.Metric("bulk_p99_us.near", BulkRoundMedian(near, 0.99), "us");
  report.Metric("max_qps_slo", max_qps_slo, "1/s");
  report.Metric("graph.load_s", Median(load_s), "s");
  report.Metric("runtime.prepare_s", Median(prepare_s), "s");
  report.Metric("compiler.jit_compile_ms", Median(compile_ms), "ms");
  report.Metric("compiler.jit_fallbacks", fallbacks, "count");
  report.Metric("scheduler.steps_per_pass",
                ratio(delta("flexi_scheduler_steps_total"),
                      delta("flexi_scheduler_wavefront_passes_total")),
                "count");
  report.Metric("scheduler.steals", ratio(delta("flexi_scheduler_steals_total"), batches), "count");
  report.Metric("scheduler.refills", ratio(delta("flexi_scheduler_refills_total"), batches),
                "count");
  report.Metric("pool.busy_share",
                ratio(delta("flexi_worker_busy_us_total"), traced_wall_s * 1e6 * threads), "ratio");
  report.Metric("pool.jobs_per_batch", ratio(delta("flexi_worker_jobs_total"), batches), "count");
  report.Metric("pool.wakes_per_batch", ratio(delta("flexi_worker_wakes_total"), batches), "count");
  report.Metric("coalescer.queries_per_batch",
                ratio(delta("flexi_coalescer_batch_queries_sum"),
                      delta("flexi_coalescer_batch_queries_count")),
                "count");
  struct Stage {
    const char* metric;
    const char* span;
    bool per_request;
  };
  const Stage stages[] = {{"coalescer.wait_us", "coalesce", false},
                          {"coalescer.complete_us", "complete", false},
                          {"service.run_us", "schedule", false},
                          {"net.decode_us", "decode", true},
                          {"net.admit_us", "admit", true},
                          {"net.flush_us", "flush", false},
                          {"net.server_request_us", "request", true}};
  double stage_p50_sum = 0.0;
  for (const Stage& stage : stages) {
    const std::vector<double>& durations =
        stage.per_request ? walk_spans[stage.span] : all_spans[stage.span];
    report.Metric(std::string(stage.metric) + ".p50", pct(durations, 0.50), "us");
    report.Metric(std::string(stage.metric) + ".p99", pct(durations, 0.99), "us");
    stage_p50_sum += std::string(stage.span) == "request" ? 0.0 : pct(durations, 0.50);
  }
  const double request_p50 = pct(walk_spans["request"], 0.50);
  report.Metric("net.outside_server_us.p50", pct(client_us, 0.50) - request_p50, "us");
  report.Metric("net.cork_bytes_per_response",
                ratio(delta("flexi_server_cork_bytes_total"), delta("flexi_server_responses_total")),
                "B");
  report.Metric("net.epollout_resumptions", delta("flexi_server_epollout_resumptions_total"),
                "count");
  report.Metric("coalescer.would_block", delta("flexi_coalescer_requests_would_block_total"),
                "count");
  report.Metric("coalescer.rejected", delta("flexi_coalescer_requests_rejected_total"), "count");
  report.Metric("client.send_lag_us.p99", pct(send_lag_us, 0.99), "us");
  report.Metric("obs.trace_overhead", ratio(RoundMedian(traced_half, kWalk, 0.50), half_p50),
                "ratio");
  // Information only: how far the per-stage p50s fall from the whole.
  report.Note("stage p50 sum " + std::to_string(stage_p50_sum) + " us vs request span p50 " +
              std::to_string(request_p50) + " us" +
              (traced->wrapped ? " (trace ring filled: early spans lost)" : ""));
  return 0;
}

}  // namespace perfbench
