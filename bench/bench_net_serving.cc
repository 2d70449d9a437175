// Network serving load generator: drives a WalkServer over localhost TCP
// with many single-query closed-loop clients and measures QPS and latency
// percentiles as a function of the request coalescer's wait bound.
//
// Two claims are demonstrated (the ISSUE 3 acceptance criteria):
//
//   1. Determinism across the socket — one client pipelining requests gets
//      paths bit-identical to a one-shot FlexiWalkerEngine::Run over the
//      same starts in submission order, for every wait bound and
//      pipeline depth tried. Checked exactly; any mismatch fails the run.
//   2. Coalescing pays — with many 1-query clients, a nonzero bound lets
//      the coalescer merge the requests that arrive while the pipeline is
//      busy into scheduler-sized batches (see the queries/batch column),
//      lifting QPS over bound=0 (coalescing disabled: one service
//      batch per request) by amortizing everything per-batch: dispatcher +
//      completer wakeups, pool job setup, result plumbing, and — via the
//      server's corked writes — one response send() per connection per
//      batch instead of per request. The effect scales with how cheap a
//      query is relative to those fixed costs, so the load phase serves the
//      cheapest workload in the repo: DeepWalk on the cached static-walk
//      fast path (O(1) per step). A final line shows what that fast path
//      itself buys at a fixed bound (ROADMAP's BuildNodeAliasTables
//      consumer).
//
// Clients are "burst closed loop": each keeps `burst` single-query requests
// in flight, so the admission stream stays busy without lock-stepping every
// client to the same batch boundary. Latency numbers are wall-clock on the
// host and vary by machine; the QPS shape across bounds is the result.
//
// Connection-count sweep (the event-loop tentpole's acceptance criterion):
// N concurrent connections — far past what a thread-per-connection reader
// could politely host — drive TWO registered workloads over the epoll event
// loop, one request in flight per connection. QPS/p50/p99 vs N lands in
// BENCH_net.json (net_configs; --json <path> overrides) for the CI perf
// trajectory, and every sweep re-verifies bit-parity per workload: served
// rows, sorted by service-global query id (= admission order, however the
// arrival interleaving went), must equal a one-shot engine run over the
// starts in that order.
//
// Overload phase (the deadline tentpole's acceptance criteria): open-loop
// traffic at ~2x the measured closed-loop capacity, every request carrying
// a tight deadline_us, against a baseline run of the same overload with no
// deadlines. Two gates, both hard failures:
//   (i)  every completed (non-expired) response is bit-identical to the
//        one-shot engine's row for its service-global query id — shedding
//        must never perturb the work it did not shed;
//   (ii) goodput — budget-meeting completions per second — with shedding
//        is at least the baseline's provably on-time rate under the same
//        offered load. Deadlines anchor at server receipt (wire v3), so
//        the shed run's deliveries are on-time by enforcement; the
//        baseline is counted by end-to-end latency, a conservative lower
//        bound on its server-anchored on-time rate. Results land in
//        BENCH_net.json (deadline_configs) for the CI perf trajectory.
//
// --quick shrinks the run for CI smoke.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/obs/metrics.h"
#include "src/walker/walk_service.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"

namespace flexi {
namespace {

struct LoadStats {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double queries_per_batch = 0.0;
  uint64_t batches = 0;
};

// One serving stack per configuration: fresh service (fresh global-id
// cursor) + server on an ephemeral port.
struct Stack {
  std::unique_ptr<WalkService> service;
  std::unique_ptr<WalkServer> server;

  Stack(const Graph& graph, const WalkLogic& walk, const FlexiWalkerOptions& options,
        double coalesce_ms, unsigned pipeline_depth, size_t max_batch) {
    service = MakeFlexiWalkerService(graph, walk, options, kBenchSeed, pipeline_depth);
    WalkServer::Options server_options;
    server_options.port = 0;
    server_options.coalescer.max_delay_ms = coalesce_ms;
    server_options.coalescer.max_batch_queries = max_batch;
    server.reset(new WalkServer(*service, graph.num_nodes(), server_options));
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      std::exit(1);
    }
  }

  ~Stack() {
    server->Stop();
    service->Shutdown();
  }
};

// Claim 1: pipelined requests from one connection reassemble, by
// first_query_id, into exactly the one-shot engine's path matrix.
bool CheckServedParity(const Graph& graph, const WalkLogic& walk,
                       const FlexiWalkerOptions& options, double coalesce_ms,
                       unsigned pipeline_depth, size_t requests) {
  Stack stack(graph, walk, options, coalesce_ms, pipeline_depth, /*max_batch=*/512);
  WalkClient client;
  if (!client.Connect("127.0.0.1", stack.server->port())) {
    return false;
  }
  std::vector<NodeId> all_starts;
  std::vector<std::future<WalkClient::Result>> futures;
  for (size_t r = 0; r < requests; ++r) {
    std::vector<NodeId> starts;
    for (size_t i = 0; i <= r % 5; ++i) {
      starts.push_back(static_cast<NodeId>((r * 13 + i * 7) % graph.num_nodes()));
    }
    all_starts.insert(all_starts.end(), starts.begin(), starts.end());
    futures.push_back(client.Submit(std::move(starts)));
  }
  WalkResult engine_result = FlexiWalkerEngine(options).Run(graph, walk, all_starts, kBenchSeed);
  std::vector<NodeId> served(engine_result.paths.size(), kInvalidNode);
  for (auto& future : futures) {
    WalkClient::Result result = future.get();
    if ((result.first_query_id + result.num_queries) * result.path_stride > served.size()) {
      return false;
    }
    std::copy(result.paths.begin(), result.paths.end(),
              served.begin() + result.first_query_id * result.path_stride);
  }
  return served == engine_result.paths;
}

// Claim 2: load generation. `clients` threads each keep `burst` single-query
// requests in flight (submit the burst, await it, repeat) — many 1-query
// clients with enough concurrency that the server's admission stream stays
// busy, rather than lock-stepping every client to the same batch boundary.
LoadStats RunLoad(const Graph& graph, const WalkLogic& walk, const FlexiWalkerOptions& options,
                  double coalesce_ms, unsigned pipeline_depth, int clients, int burst,
                  int requests_per_client) {
  Stack stack(graph, walk, options, coalesce_ms, pipeline_depth,
              /*max_batch=*/static_cast<size_t>(clients * burst));
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<bool> failed{false};
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      WalkClient client;
      if (!client.Connect("127.0.0.1", stack.server->port())) {
        failed.store(true);
        return;
      }
      latencies[c].reserve(requests_per_client);
      for (int r = 0; r < requests_per_client; r += burst) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<std::future<WalkClient::Result>> futures;
        for (int b = 0; b < burst && r + b < requests_per_client; ++b) {
          NodeId start = static_cast<NodeId>((c * 131 + (r + b) * 7) % graph.num_nodes());
          futures.push_back(client.Submit({start}));
        }
        for (auto& future : futures) {
          WalkClient::Result result = future.get();
          auto t1 = std::chrono::steady_clock::now();
          if (result.num_queries != 1) {
            failed.store(true);
            return;
          }
          latencies[c].push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  auto wall_end = std::chrono::steady_clock::now();
  if (failed.load()) {
    std::fprintf(stderr, "load generation failed\n");
    std::exit(1);
  }
  std::vector<double> all;
  for (auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  double wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  LoadStats stats;
  stats.qps = static_cast<double>(all.size()) / wall_s;
  stats.p50_us = obs::PercentileOfSorted(all, 0.50);
  stats.p99_us = obs::PercentileOfSorted(all, 0.99);
  stats.batches = stack.service->batches_completed();
  stats.queries_per_batch =
      stats.batches == 0 ? 0.0
                         : static_cast<double>(stack.service->queries_submitted()) /
                               static_cast<double>(stats.batches);
  return stats;
}

// Connection-count sweep row: N connections, one request in flight each,
// split across two workloads on one server.
struct SweepRow {
  int connections = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  bool parity = false;
};

// One request's record for post-hoc parity: which workload, where the
// service placed it (global id = admission order), what was asked and what
// came back.
struct RequestRecord {
  uint64_t first_query_id = 0;
  NodeId start = 0;
  std::vector<NodeId> paths;
};

// Drives `connections` concurrent clients (each its own connection, one
// request in flight) against a two-workload event-loop server, then checks
// each workload's served rows — sorted by global query id — against a
// one-shot engine run over the starts in that admission order. Arrival
// interleaving across connections is nondeterministic; the sorted-by-id
// reconstruction is exactly the order the coalescer admitted, so parity
// must be bit-exact anyway.
SweepRow RunConnectionSweep(const Graph& graph, const WalkLogic& walk_a, const WalkLogic& walk_b,
                            const FlexiWalkerOptions& options, int connections,
                            int requests_per_conn) {
  auto service_a = MakeFlexiWalkerService(graph, walk_a, options, kBenchSeed, 2);
  auto service_b = MakeFlexiWalkerService(graph, walk_b, options, kBenchSeed + 1, 2);
  WalkServer::Options server_options;
  server_options.port = 0;
  server_options.backlog = 1024;
  server_options.event_threads = 2;
  server_options.coalescer.max_delay_ms = 0.3;
  WalkServer server(*service_a, graph.num_nodes(), server_options);
  BatchCoalescer::Options admission_b;
  admission_b.max_delay_ms = 0.3;
  uint32_t workload_b = server.RegisterWorkload("b", *service_b, admission_b);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(1);
  }

  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::vector<RequestRecord>> records_a(connections);
  std::vector<std::vector<RequestRecord>> records_b(connections);
  std::atomic<bool> failed{false};
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      WalkClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failed.store(true);
        return;
      }
      for (int r = 0; r < requests_per_conn; ++r) {
        uint32_t workload = static_cast<uint32_t>((c + r) % 2 == 0 ? 0 : workload_b);
        NodeId start = static_cast<NodeId>((c * 257 + r * 31) % graph.num_nodes());
        auto t0 = std::chrono::steady_clock::now();
        WalkClient::Result result;
        try {
          result = client.Walk({start}, workload == 0 ? 0 : workload_b);
        } catch (const std::exception&) {
          failed.store(true);
          return;
        }
        auto t1 = std::chrono::steady_clock::now();
        latencies[c].push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        RequestRecord record{result.first_query_id, start,
                             {result.paths.begin(), result.paths.end()}};
        (workload == 0 ? records_a : records_b)[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  auto wall_end = std::chrono::steady_clock::now();
  if (failed.load()) {
    std::fprintf(stderr, "connection sweep failed at %d connections\n", connections);
    std::exit(1);
  }
  server.Stop();
  service_a->Shutdown();
  service_b->Shutdown();

  // Per-workload parity: admission order is the sort by global id.
  auto check = [&](std::vector<std::vector<RequestRecord>>& per_conn, const WalkLogic& walk,
                   uint64_t seed) {
    std::vector<RequestRecord> all;
    for (auto& records : per_conn) {
      for (auto& record : records) {
        all.push_back(std::move(record));
      }
    }
    std::sort(all.begin(), all.end(),
              [](const RequestRecord& x, const RequestRecord& y) {
                return x.first_query_id < y.first_query_id;
              });
    std::vector<NodeId> starts;
    std::vector<NodeId> served;
    for (auto& record : all) {
      starts.push_back(record.start);
      served.insert(served.end(), record.paths.begin(), record.paths.end());
    }
    WalkResult engine_result = FlexiWalkerEngine(options).Run(graph, walk, starts, seed);
    return served == engine_result.paths;
  };
  SweepRow row;
  row.connections = connections;
  row.parity = check(records_a, walk_a, kBenchSeed) && check(records_b, walk_b, kBenchSeed + 1);
  std::vector<double> all;
  for (auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());
  double wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  row.qps = static_cast<double>(all.size()) / wall_s;
  row.p50_us = obs::PercentileOfSorted(all, 0.50);
  row.p99_us = obs::PercentileOfSorted(all, 0.99);
  return row;
}

// One overload run: `clients` threads submit single-query requests open
// loop (paced by wall clock, not by completions) at rate_qps total for
// duration_s, harvesting responses as they become ready. deadline_us == 0
// is the no-shedding baseline. The admission quota is deliberately small so
// the in-service queue delay is bounded and the deadline budget is spent
// where shedding can act on it.
struct OverloadRun {
  double wall_s = 0.0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t expired = 0;  // kDeadlineExceeded answers (any shedding stage)
  uint64_t errors = 0;
  std::vector<double> latencies_us;  // completed requests only
  bool parity = true;
};

OverloadRun RunOverload(const Graph& graph, const WalkLogic& walk,
                        const FlexiWalkerOptions& options, double rate_qps, double duration_s,
                        uint64_t deadline_us, int clients) {
  auto service = MakeFlexiWalkerService(graph, walk, options, kBenchSeed, 2);
  WalkServer::Options server_options;
  server_options.port = 0;
  server_options.backlog = 256;
  server_options.coalescer.max_delay_ms = 0.3;
  server_options.coalescer.max_batch_queries = 512;
  server_options.coalescer.max_outstanding_queries = 256;
  WalkServer server(*service, graph.num_nodes(), server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(1);
  }

  struct ClientOut {
    std::vector<double> latencies;
    std::vector<RequestRecord> records;
    uint64_t submitted = 0;
    uint64_t expired = 0;
    uint64_t errors = 0;
  };
  std::vector<ClientOut> outs(clients);
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      WalkClient client;
      ClientOut& out = outs[c];
      if (!client.Connect("127.0.0.1", server.port())) {
        out.errors++;
        return;
      }
      struct Pending {
        std::future<WalkClient::Result> future;
        std::chrono::steady_clock::time_point t0;
        NodeId start;
      };
      std::deque<Pending> pending;
      auto harvest = [&](bool drain) {
        while (!pending.empty()) {
          if (!drain && pending.front().future.wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
            return;
          }
          Pending request = std::move(pending.front());
          pending.pop_front();
          try {
            WalkClient::Result result = request.future.get();
            out.latencies.push_back(std::chrono::duration<double, std::micro>(
                                        std::chrono::steady_clock::now() - request.t0)
                                        .count());
            out.records.push_back({result.first_query_id, request.start,
                                   {result.paths.begin(), result.paths.end()}});
          } catch (const ServerError& e) {
            if (e.code() == WireErrorCode::kDeadlineExceeded) {
              out.expired++;
            } else {
              out.errors++;
            }
          } catch (const std::exception&) {
            out.errors++;
          }
        }
      };
      auto interval =
          std::chrono::nanoseconds(static_cast<uint64_t>(1e9 * clients / rate_qps));
      auto next = std::chrono::steady_clock::now();
      auto end = next + std::chrono::nanoseconds(static_cast<uint64_t>(duration_s * 1e9));
      while (std::chrono::steady_clock::now() < end) {
        NodeId start =
            static_cast<NodeId>((c * 131 + out.submitted * 7) % graph.num_nodes());
        auto t0 = std::chrono::steady_clock::now();
        pending.push_back({client.Submit({start}, 0, deadline_us), t0, start});
        out.submitted++;
        harvest(false);
        next += interval;  // lateness is not repaid by bursting: fixed pacing
        std::this_thread::sleep_until(next);
      }
      harvest(true);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  auto wall_end = std::chrono::steady_clock::now();

  OverloadRun run;
  run.wall_s = std::chrono::duration<double>(wall_end - wall_start).count();
  for (ClientOut& out : outs) {
    run.submitted += out.submitted;
    run.expired += out.expired;
    run.errors += out.errors;
    run.latencies_us.insert(run.latencies_us.end(), out.latencies.begin(), out.latencies.end());
  }
  run.completed = run.latencies_us.size();
  std::sort(run.latencies_us.begin(), run.latencies_us.end());

  // Gate (i): the service assigned global ids 0..admitted-1 to the queries
  // it actually ran. Flush- and decode-shed requests never consumed ids; a
  // mid-run-cancelled batch's members did, but delivered nothing — their
  // ids are holes. Reconstruct the starts-by-id array (holes filled with a
  // placeholder whose row is never compared) and check every completed
  // response against the one-shot engine's row for its id.
  uint64_t admitted = service->queries_submitted();
  if (admitted > 0) {
    std::vector<NodeId> starts_by_id(admitted, 0);
    std::vector<const RequestRecord*> by_id(admitted, nullptr);
    for (ClientOut& out : outs) {
      for (RequestRecord& record : out.records) {
        if (record.first_query_id >= admitted) {
          run.parity = false;
          continue;
        }
        starts_by_id[record.first_query_id] = record.start;
        by_id[record.first_query_id] = &record;
      }
    }
    WalkResult reference = FlexiWalkerEngine(options).Run(graph, walk, starts_by_id, kBenchSeed);
    size_t stride = reference.paths.size() / admitted;
    for (uint64_t id = 0; id < admitted; ++id) {
      if (by_id[id] == nullptr) {
        continue;  // shed mid-run: id consumed, nothing delivered to compare
      }
      const std::vector<NodeId>& row = by_id[id]->paths;
      if (row.size() != stride ||
          !std::equal(row.begin(), row.end(), reference.paths.begin() + id * stride)) {
        run.parity = false;
      }
    }
  }
  server.Stop();
  service->Shutdown();
  return run;
}

// On-time completions per second: the fraction of completed responses whose
// end-to-end latency stayed within the deadline budget.
double OnTimeQps(const OverloadRun& run, uint64_t deadline_us) {
  size_t on_time = static_cast<size_t>(
      std::upper_bound(run.latencies_us.begin(), run.latencies_us.end(),
                       static_cast<double>(deadline_us)) -
      run.latencies_us.begin());
  return run.wall_s > 0.0 ? static_cast<double>(on_time) / run.wall_s : 0.0;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n", argv[0]);
      return 1;
    }
  }
  PrintHeader("Network serving: QPS / latency vs wait bound",
              "ISSUE 3 tentpole; docs/SERVING.md \"Network serving\"");

  Graph graph = LoadDataset(DatasetByName("YT"), WeightDistribution::kUniform);
  Node2VecWalk walk(2.0, 0.5, 80);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;  // pin: profiling is not what this measures
  options.host_threads = 0;       // hardware default

  // --- Claim 1: served paths == one-shot engine, all configurations. ---
  struct ParityConfig {
    double coalesce_ms;
    unsigned depth;
  };
  size_t parity_requests = quick ? 24 : 64;
  bool parity_ok = true;
  for (ParityConfig config :
       {ParityConfig{0.0, 1}, ParityConfig{0.5, 1}, ParityConfig{0.5, 4}, ParityConfig{2.0, 2}}) {
    bool ok = CheckServedParity(graph, walk, options, config.coalesce_ms, config.depth,
                                parity_requests);
    std::printf("parity vs one-shot engine | bound %.1f ms | pipeline %u : %s\n",
                config.coalesce_ms, config.depth, ok ? "bit-identical" : "MISMATCH");
    parity_ok &= ok;
  }
  if (!parity_ok) {
    std::fprintf(stderr, "served paths diverged from the one-shot engine\n");
    return 1;
  }

  // --- Claim 2: many 1-query closed-loop clients vs wait bound. The
  // served workload is DeepWalk on the cached static-walk fast path, whose
  // O(1) steps make per-batch dispatch the dominant per-query cost — the
  // regime request coalescing exists for. ---
  DeepWalk deepwalk(16);
  FlexiWalkerOptions cached_options = options;
  cached_options.cache_static_tables = true;
  int clients = 16;
  int burst = 8;
  int requests_per_client = quick ? 400 : 1200;
  unsigned pipeline_depth = 2;
  std::printf("\n%d clients x %d single-query requests (%d in flight per client), deepwalk "
              "len-16 on cached static tables, pipeline %u\n",
              clients, requests_per_client, burst, pipeline_depth);
  Table table({"bound_us", "QPS", "p50_us", "p99_us", "batches", "queries/batch"});
  double qps_bound0 = 0.0;
  double qps_best = 0.0;
  double best_bound_us = 0.0;
  for (double bound_us : {0.0, 100.0, 300.0, 1000.0}) {
    LoadStats stats = RunLoad(graph, deepwalk, cached_options, bound_us / 1000.0,
                              pipeline_depth, clients, burst, requests_per_client);
    if (bound_us == 0.0) {
      qps_bound0 = stats.qps;
    } else if (stats.qps > qps_best) {
      qps_best = stats.qps;
      best_bound_us = bound_us;
    }
    table.AddRow({Table::Num(bound_us), Table::Num(stats.qps), Table::Num(stats.p50_us),
                  Table::Num(stats.p99_us), std::to_string(stats.batches),
                  Table::Num(stats.queries_per_batch)});
  }
  table.Print();
  std::printf("\ncoalescing speedup (best nonzero bound vs bound=0): %.2fx\n",
              qps_bound0 > 0.0 ? qps_best / qps_bound0 : 0.0);

  // --- Satellite: what the cached static-walk fast path itself buys, at
  // the best wait bound found above. ---
  FlexiWalkerOptions uncached_options = options;
  uncached_options.cache_static_tables = false;
  LoadStats without_cache = RunLoad(graph, deepwalk, uncached_options, best_bound_us / 1000.0,
                                    pipeline_depth, clients, burst, requests_per_client);
  std::printf("static-table cache off (same %g us bound): %.1f QPS -> on: %.1f QPS "
              "(%.2fx from skipping per-step kernels)\n",
              best_bound_us, without_cache.qps, qps_best,
              without_cache.qps > 0.0 ? qps_best / without_cache.qps : 0.0);
  std::printf("served paths stayed bit-identical to the one-shot engine in every "
              "configuration above.\n");

  // --- Tentpole: connection-count sweep on the epoll event loop, two
  // workloads on one server, per-workload bit-parity re-checked at every
  // scale. ---
  DeepWalk sweep_walk_b(16);
  std::vector<int> connection_counts = quick ? std::vector<int>{64, 256}
                                             : std::vector<int>{64, 128, 256, 512};
  int requests_per_conn = quick ? 8 : 32;
  std::printf("\nconnection sweep: N connections x %d single-query requests, one in flight "
              "each, 2 workloads (deepwalk len-16 cached x2), epoll event loop, 2 event "
              "threads\n",
              requests_per_conn);
  Table sweep_table({"connections", "QPS", "p50_us", "p99_us", "parity"});
  std::vector<SweepRow> sweep_rows;
  bool sweep_parity_ok = true;
  for (int connections : connection_counts) {
    SweepRow row = RunConnectionSweep(graph, deepwalk, sweep_walk_b, cached_options, connections,
                                      requests_per_conn);
    sweep_parity_ok &= row.parity;
    sweep_table.AddRow({std::to_string(row.connections), Table::Num(row.qps),
                        Table::Num(row.p50_us), Table::Num(row.p99_us),
                        row.parity ? "bit-identical" : "MISMATCH"});
    sweep_rows.push_back(row);
  }
  sweep_table.Print();
  if (!sweep_parity_ok) {
    std::fprintf(stderr, "connection sweep paths diverged from the one-shot engines\n");
    return 1;
  }

  // --- Robustness tentpole: deadline shedding under overload. Open-loop
  // traffic at ~2x the best closed-loop QPS measured above; the baseline
  // run carries no deadlines, then each deadline config repeats the same
  // offered load with every request budgeted. ---
  double capacity_qps = qps_best;
  double overload_rate = 2.0 * capacity_qps;
  double overload_duration_s = quick ? 0.6 : 1.5;
  int overload_clients = quick ? 4 : 8;
  std::printf("\noverload: open loop at 2x capacity (%.0f QPS offered, %d clients, %.1f s), "
              "deepwalk len-16 cached, admission quota 256\n",
              overload_rate, overload_clients, overload_duration_s);
  OverloadRun baseline = RunOverload(graph, deepwalk, cached_options, overload_rate,
                                     overload_duration_s, /*deadline_us=*/0, overload_clients);
  struct DeadlineRow {
    uint64_t deadline_us = 0;
    double offered_qps = 0.0;
    double goodput_qps = 0.0;
    double baseline_ontime_qps = 0.0;
    OverloadRun run;
  };
  std::vector<DeadlineRow> deadline_rows;
  Table overload_table({"deadline_us", "offered_qps", "completed", "expired", "goodput_qps",
                        "baseline_ontime_qps", "parity"});
  bool overload_ok = baseline.parity;
  for (uint64_t deadline_us : {uint64_t{5'000}, uint64_t{20'000}}) {
    DeadlineRow row;
    row.deadline_us = deadline_us;
    row.run = RunOverload(graph, deepwalk, cached_options, overload_rate, overload_duration_s,
                          deadline_us, overload_clients);
    row.offered_qps = row.run.wall_s > 0.0
                          ? static_cast<double>(row.run.submitted) / row.run.wall_s
                          : 0.0;
    // Goodput with shedding = deliveries per second: the wire contract
    // anchors deadline_us at the server's receipt of the frame, and the
    // three shedding stages answered kDeadlineExceeded to everything that
    // lapsed — every delivered response passed that enforcement. The
    // baseline has no server-side certification, so count the completions
    // that provably met the budget: end-to-end latency within deadline_us
    // (e2e bounds the server-anchored latency from above, so this
    // overcounts nothing; client-side socket queueing makes it a lower
    // bound, which only makes the gate harder to hold by accident).
    row.goodput_qps = row.run.wall_s > 0.0
                          ? static_cast<double>(row.run.completed) / row.run.wall_s
                          : 0.0;
    row.baseline_ontime_qps = OnTimeQps(baseline, deadline_us);
    overload_ok &= row.run.parity;
    if (row.goodput_qps < row.baseline_ontime_qps) {
      std::fprintf(stderr,
                   "goodput gate failed at deadline %llu us: %.1f on-time QPS with shedding "
                   "< %.1f without\n",
                   static_cast<unsigned long long>(deadline_us), row.goodput_qps,
                   row.baseline_ontime_qps);
      overload_ok = false;
    }
    overload_table.AddRow({std::to_string(row.deadline_us), Table::Num(row.offered_qps),
                           std::to_string(row.run.completed), std::to_string(row.run.expired),
                           Table::Num(row.goodput_qps), Table::Num(row.baseline_ontime_qps),
                           row.run.parity ? "bit-identical" : "MISMATCH"});
    deadline_rows.push_back(std::move(row));
  }
  overload_table.Print();
  std::printf("baseline (no deadlines) under the same overload: %llu completed in %.2f s\n",
              static_cast<unsigned long long>(baseline.completed), baseline.wall_s);
  if (!overload_ok) {
    // Still fall through to the JSON write: the CI perf trajectory wants the
    // numbers from a failed run too — the exit code carries the verdict.
    std::fprintf(stderr, "overload phase failed a deadline gate (parity or goodput)\n");
  } else {
    std::printf("non-expired responses stayed bit-identical to the one-shot engine, and "
                "shedding never lost goodput to the no-deadline baseline.\n");
  }

  // --- BENCH_net.json: the sweep's per-config numbers for CI trend
  // tracking. Schema: {meta: {...}, bench, quick, net_configs:
  // [{connections, qps, p50_us, p99_us}], deadline_configs:
  // [{deadline_us, offered_qps, goodput_qps, baseline_ontime_qps}]}. ---
  if (std::FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    WriteBenchMetaJson(json, "net_serving", quick);
    std::fprintf(json, "  \"bench\": \"net_serving\",\n  \"quick\": %s,\n  \"net_configs\": [\n",
                 quick ? "true" : "false");
    for (size_t i = 0; i < sweep_rows.size(); ++i) {
      const SweepRow& row = sweep_rows[i];
      std::fprintf(json,
                   "    {\"connections\": %d, \"qps\": %.1f, \"p50_us\": %.1f, "
                   "\"p99_us\": %.1f}%s\n",
                   row.connections, row.qps, row.p50_us, row.p99_us,
                   i + 1 == sweep_rows.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n  \"deadline_configs\": [\n");
    for (size_t i = 0; i < deadline_rows.size(); ++i) {
      const DeadlineRow& row = deadline_rows[i];
      std::fprintf(json,
                   "    {\"deadline_us\": %llu, \"offered_qps\": %.1f, \"goodput_qps\": %.1f, "
                   "\"baseline_ontime_qps\": %.1f, \"completed\": %llu, \"expired\": %llu}%s\n",
                   static_cast<unsigned long long>(row.deadline_us), row.offered_qps,
                   row.goodput_qps, row.baseline_ontime_qps,
                   static_cast<unsigned long long>(row.run.completed),
                   static_cast<unsigned long long>(row.run.expired),
                   i + 1 == deadline_rows.size() ? "" : ",");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nconnection-sweep QPS/p50/p99 written to %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }
  return overload_ok ? 0 : 1;
}

}  // namespace
}  // namespace flexi

int main(int argc, char** argv) { return flexi::Main(argc, argv); }
