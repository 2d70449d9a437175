// Request-batch coalescing with backpressure for the serving front-end.
//
// Network clients send small requests (often a single start node); the
// WalkService is happiest with scheduler-sized batches. The BatchCoalescer
// sits between them: TryEnqueue() admits a request, a flusher thread merges
// everything pending into one WalkBatch, and a completer thread carves each
// finished batch back into per-request results, invoking the request
// callbacks with their own path rows and service-global first query id.
//
// One work-conserving flush rule, with no timer to tune: the flusher flushes
// everything pending as soon as the service has a free pipeline slot (fewer
// of this coalescer's batches in flight than service.pipeline_depth()). An
// idle service therefore runs a request the moment it arrives. While every
// slot is busy, requests accumulate, and they flush together when a batch
// retires, when max_batch_queries fills, or when the oldest has waited
// max_delay_ms — so batch size follows load: tiny when traffic is sparse,
// large exactly when the service is the bottleneck.
//
// Ordering and determinism: requests join the merged batch in admission
// order, and only the flusher submits to the service, so the mapping from
// arrival order to global query ids is exactly the mapping a client would
// get submitting the same requests directly — coalescing (any flush
// carving) cannot change a single path (docs/SERVING.md).
//
// Backpressure: admission is bounded by max_outstanding_queries, counting
// pending *and* in-flight queries — pending requests cannot hide a service
// that has fallen behind. Admission never waits: overflow either asks the caller
// to park the request (kBlock — TryEnqueue returns kWouldBlock, the server
// stops reading that connection, which is TCP's own flow control, and
// re-presents the request when the batch-complete hook fires) or rejects
// immediately (kReject, the server answers kOverloaded and the client
// decides). A request larger than the whole bound is admitted only when
// the coalescer is idle, so it can never deadlock.
#ifndef FLEXIWALKER_SRC_NET_BATCH_COALESCER_H_
#define FLEXIWALKER_SRC_NET_BATCH_COALESCER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/walker/path_arena.h"
#include "src/walker/walk_service.h"

namespace flexi {

class BatchCoalescer {
 public:
  enum class OverflowPolicy {
    kBlock,   // TryEnqueue returns kWouldBlock; the caller parks the request
              // and re-presents it after the batch-complete hook fires
    kReject,  // TryEnqueue returns kRejected; the caller reports kOverloaded
  };

  struct Options {
    // Flush as soon as this many queries are pending, even while every
    // pipeline slot is busy. Sized to keep one batch within a few scheduler
    // quanta.
    size_t max_batch_queries = 512;
    // Wait bound: the longest a pending request waits for a free pipeline
    // slot before it is flushed anyway (queueing behind the busy slots in
    // the service). On an idle service nothing waits for it.
    // <= 0 disables coalescing entirely — every admitted request becomes its
    // own service batch, in admission order (the baseline bench_net_serving
    // compares against).
    double max_delay_ms = 0.2;
    // Admission bound: pending + in-flight queries. Beyond it, TryEnqueue
    // answers kWouldBlock or kRejected per `overflow`.
    size_t max_outstanding_queries = 1 << 16;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    // The workload="<label>" value on this coalescer's registry series
    // (obs/metrics.h). The WalkServer sets it to the workload's registered
    // name; standalone coalescers share the default series.
    std::string metrics_label = "default";
  };

  // Where an admitted request's path rows should be written. A request's
  // PlaceFn (optional TryEnqueue argument) is called once, on the flusher
  // thread, just before its batch is submitted: return `rows` pointing at
  // caller-owned storage of num_queries * path_stride NodeIds — contiguous,
  // sizeof(NodeId)-aligned, prefilled with kInvalidNode — and the
  // scheduler's workers write the request's rows straight there instead of
  // into a batch arena. The WalkServer places rows inside preallocated
  // response frames (wire.h BuildPlacedResponseFrame), which removes the
  // last arena -> frame copy from the serving path. `keepalive` pins the
  // storage; the coalescer holds it until the batch retires and the
  // RequestResult carries it beyond. Returning rows == nullptr declines
  // placement (the request falls back to the shared batch arena, e.g. on a
  // big-endian host where native stores are not wire order).
  struct Placement {
    NodeId* rows = nullptr;
    std::shared_ptr<const void> keepalive;
  };
  using PlaceFn = std::function<Placement(size_t num_queries, uint32_t path_stride)>;

  // One admitted request's slice of a finished batch. `paths` is a view of
  // the rows the scheduler's workers wrote — the request's Placement when
  // `placed`, otherwise the batch's shared fallback PathArena — never
  // copied, valid for as long as `keepalive` (held by this result, or any
  // copy of it) lives. A callback that needs the nodes past its own
  // lifetime copies the span; the WalkServer instead corks the placed frame
  // the rows already live in.
  struct RequestResult {
    uint64_t first_query_id = 0;  // global id of the request's first query
    uint32_t path_stride = 0;
    size_t num_queries = 0;
    bool placed = false;            // rows live in the request's Placement
    std::span<const NodeId> paths;  // num_queries rows of path_stride nodes
    std::shared_ptr<const void> keepalive;  // keeps `paths` alive
  };

  // Invoked exactly once per admitted request, from the completer thread.
  // Must not call back into TryEnqueue/Shutdown (it may, however, write to
  // sockets — the server's response path).
  using DoneFn = std::function<void(RequestResult)>;

  // Invoked — instead of DoneFn, never both — when the coalescer sheds an
  // admitted request whose deadline lapsed: at flush (dropped from the
  // batch before it is built) or mid-run (the whole batch was cancelled
  // because every member's deadline passed). Runs off the coalescer lock on
  // the flusher or completer thread; same reentrancy rules as DoneFn. The
  // server's callback answers the client kDeadlineExceeded.
  using ExpireFn = std::function<void()>;

  // A request's deadline, given at TryEnqueue. `at_us` is absolute
  // on the obs::NowMicros() timebase (the caller anchors the wire's
  // relative budget at decode); 0 = no deadline, never shed. `expired` may
  // be empty (shed silently).
  struct Deadline {
    uint64_t at_us = 0;
    ExpireFn expired;
  };

  // Optional, runs on the completer thread after every batch retires —
  // completed, cancelled, or failed — once its callbacks have run and its
  // admission slots are released. The WalkServer uses it to flush
  // per-connection corked response writes — a coalesced batch completing N
  // requests on one connection then costs one send() instead of N — and to
  // unpark connections waiting on the freed space; it is the only wakeup a
  // kWouldBlock caller gets. Also fired at flush when deadline-lapsed
  // members were shed. Set before the first TryEnqueue.
  void SetBatchCompleteHook(std::function<void()> hook) { on_batch_complete_ = std::move(hook); }

  // The service must outlive the coalescer and must not be Shutdown()
  // until BatchCoalescer::Shutdown() has returned — in-flight batches
  // complete through it. (A violated order fails the affected requests'
  // callbacks with a stderr note rather than crashing.)
  BatchCoalescer(WalkService& service, Options options);
  ~BatchCoalescer();  // Shutdown()

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  // Admits the request into the pending queue, without ever waiting.
  // `place` optionally scatters the request's rows into caller-owned
  // storage (see Placement); requests with and without placements coalesce
  // into the same batches. `deadline` optionally bounds the request's life:
  // a member whose deadline passes before its batch is built is dropped at
  // flush (ExpireFn, not DoneFn), and a flushed batch whose *every* member
  // carries a deadline is cancelled cooperatively once the last of them
  // lapses (SchedulerOptions::cancel through WalkService::SubmitInto).
  //
  // Over the bound, kBlock answers kWouldBlock: nothing was dropped, and the
  // caller parks the request and re-presents it after the batch-complete
  // hook fires. kReject answers kRejected, and so does a shut-down
  // coalescer (callers answer kShuttingDown from their own state). Neither
  // ever invokes `done` (nor `place`).
  //
  // The arguments are lvalue references so a parked retry is free: they are
  // moved from only on kAdmitted and left untouched otherwise — the caller
  // re-presents the very same request later without copying the starts.
  enum class AdmitStatus {
    kAdmitted,
    kRejected,     // kReject overflow, or shut down — answer the client now
    kWouldBlock,   // kBlock overflow — park and retry after a completion
  };
  AdmitStatus TryEnqueue(std::vector<NodeId>& starts, DoneFn& done, PlaceFn& place,
                         Deadline& deadline);
  AdmitStatus TryEnqueue(std::vector<NodeId>& starts, DoneFn& done, PlaceFn& place) {
    Deadline none;
    return TryEnqueue(starts, done, place, none);
  }

  // Pending + in-flight queries right now. Fault-injection tests assert
  // this drains to zero after torn connections — a dropped connection must
  // not leak its admitted slots.
  size_t outstanding_queries() const;

  // Stops admitting, flushes everything pending, waits for every in-flight
  // batch to complete and every callback to run, then joins both threads.
  // Idempotent.
  void Shutdown();

  uint64_t requests_admitted() const { return requests_admitted_.load(); }
  uint64_t requests_rejected() const { return requests_rejected_.load(); }
  uint64_t batches_flushed() const { return batches_flushed_.load(); }
  uint64_t queries_admitted() const { return queries_admitted_.load(); }

 private:
  struct PendingRequest {
    std::vector<NodeId> starts;
    DoneFn done;
    PlaceFn place;  // may be empty: rows fall back to the batch arena
    Deadline deadline;  // at_us == 0: no deadline
  };
  struct InFlightBatch {
    std::future<BatchResult> future;
    uint64_t submit_us = 0;  // obs::NowMicros at SubmitInto — the "schedule" span start
    // Cooperative cancellation, armed at flush only when every member
    // carries a deadline (a deadline-free member still wants its rows):
    // the completer waits on the future until `max_deadline_us` — the last
    // member's deadline — then sets the token; the per-batch scheduler
    // abandons the run at its next pass boundary and every member is
    // answered through its ExpireFn. Null when any member is deadline-free.
    std::shared_ptr<std::atomic<bool>> cancel;
    uint64_t max_deadline_us = 0;
    std::vector<PendingRequest> requests;  // starts kept for slice offsets
    // The batch's fallback path storage for requests without a Placement:
    // the scheduler's workers write their rows directly into it
    // (WalkService::SubmitInto) and completion hands each such request a
    // slice of it. Shared so straggling RequestResult holders keep it alive
    // after the batch retires. Null when every request placed its own rows.
    std::shared_ptr<PathArena> arena;
    // Per-request placements, parallel to `requests` (rows == nullptr for
    // fallback requests), and the scattered row-pointer table the submitted
    // PathArenaView references — both must outlive batch execution. Empty
    // when no request placed (the batch submits the arena contiguously, the
    // pre-scatter fast path).
    std::vector<Placement> placements;
    std::vector<NodeId*> row_ptrs;
  };

  void FlushLoop();
  void CompleteLoop();
  // Called by the completer once per batch — completed, cancelled, or
  // failed — after its callbacks ran: releases the batch's `queries`
  // admission slots and its pipeline slot, wakes the flusher, then fires the
  // batch-complete hook.
  void RetireBatch(size_t queries);
  // Called by the flusher with `lock` (on mutex_) held; moves the first
  // `request_count` pending requests into one in-flight batch and submits
  // it to the service. Drops the lock around the batch build + arena
  // allocation + Submit (so big flushes don't stall TryEnqueue) and retakes
  // it before queueing the in-flight entry; single-flusher ordering keeps
  // the arrival-order -> global-id mapping intact. `reason` labels the
  // flush in the registry: "slot", "size", "bound", "single", or
  // "shutdown".
  void FlushWithLock(std::unique_lock<std::mutex>& lock, size_t request_count,
                     const char* reason);

  WalkService& service_;
  Options options_;
  std::function<void()> on_batch_complete_;  // may be empty

  mutable std::mutex mutex_;
  std::condition_variable cv_flush_;       // flusher waits for work/a free slot
  std::condition_variable cv_complete_;    // completer waits for in-flight batches
  std::vector<PendingRequest> pending_;
  size_t pending_queries_ = 0;
  size_t inflight_queries_ = 0;
  // Batches submitted and not yet retired (completed, cancelled or failed):
  // the flusher flushes whenever this is below service_.pipeline_depth().
  size_t inflight_batches_ = 0;
  // Admission time of the oldest pending request (every flush but "single"
  // takes all of pending_): the start of the max_delay_ms wait bound.
  std::chrono::steady_clock::time_point oldest_pending_{};
  std::deque<InFlightBatch> inflight_;
  bool shutdown_ = false;
  bool flusher_done_ = false;

  std::atomic<uint64_t> requests_admitted_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> batches_flushed_{0};
  std::atomic<uint64_t> queries_admitted_{0};

  // Registry handles, resolved once in the constructor against
  // Options::metrics_label (coalescers with the same label share series).
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_would_block_ = nullptr;
  obs::Histogram* m_batch_queries_ = nullptr;
  obs::Gauge* m_outstanding_ = nullptr;
  // Deadline shedding series (global — the stage label is the split that
  // matters; workload attribution rides on the per-workload reject/admit
  // series): requests shed at flush, requests shed mid-run, and batches
  // cancelled cooperatively.
  obs::Counter* m_expired_flush_ = nullptr;
  obs::Counter* m_expired_run_ = nullptr;
  obs::Counter* m_batches_cancelled_ = nullptr;

  std::thread flusher_;
  std::thread completer_;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_BATCH_COALESCER_H_
