// WalkServer: the TCP serving front-end over one or more WalkServices.
//
// Listens on a socket, speaks the length-prefixed binary protocol of
// wire.h, and feeds every request through a per-workload BatchCoalescer so
// many small concurrent client requests merge into scheduler-sized
// WalkService batches. Request handling:
//
//   valid request     -> coalesced, answered with a kResponse frame carrying
//                        the paths and the service-global first_query_id
//   start out of range-> kError/kNodeOutOfRange for that request; the
//                        connection stays up
//   unknown workload  -> kError/kUnknownWorkload for that request (v2
//                        routing to an unregistered id); connection stays up
//   admission refused -> kError/kOverloaded (backpressure, kReject policy)
//                        or the connection stops being read until a batch
//                        completes (kBlock policy — TCP flow control pushes
//                        the stall back to the client, never into the loop)
//   expired deadline  -> kError/kDeadlineExceeded. A kRequestV3 deadline is
//                        anchored to this host's clock at decode and shed
//                        wherever it lapses: pre-admission (here or while
//                        parked), at coalescer flush, or mid-run via
//                        cooperative batch cancellation (docs/SERVING.md)
//   draining          -> kError/kDraining for every request arriving after
//                        BeginDrain(); work admitted before it still
//                        completes and its responses still flow
//   malformed frame   -> kError/kMalformedFrame, then the connection is
//                        closed (the byte stream is desynced for good)
//
// Reader architecture: a few event threads own every connection through
// epoll. Sockets are nonblocking; each connection runs its FrameDecoder
// incrementally as bytes arrive, and responses go out through a per-
// connection cork queue with EPOLLOUT-driven partial-write resumption — a
// slow or stalled client consumes its own cork memory and nothing else; the
// loop never blocks on any one socket. kBlock admission overflow *parks* the
// connection (EPOLLIN interest dropped, the decoded request held) instead
// of blocking a thread; a batch completion — successful, cancelled or
// failed — unparks it. No thread is ever started per connection.
//
// Multi-workload routing: the constructor's service is workload 0; more
// (service, admission options) pairs register via RegisterWorkload() before
// Start(), each with its own BatchCoalescer — its own wait bound, its own
// pending+inflight quota, its own overflow policy — so one hot workload
// saturating its quota cannot starve another's admission (requests carry
// the target workload id in v2 frames; v1 frames mean workload 0).
//
// Determinism across the socket: a single connection's requests reach a
// workload's coalescer in the order they were written, so one client
// pipelining requests gets paths bit-identical to submitting the same
// batches straight into that WalkService — whatever the wait bound,
// pipeline depth, or event-thread count (net_test.cc
// ServedPathsMatchOneShotEngine). docs/SERVING.md has the full protocol and
// semantics.
#ifndef FLEXIWALKER_SRC_NET_WALK_SERVER_H_
#define FLEXIWALKER_SRC_NET_WALK_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/batch_coalescer.h"
#include "src/net/socket_util.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/walker/walk_service.h"

namespace flexi {

class WalkServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral; the bound port is read back via port()
    int backlog = 64;
    size_t max_frame_payload = kDefaultMaxFramePayload;
    // Per-request start ceiling (rejected with kRequestTooLarge beyond it).
    // This bounds the *response* frame: a request of S starts yields
    // S * (walk_length + 1) * 4 path bytes, which must stay under the
    // peer's max_frame_payload — the request frame alone cannot enforce
    // that, and an over-ceiling response would kill the client's connection
    // as malformed (or, past 4 GiB, wrap the u32 length field). The default
    // keeps any walk up to length 1023 inside kDefaultMaxFramePayload.
    size_t max_request_starts = 16384;
    // Event threads sharing the connection population.
    // One suffices far past this container's core count; the knob exists so
    // the loop itself is testable under real thread concurrency.
    size_t event_threads = 1;
    // SO_SNDBUF for accepted sockets; 0 keeps the OS default. Tests shrink
    // it so a slow reader forces EAGAIN mid-response and the EPOLLOUT
    // resumption path actually runs.
    int send_buffer_bytes = 0;
    // Admission options for workload 0 (the constructor's service).
    BatchCoalescer::Options coalescer;
  };

  // `num_nodes` bounds valid start ids; every registered service must
  // outlive the server and must not be Shutdown() before WalkServer::Stop()
  // returns. The constructor's service serves workload 0.
  WalkServer(WalkService& service, NodeId num_nodes, Options options);
  ~WalkServer();  // Stop()

  WalkServer(const WalkServer&) = delete;
  WalkServer& operator=(const WalkServer&) = delete;

  // Registers an additional workload — its own WalkService and its own
  // BatchCoalescer built from `coalescer_options` (the per-workload
  // admission quota: max_outstanding_queries + overflow policy). Returns
  // the wire workload id clients route to (kRequestV2 frames). Must be
  // called before Start().
  uint32_t RegisterWorkload(std::string name, WalkService& service,
                            BatchCoalescer::Options coalescer_options);

  // Binds, listens, and starts the event threads. Returns false (with
  // *error set when non-null) if the socket or event loop could not be set
  // up.
  bool Start(std::string* error = nullptr);

  // Stops accepting, drains every request already admitted (their responses
  // are still written), then closes all connections. Idempotent.
  void Stop();

  // Graceful drain: stops accepting connections and admitting requests —
  // every request decoded after this call is answered kDraining — while
  // work admitted before it keeps completing and its responses keep
  // flowing. Waits up to `grace` for the admitted queries to finish and
  // their bytes to leave the cork queues, then runs the full Stop()
  // teardown (which hard-stops whatever the grace did not cover). The wait
  // is recorded as the flexi_drain_duration_ms gauge. Idempotent; a later
  // Stop() is a no-op. This is the SIGTERM path of the CLI's --listen mode.
  void BeginDrain(std::chrono::milliseconds grace);
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  uint16_t port() const { return port_; }
  // Workload 0's coalescer (the constructor-service path).
  const BatchCoalescer& coalescer() const { return *workloads_[0]->coalescer; }

  size_t workload_count() const { return workloads_.size(); }
  const std::string& workload_name(uint32_t id) const { return workloads_[id]->name; }
  const BatchCoalescer& workload_coalescer(uint32_t id) const {
    return *workloads_[id]->coalescer;
  }
  uint64_t workload_requests_received(uint32_t id) const {
    return workloads_[id]->requests_received.load();
  }
  uint64_t workload_requests_rejected(uint32_t id) const {
    return workloads_[id]->requests_rejected.load();
  }

  uint64_t connections_accepted() const { return connections_accepted_.load(); }
  uint64_t requests_received() const { return requests_received_.load(); }
  uint64_t requests_rejected() const { return requests_rejected_.load(); }
  uint64_t frames_malformed() const { return frames_malformed_.load(); }

 private:
  // One corked response awaiting flush: a view of frame bytes pinned by
  // `owner`. Placed responses reference the very frame the scheduler's
  // workers wrote their rows into (wire.h placed frames) — corking is then
  // a pointer push, not a serialize — and a flush gathers every entry into
  // one sendmsg().
  struct CorkEntry {
    const uint8_t* data = nullptr;
    size_t size = 0;
    std::shared_ptr<const void> owner;
  };

  // A decoded request the event loop could not admit (kBlock quota full):
  // held verbatim — callbacks already built — until a batch completion on
  // its workload frees space. Touched only by the owning event thread.
  struct ParkedRequest {
    uint64_t tag = 0;
    uint32_t workload_id = 0;
    std::vector<NodeId> starts;
    BatchCoalescer::DoneFn done;
    BatchCoalescer::PlaceFn place;
    // Absolute deadline carried from decode. A parked request holds no
    // admission slot, so expiry here (noticed by the loop's timed wait or
    // at the next unpark attempt) just answers kDeadlineExceeded and
    // resumes reading — nothing to release.
    BatchCoalescer::Deadline deadline;
  };

  struct Connection {
    int fd = -1;

    // Write side, shared between the event threads and the coalescers'
    // completer threads — everything below write_mutex is guarded by it.
    std::mutex write_mutex;
    bool writable = true;
    std::deque<CorkEntry> corked;
    size_t cork_offset = 0;  // bytes of corked.front() already on the wire
    bool want_read = true;   // epoll interest flags
    bool want_write = false;
    bool registered = false;  // fd currently in an epoll set
    bool peer_eof = false;    // no more reads; retire once writes drain
    int epoll_fd = -1;        // owner loop's epoll
    size_t loop = 0;          // owner loop index

    // Admitted-but-unanswered requests on this connection. Retirement
    // (peer_eof && corked drained && pending == 0) and the fault tests'
    // no-leaked-slots assertions both key off it.
    std::atomic<size_t> pending_requests{0};

    // Owner-thread-private state: the event thread's incremental decoder
    // and park slot. `recv_us` stamps the moment the bytes feeding the
    // decoder left the socket — the deadline anchor for frames whose decode
    // was delayed by an earlier pipelined frame parked in admission.
    uint64_t recv_us = 0;
    FrameDecoder decoder;
    std::optional<ParkedRequest> parked;
    bool open = true;  // still in the owner loop's conns map

    // The last shared_ptr holder closes the socket — response callbacks can
    // outlive the event loop's map and the server's connection list, and an
    // fd must never be reused while any of them could still write.
    ~Connection();
  };

  // One registered workload: a service, its private coalescer (= its
  // admission quota), and the connections parked on that quota.
  struct Workload {
    std::string name;
    WalkService* service = nullptr;
    std::unique_ptr<BatchCoalescer> coalescer;
    std::mutex parked_mutex;
    std::vector<std::shared_ptr<Connection>> parked;
    std::atomic<uint64_t> requests_received{0};
    std::atomic<uint64_t> requests_rejected{0};
    // Registry handles resolved once at registration (obs/metrics.h): the
    // per-workload scrape series, labeled workload="<name>".
    obs::Counter* m_requests = nullptr;
    obs::Counter* m_rejected = nullptr;
    obs::Counter* m_responses = nullptr;
    obs::Histogram* m_latency_us = nullptr;  // decode -> response corked
  };

  struct Command {
    enum Kind { kAdd, kUnpark, kTeardown, kShutdownReads, kStop } kind = kAdd;
    std::shared_ptr<Connection> conn;
  };

  struct EventLoop {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd; a write makes epoll_wait return
    std::thread thread;
    std::mutex mutex;  // guards commands + stopped
    std::vector<Command> commands;
    bool stopped = false;
    // Loop-thread-private:
    std::unordered_map<int, std::shared_ptr<Connection>> conns;
    std::vector<uint8_t> chunk;
  };

  enum class FrameProgress {
    kNeedMore,     // decoder drained; keep reading
    kParked,       // admission would block; EPOLLIN dropped, request held
    kStopReading,  // malformed (or torn) — reads on this connection are over
  };

  // ---- request path ----
  enum class HandleStatus { kHandled, kWouldBlock };
  // Validates, routes, and admits one decoded request: errors are corked,
  // admission is TryEnqueue, and a kWouldBlock parks the connection.
  HandleStatus HandleRequest(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                             WireRequest& request);

  // ---- event loop ----
  void EventLoopMain(size_t index);
  // Re-arms EPOLLIN after a park resolved (admitted, rejected, or expired):
  // drains frames decoded before the park, then resumes socket reads.
  void ResumeReads(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  // Answers a parked request whose deadline lapsed (kDeadlineExceeded,
  // stage="decode" — it was never admitted) and resumes reading.
  void AnswerParkedExpired(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                           ParkedRequest request);
  // Expires every parked request on this loop whose deadline has passed;
  // driven by the loop's timed epoll_wait so expiry is noticed even when no
  // batch completion or socket event wakes the loop.
  void SweepExpiredParked(EventLoop& loop);
  void AcceptReady(EventLoop& loop);
  void RegisterConnection(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void ReadReady(EventLoop& loop, const std::shared_ptr<Connection>& conn, uint32_t events);
  void WriteReady(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  FrameProgress ProcessFrames(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void HandleUnpark(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void ShutdownReads(EventLoop& loop);
  void TeardownConnection(EventLoop& loop, const std::shared_ptr<Connection>& conn);
  void PostCommand(size_t loop_index, Command command);
  // Corks an error frame and immediately attempts the nonblocking drain —
  // the event loop must never interleave a direct send() into a cork queue
  // that may hold a half-sent frame.
  void CorkErrorEvent(EventLoop& loop, const std::shared_ptr<Connection>& conn, uint64_t tag,
                      WireErrorCode code, const std::string& message);
  // Same cork-then-drain discipline for any prebuilt frame (the stats
  // response path shares it with errors).
  void CorkFrameEvent(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                      std::shared_ptr<std::vector<uint8_t>> frame);
  // Answers a kStatsRequest with the process registry's Prometheus text.
  void HandleStatsRequest(EventLoop& loop, const std::shared_ptr<Connection>& conn, uint64_t tag);
  // Nonblocking gathered drain of the cork queue (write_mutex held):
  // advances cork_offset across partial sends, arms/disarms EPOLLOUT, and
  // on kClosed clears the queue and marks the connection unwritable.
  SendResult DrainCorkLocked(Connection& conn);
  // Re-points the fd's epoll interest at (want_read, want_write).
  void UpdateInterestLocked(Connection& conn);
  // True when the connection has nothing left to deliver and will never
  // read again — the caller should tear it down.
  static bool ShouldRetireLocked(const Connection& conn);

  // ---- response path ----
  // Corks an error frame from any thread (the coalescer's flusher/completer
  // — the deadline ExpireFn path) onto the shared dirty list; the batch-
  // complete hook's FlushCorkedWrites pushes it out. Contrast
  // CorkErrorEvent, which is loop-thread-only because it drains inline.
  void CorkError(const std::shared_ptr<Connection>& conn, uint64_t tag, WireErrorCode code,
                 const std::string& message);
  // Serializes a response frame into an owned buffer and corks it — the
  // fallback write path for responses whose rows were not placed (the
  // big-endian host case): one arena -> frame copy, then the shared flush.
  void CorkResponse(const std::shared_ptr<Connection>& conn, const WireResponseView& response);
  // Corks an already-complete placed frame — the scatter-arena fast path:
  // the workers wrote the rows into the frame during the walk, the
  // first_query_id was just patched, so corking moves zero payload bytes.
  void CorkPlacedFrame(const std::shared_ptr<Connection>& conn,
                       std::shared_ptr<std::vector<uint8_t>> frame);
  // The body the three corks above share: appends `entry` to the queue
  // unless the connection is unwritable, and puts the connection on the
  // dirty list when its queue was empty.
  void CorkEntryForFlush(const std::shared_ptr<Connection>& conn, CorkEntry entry);
  // Everything corked since the last flush goes out as one gathered
  // sendmsg() per connection when a coalescer's batch-complete hook fires:
  // N same-connection responses per coalesced batch => 1 syscall, the
  // write-side half of the coalescing win. The drain is nonblocking and
  // leaves the remainder to EPOLLOUT.
  void FlushCorkedWrites();

  NodeId num_nodes_;
  Options options_;
  std::vector<std::unique_ptr<Workload>> workloads_;

  int listen_fd_ = -1;
  bool listener_registered_ = false;  // loop-0-thread state
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::mutex corked_mutex_;  // guards the dirty list, not the cork buffers
  std::vector<std::shared_ptr<Connection>> corked_connections_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> frames_malformed_{0};
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_WALK_SERVER_H_
