// ProvenanceServer: serves a ProvenanceService to other processes over TCP
// using the framed wire protocol (src/net/protocol.h, docs/NETWORK.md).
//
//   auto svc = *ProvenanceService::Create(std::move(spec), kind);
//   auto server = *ProvenanceServer::Start(std::move(svc), {.port = 0});
//   std::printf("serving on 127.0.0.1:%u\n", server->port());
//   server->Wait();  // until a Shutdown frame (or Shutdown() elsewhere)
//
// Threading model (the epoll reactor, docs/NETWORK.md has the diagram):
// Options::num_io_threads reactor threads multiplex *all* sockets through
// epoll in edge-triggered non-blocking mode — a connection costs a few
// hundred bytes of state, never a thread, so thousands of mostly-idle
// clients are cheap. Each accepted connection is owned by exactly one I/O
// thread (round-robin at accept); that thread does every socket read and
// all epoll bookkeeping for it.
//
// Bounded reads run to completion on that I/O thread: under an indexed
// scheme (SearchesGraph() false), a point Reaches or DataDependsOnModule,
// or a ReachesBatch of at most kMaxInlineBatchPairs pairs, is answered as
// soon as it is decoded, its reply encoded straight into the connection's
// write buffer, which is flushed once per read sweep. Each pair is one
// O(1) label compare, so a thread hop would cost more than the work.
// Everything else goes to a query-execution ThreadPool
// (Options::num_threads workers): mutations, snapshot and admin requests,
// larger batches, DependsOn and ModuleDependsOnData (one compare per reader
// of a data item), every read under a search scheme (BFS/DFS: a memo miss
// is a graph search), and any read that arrives while its connection still
// has pooled work queued or running, or while a kLoadSnapshot swap holds
// the service. At most one dispatch task runs per connection at a time,
// draining its frame queue in FIFO order, so responses stay strictly in
// request order and a read never overtakes an earlier write on its
// connection. Pool tasks flush what they append; the owning I/O thread
// finishes a flush via EPOLLOUT when the socket is full (pool threads ask
// it to through an eventfd nudge).
//
// Flow control: the per-connection write buffer is bounded
// (Options::max_write_buffer_bytes). A client that stops draining its
// responses trips backpressure — the server suspends reading *and*
// dispatching for that connection until the buffer drains below half,
// bounding memory per connection no matter how fast the peer pipelines.
// Similarly, at most kMaxPendingFrames decoded-but-undispatched frames are
// buffered before reading pauses. Connections idle longer than
// Options::idle_timeout_ms (no bytes in either direction, nothing in
// flight) are closed and counted. Both counters travel in kServiceStats.
//
// Error model (the per-request Status mapping): a header-intact frame whose
// payload is malformed, or whose request fails in the service, produces a
// kError response carrying the StatusCode + message — the connection stays
// open and later requests keep working. Only a corrupted frame *header*
// (bad magic or length), which loses frame synchronization irrecoverably,
// makes the server answer with a best-effort kError and close that one
// connection. On fd exhaustion (EMFILE/ENFILE) the acceptor backs off and
// retries instead of abandoning the accept path — pending connections sit
// in the listen backlog and are admitted once descriptors free up. No
// input can crash the server or take down other connections.
//
// Shutdown: a kShutdown frame (or Shutdown()) stops the accept path,
// half-closes every connection's read side, lets already-decoded requests
// finish and their responses flush, then joins — the graceful drain the CI
// smoke job exercises. A peer that refuses to drain its responses is
// force-closed after Options::drain_grace_ms so shutdown always completes.
#ifndef SKL_NET_SERVER_H_
#define SKL_NET_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/provenance_service.h"
#include "src/net/protocol.h"

namespace skl {

/// Server knobs, fixed at Start time. (Namespace-scope so it can be
/// brace-defaulted; spelled ProvenanceServer::Options at call sites.)
struct ProvenanceServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back from
  /// ProvenanceServer::port()).
  uint16_t port = 0;
  /// Listen address. Loopback by default: serving beyond the host is a
  /// deployment decision (see docs/NETWORK.md) — pass "0.0.0.0" explicitly.
  std::string bind_address = "127.0.0.1";
  /// Worker-pool size: how many mutations, admin requests, large batches
  /// and unbounded reads (across all connections) can run concurrently.
  /// 0 = one per hardware thread. Bounded reads do not use it: the I/O
  /// threads answer them (see the threading model above). A worker serves
  /// one connection's queue and moves on, so this bounds CPU parallelism,
  /// not clients.
  unsigned num_threads = 8;
  /// Reactor (epoll) I/O threads multiplexing the sockets. 0 = 1. More
  /// than 1 only pays off when socket I/O itself saturates a core;
  /// connections are distributed round-robin at accept time.
  unsigned num_io_threads = 1;
  /// Per-frame size ceiling, bounding what one request can make the server
  /// buffer (AddRun XML and ImportRun blobs included).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Close connections with no socket activity and nothing in flight for
  /// this long. 0 disables idle reaping. A half-received frame counts as
  /// activity as long as bytes keep arriving within the window.
  uint32_t idle_timeout_ms = 0;
  /// Per-connection response-buffer bound: past it, the connection's reads
  /// and dispatches are suspended (backpressure) until the peer drains
  /// below half. Responses already being composed may overshoot by one
  /// frame, so the hard bound is this plus max_frame_bytes.
  size_t max_write_buffer_bytes = 8u << 20;  // 8 MiB
  /// How long a graceful shutdown waits for unflushed responses before
  /// force-closing the connection (a non-draining peer must not be able to
  /// wedge the drain forever).
  uint32_t drain_grace_ms = 2000;
  /// Primary-side replication (docs/REPLICATION.md): the op-log this
  /// server's service appends to. Borrowed — must outlive the server. When
  /// set, kSnapshotFetch / kSubscribe serve replica bootstrap and tailing,
  /// and a kLoadSnapshot swap re-attaches the log and appends a barrier.
  OpLog* oplog = nullptr;
  /// Replica mode: mutating opcodes (kAddRun, kImportRun, kRemoveRun,
  /// kLoadSnapshot) are refused with InvalidArgument; the replication
  /// tailer mutates the service directly via WithServiceShared instead.
  /// kShutdown and kSaveSnapshot stay allowed (operational, not
  /// replicated).
  bool read_only = false;
  /// kLoadSnapshot swaps restore through the zero-copy mmap path
  /// (SnapshotLoadOptions::use_mmap): columnar snapshots are mapped
  /// read-only and the new service's runs view the mapping in place. Same
  /// fallback contract as the library call (SKL_NO_MMAP, mapping failure).
  bool mmap_snapshots = false;
  /// Requests whose queue-wait + execute time reaches this land in the
  /// slow-query ring buffer (docs/OBSERVABILITY.md), dumpable via the
  /// kSlowQueries opcode / `sklctl slow-queries`. 0 disables the log.
  uint32_t slow_query_threshold_us = 0;
};

// SlowQueryEntry — the record Options::slow_query_threshold_us populates —
// lives in protocol.h: it doubles as the kSlowQueries reply wire shape.

/// A TCP server owning one ProvenanceService. Non-movable (threads hold
/// `this`), so Start returns it behind a unique_ptr.
class ProvenanceServer {
 public:
  using Options = ProvenanceServerOptions;

  /// Binds, listens and starts the reactor. The service is moved in; all
  /// mutation from then on happens through request frames (or through
  /// service(), see below).
  static Result<std::unique_ptr<ProvenanceServer>> Start(
      ProvenanceService service, Options options = {});

  /// Blocking graceful shutdown (idempotent, callable from any non-handler
  /// thread): stop accepting, drain in-flight requests, join everything.
  ~ProvenanceServer();
  void Shutdown();

  /// Non-blocking shutdown trigger: stops the accept path and nudges every
  /// connection, but does not wait. The kShutdown handler uses this (a
  /// handler cannot join the machinery it runs on); pair with Wait().
  void BeginShutdown();

  /// Blocks until a shutdown (BeginShutdown/Shutdown/kShutdown frame) has
  /// completed its drain: no accept path, no open connections.
  void Wait();

  ProvenanceServer(const ProvenanceServer&) = delete;
  ProvenanceServer& operator=(const ProvenanceServer&) = delete;

  /// Port actually bound (resolves port 0).
  uint16_t port() const { return port_; }
  const Options& options() const { return options_; }

  /// The served service. Safe to query concurrently with request handling
  /// (the service is internally synchronized) — but not concurrently with a
  /// kLoadSnapshot frame, which replaces the object. Tests use this to
  /// compare remote answers against direct ones.
  const ProvenanceService& service() const { return service_; }

  /// `stats` with the reactor counters (connections_*, epoll_wakeups,
  /// accept_backoffs) filled in from this server; kServiceStats and tests
  /// read them here.
  ServiceStats reactor_stats(ServiceStats stats = {}) const;

  /// The server-side metrics registry: per-opcode queue-wait / execute
  /// histograms and the replication-lag gauges. Registered once at Start;
  /// recording is lock-free (docs/OBSERVABILITY.md).
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Per-opcode dispatch histograms, microseconds. Null for non-request
  /// opcodes. Tests assert histogram counts against ServiceStats counters.
  const LatencyHistogram* queue_wait_histogram(MsgType type) const;
  const LatencyHistogram* execute_histogram(MsgType type) const;

  /// Snapshot of the slow-query ring buffer, oldest first (the kSlowQueries
  /// reply and `sklctl slow-queries` render this).
  std::vector<SlowQueryEntry> slow_queries() const;

  /// Everything this process exposes, one Prometheus text document: the
  /// server registry, the served service's registry, and (when an op-log is
  /// attached) its append/fsync histograms. The kMetrics reply body.
  std::string RenderMetricsText();

  /// Ring-buffer capacity of the slow-query log: one cache-resident page of
  /// recent offenders, not a durable audit trail.
  static constexpr size_t kSlowQueryLogCapacity = 128;

  /// Replica bookkeeping (docs/REPLICATION.md): the LSN the replica has
  /// applied (what min-LSN read tokens are checked against) and the
  /// primary's last known LSN (the lag denominator in kServiceStats). A
  /// primary ignores these — its applied LSN is its op-log head.
  void SetReplicationLsns(uint64_t applied_lsn, uint64_t target_lsn);

  /// Swaps in a new service under the exclusive service lock — the replica
  /// re-bootstrap path (a kSnapshotBarrier arrived in the op stream). The
  /// configured op-log, if any, is re-attached to the new service.
  void ReplaceService(ProvenanceService service);

  /// Runs `fn` on the served service under the shared service lock: safe
  /// against a concurrent ReplaceService/kLoadSnapshot swap, concurrent
  /// with request handling (the service is internally synchronized). The
  /// replication tailer applies shipped ops through this.
  void WithServiceShared(const std::function<void(ProvenanceService&)>& fn);

  /// Decoded-but-undispatched frames buffered per connection before its
  /// reads pause (the request-side twin of max_write_buffer_bytes).
  static constexpr size_t kMaxPendingFrames = 1024;

  /// The largest ReachesBatch an I/O thread answers itself; larger ones go
  /// to the worker pool. An inline batch holds up every other connection
  /// of its I/O thread while it runs; a pooled one pays a thread hop. Both
  /// sides measured by bench_net's batch-split mode (one I/O thread, a
  /// batch stream beside timed point reads, TCM, 4-vCPU VM, medians of 6
  /// runs, docs/BENCHMARKS.md): inline batches ran 17-26 % more pairs/s
  /// than pooled ones at every size, and the other connection's point p99
  /// was 135 vs 64 us at 1024 pairs, 368 vs 65 us at 4096 and 1050 vs 108
  /// us at 16384. 1024 keeps that stall within about two pooled p99s. The
  /// value is a judgement on those figures, not a measured optimum (sizes
  /// between the measured ones were not tried). It is a constant, not an
  /// Options field: it weighs other clients' latency against one thread
  /// hop, and neither depends on the deployment.
  static constexpr size_t kMaxInlineBatchPairs = 1024;

 private:
  struct Conn;      // per-connection state (server.cc)
  struct IoThread;  // per-reactor-thread state (server.cc)

  ProvenanceServer(ProvenanceService service, Options options);

  Status Listen();
  Status StartIoThreads();

  /// The reactor loop of I/O thread `index` (thread 0 also owns the
  /// listening socket).
  void IoLoop(size_t index);
  /// epoll_wait timeout for one loop turn: the soonest of the idle-reap
  /// tick, the accept-retry deadline and the shutdown drain deadline.
  int LoopTimeoutMs(const IoThread& io) const;

  /// Accepts until EAGAIN; on fd exhaustion arms the retry deadline
  /// instead of abandoning the accept path. Thread 0 only.
  void DoAccept(IoThread& io);
  /// Adds a connection to its owner thread's epoll + map (owner only).
  void AdoptConn(IoThread& io, const std::shared_ptr<Conn>& conn);

  /// Reads until EAGAIN/EOF and feeds the decoder. Each decoded frame is
  /// answered inline when AnswerInline allows, and queued otherwise; then
  /// flushes the inline replies and submits a dispatch task when one is
  /// due. Owner I/O thread only.
  void ReadFrom(IoThread& io, const std::shared_ptr<Conn>& conn);
  /// Answers `frame` on the calling (owner I/O) thread, its reply encoded
  /// into the write buffer, when it is a bounded read (a runs_inline
  /// opcode; a batch of at most kMaxInlineBatchPairs pairs), the
  /// connection has nothing queued or running in the pool, its write
  /// backlog is under the cap, service_mu_ is free to share, and the
  /// served scheme does not search the graph. False when any of these
  /// fails: the caller queues the frame instead.
  bool AnswerInline(Conn& conn, const FrameView& frame);
  /// EPOLLOUT handler: flush, then disarm EPOLLOUT once the buffer drains.
  /// Owner I/O thread only.
  void HandleWritable(IoThread& io, const std::shared_ptr<Conn>& conn);
  /// Acts on a cross-thread nudge: arm EPOLLOUT, resume a suspended read,
  /// re-dispatch, or close. Owner I/O thread only.
  void ServiceNudge(IoThread& io, const std::shared_ptr<Conn>& conn);
  /// Submits a dispatch pool task if the connection has work and none is
  /// running. Any thread.
  void MaybeDispatch(const std::shared_ptr<Conn>& conn);
  /// Pool task: drains the connection's frame queue in order, appending
  /// responses to the write buffer, then flushes.
  void DispatchLoop(std::shared_ptr<Conn> conn);
  /// Flushes the write buffer (non-blocking) and settles the aftermath:
  /// un-pausing, EPOLLOUT arming, shutdown-after-flush, owner nudging.
  /// Safe from pool and I/O threads; `owner` is the calling thread when it
  /// is the connection's owner, which then arms EPOLLOUT itself and leaves
  /// closing to its own TryClose instead of nudging itself.
  void FlushAndSettle(const std::shared_ptr<Conn>& conn,
                      IoThread* owner = nullptr);
  /// Closes the connection if it has nothing left to do (or `force`).
  /// Owner I/O thread only.
  void TryClose(IoThread& io, const std::shared_ptr<Conn>& conn, bool force);

  /// Queues a connection for its owner I/O thread's attention and wakes it
  /// through the thread's eventfd. Any thread.
  void NudgeOwner(const std::shared_ptr<Conn>& conn);

  /// What serving one request settled besides its reply payload.
  struct Served {
    MsgType reply_type = MsgType::kReply;
    uint64_t trace_id = 0;  ///< 0 when the payload failed before it
    bool shutdown_after_reply = false;  ///< kShutdown: reply, then drain
  };

  /// One handler per request opcode (server.cc).
  struct Handlers;

  /// Dispatches one decoded request frame under service_mu_ (the pool
  /// path, shared or exclusive as its row says), appending the encoded
  /// response frame to *out.
  void HandleFrame(const FrameView& frame, std::vector<uint8_t>* out,
                   Served* served);

  /// Serves a current-version request frame through the handler of its
  /// opcode (one array index), writing the reply payload through `out`.
  /// Caller holds service_mu_ as the opcode's row asks and maps an error
  /// onto a kError reply, dropping any payload written before it.
  Status Serve(const FrameView& frame, PayloadWriter& out, Served* served);

  /// Serve for one request opcode (an rpc:: shape, src/net/messages.h):
  /// decodes its fields and trailers, bounces a read whose min-LSN token is
  /// ahead of the applied LSN as kRetryAt, calls its handler and encodes
  /// the reply (and ack LSN).
  template <class Rpc>
  Status ServeFrame(const FrameView& frame, PayloadWriter& out,
                    Served* served);

  /// Registers the per-opcode histograms and replication gauges (Start
  /// path, before any frame can arrive).
  void RegisterMetrics();

  /// Records one dispatched frame's timing into the per-opcode histograms
  /// and, past the slow-query threshold, into the ring buffer (whose shard
  /// lookup takes service_mu_ shared unless `service_locked` says the
  /// caller already holds it).
  void RecordFrameTiming(const FrameView& frame, uint64_t trace_id,
                         uint64_t queue_us, uint64_t exec_us,
                         bool service_locked);

  /// RenderMetricsText body; caller holds service_mu_ (the kMetrics
  /// handler already does and must not re-lock).
  std::string RenderMetricsLocked();

  /// The LSN reads are served at: the op-log head on a primary (appends
  /// ack only after the log has the op, so it is never behind a handed-out
  /// token), the tailer-reported applied LSN on a replica.
  uint64_t CurrentAppliedLsn() const;
  /// The primary's last known LSN: the op-log head on a primary, the
  /// tailer-reported target on a replica; never below the applied LSN, so
  /// a freshly updated applied LSN never reads as ahead of a stale target.
  uint64_t CurrentTargetLsn() const;

  /// Registers a fresh connection with the drain bookkeeping.
  bool RegisterConnection();  ///< false once shutdown began
  void UnregisterConnection();

  Options options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  // service_mu_ lets kLoadSnapshot swap the whole service object while no
  // request is mid-dispatch: every handler takes it shared, the load
  // handler takes it unique. I/O threads only ever try it (AnswerInline),
  // so a swap never blocks the reactor. All other synchronization is
  // inside the service itself.
  std::shared_mutex service_mu_;
  ProvenanceService service_;

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::atomic<size_t> next_io_{0};  ///< round-robin connection placement

  mutable std::mutex state_mu_;
  std::condition_variable drained_cv_;
  std::atomic<bool> stop_{false};
  size_t open_connections_ = 0;  // guarded by state_mu_
  std::chrono::steady_clock::time_point stop_time_{};  // by state_mu_

  std::mutex join_mu_;  ///< serializes the io-thread join (Wait vs dtor)

  // Reactor counters (reactor_stats); connections_open is derived from
  // open_connections_.
  std::atomic<uint64_t> accepted_total_{0};
  std::atomic<uint64_t> timed_out_total_{0};
  std::atomic<uint64_t> backpressured_total_{0};
  std::atomic<uint64_t> epoll_wakeups_{0};
  std::atomic<uint64_t> accept_backoffs_{0};

  // Replica-mode LSN bookkeeping, written by the tailer thread via
  // SetReplicationLsns and read by every dispatch; unused on a primary.
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> target_lsn_{0};

  // Observability (docs/OBSERVABILITY.md). The histogram pointer tables
  // are indexed by raw opcode value and filled by RegisterMetrics before
  // the reactor starts; entries stay null for non-request opcodes.
  MetricsRegistry metrics_;
  static constexpr size_t kOpcodeSlots = 64;
  std::array<LatencyHistogram*, kOpcodeSlots> queue_hist_{};
  std::array<LatencyHistogram*, kOpcodeSlots> exec_hist_{};

  mutable std::mutex slow_mu_;
  std::deque<SlowQueryEntry> slow_queries_;  ///< ring, oldest at front

  // Declared last so it is destroyed first: the pool drains dispatch tasks
  // (which touch every member above) before anything else goes away.
  ThreadPool pool_;  ///< query execution, shared by all connections
};

}  // namespace skl

#endif  // SKL_NET_SERVER_H_
