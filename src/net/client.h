// ProvenanceClient: synchronous client for a ProvenanceServer. The API
// mirrors ProvenanceService method for method, so a caller that held a
// service ports to remote serving with a one-line change:
//
//   auto client = *ProvenanceClient::Connect("127.0.0.1", port);
//   bool dep = *client.Reaches(id, v, w);          // was: svc.Reaches(...)
//   auto answers = *client.ReachesBatch(id, pairs);
//   RunId added = *client.AddRun(run);             // run XML over the wire
//
// Each call sends one request frame and blocks for its response; a server-
// side failure comes back as the same Status (code preserved across the
// wire) the service would have returned in-process. Transport failures —
// refused connection, peer gone, protocol corruption — are kUnavailable or
// kParseError, and the client then refuses further calls (single-socket
// state cannot be trusted after a desync; reconnect instead).
//
// Pipelining: the *Pipelined variants write one frame per query back to
// back (in bounded windows of 512, so the two socket buffers can never
// deadlock against a non-reading peer) and then read the responses,
// trading per-query round trips for one per window. They exist for
// throughput-sensitive callers (bench_net measures the difference); the
// semantics are identical to a loop of single calls.
//
// A client instance is NOT thread-safe (it owns one socket); open one
// client per thread. Connect/queries against a server in the same process
// are fine — tests and bench_net do exactly that.
//
// The client speaks only kProtocolVersion and refuses a reply of any other
// version, poisoning the connection with an error that names both.
//
// Replication awareness (docs/REPLICATION.md): every request carries the
// client's trace id as its trailing varint (set_trace_id; 0 = untraced) —
// the token the server's slow-query log and error replies echo back
// (docs/OBSERVABILITY.md).
// Every read request carries the client's read-LSN token (0 = any
// state is fine); a replica that has not yet applied that LSN answers
// kRetryAt, surfaced as StatusCode::kRetryAt without poisoning the
// connection. Every mutating response carries the primary's ack LSN,
// remembered in last_write_lsn() — pin it on replica clients via
// SetReadLsn for read-your-writes. Idempotent reads can additionally be
// retried across reconnects with jittered exponential backoff
// (Options::max_read_retries); mutations are never retried.
#ifndef SKL_NET_CLIENT_H_
#define SKL_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/provenance_service.h"
#include "src/net/messages.h"
#include "src/net/protocol.h"

namespace skl {

/// Client knobs. (Namespace-scope so it can be brace-defaulted; spelled
/// ProvenanceClient::Options at call sites.)
struct ProvenanceClientOptions {
  /// Per-frame size ceiling for responses.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// How many times an idempotent read is retried after a *transport*
  /// failure (kUnavailable), reconnecting before each retry. 0 = fail
  /// fast (the historical behavior). Service-level errors — including
  /// kRetryAt — are never retried here; the caller (or FleetClient)
  /// decides those.
  int max_read_retries = 0;
  /// Backoff before retry k sleeps uniformly in [s/2, s] where
  /// s = min(backoff_max_ms, backoff_base_ms << k) — bounded exponential
  /// with jitter, so a fleet of clients hammering a restarting server
  /// spreads out instead of thundering in lockstep.
  uint32_t backoff_base_ms = 5;
  uint32_t backoff_max_ms = 200;
  /// Jitter seed (deterministic per seed+attempt; pick per-client values
  /// to decorrelate a fleet).
  uint64_t backoff_seed = 0;
};

class ProvenanceClient {
 public:
  using Options = ProvenanceClientOptions;

  /// Connects to a ProvenanceServer. `host` is a numeric IPv4 address or a
  /// resolvable name ("localhost").
  static Result<ProvenanceClient> Connect(
      const std::string& host, uint16_t port,
      size_t max_frame_bytes = kDefaultMaxFrameBytes);
  static Result<ProvenanceClient> Connect(const std::string& host,
                                          uint16_t port,
                                          const Options& options);

  /// Connect via one "host:port" string (the sklctl --connect spelling).
  static Result<ProvenanceClient> ConnectHostPort(
      const std::string& host_port,
      size_t max_frame_bytes = kDefaultMaxFrameBytes);
  static Result<ProvenanceClient> ConnectHostPort(
      const std::string& host_port, const Options& options);

  ProvenanceClient(ProvenanceClient&& other) noexcept = default;
  ProvenanceClient& operator=(ProvenanceClient&& other) noexcept = default;
  ProvenanceClient(const ProvenanceClient&) = delete;
  ProvenanceClient& operator=(const ProvenanceClient&) = delete;

  // ------------------------------------------------ service API mirror --

  Result<bool> Reaches(RunId id, VertexId v, VertexId w);
  Result<std::vector<bool>> ReachesBatch(RunId id,
                                         std::span<const VertexPair> pairs);
  Result<bool> DependsOn(RunId id, DataItemId x, DataItemId x_from);
  Result<std::vector<bool>> DependsOnBatch(RunId id,
                                           std::span<const ItemPair> pairs);
  Result<bool> ModuleDependsOnData(RunId id, VertexId v, DataItemId x);
  Result<bool> DataDependsOnModule(RunId id, DataItemId x, VertexId v);

  /// Registers a run from its XML serialization (the wire format of
  /// AddRun; the server parses and labels it).
  Result<RunId> AddRunXml(std::string_view run_xml);
  /// Convenience: serializes `run` to XML and calls AddRunXml.
  Result<RunId> AddRun(const Run& run);

  Result<RunId> ImportRun(const std::vector<uint8_t>& blob);
  Result<std::vector<uint8_t>> ExportRun(RunId id);
  Status RemoveRun(RunId id);
  Result<std::vector<RunId>> ListRuns();
  Result<RunStats> Stats(RunId id);
  Result<ServiceStats> GetServiceStats();

  /// Applies a specification delta on the server (docs/UPDATES.md) and
  /// returns the new spec epoch. A mutating call: the reply's ack LSN
  /// updates last_write_lsn() like every other mutation.
  Result<uint64_t> ApplySpecDelta(const SpecDelta& delta);

  /// Snapshot save/load on the *server's* filesystem.
  Status SaveSnapshot(const std::string& path);
  Status LoadSnapshot(const std::string& path);

  // ------------------------------------------------------- lifecycle --

  Status Ping();
  /// Asks the server to drain and exit. The OK response is sent before the
  /// server begins shutting down.
  Status Shutdown();

  // ---------------------------------------------------- observability --

  /// The trace id stamped on every request this client sends (the
  /// trailing varint of each request payload). 0 — the default — means
  /// "untraced"; the server still accepts it, it just logs as trace 0.
  /// Pick a random or request-scoped value and grep it out of the server's
  /// slow-query log (docs/OBSERVABILITY.md).
  void set_trace_id(uint64_t trace_id) { trace_id_ = trace_id; }
  uint64_t trace_id() const { return trace_id_; }

  /// The server's metrics in Prometheus text exposition format (kMetrics).
  Result<std::string> GetMetrics();

  /// The server's slow-query ring buffer, oldest first (kSlowQueries).
  Result<std::vector<SlowQueryEntry>> SlowQueries();

  // ------------------------------------------------------ replication --

  /// Raises the read-LSN token attached to every subsequent read (monotone
  /// max — a smaller LSN never lowers it). Against a replica, reads then
  /// either see a state containing that LSN or come back kRetryAt.
  void SetReadLsn(uint64_t lsn) {
    if (lsn > read_lsn_) read_lsn_ = lsn;
  }
  uint64_t read_lsn() const { return read_lsn_; }

  /// The primary's ack LSN from the most recent successful mutation
  /// through this client (0 before any, or when the server has no op-log).
  uint64_t last_write_lsn() const { return last_write_lsn_; }

  /// Fetches a replica bootstrap snapshot (requires the server to have an
  /// op-log attached).
  Result<SnapshotFetchResult> SnapshotFetch();

  /// Fetches up to `max_entries` log entries with LSN > after_lsn — the
  /// replica tailing primitive.
  Result<LogBatch> Subscribe(uint64_t after_lsn, uint64_t max_entries);

  // ------------------------------------------------------ pipelining --

  /// One frame per pair written back to back in windows of 512, then the
  /// window's responses read in order: N queries, one round trip per
  /// window. Fails atomically — the first errored response wins and the
  /// rest are drained.
  Result<std::vector<bool>> ReachesPipelined(
      RunId id, std::span<const VertexPair> pairs);
  Result<std::vector<bool>> DependsOnPipelined(
      RunId id, std::span<const ItemPair> pairs);

 private:
  ProvenanceClient(int fd, Options options, std::string host, uint16_t port);

  /// Sends `request` (an rpc:: shape, src/net/messages.h) and decodes its
  /// success reply as its kOpcodes row says: the read token and trace id
  /// after its fields, the reply type, the ack LSN (recorded in
  /// last_write_lsn_) and whether a transport failure is retried.
  template <class Rpc>
  Result<typename Rpc::Reply> Invoke(const typename Rpc::Request& request);
  /// Appends `request`'s frame, trailers included, to send_buf_ under the
  /// next request id; returns that id.
  template <class Rpc>
  uint64_t EncodeRequest(const typename Rpc::Request& request);
  /// Decodes the success reply to an Rpc: its fields, then the ack LSN when
  /// the row has one.
  template <class Rpc>
  Result<typename Rpc::Reply> DecodeReply(std::span<const uint8_t> payload);
  /// Writes send_buf_ to the socket and empties it.
  Status Flush();
  /// Blocks for the next response frame and checks it answers `request_id`
  /// as an `expected` frame; returns its payload, valid until the next
  /// Receive. kError responses decode back into their carried Status;
  /// kRetryAt decodes into StatusCode::kRetryAt — both leave the connection
  /// usable. A frame of another protocol version, or a kError with request
  /// id 0 (the server's reason for closing the connection), poisons it.
  Result<std::span<const uint8_t>> Receive(uint64_t request_id,
                                           MsgType expected);
  /// Tears down the socket and dials host_:port_ again with fresh framing
  /// state. On failure the client stays poisoned with the dial error.
  Status Reconnect();

  /// Sends one Rpc frame per pair in windows, then collects the boolean
  /// replies.
  template <class Rpc>
  Result<std::vector<bool>> Pipelined(
      RunId id, std::span<const std::pair<uint32_t, uint32_t>> pairs);

  /// Marks the connection unusable and returns `status` (transport and
  /// framing failures are not recoverable on this socket).
  Status Poison(Status status);

  /// A socket descriptor, closed on destruction and handed over on move.
  class Socket {
   public:
    explicit Socket(int fd = -1) : fd_(fd) {}
    Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
    Socket& operator=(Socket&& other) noexcept {
      std::swap(fd_, other.fd_);
      return *this;
    }
    ~Socket();
    int fd() const { return fd_; }

   private:
    int fd_;
  };

  Socket socket_;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> send_buf_;  ///< request frames not yet sent
  FrameDecoder decoder_;
  Status broken_ = Status::OK();  ///< non-OK once the connection is poisoned

  Options options_;
  std::string host_;  ///< remembered for Reconnect
  uint16_t port_ = 0;
  uint64_t read_lsn_ = 0;        ///< token sent with every read
  uint64_t last_write_lsn_ = 0;  ///< primary ack LSN of the last mutation
  uint64_t trace_id_ = 0;        ///< trace token sent with every request
};

}  // namespace skl

#endif  // SKL_NET_CLIENT_H_
