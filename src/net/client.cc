#include "src/net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/random.h"
#include "src/io/workflow_xml.h"

namespace skl {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Result<uint32_t> ReadU32(PayloadReader& reader, const char* what) {
  SKL_ASSIGN_OR_RETURN(uint64_t raw, reader.U64());
  if (raw > UINT32_MAX) {
    return Status::ParseError(std::string(what) +
                              " in response does not fit 32 bits");
  }
  return static_cast<uint32_t>(raw);
}

/// Decodes the N-boolean reply shape shared by the batch queries.
Result<std::vector<bool>> DecodeBoolVector(std::span<const uint8_t> payload,
                                           size_t expected) {
  PayloadReader reader(payload);
  SKL_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  if (count != expected) {
    return Status::ParseError("batch reply answers " + std::to_string(count) +
                              " queries, expected " +
                              std::to_string(expected));
  }
  std::vector<bool> answers;
  answers.reserve(expected);
  for (uint64_t i = 0; i < count; ++i) {
    SKL_ASSIGN_OR_RETURN(bool answer, reader.Boolean());
    answers.push_back(answer);
  }
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return answers;
}

Result<bool> DecodeBool(std::span<const uint8_t> payload) {
  PayloadReader reader(payload);
  SKL_ASSIGN_OR_RETURN(bool answer, reader.Boolean());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return answer;
}

Status ExpectEmpty(std::span<const uint8_t> payload) {
  PayloadReader reader(payload);
  return reader.ExpectEnd();
}

/// Dials host:port; returns the connected fd with TCP_NODELAY set.
Result<int> Dial(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  const std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve '" + host +
                               "': " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string last_error = "no addresses for '" + host + "'";
  for (addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) {
      last_error = Errno("socket()");
      continue;
    }
    if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) break;
    last_error = Errno(("connect " + host + ":" + port_str).c_str());
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) return Status::Unavailable(last_error);
  // Request frames are small; don't let Nagle hold one back against the
  // server's delayed ACK (the mirror of the server-side setting).
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

ProvenanceClient::ProvenanceClient(int fd, Options options, std::string host,
                                   uint16_t port)
    : fd_(fd),
      decoder_(options.max_frame_bytes),
      options_(options),
      host_(std::move(host)),
      port_(port) {}

ProvenanceClient::~ProvenanceClient() {
  if (fd_ >= 0) ::close(fd_);
}

ProvenanceClient::ProvenanceClient(ProvenanceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      decoder_(std::move(other.decoder_)),
      broken_(std::move(other.broken_)),
      options_(other.options_),
      host_(std::move(other.host_)),
      port_(other.port_),
      read_lsn_(other.read_lsn_),
      last_write_lsn_(other.last_write_lsn_),
      trace_id_(other.trace_id_) {}

ProvenanceClient& ProvenanceClient::operator=(
    ProvenanceClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    decoder_ = std::move(other.decoder_);
    broken_ = std::move(other.broken_);
    options_ = other.options_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    read_lsn_ = other.read_lsn_;
    last_write_lsn_ = other.last_write_lsn_;
    trace_id_ = other.trace_id_;
  }
  return *this;
}

Result<ProvenanceClient> ProvenanceClient::Connect(const std::string& host,
                                                   uint16_t port,
                                                   size_t max_frame_bytes) {
  Options options;
  options.max_frame_bytes = max_frame_bytes;
  return Connect(host, port, options);
}

Result<ProvenanceClient> ProvenanceClient::Connect(const std::string& host,
                                                   uint16_t port,
                                                   const Options& options) {
  SKL_ASSIGN_OR_RETURN(int fd, Dial(host, port));
  return ProvenanceClient(fd, options, host, port);
}

Result<ProvenanceClient> ProvenanceClient::ConnectHostPort(
    const std::string& host_port, size_t max_frame_bytes) {
  Options options;
  options.max_frame_bytes = max_frame_bytes;
  return ConnectHostPort(host_port, options);
}

Result<ProvenanceClient> ProvenanceClient::ConnectHostPort(
    const std::string& host_port, const Options& options) {
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return Status::InvalidArgument("expected host:port, got '" + host_port +
                                   "'");
  }
  const std::string port_str = host_port.substr(colon + 1);
  char* end = nullptr;
  unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (*end != '\0' || port_str[0] == '-' || port == 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [1, 65535], got '" +
                                   port_str + "'");
  }
  return Connect(host_port.substr(0, colon), static_cast<uint16_t>(port),
                 options);
}

Status ProvenanceClient::Poison(Status status) {
  broken_ = status;
  return status;
}

Status ProvenanceClient::Reconnect() {
  if (host_.empty()) {
    return Status::Unavailable("client has no remembered endpoint");
  }
  Result<int> fd = Dial(host_, port_);
  if (!fd.ok()) return Poison(fd.status());
  if (fd_ >= 0) ::close(fd_);
  fd_ = *fd;
  decoder_ = FrameDecoder(options_.max_frame_bytes);
  next_request_id_ = 1;
  broken_ = Status::OK();
  return Status::OK();
}

Result<uint64_t> ProvenanceClient::Send(MsgType type,
                                        std::vector<uint8_t> payload) {
  if (!broken_.ok()) return broken_;
  if (fd_ < 0) return Status::Unavailable("client is not connected");
  Frame frame;
  frame.type = type;
  frame.request_id = next_request_id_++;
  frame.payload = std::move(payload);
  std::vector<uint8_t> bytes;
  EncodeFrame(frame, &bytes);
  if (!SendAll(fd_, bytes)) {
    return Poison(Status::Unavailable(Errno("send()")));
  }
  return frame.request_id;
}

Result<std::vector<uint8_t>> ProvenanceClient::Receive(uint64_t request_id,
                                                       MsgType expected) {
  if (!broken_.ok()) return broken_;
  uint8_t buf[65536];
  for (;;) {
    Result<std::optional<Frame>> next = decoder_.Next();
    if (!next.ok()) {
      // Framing corruption: the socket's remaining bytes are untrustworthy.
      return Poison(next.status());
    }
    if (next->has_value()) {
      Frame frame = std::move(**next);
      if (frame.version != kProtocolVersion) {
        return Poison(Status::InvalidArgument(
            "server replied in protocol version " +
            std::to_string(frame.version) +
            "; this client speaks only version " +
            std::to_string(kProtocolVersion) + ", upgrade the older side"));
      }
      if (frame.type == MsgType::kError && frame.request_id == 0) {
        // Request ids start at 1, so id 0 is the server's last word before
        // it closes the connection (oversized or corrupt frame): report its
        // reason, not the id mismatch.
        return Poison(DecodeErrorPayload(frame.payload));
      }
      if (frame.request_id != request_id) {
        return Poison(Status::ParseError(
            "response answers request " + std::to_string(frame.request_id) +
            ", expected " + std::to_string(request_id) +
            " (pipelining misuse or desynchronized stream)"));
      }
      if (frame.type == MsgType::kError) {
        // The service-level error; the connection stays usable.
        return DecodeErrorPayload(frame.payload);
      }
      if (frame.type == MsgType::kRetryAt) {
        // The replica is behind the read token; the connection stays
        // usable — retry here later or read elsewhere (FleetClient does).
        PayloadReader reader(frame.payload);
        SKL_ASSIGN_OR_RETURN(uint64_t applied, reader.U64());
        SKL_RETURN_NOT_OK(reader.ExpectEnd());
        return Status::RetryAt(
            "replica has applied LSN " + std::to_string(applied) +
            ", behind the requested read LSN " + std::to_string(read_lsn_));
      }
      if (frame.type != expected) {
        return Poison(Status::ParseError(
            std::string("peer sent a ") + MsgTypeName(frame.type) +
            " frame where a " + MsgTypeName(expected) +
            " response was expected"));
      }
      return std::move(frame.payload);
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Poison(Status::Unavailable(Errno("recv()")));
    if (n == 0) {
      return Poison(
          Status::Unavailable("server closed the connection mid-response"));
    }
    decoder_.Feed({buf, static_cast<size_t>(n)});
  }
}

Result<std::vector<uint8_t>> ProvenanceClient::Call(
    MsgType type, std::vector<uint8_t> payload) {
  SKL_ASSIGN_OR_RETURN(uint64_t id, Send(type, std::move(payload)));
  return Receive(id);
}

Result<std::vector<uint8_t>> ProvenanceClient::CallRead(
    MsgType type, const std::vector<uint8_t>& payload) {
  for (int attempt = 0;; ++attempt) {
    Result<std::vector<uint8_t>> reply = Call(type, payload);
    if (reply.ok() ||
        reply.status().code() != StatusCode::kUnavailable ||
        attempt >= options_.max_read_retries || host_.empty()) {
      return reply;
    }
    // Bounded exponential backoff with jitter: sleep uniformly in
    // [s/2, s], s = min(max, base << attempt). Mix64 keeps the delay
    // deterministic per (seed, attempt) — reproducible tests, and
    // distinct seeds decorrelate a fleet.
    const int shift = attempt < 20 ? attempt : 20;
    const uint64_t s =
        std::min<uint64_t>(options_.backoff_max_ms,
                           static_cast<uint64_t>(options_.backoff_base_ms)
                               << shift);
    const uint64_t half = s / 2;
    const uint64_t span = s - half + 1;
    const uint64_t delay =
        half + Mix64(options_.backoff_seed ^
                     (0x9e3779b97f4a7c15ULL * (attempt + 1))) %
                   span;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    // A failed reconnect leaves the client poisoned; the next Call then
    // fails kUnavailable and the loop either retries or gives up.
    (void)Reconnect();
  }
}

Result<bool> ProvenanceClient::Reaches(RunId id, VertexId v, VertexId w) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(v);
  req.U64(w);
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                       CallRead(MsgType::kReaches, std::move(req).Finish()));
  return DecodeBool(reply);
}

Result<std::vector<bool>> ProvenanceClient::ReachesBatch(
    RunId id, std::span<const VertexPair> pairs) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(pairs.size());
  for (const auto& [v, w] : pairs) {
    req.U64(v);
    req.U64(w);
  }
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kReachesBatch, std::move(req).Finish()));
  return DecodeBoolVector(reply, pairs.size());
}

Result<bool> ProvenanceClient::DependsOn(RunId id, DataItemId x,
                                         DataItemId x_from) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(x);
  req.U64(x_from);
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kDependsOn, std::move(req).Finish()));
  return DecodeBool(reply);
}

Result<std::vector<bool>> ProvenanceClient::DependsOnBatch(
    RunId id, std::span<const ItemPair> pairs) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(pairs.size());
  for (const auto& [x, x_from] : pairs) {
    req.U64(x);
    req.U64(x_from);
  }
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kDependsOnBatch, std::move(req).Finish()));
  return DecodeBoolVector(reply, pairs.size());
}

Result<bool> ProvenanceClient::ModuleDependsOnData(RunId id, VertexId v,
                                                   DataItemId x) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(v);
  req.U64(x);
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kModuleDependsOnData, std::move(req).Finish()));
  return DecodeBool(reply);
}

Result<bool> ProvenanceClient::DataDependsOnModule(RunId id, DataItemId x,
                                                   VertexId v) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(x);
  req.U64(v);
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kDataDependsOnModule, std::move(req).Finish()));
  return DecodeBool(reply);
}

/// Decodes a mutating reply: the run id, then the primary's ack LSN.
Result<RunId> ProvenanceClient::DecodeMutationReply(
    std::span<const uint8_t> payload) {
  PayloadReader reader(payload);
  SKL_ASSIGN_OR_RETURN(uint64_t value, reader.U64());
  SKL_ASSIGN_OR_RETURN(uint64_t lsn, reader.U64());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  if (lsn > last_write_lsn_) last_write_lsn_ = lsn;
  return RunId::FromValue(value);
}

Result<RunId> ProvenanceClient::AddRunXml(std::string_view run_xml) {
  PayloadWriter req;
  req.Str(run_xml);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                       Call(MsgType::kAddRun, std::move(req).Finish()));
  return DecodeMutationReply(reply);
}

Result<RunId> ProvenanceClient::AddRun(const Run& run) {
  return AddRunXml(WriteRunXml(run));
}

Result<RunId> ProvenanceClient::ImportRun(const std::vector<uint8_t>& blob) {
  PayloadWriter req;
  req.Bytes(blob);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                       Call(MsgType::kImportRun, std::move(req).Finish()));
  return DecodeMutationReply(reply);
}

Result<std::vector<uint8_t>> ProvenanceClient::ExportRun(RunId id) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kExportRun, std::move(req).Finish()));
  PayloadReader reader(reply);
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> blob, reader.Bytes());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return std::vector<uint8_t>(blob.begin(), blob.end());
}

Status ProvenanceClient::RemoveRun(RunId id) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(trace_id_);
  auto reply = Call(MsgType::kRemoveRun, std::move(req).Finish());
  if (!reply.ok()) return reply.status();
  PayloadReader reader(*reply);
  SKL_ASSIGN_OR_RETURN(uint64_t lsn, reader.U64());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  if (lsn > last_write_lsn_) last_write_lsn_ = lsn;
  return Status::OK();
}

Result<std::vector<RunId>> ProvenanceClient::ListRuns() {
  PayloadWriter req;
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kListRuns, std::move(req).Finish()));
  PayloadReader reader(reply);
  SKL_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  std::vector<RunId> ids;
  for (uint64_t i = 0; i < count; ++i) {
    SKL_ASSIGN_OR_RETURN(uint64_t value, reader.U64());
    ids.push_back(RunId::FromValue(value));
  }
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return ids;
}

Result<RunStats> ProvenanceClient::Stats(RunId id) {
  PayloadWriter req;
  req.U64(id.value());
  req.U64(read_lsn_);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kRunStats, std::move(req).Finish()));
  PayloadReader reader(reply);
  RunStats stats;
  SKL_ASSIGN_OR_RETURN(stats.num_vertices,
                       ReadU32(reader, "num_vertices"));
  SKL_ASSIGN_OR_RETURN(uint64_t num_items, reader.U64());
  stats.num_items = static_cast<size_t>(num_items);
  SKL_ASSIGN_OR_RETURN(stats.label_bits, ReadU32(reader, "label_bits"));
  SKL_ASSIGN_OR_RETURN(stats.context_bits, ReadU32(reader, "context_bits"));
  SKL_ASSIGN_OR_RETURN(stats.origin_bits, ReadU32(reader, "origin_bits"));
  SKL_ASSIGN_OR_RETURN(stats.num_nonempty_plus,
                       ReadU32(reader, "num_nonempty_plus"));
  SKL_ASSIGN_OR_RETURN(stats.imported, reader.Boolean());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return stats;
}

Result<ServiceStats> ProvenanceClient::GetServiceStats() {
  PayloadWriter req;
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kServiceStats, std::move(req).Finish()));
  PayloadReader reader(reply);
  ServiceStats stats;
  SKL_ASSIGN_OR_RETURN(stats.num_runs, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.reaches_queries, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.depends_on_queries, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.module_data_queries, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.data_module_queries, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.batch_calls, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.runs_ingested, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.runs_imported, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.runs_removed, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.bulk_batches, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.snapshot_saves, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.cache_hits, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.cache_misses, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.replication_lsn, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.replication_target_lsn, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.connections_open, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.connections_accepted, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.connections_timed_out, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.connections_backpressured, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.epoll_wakeups, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.accept_backoffs, reader.U64());
  SKL_ASSIGN_OR_RETURN(stats.spec_epoch, reader.U64());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return stats;
}

Result<uint64_t> ProvenanceClient::ApplySpecDelta(const SpecDelta& delta) {
  PayloadWriter req;
  req.Bytes(SerializeSpecDelta(delta));
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      Call(MsgType::kApplySpecDelta, std::move(req).Finish()));
  // Same shape as every mutating reply: the value, then the ack LSN.
  SKL_ASSIGN_OR_RETURN(RunId epoch_as_id, DecodeMutationReply(reply));
  return epoch_as_id.value();
}

Status ProvenanceClient::SaveSnapshot(const std::string& path) {
  PayloadWriter req;
  req.Str(path);
  req.U64(trace_id_);
  auto reply = Call(MsgType::kSaveSnapshot, std::move(req).Finish());
  if (!reply.ok()) return reply.status();
  return ExpectEmpty(*reply);
}

Status ProvenanceClient::LoadSnapshot(const std::string& path) {
  PayloadWriter req;
  req.Str(path);
  req.U64(trace_id_);
  auto reply = Call(MsgType::kLoadSnapshot, std::move(req).Finish());
  if (!reply.ok()) return reply.status();
  return ExpectEmpty(*reply);
}

Status ProvenanceClient::Ping() {
  PayloadWriter req;
  req.U64(trace_id_);
  auto reply = Call(MsgType::kPing, std::move(req).Finish());
  if (!reply.ok()) return reply.status();
  return ExpectEmpty(*reply);
}

Status ProvenanceClient::Shutdown() {
  PayloadWriter req;
  req.U64(trace_id_);
  auto reply = Call(MsgType::kShutdown, std::move(req).Finish());
  if (!reply.ok()) return reply.status();
  return ExpectEmpty(*reply);
}

Result<SnapshotFetchResult> ProvenanceClient::SnapshotFetch() {
  PayloadWriter req;
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      Call(MsgType::kSnapshotFetch, std::move(req).Finish()));
  PayloadReader reader(reply);
  SnapshotFetchResult result;
  SKL_ASSIGN_OR_RETURN(result.lsn, reader.U64());
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, reader.Bytes());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  result.bytes.assign(bytes.begin(), bytes.end());
  return result;
}

Result<LogBatch> ProvenanceClient::Subscribe(uint64_t after_lsn,
                                             uint64_t max_entries) {
  PayloadWriter req;
  req.U64(after_lsn);
  req.U64(max_entries);
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(uint64_t id,
                       Send(MsgType::kSubscribe, std::move(req).Finish()));
  SKL_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                       Receive(id, MsgType::kLogEntries));
  PayloadReader reader(reply);
  SKL_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  LogBatch batch;
  batch.ops.reserve(count);
  uint64_t expected_lsn = after_lsn;
  for (uint64_t i = 0; i < count; ++i) {
    SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> entry, reader.Bytes());
    SKL_ASSIGN_OR_RETURN(LogOp op, DeserializeLogOp(entry));
    // The batch must be a contiguous LSN run starting just past
    // after_lsn — anything else means the primary's log disagrees with
    // what this replica already applied.
    ++expected_lsn;
    if (op.lsn != expected_lsn) {
      return Status::ParseError(
          "subscribe batch entry " + std::to_string(i) + " carries LSN " +
          std::to_string(op.lsn) + ", expected " +
          std::to_string(expected_lsn));
    }
    batch.ops.push_back(std::move(op));
  }
  SKL_ASSIGN_OR_RETURN(batch.primary_last_lsn, reader.U64());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return batch;
}

Result<std::string> ProvenanceClient::GetMetrics() {
  PayloadWriter req;
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kMetrics, std::move(req).Finish()));
  PayloadReader reader(reply);
  SKL_ASSIGN_OR_RETURN(std::string text, reader.Str());
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return text;
}

Result<std::vector<SlowQueryEntry>> ProvenanceClient::SlowQueries() {
  PayloadWriter req;
  req.U64(trace_id_);
  SKL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> reply,
      CallRead(MsgType::kSlowQueries, std::move(req).Finish()));
  PayloadReader reader(reply);
  SKL_ASSIGN_OR_RETURN(uint64_t count, reader.U64());
  std::vector<SlowQueryEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SlowQueryEntry e;
    SKL_ASSIGN_OR_RETURN(e.trace_id, reader.U64());
    SKL_ASSIGN_OR_RETURN(uint64_t opcode, reader.U64());
    if (opcode > UINT8_MAX) {
      return Status::ParseError("slow-query entry opcode does not fit 8 bits");
    }
    e.opcode = static_cast<uint8_t>(opcode);
    SKL_ASSIGN_OR_RETURN(e.run_id, reader.U64());
    SKL_ASSIGN_OR_RETURN(e.shard, reader.U64());
    SKL_ASSIGN_OR_RETURN(e.queue_us, reader.U64());
    SKL_ASSIGN_OR_RETURN(e.exec_us, reader.U64());
    entries.push_back(e);
  }
  SKL_RETURN_NOT_OK(reader.ExpectEnd());
  return entries;
}

Result<std::vector<bool>> ProvenanceClient::PipelinedBools(
    MsgType type, uint64_t run,
    std::span<const std::pair<uint32_t, uint32_t>> pairs) {
  if (!broken_.ok()) return broken_;
  if (fd_ < 0) return Status::Unavailable("client is not connected");
  // The in-flight window is bounded: with both peers single-threaded per
  // connection, writing an unbounded batch before reading any response
  // can fill the socket buffers in both directions and deadlock (the
  // server blocks sending responses we are not reading, we block sending
  // requests it is not receiving). 512 frames is far below that threshold
  // and already amortizes the round trip away.
  constexpr size_t kWindow = 512;
  std::vector<bool> answers;
  answers.reserve(pairs.size());
  Status first_error = Status::OK();
  std::vector<uint8_t> wire;
  for (size_t off = 0; off < pairs.size(); off += kWindow) {
    const size_t len = std::min(kWindow, pairs.size() - off);
    const uint64_t first_id = next_request_id_;
    wire.clear();
    for (size_t i = 0; i < len; ++i) {
      Frame frame;
      frame.type = type;
      frame.request_id = next_request_id_++;
      PayloadWriter req;
      req.U64(run);
      req.U64(pairs[off + i].first);
      req.U64(pairs[off + i].second);
      req.U64(read_lsn_);
      req.U64(trace_id_);
      frame.payload = std::move(req).Finish();
      EncodeFrame(frame, &wire);
    }
    if (!SendAll(fd_, wire)) {
      return Poison(Status::Unavailable(Errno("send()")));
    }
    // Responses come back strictly in order. On a per-query error, keep
    // draining the window so the connection stays usable, then report the
    // first error after all windows flushed.
    for (size_t i = 0; i < len; ++i) {
      auto reply = Receive(first_id + i);
      if (!reply.ok()) {
        if (!broken_.ok()) return reply.status();  // transport: stop now
        if (first_error.ok()) first_error = reply.status();
        continue;
      }
      if (first_error.ok()) {
        auto answer = DecodeBool(*reply);
        if (!answer.ok()) {
          first_error = answer.status();
          continue;
        }
        answers.push_back(*answer);
      }
    }
  }
  if (!first_error.ok()) return first_error;
  return answers;
}

Result<std::vector<bool>> ProvenanceClient::ReachesPipelined(
    RunId id, std::span<const VertexPair> pairs) {
  return PipelinedBools(MsgType::kReaches, id.value(), pairs);
}

Result<std::vector<bool>> ProvenanceClient::DependsOnPipelined(
    RunId id, std::span<const ItemPair> pairs) {
  return PipelinedBools(MsgType::kDependsOn, id.value(), pairs);
}

}  // namespace skl
