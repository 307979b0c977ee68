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

/// A batch reply must answer every query of its batch.
Result<std::vector<bool>> ExpectAnswers(Result<std::vector<bool>> answers,
                                        size_t expected) {
  if (answers.ok() && answers->size() != expected) {
    return Status::ParseError("batch reply answers " +
                              std::to_string(answers->size()) +
                              " queries, expected " +
                              std::to_string(expected));
  }
  return answers;
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

ProvenanceClient::Socket::~Socket() {
  if (fd_ >= 0) ::close(fd_);
}

ProvenanceClient::ProvenanceClient(int fd, Options options, std::string host,
                                   uint16_t port)
    : socket_(fd),
      decoder_(options.max_frame_bytes),
      options_(options),
      host_(std::move(host)),
      port_(port) {}

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
  socket_ = Socket(*fd);
  decoder_ = FrameDecoder(options_.max_frame_bytes);
  next_request_id_ = 1;
  broken_ = Status::OK();
  return Status::OK();
}


template <class Rpc>
uint64_t ProvenanceClient::EncodeRequest(const typename Rpc::Request& request) {
  constexpr const OpcodeInfo& row = RowOf<Rpc>();
  const uint64_t request_id = next_request_id_++;
  FrameWriter frame(&send_buf_, Rpc::kType, request_id);
  PutField(frame.payload(), request);
  if constexpr (row.read_token) frame.payload().U64(read_lsn_);
  frame.payload().U64(trace_id_);
  frame.Finish();
  return request_id;
}

Status ProvenanceClient::Flush() {
  const bool sent = SendAll(socket_.fd(), send_buf_);
  send_buf_.clear();
  if (!sent) return Poison(Status::Unavailable(Errno("send()")));
  return Status::OK();
}

Result<std::span<const uint8_t>> ProvenanceClient::Receive(
    uint64_t request_id, MsgType expected) {
  if (!broken_.ok()) return broken_;
  uint8_t buf[65536];
  for (;;) {
    Result<std::optional<FrameView>> next = decoder_.NextView();
    if (!next.ok()) {
      // Framing corruption: the socket's remaining bytes are untrustworthy.
      return Poison(next.status());
    }
    if (next->has_value()) {
      const FrameView& frame = **next;
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
        uint64_t applied = 0;
        SKL_RETURN_NOT_OK(
            DecodeMessage(frame.payload, StatusCode::kParseError, applied));
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
      return frame.payload;
    }
    ssize_t n = ::recv(socket_.fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Poison(Status::Unavailable(Errno("recv()")));
    if (n == 0) {
      return Poison(
          Status::Unavailable("server closed the connection mid-response"));
    }
    decoder_.Feed({buf, static_cast<size_t>(n)});
  }
}

template <class Rpc>
Result<typename Rpc::Reply> ProvenanceClient::DecodeReply(
    std::span<const uint8_t> payload) {
  FieldReader in{PayloadReader(payload), StatusCode::kParseError,
                 Status::OK()};
  typename Rpc::Reply reply{};
  uint64_t ack_lsn = 0;
  if (!GetField(in, reply) ||
      (RowOf<Rpc>().acks_lsn && !GetField(in, ack_lsn))) {
    return in.error;
  }
  SKL_RETURN_NOT_OK(in.payload.ExpectEnd());
  if (ack_lsn > last_write_lsn_) last_write_lsn_ = ack_lsn;
  return reply;
}

template <class Rpc>
Result<typename Rpc::Reply> ProvenanceClient::Invoke(
    const typename Rpc::Request& request) {
  auto call = [&]() -> Result<typename Rpc::Reply> {
    if (!broken_.ok()) return broken_;
    if (socket_.fd() < 0) return Status::Unavailable("client is not connected");
    const uint64_t request_id = EncodeRequest<Rpc>(request);
    SKL_RETURN_NOT_OK(Flush());
    SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> payload,
                         Receive(request_id, RowOf<Rpc>().reply));
    return DecodeReply<Rpc>(payload);
  };
  for (int attempt = 0;; ++attempt) {
    Result<typename Rpc::Reply> reply = call();
    if (!RowOf<Rpc>().retried || reply.ok() ||
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
    // A failed reconnect leaves the client poisoned; the next attempt then
    // fails kUnavailable and the loop either retries or gives up.
    (void)Reconnect();
  }
}

Result<bool> ProvenanceClient::Reaches(RunId id, VertexId v, VertexId w) {
  return Invoke<rpc::Reaches>({id, v, w});
}

Result<std::vector<bool>> ProvenanceClient::ReachesBatch(
    RunId id, std::span<const VertexPair> pairs) {
  return ExpectAnswers(
      Invoke<rpc::ReachesBatch>({id, {pairs.begin(), pairs.end()}}),
      pairs.size());
}

Result<bool> ProvenanceClient::DependsOn(RunId id, DataItemId x,
                                         DataItemId x_from) {
  return Invoke<rpc::DependsOn>({id, x, x_from});
}

Result<std::vector<bool>> ProvenanceClient::DependsOnBatch(
    RunId id, std::span<const ItemPair> pairs) {
  return ExpectAnswers(
      Invoke<rpc::DependsOnBatch>({id, {pairs.begin(), pairs.end()}}),
      pairs.size());
}

Result<bool> ProvenanceClient::ModuleDependsOnData(RunId id, VertexId v,
                                                   DataItemId x) {
  return Invoke<rpc::ModuleDependsOnData>({id, v, x});
}

Result<bool> ProvenanceClient::DataDependsOnModule(RunId id, DataItemId x,
                                                   VertexId v) {
  return Invoke<rpc::DataDependsOnModule>({id, x, v});
}

Result<RunId> ProvenanceClient::AddRunXml(std::string_view run_xml) {
  return Invoke<rpc::AddRun>({std::string(run_xml)});
}

Result<RunId> ProvenanceClient::AddRun(const Run& run) {
  return AddRunXml(WriteRunXml(run));
}

Result<RunId> ProvenanceClient::ImportRun(const std::vector<uint8_t>& blob) {
  return Invoke<rpc::ImportRun>({blob});
}

Result<std::vector<uint8_t>> ProvenanceClient::ExportRun(RunId id) {
  return Invoke<rpc::ExportRun>({id});
}

Status ProvenanceClient::RemoveRun(RunId id) {
  return Invoke<rpc::RemoveRun>({id}).status();
}

Result<std::vector<RunId>> ProvenanceClient::ListRuns() {
  return Invoke<rpc::ListRuns>({});
}

Result<RunStats> ProvenanceClient::Stats(RunId id) {
  return Invoke<rpc::RunStats>({id});
}

Result<ServiceStats> ProvenanceClient::GetServiceStats() {
  return Invoke<rpc::ServiceStats>({});
}

Result<uint64_t> ProvenanceClient::ApplySpecDelta(const SpecDelta& delta) {
  return Invoke<rpc::ApplySpecDelta>({SerializeSpecDelta(delta)});
}

Status ProvenanceClient::SaveSnapshot(const std::string& path) {
  return Invoke<rpc::SaveSnapshot>({path}).status();
}

Status ProvenanceClient::LoadSnapshot(const std::string& path) {
  return Invoke<rpc::LoadSnapshot>({path}).status();
}

Status ProvenanceClient::Ping() { return Invoke<rpc::Ping>({}).status(); }

Status ProvenanceClient::Shutdown() {
  return Invoke<rpc::Shutdown>({}).status();
}

Result<SnapshotFetchResult> ProvenanceClient::SnapshotFetch() {
  return Invoke<rpc::SnapshotFetch>({});
}

Result<LogBatch> ProvenanceClient::Subscribe(uint64_t after_lsn,
                                             uint64_t max_entries) {
  SKL_ASSIGN_OR_RETURN(LogBatch batch,
                       Invoke<rpc::Subscribe>({after_lsn, max_entries}));
  // The batch must be a contiguous LSN run starting just past after_lsn —
  // anything else means the primary's log disagrees with what this
  // replica already applied.
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    if (batch.ops[i].lsn != after_lsn + i + 1) {
      return Status::ParseError(
          "subscribe batch entry " + std::to_string(i) + " carries LSN " +
          std::to_string(batch.ops[i].lsn) + ", expected " +
          std::to_string(after_lsn + i + 1));
    }
  }
  return batch;
}

Result<std::string> ProvenanceClient::GetMetrics() {
  return Invoke<rpc::Metrics>({});
}

Result<std::vector<SlowQueryEntry>> ProvenanceClient::SlowQueries() {
  return Invoke<rpc::SlowQueries>({});
}

template <class Rpc>
Result<std::vector<bool>> ProvenanceClient::Pipelined(
    RunId id, std::span<const std::pair<uint32_t, uint32_t>> pairs) {
  if (!broken_.ok()) return broken_;
  if (socket_.fd() < 0) return Status::Unavailable("client is not connected");
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
  for (size_t off = 0; off < pairs.size(); off += kWindow) {
    const size_t len = std::min(kWindow, pairs.size() - off);
    const uint64_t first_id = next_request_id_;
    for (size_t i = 0; i < len; ++i) {
      EncodeRequest<Rpc>({id, pairs[off + i].first, pairs[off + i].second});
    }
    SKL_RETURN_NOT_OK(Flush());
    // Responses come back strictly in order. On a per-query error, keep
    // draining the window so the connection stays usable, then report the
    // first error after all windows flushed.
    for (size_t i = 0; i < len; ++i) {
      Result<std::span<const uint8_t>> reply =
          Receive(first_id + i, MsgType::kReply);
      if (!reply.ok()) {
        if (!broken_.ok()) return reply.status();  // transport: stop now
        if (first_error.ok()) first_error = reply.status();
        continue;
      }
      if (first_error.ok()) {
        Result<bool> answer = DecodeReply<Rpc>(*reply);
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
  return Pipelined<rpc::Reaches>(id, pairs);
}

Result<std::vector<bool>> ProvenanceClient::DependsOnPipelined(
    RunId id, std::span<const ItemPair> pairs) {
  return Pipelined<rpc::DependsOn>(id, pairs);
}

}  // namespace skl
