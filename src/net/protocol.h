// Wire protocol of the network query serving layer: framed binary messages
// carrying ProvenanceService requests and responses over a byte stream
// (docs/NETWORK.md has the full layout, opcode table and versioning policy).
//
// Every message travels in one length-prefixed, CRC-checked frame:
//
//   magic    "SN"            16 bits
//   body_len                 32 bits   bytes in `body`, big-endian
//   body_crc                 32 bits   CRC-32 of the body bytes, big-endian
//   body:
//     version                 8 bits   kProtocolVersion
//     type                    8 bits   MsgType
//     request_id             varint    echoed verbatim in the response
//     payload                          type-specific (PayloadWriter/Reader)
//
// Every field is whole bytes, so both directions are byte codecs: a frame
// is written straight into the caller's buffer (FrameWriter) and read in
// place from the receive buffer (FrameDecoder::NextView).
//
// The CRC covers the whole body, so a flipped bit anywhere in a request is
// reported as a descriptive ParseError — never parsed into a plausible but
// wrong query. Frames are self-delimiting, which is what makes request
// pipelining work: a client may write any number of request frames before
// reading the first response; the server answers strictly in order, echoing
// each request_id.
//
// Error model: header-intact frames whose body fails validation (CRC, version,
// payload shape, service-level errors) get a kError response carrying the
// StatusCode, message and trace id; the connection stays usable. A corrupted
// header (magic/length) loses frame synchronization — the decoder poisons
// itself and the server closes that connection after a best-effort kError
// with request id 0 (client request ids start at 1).
#ifndef SKL_NET_PROTOCOL_H_
#define SKL_NET_PROTOCOL_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/varint.h"

namespace skl {

/// Protocol version carried in every frame body. Bumped on any incompatible
/// change to the frame layout or a payload encoding. Each side speaks
/// exactly this version: a server answers a frame of any other version with
/// a kError naming both versions, and a client refuses a reply of any other
/// version the same way (see docs/NETWORK.md).
inline constexpr uint8_t kProtocolVersion = 6;

/// First two frame bytes, "SN". A stream that does not start with them is
/// not speaking this protocol.
inline constexpr uint16_t kFrameMagic = 0x534E;

/// Bytes before the body: magic (2) + body_len (4) + body_crc (4).
inline constexpr size_t kFrameHeaderBytes = 10;

/// Default ceiling on body_len. A hostile or corrupted length prefix must
/// bound memory, not commit the peer to a multi-gigabyte allocation.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;  // 64 MiB

/// Message opcodes. Requests map 1:1 onto the ProvenanceService API (plus
/// Ping/Shutdown for liveness and lifecycle); responses are kReply (success,
/// request-specific payload) or kError (StatusCode + message).
enum class MsgType : uint8_t {
  kPing = 1,
  kReaches = 2,
  kReachesBatch = 3,
  kDependsOn = 4,
  kDependsOnBatch = 5,
  kModuleDependsOnData = 6,
  kDataDependsOnModule = 7,
  kAddRun = 8,         ///< payload: run XML
  kImportRun = 9,      ///< payload: ProvenanceStore blob
  kExportRun = 10,     ///< reply payload: ProvenanceStore blob
  kRemoveRun = 11,
  kListRuns = 12,
  kRunStats = 13,      ///< per-run RunStats
  kServiceStats = 14,  ///< service-wide cumulative counters
  kSaveSnapshot = 15,  ///< server-side snapshot save (path on the server)
  kLoadSnapshot = 16,  ///< server-side snapshot load: replaces the service
  kShutdown = 17,      ///< graceful drain-and-shutdown of the whole server
  kSnapshotFetch = 18, ///< reply carries {lsn, snapshot bytes}
  kSubscribe = 19,     ///< {after_lsn, max}; answered by kLogEntries
  kMetrics = 20,       ///< reply carries Prometheus text exposition
  kSlowQueries = 21,   ///< reply carries the slow-query ring buffer
  kApplySpecDelta = 22,  ///< {delta blob}; reply {epoch, ack lsn}

  kReply = 64,
  kError = 65,
  kLogEntries = 66,    ///< kSubscribe response: a batch of op-log entries
  kRetryAt = 67,       ///< replica behind the request's min-LSN token
};

/// Static facts about one opcode. kOpcodes has one row per MsgType and is
/// the only place these facts are kept: opcode names, the request set, the
/// read-only replica's refusals, the slow-query log's run-id peek, the
/// server's choice of thread and lock, each request's trailers and the
/// client's retry policy all read it.
struct OpcodeInfo {
  MsgType type;
  const char* name;  ///< for logs, errors and metric labels ("Reaches")
  bool is_request;   ///< a server dispatches it
  bool mutates;      ///< changes the registry or spec: a replica refuses it
  bool names_run;    ///< the payload starts with a run-id varint
  /// A read costing one label compare a pair: the connection's I/O thread
  /// may answer it itself instead of handing it to the worker pool (under
  /// an indexed scheme only, and batches only up to
  /// ProvenanceServer::kMaxInlineBatchPairs pairs).
  bool runs_inline;
  /// The request carries a min-LSN read token before its trace id; a server
  /// that has not applied that LSN answers kRetryAt instead.
  bool read_token;
  /// Idempotent: the client retries it across reconnects after a transport
  /// failure (ProvenanceClientOptions::max_read_retries).
  bool retried;
  /// Replaces the served service: dispatched under the exclusive service
  /// lock, every other request excluded for its duration.
  bool exclusive;
  /// The success reply ends with the primary's ack LSN.
  bool acks_lsn;
  /// The success reply's type (requests only).
  MsgType reply;
};

/// The facts a kOpcodes row can have, combined into one mask per row.
namespace opcode_fact {
inline constexpr unsigned kRequest = 1u << 0;
inline constexpr unsigned kMutates = 1u << 1;
inline constexpr unsigned kNamesRun = 1u << 2;
inline constexpr unsigned kRunsInline = 1u << 3;
inline constexpr unsigned kReadToken = 1u << 4;
inline constexpr unsigned kRetried = 1u << 5;
inline constexpr unsigned kExclusive = 1u << 6;
inline constexpr unsigned kAcksLsn = 1u << 7;
/// A read of the registry: token-checked and retried.
inline constexpr unsigned kRead = kRequest | kReadToken | kRetried;
/// A logged mutation: refused by replicas, acked with an LSN.
inline constexpr unsigned kWrite = kRequest | kMutates | kAcksLsn;

constexpr OpcodeInfo Row(MsgType type, const char* name, unsigned facts,
                         MsgType reply = MsgType::kReply) {
  return {type,
          name,
          (facts & kRequest) != 0,
          (facts & kMutates) != 0,
          (facts & kNamesRun) != 0,
          (facts & kRunsInline) != 0,
          (facts & kReadToken) != 0,
          (facts & kRetried) != 0,
          (facts & kExclusive) != 0,
          (facts & kAcksLsn) != 0,
          (facts & kRequest) != 0 ? reply : MsgType{}};
}
}  // namespace opcode_fact

/// Every opcode, in MsgType value order. DependsOn and ModuleDependsOnData
/// make one label compare per reader of a data item, so they do not run
/// inline: their cost grows with the reader count.
inline constexpr auto kOpcodes = [] {
  using namespace opcode_fact;
  return std::array{
      Row(MsgType::kPing, "Ping", kRequest),
      Row(MsgType::kReaches, "Reaches", kRead | kNamesRun | kRunsInline),
      Row(MsgType::kReachesBatch, "ReachesBatch",
          kRead | kNamesRun | kRunsInline),
      Row(MsgType::kDependsOn, "DependsOn", kRead | kNamesRun),
      Row(MsgType::kDependsOnBatch, "DependsOnBatch", kRead | kNamesRun),
      Row(MsgType::kModuleDependsOnData, "ModuleDependsOnData",
          kRead | kNamesRun),
      Row(MsgType::kDataDependsOnModule, "DataDependsOnModule",
          kRead | kNamesRun | kRunsInline),
      Row(MsgType::kAddRun, "AddRun", kWrite),
      Row(MsgType::kImportRun, "ImportRun", kWrite),
      Row(MsgType::kExportRun, "ExportRun", kRead | kNamesRun),
      Row(MsgType::kRemoveRun, "RemoveRun", kWrite | kNamesRun),
      Row(MsgType::kListRuns, "ListRuns", kRead),
      Row(MsgType::kRunStats, "RunStats", kRead | kNamesRun),
      Row(MsgType::kServiceStats, "ServiceStats", kRequest | kRetried),
      Row(MsgType::kSaveSnapshot, "SaveSnapshot", kRequest),
      Row(MsgType::kLoadSnapshot, "LoadSnapshot",
          kRequest | kMutates | kExclusive),
      Row(MsgType::kShutdown, "Shutdown", kRequest),
      Row(MsgType::kSnapshotFetch, "SnapshotFetch", kRequest),
      Row(MsgType::kSubscribe, "Subscribe", kRequest, MsgType::kLogEntries),
      Row(MsgType::kMetrics, "Metrics", kRequest | kRetried),
      Row(MsgType::kSlowQueries, "SlowQueries", kRequest | kRetried),
      Row(MsgType::kApplySpecDelta, "ApplySpecDelta", kWrite),
      Row(MsgType::kReply, "Reply", 0),
      Row(MsgType::kError, "Error", 0),
      Row(MsgType::kLogEntries, "LogEntries", 0),
      Row(MsgType::kRetryAt, "RetryAt", 0),
  };
}();

/// kOpcodes indexed by opcode byte, derived from the table itself.
inline constexpr std::array<const OpcodeInfo*, 256> kOpcodeByByte = [] {
  std::array<const OpcodeInfo*, 256> index{};
  for (const OpcodeInfo& row : kOpcodes) {
    index[static_cast<uint8_t>(row.type)] = &row;
  }
  return index;
}();

/// Every opcode, in MsgType value order.
inline std::span<const OpcodeInfo> OpcodeTable() { return kOpcodes; }

/// The row for a raw opcode byte; nullptr for a byte no MsgType names.
constexpr const OpcodeInfo* FindOpcode(uint8_t type) {
  return kOpcodeByByte[type];
}

/// Opcode name for logs and error messages ("Reaches", "Error", ...);
/// "Unknown" for a byte no MsgType names.
const char* MsgTypeName(MsgType type);

/// One decoded message. `payload` is the type-specific body remainder.
struct Frame {
  uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// A decoded message whose payload aliases the decoder's buffer: valid
/// until the decoder's next Feed().
struct FrameView {
  uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  std::span<const uint8_t> payload;

  FrameView() = default;
  FrameView(const Frame& frame)  // implicit, as std::span is from a vector
      : version(frame.version),
        type(frame.type),
        request_id(frame.request_id),
        payload(frame.payload) {}
  /// An owning copy, for a frame that must outlive the decoder's buffer.
  Frame ToFrame() const {
    return Frame{version, type, request_id, {payload.begin(), payload.end()}};
  }
};

/// Encodes `frame` into the wire format, appending to `*out`.
void EncodeFrame(const FrameView& frame, std::vector<uint8_t>* out);

/// Incremental frame decoder over a received byte stream. Feed() bytes as
/// they arrive; Next() yields complete frames in order.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends received bytes to the internal buffer.
  void Feed(std::span<const uint8_t> bytes);

  /// Decodes the next frame, if a complete one is buffered.
  ///  - a Frame: header and CRC checked out;
  ///  - std::nullopt: the buffered prefix is incomplete, feed more bytes;
  ///  - ParseError: the stream is corrupt (bad magic, oversized length,
  ///    checksum mismatch). The decoder is then poisoned — frame boundaries
  ///    cannot be recovered, so every later Next() repeats the error and the
  ///    connection must be torn down.
  /// A CRC-intact frame of an unsupported protocol version is returned
  /// normally (the dispatcher answers kError), not treated as corruption.
  Result<std::optional<Frame>> Next();

  /// Next() without the payload copy: the view aliases the buffered bytes
  /// and is valid until the next Feed().
  Result<std::optional<FrameView>> NextView();

  /// Bytes buffered but not yet consumed by a decoded frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  bool poisoned() const { return poisoned_.has_value(); }

 private:
  size_t max_frame_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  std::optional<Status> poisoned_;
};

/// Appends payload fields in the canonical encodings: varints LEB128
/// (src/common/varint.h), booleans one byte, blobs length-prefixed.
/// Either builds the payload in a buffer of its own, handed over by
/// Finish(), or appends straight onto a caller's buffer.
class PayloadWriter {
 public:
  PayloadWriter() : out_(&owned_) { owned_.reserve(kInitialBytes); }
  /// Appends onto `*out`, which must outlive the writer; Finish() is then
  /// empty.
  explicit PayloadWriter(std::vector<uint8_t>* out) : out_(out) {}
  // A copy would append to the original's buffer.
  PayloadWriter(const PayloadWriter&) = delete;
  PayloadWriter& operator=(const PayloadWriter&) = delete;

  void U64(uint64_t value) { AppendVarint(value, out_); }
  void Boolean(bool value) { out_->push_back(value ? 1 : 0); }
  void Bytes(std::span<const uint8_t> bytes) {
    U64(bytes.size());
    out_->insert(out_->end(), bytes.begin(), bytes.end());
  }
  void Str(std::string_view s) {
    Bytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  /// A count varint, then one 0/1 byte per value: the bytes U64 and
  /// Boolean write for the list, in one append.
  void Booleans(const std::vector<bool>& values);
  std::vector<uint8_t> Finish() && { return std::move(owned_); }

 private:
  /// Room for any point request, so building one allocates once.
  static constexpr size_t kInitialBytes = 64;

  std::vector<uint8_t> owned_;
  std::vector<uint8_t>* out_;
};

/// Appends one frame to `*out` in place, with no intermediate buffer: the
/// constructor writes the header (length and CRC left blank), version, type
/// and request id; payload() appends the payload right after them; Finish()
/// fills in body_len and body_crc. The bytes are EncodeFrame's exactly.
class FrameWriter {
 public:
  FrameWriter(std::vector<uint8_t>* out, MsgType type, uint64_t request_id,
              uint8_t version = kProtocolVersion);

  PayloadWriter& payload() { return payload_; }
  /// Overwrites the type byte: a reply's type is settled by its dispatch.
  void SetType(MsgType type);
  /// Drops the payload written so far (a request that failed midway).
  void ClearPayload() { out_->resize(payload_start_); }
  /// Completes the frame. Call exactly once, after the last payload byte.
  void Finish();

 private:
  std::vector<uint8_t>* out_;
  size_t start_;          ///< offset of the frame's first byte in *out_
  size_t payload_start_ = 0;  ///< offset of its first payload byte
  PayloadWriter payload_;
};

/// Reads back payload fields written by PayloadWriter, every read checked:
/// truncated or trailing payload bytes come back as a descriptive
/// ParseError, never an out-of-bounds read.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> payload)
      : payload_(payload) {}

  Result<uint64_t> U64();
  Result<bool> Boolean();
  /// Length-prefixed blob; the span aliases the payload buffer.
  Result<std::span<const uint8_t>> Bytes();
  Result<std::string> Str();
  /// `count` booleans written one byte each (the count itself is read by
  /// the caller). Fails as the same number of Boolean() reads would: on the
  /// first byte other than 0/1, else on running out of payload.
  Result<std::vector<bool>> Booleans(uint64_t count);
  /// Payload bytes not yet read.
  size_t remaining() const { return payload_.size() - pos_; }
  /// Fails with ParseError if payload bytes remain unconsumed — a shape
  /// mismatch (e.g. a request with extra arguments) must not pass silently.
  Status ExpectEnd();

 private:
  std::span<const uint8_t> payload_;
  size_t pos_ = 0;  ///< bytes consumed
};

// ------------------------------------------------------- field codec --
// PutField/GetField encode one typed field: unsigned integers as varints
// (a narrower one range-checked on decode), booleans as one byte, strings
// and byte vectors length-prefixed, other vectors (bool ones too) as a
// count varint and then each element, pairs and tuples as their elements
// in order, and a struct with a Fields() member as the fields that ties,
// in order. The message shapes are in src/net/messages.h.

/// A PayloadReader that knows which side is decoding and keeps the first
/// failure: GetField returns false and leaves it in `error`. An id that
/// does not fit its field is the caller's fault in a request
/// (kInvalidArgument) and corruption in a reply (kParseError); every other
/// malformation is a kParseError on both sides.
struct FieldReader {
  PayloadReader payload;
  StatusCode out_of_range;
  Status error;

  /// Moves a successful read into `out`; otherwise records its failure.
  template <class T>
  bool Take(Result<T> read, T& out) {
    if (!read.ok()) {
      error = read.status();
      return false;
    }
    out = std::move(read).value();
    return true;
  }
};

template <class T>
concept TupleLike = requires { std::tuple_size<T>::value; };
/// A struct whose fields travel in the order Fields() ties them.
template <class T>
concept WireStruct = requires(T& msg) { msg.Fields(); };

template <std::unsigned_integral T>
void PutField(PayloadWriter& out, T value) {
  out.U64(value);
}
inline void PutField(PayloadWriter& out, bool value) { out.Boolean(value); }
inline void PutField(PayloadWriter& out, const std::string& text) {
  out.Str(text);
}
inline void PutField(PayloadWriter& out, const std::vector<uint8_t>& bytes) {
  out.Bytes(bytes);
}
inline void PutField(PayloadWriter& out, const std::vector<bool>& list) {
  out.Booleans(list);
}
template <class T>
void PutField(PayloadWriter& out, const std::vector<T>& list) {
  out.U64(list.size());
  for (const T& item : list) PutField(out, item);
}
template <TupleLike T>
void PutField(PayloadWriter& out, const T& fields) {
  std::apply([&](const auto&... field) { (PutField(out, field), ...); },
             fields);
}
template <WireStruct T>
void PutField(PayloadWriter& out, const T& msg) {
  // Fields() ties references; encoding only reads through them.
  PutField(out, const_cast<T&>(msg).Fields());
}

inline bool GetField(FieldReader& in, uint64_t& value) {
  return in.Take(in.payload.U64(), value);
}
/// A narrower integer: the varint must fit it.
template <std::unsigned_integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, uint64_t>)
bool GetField(FieldReader& in, T& value) {
  uint64_t raw = 0;
  if (!GetField(in, raw)) return false;
  if (raw > std::numeric_limits<T>::max()) {
    in.error = Status(in.out_of_range,
                      "field value " + std::to_string(raw) + " does not fit " +
                          std::to_string(std::numeric_limits<T>::digits) +
                          " bits");
    return false;
  }
  value = static_cast<T>(raw);
  return true;
}
inline bool GetField(FieldReader& in, bool& value) {
  return in.Take(in.payload.Boolean(), value);
}
inline bool GetField(FieldReader& in, std::string& text) {
  return in.Take(in.payload.Str(), text);
}
inline bool GetField(FieldReader& in, std::vector<uint8_t>& bytes) {
  std::span<const uint8_t> view;
  if (!in.Take(in.payload.Bytes(), view)) return false;
  bytes.assign(view.begin(), view.end());
  return true;
}
inline bool GetField(FieldReader& in, std::vector<bool>& list) {
  uint64_t count = 0;
  return GetField(in, count) && in.Take(in.payload.Booleans(count), list);
}
template <class T>
bool GetField(FieldReader& in, std::vector<T>& list) {
  uint64_t count = 0;
  if (!GetField(in, count)) return false;
  // Every element takes at least one byte: the payload bounds the count.
  list.clear();
  list.reserve(std::min<uint64_t>(count, in.payload.remaining()));
  for (uint64_t i = 0; i < count; ++i) {
    T item{};
    if (!GetField(in, item)) return false;
    list.push_back(std::move(item));
  }
  return true;
}
template <TupleLike T>
bool GetField(FieldReader& in, T& fields) {
  return std::apply(
      [&](auto&... field) { return (GetField(in, field) && ...); }, fields);
}
template <WireStruct T>
bool GetField(FieldReader& in, T& msg) {
  auto fields = msg.Fields();
  return GetField(in, fields);
}

/// Decodes a whole message of type T from `payload`: its fields and
/// nothing after them.
template <class T>
Status DecodeMessage(std::span<const uint8_t> payload, StatusCode out_of_range,
                     T& msg) {
  FieldReader in{PayloadReader(payload), out_of_range, Status::OK()};
  if (!GetField(in, msg)) return in.error;
  return in.payload.ExpectEnd();
}

/// Encodes a non-OK status as a kError payload: code + message + a
/// trace-id varint echoing the trace id the failing request carried (0 when
/// it carried none, e.g. when the payload was too malformed to reach the
/// trace field, or for a connection-terminal error).
std::vector<uint8_t> EncodeErrorPayload(const Status& status,
                                        uint64_t trace_id);
/// The same payload, appended through `out` (a reply built in place).
void EncodeErrorPayload(const Status& status, uint64_t trace_id,
                        PayloadWriter& out);

/// Decodes a kError payload back into the Status it carried, writing the
/// echoed trace id to `*trace_id` when non-null (left 0 when the payload is
/// malformed). A malformed payload decodes to a ParseError describing the
/// corruption instead. An unknown code (from a future peer) maps to
/// kInternal with the message preserved. Always non-OK.
Status DecodeErrorPayload(std::span<const uint8_t> payload,
                          uint64_t* trace_id = nullptr);

/// One slow-query log record (docs/OBSERVABILITY.md): a request whose
/// queue-wait + execute time reached the server's slow-query threshold.
/// Lives here because it is also the kSlowQueries reply wire shape: the
/// payload is a count varint followed by the six fields of each entry as
/// varints, in declaration order.
/// `run_id` is the run the request named (0 for run-less opcodes or when
/// the payload was too malformed to carry one); `trace_id` is the client's
/// trace token.
struct SlowQueryEntry {
  uint64_t trace_id = 0;
  uint8_t opcode = 0;  ///< raw MsgType value (MsgTypeName prints it)
  uint64_t run_id = 0;
  uint64_t shard = 0;     ///< registry shard owning run_id (0 when run-less)
  uint64_t queue_us = 0;  ///< decoded-to-dequeued wait in the frame queue
  uint64_t exec_us = 0;   ///< dispatch + reply encode

  auto Fields() {
    return std::tie(trace_id, opcode, run_id, shard, queue_us, exec_us);
  }
};

}  // namespace skl

#endif  // SKL_NET_PROTOCOL_H_
