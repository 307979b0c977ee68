// Wire protocol of the network query serving layer: framed binary messages
// carrying ProvenanceService requests and responses over a byte stream
// (docs/NETWORK.md has the full layout, opcode table and versioning policy).
//
// Every message travels in one length-prefixed, CRC-checked frame:
//
//   magic    "SN"            16 bits
//   body_len                 32 bits   bytes in `body`, big-endian
//   body_crc                 32 bits   CRC-32 of the body bytes
//   body:
//     version                 8 bits   kProtocolVersion
//     type                    8 bits   MsgType
//     request_id             varint    echoed verbatim in the response
//     payload                          type-specific (PayloadWriter/Reader)
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

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bit_codec.h"
#include "src/common/status.h"

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

/// Static facts about one opcode. OpcodeTable() has one row per MsgType
/// and is the only place these facts are kept: opcode names, the request
/// set, the read-only replica's refusals and the slow-query log's run-id
/// peek all read it.
struct OpcodeInfo {
  MsgType type;
  const char* name;  ///< for logs, errors and metric labels ("Reaches")
  bool is_request;   ///< a server dispatches it
  bool mutates;      ///< changes the registry or spec: a replica refuses it
  bool names_run;    ///< the payload starts with a run-id varint
};

/// Every opcode, in MsgType value order.
std::span<const OpcodeInfo> OpcodeTable();

/// The row for a raw opcode byte; nullptr for a byte no MsgType names.
const OpcodeInfo* FindOpcode(uint8_t type);

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

/// Encodes `frame` into the wire format, appending to `*out`.
void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out);

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

  /// Bytes buffered but not yet consumed by a decoded frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  bool poisoned() const { return poisoned_.has_value(); }

 private:
  size_t max_frame_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;  ///< prefix of buffer_ already decoded
  std::optional<Status> poisoned_;
};

/// Appends payload fields in the canonical encodings (varints byte-aligned,
/// blobs length-prefixed). Thin wrapper over BitWriter so request/response
/// payloads are built the same way everywhere.
class PayloadWriter {
 public:
  void U64(uint64_t value) { writer_.WriteVarint(value); }
  void Boolean(bool value) { writer_.Write(value ? 1 : 0, 8); }
  void Bytes(std::span<const uint8_t> bytes) {
    writer_.WriteVarint(bytes.size());
    writer_.WriteBytes(bytes);
  }
  void Str(std::string_view s) {
    Bytes({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  std::vector<uint8_t> Finish() && { return std::move(writer_).Finish(); }

 private:
  BitWriter writer_;
};

/// Reads back payload fields written by PayloadWriter, every read checked:
/// truncated or trailing payload bytes come back as a descriptive
/// ParseError, never an out-of-bounds read.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> payload)
      : reader_(payload.data(), payload.size()), size_bytes_(payload.size()) {}

  Result<uint64_t> U64();
  Result<bool> Boolean();
  /// Length-prefixed blob; the span aliases the payload buffer.
  Result<std::span<const uint8_t>> Bytes();
  Result<std::string> Str();
  /// Fails with ParseError if payload bytes remain unconsumed — a shape
  /// mismatch (e.g. a request with extra arguments) must not pass silently.
  Status ExpectEnd();

 private:
  BitReader reader_;
  size_t size_bytes_;
};

/// Encodes a non-OK status as a kError payload: code + message + a
/// trace-id varint echoing the trace id the failing request carried (0 when
/// it carried none, e.g. when the payload was too malformed to reach the
/// trace field, or for a connection-terminal error).
std::vector<uint8_t> EncodeErrorPayload(const Status& status,
                                        uint64_t trace_id);

/// Decodes a kError payload back into the Status it carried, writing the
/// echoed trace id to `*trace_id` when non-null (left 0 when the payload is
/// malformed). A malformed payload decodes to a ParseError describing the
/// corruption instead. An unknown code (from a future peer) maps to
/// kInternal with the message preserved. Always non-OK.
Status DecodeErrorPayload(std::span<const uint8_t> payload,
                          uint64_t* trace_id = nullptr);

/// One slow-query log record (docs/OBSERVABILITY.md): a request whose
/// queue-wait + execute time exceeded the server's slow-query threshold.
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
};

}  // namespace skl

#endif  // SKL_NET_PROTOCOL_H_
