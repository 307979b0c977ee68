#include "src/net/protocol.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"

namespace skl {

namespace {

// One row per opcode. Columns: type, name, is_request, mutates, names_run.
constexpr OpcodeInfo kOpcodes[] = {
    {MsgType::kPing,                "Ping",                true,  false, false},
    {MsgType::kReaches,             "Reaches",             true,  false, true},
    {MsgType::kReachesBatch,        "ReachesBatch",        true,  false, true},
    {MsgType::kDependsOn,           "DependsOn",           true,  false, true},
    {MsgType::kDependsOnBatch,      "DependsOnBatch",      true,  false, true},
    {MsgType::kModuleDependsOnData, "ModuleDependsOnData", true,  false, true},
    {MsgType::kDataDependsOnModule, "DataDependsOnModule", true,  false, true},
    {MsgType::kAddRun,              "AddRun",              true,  true,  false},
    {MsgType::kImportRun,           "ImportRun",           true,  true,  false},
    {MsgType::kExportRun,           "ExportRun",           true,  false, true},
    {MsgType::kRemoveRun,           "RemoveRun",           true,  true,  true},
    {MsgType::kListRuns,            "ListRuns",            true,  false, false},
    {MsgType::kRunStats,            "RunStats",            true,  false, true},
    {MsgType::kServiceStats,        "ServiceStats",        true,  false, false},
    {MsgType::kSaveSnapshot,        "SaveSnapshot",        true,  false, false},
    {MsgType::kLoadSnapshot,        "LoadSnapshot",        true,  true,  false},
    {MsgType::kShutdown,            "Shutdown",            true,  false, false},
    {MsgType::kSnapshotFetch,       "SnapshotFetch",       true,  false, false},
    {MsgType::kSubscribe,           "Subscribe",           true,  false, false},
    {MsgType::kMetrics,             "Metrics",             true,  false, false},
    {MsgType::kSlowQueries,         "SlowQueries",         true,  false, false},
    {MsgType::kApplySpecDelta,      "ApplySpecDelta",      true,  true,  false},
    {MsgType::kReply,               "Reply",               false, false, false},
    {MsgType::kError,               "Error",               false, false, false},
    {MsgType::kLogEntries,          "LogEntries",          false, false, false},
    {MsgType::kRetryAt,             "RetryAt",             false, false, false},
};

}  // namespace

std::span<const OpcodeInfo> OpcodeTable() { return kOpcodes; }

const OpcodeInfo* FindOpcode(uint8_t type) {
  for (const OpcodeInfo& row : kOpcodes) {
    if (static_cast<uint8_t>(row.type) == type) return &row;
  }
  return nullptr;
}

const char* MsgTypeName(MsgType type) {
  const OpcodeInfo* row = FindOpcode(static_cast<uint8_t>(type));
  return row != nullptr ? row->name : "Unknown";
}

void EncodeFrame(const Frame& frame, std::vector<uint8_t>* out) {
  // Body first: its length and CRC go into the header.
  BitWriter body_writer;
  body_writer.Write(frame.version, 8);
  body_writer.Write(static_cast<uint8_t>(frame.type), 8);
  body_writer.WriteVarint(frame.request_id);
  body_writer.WriteBytes(frame.payload);
  const std::vector<uint8_t> body = std::move(body_writer).Finish();

  BitWriter header;
  header.Write(kFrameMagic, 16);
  header.Write(static_cast<uint32_t>(body.size()), 32);
  header.Write(Crc32(body), 32);
  const std::vector<uint8_t> header_bytes = std::move(header).Finish();

  out->reserve(out->size() + header_bytes.size() + body.size());
  out->insert(out->end(), header_bytes.begin(), header_bytes.end());
  out->insert(out->end(), body.begin(), body.end());
}

void FrameDecoder::Feed(std::span<const uint8_t> bytes) {
  // Compact the already-decoded prefix before growing; keeps long-lived
  // connections from accumulating every frame ever received.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (poisoned_.has_value()) return *poisoned_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();

  const uint8_t* base = buffer_.data() + consumed_;
  BitReader header(base, kFrameHeaderBytes);
  uint64_t magic = 0, body_len = 0, body_crc = 0;
  // The header reads cannot fail: kFrameHeaderBytes are present.
  (void)header.Read(16, &magic);
  (void)header.Read(32, &body_len);
  (void)header.Read(32, &body_crc);
  if (magic != kFrameMagic) {
    poisoned_ = Status::ParseError(
        "bad frame magic: peer is not speaking the SKL wire protocol or the "
        "stream lost frame synchronization");
    return *poisoned_;
  }
  if (body_len > max_frame_bytes_) {
    poisoned_ = Status::ParseError(
        "frame length " + std::to_string(body_len) +
        " exceeds the maximum of " + std::to_string(max_frame_bytes_) +
        " bytes (corrupted length prefix?)");
    return *poisoned_;
  }
  if (body_len < 2) {  // version + type are mandatory
    poisoned_ = Status::ParseError("frame body too short for version+type");
    return *poisoned_;
  }
  if (available < kFrameHeaderBytes + body_len) {
    return std::optional<Frame>();  // incomplete: wait for more bytes
  }

  const std::span<const uint8_t> body(base + kFrameHeaderBytes,
                                      static_cast<size_t>(body_len));
  if (Crc32(body) != body_crc) {
    poisoned_ = Status::ParseError(
        "frame checksum mismatch: body of " + std::to_string(body_len) +
        " bytes does not match its CRC-32");
    return *poisoned_;
  }

  Frame frame;
  frame.version = body[0];
  frame.type = static_cast<MsgType>(body[1]);
  BitReader body_reader(body.data() + 2, body.size() - 2);
  uint64_t request_id = 0;
  Status id_status = body_reader.ReadVarint(&request_id);
  if (!id_status.ok()) {
    // CRC was fine, so this is a malformed body encoding, not line noise;
    // still unrecoverable as a message, and ids cannot be echoed.
    poisoned_ = Status::ParseError("frame body truncated inside request id");
    return *poisoned_;
  }
  frame.request_id = request_id;
  body_reader.AlignToByte();
  const size_t payload_offset = 2 + body_reader.bit_position() / 8;
  frame.payload.assign(body.begin() + static_cast<ptrdiff_t>(payload_offset),
                       body.end());
  consumed_ += kFrameHeaderBytes + static_cast<size_t>(body_len);
  return std::optional<Frame>(std::move(frame));
}

Result<uint64_t> PayloadReader::U64() {
  uint64_t value = 0;
  SKL_RETURN_NOT_OK(reader_.ReadVarint(&value));
  return value;
}

Result<bool> PayloadReader::Boolean() {
  uint64_t value = 0;
  SKL_RETURN_NOT_OK(reader_.Read(8, &value));
  if (value > 1) {
    return Status::ParseError("boolean field holds " + std::to_string(value));
  }
  return value == 1;
}

Result<std::span<const uint8_t>> PayloadReader::Bytes() {
  uint64_t length = 0;
  SKL_RETURN_NOT_OK(reader_.ReadVarint(&length));
  std::span<const uint8_t> out;
  SKL_RETURN_NOT_OK(reader_.ReadBytes(static_cast<size_t>(length), &out));
  return out;
}

Result<std::string> PayloadReader::Str() {
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, Bytes());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

Status PayloadReader::ExpectEnd() {
  reader_.AlignToByte();
  if (reader_.bit_position() / 8 != size_bytes_) {
    return Status::ParseError(
        "payload has " +
        std::to_string(size_bytes_ - reader_.bit_position() / 8) +
        " trailing bytes");
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status,
                                        uint64_t trace_id) {
  PayloadWriter writer;
  writer.U64(static_cast<uint64_t>(status.code()));
  writer.Str(status.message());
  writer.U64(trace_id);
  return std::move(writer).Finish();
}

Status DecodeErrorPayload(std::span<const uint8_t> payload,
                          uint64_t* trace_id) {
  if (trace_id != nullptr) *trace_id = 0;
  PayloadReader reader(payload);
  Result<uint64_t> code_result = reader.U64();
  if (!code_result.ok()) {
    return Status::ParseError("malformed error payload: " +
                              code_result.status().message());
  }
  const uint64_t code = *code_result;
  Result<std::string> message_result = reader.Str();
  if (!message_result.ok()) {
    return Status::ParseError("malformed error payload: " +
                              message_result.status().message());
  }
  std::string message = std::move(message_result).value();
  Result<uint64_t> trace_result = reader.U64();
  if (!trace_result.ok()) {
    return Status::ParseError("malformed error payload: " +
                              trace_result.status().message());
  }
  Status end = reader.ExpectEnd();
  if (!end.ok()) {
    return Status::ParseError("malformed error payload: " + end.message());
  }
  if (trace_id != nullptr) *trace_id = *trace_result;
  if (code == static_cast<uint64_t>(StatusCode::kOk) ||
      code > static_cast<uint64_t>(StatusCode::kEpochMismatch)) {
    // An error frame must carry an error; map codes from a future peer to
    // Internal but keep the human-readable message.
    return Status(StatusCode::kInternal,
                  "remote error with unknown code " + std::to_string(code) +
                      ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace skl
