#include "src/net/protocol.h"

#include "src/common/bitset.h"
#include "src/common/crc32.h"

namespace skl {

namespace {

/// Offsets of the patched header fields and of the type byte in a frame.
constexpr size_t kBodyLenOffset = 2;
constexpr size_t kBodyCrcOffset = 6;
constexpr size_t kTypeOffset = kFrameHeaderBytes + 1;

void StoreBigEndian32(uint32_t value, uint8_t* out) {
  out[0] = static_cast<uint8_t>(value >> 24);
  out[1] = static_cast<uint8_t>(value >> 16);
  out[2] = static_cast<uint8_t>(value >> 8);
  out[3] = static_cast<uint8_t>(value);
}

uint32_t LoadBigEndian32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) << 24 |
         static_cast<uint32_t>(in[1]) << 16 |
         static_cast<uint32_t>(in[2]) << 8 | static_cast<uint32_t>(in[3]);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  const OpcodeInfo* row = FindOpcode(static_cast<uint8_t>(type));
  return row != nullptr ? row->name : "Unknown";
}

FrameWriter::FrameWriter(std::vector<uint8_t>* out, MsgType type,
                         uint64_t request_id, uint8_t version)
    : out_(out), start_(out->size()), payload_(out) {
  const uint8_t head[kFrameHeaderBytes + 2] = {
      static_cast<uint8_t>(kFrameMagic >> 8),
      static_cast<uint8_t>(kFrameMagic & 0xff),
      0, 0, 0, 0,  // body_len, filled in by Finish
      0, 0, 0, 0,  // body_crc, filled in by Finish
      version, static_cast<uint8_t>(type)};
  out->insert(out->end(), head, head + sizeof(head));
  payload_.U64(request_id);
  payload_start_ = out->size();
}

void FrameWriter::SetType(MsgType type) {
  (*out_)[start_ + kTypeOffset] = static_cast<uint8_t>(type);
}

void FrameWriter::Finish() {
  uint8_t* frame = out_->data() + start_;
  const size_t body_len = out_->size() - start_ - kFrameHeaderBytes;
  StoreBigEndian32(static_cast<uint32_t>(body_len), frame + kBodyLenOffset);
  StoreBigEndian32(Crc32({frame + kFrameHeaderBytes, body_len}),
                   frame + kBodyCrcOffset);
}

void EncodeFrame(const FrameView& frame, std::vector<uint8_t>* out) {
  FrameWriter writer(out, frame.type, frame.request_id, frame.version);
  out->insert(out->end(), frame.payload.begin(), frame.payload.end());
  writer.Finish();
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
  SKL_ASSIGN_OR_RETURN(std::optional<FrameView> view, NextView());
  if (!view.has_value()) return std::optional<Frame>();
  return std::optional<Frame>(view->ToFrame());
}

Result<std::optional<FrameView>> FrameDecoder::NextView() {
  if (poisoned_.has_value()) return *poisoned_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<FrameView>();

  const uint8_t* base = buffer_.data() + consumed_;
  const uint32_t magic = static_cast<uint32_t>(base[0]) << 8 | base[1];
  const uint64_t body_len = LoadBigEndian32(base + kBodyLenOffset);
  const uint32_t body_crc = LoadBigEndian32(base + kBodyCrcOffset);
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
    return std::optional<FrameView>();  // incomplete: wait for more bytes
  }

  const std::span<const uint8_t> body(base + kFrameHeaderBytes,
                                      static_cast<size_t>(body_len));
  if (Crc32(body) != body_crc) {
    poisoned_ = Status::ParseError(
        "frame checksum mismatch: body of " + std::to_string(body_len) +
        " bytes does not match its CRC-32");
    return *poisoned_;
  }

  FrameView frame;
  frame.version = body[0];
  frame.type = static_cast<MsgType>(body[1]);
  size_t pos = 2;
  if (DecodeVarint(body, &pos, &frame.request_id) != VarintError::kNone) {
    // CRC was fine, so this is a malformed body encoding, not line noise;
    // still unrecoverable as a message, and ids cannot be echoed.
    poisoned_ = Status::ParseError("frame body truncated inside request id");
    return *poisoned_;
  }
  frame.payload = body.subspan(pos);
  consumed_ += kFrameHeaderBytes + static_cast<size_t>(body_len);
  return std::optional<FrameView>(frame);
}

Result<uint64_t> PayloadReader::U64() {
  uint64_t value = 0;
  switch (DecodeVarint(payload_, &pos_, &value)) {
    case VarintError::kNone:
      return value;
    case VarintError::kTruncated:
      return Status::ParseError("payload truncated inside a varint");
    case VarintError::kTooLong:
      break;
  }
  return Status::ParseError("varint too long");
}

Result<bool> PayloadReader::Boolean() {
  if (pos_ >= payload_.size()) {
    return Status::ParseError("payload truncated before a boolean");
  }
  const uint8_t value = payload_[pos_++];
  if (value > 1) {
    return Status::ParseError("boolean field holds " + std::to_string(value));
  }
  return value == 1;
}

Result<std::span<const uint8_t>> PayloadReader::Bytes() {
  SKL_ASSIGN_OR_RETURN(uint64_t length, U64());
  if (length > payload_.size() - pos_) {
    return Status::ParseError("blob of " + std::to_string(length) +
                              " bytes overruns the payload");
  }
  const std::span<const uint8_t> out =
      payload_.subspan(pos_, static_cast<size_t>(length));
  pos_ += out.size();
  return out;
}

Result<std::string> PayloadReader::Str() {
  SKL_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes, Bytes());
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

Result<std::vector<bool>> PayloadReader::Booleans(uint64_t count) {
  const std::span<const uint8_t> bytes =
      payload_.subspan(pos_, std::min<uint64_t>(count, remaining()));
  uint8_t any = 0;
  for (uint8_t byte : bytes) any |= byte;
  if (any > 1) {
    const auto bad = std::find_if(bytes.begin(), bytes.end(),
                                  [](uint8_t byte) { return byte > 1; });
    return Status::ParseError("boolean field holds " + std::to_string(*bad));
  }
  if (bytes.size() < count) {
    return Status::ParseError("payload truncated before a boolean");
  }
  pos_ += bytes.size();
  std::vector<bool> values(bytes.size());
  FillTrueBits(values, [&](size_t i) { return bytes[i]; });
  return values;
}

Status PayloadReader::ExpectEnd() {
  if (pos_ != payload_.size()) {
    return Status::ParseError("payload has " +
                              std::to_string(payload_.size() - pos_) +
                              " trailing bytes");
  }
  return Status::OK();
}

void PayloadWriter::Booleans(const std::vector<bool>& values) {
  U64(values.size());
  const size_t start = out_->size();
  out_->resize(start + values.size());
  uint8_t* bytes = out_->data() + start;
  for (size_t i = 0; i < values.size(); ++i) bytes[i] = values[i] ? 1 : 0;
}

void EncodeErrorPayload(const Status& status, uint64_t trace_id,
                        PayloadWriter& out) {
  out.U64(static_cast<uint64_t>(status.code()));
  out.Str(status.message());
  out.U64(trace_id);
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status,
                                        uint64_t trace_id) {
  PayloadWriter writer;
  EncodeErrorPayload(status, trace_id, writer);
  return std::move(writer).Finish();
}

Status DecodeErrorPayload(std::span<const uint8_t> payload,
                          uint64_t* trace_id) {
  if (trace_id != nullptr) *trace_id = 0;
  uint64_t code = 0;
  std::string message;
  uint64_t trace = 0;
  auto fields = std::tie(code, message, trace);
  const Status parsed =
      DecodeMessage(payload, StatusCode::kParseError, fields);
  if (!parsed.ok()) {
    return Status::ParseError("malformed error payload: " + parsed.message());
  }
  if (trace_id != nullptr) *trace_id = trace;
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
