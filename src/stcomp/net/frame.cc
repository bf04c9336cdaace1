#include "stcomp/net/frame.h"

#include <algorithm>
#include <utility>

#include "stcomp/common/strings.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/varint.h"

namespace stcomp::net {

namespace {

// Smallest possible encoded fix inside a kBatch payload: a 1-byte id
// length, an empty id would be invalid but a 1-byte id is legal, plus
// three raw doubles. Used to bound the declared fix count before any
// vector reserve (the same unbounded-reserve hole the codec decoder had
// before PR 4 closed it).
constexpr uint64_t kMinEncodedFixBytes = 1 + 1 + 3 * 8;

}  // namespace

std::string_view NetMessageTypeName(NetMessageType type) {
  switch (type) {
    case NetMessageType::kHello:
      return "hello";
    case NetMessageType::kHelloAck:
      return "hello_ack";
    case NetMessageType::kBatch:
      return "batch";
    case NetMessageType::kBatchAck:
      return "batch_ack";
    case NetMessageType::kError:
      return "error";
    case NetMessageType::kGoAway:
      return "goaway";
    case NetMessageType::kBye:
      return "bye";
  }
  return "unknown";
}

std::string_view NetErrorCodeName(NetErrorCode code) {
  switch (code) {
    case NetErrorCode::kMalformedFrame:
      return "malformed_frame";
    case NetErrorCode::kBadVersion:
      return "bad_version";
    case NetErrorCode::kProtocol:
      return "protocol";
    case NetErrorCode::kOversizedFrame:
      return "oversized_frame";
    case NetErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string_view GoAwayReasonName(GoAwayReason reason) {
  switch (reason) {
    case GoAwayReason::kOverloaded:
      return "overloaded";
    case GoAwayReason::kDraining:
      return "draining";
    case GoAwayReason::kIdleTimeout:
      return "idle_timeout";
    case GoAwayReason::kSuperseded:
      return "superseded";
  }
  return "unknown";
}

NetFrame NetFrame::Hello(std::string client_id) {
  NetFrame frame;
  frame.type = NetMessageType::kHello;
  frame.client_id = std::move(client_id);
  return frame;
}

NetFrame NetFrame::HelloAck(uint64_t session_id, uint64_t last_acked) {
  NetFrame frame;
  frame.type = NetMessageType::kHelloAck;
  frame.session_id = session_id;
  frame.last_acked = last_acked;
  return frame;
}

NetFrame NetFrame::Batch(uint64_t batch_seq, std::vector<NetFix> fixes) {
  NetFrame frame;
  frame.type = NetMessageType::kBatch;
  frame.batch_seq = batch_seq;
  frame.fixes = std::move(fixes);
  return frame;
}

NetFrame NetFrame::BatchAck(uint64_t batch_seq) {
  NetFrame frame;
  frame.type = NetMessageType::kBatchAck;
  frame.batch_seq = batch_seq;
  return frame;
}

NetFrame NetFrame::Error(NetErrorCode code, std::string message) {
  NetFrame frame;
  frame.type = NetMessageType::kError;
  frame.code = static_cast<uint8_t>(code);
  frame.message = std::move(message);
  return frame;
}

NetFrame NetFrame::GoAway(GoAwayReason reason, std::string message) {
  NetFrame frame;
  frame.type = NetMessageType::kGoAway;
  frame.code = static_cast<uint8_t>(reason);
  frame.message = std::move(message);
  return frame;
}

NetFrame NetFrame::Bye() {
  NetFrame frame;
  frame.type = NetMessageType::kBye;
  return frame;
}

std::string EncodeNetFrame(const NetFrame& frame) {
  std::string payload;
  switch (frame.type) {
    case NetMessageType::kHello:
      PutString(frame.client_id, &payload);
      PutVarint(frame.flags, &payload);
      break;
    case NetMessageType::kHelloAck:
      PutVarint(frame.session_id, &payload);
      PutVarint(frame.last_acked, &payload);
      break;
    case NetMessageType::kBatch:
      PutVarint(frame.batch_seq, &payload);
      PutVarint(frame.fixes.size(), &payload);
      for (const NetFix& fix : frame.fixes) {
        PutString(fix.object_id, &payload);
        PutTimedPoint(fix.fix, &payload);
      }
      break;
    case NetMessageType::kBatchAck:
      PutVarint(frame.batch_seq, &payload);
      break;
    case NetMessageType::kError:
    case NetMessageType::kGoAway:
      payload.push_back(static_cast<char>(frame.code));
      PutString(frame.message, &payload);
      break;
    case NetMessageType::kBye:
      break;
  }
  std::string out(kNetMagic, sizeof(kNetMagic));
  out.push_back(static_cast<char>(kNetProtocolVersion));
  out.push_back(static_cast<char>(frame.type));
  PutString(payload, &out);
  AppendCrc32Trailer(&out);
  return out;
}

Result<NetFrame> DecodeNetFrame(std::string_view* input) {
  const std::string_view frame_start = *input;
  if (input->size() < sizeof(kNetMagic) + 2) {
    return DataLossError("net frame truncated in header");
  }
  if (input->substr(0, 4) != std::string_view(kNetMagic, 4)) {
    return DataLossError("bad magic; not a net frame");
  }
  const uint8_t version = static_cast<uint8_t>((*input)[4]);
  const uint8_t type_byte = static_cast<uint8_t>((*input)[5]);
  input->remove_prefix(6);
  STCOMP_ASSIGN_OR_RETURN(const uint64_t payload_size, GetVarint(input));
  STCOMP_ASSIGN_OR_RETURN(
      std::string_view payload,
      ReadCrc32Trailer(frame_start, input, payload_size, "net frame"));
  // The CRC held, so the version byte is what the peer really sent — a
  // future protocol speaking to this build, not corruption.
  if (version != kNetProtocolVersion) {
    return UnimplementedError(
        StrFormat("unsupported net protocol version %u",
                  static_cast<unsigned>(version)));
  }
  if (type_byte < static_cast<uint8_t>(NetMessageType::kHello) ||
      type_byte > static_cast<uint8_t>(NetMessageType::kBye)) {
    return DataLossError("unknown net frame type");
  }

  NetFrame frame;
  frame.type = static_cast<NetMessageType>(type_byte);
  switch (frame.type) {
    case NetMessageType::kHello: {
      STCOMP_ASSIGN_OR_RETURN(const std::string_view client_id,
                              GetString(&payload));
      frame.client_id = std::string(client_id);
      STCOMP_ASSIGN_OR_RETURN(frame.flags, GetVarint(&payload));
      break;
    }
    case NetMessageType::kHelloAck: {
      STCOMP_ASSIGN_OR_RETURN(frame.session_id, GetVarint(&payload));
      STCOMP_ASSIGN_OR_RETURN(frame.last_acked, GetVarint(&payload));
      break;
    }
    case NetMessageType::kBatch: {
      STCOMP_ASSIGN_OR_RETURN(frame.batch_seq, GetVarint(&payload));
      STCOMP_ASSIGN_OR_RETURN(const uint64_t count, GetVarint(&payload));
      if (count > payload.size() / kMinEncodedFixBytes) {
        return DataLossError("net batch fix count exceeds payload");
      }
      frame.fixes.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        STCOMP_ASSIGN_OR_RETURN(const std::string_view object_id,
                                GetString(&payload));
        if (object_id.empty()) {
          return DataLossError("net batch fix with empty object id");
        }
        STCOMP_ASSIGN_OR_RETURN(const TimedPoint fix, GetTimedPoint(&payload));
        frame.fixes.push_back({std::string(object_id), fix});
      }
      break;
    }
    case NetMessageType::kBatchAck: {
      STCOMP_ASSIGN_OR_RETURN(frame.batch_seq, GetVarint(&payload));
      break;
    }
    case NetMessageType::kError:
    case NetMessageType::kGoAway: {
      if (payload.empty()) {
        return DataLossError("net frame truncated in code");
      }
      frame.code = static_cast<uint8_t>(payload[0]);
      payload.remove_prefix(1);
      STCOMP_ASSIGN_OR_RETURN(const std::string_view message,
                              GetString(&payload));
      frame.message = std::string(message);
      break;
    }
    case NetMessageType::kBye:
      break;
  }
  if (!payload.empty()) {
    return DataLossError("net frame has trailing payload bytes");
  }
  return frame;
}

FrameScan ScanNetFrame(std::string_view buffer, size_t max_payload,
                       size_t* frame_size, Status* error) {
  const std::string_view magic(kNetMagic, sizeof(kNetMagic));
  const size_t check = std::min(buffer.size(), magic.size());
  if (buffer.substr(0, check) != magic.substr(0, check)) {
    *error = DataLossError("bad magic; not a net frame");
    return FrameScan::kError;
  }
  // magic(4) + version(1) + type(1) + at least one length byte.
  if (buffer.size() < 7) {
    return FrameScan::kNeedMore;
  }
  uint64_t payload_size = 0;
  size_t length_bytes = 0;
  size_t cursor = 6;
  while (true) {
    if (length_bytes >= 10) {
      *error = DataLossError("overlong payload length varint");
      return FrameScan::kError;
    }
    if (cursor >= buffer.size()) {
      return FrameScan::kNeedMore;
    }
    const uint8_t byte = static_cast<uint8_t>(buffer[cursor]);
    payload_size |= static_cast<uint64_t>(byte & 0x7f) << (7 * length_bytes);
    ++length_bytes;
    ++cursor;
    if ((byte & 0x80) == 0) {
      if (!IsCanonicalVarintEnd(byte, length_bytes - 1)) {
        *error = DataLossError("non-canonical payload length varint");
        return FrameScan::kError;
      }
      break;
    }
  }
  if (payload_size > max_payload) {
    // kOutOfRange, not kDataLoss: the server maps this code to the typed
    // kOversizedFrame error (no message sniffing).
    *error = OutOfRangeError(
        StrFormat("declared payload of %llu bytes exceeds the %zu-byte cap",
                  static_cast<unsigned long long>(payload_size), max_payload));
    return FrameScan::kError;
  }
  const size_t total = cursor + static_cast<size_t>(payload_size) +
                       kCrc32TrailerBytes;
  if (buffer.size() < total) {
    return FrameScan::kNeedMore;
  }
  *frame_size = total;
  return FrameScan::kFrame;
}

FrameScan FrameReader::Next(NetFrame* out, Status* error) {
  if (!poison_.ok()) {
    *error = poison_;
    return FrameScan::kError;
  }
  size_t frame_size = 0;
  Status scan_error;
  const FrameScan scan =
      ScanNetFrame(buffer_, max_payload_, &frame_size, &scan_error);
  if (scan == FrameScan::kNeedMore) {
    return FrameScan::kNeedMore;
  }
  if (scan == FrameScan::kError) {
    poison_ = std::move(scan_error);
    *error = poison_;
    return FrameScan::kError;
  }
  std::string_view cursor = std::string_view(buffer_).substr(0, frame_size);
  Result<NetFrame> frame = DecodeNetFrame(&cursor);
  if (!frame.ok()) {
    poison_ = frame.status();
    *error = poison_;
    return FrameScan::kError;
  }
  *out = *std::move(frame);
  buffer_.erase(0, frame_size);
  return FrameScan::kFrame;
}

}  // namespace stcomp::net
