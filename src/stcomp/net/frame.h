// The stcomp network ingest wire protocol (DESIGN.md §18): length-
// prefixed, CRC-framed binary messages carrying position fixes from
// device links into the fleet engine. Framed like the WAL's "STWL"
// records, from the same primitives (store/varint.h fields, the
// serialization.h CRC-32 trailer): magic, version, type, length-prefixed
// payload, CRC32 over everything before the CRC. The decoder is strict,
// fuzzed and salvage-free: a connection with one bad frame is closed,
// never resynced.
//
// Frame layout (all little-endian):
//
//   magic "STNI" | version u8 | type u8 | payload len varint | payload
//   | crc32 (4 bytes, over everything before it)
//
// Payloads by type (strings are length-prefixed: len varint + bytes):
//
//   kHello     client id string | flags varint (reserved 0)
//   kHelloAck  session id varint | last acked batch seq varint
//   kBatch     batch seq varint | fix count varint | fixes, each:
//              object id string | t, x, y raw doubles
//   kBatchAck  batch seq varint
//   kError     error code u8 | message string
//   kGoAway    reason u8 | message string
//   kBye       (empty)
//
// Handshake and resume: a client opens with kHello carrying a stable
// client id; the server answers kHelloAck echoing the highest batch seq
// it has ever acked for that id (0 if none). Batches are numbered 1.. by
// the client and applied exactly once, in order: the server applies seq
// == last_acked + 1, acks duplicates (seq <= last_acked) without
// applying, and treats gaps as protocol errors. After a disconnect the
// client reconnects, drops everything the kHelloAck says was acked and
// resends the rest — acked fixes are never lost and never duplicated.
// A kHello also fences any still-open session speaking for the same
// client id (kGoAway(kSuperseded) + close): one client id, one live
// connection, one seq space.
//
// Fix coordinates travel as raw doubles (not the quantising delta codec)
// for the same reason the WAL's do: the server-side compressed output
// must be bit-identical to in-process ingest of the same fixes.

#ifndef STCOMP_NET_FRAME_H_
#define STCOMP_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"

namespace stcomp::net {

inline constexpr char kNetMagic[4] = {'S', 'T', 'N', 'I'};
inline constexpr uint8_t kNetProtocolVersion = 1;

// Default cap on one frame's payload. A batch of ~64 fixes is ~2 KB;
// 1 MiB leaves two orders of magnitude of headroom while bounding what a
// hostile peer can make the server buffer for a single frame.
inline constexpr size_t kNetMaxPayloadBytes = 1u << 20;

enum class NetMessageType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kBatch = 3,
  kBatchAck = 4,
  kError = 5,
  kGoAway = 6,
  kBye = 7,
};

// Typed reason on a kError frame (malformed input ⇒ typed error frame +
// close, never UB — the fuzz target's contract).
enum class NetErrorCode : uint8_t {
  kMalformedFrame = 1,  // bad magic / CRC / truncation / trailing bytes
  kBadVersion = 2,      // frame version != kNetProtocolVersion
  kProtocol = 3,        // valid frame, wrong state (e.g. batch before hello)
  kOversizedFrame = 4,  // declared payload exceeds the server's cap
  kInternal = 5,        // server-side failure applying a valid frame
};

// Typed reason on a kGoAway frame (load shedding and lifecycle).
enum class GoAwayReason : uint8_t {
  kOverloaded = 1,   // session/buffer budgets exhausted; shed-newest
  kDraining = 2,     // server Stop(): finish up, reconnect elsewhere/later
  kIdleTimeout = 3,  // no bytes within the idle deadline
  kSuperseded = 4,   // a newer connection hello'd with the same client id
};

std::string_view NetMessageTypeName(NetMessageType type);
std::string_view NetErrorCodeName(NetErrorCode code);
std::string_view GoAwayReasonName(GoAwayReason reason);

// One fix on the wire: which object, and where/when.
struct NetFix {
  std::string object_id;
  TimedPoint fix;
};

// A decoded frame. Only the fields of the active `type` are meaningful.
struct NetFrame {
  NetMessageType type = NetMessageType::kBye;
  // kHello.
  std::string client_id;
  uint64_t flags = 0;
  // kHelloAck.
  uint64_t session_id = 0;
  uint64_t last_acked = 0;
  // kBatch / kBatchAck.
  uint64_t batch_seq = 0;
  std::vector<NetFix> fixes;  // kBatch only
  // kError / kGoAway.
  uint8_t code = 0;
  std::string message;

  static NetFrame Hello(std::string client_id);
  static NetFrame HelloAck(uint64_t session_id, uint64_t last_acked);
  static NetFrame Batch(uint64_t batch_seq, std::vector<NetFix> fixes);
  static NetFrame BatchAck(uint64_t batch_seq);
  static NetFrame Error(NetErrorCode code, std::string message);
  static NetFrame GoAway(GoAwayReason reason, std::string message);
  static NetFrame Bye();
};

// One serialized frame (magic + version + type + len + payload + crc).
std::string EncodeNetFrame(const NetFrame& frame);

// Strict single-frame decode from the front of `*input`, advancing it.
// kDataLoss on any corruption or truncation, kUnimplemented on a version
// this build does not speak (the CRC is checked first, so a frame that
// reports kUnimplemented really was sent by a future peer, not mangled
// in flight). Never reads past the encoded frame.
Result<NetFrame> DecodeNetFrame(std::string_view* input);

// Incremental framing over a byte stream that TCP may deliver torn or
// coalesced arbitrarily.
enum class FrameScan {
  kNeedMore,  // the buffer holds only a prefix of a frame
  kFrame,     // a complete frame spans the first *frame_size bytes
  kError,     // the buffer can never become a valid frame (close the link)
};

// Examines the front of `buffer`. On kFrame, *frame_size is the byte
// length of the complete leading frame (decode it with DecodeNetFrame).
// On kError, *error explains (bad magic, oversize, overlong varint...).
// `max_payload` bounds the *declared* payload length, so a hostile
// 4 GB length prefix is rejected before any buffering happens; that
// rejection carries kOutOfRange (every other framing error is
// kDataLoss) so callers can report a typed oversized-frame verdict.
FrameScan ScanNetFrame(std::string_view buffer, size_t max_payload,
                       size_t* frame_size, Status* error);

// Accumulates stream bytes and yields complete frames. After any kError
// the reader is poisoned (every later Next returns the same error): one
// bad frame kills the connection, there is no resync mid-stream.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kNetMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }

  // kFrame: *out holds the next decoded frame. kNeedMore: feed more
  // bytes. kError: *error explains; the reader is dead.
  FrameScan Next(NetFrame* out, Status* error);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  size_t max_payload_;
  Status poison_;
};

}  // namespace stcomp::net

#endif  // STCOMP_NET_FRAME_H_
