// STNI wire-protocol codec (net/frame.h): encode/decode round trips for
// every frame type, strict-decode rejection of every corruption class
// the chaos layer can produce (bad magic, flipped bytes vs the CRC,
// truncation, trailing bytes, oversize, future versions), and the
// FrameReader's contract over arbitrarily torn/coalesced TCP delivery —
// including its one-bad-frame-kills-the-stream poisoning.

#include "stcomp/net/frame.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stcomp/store/serialization.h"
#include "test_util.h"

namespace stcomp::net {
namespace {

std::vector<NetFix> SampleFixes() {
  return {
      {"bus-1", TimedPoint(0.0, 1.5, -2.5)},
      {"bus-1", TimedPoint(10.0, 3.25, -4.75)},
      {"tram-7", TimedPoint(5.5, -0.125, 1e9)},
  };
}

std::vector<NetFrame> OneOfEach() {
  std::vector<NetFrame> frames;
  frames.push_back(NetFrame::Hello("device-42"));
  frames.push_back(NetFrame::HelloAck(7, 19));
  frames.push_back(NetFrame::Batch(20, SampleFixes()));
  frames.push_back(NetFrame::BatchAck(20));
  frames.push_back(NetFrame::Error(NetErrorCode::kProtocol, "batch before hello"));
  frames.push_back(NetFrame::GoAway(GoAwayReason::kDraining, "bye for now"));
  frames.push_back(NetFrame::Bye());
  return frames;
}

void ExpectFramesEqual(const NetFrame& a, const NetFrame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.last_acked, b.last_acked);
  EXPECT_EQ(a.batch_seq, b.batch_seq);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
  ASSERT_EQ(a.fixes.size(), b.fixes.size());
  for (size_t i = 0; i < a.fixes.size(); ++i) {
    EXPECT_EQ(a.fixes[i].object_id, b.fixes[i].object_id);
    // Bitwise equality: coordinates travel as raw doubles so server-side
    // compression is bit-identical to in-process ingest.
    EXPECT_EQ(a.fixes[i].fix.t, b.fixes[i].fix.t);
    EXPECT_EQ(a.fixes[i].fix.position.x, b.fixes[i].fix.position.x);
    EXPECT_EQ(a.fixes[i].fix.position.y, b.fixes[i].fix.position.y);
  }
}

TEST(NetFrameCodec, RoundTripsEveryType) {
  for (const NetFrame& frame : OneOfEach()) {
    const std::string encoded = EncodeNetFrame(frame);
    std::string_view input = encoded;
    Result<NetFrame> decoded = DecodeNetFrame(&input);
    ASSERT_TRUE(decoded.ok())
        << NetMessageTypeName(frame.type) << ": " << decoded.status();
    EXPECT_TRUE(input.empty()) << "decode must consume the whole frame";
    ExpectFramesEqual(frame, *decoded);
  }
}

TEST(NetFrameCodec, EncodingStartsWithMagicAndVersion) {
  const std::string encoded = EncodeNetFrame(NetFrame::Bye());
  ASSERT_GE(encoded.size(), 6u);
  EXPECT_EQ(encoded.substr(0, 4), "STNI");
  EXPECT_EQ(static_cast<uint8_t>(encoded[4]), kNetProtocolVersion);
}

TEST(NetFrameCodec, RejectsEverySingleByteCorruption) {
  // The CRC spans everything before it, so any one-byte change anywhere
  // in the frame must be rejected. (A flip inside the CRC field itself
  // also mismatches, trivially.)
  const std::string good = EncodeNetFrame(NetFrame::Batch(3, SampleFixes()));
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    std::string_view input = bad;
    Result<NetFrame> decoded = DecodeNetFrame(&input);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i << " slipped through";
  }
}

TEST(NetFrameCodec, RejectsEveryTruncation) {
  const std::string good = EncodeNetFrame(NetFrame::Hello("device-9"));
  for (size_t keep = 0; keep < good.size(); ++keep) {
    std::string bad = good.substr(0, keep);
    std::string_view input = bad;
    EXPECT_FALSE(DecodeNetFrame(&input).ok()) << "kept " << keep << " bytes";
  }
}

TEST(NetFrameCodec, FutureVersionIsUnimplementedNotDataLoss) {
  // Version is checked only after the CRC validates, so kUnimplemented
  // means "a real future peer", distinguishable from in-flight mangling —
  // the server turns it into kBadVersion instead of kMalformedFrame.
  // Build a CRC-correct future-version frame by hand (a naive version
  // bump of an encoded frame breaks the CRC and tests the wrong path).
  std::string future(kNetMagic, sizeof(kNetMagic));
  future.push_back(static_cast<char>(kNetProtocolVersion + 1));
  future.push_back(static_cast<char>(NetMessageType::kBye));
  future.push_back(0);  // payload length 0, varint
  const uint32_t crc = Crc32(future);
  for (int shift = 0; shift < 32; shift += 8) {
    future.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  std::string_view probe = future;
  EXPECT_EQ(DecodeNetFrame(&probe).status().code(),
            StatusCode::kUnimplemented);

  // And a frame that is both future-versioned AND mangled reports
  // kDataLoss — corruption wins because the version byte is untrusted.
  std::string mangled = future;
  mangled[6] = static_cast<char>(mangled[6] ^ 0x10);
  probe = mangled;
  EXPECT_EQ(DecodeNetFrame(&probe).status().code(), StatusCode::kDataLoss);
}

TEST(NetFrameScan, NeedsMoreOnEveryPrefix) {
  const std::string good = EncodeNetFrame(NetFrame::HelloAck(1, 2));
  for (size_t keep = 0; keep < good.size(); ++keep) {
    size_t frame_size = 0;
    Status error;
    EXPECT_EQ(ScanNetFrame(std::string_view(good).substr(0, keep),
                           kNetMaxPayloadBytes, &frame_size, &error),
              FrameScan::kNeedMore)
        << "prefix of " << keep << " bytes";
  }
  size_t frame_size = 0;
  Status error;
  ASSERT_EQ(ScanNetFrame(good, kNetMaxPayloadBytes, &frame_size, &error),
            FrameScan::kFrame);
  EXPECT_EQ(frame_size, good.size());
}

TEST(NetFrameScan, BadMagicIsImmediateError) {
  size_t frame_size = 0;
  Status error;
  EXPECT_EQ(ScanNetFrame("GET / HTTP/1.0\r\n", kNetMaxPayloadBytes,
                         &frame_size, &error),
            FrameScan::kError);
  EXPECT_FALSE(error.ok());
  // Even a single wrong leading byte is enough — no need to buffer more.
  error = Status::Ok();
  EXPECT_EQ(ScanNetFrame("X", kNetMaxPayloadBytes, &frame_size, &error),
            FrameScan::kError);
  EXPECT_FALSE(error.ok());
}

TEST(NetFrameScan, OversizedDeclaredPayloadRejectedBeforeBuffering) {
  // Hand-build a header declaring a 512 MiB payload: magic, version,
  // type, varint length. The scan must reject it from the header alone.
  std::string hostile(kNetMagic, sizeof(kNetMagic));
  hostile.push_back(static_cast<char>(kNetProtocolVersion));
  hostile.push_back(static_cast<char>(NetMessageType::kBatch));
  uint64_t huge = 512ull << 20;
  while (huge >= 0x80) {
    hostile.push_back(static_cast<char>(huge | 0x80));
    huge >>= 7;
  }
  hostile.push_back(static_cast<char>(huge));
  size_t frame_size = 0;
  Status error;
  EXPECT_EQ(ScanNetFrame(hostile, kNetMaxPayloadBytes, &frame_size, &error),
            FrameScan::kError);
  // Typed: kOutOfRange is what the server maps to kOversizedFrame (the
  // message is for humans, never for classification).
  EXPECT_EQ(error.code(), StatusCode::kOutOfRange) << error.ToString();
}

TEST(NetFrameCodec, HugeDeclaredPayloadIsTruncationNotOverflow) {
  // A 10-byte varint declaring a ~2^64 payload once wrapped the
  // `payload_size + 4` bounds check and walked DecodeNetFrame off the
  // end of the buffer. DecodeNetFrame is public (the fuzz target and
  // any direct caller hit it without ScanNetFrame's payload cap), so it
  // must reject this from its own arithmetic.
  for (const uint64_t declared :
       {~0ull, ~0ull - 3, ~0ull - 4, 1ull << 63}) {
    std::string hostile(kNetMagic, sizeof(kNetMagic));
    hostile.push_back(static_cast<char>(kNetProtocolVersion));
    hostile.push_back(static_cast<char>(NetMessageType::kBatch));
    uint64_t huge = declared;
    while (huge >= 0x80) {
      hostile.push_back(static_cast<char>(huge | 0x80));
      huge >>= 7;
    }
    hostile.push_back(static_cast<char>(huge));
    hostile += "junk";  // enough trailing bytes that a wrapped sum "fits"
    std::string_view input = hostile;
    Result<NetFrame> decoded = DecodeNetFrame(&input);
    ASSERT_FALSE(decoded.ok()) << "declared " << declared;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

// `body` with its CRC re-stamped, so the varint under test is the frame's
// only fault.
std::string WithCrc(std::string body) {
  const uint32_t crc = Crc32(body);
  for (int shift = 0; shift < 32; shift += 8) {
    body.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  return body;
}

std::string Header(NetMessageType type) {
  std::string header(kNetMagic, sizeof(kNetMagic));
  header.push_back(static_cast<char>(kNetProtocolVersion));
  header.push_back(static_cast<char>(type));
  return header;
}

TEST(NetFrameCodec, NonCanonicalVarintsAreDataLoss) {
  // Bye's zero payload length padded to `80 00`.
  const std::string padded_length =
      WithCrc(Header(NetMessageType::kBye) + std::string("\x80\x00", 2));
  // A length whose 10th byte carries bits above 63.
  std::string high_bits = Header(NetMessageType::kBye);
  high_bits.append(9, '\xff');
  high_bits.push_back('\x7f');
  high_bits = WithCrc(high_bits + "junk");
  for (const std::string& frame : {padded_length, high_bits}) {
    size_t frame_size = 0;
    Status error;
    EXPECT_EQ(ScanNetFrame(frame, kNetMaxPayloadBytes, &frame_size, &error),
              FrameScan::kError);
    EXPECT_EQ(error.code(), StatusCode::kDataLoss) << error.ToString();
    std::string_view input = frame;
    EXPECT_EQ(DecodeNetFrame(&input).status().code(), StatusCode::kDataLoss);
  }
  // HelloAck(7, 19) with session id 7 padded to `87 00` inside the
  // payload: the scan frames it, the decoder refuses it.
  const std::string padded_field =
      WithCrc(Header(NetMessageType::kHelloAck) + '\x03' +
              std::string("\x87\x00\x13", 3));
  size_t frame_size = 0;
  Status error;
  EXPECT_EQ(ScanNetFrame(padded_field, kNetMaxPayloadBytes, &frame_size,
                         &error),
            FrameScan::kFrame);
  std::string_view input = padded_field;
  EXPECT_EQ(DecodeNetFrame(&input).status().code(), StatusCode::kDataLoss);
  // The canonical spellings of both frames decode.
  const std::string canonical_bye =
      WithCrc(Header(NetMessageType::kBye) + '\x00');
  EXPECT_EQ(canonical_bye, EncodeNetFrame(NetFrame::Bye()));
  const std::string canonical_ack =
      WithCrc(Header(NetMessageType::kHelloAck) + '\x02' +
              std::string("\x07\x13", 2));
  EXPECT_EQ(canonical_ack, EncodeNetFrame(NetFrame::HelloAck(7, 19)));
}

TEST(NetFrameReader, ReassemblesTornDelivery) {
  // Feed a multi-frame stream one byte at a time — the worst TCP can do —
  // and expect exactly the original frame sequence.
  const std::vector<NetFrame> frames = OneOfEach();
  std::string stream;
  for (const NetFrame& frame : frames) stream += EncodeNetFrame(frame);

  FrameReader reader;
  std::vector<NetFrame> got;
  for (char byte : stream) {
    reader.Append(std::string_view(&byte, 1));
    while (true) {
      NetFrame frame;
      Status error;
      FrameScan scan = reader.Next(&frame, &error);
      if (scan == FrameScan::kNeedMore) break;
      ASSERT_EQ(scan, FrameScan::kFrame) << error.ToString();
      got.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(got.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    ExpectFramesEqual(frames[i], got[i]);
  }
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(NetFrameReader, HandlesCoalescedDelivery) {
  // The whole stream in one Append — the other extreme.
  const std::vector<NetFrame> frames = OneOfEach();
  std::string stream;
  for (const NetFrame& frame : frames) stream += EncodeNetFrame(frame);

  FrameReader reader;
  reader.Append(stream);
  for (const NetFrame& want : frames) {
    NetFrame frame;
    Status error;
    ASSERT_EQ(reader.Next(&frame, &error), FrameScan::kFrame)
        << error.ToString();
    ExpectFramesEqual(want, frame);
  }
  NetFrame frame;
  Status error;
  EXPECT_EQ(reader.Next(&frame, &error), FrameScan::kNeedMore);
}

TEST(NetFrameReader, PoisonsPermanentlyAfterCorruptFrame) {
  FrameReader reader;
  std::string bad = EncodeNetFrame(NetFrame::BatchAck(5));
  // Corrupt the trailing CRC — unambiguous corruption. (Corrupting the
  // length varint instead would just look like a frame still in flight:
  // the scan cannot distinguish that from slow delivery; the idle
  // deadline is what bounds it in production.)
  bad.back() = static_cast<char>(bad.back() ^ 0x40);
  reader.Append(bad);

  NetFrame frame;
  Status error;
  ASSERT_EQ(reader.Next(&frame, &error), FrameScan::kError);
  const std::string first = error.ToString();

  // A perfectly good frame after the poison must NOT revive the reader:
  // there is no mid-stream resync, the connection is done.
  reader.Append(EncodeNetFrame(NetFrame::Bye()));
  Status again;
  EXPECT_EQ(reader.Next(&frame, &again), FrameScan::kError);
  EXPECT_EQ(again.ToString(), first);
}

TEST(NetFrameCodec, EmptyBatchRoundTrips) {
  const std::string encoded = EncodeNetFrame(NetFrame::Batch(1, {}));
  std::string_view input = encoded;
  Result<NetFrame> decoded = DecodeNetFrame(&input);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->batch_seq, 1u);
  EXPECT_TRUE(decoded->fixes.empty());
}

TEST(NetFrameCodec, RejectsEmptyObjectIdInBatch) {
  std::vector<NetFix> fixes = {{"", TimedPoint(0.0, 0.0, 0.0)}};
  const std::string encoded = EncodeNetFrame(NetFrame::Batch(1, fixes));
  std::string_view input = encoded;
  EXPECT_FALSE(DecodeNetFrame(&input).ok());
}

}  // namespace
}  // namespace stcomp::net
