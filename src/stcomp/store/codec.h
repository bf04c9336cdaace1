// Trajectory point codecs. Two encodings:
//
//  kRaw   — 24 bytes/point (3 little-endian doubles); bit-exact.
//  kDelta — timestamps quantised to milliseconds and coordinates to
//           centimetres, then delta + zigzag + varint coded. Real GPS
//           streams compress to ~4-7 bytes/point because consecutive
//           deltas are small and regular. Quantisation error is bounded by
//           0.5 ms / 0.5 cm — far below sensor noise.
//
// These codecs quantify the storage story of the paper's introduction
// (raw <t, x, y> streams at 10 s sampling) and give the store its on-disk
// format; see bench_storage.

#ifndef STCOMP_STORE_CODEC_H_
#define STCOMP_STORE_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"

namespace stcomp {

enum class Codec : uint8_t {
  kRaw = 0,
  kDelta = 1,
};

inline constexpr double kTimeQuantumS = 1e-3;   // 1 ms
inline constexpr double kCoordQuantumM = 1e-2;  // 1 cm

// Appends the encoded points to `out` (the caller frames point count and
// codec id; see serialization.h). Fails with kOutOfRange if a quantised
// value does not fit an int64 (never for terrestrial data).
Status EncodePoints(const Trajectory& trajectory, Codec codec,
                    std::string* out);

// Appends the encoding of `count` points starting at `points` with a
// fresh delta chain (the first point is coded absolute). EncodePoints is
// the whole-trajectory special case; the blocked store format encodes
// each block through this so blocks decode independently.
Status EncodePointSpan(const TimedPoint* points, size_t count, Codec codec,
                       std::string* out);

// Appends the encoding of `point` as the successor of `*previous` in an
// existing chain (`previous == nullptr` restarts the chain, i.e. codes
// the point absolute). Byte-identical to the corresponding slice of
// EncodePointSpan over the same sequence — the store's O(1) append path
// relies on that. Appends nothing when it fails.
Status EncodeNextPoint(const TimedPoint* previous, const TimedPoint& point,
                       Codec codec, std::string* out);

// The value the decoder will reconstruct for `point`, bit for bit:
// identity for kRaw, the quantisation round-trip (1 ms / 1 cm grid) for
// kDelta. Block summaries are computed over storage values so decoded
// points can never escape their block's declared bounds, and the store
// keeps every object's storage values resident for queries.
TimedPoint StorageValue(const TimedPoint& point, Codec codec);

// Decodes exactly `count` points from the front of `*input`, advancing it.
Result<std::vector<TimedPoint>> DecodePoints(std::string_view* input,
                                             Codec codec, size_t count);

// DecodePoints appending to `*out`, so a caller can reuse one buffer's
// capacity across calls. On error `*out` may hold a partial decode.
Status DecodePointsInto(std::string_view* input, Codec codec, size_t count,
                        std::vector<TimedPoint>* out);

// Encoded payload size in bytes (convenience for accounting).
Result<size_t> EncodedSize(const Trajectory& trajectory, Codec codec);

}  // namespace stcomp

#endif  // STCOMP_STORE_CODEC_H_
