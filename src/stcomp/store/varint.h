// The field primitives every stcomp byte format is built from: LEB128
// varints, zigzag, fixed-width little-endian words and doubles,
// length-prefixed strings and raw (t, x, y) points.

#ifndef STCOMP_STORE_VARINT_H_
#define STCOMP_STORE_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"

namespace stcomp {

// Appends `value` to `out` as base-128 varint (1-10 bytes).
void PutVarint(uint64_t value, std::string* out);

// Reads a varint from the front of `*input`, advancing it. Only the
// canonical form PutVarint writes is accepted: kDataLoss on truncation,
// on more than 10 bytes, and on IsCanonicalVarintEnd failures.
Result<uint64_t> GetVarint(std::string_view* input);

// Whether `byte`, the final byte of a varint at 0-based position `index`,
// ends the shortest encoding of its value: a zero after a continuation
// byte pads the value with zero bits, and a 10th byte holds only bit 63.
constexpr bool IsCanonicalVarintEnd(uint8_t byte, size_t index) {
  return (byte != 0 || index == 0) && (index < 9 || byte <= 0x01);
}

// Zigzag mapping so small-magnitude signed deltas stay short.
constexpr uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
constexpr int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

void PutSignedVarint(int64_t value, std::string* out);
Result<int64_t> GetSignedVarint(std::string_view* input);

// Fixed-width little-endian words and doubles (the raw codec, CRCs).
// Readers take the cursor by pointer and advance it; a short input is
// kDataLoss.
void PutFixed32(uint32_t value, std::string* out);
Result<uint32_t> GetFixed32(std::string_view* input);
void PutDouble(double value, std::string* out);
Result<double> GetDouble(std::string_view* input);

// Length-prefixed bytes: the length as a varint, then the bytes. The
// view GetString returns aliases `*input`.
void PutString(std::string_view value, std::string* out);
Result<std::string_view> GetString(std::string_view* input);

// One point as three raw doubles, t, x, y, so it reads back bit for bit.
void PutTimedPoint(const TimedPoint& point, std::string* out);
Result<TimedPoint> GetTimedPoint(std::string_view* input);

}  // namespace stcomp

#endif  // STCOMP_STORE_VARINT_H_
