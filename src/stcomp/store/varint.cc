#include "stcomp/store/varint.h"

#include <bit>

namespace stcomp {

namespace {

template <typename Word>
void PutFixed(Word value, std::string* out) {
  for (size_t i = 0; i < sizeof(Word); ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

template <typename Word>
Result<Word> GetFixed(std::string_view* input) {
  if (input->size() < sizeof(Word)) {
    return DataLossError("truncated fixed-width field");
  }
  Word value = 0;
  for (size_t i = 0; i < sizeof(Word); ++i) {
    value |= static_cast<Word>(static_cast<uint8_t>((*input)[i])) << (8 * i);
  }
  input->remove_prefix(sizeof(Word));
  return value;
}

}  // namespace

void PutVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

Result<uint64_t> GetVarint(std::string_view* input) {
  uint64_t value = 0;
  int shift = 0;
  for (size_t i = 0; i < input->size() && i < 10; ++i) {
    const uint8_t byte = static_cast<uint8_t>((*input)[i]);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (!IsCanonicalVarintEnd(byte, i)) {
        return DataLossError("non-canonical varint");
      }
      input->remove_prefix(i + 1);
      return value;
    }
    shift += 7;
  }
  return DataLossError("truncated or overlong varint");
}

void PutSignedVarint(int64_t value, std::string* out) {
  PutVarint(ZigZagEncode(value), out);
}

Result<int64_t> GetSignedVarint(std::string_view* input) {
  STCOMP_ASSIGN_OR_RETURN(const uint64_t raw, GetVarint(input));
  return ZigZagDecode(raw);
}

void PutFixed32(uint32_t value, std::string* out) { PutFixed(value, out); }

Result<uint32_t> GetFixed32(std::string_view* input) {
  return GetFixed<uint32_t>(input);
}

void PutDouble(double value, std::string* out) {
  PutFixed(std::bit_cast<uint64_t>(value), out);
}

Result<double> GetDouble(std::string_view* input) {
  STCOMP_ASSIGN_OR_RETURN(const uint64_t bits, GetFixed<uint64_t>(input));
  return std::bit_cast<double>(bits);
}

void PutString(std::string_view value, std::string* out) {
  PutVarint(value.size(), out);
  out->append(value);
}

Result<std::string_view> GetString(std::string_view* input) {
  STCOMP_ASSIGN_OR_RETURN(const uint64_t size, GetVarint(input));
  if (input->size() < size) {
    return DataLossError("length-prefixed string truncated");
  }
  const std::string_view value = input->substr(0, size);
  input->remove_prefix(size);
  return value;
}

void PutTimedPoint(const TimedPoint& point, std::string* out) {
  PutDouble(point.t, out);
  PutDouble(point.position.x, out);
  PutDouble(point.position.y, out);
}

Result<TimedPoint> GetTimedPoint(std::string_view* input) {
  TimedPoint point;
  STCOMP_ASSIGN_OR_RETURN(point.t, GetDouble(input));
  STCOMP_ASSIGN_OR_RETURN(point.position.x, GetDouble(input));
  STCOMP_ASSIGN_OR_RETURN(point.position.y, GetDouble(input));
  return point;
}

}  // namespace stcomp
