#include "stcomp/store/varint.h"

#include <cstring>

namespace stcomp {

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

void PutDouble(double value, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

Result<double> GetDouble(std::string_view* input) {
  if (input->size() < 8) {
    return DataLossError("truncated double");
  }
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>((*input)[i]))
            << (8 * i);
  }
  input->remove_prefix(8);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace stcomp
