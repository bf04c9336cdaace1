// Fuzzes the varint/zigzag/double primitives: every value decoded from
// arbitrary bytes must have been read from its canonical encoding, i.e.
// the bytes consumed are exactly what the matching Put writes for it.

#include <cstdlib>
#include <string>
#include <string_view>

#include "fuzz/fuzz_registry.h"
#include "stcomp/store/varint.h"

namespace {

int FuzzVarint(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) {
    return 0;
  }
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  std::string_view cursor = input;
  while (true) {
    const std::string_view before = cursor;
    const stcomp::Result<uint64_t> value = stcomp::GetVarint(&cursor);
    if (!value.ok()) {
      break;
    }
    std::string reencoded;
    stcomp::PutVarint(*value, &reencoded);
    if (before.substr(0, before.size() - cursor.size()) != reencoded) {
      std::abort();  // A non-canonical read: a real bug, stop the fuzzer.
    }
  }
  cursor = input;
  while (true) {
    const std::string_view before = cursor;
    const stcomp::Result<int64_t> value = stcomp::GetSignedVarint(&cursor);
    if (!value.ok()) {
      break;
    }
    if (stcomp::ZigZagDecode(stcomp::ZigZagEncode(*value)) != *value) {
      std::abort();
    }
    std::string reencoded;
    stcomp::PutSignedVarint(*value, &reencoded);
    if (before.substr(0, before.size() - cursor.size()) != reencoded) {
      std::abort();
    }
  }
  cursor = input;
  while (stcomp::GetDouble(&cursor).ok()) {
  }
  return 0;
}

}  // namespace

STCOMP_FUZZ_TARGET(varint, FuzzVarint)
