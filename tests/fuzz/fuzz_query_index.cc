// Fuzzes the spatio-temporal index reader: an arbitrary byte image fed to
// SpatioTemporalIndex::LoadFromBuffer (the index.stidx format) must yield
// a clean Status — kDataLoss on corruption — and, on success, an index
// that re-serializes to a loadable image. The single-bit-flip sweep over the seed corpus (replay_main's
// mutant pass) is the ISSUE 9 corruption gate.

#include <cstdlib>
#include <string_view>

#include "fuzz/fuzz_registry.h"
#include "stcomp/store/st_index.h"

namespace {

int FuzzQueryIndex(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) {
    return 0;
  }
  const std::string_view image(reinterpret_cast<const char*>(data), size);
  const stcomp::Result<stcomp::SpatioTemporalIndex> index =
      stcomp::SpatioTemporalIndex::LoadFromBuffer(image);
  if (!index.ok()) {
    if (index.status().code() != stcomp::StatusCode::kDataLoss) {
      std::abort();  // The only allowed rejection is kDataLoss.
    }
    return 0;
  }
  // A loaded index is bound to no store, so no query can read through
  // it; what is left to hold is the round trip.
  const std::string reserialized = index->SerializeToString();
  const stcomp::Result<stcomp::SpatioTemporalIndex> again =
      stcomp::SpatioTemporalIndex::LoadFromBuffer(reserialized);
  if (!again.ok()) {
    std::abort();  // Accepted images must re-serialize loadably.
  }
  return 0;
}

}  // namespace

STCOMP_FUZZ_TARGET(query_index, FuzzQueryIndex)
