// Framed binary serialisation of trajectories.
//
// Version 1 (one continuous codec chain):
//
//   magic "STCT" | version u8=1 | codec u8 | name len varint | name bytes
//   | point count varint | payload | crc32 (4 bytes, LE, over everything
//   before it)
//
// Version 2 (blocked, DESIGN.md §17) inserts a block-summary table so
// readers can skip whole blocks without decoding them:
//
//   magic "STCT" | version u8=2 | codec u8 | name len varint | name bytes
//   | point count varint | block count varint | summary table
//   (block_summary.h) | concatenated block payloads | crc32
//
// The delta chain restarts at every v2 block. Writers emit v1 for single
// chains (SerializeTrajectory, unchanged bytes — the golden lock) and v2
// for blocked stores; the reader accepts both. The CRC turns silent
// truncation/corruption into kDataLoss.

#ifndef STCOMP_STORE_SERIALIZATION_H_
#define STCOMP_STORE_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/store/block_summary.h"
#include "stcomp/store/codec.h"

namespace stcomp {

// CRC-32 (IEEE 802.3 polynomial, reflected), computed eight bytes per
// step (slicing-by-8); the same value as the bytewise table form.
uint32_t Crc32(std::string_view data);

Result<std::string> SerializeTrajectory(const Trajectory& trajectory,
                                        Codec codec);

// v2 blocked frame from pre-encoded state: `payload` must be the
// concatenation of the blocks' independently-coded payloads and `blocks`
// their summary table (the store passes its entries through without
// re-encoding). kInvalidArgument when the table disagrees with the
// payload length.
Result<std::string> SerializeBlockedFrame(
    std::string_view name, Codec codec,
    const std::vector<BlockSummary>& blocks, std::string_view payload);

// Convenience: encode `trajectory` into blocks of `block_points` and
// frame it as v2.
Result<std::string> SerializeTrajectoryBlocked(
    const Trajectory& trajectory, Codec codec,
    size_t block_points = kDefaultBlockPoints);

// How a parsed frame stores its points: the codec, and for a v2 frame
// its summary table as written and the concatenated block payloads the
// points were decoded from. A v1 frame leaves `blocks` and `payload`
// empty. `payload` views the parsed buffer.
struct FrameLayout {
  Codec codec = Codec::kRaw;
  std::vector<BlockSummary> blocks;
  std::string_view payload;
};

// Parses one framed trajectory (either version) from the front of
// `*input`, advancing it (multiple frames may be concatenated in one
// buffer/file). `layout` (may be null) receives how the frame stores it.
Result<Trajectory> DeserializeTrajectory(std::string_view* input,
                                         FrameLayout* layout = nullptr);

// Salvaging frame scan (DESIGN.md §13). Strict decoding (above) turns one
// flipped bit into kDataLoss for the whole image; the scanner instead
// recovers every intact frame: a frame that fails to decode is skipped and
// the scan resynchronises at the next magic. A trailing failure with no
// later resync point is a torn tail (an interrupted final write), counted
// separately from mid-image corruption.
struct FrameScanStats {
  size_t frames_good = 0;
  size_t frames_salvaged_past = 0;  // Corrupted frames skipped via resync.
  bool torn_tail = false;
  std::vector<std::string> log;  // One human-readable line per skip.
};

// Returns every decodable frame in order. `stats` may be null; `layouts`
// (may be null) receives each returned frame's layout, in the same order.
std::vector<Trajectory> ScanTrajectoryFrames(
    std::string_view image, FrameScanStats* stats,
    std::vector<FrameLayout>* layouts = nullptr);

Status WriteTrajectoryFile(const Trajectory& trajectory, Codec codec,
                           const std::string& path);
Result<Trajectory> ReadTrajectoryFile(const std::string& path);

}  // namespace stcomp

#endif  // STCOMP_STORE_SERIALIZATION_H_
