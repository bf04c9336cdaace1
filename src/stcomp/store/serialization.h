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

// The CRC-32 trailer that closes every checksummed format (STCT, STWL,
// STNI, STIX): Crc32 of all of the frame's bytes before it, as four
// little-endian bytes.
inline constexpr size_t kCrc32TrailerBytes = 4;

// Appends the trailer over everything in `*frame` so far.
void AppendCrc32Trailer(std::string* frame);

// Reads the end of a frame from the front of `*input`: `payload_size`
// payload bytes, then the trailer, which must equal Crc32 of the frame
// from its first byte (where `frame_start` begins; `*input` views a
// suffix of it) up to the trailer. Returns the payload and advances
// `*input` past the trailer. kDataLoss, naming `what`, when fewer than
// payload_size + 4 bytes remain or the checksum disagrees; the length
// test never forms that sum, so a hostile declared length near 2^64
// reads as truncation.
Result<std::string_view> ReadCrc32Trailer(std::string_view frame_start,
                                          std::string_view* input,
                                          uint64_t payload_size,
                                          std::string_view what);

// What a salvaging scan skipped (SalvageFrames below).
struct SalvageStats {
  size_t frames_salvaged_past = 0;  // Corrupted frames skipped via resync.
  bool torn_tail = false;  // The final write was interrupted mid-frame.
  std::vector<std::string> log;  // One human-readable line per skip.
};

// Salvaging scan (DESIGN.md §13) over an image of back-to-back frames
// that each open with `magic`, shared by the segment (STCT) and WAL
// (STWL) scanners. Strict decoding turns one flipped bit into kDataLoss
// for the whole image; this scan instead recovers every intact frame. At
// each position `decode_one(&cursor)` strict-decodes one frame from the
// front of a copy of the cursor, advancing the copy, and returns its
// Status; on success the scan goes on behind the frame. A frame that
// fails is skipped: the scan moves at least one byte on and
// resynchronises at the next `magic`. A failure with no later magic is a
// torn tail (an interrupted final write), counted apart from mid-image
// corruption, and ends the scan.
template <typename DecodeOne>
void SalvageFrames(std::string_view image, std::string_view magic,
                   SalvageStats* stats, DecodeOne&& decode_one) {
  std::string_view cursor = image;
  while (!cursor.empty()) {
    std::string_view attempt = cursor;
    const Status status = decode_one(&attempt);
    if (status.ok()) {
      cursor = attempt;
      continue;
    }
    const std::string at =
        std::to_string(static_cast<size_t>(cursor.data() - image.data()));
    const size_t next = cursor.substr(1).find(magic);
    if (next == std::string_view::npos) {
      stats->torn_tail = true;
      stats->log.push_back("torn-tail@" + at + ": " + status.ToString());
      return;
    }
    ++stats->frames_salvaged_past;
    stats->log.push_back("salvaged-past@" + at + ": " + status.ToString());
    cursor.remove_prefix(next + 1);
  }
}

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

// Salvaging scan of an image of trajectory frames (SalvageFrames).
struct FrameScanStats : SalvageStats {
  size_t frames_good = 0;
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
