// Checkpoint encoding for streaming state (DESIGN.md §13).
//
// A checkpoint is a "STCK" blob of tagged, length-prefixed sections:
//
//   magic "STCK" | version u8 | section*
//   section = tag (len varint + bytes) | body (len varint + bytes)
//
// Each OnlineCompressor::SaveState body is an opaque field sequence built
// from the store/varint.h field primitives (varints, doubles, strings,
// points) and the checkpoint-only ones below; every implementation leads
// with a configuration echo (name + the constructor parameters) that
// RestoreState validates, so a checkpoint can only be loaded into a
// compressor constructed the same way — restoring into the wrong shape
// fails loudly with kInvalidArgument instead of resuming garbage.
//
// Doubles travel as raw little-endian bit patterns (store/varint.h
// PutDouble), so a restored stream continues bitwise-identical to the
// uninterrupted run — the property the crash-matrix test asserts.

#ifndef STCOMP_STREAM_CHECKPOINT_H_
#define STCOMP_STREAM_CHECKPOINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/store/varint.h"

namespace stcomp {

// Field primitives only the SaveState/RestoreState implementations use.
// Readers take the cursor by pointer and advance it; all failures are
// kDataLoss.
void PutBool(bool value, std::string* out);
Result<bool> GetBool(std::string_view* input);
void PutPointVector(const std::vector<TimedPoint>& points, std::string* out);
Status GetPointVector(std::string_view* input, std::vector<TimedPoint>* out);

class CheckpointWriter {
 public:
  void AddSection(std::string_view tag, std::string_view body);
  // The full "STCK" image (header + every section added so far).
  std::string Finish() const;

 private:
  std::string sections_;
};

// Sharded checkpoint manifest (DESIGN.md §16): the ShardedFleetCompressor
// image. Wraps one "STCK" image per shard in an outer envelope that echoes
// the shard layout, so restore can refuse a resharded reopen instead of
// silently misrouting objects:
//
//   magic "STSM" | version u8 | shard_count varint | hash_scheme u8 |
//   shard_count × (len varint + "STCK" bytes)
//
// `hash_scheme` names the id→shard mapping the images were taken under
// (kShardHashFnv1a64 is the only scheme today; the byte exists so a future
// scheme change fails loudly instead of scattering restored objects).
inline constexpr uint8_t kShardHashFnv1a64 = 1;

std::string WriteShardManifest(uint8_t hash_scheme,
                               const std::vector<std::string>& shard_images);

// Non-owning view into a parsed manifest; the image must outlive it.
struct ShardManifestView {
  uint64_t shard_count = 0;
  uint8_t hash_scheme = 0;
  std::vector<std::string_view> shard_images;
};

// kDataLoss on a malformed envelope. Per-shard images are not validated
// here — each shard's CheckpointReader does that on restore.
Result<ShardManifestView> ParseShardManifest(std::string_view image);

// Non-owning parser; the parsed image must outlive the reader.
class CheckpointReader {
 public:
  struct Section {
    std::string_view tag;
    std::string_view body;
  };

  // Validates the header and splits the sections. kDataLoss on a
  // malformed image.
  Status Parse(std::string_view image);

  // Sections in file order; tags may repeat (one per fleet object).
  const std::vector<Section>& sections() const { return sections_; }

  // The single section tagged `tag`: kNotFound if absent,
  // kDataLoss if repeated.
  Result<std::string_view> Find(std::string_view tag) const;

 private:
  std::vector<Section> sections_;
};

}  // namespace stcomp

#endif  // STCOMP_STREAM_CHECKPOINT_H_
