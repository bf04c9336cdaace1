#include "stcomp/stream/checkpoint.h"

namespace stcomp {

namespace {
constexpr char kCheckpointMagic[4] = {'S', 'T', 'C', 'K'};
constexpr uint8_t kCheckpointVersion = 1;
}  // namespace

void PutBool(bool value, std::string* out) {
  out->push_back(value ? '\1' : '\0');
}

Result<bool> GetBool(std::string_view* input) {
  if (input->empty()) {
    return DataLossError("checkpoint bool truncated");
  }
  const char byte = input->front();
  input->remove_prefix(1);
  if (byte != '\0' && byte != '\1') {
    return DataLossError("checkpoint bool out of range");
  }
  return byte == '\1';
}

void PutPointVector(const std::vector<TimedPoint>& points, std::string* out) {
  PutVarint(points.size(), out);
  for (const TimedPoint& point : points) {
    PutTimedPoint(point, out);
  }
}

Status GetPointVector(std::string_view* input, std::vector<TimedPoint>* out) {
  STCOMP_ASSIGN_OR_RETURN(const uint64_t count, GetVarint(input));
  // Every point takes at least one byte, so a count beyond the bytes left
  // is corruption; checking before reserve() keeps a hostile count from
  // demanding an absurd allocation (DESIGN.md §12).
  if (count > input->size()) {
    return DataLossError("checkpoint point count exceeds the bytes left");
  }
  out->reserve(out->size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    STCOMP_ASSIGN_OR_RETURN(const TimedPoint point, GetTimedPoint(input));
    out->push_back(point);
  }
  return Status::Ok();
}

namespace {
constexpr char kShardManifestMagic[4] = {'S', 'T', 'S', 'M'};
constexpr uint8_t kShardManifestVersion = 1;
}  // namespace

std::string WriteShardManifest(uint8_t hash_scheme,
                               const std::vector<std::string>& shard_images) {
  std::string image(kShardManifestMagic, sizeof(kShardManifestMagic));
  image.push_back(static_cast<char>(kShardManifestVersion));
  PutVarint(shard_images.size(), &image);
  image.push_back(static_cast<char>(hash_scheme));
  for (const std::string& shard_image : shard_images) {
    PutString(shard_image, &image);
  }
  return image;
}

Result<ShardManifestView> ParseShardManifest(std::string_view image) {
  if (image.size() < sizeof(kShardManifestMagic) + 1 ||
      image.substr(0, 4) != std::string_view(kShardManifestMagic, 4)) {
    return DataLossError("not a sharded manifest: bad magic");
  }
  image.remove_prefix(4);
  const uint8_t version = static_cast<uint8_t>(image.front());
  image.remove_prefix(1);
  if (version != kShardManifestVersion) {
    return DataLossError("unsupported sharded manifest version " +
                         std::to_string(version));
  }
  ShardManifestView view;
  STCOMP_ASSIGN_OR_RETURN(view.shard_count, GetVarint(&image));
  if (image.empty()) {
    return DataLossError("sharded manifest truncated before hash scheme");
  }
  view.hash_scheme = static_cast<uint8_t>(image.front());
  image.remove_prefix(1);
  // Every shard image takes at least its length byte.
  if (view.shard_count > image.size()) {
    return DataLossError("sharded manifest shard count exceeds the bytes left");
  }
  view.shard_images.reserve(view.shard_count);
  for (uint64_t i = 0; i < view.shard_count; ++i) {
    STCOMP_ASSIGN_OR_RETURN(const std::string_view shard_image,
                            GetString(&image));
    view.shard_images.push_back(shard_image);
  }
  if (!image.empty()) {
    return DataLossError("trailing bytes after sharded manifest images");
  }
  return view;
}

void CheckpointWriter::AddSection(std::string_view tag,
                                  std::string_view body) {
  PutString(tag, &sections_);
  PutString(body, &sections_);
}

std::string CheckpointWriter::Finish() const {
  std::string image(kCheckpointMagic, sizeof(kCheckpointMagic));
  image.push_back(static_cast<char>(kCheckpointVersion));
  image += sections_;
  return image;
}

Status CheckpointReader::Parse(std::string_view image) {
  sections_.clear();
  if (image.size() < sizeof(kCheckpointMagic) + 1 ||
      image.substr(0, 4) != std::string_view(kCheckpointMagic, 4)) {
    return DataLossError("not a checkpoint: bad magic");
  }
  image.remove_prefix(4);
  const uint8_t version = static_cast<uint8_t>(image.front());
  image.remove_prefix(1);
  if (version != kCheckpointVersion) {
    return DataLossError("unsupported checkpoint version " +
                         std::to_string(version));
  }
  while (!image.empty()) {
    Section section;
    STCOMP_ASSIGN_OR_RETURN(section.tag, GetString(&image));
    STCOMP_ASSIGN_OR_RETURN(section.body, GetString(&image));
    sections_.push_back(section);
  }
  return Status::Ok();
}

Result<std::string_view> CheckpointReader::Find(std::string_view tag) const {
  const Section* found = nullptr;
  for (const Section& section : sections_) {
    if (section.tag != tag) {
      continue;
    }
    if (found != nullptr) {
      return DataLossError("checkpoint section '" + std::string(tag) +
                           "' repeated");
    }
    found = &section;
  }
  if (found == nullptr) {
    return NotFoundError("checkpoint has no section '" + std::string(tag) +
                         "'");
  }
  return found->body;
}

}  // namespace stcomp
