#include "stcomp/store/serialization.h"

#include <array>
#include <fstream>
#include <sstream>

#include "stcomp/store/varint.h"

namespace stcomp {

namespace {

constexpr char kMagic[4] = {'S', 'T', 'C', 'T'};
constexpr uint8_t kVersion = 1;
constexpr uint8_t kVersionBlocked = 2;

// kCrcTables[0] is the bytewise table of the reflected IEEE polynomial;
// kCrcTables[k][i] is the register after byte i is followed by k zero
// bytes, so one step folds eight input bytes with eight lookups.
constexpr std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xffu];
    }
  }
  return tables;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    BuildCrcTables();

// Four bytes as a little-endian word, whatever the host byte order.
uint32_t LoadLe32(const unsigned char* bytes) {
  return static_cast<uint32_t>(bytes[0]) |
         (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) |
         (static_cast<uint32_t>(bytes[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  size_t size = data.size();
  uint32_t crc = 0xffffffffu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t low = crc ^ LoadLe32(bytes);
    const uint32_t high = LoadLe32(bytes + 4);
    crc = kCrcTables[7][low & 0xffu] ^ kCrcTables[6][(low >> 8) & 0xffu] ^
          kCrcTables[5][(low >> 16) & 0xffu] ^ kCrcTables[4][low >> 24] ^
          kCrcTables[3][high & 0xffu] ^ kCrcTables[2][(high >> 8) & 0xffu] ^
          kCrcTables[1][(high >> 16) & 0xffu] ^ kCrcTables[0][high >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kCrcTables[0][(crc ^ *bytes) & 0xffu];
  }
  return crc ^ 0xffffffffu;
}

void AppendCrc32Trailer(std::string* frame) {
  PutFixed32(Crc32(*frame), frame);
}

Result<std::string_view> ReadCrc32Trailer(std::string_view frame_start,
                                          std::string_view* input,
                                          uint64_t payload_size,
                                          std::string_view what) {
  if (input->size() < kCrc32TrailerBytes ||
      input->size() - kCrc32TrailerBytes < payload_size) {
    return DataLossError(std::string(what) + " truncated before its CRC");
  }
  const std::string_view payload = input->substr(0, payload_size);
  input->remove_prefix(payload_size);
  const size_t covered =
      static_cast<size_t>(input->data() - frame_start.data());
  STCOMP_ASSIGN_OR_RETURN(const uint32_t stored, GetFixed32(input));
  if (Crc32(frame_start.substr(0, covered)) != stored) {
    return DataLossError(std::string(what) + " CRC mismatch");
  }
  return payload;
}

Result<std::string> SerializeTrajectory(const Trajectory& trajectory,
                                        Codec codec) {
  std::string out(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(codec));
  PutString(trajectory.name(), &out);
  PutVarint(trajectory.size(), &out);
  STCOMP_RETURN_IF_ERROR(EncodePoints(trajectory, codec, &out));
  AppendCrc32Trailer(&out);
  return out;
}

Result<std::string> SerializeBlockedFrame(
    std::string_view name, Codec codec,
    const std::vector<BlockSummary>& blocks, std::string_view payload) {
  uint64_t points = 0;
  uint64_t bytes = 0;
  for (const BlockSummary& block : blocks) {
    points += block.count;
    bytes += block.byte_length;
  }
  if (bytes != payload.size()) {
    return InvalidArgumentError(
        "block summary byte lengths disagree with the payload");
  }
  std::string out(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersionBlocked));
  out.push_back(static_cast<char>(codec));
  PutString(name, &out);
  PutVarint(points, &out);
  PutVarint(blocks.size(), &out);
  AppendSummaryTable(blocks, &out);
  out += payload;
  AppendCrc32Trailer(&out);
  return out;
}

Result<std::string> SerializeTrajectoryBlocked(const Trajectory& trajectory,
                                               Codec codec,
                                               size_t block_points) {
  std::string payload;
  STCOMP_ASSIGN_OR_RETURN(
      const std::vector<BlockSummary> blocks,
      EncodeBlocked(trajectory.points().data(), trajectory.size(), codec,
                    block_points, &payload));
  return SerializeBlockedFrame(trajectory.name(), codec, blocks, payload);
}

Result<Trajectory> DeserializeTrajectory(std::string_view* input,
                                         FrameLayout* layout) {
  const std::string_view frame_start = *input;
  if (input->size() < 6) {
    return DataLossError("trajectory frame truncated");
  }
  if (input->substr(0, 4) != std::string_view(kMagic, 4)) {
    return DataLossError("bad magic; not a trajectory frame");
  }
  input->remove_prefix(4);
  const uint8_t version = static_cast<uint8_t>((*input)[0]);
  const uint8_t codec_byte = static_cast<uint8_t>((*input)[1]);
  input->remove_prefix(2);
  if (version != kVersion && version != kVersionBlocked) {
    return DataLossError("unsupported trajectory frame version");
  }
  if (codec_byte > static_cast<uint8_t>(Codec::kDelta)) {
    return DataLossError("unknown codec id");
  }
  const Codec codec = static_cast<Codec>(codec_byte);
  STCOMP_ASSIGN_OR_RETURN(const std::string_view name, GetString(input));
  STCOMP_ASSIGN_OR_RETURN(const uint64_t count, GetVarint(input));
  std::vector<TimedPoint> points;
  std::vector<BlockSummary> blocks;
  std::string_view payload;
  if (version == kVersion) {
    STCOMP_ASSIGN_OR_RETURN(points, DecodePoints(input, codec, count));
  } else {
    STCOMP_ASSIGN_OR_RETURN(const uint64_t block_count, GetVarint(input));
    STCOMP_ASSIGN_OR_RETURN(blocks,
                            ParseSummaryTable(input, block_count, count));
    if (count > input->size()) {
      return DataLossError("point count exceeds frame payload");
    }
    points.reserve(count);
    const std::string_view payload_start = *input;
    for (const BlockSummary& block : blocks) {
      if (block.byte_length > input->size()) {
        return DataLossError("block payload exceeds frame payload");
      }
      std::string_view slice = input->substr(0, block.byte_length);
      STCOMP_RETURN_IF_ERROR(
          DecodePointsInto(&slice, codec, block.count, &points));
      if (!slice.empty()) {
        return DataLossError("block payload longer than its coded points");
      }
      input->remove_prefix(block.byte_length);
    }
    payload =
        payload_start.substr(0, payload_start.size() - input->size());
  }
  STCOMP_RETURN_IF_ERROR(
      ReadCrc32Trailer(frame_start, input, 0, "trajectory frame").status());
  STCOMP_ASSIGN_OR_RETURN(Trajectory trajectory,
                          Trajectory::FromPoints(std::move(points)));
  trajectory.set_name(std::string(name));
  if (layout != nullptr) {
    layout->codec = codec;
    layout->blocks = std::move(blocks);
    layout->payload = payload;
  }
  return trajectory;
}

std::vector<Trajectory> ScanTrajectoryFrames(
    std::string_view image, FrameScanStats* stats,
    std::vector<FrameLayout>* layouts) {
  FrameScanStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  std::vector<Trajectory> frames;
  SalvageFrames(
      image, std::string_view(kMagic, sizeof(kMagic)), stats,
      [&](std::string_view* cursor) {
        FrameLayout layout;
        Result<Trajectory> frame = DeserializeTrajectory(
            cursor, layouts != nullptr ? &layout : nullptr);
        if (!frame.ok()) {
          return frame.status();
        }
        frames.push_back(*std::move(frame));
        if (layouts != nullptr) {
          layouts->push_back(std::move(layout));
        }
        ++stats->frames_good;
        return Status::Ok();
      });
  return frames;
}

Status WriteTrajectoryFile(const Trajectory& trajectory, Codec codec,
                           const std::string& path) {
  STCOMP_ASSIGN_OR_RETURN(const std::string frame,
                          SerializeTrajectory(trajectory, codec));
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return IoError("cannot open " + path + " for writing");
  }
  file.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!file) {
    return IoError("write failed for " + path);
  }
  return Status::Ok();
}

Result<Trajectory> ReadTrajectoryFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string content = buffer.str();
  std::string_view cursor = content;
  return DeserializeTrajectory(&cursor);
}

}  // namespace stcomp
