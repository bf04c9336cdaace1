// Regenerates the checked-in golden store-format blob and the binary seed
// corpora for the serialization/store fuzz targets. Run manually only when
// the on-disk format changes *on purpose*:
//
//   ./golden_gen <tests/golden dir> <tests/fuzz/corpus dir>
//
// golden_format_test decodes the STCT blobs, and the golden_lock ctest
// runs this tool into the build tree and byte-compares every file it
// writes with the checked-in copy: if either fails after a code change,
// the change broke format compatibility — regenerating the files is the
// last resort, not the first fix.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/check.h"
#include "stcomp/net/frame.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/st_index.h"
#include "stcomp/store/trajectory_store.h"
#include "stcomp/store/varint.h"
#include "stcomp/store/wal.h"
#include "stcomp/stream/checkpoint.h"
#include "stcomp/stream/fleet_compressor.h"
#include "stcomp/stream/opening_window_stream.h"
#include "stcomp/stream/squish_stream.h"

namespace {

stcomp::Trajectory GoldenTrajectory() {
  // Values sit on the kDelta quantisation grid (1 ms, 1 cm) so the delta
  // frame loses nothing beyond double rounding; golden_format_test.cc
  // rebuilds this same literal.
  auto trajectory = stcomp::Trajectory::FromPoints({
      {0.0, 0.0, 0.0},
      {5.0, 12.34, -7.25},
      {10.5, 25.0, -14.5},
      {16.25, 40.41, -21.0},
      {30.0, 100.0, 3.75},
  });
  STCOMP_CHECK_OK(trajectory.status());
  trajectory->set_name("golden-v1");
  return std::move(trajectory).value();
}

// The settings tests/fuzz/fuzz_checkpoint.cc restores under, so the
// checkpoint seeds pass each config echo.
constexpr double kCheckpointEpsilonM = 25.0;
constexpr double kCheckpointReorderWindowS = 30.0;
constexpr size_t kCheckpointSquishCapacity = 8;

stcomp::IngestPolicy CheckpointPolicy() {
  stcomp::IngestPolicy policy;
  policy.mode = stcomp::IngestMode::kRepair;
  policy.reorder_window_s = kCheckpointReorderWindowS;
  return policy;
}

std::unique_ptr<stcomp::OnlineCompressor> CheckpointCompressor() {
  return std::make_unique<stcomp::OpeningWindowStream>(
      kCheckpointEpsilonM, stcomp::algo::BreakPolicy::kNormal,
      stcomp::StreamCriterion::kSynchronized);
}

// The STCK image of a fleet that got `points` for each of `ids`.
std::string FleetImage(const std::vector<std::string>& ids,
                       const std::vector<stcomp::TimedPoint>& points) {
  stcomp::FleetCompressor fleet(
      CheckpointCompressor,
      [](const std::string&, const stcomp::TimedPoint&) {
        return stcomp::Status::Ok();
      },
      CheckpointPolicy(), "golden-gen");
  for (const stcomp::TimedPoint& point : points) {
    for (const std::string& id : ids) {
      STCOMP_CHECK_OK(fleet.Push(id, point));
    }
  }
  std::string image;
  STCOMP_CHECK_OK(fleet.SaveState(&image));
  return image;
}

// `image` with the one-byte count `old_count` at `offset` replaced by
// `count`.
std::string WithCount(const std::string& image, size_t offset,
                      uint8_t old_count, uint64_t count) {
  STCOMP_CHECK(static_cast<uint8_t>(image.at(offset)) == old_count);
  std::string out = image.substr(0, offset);
  stcomp::PutVarint(count, &out);
  return out + image.substr(offset + 1);
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream file(path, std::ios::binary);
  STCOMP_CHECK(static_cast<bool>(file));
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  STCOMP_CHECK(static_cast<bool>(file));
  std::printf("wrote %s (%zu bytes)\n", path.string().c_str(), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: golden_gen <golden_dir> <corpus_dir>\n");
    return 1;
  }
  const std::filesystem::path golden_dir = argv[1];
  const std::filesystem::path corpus_dir = argv[2];

  const stcomp::Trajectory trajectory = GoldenTrajectory();
  const std::string raw =
      stcomp::SerializeTrajectory(trajectory, stcomp::Codec::kRaw).value();
  const std::string delta =
      stcomp::SerializeTrajectory(trajectory, stcomp::Codec::kDelta).value();
  WriteFile(golden_dir / "trajectory_v1.stct", raw + delta);

  // v2 blocked frames (DESIGN.md §17): block_points=2 forces three blocks
  // over the five golden points, so the summary table, junction extents
  // and per-block chain restarts are all locked by golden_format_test.
  const std::string raw_blocked =
      stcomp::SerializeTrajectoryBlocked(trajectory, stcomp::Codec::kRaw, 2)
          .value();
  const std::string delta_blocked =
      stcomp::SerializeTrajectoryBlocked(trajectory, stcomp::Codec::kDelta, 2)
          .value();
  WriteFile(golden_dir / "trajectory_v2.stct", raw_blocked + delta_blocked);

  WriteFile(corpus_dir / "serialization" / "raw_frame", raw);
  WriteFile(corpus_dir / "serialization" / "delta_frame", delta);
  WriteFile(corpus_dir / "serialization" / "two_frames", raw + delta);
  WriteFile(corpus_dir / "serialization" / "truncated",
            raw.substr(0, raw.size() / 2));
  stcomp::Trajectory unnamed = trajectory;
  unnamed.set_name("");
  WriteFile(corpus_dir / "serialization" / "empty_name",
            stcomp::SerializeTrajectory(unnamed, stcomp::Codec::kRaw).value());

  stcomp::TrajectoryStore store(stcomp::Codec::kDelta);
  for (const stcomp::TimedPoint& point : trajectory.points()) {
    STCOMP_CHECK_OK(store.Append("bus-1", point));
    STCOMP_CHECK_OK(
        store.Append("bus-2", {point.t, point.position.y, point.position.x}));
  }
  const std::filesystem::path image_path = corpus_dir / "store" / "two_objects";
  std::filesystem::create_directories(image_path.parent_path());
  STCOMP_CHECK_OK(store.SaveToFile(image_path.string()));
  std::printf("wrote %s\n", image_path.string().c_str());

  stcomp::TrajectoryStore single(stcomp::Codec::kRaw);
  STCOMP_CHECK_OK(single.Append("solo", {1.0, 2.0, 3.0}));
  const std::filesystem::path single_path =
      corpus_dir / "store" / "single_object";
  STCOMP_CHECK_OK(single.SaveToFile(single_path.string()));
  std::printf("wrote %s\n", single_path.string().c_str());

  WriteFile(corpus_dir / "store" / "unnamed_frame",
            stcomp::SerializeTrajectory(unnamed, stcomp::Codec::kRaw).value());
  WriteFile(corpus_dir / "store" / "truncated", raw.substr(0, 10));
  // Load keeps a frame's block payloads only when it is cut the store's
  // way (DESIGN.md §13): two-point blocks take the re-encode path, and a
  // store-cut frame whose table claims wider extents than its points
  // takes the kept path with the extents recomputed.
  WriteFile(corpus_dir / "store" / "two_point_blocks", delta_blocked);
  std::string payload;
  std::vector<stcomp::BlockSummary> wide =
      stcomp::EncodeBlocked(trajectory.points().data(), trajectory.size(),
                            stcomp::Codec::kDelta, stcomp::kDefaultBlockPoints,
                            &payload)
          .value();
  wide[0].t_min -= 60.0;
  wide[0].bounds.max.x += 1000.0;
  WriteFile(corpus_dir / "store" / "wide_table_extents",
            stcomp::SerializeBlockedFrame(trajectory.name(),
                                          stcomp::Codec::kDelta, wide, payload)
                .value());

  // Spatio-temporal index seed corpus (fuzz_query_index.cc): STIX images
  // built from real stores, the empty index, and a torn prefix. The replay
  // driver's mutant pass then bit-flips these, which must always come back
  // as kDataLoss (whole-image CRC).
  const std::string two_objects_index =
      stcomp::SpatioTemporalIndex::BuildFromStore(store).SerializeToString();
  WriteFile(corpus_dir / "query_index" / "two_objects", two_objects_index);
  WriteFile(corpus_dir / "query_index" / "single_object",
            stcomp::SpatioTemporalIndex::BuildFromStore(single)
                .SerializeToString());
  WriteFile(corpus_dir / "query_index" / "empty",
            stcomp::SpatioTemporalIndex::BuildFromStore(
                stcomp::TrajectoryStore())
                .SerializeToString());
  WriteFile(corpus_dir / "query_index" / "truncated",
            two_objects_index.substr(0, two_objects_index.size() / 2));

  // WAL seed corpus (fuzz_wal.cc): a committed batch covering every record
  // type, an uncommitted tail, and a torn final frame.
  std::string wal_batch;
  wal_batch += stcomp::EncodeWalFrame(
      stcomp::WalRecord::Append("bus-1", {1.0, 2.0, 3.0}));
  wal_batch += stcomp::EncodeWalFrame(
      stcomp::WalRecord::Append("bus-1", {2.0, 4.0, 5.0}));
  wal_batch +=
      stcomp::EncodeWalFrame(stcomp::WalRecord::Insert("bus-2", raw));
  wal_batch +=
      stcomp::EncodeWalFrame(stcomp::WalRecord::Remove("bus-2"));
  wal_batch += stcomp::EncodeWalFrame(stcomp::WalRecord::Commit());
  WriteFile(corpus_dir / "wal" / "committed_batch", wal_batch);
  const std::string uncommitted = stcomp::EncodeWalFrame(
      stcomp::WalRecord::Append("bus-3", {9.0, -1.0, -2.0}));
  WriteFile(corpus_dir / "wal" / "uncommitted_tail", wal_batch + uncommitted);
  WriteFile(corpus_dir / "wal" / "torn_tail",
            wal_batch + uncommitted.substr(0, uncommitted.size() / 2));
  // The WAL twin of ingest_frame/overflow_len below: a 10-byte length
  // varint declaring a ~2^64 payload plus a few bytes of tail must read
  // as truncation, not wrap `payload_size + 4` past the bounds check.
  std::string wal_overflow("STWL");
  wal_overflow.append(9, static_cast<char>(0xff));
  wal_overflow.push_back(0x01);
  wal_overflow += "junk";
  WriteFile(corpus_dir / "wal" / "overflow_len", wal_overflow);

  // STNI wire-protocol seed corpus (fuzz_ingest_frame.cc): one of every
  // frame type, a whole handshake-plus-batch conversation, and a torn
  // tail, so the replay driver's mutants start from frames that actually
  // pass the CRC instead of dying at the magic check.
  using stcomp::net::EncodeNetFrame;
  using stcomp::net::NetFrame;
  const std::vector<stcomp::net::NetFix> fixes = {
      {"bus-1", {0.0, 1.5, -2.5}},
      {"bus-1", {10.0, 3.25, -4.75}},
      {"tram-7", {5.5, -0.125, 1e9}},
  };
  WriteFile(corpus_dir / "ingest_frame" / "hello",
            EncodeNetFrame(NetFrame::Hello("device-42")));
  WriteFile(corpus_dir / "ingest_frame" / "hello_ack",
            EncodeNetFrame(NetFrame::HelloAck(7, 19)));
  WriteFile(corpus_dir / "ingest_frame" / "batch",
            EncodeNetFrame(NetFrame::Batch(20, fixes)));
  WriteFile(corpus_dir / "ingest_frame" / "batch_ack",
            EncodeNetFrame(NetFrame::BatchAck(20)));
  WriteFile(corpus_dir / "ingest_frame" / "error",
            EncodeNetFrame(NetFrame::Error(stcomp::net::NetErrorCode::kProtocol,
                                           "batch before hello")));
  WriteFile(corpus_dir / "ingest_frame" / "goaway",
            EncodeNetFrame(NetFrame::GoAway(
                stcomp::net::GoAwayReason::kOverloaded, "shedding")));
  WriteFile(corpus_dir / "ingest_frame" / "bye",
            EncodeNetFrame(NetFrame::Bye()));
  std::string conversation = EncodeNetFrame(NetFrame::Hello("device-42"));
  conversation += EncodeNetFrame(NetFrame::HelloAck(1, 0));
  conversation += EncodeNetFrame(NetFrame::Batch(1, fixes));
  conversation += EncodeNetFrame(NetFrame::BatchAck(1));
  conversation += EncodeNetFrame(NetFrame::Bye());
  WriteFile(corpus_dir / "ingest_frame" / "conversation", conversation);
  WriteFile(corpus_dir / "ingest_frame" / "torn_tail",
            conversation.substr(0, conversation.size() - 7));
  WriteFile(corpus_dir / "ingest_frame" / "empty_batch",
            EncodeNetFrame(NetFrame::Batch(1, {})));
  // A 10-byte length varint declaring a ~2^64 payload plus a few bytes
  // of tail: regression seed for the decoder's `payload_size + 4`
  // overflow — the bounds check must read this as truncation, not wrap.
  std::string overflow(stcomp::net::kNetMagic,
                       sizeof(stcomp::net::kNetMagic));
  overflow.push_back(static_cast<char>(stcomp::net::kNetProtocolVersion));
  overflow.push_back(static_cast<char>(stcomp::net::NetMessageType::kBatch));
  overflow.append(9, static_cast<char>(0xff));
  overflow.push_back(0x01);
  overflow += "junk";
  WriteFile(corpus_dir / "ingest_frame" / "overflow_len", overflow);

  // Streaming-state checkpoint seed corpus (fuzz_checkpoint.cc): a fleet
  // image whose gates hold fixes (the 30 s reorder window holds all but
  // the first golden fix), a two-shard STSM manifest, a SquishStream state
  // with evictions behind it, and a torn prefix.
  const std::string fleet_held =
      FleetImage({"bus-1", "tram-7"}, trajectory.points());
  WriteFile(corpus_dir / "checkpoint" / "fleet_held", fleet_held);
  WriteFile(corpus_dir / "checkpoint" / "two_shards",
            stcomp::WriteShardManifest(
                stcomp::kShardHashFnv1a64,
                {FleetImage({"bus-1"}, trajectory.points()),
                 FleetImage({"tram-7"}, trajectory.points())}));
  stcomp::SquishStream squish(kCheckpointSquishCapacity, 0.0);
  std::vector<stcomp::TimedPoint> squish_out;
  for (int i = 0; i < 20; ++i) {
    STCOMP_CHECK_OK(squish.Push(
        {10.0 * i, 7.0 * i * (i % 3), -3.0 * i * (i % 4)}, &squish_out));
  }
  std::string squish_state;
  STCOMP_CHECK_OK(squish.SaveState(&squish_state));
  WriteFile(corpus_dir / "checkpoint" / "squish_state", squish_state);
  WriteFile(corpus_dir / "checkpoint" / "truncated",
            fleet_held.substr(0, fleet_held.size() / 2));

  // One 2^62 count per reader that reserves by a count from the image;
  // each must read as kDataLoss, not throw from reserve()
  // (checkpoint_test reads these four seeds).
  constexpr uint64_t kHostileCount = uint64_t{1} << 62;
  // "STSM" | version | shard_count | hash_scheme, and no shard images.
  WriteFile(corpus_dir / "checkpoint" / "hostile_shard_count",
            WithCount(stcomp::WriteShardManifest(stcomp::kShardHashFnv1a64,
                                                 {}),
                      5, 0, kHostileCount));
  // A fresh SquishStream's state ends with its node count, free-id count,
  // head and tail, one byte each.
  std::string fresh_squish;
  STCOMP_CHECK_OK(stcomp::SquishStream(kCheckpointSquishCapacity, 0.0)
                      .SaveState(&fresh_squish));
  WriteFile(corpus_dir / "checkpoint" / "hostile_squish_nodes",
            WithCount(fresh_squish, fresh_squish.size() - 4, 0,
                      kHostileCount));
  WriteFile(corpus_dir / "checkpoint" / "hostile_squish_free",
            WithCount(fresh_squish, fresh_squish.size() - 3, 0,
                      kHostileCount));
  // A one-object fleet image whose gate holds one fix behind a 2^62
  // count. The gate state's held count follows its policy echo: the mode
  // byte, the reorder window and a one-byte quarantine_after.
  stcomp::CheckpointReader reader;
  const std::string one_held =
      FleetImage({"bus-1"}, {trajectory.points().front()});
  STCOMP_CHECK_OK(reader.Parse(one_held));
  std::string_view body = reader.sections()[1].body;
  const std::string object_id(stcomp::GetString(&body).value());
  const std::string gate(stcomp::GetString(&body).value());
  const std::string compressor(stcomp::GetString(&body).value());
  std::string hostile_body;
  stcomp::PutString(object_id, &hostile_body);
  stcomp::PutString(WithCount(gate, 10, 1, kHostileCount), &hostile_body);
  stcomp::PutString(compressor, &hostile_body);
  hostile_body += body;  // The object's fixes in/out counters.
  stcomp::CheckpointWriter writer;
  writer.AddSection(reader.sections()[0].tag, reader.sections()[0].body);
  writer.AddSection(reader.sections()[1].tag, hostile_body);
  WriteFile(corpus_dir / "checkpoint" / "hostile_held_count",
            writer.Finish());
  return 0;
}
