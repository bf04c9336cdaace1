#include "stcomp/store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/serialization.h"
#include "stcomp/store/varint.h"

namespace stcomp {

namespace {

constexpr char kWalMagic[4] = {'S', 'T', 'W', 'L'};

// Flight-recorder tags carry 23 bytes; the file name is the useful part.
[[maybe_unused]] std::string_view PathTail(std::string_view path) {
  const size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

void AppendCrc(std::string* frame) {
  const uint32_t crc = Crc32(*frame);
  for (int i = 0; i < 4; ++i) {
    frame->push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

}  // namespace

WalRecord WalRecord::Append(std::string object_id, const TimedPoint& point) {
  WalRecord record;
  record.type = WalRecordType::kAppend;
  record.object_id = std::move(object_id);
  record.point = point;
  return record;
}

WalRecord WalRecord::Insert(std::string object_id, std::string frame) {
  WalRecord record;
  record.type = WalRecordType::kInsert;
  record.object_id = std::move(object_id);
  record.payload = std::move(frame);
  return record;
}

WalRecord WalRecord::Remove(std::string object_id) {
  WalRecord record;
  record.type = WalRecordType::kRemove;
  record.object_id = std::move(object_id);
  return record;
}

WalRecord WalRecord::Commit() {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  return record;
}

std::string EncodeWalFrame(const WalRecord& record) {
  std::string payload;
  payload.push_back(static_cast<char>(record.type));
  switch (record.type) {
    case WalRecordType::kAppend:
      PutVarint(record.object_id.size(), &payload);
      payload += record.object_id;
      PutDouble(record.point.t, &payload);
      PutDouble(record.point.position.x, &payload);
      PutDouble(record.point.position.y, &payload);
      break;
    case WalRecordType::kInsert:
      PutVarint(record.object_id.size(), &payload);
      payload += record.object_id;
      PutVarint(record.payload.size(), &payload);
      payload += record.payload;
      break;
    case WalRecordType::kRemove:
      PutVarint(record.object_id.size(), &payload);
      payload += record.object_id;
      break;
    case WalRecordType::kCommit:
      break;
  }
  std::string frame(kWalMagic, sizeof(kWalMagic));
  PutVarint(payload.size(), &frame);
  frame += payload;
  AppendCrc(&frame);
  return frame;
}

Result<WalRecord> DecodeWalFrame(std::string_view* input) {
  const std::string_view frame_start = *input;
  if (input->size() < sizeof(kWalMagic)) {
    return DataLossError("wal frame truncated");
  }
  if (input->substr(0, 4) != std::string_view(kWalMagic, 4)) {
    return DataLossError("bad magic; not a wal frame");
  }
  input->remove_prefix(4);
  STCOMP_ASSIGN_OR_RETURN(const uint64_t payload_size, GetVarint(input));
  if (input->size() < payload_size + 4) {
    return DataLossError("wal frame truncated in payload");
  }
  std::string_view payload = input->substr(0, payload_size);
  input->remove_prefix(payload_size);
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(static_cast<uint8_t>((*input)[i]))
                  << (8 * i);
  }
  const size_t frame_size =
      static_cast<size_t>(input->data() - frame_start.data());
  input->remove_prefix(4);
  if (Crc32(frame_start.substr(0, frame_size)) != stored_crc) {
    return DataLossError("wal frame CRC mismatch");
  }
  if (payload.empty()) {
    return DataLossError("wal frame with empty payload");
  }
  WalRecord record;
  const uint8_t type_byte = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (type_byte < static_cast<uint8_t>(WalRecordType::kAppend) ||
      type_byte > static_cast<uint8_t>(WalRecordType::kCommit)) {
    return DataLossError("unknown wal record type");
  }
  record.type = static_cast<WalRecordType>(type_byte);
  if (record.type != WalRecordType::kCommit) {
    STCOMP_ASSIGN_OR_RETURN(const uint64_t id_size, GetVarint(&payload));
    if (payload.size() < id_size) {
      return DataLossError("wal record truncated in object id");
    }
    record.object_id = std::string(payload.substr(0, id_size));
    payload.remove_prefix(id_size);
  }
  switch (record.type) {
    case WalRecordType::kAppend: {
      STCOMP_ASSIGN_OR_RETURN(record.point.t, GetDouble(&payload));
      STCOMP_ASSIGN_OR_RETURN(record.point.position.x, GetDouble(&payload));
      STCOMP_ASSIGN_OR_RETURN(record.point.position.y, GetDouble(&payload));
      break;
    }
    case WalRecordType::kInsert: {
      STCOMP_ASSIGN_OR_RETURN(const uint64_t frame_len, GetVarint(&payload));
      if (payload.size() < frame_len) {
        return DataLossError("wal insert record truncated in payload");
      }
      record.payload = std::string(payload.substr(0, frame_len));
      payload.remove_prefix(frame_len);
      break;
    }
    case WalRecordType::kRemove:
    case WalRecordType::kCommit:
      break;
  }
  if (!payload.empty()) {
    return DataLossError("wal record has trailing bytes");
  }
  return record;
}

std::vector<WalRecord> ScanWal(std::string_view image, WalScanStats* stats) {
  WalScanStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  const std::string_view magic(kWalMagic, sizeof(kWalMagic));
  std::vector<WalRecord> committed;
  std::vector<WalRecord> batch;
  std::string_view cursor = image;
  while (!cursor.empty()) {
    const size_t offset = static_cast<size_t>(cursor.data() - image.data());
    std::string_view attempt = cursor;
    Result<WalRecord> record = DecodeWalFrame(&attempt);
    if (record.ok()) {
      cursor = attempt;
      if (record->type == WalRecordType::kCommit) {
        stats->records_replayed += batch.size();
        for (WalRecord& sealed : batch) {
          committed.push_back(std::move(sealed));
        }
        batch.clear();
      } else {
        batch.push_back(*std::move(record));
      }
      continue;
    }
    const size_t next = cursor.substr(1).find(magic);
    if (next == std::string_view::npos) {
      stats->torn_tail = true;
      stats->log.push_back("torn-tail@" + std::to_string(offset) + ": " +
                           record.status().ToString());
      break;
    }
    ++stats->frames_salvaged_past;
    stats->log.push_back("salvaged-past@" + std::to_string(offset) + ": " +
                         record.status().ToString());
    cursor.remove_prefix(next + 1);
  }
  if (!batch.empty()) {
    stats->records_dropped_uncommitted += batch.size();
    stats->log.push_back("dropped " + std::to_string(batch.size()) +
                         " uncommitted trailing record(s)");
  }
  return committed;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status WalWriter::Die(Status status) {
  death_ = std::move(status);
  STCOMP_FLIGHT_EVENT(kWalDeath, PathTail(path_), *boundary_, 0);
  STCOMP_IF_METRICS(obs::FlightRecorder::DumpGlobal("wal sticky death: " +
                                                    death_.ToString()));
  return death_;
}

Status WalWriter::CheckAlive() const {
  if (!death_.ok()) {
    return death_;
  }
  if (fd_ < 0) {
    return FailedPreconditionError("wal writer is not open");
  }
  return Status::Ok();
}

Status WalWriter::Open(const std::string& path) {
  STCOMP_CHECK(fd_ < 0);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return IoError("cannot open wal " + path + ": " + std::strerror(errno));
  }
  path_ = path;
  return Status::Ok();
}

Status WalWriter::Append(const WalRecord& record) {
  STCOMP_RETURN_IF_ERROR(CheckAlive());
  STCOMP_CHECK(record.type != WalRecordType::kCommit);
  staged_.push_back(EncodeWalFrame(record));
  return Status::Ok();
}

Status WalWriter::Commit() {
  STCOMP_RETURN_IF_ERROR(CheckAlive());
  if (staged_.empty()) {
    return Status::Ok();
  }
  // Records as a child of whatever pipeline span is open (e.g. a sampled
  // fleet.push) so the durable-write leg shows up in the object's tree.
  // A shard worker's group commit runs outside any span; as a root it is
  // head-sampled like the pushes it serves, so commits cannot crowd the
  // sampled trees out of the trace ring.
  STCOMP_TRACE_SPAN_SAMPLED("wal.commit", PathTail(path_));
  [[maybe_unused]] const size_t batch_records = staged_.size();
  staged_.push_back(EncodeWalFrame(WalRecord::Commit()));
  for (const std::string& frame : staged_) {
    const Status status =
        FaultableWriteFd(fd_, frame, hook_, boundary_, path_);
    if (!status.ok()) {
      return Die(status);
    }
  }
  const Status synced = FaultPoint(hook_, boundary_, "fsync of " + path_);
  if (!synced.ok()) {
    return Die(synced);
  }
  if (::fsync(fd_) != 0) {
    return Die(IoError("fsync failed for " + path_ + ": " +
                       std::strerror(errno)));
  }
  staged_.clear();
  STCOMP_FLIGHT_EVENT(kWalCommit, PathTail(path_), batch_records, *boundary_);
  return Status::Ok();
}

Status WalWriter::Truncate() {
  STCOMP_RETURN_IF_ERROR(CheckAlive());
  const Status point = FaultPoint(hook_, boundary_, "truncate of " + path_);
  if (!point.ok()) {
    return Die(point);
  }
  if (::ftruncate(fd_, 0) != 0) {
    return Die(IoError("truncate failed for " + path_ + ": " +
                       std::strerror(errno)));
  }
  if (::fsync(fd_) != 0) {
    return Die(IoError("fsync failed for " + path_ + ": " +
                       std::strerror(errno)));
  }
  staged_.clear();
  STCOMP_FLIGHT_EVENT(kWalTruncate, PathTail(path_), *boundary_, 0);
  return Status::Ok();
}

void WalWriter::set_write_hook(WriteFaultHook hook, size_t* boundary) {
  hook_ = std::move(hook);
  boundary_ = boundary != nullptr ? boundary : &own_boundary_;
}

}  // namespace stcomp
