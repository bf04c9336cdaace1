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
  if (record.type != WalRecordType::kCommit) {
    PutString(record.object_id, &payload);
  }
  if (record.type == WalRecordType::kAppend) {
    PutTimedPoint(record.point, &payload);
  } else if (record.type == WalRecordType::kInsert) {
    PutString(record.payload, &payload);
  }
  std::string frame(kWalMagic, sizeof(kWalMagic));
  PutString(payload, &frame);
  AppendCrc32Trailer(&frame);
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
  STCOMP_ASSIGN_OR_RETURN(
      std::string_view payload,
      ReadCrc32Trailer(frame_start, input, payload_size, "wal frame"));
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
    STCOMP_ASSIGN_OR_RETURN(const std::string_view id, GetString(&payload));
    record.object_id = std::string(id);
  }
  if (record.type == WalRecordType::kAppend) {
    STCOMP_ASSIGN_OR_RETURN(record.point, GetTimedPoint(&payload));
  } else if (record.type == WalRecordType::kInsert) {
    STCOMP_ASSIGN_OR_RETURN(const std::string_view frame, GetString(&payload));
    record.payload = std::string(frame);
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
  std::vector<WalRecord> committed;
  std::vector<WalRecord> batch;
  SalvageFrames(image, std::string_view(kWalMagic, sizeof(kWalMagic)), stats,
                [&](std::string_view* cursor) {
                  Result<WalRecord> record = DecodeWalFrame(cursor);
                  if (!record.ok()) {
                    return record.status();
                  }
                  if (record->type != WalRecordType::kCommit) {
                    batch.push_back(*std::move(record));
                    return Status::Ok();
                  }
                  stats->records_replayed += batch.size();
                  for (WalRecord& sealed : batch) {
                    committed.push_back(std::move(sealed));
                  }
                  batch.clear();
                  return Status::Ok();
                });
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
