// Append-only, CRC-framed write-ahead log for store mutations
// (DESIGN.md §13).
//
// Frame format (all little-endian), built from the varint.h field
// primitives and the serialization.h CRC-32 trailer:
//
//   magic "STWL" | payload (length-prefixed string) | crc32 (4 bytes,
//   over everything before it)
//
// where payload = record type u8 + type-specific fields:
//
//   kAppend  object-id (length-prefixed) | t, x, y as raw doubles
//   kInsert  object-id | one serialization.h "STCT" frame (length-prefixed)
//   kRemove  object-id
//   kCommit  (empty) — seals everything since the previous marker
//
// Append() stages records in memory; Commit() writes the batch plus a
// commit marker and fsyncs, so a batch is durable if and only if its
// marker reached the disk. Point coordinates travel as raw doubles (not
// the quantising delta codec) so replay reconstructs state bit-for-bit.
//
// The scanner *salvages* (serialization.h SalvageFrames): a corrupted
// frame is skipped (resync at the next magic) and logged, an interrupted
// final write is a torn tail, and records after the last commit marker
// are dropped — recovery loses at most the last uncommitted batch, never
// the log.

#ifndef STCOMP_STORE_WAL_H_
#define STCOMP_STORE_WAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"
#include "stcomp/store/durable_file.h"
#include "stcomp/store/serialization.h"

namespace stcomp {

enum class WalRecordType : uint8_t {
  kAppend = 1,
  kInsert = 2,
  kRemove = 3,
  kCommit = 4,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  std::string object_id;  // kAppend / kInsert / kRemove.
  TimedPoint point;       // kAppend.
  std::string payload;    // kInsert: one serialized trajectory frame.

  static WalRecord Append(std::string object_id, const TimedPoint& point);
  static WalRecord Insert(std::string object_id, std::string frame);
  static WalRecord Remove(std::string object_id);
  static WalRecord Commit();
};

// One serialized frame (magic + payload + crc).
std::string EncodeWalFrame(const WalRecord& record);

// Strict single-frame decode from the front of `*input`, advancing it.
// kDataLoss on any corruption (the salvaging scanner wraps this).
Result<WalRecord> DecodeWalFrame(std::string_view* input);

// The salvage counters (serialization.h SalvageStats) plus the batch
// accounting.
struct WalScanStats : SalvageStats {
  size_t records_replayed = 0;   // Committed records returned.
  size_t records_dropped_uncommitted = 0;  // After the last commit marker.
};

// Salvaging scan of a whole log image: returns every record of every
// committed batch, in order. Never fails — corruption shrinks the result
// and grows `stats` (may be null) instead.
std::vector<WalRecord> ScanWal(std::string_view image, WalScanStats* stats);

// Append-only writer with group commit. Not thread-safe. After a write
// failure (including an injected crash) the writer is dead: every further
// operation returns the original error, like talking to a gone process.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Opens (creates) `path` for appending.
  Status Open(const std::string& path);

  // Stages one record for the current batch (no I/O).
  Status Append(const WalRecord& record);

  // Writes every staged frame plus a commit marker (one write boundary
  // per frame), then fsyncs. On return OK the batch is durable.
  Status Commit();

  // Drops the log's contents (after a checkpoint made it redundant).
  Status Truncate();

  size_t staged_records() const { return staged_.size(); }
  bool dead() const { return !death_.ok(); }

  // Crash-injection seam (testing): consulted at every write boundary;
  // `boundary` (may be null) is shared with the caller's other durable
  // writes so a CrashPlan can target a global boundary index.
  void set_write_hook(WriteFaultHook hook, size_t* boundary);

 private:
  Status CheckAlive() const;
  // Marks the writer dead with `status`, leaves a kWalDeath flight event
  // and triggers an automatic flight dump — the recorder holds the last
  // moments before the failure.
  Status Die(Status status);

  int fd_ = -1;
  std::string path_;
  std::vector<std::string> staged_;  // Encoded frames awaiting Commit().
  WriteFaultHook hook_;
  size_t own_boundary_ = 0;
  size_t* boundary_ = &own_boundary_;
  Status death_;  // First fatal error; OK while alive.
};

}  // namespace stcomp

#endif  // STCOMP_STORE_WAL_H_
