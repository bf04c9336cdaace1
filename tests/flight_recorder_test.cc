// Flight-recorder tests: lock-free ring semantics, the exact
// drop-accounting invariant under racing writers (the TSan suite runs
// this file too), dump sink/budget plumbing, and the automatic dump on
// WAL sticky death.
//
// The invariant under test, from flight_recorder.h:
//
//   delivered-by-Drain + dropped() + still-buffered == total_recorded()

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "stcomp/obs/flight_recorder.h"
#include "stcomp/obs/trace.h"
#include "stcomp/store/durable_file.h"
#include "stcomp/store/wal.h"

namespace stcomp::obs {
namespace {

TEST(FlightCodeTest, NamesAreStableIdentifiers) {
  EXPECT_EQ(FlightCodeName(FlightCode::kNone), "none");
  EXPECT_EQ(FlightCodeName(FlightCode::kFleetPush), "fleet_push");
  EXPECT_EQ(FlightCodeName(FlightCode::kWalCommit), "wal_commit");
  EXPECT_EQ(FlightCodeName(FlightCode::kWalDeath), "wal_death");
  EXPECT_EQ(FlightCodeName(FlightCode::kFsckCorrupt), "fsck_corrupt");
  EXPECT_EQ(FlightCodeName(FlightCode::kProbe), "probe");
  EXPECT_EQ(FlightCodeName(FlightCode::kFleetDrain), "fleet_drain");
}

TEST(FlightRecorderTest, RecordSnapshotDrainRoundTrip) {
  FlightRecorder recorder(/*capacity_per_thread=*/16, /*max_threads=*/4);
  recorder.Record(FlightCode::kProbe, "alpha", 1, 2);
  recorder.Record(FlightCode::kWalCommit, "beta", 3, 4);
  EXPECT_EQ(recorder.total_recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const std::vector<FlightEvent> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].code, FlightCode::kProbe);
  EXPECT_STREQ(snapshot[0].tag, "alpha");
  EXPECT_EQ(snapshot[0].arg0, 1u);
  EXPECT_EQ(snapshot[0].arg1, 2u);
  EXPECT_EQ(snapshot[0].thread_id, CurrentThreadId());
  EXPECT_EQ(snapshot[1].code, FlightCode::kWalCommit);
  EXPECT_STREQ(snapshot[1].tag, "beta");

  // Snapshot is non-destructive; Drain consumes.
  EXPECT_EQ(recorder.Snapshot().size(), 2u);
  EXPECT_EQ(recorder.Drain().size(), 2u);
  EXPECT_TRUE(recorder.Drain().empty());
  // Everything was delivered; nothing was lost.
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 2u);
}

TEST(FlightRecorderTest, TagsTruncateAtCapacityMinusOne) {
  FlightRecorder recorder(8, 1);
  const std::string long_tag(64, 'x');
  recorder.Record(FlightCode::kProbe, long_tag);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].tag), FlightRecorder::kTagCapacity - 1);
  EXPECT_EQ(std::string(events[0].tag),
            std::string(FlightRecorder::kTagCapacity - 1, 'x'));
}

TEST(FlightRecorderTest, RingLapIsAccountedExactly) {
  constexpr size_t kCapacity = 8;
  FlightRecorder recorder(kCapacity, 1);
  constexpr uint64_t kRecords = 20;
  for (uint64_t i = 0; i < kRecords; ++i) {
    recorder.Record(FlightCode::kProbe, "lap", i);
  }
  // Snapshot sees at most one ring's worth, the newest events.
  const std::vector<FlightEvent> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), kCapacity);
  EXPECT_EQ(snapshot.front().arg0, kRecords - kCapacity);
  EXPECT_EQ(snapshot.back().arg0, kRecords - 1);

  // Drain delivers the survivors and accounts every lapped sequence
  // number: delivered + dropped == total_recorded.
  const std::vector<FlightEvent> drained = recorder.Drain();
  EXPECT_EQ(drained.size(), kCapacity);
  EXPECT_EQ(recorder.dropped(), kRecords - kCapacity);
  EXPECT_EQ(recorder.total_recorded(), kRecords);
  EXPECT_EQ(drained.size() + recorder.dropped(), recorder.total_recorded());
}

TEST(FlightRecorderTest, NoFreeSlotCountsAsRecordedAndDropped) {
  FlightRecorder recorder(8, /*max_threads=*/1);
  recorder.Record(FlightCode::kProbe, "owner");  // claims the only slot
  std::thread other([&recorder] {
    recorder.Record(FlightCode::kProbe, "refused");
    recorder.Record(FlightCode::kProbe, "refused");
  });
  other.join();
  EXPECT_EQ(recorder.total_recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const std::vector<FlightEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].tag, "owner");
  EXPECT_EQ(events.size() + recorder.dropped(), recorder.total_recorded());
}

// The acceptance invariant under contention: many writers hammer small
// rings while a drainer races them; at the end every sequence number must
// be either delivered or counted dropped, exactly once. Runs under TSan
// in the sanitizer configuration of scripts/check.sh.
TEST(FlightRecorderTest, DropCounterAccountsEveryLostEventUnderRaces) {
  constexpr size_t kWriters = 8;
  constexpr uint64_t kRecordsPerWriter = 5000;
  // Small rings force heavy lapping; enough slots that nobody is refused.
  FlightRecorder recorder(/*capacity_per_thread=*/32,
                          /*max_threads=*/kWriters + 4);

  std::atomic<bool> stop{false};
  uint64_t delivered = 0;
  std::thread drainer([&recorder, &stop, &delivered] {
    while (!stop.load(std::memory_order_acquire)) {
      delivered += recorder.Drain().size();
    }
  });

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      const std::string tag = "writer-" + std::to_string(w);
      for (uint64_t i = 0; i < kRecordsPerWriter; ++i) {
        recorder.Record(FlightCode::kProbe, tag, i, w);
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true, std::memory_order_release);
  drainer.join();
  // Writers are gone: a final drain empties every ring.
  delivered += recorder.Drain().size();

  EXPECT_EQ(recorder.total_recorded(), kWriters * kRecordsPerWriter);
  EXPECT_EQ(delivered + recorder.dropped(), recorder.total_recorded());
  // Sanity: with rings this small against a burst this large, losses are
  // expected — the invariant must hold *with* a non-trivial drop count.
  EXPECT_GT(delivered, 0u);
}

TEST(FlightRecorderTest, SnapshotIsSafeAgainstConcurrentWriters) {
  constexpr size_t kWriters = 4;
  FlightRecorder recorder(16, kWriters + 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        recorder.Record(FlightCode::kProbe, "snap");
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    for (const FlightEvent& event : recorder.Snapshot()) {
      // Torn reads must have been filtered out: every delivered event is
      // internally consistent.
      ASSERT_EQ(event.code, FlightCode::kProbe);
      ASSERT_STREQ(event.tag, "snap");
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& writer : writers) {
    writer.join();
  }
}

TEST(FlightRenderTest, TextAndJsonCarryEveryField) {
  FlightRecorder recorder(8, 1);
  recorder.Record(FlightCode::kWalCommit, "seg.stwal", 7, 42);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  const std::string text = RenderFlightText(events);
  EXPECT_NE(text.find("wal_commit"), std::string::npos) << text;
  EXPECT_NE(text.find("seg.stwal"), std::string::npos) << text;
  EXPECT_NE(text.find("arg0=7"), std::string::npos) << text;
  EXPECT_NE(text.find("arg1=42"), std::string::npos) << text;
  const std::string json = RenderFlightJson(events);
  EXPECT_NE(json.find("\"code\": \"wal_commit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tag\": \"seg.stwal\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"arg0\": 7"), std::string::npos) << json;
  EXPECT_EQ(RenderFlightJson({}), "[]\n");
}

TEST(FlightRenderTest, JsonEscapesHostileTagBytes) {
  FlightRecorder recorder(8, 1);
  recorder.Record(FlightCode::kProbe, "a\"b\\c\x01" "d");
  const std::string json = RenderFlightJson(recorder.Snapshot());
  EXPECT_NE(json.find("\"tag\": \"a\\\"b\\\\c\\u0001d\""),
            std::string::npos)
      << json;
}

// RAII guard: capture dumps in a vector, restore the previous sink and a
// sane budget on the way out so later tests see the default behaviour.
class CapturedDumps {
 public:
  CapturedDumps() {
    previous_ = FlightRecorder::SetDumpSink(
        [this](std::string_view reason, const std::string& text) {
          reasons_.push_back(std::string(reason));
          texts_.push_back(text);
        });
  }
  ~CapturedDumps() {
    FlightRecorder::SetDumpSink(std::move(previous_));
    FlightRecorder::SetDumpBudgetForTest(8);
  }
  const std::vector<std::string>& reasons() const { return reasons_; }
  const std::vector<std::string>& texts() const { return texts_; }

 private:
  FlightRecorder::DumpSink previous_;
  std::vector<std::string> reasons_;
  std::vector<std::string> texts_;
};

TEST(FlightDumpTest, DumpGlobalRespectsBudget) {
  CapturedDumps dumps;
  FlightRecorder::SetDumpBudgetForTest(2);
  FlightRecorder::DumpGlobal("first");
  FlightRecorder::DumpGlobal("second");
  FlightRecorder::DumpGlobal("suppressed");
  ASSERT_EQ(dumps.reasons().size(), 2u);
  EXPECT_EQ(dumps.reasons()[0], "first");
  EXPECT_EQ(dumps.reasons()[1], "second");
  // The dump body is the rendered global snapshot, whatever it holds.
  EXPECT_NE(dumps.texts()[0].find("flight recorder:"), std::string::npos);
}

#if STCOMP_METRICS_ENABLED
// Acceptance: a WAL sticky death dumps the flight recorder automatically,
// and the dump holds the events leading up to the failing boundary —
// including the kWalDeath event naming the file and boundary index.
TEST(FlightDumpTest, WalStickyDeathTriggersDumpWithFailingBoundary) {
  const std::string dir = ::testing::TempDir() + "flight_dump_wal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  CapturedDumps dumps;
  FlightRecorder::SetDumpBudgetForTest(1);

  WalWriter writer;
  ASSERT_TRUE(writer.Open(dir + "/death.stwal").ok());
  // A healthy commit first, so the dump shows normal traffic before the
  // failure (the "last moments" the recorder exists for).
  WalRecord record = WalRecord::Append("obj-dump", TimedPoint(1.0, 2.0, 3.0));
  ASSERT_TRUE(writer.Append(record).ok());
  ASSERT_TRUE(writer.Commit().ok());

  size_t boundary = 0;
  writer.set_write_hook(
      [](size_t, std::string_view) {
        return WriteFault{WriteFault::Action::kCrash, 0, ""};
      },
      &boundary);
  ASSERT_TRUE(writer.Append(record).ok());
  EXPECT_EQ(writer.Commit().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(writer.dead());

  ASSERT_EQ(dumps.reasons().size(), 1u);
  EXPECT_NE(dumps.reasons()[0].find("wal sticky death"), std::string::npos);
  const std::string& text = dumps.texts()[0];
  EXPECT_NE(text.find("wal_death"), std::string::npos) << text;
  // Both the death event and the earlier healthy commit are tagged with
  // the WAL file's name.
  EXPECT_NE(text.find("death.stwal"), std::string::npos) << text;
  EXPECT_NE(text.find("wal_commit"), std::string::npos) << text;

  // The death already burned the budget; a second death cannot flood.
  EXPECT_EQ(writer.Commit().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dumps.reasons().size(), 1u);
  std::filesystem::remove_all(dir);
}
#endif  // STCOMP_METRICS_ENABLED

}  // namespace
}  // namespace stcomp::obs
