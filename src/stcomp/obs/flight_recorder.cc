#include "stcomp/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/obs/exposition.h"
#include "stcomp/obs/trace.h"

// GCC's ThreadSanitizer cannot instrument atomic_thread_fence (it
// promotes the gap to -Werror=tsan), so under TSan the fence-based
// seqlock edges below are replaced with equivalent-or-stronger
// per-operation orderings: an acq_rel exchange for the writer's
// invalidate-before-payload edge, acquire payload loads for the
// reader's payload-before-recheck edge.
#if defined(__SANITIZE_THREAD__)
#define STCOMP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STCOMP_TSAN 1
#endif
#endif
#ifndef STCOMP_TSAN
#define STCOMP_TSAN 0
#endif

namespace stcomp::obs {

namespace {

#if STCOMP_TSAN
constexpr std::memory_order kPayloadLoadOrder = std::memory_order_acquire;
#else
constexpr std::memory_order kPayloadLoadOrder = std::memory_order_relaxed;
#endif

// Last recorder this thread wrote to. Keyed by a never-reused instance id,
// so an entry for a destroyed recorder can never be mistaken for a live
// one; on miss we fall back to scanning for a slot we already own.
struct CachedSlot {
  uint64_t instance_id = 0;
  void* slot = nullptr;
};
thread_local CachedSlot tls_cached_slot;

std::atomic<uint64_t> g_next_instance_id{1};

// Coarse event clock: reading the real clock costs ~35ns — most of a
// Record() — so only every 64th record per thread refreshes it; the rest
// reload the last published value (~1ns). Within a thread, seq keeps the
// exact order; across threads, timestamps are accurate to one refresh
// interval, which is plenty for last-moments forensics.
std::atomic<uint64_t> g_coarse_clock_us{0};

uint64_t CoarseNowMicros(uint64_t seq) {
  if ((seq & 63) == 0) {
    const uint64_t now = TraceBuffer::NowMicros();
    g_coarse_clock_us.store(now, std::memory_order_relaxed);
    return now;
  }
  return g_coarse_clock_us.load(std::memory_order_relaxed);
}

void DefaultDumpSink(std::string_view reason, const std::string& text) {
  std::fprintf(stderr, "=== stcomp flight-recorder dump: %.*s ===\n%s=== end flight dump ===\n",
               static_cast<int>(reason.size()), reason.data(), text.c_str());
}

std::mutex& DumpMutex() {
  static std::mutex mu;
  return mu;
}

FlightRecorder::DumpSink& DumpSinkRef() {
  static FlightRecorder::DumpSink sink = DefaultDumpSink;
  return sink;
}

std::atomic<uint64_t>& DumpBudget() {
  static std::atomic<uint64_t> budget{8};
  return budget;
}

bool EventOrder(const FlightEvent& a, const FlightEvent& b) {
  if (a.t_us != b.t_us) return a.t_us < b.t_us;
  if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
  return a.seq < b.seq;
}

size_t RoundUpPow2(size_t n) {
  size_t pow2 = 1;
  while (pow2 < n) {
    pow2 <<= 1;
  }
  return pow2;
}

}  // namespace

std::string_view FlightCodeName(FlightCode code) {
  switch (code) {
    case FlightCode::kNone:
      return "none";
    case FlightCode::kFleetPush:
      return "fleet_push";
    case FlightCode::kFleetFinishObject:
      return "fleet_finish_object";
    case FlightCode::kGateDrop:
      return "gate_drop";
    case FlightCode::kGateRepair:
      return "gate_repair";
    case FlightCode::kGateQuarantine:
      return "gate_quarantine";
    case FlightCode::kGateRejected:
      return "gate_rejected";
    case FlightCode::kStoreAppend:
      return "store_append";
    case FlightCode::kWalCommit:
      return "wal_commit";
    case FlightCode::kWalTruncate:
      return "wal_truncate";
    case FlightCode::kWalDeath:
      return "wal_death";
    case FlightCode::kCheckpoint:
      return "checkpoint";
    case FlightCode::kRecovery:
      return "recovery";
    case FlightCode::kFsckCorrupt:
      return "fsck_corrupt";
    case FlightCode::kProbe:
      return "probe";
    case FlightCode::kFleetDrain:
      return "fleet_drain";
    case FlightCode::kShardBackpressure:
      return "shard_backpressure";
    case FlightCode::kShardError:
      return "shard_error";
    case FlightCode::kNetAccept:
      return "net_accept";
    case FlightCode::kNetShed:
      return "net_shed";
    case FlightCode::kNetProtocolError:
      return "net_protocol_error";
    case FlightCode::kNetDrain:
      return "net_drain";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked singleton, same rationale as MetricsRegistry::Global().
  static FlightRecorder* const kGlobal = new FlightRecorder;
  return *kGlobal;
}

FlightRecorder::FlightRecorder(size_t capacity_per_thread, size_t max_threads)
    : capacity_(RoundUpPow2(capacity_per_thread)),
      ring_mask_(capacity_ - 1),
      max_threads_(max_threads),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      slots_(new Slot[max_threads]) {
  STCOMP_CHECK(capacity_per_thread > 0);
  STCOMP_CHECK(max_threads_ > 0);
}

FlightRecorder::Slot* FlightRecorder::AcquireSlot() {
  if (tls_cached_slot.instance_id == instance_id_) {
    return static_cast<Slot*>(tls_cached_slot.slot);
  }
  const uint32_t tid = CurrentThreadId();
  // This thread may have claimed a slot before the cache moved on to
  // another recorder instance.
  for (size_t i = 0; i < max_threads_; ++i) {
    if (slots_[i].owner.load(std::memory_order_relaxed) == tid) {
      tls_cached_slot = {instance_id_, &slots_[i]};
      return &slots_[i];
    }
  }
  // Claim a fresh slot: winning the owner CAS makes this thread the only
  // writer of `ring`, which is then published through `ready` (release)
  // for Snapshot/Drain/total_recorded (acquire).
  for (size_t i = 0; i < max_threads_; ++i) {
    uint32_t expected = 0;
    if (!slots_[i].owner.compare_exchange_strong(expected, tid,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
      continue;
    }
    slots_[i].thread_bits = static_cast<uint64_t>(tid) << 16;
    slots_[i].ring.reset(new Entry[capacity_]);
    slots_[i].ready.store(true, std::memory_order_release);
    claimed_slots_.fetch_add(1, std::memory_order_relaxed);
    tls_cached_slot = {instance_id_, &slots_[i]};
    return &slots_[i];
  }
  return nullptr;
}

void FlightRecorder::Record(FlightCode code, std::string_view tag,
                            uint64_t arg0, uint64_t arg1) {
  Slot* slot = AcquireSlot();
  if (slot == nullptr) {
    // More live threads than slots: count the refusal as both a record
    // and a drop so the accounting invariant still balances.
    no_slot_records_.fetch_add(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t seq = slot->head.load(std::memory_order_relaxed);
  Entry& e = slot->ring[seq & ring_mask_];
  // Seqlock write protocol: invalidate, publish payload, stamp. The
  // release fence orders the invalidation before the payload stores so a
  // racing reader can never pair an old stamp with new payload bytes.
#if STCOMP_TSAN
  e.seq.exchange(Entry::kInvalidSeq, std::memory_order_acq_rel);
#else
  e.seq.store(Entry::kInvalidSeq, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
#endif
  e.t_us.store(CoarseNowMicros(seq), std::memory_order_relaxed);
  e.code_thread.store(static_cast<uint64_t>(code) | slot->thread_bits,
                      std::memory_order_relaxed);
  e.arg0.store(arg0, std::memory_order_relaxed);
  e.arg1.store(arg1, std::memory_order_relaxed);
  char bytes[kTagCapacity] = {};
  const size_t n = std::min(tag.size(), kTagCapacity - 1);
  std::memcpy(bytes, tag.data(), n);
  for (size_t w = 0; w < kTagCapacity / 8; ++w) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + w * 8, 8);
    e.tag_words[w].store(word, std::memory_order_relaxed);
  }
  e.seq.store(seq, std::memory_order_release);
  slot->head.store(seq + 1, std::memory_order_release);
}

bool FlightRecorder::ReadEntry(const Slot& slot, uint64_t seq,
                               FlightEvent* out) const {
  const Entry& e = slot.ring[seq & ring_mask_];
  if (e.seq.load(std::memory_order_acquire) != seq) {
    return false;
  }
  out->seq = seq;
  out->t_us = e.t_us.load(kPayloadLoadOrder);
  const uint64_t code_thread = e.code_thread.load(kPayloadLoadOrder);
  out->code = static_cast<FlightCode>(code_thread & 0xffff);
  out->thread_id = static_cast<uint32_t>(code_thread >> 16);
  out->arg0 = e.arg0.load(kPayloadLoadOrder);
  out->arg1 = e.arg1.load(kPayloadLoadOrder);
  char bytes[kTagCapacity];
  for (size_t w = 0; w < kTagCapacity / 8; ++w) {
    const uint64_t word = e.tag_words[w].load(kPayloadLoadOrder);
    std::memcpy(bytes + w * 8, &word, 8);
  }
  bytes[kTagCapacity - 1] = '\0';
  std::memcpy(out->tag, bytes, kTagCapacity);
  // Re-check the stamp after the payload loads (the acquire fence — or,
  // under TSan, the acquire payload loads — keeps it from hoisting above
  // them): an overwrite mid-read flips it.
#if !STCOMP_TSAN
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return e.seq.load(std::memory_order_relaxed) == seq;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  for (size_t i = 0; i < max_threads_; ++i) {
    const Slot& slot = slots_[i];
    if (!slot.ready.load(std::memory_order_acquire)) {
      continue;
    }
    const uint64_t head = slot.head.load(std::memory_order_acquire);
    const uint64_t lo = head > capacity_ ? head - capacity_ : 0;
    for (uint64_t seq = lo; seq < head; ++seq) {
      FlightEvent ev;
      if (ReadEntry(slot, seq, &ev)) {
        events.push_back(ev);
      }
    }
  }
  std::sort(events.begin(), events.end(), EventOrder);
  return events;
}

std::vector<FlightEvent> FlightRecorder::Drain() {
  std::vector<FlightEvent> events;
  for (size_t i = 0; i < max_threads_; ++i) {
    Slot& slot = slots_[i];
    if (!slot.ready.load(std::memory_order_acquire)) {
      continue;
    }
    const uint64_t head = slot.head.load(std::memory_order_acquire);
    uint64_t lo = slot.cursor;
    if (head > lo + capacity_) {
      // The ring lapped the cursor: those sequence numbers are gone for
      // good — account them before reading what survives.
      const uint64_t lost = head - capacity_ - lo;
      dropped_.fetch_add(lost, std::memory_order_relaxed);
      lo = head - capacity_;
    }
    for (uint64_t seq = lo; seq < head; ++seq) {
      FlightEvent ev;
      if (ReadEntry(slot, seq, &ev)) {
        events.push_back(ev);
      } else {
        // Overwritten between the head load and the read; the replacing
        // event has seq >= head and will be seen by the next drain.
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    slot.cursor = head;
  }
  std::sort(events.begin(), events.end(), EventOrder);
  return events;
}

uint64_t FlightRecorder::total_recorded() const {
  uint64_t total = no_slot_records_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < max_threads_; ++i) {
    if (slots_[i].ready.load(std::memory_order_acquire)) {
      total += slots_[i].head.load(std::memory_order_relaxed);
    }
  }
  return total;
}

FlightRecorder::DumpSink FlightRecorder::SetDumpSink(DumpSink sink) {
  std::lock_guard<std::mutex> lock(DumpMutex());
  DumpSink previous = std::move(DumpSinkRef());
  DumpSinkRef() = sink ? std::move(sink) : DefaultDumpSink;
  return previous;
}

void FlightRecorder::DumpGlobal(std::string_view reason) {
  // Consume one unit of the process-wide budget; give up when exhausted
  // (a fuzz loop hitting thousands of sticky deaths must not flood).
  auto& budget = DumpBudget();
  uint64_t remaining = budget.load(std::memory_order_relaxed);
  do {
    if (remaining == 0) {
      return;
    }
  } while (!budget.compare_exchange_weak(remaining, remaining - 1,
                                         std::memory_order_relaxed));
  const std::string text = RenderFlightText(Global().Snapshot());
  std::lock_guard<std::mutex> lock(DumpMutex());
  DumpSinkRef()(reason, text);
}

void FlightRecorder::SetDumpBudgetForTest(uint64_t budget) {
  DumpBudget().store(budget, std::memory_order_relaxed);
}

std::string RenderFlightText(const std::vector<FlightEvent>& events) {
  std::string out;
  out.reserve(events.size() * 64 + 64);
  out += StrFormat("flight recorder: %zu event(s)\n", events.size());
  for (const FlightEvent& e : events) {
    out += StrFormat("%12.3fms t%02u #%-6llu %-20s %-23s arg0=%llu arg1=%llu\n",
                     static_cast<double>(e.t_us) / 1000.0, e.thread_id,
                     static_cast<unsigned long long>(e.seq),
                     std::string(FlightCodeName(e.code)).c_str(), e.tag,
                     static_cast<unsigned long long>(e.arg0),
                     static_cast<unsigned long long>(e.arg1));
  }
  return out;
}

std::string RenderFlightJson(const std::vector<FlightEvent>& events) {
  std::string out = "[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i > 0) out += ",";
    // Tags are NUL-terminated (object ids, file stems).
    const std::string tag = JsonEscape(e.tag);
    out += StrFormat(
        "\n  {\"seq\": %llu, \"t_us\": %llu, \"thread_id\": %u, "
        "\"code\": \"%s\", \"tag\": \"%s\", \"arg0\": %llu, \"arg1\": %llu}",
        static_cast<unsigned long long>(e.seq),
        static_cast<unsigned long long>(e.t_us), e.thread_id,
        std::string(FlightCodeName(e.code)).c_str(), tag.c_str(),
        static_cast<unsigned long long>(e.arg0),
        static_cast<unsigned long long>(e.arg1));
  }
  out += events.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace stcomp::obs
