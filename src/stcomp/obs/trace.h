// Causal trace spans: named start/duration events with span contexts —
// span id, parent id, thread id, free-form tag — recorded into a bounded
// ring buffer. Spans answer "what did this process just do, in what order,
// nested how, and how long did each step take" — the per-request view the
// aggregate metrics in metrics.h deliberately blur.
//
// Causality: every thread keeps an implicit span stack. A TraceSpan
// constructed while another span is open on the same thread becomes its
// child (parent_id links the two), so one object's journey through the
// pipeline — ingest gate → compressor → WAL append → segment checkpoint —
// is a connected tree as long as the layers run in one call stack.
// RenderTraceTree (exposition.h) reconstructs the forest; the Perfetto
// exporter loads it straight into chrome://tracing.
//
// Sampling: coarse spans (an object finish, a checkpoint) record always
// via STCOMP_TRACE_SPAN. Hot-path roots (a per-fix push) use
// STCOMP_TRACE_SPAN_SAMPLED: the record decision is made once at the root
// (1 in SampledRootPeriod() by default) and inherited by every descendant,
// so a sampled trace is always a *complete* tree, never a torn one.
// Inactive spans never touch the buffer, never allocate, and cost a few
// branches. Recording takes a mutex — acceptable because sampling keeps
// it off the per-fix fast path; truly per-event evidence belongs in the
// lock-free flight recorder (flight_recorder.h).

#ifndef STCOMP_OBS_TRACE_H_
#define STCOMP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/obs/metrics.h"

namespace stcomp::obs {

// Small, dense per-process thread number (1, 2, 3, ... in first-use
// order) — stable for the thread's lifetime, never 0. Used by trace
// spans and the flight recorder so events from SweepManyParallel workers
// and the admin server are distinguishable.
uint32_t CurrentThreadId();

struct TraceEvent {
  std::string name;    // span name, e.g. "fleet.finish_object"
  std::string detail;  // free-form instance tag, e.g. the object id
  uint64_t start_us = 0;     // microseconds since the process trace epoch
  uint64_t duration_us = 0;  // span length in microseconds
  uint64_t span_id = 0;      // unique per recorded span; never 0
  uint64_t parent_id = 0;    // enclosing span on the same thread; 0 = root
  uint32_t thread_id = 0;    // CurrentThreadId() of the recording thread
};

class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  static TraceBuffer& Global();

  explicit TraceBuffer(size_t capacity = kDefaultCapacity);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void Record(TraceEvent event);

  // Buffered events, oldest first (at most `capacity` of them).
  std::vector<TraceEvent> Snapshot() const;

  // Events recorded over the buffer's lifetime, including overwritten ones.
  uint64_t total_recorded() const;
  size_t capacity() const { return capacity_; }

  void Clear();

  // Microseconds since the first call in this process (the trace epoch).
  static uint64_t NowMicros();

  // Head-sampling period for STCOMP_TRACE_SPAN_SAMPLED roots: 1 in
  // `period` hot-path root spans records (per thread), starting at
  // kDefaultSampledRootPeriod. Setting 1 traces every push — the switch
  // tests and the /tracez acceptance path flip. Returns the previous
  // period; `period` must be >= 1.
  static constexpr uint64_t kDefaultSampledRootPeriod = 64;
  static uint64_t SetSampledRootPeriod(uint64_t period);
  static uint64_t SampledRootPeriod();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;        // ring_[next_] is the oldest once wrapped
  uint64_t total_ = 0;
};

// RAII span: captures the start time at construction, records the event
// on destruction, and maintains the thread's span stack so descendants
// link to it. `sampled_root` marks a hot-path root: when constructed with
// an empty stack it consults the sampling period and may deactivate the
// whole subtree (descendants inherit the decision).
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name, std::string_view detail = {},
                     TraceBuffer* buffer = &TraceBuffer::Global(),
                     bool sampled_root = false);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }
  // 0 when the span is inactive (not sampled).
  uint64_t span_id() const { return span_id_; }

 private:
  TraceBuffer* buffer_;
  std::string name_;    // materialized only when active
  std::string detail_;  // materialized only when active
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_us_ = 0;
  bool active_ = false;
};

}  // namespace stcomp::obs

#if STCOMP_METRICS_ENABLED
#define STCOMP_TRACE_SPAN(name, detail)                             \
  ::stcomp::obs::TraceSpan STCOMP_OBS_CONCAT_(stcomp_obs_span_,     \
                                              __LINE__)(name, detail)
// Hot-path root: records 1 in TraceBuffer::SampledRootPeriod() trees.
#define STCOMP_TRACE_SPAN_SAMPLED(name, detail)                     \
  ::stcomp::obs::TraceSpan STCOMP_OBS_CONCAT_(stcomp_obs_span_,     \
                                              __LINE__)(            \
      name, detail, &::stcomp::obs::TraceBuffer::Global(), true)
#else
#define STCOMP_TRACE_SPAN(name, detail) \
  do {                                  \
  } while (false)
#define STCOMP_TRACE_SPAN_SAMPLED(name, detail) \
  do {                                          \
  } while (false)
#endif

#endif  // STCOMP_OBS_TRACE_H_
