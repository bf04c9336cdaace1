#include "stcomp/obs/trace.h"

#include <atomic>

#include "stcomp/common/check.h"

namespace stcomp::obs {

namespace {

// Per-thread span stack: only the active flag and span id of each open
// span are needed to wire children to parents; spans are strictly nested
// by construction (RAII). A fixed POD array instead of a vector keeps the
// not-sampled hot path to a TLS access plus two plain stores — no
// thread_local init guard, no allocation, no capacity check on pop.
// Nesting deeper than the array (never happens in practice — the pipeline
// is ~4 levels) records nothing for the overflowing spans.
struct SpanFrame {
  uint64_t span_id;
  bool active;
};

constexpr size_t kMaxSpanDepth = 64;

struct SpanStack {
  uint32_t depth = 0;
  SpanFrame frames[kMaxSpanDepth] = {};
};

// The `= {}` on frames makes the whole struct constant-initializable, so
// the TLS access below is a plain address computation — no per-access
// dynamic-init guard on the hot path.
thread_local constinit SpanStack tls_span_stack;

std::atomic<uint64_t> g_next_span_id{1};

// Read on every sampled root, so one relaxed load with no init guard.
constinit std::atomic<uint64_t> g_sampled_root_period{
    TraceBuffer::kDefaultSampledRootPeriod};

}  // namespace

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

TraceBuffer& TraceBuffer::Global() {
  // Leaked singleton, same rationale as MetricsRegistry::Global().
  static TraceBuffer* const kGlobal = new TraceBuffer;
  return *kGlobal;
}

TraceBuffer::TraceBuffer(size_t capacity) : capacity_(capacity) {
  STCOMP_CHECK(capacity_ > 0);
  ring_.reserve(capacity_);
}

void TraceBuffer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  // Once wrapped, ring_[next_] is the oldest event.
  for (size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return events;
}

uint64_t TraceBuffer::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

uint64_t TraceBuffer::NowMicros() {
  static const std::chrono::steady_clock::time_point kEpoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

uint64_t TraceBuffer::SetSampledRootPeriod(uint64_t period) {
  STCOMP_CHECK(period >= 1);
  return g_sampled_root_period.exchange(period, std::memory_order_relaxed);
}

uint64_t TraceBuffer::SampledRootPeriod() {
  return g_sampled_root_period.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(std::string_view name, std::string_view detail,
                     TraceBuffer* buffer, bool sampled_root)
    : buffer_(buffer) {
  SpanStack& stack = tls_span_stack;
  if (stack.depth > 0) {
    // A descendant inherits the root's record-or-not decision wholesale:
    // a recorded tree is complete, an unrecorded one costs nothing.
    const SpanFrame& top = stack.frames[stack.depth - 1];
    active_ = top.active;
    parent_id_ = top.span_id;
  } else if (sampled_root) {
    const uint64_t period = TraceBuffer::SampledRootPeriod();
    thread_local uint64_t tick = 0;
    active_ = (tick++ % period) == 0;
  } else {
    active_ = true;
  }
  if (stack.depth >= kMaxSpanDepth) {
    // Overflow: give up on recording this span but keep the destructor's
    // pop balanced by not pushing (buffer_ == nullptr marks it).
    active_ = false;
    buffer_ = nullptr;
    return;
  }
  if (active_) {
    span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    name_.assign(name);
    detail_.assign(detail);
    start_us_ = TraceBuffer::NowMicros();
  }
  stack.frames[stack.depth] = SpanFrame{span_id_, active_};
  ++stack.depth;
}

TraceSpan::~TraceSpan() {
  if (buffer_ == nullptr) {
    return;  // overflow span: never pushed a frame
  }
  --tls_span_stack.depth;
  if (!active_) {
    return;
  }
  TraceEvent event;
  event.name = std::move(name_);
  event.detail = std::move(detail_);
  event.start_us = start_us_;
  event.duration_us = TraceBuffer::NowMicros() - start_us_;
  event.span_id = span_id_;
  event.parent_id = parent_id_;
  event.thread_id = CurrentThreadId();
  buffer_->Record(std::move(event));
}

}  // namespace stcomp::obs
