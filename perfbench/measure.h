// Measurement primitives for the end-to-end benchmark: clocks (wall and
// per-thread CPU), order statistics, a log-bucketed latency histogram for
// per-fix calls, host steal from /proc/stat, an RSS sampler thread, and the
// in-memory span log the traced run writes out at exit.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <pthread.h>
#include <time.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds consumed so far by `clock` (a thread or process CPU clock).
double CpuSeconds(clockid_t clock);
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
inline double ProcessCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}
// The calling thread's CPU clock, readable from any thread of the process
// while this one is alive.
clockid_t CurrentThreadCpuClock();

// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Latency histogram in nanoseconds: 16 linear sub-buckets per power of
// two (at most ~6% relative error), so per-fix calls can be recorded for
// the whole run without keeping every sample.
class Histogram {
 public:
  void Add(int64_t ns);
  void Merge(const Histogram& other);
  // Midpoint of the bucket holding the q-quantile, in microseconds.
  double QuantileUs(double q) const;

 private:
  static constexpr int kSubBits = 4;
  static constexpr int kBuckets = 64 << kSubBits;
  static int BucketOf(uint64_t ns);
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

// Aggregate jiffies from the first line of /proc/stat.
struct HostCpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpuTimes ReadHostCpuTimes();
// steal ÷ all jiffies between two readings (0 when nothing elapsed).
double StealFraction(const HostCpuTimes& begin, const HostCpuTimes& end);

// Resident set size of this process right now, in MiB.
double CurrentRssMb();

// Samples this process's RSS every few milliseconds on its own thread,
// keeping the maximum. Its own CPU is readable so it can be subtracted
// from the server-side CPU.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double PeakMb() const { return peak_mb_.load(std::memory_order_relaxed); }
  double CpuSeconds() const { return perfbench::CpuSeconds(clock_); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{0.0};
  std::thread thread_;
  clockid_t clock_ = CLOCK_THREAD_CPUTIME_ID;
};

// One finished span: a layer call made by the benchmark, or a phase
// (setup, ingest, checkpoint[i], drain, query) that parents such calls.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the log; -1 for a round's root
  uint32_t thread = 0;  // 0 = benchmark main thread, 1.. = generators
};

// Spans kept in memory until exit. Phase spans are opened and closed by
// the main thread; generator threads collect their spans locally and hand
// them over in one call when they finish.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns the new span's id (-1 when disabled).
  int32_t Open(std::string name, int32_t parent);
  void Close(int32_t id);
  void Add(std::vector<Span> spans);

  // {"spans":[...]} with start/end in microseconds from the first span.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
