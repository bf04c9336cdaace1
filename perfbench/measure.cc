#include "measure.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

clockid_t CurrentThreadCpuClock() {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  pthread_getcpuclockid(pthread_self(), &clock);
  return clock;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

int Histogram::BucketOf(uint64_t ns) {
  if (ns < (1u << kSubBits)) return static_cast<int>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int sub = static_cast<int>((ns >> (msb - kSubBits)) &
                                   ((1u << kSubBits) - 1));
  return std::min(((msb - kSubBits + 1) << kSubBits) + sub, kBuckets - 1);
}

void Histogram::Add(int64_t ns) {
  const uint64_t value = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  ++buckets_[BucketOf(value)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::QuantileUs(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen < rank) continue;
    if (i < (1 << kSubBits)) return i * 1e-3;
    const int msb = (i >> kSubBits) + kSubBits - 1;
    const double width = std::ldexp(1.0, msb - kSubBits);
    const double low =
        std::ldexp(1.0, msb) + (i & ((1 << kSubBits) - 1)) * width;
    return (low + width / 2) * 1e-3;
  }
  return 0.0;
}

HostCpuTimes ReadHostCpuTimes() {
  HostCpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest counts are
  // already folded into user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealFraction(const HostCpuTimes& begin, const HostCpuTimes& end) {
  const uint64_t total = end.total - begin.total;
  return total == 0 ? 0.0
                    : static_cast<double>(end.steal - begin.steal) /
                          static_cast<double>(total);
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssSampler::RssSampler() {
  peak_mb_.store(CurrentRssMb());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double rss = CurrentRssMb();
      if (rss > peak_mb_.load(std::memory_order_relaxed)) {
        peak_mb_.store(rss, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  pthread_getcpuclockid(thread_.native_handle(), &clock_);
}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

int32_t SpanLog::Open(std::string name, int32_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), NowNs(), 0, parent, 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t id) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

void SpanLog::Add(std::vector<Span> spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"thread\":%u}",
                  i == 0 ? "" : ",", i, span.name.c_str(),
                  (span.start_ns - origin) * 1e-3,
                  (span.end_ns - origin) * 1e-3, span.parent, span.thread);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
