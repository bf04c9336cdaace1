#include "stcomp/obs/exposition.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "stcomp/common/strings.h"

namespace stcomp::obs {

namespace {

std::string FormatDouble(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

// JSON numbers cannot express NaN/Inf; emit null for them.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  return FormatDouble(value);
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// {k="v",k2="v2"} or "" for an unlabelled series. Both the Prometheus and
// the text renderer use this spelling.
std::string LabelString(const LabelSet& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string JsonEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string JsonLabels(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"";
    out += JsonEscape(key);
    out += "\":\"";
    out += JsonEscape(value);
    out += "\"";
  }
  out += "}";
  return out;
}

void AppendSeriesLine(std::string_view name, const LabelSet& labels,
                      std::string_view value, std::string* out) {
  std::string series = std::string(name) + LabelString(labels);
  out->append(series);
  // Pad to a readable column without truncating long series names.
  constexpr size_t kValueColumn = 64;
  const size_t pad =
      series.size() < kValueColumn ? kValueColumn - series.size() : 1;
  out->append(pad, ' ');
  out->append(value);
  out->append("\n");
}

}  // namespace

Result<MetricsFormat> ParseMetricsFormat(std::string_view name) {
  const std::string lower = AsciiLower(std::string(name));
  if (lower == "text") {
    return MetricsFormat::kText;
  }
  if (lower == "json") {
    return MetricsFormat::kJson;
  }
  if (lower == "prometheus" || lower == "prom") {
    return MetricsFormat::kPrometheus;
  }
  return InvalidArgumentError("unknown metrics format '" + std::string(name) +
                              "'; expected text, json or prometheus");
}

double ApproximateQuantile(const HistogramSample& histogram, double q) {
  if (histogram.count == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(histogram.count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < histogram.buckets.size(); ++i) {
    const uint64_t in_bucket = histogram.buckets[i];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const bool is_inf_bucket = i >= histogram.upper_bounds.size();
      const double upper = is_inf_bucket
                               ? histogram.upper_bounds.empty()
                                     ? 0.0
                                     : histogram.upper_bounds.back()
                               : histogram.upper_bounds[i];
      if (is_inf_bucket) {
        return upper;  // clamp: no finite width to interpolate within
      }
      const double lower = i == 0 ? 0.0 : histogram.upper_bounds[i - 1];
      const double fraction =
          (rank - static_cast<double>(cumulative)) / in_bucket;
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  return histogram.upper_bounds.empty() ? 0.0 : histogram.upper_bounds.back();
}

std::string RenderText(const MetricsSnapshot& snapshot) {
  std::string out;
  if (!snapshot.counters.empty()) {
    out += "== counters ==\n";
    for (const CounterSample& counter : snapshot.counters) {
      AppendSeriesLine(counter.name, counter.labels,
                       std::to_string(counter.value), &out);
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "== gauges ==\n";
    for (const GaugeSample& gauge : snapshot.gauges) {
      AppendSeriesLine(gauge.name, gauge.labels, FormatDouble(gauge.value),
                       &out);
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "== histograms ==\n";
    for (const HistogramSample& histogram : snapshot.histograms) {
      const double mean =
          histogram.count == 0
              ? 0.0
              : histogram.sum / static_cast<double>(histogram.count);
      char stats[256];
      std::snprintf(stats, sizeof(stats),
                    "count=%" PRIu64 " sum=%s mean=%s p50=%s p95=%s p99=%s",
                    histogram.count, FormatDouble(histogram.sum).c_str(),
                    FormatDouble(mean).c_str(),
                    FormatDouble(ApproximateQuantile(histogram, 0.50)).c_str(),
                    FormatDouble(ApproximateQuantile(histogram, 0.95)).c_str(),
                    FormatDouble(ApproximateQuantile(histogram, 0.99)).c_str());
      AppendSeriesLine(histogram.name, histogram.labels, stats, &out);
    }
  }
  if (out.empty()) {
    out = "(no metrics recorded)\n";
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": [";
  bool first = true;
  for (const CounterSample& counter : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"" + JsonEscape(counter.name) +
           "\",\"labels\":" + JsonLabels(counter.labels) +
           ",\"value\":" + std::to_string(counter.value) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  first = true;
  for (const GaugeSample& gauge : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"" + JsonEscape(gauge.name) +
           "\",\"labels\":" + JsonLabels(gauge.labels) +
           ",\"value\":" + JsonNumber(gauge.value) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  first = true;
  for (const HistogramSample& histogram : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"" + JsonEscape(histogram.name) +
           "\",\"labels\":" + JsonLabels(histogram.labels) +
           ",\"count\":" + std::to_string(histogram.count) +
           ",\"sum\":" + JsonNumber(histogram.sum) + ",\"buckets\":[";
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      const std::string le = i < histogram.upper_bounds.size()
                                 ? JsonNumber(histogram.upper_bounds[i])
                                 : "\"+Inf\"";
      out += "{\"le\":" + le +
             ",\"count\":" + std::to_string(histogram.buckets[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_name;
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name != last_name) {
      out += "# TYPE " + counter.name + " counter\n";
      last_name = counter.name;
    }
    out += counter.name + LabelString(counter.labels) + " " +
           std::to_string(counter.value) + "\n";
  }
  last_name.clear();
  for (const GaugeSample& gauge : snapshot.gauges) {
    if (gauge.name != last_name) {
      out += "# TYPE " + gauge.name + " gauge\n";
      last_name = gauge.name;
    }
    out += gauge.name + LabelString(gauge.labels) + " " +
           FormatDouble(gauge.value) + "\n";
  }
  last_name.clear();
  for (const HistogramSample& histogram : snapshot.histograms) {
    if (histogram.name != last_name) {
      out += "# TYPE " + histogram.name + " histogram\n";
      last_name = histogram.name;
    }
    // Prometheus buckets are cumulative and le-labelled; the le label joins
    // any series labels.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      cumulative += histogram.buckets[i];
      LabelSet with_le = histogram.labels;
      with_le.emplace_back("le", i < histogram.upper_bounds.size()
                                     ? FormatDouble(histogram.upper_bounds[i])
                                     : "+Inf");
      out += histogram.name + "_bucket" + LabelString(with_le) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += histogram.name + "_sum" + LabelString(histogram.labels) + " " +
           FormatDouble(histogram.sum) + "\n";
    out += histogram.name + "_count" + LabelString(histogram.labels) + " " +
           std::to_string(histogram.count) + "\n";
  }
  return out;
}

std::string RenderMetrics(const MetricsSnapshot& snapshot,
                          MetricsFormat format) {
  switch (format) {
    case MetricsFormat::kText:
      return RenderText(snapshot);
    case MetricsFormat::kJson:
      return RenderJson(snapshot);
    case MetricsFormat::kPrometheus:
      return RenderPrometheus(snapshot);
  }
  return "";
}

std::string RenderTraceText(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& event : events) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%12.3f ms  +%10.3f ms  t%02u  #%-6llu<#%-6llu %s%s%s\n",
                  static_cast<double>(event.start_us) / 1000.0,
                  static_cast<double>(event.duration_us) / 1000.0,
                  event.thread_id,
                  static_cast<unsigned long long>(event.span_id),
                  static_cast<unsigned long long>(event.parent_id),
                  event.name.c_str(), event.detail.empty() ? "" : " ",
                  event.detail.c_str());
    out += line;
  }
  if (out.empty()) {
    out = "(no trace spans recorded)\n";
  }
  return out;
}

std::string RenderTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\":\"" + JsonEscape(event.name) + "\",\"detail\":\"" +
           JsonEscape(event.detail) +
           "\",\"start_us\":" + std::to_string(event.start_us) +
           ",\"duration_us\":" + std::to_string(event.duration_us) +
           ",\"span_id\":" + std::to_string(event.span_id) +
           ",\"parent_id\":" + std::to_string(event.parent_id) +
           ",\"thread_id\":" + std::to_string(event.thread_id) + "}";
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

namespace {

void AppendTreeNode(const std::vector<TraceEvent>& events, size_t index,
                    const std::vector<std::vector<size_t>>& children,
                    int depth, std::string* out) {
  const TraceEvent& event = events[index];
  char line[320];
  std::snprintf(line, sizeof(line), "%12.3f ms  +%10.3f ms  t%02u  %*s%s%s%s\n",
                static_cast<double>(event.start_us) / 1000.0,
                static_cast<double>(event.duration_us) / 1000.0,
                event.thread_id, depth * 2, "", event.name.c_str(),
                event.detail.empty() ? "" : " ", event.detail.c_str());
  *out += line;
  for (size_t child : children[index]) {
    AppendTreeNode(events, child, children, depth + 1, out);
  }
}

}  // namespace

std::string RenderTraceTree(const std::vector<TraceEvent>& events) {
  // Index spans by id, then hang each span off its parent. A parent whose
  // event was overwritten in the ring (or is still open) leaves its
  // children promoted to roots — the forest stays renderable.
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) {
      by_id[events[i].span_id] = i;
    }
  }
  std::vector<std::vector<size_t>> children(events.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto parent = by_id.find(events[i].parent_id);
    if (events[i].parent_id != 0 && parent != by_id.end() &&
        parent->second != i) {
      children[parent->second].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  // Children recorded oldest-finished first; order each sibling list (and
  // the roots) by start time so the tree reads chronologically.
  const auto by_start = [&events](size_t a, size_t b) {
    return events[a].start_us < events[b].start_us;
  };
  for (auto& list : children) {
    std::sort(list.begin(), list.end(), by_start);
  }
  std::sort(roots.begin(), roots.end(), by_start);
  std::string out;
  for (size_t root : roots) {
    AppendTreeNode(events, root, children, 0, &out);
  }
  if (out.empty()) {
    out = "(no trace spans recorded)\n";
  }
  return out;
}

std::string RenderTracePerfetto(const std::vector<TraceEvent>& events) {
  // Chrome/Perfetto trace_event JSON: one complete ("ph":"X") event per
  // span, microsecond timestamps, thread id as tid so each pipeline
  // thread gets its own track in chrome://tracing.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\":\"" + JsonEscape(event.name) +
           "\",\"cat\":\"stcomp\",\"ph\":\"X\",\"ts\":" +
           std::to_string(event.start_us) +
           ",\"dur\":" + std::to_string(event.duration_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(event.thread_id) +
           ",\"args\":{\"detail\":\"" + JsonEscape(event.detail) +
           "\",\"span_id\":" + std::to_string(event.span_id) +
           ",\"parent_id\":" + std::to_string(event.parent_id) + "}}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace stcomp::obs
