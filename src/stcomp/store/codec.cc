#include "stcomp/store/codec.h"

#include <cmath>

#include "stcomp/obs/metrics.h"
#include "stcomp/obs/timer.h"
#include "stcomp/store/varint.h"

namespace stcomp {

namespace {

// Per-codec, per-direction byte/point counters and sampled timing. The
// store's incremental append path encodes two-point suffixes, so these
// sit on a hot path: counters are exact relaxed atomics, timing is 1/16
// sampled (see obs/timer.h).
struct CodecMetrics {
  obs::Counter* calls;
  obs::Counter* bytes;
  obs::Counter* points;
  obs::Histogram* seconds;
};

CodecMetrics MakeCodecMetrics(const char* direction, const char* codec) {
  auto& registry = obs::MetricsRegistry::Global();
  const obs::LabelSet labels{{"codec", codec}};
  const std::string prefix = std::string("stcomp_store_") + direction;
  return {registry.GetCounter(prefix + "_calls_total", labels),
          registry.GetCounter(prefix + "_bytes_total", labels),
          registry.GetCounter(prefix + "_points_total", labels),
          registry.GetHistogram(prefix + "_seconds", labels,
                                obs::LatencyBucketsSeconds())};
}

const CodecMetrics& EncodeMetrics(Codec codec) {
  static const CodecMetrics* const kRaw =
      new CodecMetrics(MakeCodecMetrics("encode", "raw"));
  static const CodecMetrics* const kDelta =
      new CodecMetrics(MakeCodecMetrics("encode", "delta"));
  return codec == Codec::kRaw ? *kRaw : *kDelta;
}

const CodecMetrics& DecodeMetrics(Codec codec) {
  static const CodecMetrics* const kRaw =
      new CodecMetrics(MakeCodecMetrics("decode", "raw"));
  static const CodecMetrics* const kDelta =
      new CodecMetrics(MakeCodecMetrics("decode", "delta"));
  return codec == Codec::kRaw ? *kRaw : *kDelta;
}

Result<int64_t> Quantise(double value, double quantum) {
  const double scaled = std::round(value / quantum);
  if (!(std::abs(scaled) < 9.0e18)) {
    return OutOfRangeError("value too large for quantised encoding");
  }
  return static_cast<int64_t>(scaled);
}

Status EncodePointsImpl(const TimedPoint* points, size_t count, Codec codec,
                        std::string* out) {
  switch (codec) {
    case Codec::kRaw:
      for (size_t i = 0; i < count; ++i) {
        PutTimedPoint(points[i], out);
      }
      return Status::Ok();
    case Codec::kDelta: {
      int64_t previous_t = 0;
      int64_t previous_x = 0;
      int64_t previous_y = 0;
      for (size_t i = 0; i < count; ++i) {
        const TimedPoint& point = points[i];
        STCOMP_ASSIGN_OR_RETURN(const int64_t t,
                                Quantise(point.t, kTimeQuantumS));
        STCOMP_ASSIGN_OR_RETURN(const int64_t x,
                                Quantise(point.position.x, kCoordQuantumM));
        STCOMP_ASSIGN_OR_RETURN(const int64_t y,
                                Quantise(point.position.y, kCoordQuantumM));
        PutSignedVarint(t - previous_t, out);
        PutSignedVarint(x - previous_x, out);
        PutSignedVarint(y - previous_y, out);
        previous_t = t;
        previous_x = x;
        previous_y = y;
      }
      return Status::Ok();
    }
  }
  return InternalError("unknown codec");
}

Status DecodePointsImpl(std::string_view* input, Codec codec, size_t count,
                        std::vector<TimedPoint>* out) {
  // `count` comes off the wire; every point needs at least one byte per
  // field under either codec, so a count beyond the remaining payload is
  // corruption. Checking before reserve() keeps a flipped bit in the count
  // varint from demanding an absurd allocation (found by tests/fuzz).
  if (count > input->size()) {
    return DataLossError("point count exceeds frame payload");
  }
  out->reserve(out->size() + count);
  switch (codec) {
    case Codec::kRaw:
      for (size_t i = 0; i < count; ++i) {
        STCOMP_ASSIGN_OR_RETURN(const TimedPoint point, GetTimedPoint(input));
        out->push_back(point);
      }
      return Status::Ok();
    case Codec::kDelta: {
      int64_t t = 0;
      int64_t x = 0;
      int64_t y = 0;
      for (size_t i = 0; i < count; ++i) {
        STCOMP_ASSIGN_OR_RETURN(const int64_t dt, GetSignedVarint(input));
        STCOMP_ASSIGN_OR_RETURN(const int64_t dx, GetSignedVarint(input));
        STCOMP_ASSIGN_OR_RETURN(const int64_t dy, GetSignedVarint(input));
        t += dt;
        x += dx;
        y += dy;
        out->emplace_back(static_cast<double>(t) * kTimeQuantumS,
                          static_cast<double>(x) * kCoordQuantumM,
                          static_cast<double>(y) * kCoordQuantumM);
      }
      return Status::Ok();
    }
  }
  return InternalError("unknown codec");
}

}  // namespace

Status EncodePoints(const Trajectory& trajectory, Codec codec,
                    std::string* out) {
  return EncodePointSpan(trajectory.points().data(), trajectory.size(), codec,
                         out);
}

Status EncodePointSpan(const TimedPoint* points, size_t count, Codec codec,
                       std::string* out) {
  const CodecMetrics& metrics = EncodeMetrics(codec);
  STCOMP_SCOPED_TIMER_SAMPLED(metrics.seconds);
  const size_t before = out->size();
  STCOMP_RETURN_IF_ERROR(EncodePointsImpl(points, count, codec, out));
  metrics.calls->Increment();
  metrics.points->Increment(count);
  metrics.bytes->Increment(out->size() - before);
  return Status::Ok();
}

Status EncodeNextPoint(const TimedPoint* previous, const TimedPoint& point,
                       Codec codec, std::string* out) {
  switch (codec) {
    case Codec::kRaw:
      PutTimedPoint(point, out);
      return Status::Ok();
    case Codec::kDelta: {
      int64_t previous_t = 0;
      int64_t previous_x = 0;
      int64_t previous_y = 0;
      if (previous != nullptr) {
        STCOMP_ASSIGN_OR_RETURN(previous_t,
                                Quantise(previous->t, kTimeQuantumS));
        STCOMP_ASSIGN_OR_RETURN(
            previous_x, Quantise(previous->position.x, kCoordQuantumM));
        STCOMP_ASSIGN_OR_RETURN(
            previous_y, Quantise(previous->position.y, kCoordQuantumM));
      }
      STCOMP_ASSIGN_OR_RETURN(const int64_t t, Quantise(point.t, kTimeQuantumS));
      STCOMP_ASSIGN_OR_RETURN(const int64_t x,
                              Quantise(point.position.x, kCoordQuantumM));
      STCOMP_ASSIGN_OR_RETURN(const int64_t y,
                              Quantise(point.position.y, kCoordQuantumM));
      PutSignedVarint(t - previous_t, out);
      PutSignedVarint(x - previous_x, out);
      PutSignedVarint(y - previous_y, out);
      return Status::Ok();
    }
  }
  return InternalError("unknown codec");
}

TimedPoint StorageValue(const TimedPoint& point, Codec codec) {
  if (codec == Codec::kRaw) {
    return point;
  }
  // The decoder multiplies an int64, which has no negative zero; adding
  // +0.0 turns a rounded -0.0 into +0.0 so the two agree bit for bit.
  const auto on_grid = [](double value, double quantum) {
    return (std::round(value / quantum) + 0.0) * quantum;
  };
  return TimedPoint(on_grid(point.t, kTimeQuantumS),
                    on_grid(point.position.x, kCoordQuantumM),
                    on_grid(point.position.y, kCoordQuantumM));
}

Result<std::vector<TimedPoint>> DecodePoints(std::string_view* input,
                                             Codec codec, size_t count) {
  std::vector<TimedPoint> points;
  STCOMP_RETURN_IF_ERROR(DecodePointsInto(input, codec, count, &points));
  return points;
}

Status DecodePointsInto(std::string_view* input, Codec codec, size_t count,
                        std::vector<TimedPoint>* out) {
  const CodecMetrics& metrics = DecodeMetrics(codec);
  STCOMP_SCOPED_TIMER_SAMPLED(metrics.seconds);
  const size_t before = input->size();
  STCOMP_RETURN_IF_ERROR(DecodePointsImpl(input, codec, count, out));
  metrics.calls->Increment();
  metrics.points->Increment(count);
  metrics.bytes->Increment(before - input->size());
  return Status::Ok();
}

Result<size_t> EncodedSize(const Trajectory& trajectory, Codec codec) {
  std::string buffer;
  STCOMP_RETURN_IF_ERROR(EncodePoints(trajectory, codec, &buffer));
  return buffer.size();
}

}  // namespace stcomp
