// Push-based interface for online trajectory compression (the paper's
// motivation for the opening-window family: "they are online algorithms ...
// typically used to compress data streams in real-time").
//
// Protocol: Push() each fix in time order; every point the compressor has
// irrevocably decided to keep is appended to `out` (in time order, each
// exactly once). Finish() flushes the tail — the countermeasure for the
// "opening window may lose the last few data points" issue (Sec. 2.2).

#ifndef STCOMP_STREAM_ONLINE_COMPRESSOR_H_
#define STCOMP_STREAM_ONLINE_COMPRESSOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stcomp/common/result.h"
#include "stcomp/core/trajectory.h"

namespace stcomp {

class OnlineCompressor {
 public:
  virtual ~OnlineCompressor() = default;

  // Feeds the next fix. Fails with kInvalidArgument if `point.t` is not
  // strictly after the previous push. Newly committed points are appended
  // to `out` (which must be non-null; it is not cleared).
  virtual Status Push(const TimedPoint& point,
                      std::vector<TimedPoint>* out) = 0;

  // Ends the stream, flushing pending state. Push must not be called
  // afterwards.
  virtual void Finish(std::vector<TimedPoint>* out) = 0;

  // Currently buffered (not yet decided) points — the working-memory
  // footprint, reported by the streaming benchmarks.
  virtual size_t buffered_points() const = 0;

  virtual std::string_view name() const = 0;

  // Checkpoint/restore (DESIGN.md §13). SaveState appends a byte
  // serialization of every field a bitwise-identical resume needs;
  // RestoreState loads it into a compressor constructed with the same
  // configuration (validated via an embedded config echo —
  // kInvalidArgument on mismatch, kDataLoss on a malformed blob). The
  // default is kUnimplemented: adapters opt in.
  virtual Status SaveState(std::string* out) const;
  virtual Status RestoreState(std::string_view state);
};

// Shared Push precondition for adapters: kInvalidArgument if the fix has a
// non-finite timestamp or coordinates. NaN ordering comparisons are
// vacuously false, so without this check a NaN timestamp slips past the
// monotonicity guard and permanently disables it for the stream.
Status ValidateFiniteFix(const TimedPoint& point);

// Convenience driver: streams `trajectory` through `compressor` and
// returns the compressed trajectory.
Result<Trajectory> CompressStream(const Trajectory& trajectory,
                                  OnlineCompressor* compressor);

}  // namespace stcomp

#endif  // STCOMP_STREAM_ONLINE_COMPRESSOR_H_
