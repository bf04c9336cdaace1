// Streaming implementations of the opening-window family. Each is
// output-equivalent to its batch counterpart in algo/ (verified by tests):
// after a cut, the buffered tail is replayed through the window logic in
// the same order the batch loop would re-examine it.
//
// The window is a contiguous vector, so the settle loop runs the batch
// layer's own scans over a TrajectoryView of the buffer: one
// FirstWindowViolation call per float position, or for OPW-SP batch
// OpwSp's SED-or-SpeedJump scan — one implementation of the math, shared
// with algo/ (DESIGN.md §11).

#ifndef STCOMP_STREAM_OPENING_WINDOW_STREAM_H_
#define STCOMP_STREAM_OPENING_WINDOW_STREAM_H_

#include <string>
#include <vector>

#include "stcomp/algo/opening_window.h"
#include "stcomp/stream/online_compressor.h"

namespace stcomp {

// Which discard criterion the streaming window applies.
enum class StreamCriterion {
  kPerpendicular,  // classic NOPW/BOPW
  kSynchronized,   // OPW-TR
  kSpatiotemporal,  // OPW-SP: synchronized distance OR speed jump
};

class OpeningWindowStream final : public OnlineCompressor {
 public:
  // `speed_threshold_mps` is used only by kSpatiotemporal.
  OpeningWindowStream(double epsilon_m, algo::BreakPolicy policy,
                      StreamCriterion criterion,
                      double speed_threshold_mps = 0.0);

  Status Push(const TimedPoint& point, std::vector<TimedPoint>* out) override;
  void Finish(std::vector<TimedPoint>* out) override;
  size_t buffered_points() const override { return window_.size(); }
  std::string_view name() const override { return name_; }

  // Checkpointing (DESIGN.md §13): the open window plus the monotonicity
  // guard, behind a name/epsilon/speed config echo.
  Status SaveState(std::string* out) const override;
  Status RestoreState(std::string_view state) override;

 private:
  // Processes the newest point in `window_` (window_.back()); commits cuts
  // and replays tails until the window is stable.
  void Settle(std::vector<TimedPoint>* out);

  const double epsilon_m_;
  const algo::BreakPolicy policy_;
  const StreamCriterion criterion_;
  const double speed_threshold_mps_;
  std::string name_;
  // window_[0] is the current anchor (already committed). Contiguous so the
  // settle loop can view it; capacity is retained across cuts.
  std::vector<TimedPoint> window_;
  double last_time_ = 0.0;
  bool any_pushed_ = false;
  bool finished_ = false;
};

}  // namespace stcomp

#endif  // STCOMP_STREAM_OPENING_WINDOW_STREAM_H_
