// Adapter exposing any batch algorithm through the OnlineCompressor
// interface by buffering the entire stream and deciding at Finish(). Used
// to run batch algorithms (TD-TR, Douglas-Peucker, bottom-up) in streaming
// pipelines and to benchmark the memory gap between batch and true online
// operation.

#ifndef STCOMP_STREAM_BATCH_ADAPTER_H_
#define STCOMP_STREAM_BATCH_ADAPTER_H_

#include <string>

#include "stcomp/algo/registry.h"
#include "stcomp/stream/online_compressor.h"

namespace stcomp {

class BatchAdapter final : public OnlineCompressor {
 public:
  // Runs the registered algorithm's entry point over a view of the
  // internal buffer, scratching in a workspace owned by this adapter —
  // repeated Finish-per-trip cycles in a fleet pipeline stop allocating
  // once the buffers have grown. `info` must outlive the adapter (registry
  // entries live for the program's lifetime).
  BatchAdapter(const algo::AlgorithmInfo& info, algo::AlgorithmParams params);

  Status Push(const TimedPoint& point, std::vector<TimedPoint>* out) override;
  void Finish(std::vector<TimedPoint>* out) override;
  size_t buffered_points() const override { return buffer_.size(); }
  std::string_view name() const override { return name_; }

  // Checkpointing (DESIGN.md §13): the whole buffered stream, behind a
  // name config echo. Algorithm params are identified by name_ (registry
  // entries are immutable), so only the buffer travels.
  Status SaveState(std::string* out) const override;
  Status RestoreState(std::string_view state) override;

 private:
  const algo::AlgorithmViewFn* const run_view_;
  const algo::AlgorithmParams params_;
  const std::string name_;
  Trajectory buffer_;
  algo::Workspace workspace_;
  algo::IndexList kept_;
  bool finished_ = false;
};

}  // namespace stcomp

#endif  // STCOMP_STREAM_BATCH_ADAPTER_H_
