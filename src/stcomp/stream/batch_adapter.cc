#include "stcomp/stream/batch_adapter.h"

#include <utility>

#include "stcomp/common/check.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

BatchAdapter::BatchAdapter(const algo::AlgorithmInfo& info,
                           algo::AlgorithmParams params)
    : run_view_(&info.run_view),
      params_(params),
      name_(info.name + "-batch") {
  STCOMP_CHECK(*run_view_ != nullptr);
}

Status BatchAdapter::Push(const TimedPoint& point,
                          std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  STCOMP_CHECK(!finished_);
  STCOMP_RETURN_IF_ERROR(ValidateFiniteFix(point));
  return buffer_.Append(point);
}

Status BatchAdapter::SaveState(std::string* out) const {
  STCOMP_CHECK(out != nullptr);
  PutString(name_, out);
  PutBool(finished_, out);
  PutPointVector(buffer_.points(), out);
  return Status::Ok();
}

Status BatchAdapter::RestoreState(std::string_view state) {
  STCOMP_ASSIGN_OR_RETURN(const std::string_view saved_name,
                          GetString(&state));
  if (saved_name != name_) {
    return InvalidArgumentError(
        "checkpoint was taken by a differently configured compressor (" +
        std::string(saved_name) + ")");
  }
  STCOMP_RETURN_IF_ERROR(GetUnfinished(&state));
  finished_ = false;
  std::vector<TimedPoint> points;
  STCOMP_RETURN_IF_ERROR(GetPointVector(&state, &points));
  if (!state.empty()) {
    return DataLossError("trailing bytes in compressor checkpoint");
  }
  STCOMP_ASSIGN_OR_RETURN(buffer_, Trajectory::FromPoints(std::move(points)));
  return Status::Ok();
}

void BatchAdapter::Finish(std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  finished_ = true;
  (*run_view_)(buffer_, params_, workspace_, kept_);
  for (int index : kept_) {
    out->push_back(buffer_[static_cast<size_t>(index)]);
  }
}

}  // namespace stcomp
