#include "stcomp/stream/squish_stream.h"

#include "stcomp/common/check.h"
#include "stcomp/common/strings.h"
#include "stcomp/store/varint.h"
#include "stcomp/stream/checkpoint.h"

namespace stcomp {

SquishStream::SquishStream(size_t capacity, double mu_m)
    : buffer_(capacity, mu_m) {
  name_ = capacity == 0 ? StrFormat("squish-e(%.0fm)", mu_m)
                        : StrFormat("squish(%zu)", capacity);
}

Status SquishStream::Push(const TimedPoint& point,
                          std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  STCOMP_CHECK(!finished_);
  STCOMP_RETURN_IF_ERROR(ValidateFiniteFix(point));
  if (any_pushed_ && point.t <= last_time_) {
    return InvalidArgumentError(
        StrFormat("stream timestamps must increase at t=%f", point.t));
  }
  last_time_ = point.t;
  buffer_.Push(next_index_++, point);
  if (!any_pushed_) {
    any_pushed_ = true;
    out->push_back(point);  // The first fix always survives SQUISH.
  }
  return Status::Ok();
}

Status SquishStream::SaveState(std::string* out) const {
  STCOMP_CHECK(out != nullptr);
  const algo::SquishBufferState state = buffer_.ExportState();
  PutString(name_, out);
  PutVarint(state.capacity, out);
  PutDouble(state.mu, out);
  PutSignedVarint(next_index_, out);
  PutDouble(last_time_, out);
  PutBool(any_pushed_, out);
  PutBool(finished_, out);
  PutVarint(state.nodes.size(), out);
  for (const algo::SquishBufferState::Node& node : state.nodes) {
    PutTimedPoint(node.point, out);
    PutSignedVarint(node.original_index, out);
    PutDouble(node.priority, out);
    PutDouble(node.carry, out);
    PutSignedVarint(node.prev, out);
    PutSignedVarint(node.next, out);
    PutBool(node.alive, out);
  }
  PutVarint(state.free_ids.size(), out);
  for (int id : state.free_ids) {
    PutSignedVarint(id, out);
  }
  PutSignedVarint(state.head, out);
  PutSignedVarint(state.tail, out);
  return Status::Ok();
}

Status SquishStream::RestoreState(std::string_view state) {
  STCOMP_ASSIGN_OR_RETURN(const std::string_view saved_name,
                          GetString(&state));
  if (saved_name != name_) {
    return InvalidArgumentError(
        "checkpoint was taken by a differently configured compressor (" +
        std::string(saved_name) + ")");
  }
  algo::SquishBufferState buffer_state;
  STCOMP_ASSIGN_OR_RETURN(buffer_state.capacity, GetVarint(&state));
  STCOMP_ASSIGN_OR_RETURN(buffer_state.mu, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(const int64_t next_index,
                          GetSignedVarint(&state));
  STCOMP_ASSIGN_OR_RETURN(const double last_time, GetDouble(&state));
  STCOMP_ASSIGN_OR_RETURN(const bool any_pushed, GetBool(&state));
  STCOMP_ASSIGN_OR_RETURN(const bool finished, GetBool(&state));
  // Each node and each free id takes at least one byte, so a count beyond
  // the bytes left is corruption, refused before reserve() (DESIGN.md §12).
  STCOMP_ASSIGN_OR_RETURN(const uint64_t node_count, GetVarint(&state));
  if (node_count > state.size()) {
    return DataLossError("squish checkpoint node count exceeds the bytes left");
  }
  buffer_state.nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    algo::SquishBufferState::Node node;
    STCOMP_ASSIGN_OR_RETURN(node.point, GetTimedPoint(&state));
    STCOMP_ASSIGN_OR_RETURN(int64_t value, GetSignedVarint(&state));
    node.original_index = static_cast<int>(value);
    STCOMP_ASSIGN_OR_RETURN(node.priority, GetDouble(&state));
    STCOMP_ASSIGN_OR_RETURN(node.carry, GetDouble(&state));
    STCOMP_ASSIGN_OR_RETURN(value, GetSignedVarint(&state));
    node.prev = static_cast<int>(value);
    STCOMP_ASSIGN_OR_RETURN(value, GetSignedVarint(&state));
    node.next = static_cast<int>(value);
    STCOMP_ASSIGN_OR_RETURN(node.alive, GetBool(&state));
    buffer_state.nodes.push_back(node);
  }
  STCOMP_ASSIGN_OR_RETURN(const uint64_t free_count, GetVarint(&state));
  if (free_count > state.size()) {
    return DataLossError("squish checkpoint free count exceeds the bytes left");
  }
  buffer_state.free_ids.reserve(free_count);
  for (uint64_t i = 0; i < free_count; ++i) {
    STCOMP_ASSIGN_OR_RETURN(const int64_t id, GetSignedVarint(&state));
    buffer_state.free_ids.push_back(static_cast<int>(id));
  }
  STCOMP_ASSIGN_OR_RETURN(int64_t end, GetSignedVarint(&state));
  buffer_state.head = static_cast<int>(end);
  STCOMP_ASSIGN_OR_RETURN(end, GetSignedVarint(&state));
  buffer_state.tail = static_cast<int>(end);
  if (!state.empty()) {
    return DataLossError("trailing bytes in compressor checkpoint");
  }
  STCOMP_RETURN_IF_ERROR(buffer_.ImportState(buffer_state));
  next_index_ = static_cast<int>(next_index);
  last_time_ = last_time;
  any_pushed_ = any_pushed;
  finished_ = finished;
  return Status::Ok();
}

void SquishStream::Finish(std::vector<TimedPoint>* out) {
  STCOMP_CHECK(out != nullptr);
  finished_ = true;
  bool first = true;
  buffer_.ForEachKept([&](int /*index*/, const TimedPoint& point) {
    if (first) {
      first = false;  // Already emitted at the initial Push.
      return;
    }
    out->push_back(point);
  });
}

}  // namespace stcomp
