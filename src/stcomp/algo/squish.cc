#include "stcomp/algo/squish.h"

#include <limits>

#include "stcomp/common/check.h"
#include "stcomp/core/interpolation.h"
#include "stcomp/geom/kernels.h"

namespace stcomp::algo {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Feeds the whole trajectory through one buffer: the batch form of both
// halting modes.
void RunSquish(TrajectoryView trajectory, size_t capacity, double mu,
               IndexList& out) {
  if (trajectory.size() <= 2) {
    KeepAll(trajectory, out);
    return;
  }
  SquishBuffer buffer(capacity, mu);
  for (size_t i = 0; i < trajectory.size(); ++i) {
    buffer.Push(static_cast<int>(i), trajectory[i]);
  }
  buffer.Finalize(out);
}

}  // namespace

SquishBuffer::SquishBuffer(size_t capacity, double mu)
    : capacity_(capacity), mu_(mu) {
  STCOMP_CHECK(capacity_ == 0 || capacity_ >= 2);
  STCOMP_CHECK(mu_ >= 0.0);
}

double SquishBuffer::SedPriority(const Node& node) const {
  if (node.prev < 0 || node.next < 0) {
    return kInfinity;  // Endpoints are never removed.
  }
  // One neighbour pair per priority update, through the per-point SED
  // helper the window/range algorithms use, keeping SQUISH priorities
  // consistent with them.
  const Node& before = nodes_[static_cast<size_t>(node.prev)];
  const Node& after = nodes_[static_cast<size_t>(node.next)];
  return node.carry +
         kernels::SedDistancePoint(
             node.point.position.x, node.point.position.y, node.point.t,
             {before.point.position.x, before.point.position.y, before.point.t,
              after.point.position.x, after.point.position.y, after.point.t});
}

void SquishBuffer::Reprioritise(int node_id) {
  Node& node = nodes_[static_cast<size_t>(node_id)];
  queue_.erase({node.priority, node_id});
  node.priority = SedPriority(node);
  queue_.insert({node.priority, node_id});
}

void SquishBuffer::RemoveCheapest() {
  STCOMP_DCHECK(!queue_.empty());
  const auto [priority, node_id] = *queue_.begin();
  queue_.erase(queue_.begin());
  Node& node = nodes_[static_cast<size_t>(node_id)];
  STCOMP_DCHECK(node.alive && node.prev >= 0 && node.next >= 0);
  node.alive = false;
  --nodes_alive_;
  Node& before = nodes_[static_cast<size_t>(node.prev)];
  Node& after = nodes_[static_cast<size_t>(node.next)];
  before.next = node.next;
  after.prev = node.prev;
  // Propagate the removal's error estimate so neighbours account for the
  // points they now also approximate.
  before.carry = std::max(before.carry, node.priority);
  after.carry = std::max(after.carry, node.priority);
  free_ids_.push_back(node_id);
  if (before.prev >= 0) {
    Reprioritise(node.prev);
  }
  if (after.next >= 0) {
    Reprioritise(node.next);
  }
}

bool SquishBuffer::ShouldRemove() const {
  if (nodes_alive_ <= 2 || queue_.empty()) {
    return false;
  }
  const double cheapest = queue_.begin()->first;
  if (cheapest == kInfinity) {
    return false;
  }
  if (capacity_ != 0 && nodes_alive_ > capacity_) {
    return true;
  }
  // Error-driven mode: shrink opportunistically while within budget.
  return capacity_ == 0 && cheapest <= mu_;
}

void SquishBuffer::Push(int original_index, const TimedPoint& point) {
  int node_id;
  if (!free_ids_.empty()) {
    node_id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.point = point;
  node.original_index = original_index;
  node.priority = kInfinity;
  node.carry = 0.0;
  node.prev = tail_;
  node.next = -1;
  node.alive = true;
  ++nodes_alive_;
  if (tail_ >= 0) {
    nodes_[static_cast<size_t>(tail_)].next = node_id;
  } else {
    head_ = node_id;
  }
  const int previous_tail = tail_;
  tail_ = node_id;
  queue_.insert({kInfinity, node_id});
  // The former tail now has both neighbours; give it a real priority.
  if (previous_tail >= 0 &&
      nodes_[static_cast<size_t>(previous_tail)].prev >= 0) {
    Reprioritise(previous_tail);
  }
  while (ShouldRemove()) {
    RemoveCheapest();
  }
}

SquishBufferState SquishBuffer::ExportState() const {
  SquishBufferState state;
  state.capacity = capacity_;
  state.mu = mu_;
  state.nodes = nodes_;
  state.free_ids = free_ids_;
  state.head = head_;
  state.tail = tail_;
  return state;
}

Status SquishBuffer::ImportState(const SquishBufferState& state) {
  if (state.capacity != capacity_ || state.mu != mu_) {
    return InvalidArgumentError(
        "squish checkpoint was taken with a different capacity/mu");
  }
  const int size = static_cast<int>(state.nodes.size());
  const auto valid_id = [size](int id) { return id >= -1 && id < size; };
  if (!valid_id(state.head) || !valid_id(state.tail)) {
    return DataLossError("squish checkpoint has out-of-range list ends");
  }
  for (const SquishBufferState::Node& node : state.nodes) {
    if (!valid_id(node.prev) || !valid_id(node.next)) {
      return DataLossError("squish checkpoint has out-of-range node links");
    }
  }
  for (int id : state.free_ids) {
    if (id < 0 || id >= size || state.nodes[static_cast<size_t>(id)].alive) {
      return DataLossError("squish checkpoint free list is inconsistent");
    }
  }
  nodes_ = state.nodes;
  queue_.clear();
  nodes_alive_ = 0;
  for (int id = 0; id < size; ++id) {
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (node.alive) {
      ++nodes_alive_;
      // Exactly the live entries Push/Reprioritise maintain.
      queue_.insert({node.priority, id});
    }
  }
  free_ids_ = state.free_ids;
  head_ = state.head;
  tail_ = state.tail;
  return Status::Ok();
}

void SquishBuffer::Finalize(IndexList& out) const {
  out.clear();
  out.reserve(nodes_alive_);
  for (int id = head_; id >= 0;
       id = nodes_[static_cast<size_t>(id)].next) {
    out.push_back(nodes_[static_cast<size_t>(id)].original_index);
  }
}

void Squish(TrajectoryView trajectory, size_t buffer_capacity,
            IndexList& out) {
  STCOMP_CHECK(buffer_capacity >= 2);
  RunSquish(trajectory, buffer_capacity, 0.0, out);
}

void SquishE(TrajectoryView trajectory, double mu_m, IndexList& out) {
  STCOMP_CHECK(mu_m >= 0.0);
  RunSquish(trajectory, 0, mu_m, out);
}

}  // namespace stcomp::algo
