// SQUISH and SQUISH-E (Muckell et al., "Compression of trajectory data: a
// comprehensive evaluation and new approach", GeoInformatica 2014): online
// compression built directly on the paper's synchronized Euclidean
// distance. A priority queue holds the buffered points; a point's priority
// estimates the maximum SED error its removal would introduce, and
// removals propagate their priority to the neighbours so errors cannot
// silently accumulate.
//
// Two halting modes:
//   Squish      — bounded buffer (compression-ratio driven, O(beta) memory)
//   SquishE     — bounded error estimate (remove while min priority <= mu)
//
// Included as the canonical follow-on to the paper's OPW-TR: same error
// notion, better compression/error trade-off at bounded memory.

#ifndef STCOMP_ALGO_SQUISH_H_
#define STCOMP_ALGO_SQUISH_H_

#include <set>
#include <utility>
#include <vector>

#include "stcomp/algo/compression.h"
#include "stcomp/common/status.h"

namespace stcomp::algo {

// Plain-struct snapshot of a SquishBuffer (stream checkpointing, DESIGN.md
// §13). The byte encoding lives in the stream layer; algo/ only exports
// and re-imports the in-memory structure. The priority queue is derived
// state and is rebuilt on import.
struct SquishBufferState {
  // One buffered point; also the buffer's own working node.
  struct Node {
    TimedPoint point;
    int original_index = 0;
    double priority = 0.0;  // Removal-error estimate (infinity: endpoint).
    double carry = 0.0;     // Max priority inherited from removed neighbours.
    int prev = -1;
    int next = -1;
    bool alive = false;
  };
  size_t capacity = 0;  // Config echo; ImportState validates both.
  double mu = 0.0;
  std::vector<Node> nodes;
  std::vector<int> free_ids;
  int head = -1;
  int tail = -1;
};

// The incremental engine, also used by stream/squish_stream.h. Feed points
// in time order with their original indices; Finalize() lists the kept
// indices in order.
class SquishBuffer {
 public:
  // capacity == 0 means unbounded (error-driven mode only).
  // mu is the error-estimate bound; removals stop when the cheapest
  // removal's priority exceeds mu. capacity and mu may be combined.
  SquishBuffer(size_t capacity, double mu);

  void Push(int original_index, const TimedPoint& point);

  // Number of currently buffered points.
  size_t size() const { return nodes_alive_; }

  // Fills `out` with the kept original indices (ascending). The buffer
  // remains usable.
  void Finalize(IndexList& out) const;

  // Applies `visit(original_index, point)` to every kept point in time
  // order, without materialising a result vector. The buffer remains
  // usable.
  template <typename Visitor>
  void ForEachKept(const Visitor& visit) const {
    for (int id = head_; id >= 0; id = nodes_[static_cast<size_t>(id)].next) {
      const Node& node = nodes_[static_cast<size_t>(id)];
      visit(node.original_index, node.point);
    }
  }

  // Checkpointing: a full snapshot of the working set, and its inverse.
  // ImportState replaces the buffer contents; it fails with
  // kInvalidArgument on a capacity/mu config mismatch and kDataLoss on
  // malformed links (out-of-range ids), leaving the buffer unspecified
  // only on the latter.
  SquishBufferState ExportState() const;
  Status ImportState(const SquishBufferState& state);

 private:
  using Node = SquishBufferState::Node;

  double SedPriority(const Node& node) const;
  void Reprioritise(int node_id);
  void RemoveCheapest();
  bool ShouldRemove() const;

  const size_t capacity_;
  const double mu_;
  std::vector<Node> nodes_;
  std::vector<int> free_ids_;  // Recycled slots: memory stays O(capacity).
  size_t nodes_alive_ = 0;
  // Orders (priority, node id); rebuilt entries replace stale ones.
  std::set<std::pair<double, int>> queue_;
  int head_ = -1;
  int tail_ = -1;
};

// Buffer-bound SQUISH: keeps at most `buffer_capacity` points (>= 2,
// checked). The endpoints always survive.
void Squish(TrajectoryView trajectory, size_t buffer_capacity,
            IndexList& out);

// Error-bound SQUISH-E(mu): removes points while the cheapest removal's
// SED-error estimate stays <= mu_m. Precondition (checked): mu_m >= 0.
void SquishE(TrajectoryView trajectory, double mu_m, IndexList& out);

}  // namespace stcomp::algo

#endif  // STCOMP_ALGO_SQUISH_H_
