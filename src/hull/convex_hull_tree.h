// Algorithm 4.1: online maintenance of suffix upper hulls.
//
// Given points Q_0, ..., Q_M sorted by strictly increasing x, the tree
// supports walking through the hulls U_0, U_1, ..., U_M, where U_i is the
// upper hull of {Q_i, ..., Q_M}, in O(M) total time. The preparatory phase
// (Build) builds U_0 right-to-left, recording in a branch D_i the nodes
// that belong to U_{i+1} but not U_i; the restoration phase (AdvanceBase)
// pops the leftmost node and pushes D_i back, turning U_i into U_{i+1} in
// amortized O(1).
//
// The hull is exposed as a stack: position 0 is the bottom (rightmost
// point Q_M) and position size()-1 the top (leftmost point, the current
// base). Clockwise traversal of the upper hull (left to right) therefore
// corresponds to descending positions.
//
// Layout: every node is popped at most once during the preparatory phase,
// so all branches together hold at most M + 1 nodes. They are stored back
// to back in ONE flat index array, in the order the preparatory phase
// pops them (D_M first, D_0 last): D_i is branch_nodes_[branch_end_[i + 1],
// branch_end_[i]). Together with the stack, the position map and a copy
// of U_0's stack, a tree is five flat arrays, so a Build or a Rewind costs
// O(1) allocations -- none at all once a reused tree's buffers have grown
// to the largest point count it has seen.

#ifndef OPTRULES_HULL_CONVEX_HULL_TREE_H_
#define OPTRULES_HULL_CONVEX_HULL_TREE_H_

#include <span>
#include <vector>

#include "hull/point.h"

namespace optrules::hull {

/// Suffix upper-hull structure over a fixed point sequence. The tree keeps
/// only point indices; callers keep the points.
class ConvexHullTree {
 public:
  /// An empty tree (num_points() == 0); Build() it before use.
  ConvexHullTree() = default;

  /// Builds the tree over `points`, as Build().
  explicit ConvexHullTree(const std::vector<Point>& points) { Build(points); }

  /// Runs the preparatory phase over `points`, which must have strictly
  /// increasing x and at least one element, reusing this tree's buffers.
  /// Afterwards the current hull is U_0.
  void Build(std::span<const Point> points);

  /// Returns to U_0 without re-running the preparatory phase: restores the
  /// stack and position arrays from the copy Build() kept.
  void Rewind();

  /// Number of points (M + 1 in the paper's indexing).
  int num_points() const { return static_cast<int>(position_.size()); }

  /// The index i such that the current hull is U_i.
  int base() const { return base_; }

  /// Moves from U_base to U_{base+1}: pops Q_base and restores its branch
  /// D_base. Requires base() < num_points() - 1.
  void AdvanceBase();

  /// Number of nodes on the current hull.
  int hull_size() const { return static_cast<int>(stack_.size()); }

  /// Point index of the hull node at `position` (0 = bottom/rightmost,
  /// hull_size()-1 = top/leftmost).
  int NodeAt(int position) const {
    OPTRULES_DCHECK(0 <= position && position < hull_size());
    return stack_[static_cast<size_t>(position)];
  }

  /// Position of point `index` on the current hull, or -1 if absent.
  int PositionOf(int index) const {
    return position_[static_cast<size_t>(index)];
  }

 private:
  void Push(int index) {
    position_[static_cast<size_t>(index)] =
        static_cast<int>(stack_.size());
    stack_.push_back(index);
  }
  int Pop() {
    const int index = stack_.back();
    stack_.pop_back();
    position_[static_cast<size_t>(index)] = -1;
    return index;
  }

  std::vector<int> stack_;         // the hull stack S
  std::vector<int> position_;      // point index -> stack position
  std::vector<int> u0_stack_;      // S at U_0, for Rewind()
  std::vector<int> branch_nodes_;  // every D_i, back to back
  std::vector<int> branch_end_;    // D_i ends at branch_end_[i]
  int base_ = 0;
};

}  // namespace optrules::hull

#endif  // OPTRULES_HULL_CONVEX_HULL_TREE_H_
