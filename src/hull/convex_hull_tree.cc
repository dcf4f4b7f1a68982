#include "hull/convex_hull_tree.h"

namespace optrules::hull {

void ConvexHullTree::Build(std::span<const Point> points) {
  OPTRULES_CHECK(!points.empty());
  const int m = static_cast<int>(points.size());
  for (int i = 1; i < m; ++i) {
    OPTRULES_CHECK(points[static_cast<size_t>(i - 1)].x <
                   points[static_cast<size_t>(i)].x);
  }
  stack_.clear();
  position_.assign(static_cast<size_t>(m), -1);
  branch_nodes_.clear();
  branch_end_.resize(static_cast<size_t>(m) + 1);
  branch_end_[static_cast<size_t>(m)] = 0;

  // Preparatory phase: insert points right-to-left; nodes popped while
  // inserting Q_i form the branch D_i.
  for (int i = m - 1; i >= 0; --i) {
    const Point& q = points[static_cast<size_t>(i)];
    while (stack_.size() >= 2) {
      const Point& top = points[static_cast<size_t>(stack_.back())];
      const Point& second =
          points[static_cast<size_t>(stack_[stack_.size() - 2])];
      // Pop while slope(Q_i, top) <= slope(Q_i, second): the top node lies
      // on or below the line from Q_i to the second node, so it is not on
      // U_i. Popped nodes are recorded (in increasing-x order) in D_i.
      if (CompareSlopes(q, top, second) > 0) break;
      branch_nodes_.push_back(Pop());
    }
    branch_end_[static_cast<size_t>(i)] =
        static_cast<int>(branch_nodes_.size());
    Push(i);
  }
  u0_stack_.assign(stack_.begin(), stack_.end());
  base_ = 0;
}

void ConvexHullTree::Rewind() {
  if (base_ == 0) return;  // still at U_0
  for (const int node : stack_) position_[static_cast<size_t>(node)] = -1;
  stack_.assign(u0_stack_.begin(), u0_stack_.end());
  for (size_t k = 0; k < stack_.size(); ++k) {
    position_[static_cast<size_t>(stack_[k])] = static_cast<int>(k);
  }
  base_ = 0;
}

void ConvexHullTree::AdvanceBase() {
  OPTRULES_CHECK(base_ < num_points() - 1);
  // Pop the leftmost node Q_base ...
  const int popped = Pop();
  OPTRULES_CHECK(popped == base_);
  // ... and push D_base back in top-to-bottom (decreasing-x) order, which
  // restores exactly the nodes of U_{base+1} hidden by Q_base.
  const auto b = static_cast<size_t>(base_);
  for (int k = branch_end_[b] - 1; k >= branch_end_[b + 1]; --k) {
    Push(branch_nodes_[static_cast<size_t>(k)]);
  }
  ++base_;
}

}  // namespace optrules::hull
