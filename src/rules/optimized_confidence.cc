#include "rules/optimized_confidence.h"

#include <vector>

#include "hull/convex_hull_tree.h"
#include "hull/point.h"

namespace optrules::rules {

namespace {

using hull::CompareSlopes;
using hull::ConvexHullTree;
using hull::Orientation;
using hull::Point;

/// Compares candidate slope pairs by (slope, then delta-x). Returns true
/// when (m2, n2) is strictly better than (m1, n1).
bool BetterCandidate(const std::vector<Point>& q, int m1, int n1, int m2,
                     int n2) {
  const long double dx1 = q[static_cast<size_t>(n1)].x -
                          q[static_cast<size_t>(m1)].x;
  const long double dy1 = q[static_cast<size_t>(n1)].y -
                          q[static_cast<size_t>(m1)].y;
  const long double dx2 = q[static_cast<size_t>(n2)].x -
                          q[static_cast<size_t>(m2)].x;
  const long double dy2 = q[static_cast<size_t>(n2)].y -
                          q[static_cast<size_t>(m2)].y;
  const long double cross = dy2 * dx1 - dy1 * dx2;  // slope2 - slope1 sign
  if (cross > 0) return true;
  if (cross < 0) return false;
  return dx2 > dx1;  // equal slope: prefer larger support
}

}  // namespace

template <typename Weight>
void SlopePairContext::AssignPrefixPoints(std::span<const int64_t> u,
                                          std::span<const Weight> v) {
  OPTRULES_CHECK(u.size() == v.size());
  num_buckets_ = static_cast<int>(u.size());
  if (num_buckets_ == 0) return;

  // Q_k = (sum_{i<k} u_i, sum_{i<k} v_i), k = 0..M.
  q_.resize(static_cast<size_t>(num_buckets_) + 1);
  q_[0] = {0.0, 0.0};
  for (int k = 1; k <= num_buckets_; ++k) {
    OPTRULES_CHECK(u[static_cast<size_t>(k - 1)] >= 1);
    q_[static_cast<size_t>(k)] = {
        q_[static_cast<size_t>(k - 1)].x +
            static_cast<double>(u[static_cast<size_t>(k - 1)]),
        q_[static_cast<size_t>(k - 1)].y +
            static_cast<double>(v[static_cast<size_t>(k - 1)])};
  }
  // Preparatory phase (the geometry-heavy O(M) step), done once; every
  // Solve() rewinds to this U_0 instead of re-deriving it.
  tree_.Build(q_);
}

void SlopePairContext::Assign(std::span<const int64_t> u,
                              std::span<const double> v) {
  AssignPrefixPoints(u, v);
}

void SlopePairContext::Assign(std::span<const int64_t> u,
                              std::span<const int64_t> v) {
  OPTRULES_CHECK(u.size() == v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    OPTRULES_CHECK(0 <= v[i] && v[i] <= u[i]);
  }
  AssignPrefixPoints(u, v);
}

SlopePair SlopePairContext::Solve(int64_t min_support_count) {
  const int m_buckets = num_buckets_;
  const std::vector<Point>& q = q_;
  SlopePair best;
  if (m_buckets == 0) return best;
  if (min_support_count < 1) min_support_count = 1;
  // No range can be ample at all?
  if (q[static_cast<size_t>(m_buckets)].x - q[0].x <
      static_cast<double>(min_support_count)) {
    return best;
  }

  ConvexHullTree& tree = tree_;
  tree.Rewind();       // back to U_0 (stack and position copies only)
  tree.AdvanceBase();  // S = U_1; the first candidate base is r(0) >= 1.
  int i = 1;

  // L is the most recently computed tangent, through Q_{l_m} touching the
  // hull at Q_{l_t} (paper's variable L).
  bool l_valid = false;
  int l_m = -1;
  int l_t = -1;

  for (int m = 0; m < m_buckets; ++m) {
    // Advance the hull base to r(m): the least i with support(m+1, i)
    // ample. Supports only shrink as m grows, so if even i = M fails
    // there is no ample pair for any later m either.
    bool has_r = true;
    while (q[static_cast<size_t>(i)].x - q[static_cast<size_t>(m)].x <
           static_cast<double>(min_support_count)) {
      if (i == m_buckets) {
        has_r = false;
        break;
      }
      tree.AdvanceBase();
      ++i;
    }
    if (!has_r) break;

    const Point& qm = q[static_cast<size_t>(m)];
    // Inductive-step pruning: if Q_m lies on or above L, the tangent from
    // Q_m cannot beat L's slope (Figure 6), so skip the search.
    if (l_valid &&
        Orientation(q[static_cast<size_t>(l_m)],
                    q[static_cast<size_t>(l_t)], qm) >= 0) {
      continue;
    }

    int tangent_node;
    const int old_pos = l_valid ? tree.PositionOf(l_t) : -1;
    if (old_pos < 0) {
      // L does not touch U_{r(m)} (or no L yet): clockwise search from the
      // leftmost hull node Q_{r(m)} (the stack top), moving right while
      // the slope from Q_m improves (ties move right too, implementing the
      // maximum-x terminating-point rule).
      int pos = tree.hull_size() - 1;
      while (pos > 0) {
        const Point& cur = q[static_cast<size_t>(tree.NodeAt(pos))];
        const Point& next = q[static_cast<size_t>(tree.NodeAt(pos - 1))];
        if (CompareSlopes(qm, next, cur) >= 0) {
          --pos;
        } else {
          break;
        }
      }
      tangent_node = tree.NodeAt(pos);
    } else {
      // L still touches the hull at Q_{l_t}: counterclockwise search from
      // there, moving left only while the slope strictly improves (so ties
      // keep the larger x).
      int pos = old_pos;
      while (pos + 1 < tree.hull_size()) {
        const Point& cur = q[static_cast<size_t>(tree.NodeAt(pos))];
        const Point& next = q[static_cast<size_t>(tree.NodeAt(pos + 1))];
        if (CompareSlopes(qm, next, cur) > 0) {
          ++pos;
        } else {
          break;
        }
      }
      tangent_node = tree.NodeAt(pos);
    }

    l_valid = true;
    l_m = m;
    l_t = tangent_node;
    if (!best.found ||
        BetterCandidate(q, best.m, best.n, l_m, l_t)) {
      best.found = true;
      best.m = l_m;
      best.n = l_t;
    }
  }
  return best;
}

SlopePair OptimalSlopePair(std::span<const int64_t> u,
                           std::span<const double> v,
                           int64_t min_support_count) {
  SlopePairContext context(u, v);
  return context.Solve(min_support_count);
}

RangeRule OptimizedConfidenceRule(std::span<const int64_t> u,
                                  std::span<const int64_t> v,
                                  int64_t total_tuples,
                                  int64_t min_support_count) {
  SlopePairContext context;
  context.Assign(u, v);
  return OptimizedConfidenceRule(context, u, v, total_tuples,
                                 min_support_count);
}

RangeRule OptimizedConfidenceRule(SlopePairContext& context,
                                  std::span<const int64_t> u,
                                  std::span<const int64_t> v,
                                  int64_t total_tuples,
                                  int64_t min_support_count) {
  OPTRULES_CHECK(context.num_buckets() == static_cast<int>(u.size()));
  const SlopePair pair = context.Solve(min_support_count);
  if (!pair.found) return RangeRule{};
  // Slope pair (m, n) corresponds to buckets m..n-1 in 0-based terms.
  return MakeRangeRule(u, v, total_tuples, pair.m, pair.n - 1);
}

RangeRule MinimizedConfidenceRule(std::span<const int64_t> u,
                                  std::span<const int64_t> v,
                                  int64_t total_tuples,
                                  int64_t min_support_count) {
  OPTRULES_CHECK(u.size() == v.size());
  // Minimizing sum(v)/sum(u) equals maximizing sum(-v)/sum(u).
  std::vector<double> weights(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    OPTRULES_CHECK(0 <= v[i] && v[i] <= u[i]);
    weights[i] = -static_cast<double>(v[i]);
  }
  const SlopePair pair = OptimalSlopePair(u, weights, min_support_count);
  if (!pair.found) return RangeRule{};
  return MakeRangeRule(u, v, total_tuples, pair.m, pair.n - 1);
}

}  // namespace optrules::rules
