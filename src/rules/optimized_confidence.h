// Optimized-confidence rules (Section 4.1, Algorithm 4.2).
//
// Among ranges of consecutive buckets whose support is at least the given
// threshold, find the one maximizing the confidence (ties broken toward
// larger support). Runs in O(M) using the convex-hull tree: the answer is
// the maximum-slope tangent from a prefix point Q_m to the upper hull of
// the suffix points U_{r(m)}.

#ifndef OPTRULES_RULES_OPTIMIZED_CONFIDENCE_H_
#define OPTRULES_RULES_OPTIMIZED_CONFIDENCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hull/convex_hull_tree.h"
#include "hull/point.h"
#include "rules/rule.h"

namespace optrules::rules {

/// An optimal slope pair (Definition 4.2): m < n such that the range of
/// buckets (m, n] -- i.e. [m+1, n] in 1-based bucket terms, [m, n-1] in the
/// 0-based RangeRule convention -- is ample and maximizes the slope of
/// Q_m Q_n, with ties broken toward larger support.
struct SlopePair {
  bool found = false;
  int m = -1;
  int n = -1;
};

/// The threshold-independent part of the slope-pair search: the prefix
/// points Q_0..Q_M and the convex-hull tree of Algorithm 4.1 (its Build is
/// the geometry-heavy step). Assign it once per (u, v) bucket array and
/// Solve() at any number of support thresholds: each Solve rewinds the
/// tree to U_0 by restoring only its stack and position arrays (no
/// orientation predicates, no allocation) and runs the tangent walk.
/// Re-Assigning reuses the buffers, so a loop over many bucket arrays
/// allocates only while they grow.
class SlopePairContext {
 public:
  /// An empty context (num_buckets() == 0) to Assign() later.
  SlopePairContext() = default;

  /// Requires u_i >= 1 for every bucket (u may be empty).
  SlopePairContext(std::span<const int64_t> u, std::span<const double> v) {
    Assign(u, v);
  }

  /// Rebuilds the context over new bucket arrays, reusing its buffers.
  /// Requires u_i >= 1 for every bucket (u may be empty).
  void Assign(std::span<const int64_t> u, std::span<const double> v);

  /// Assign() over integer hit counts (0 <= v_i <= u_i), bit-identical to
  /// assigning them converted to double.
  void Assign(std::span<const int64_t> u, std::span<const int64_t> v);

  /// The optimal slope pair at `min_support_count` (clamped to >= 1);
  /// identical to OptimalSlopePair(u, v, min_support_count).
  SlopePair Solve(int64_t min_support_count);

  int num_buckets() const { return num_buckets_; }

 private:
  template <typename Weight>
  void AssignPrefixPoints(std::span<const int64_t> u,
                          std::span<const Weight> v);

  int num_buckets_ = 0;
  /// Q_k = (sum_{i<k} u_i, sum_{i<k} v_i), k = 0..M.
  std::vector<hull::Point> q_;
  /// The tree over q_; Solve() rewinds it to U_0 instead of re-running
  /// the preparatory phase.
  hull::ConvexHullTree tree_;
};

/// Core O(M) optimizer over real-valued per-bucket weights `v` (tuple
/// counts for rules; attribute sums for the Section 5 average operator).
/// Requires u_i >= 1 for every bucket. `min_support_count` is clamped to a
/// minimum of 1 tuple. One-shot form of SlopePairContext::Solve.
SlopePair OptimalSlopePair(std::span<const int64_t> u,
                           std::span<const double> v,
                           int64_t min_support_count);

/// Optimized-confidence rule over integer hit counts: maximizes
/// sum(v)/sum(u) subject to sum(u) >= min_support_count. Returns
/// found=false when no range is ample.
RangeRule OptimizedConfidenceRule(std::span<const int64_t> u,
                                  std::span<const int64_t> v,
                                  int64_t total_tuples,
                                  int64_t min_support_count);

/// OptimizedConfidenceRule over a context already Assign()ed (u, v): solve
/// one array at many thresholds, or reuse one context across arrays.
RangeRule OptimizedConfidenceRule(SlopePairContext& context,
                                  std::span<const int64_t> u,
                                  std::span<const int64_t> v,
                                  int64_t total_tuples,
                                  int64_t min_support_count);

/// Dual problem: the ample range *minimizing* the confidence -- the
/// cluster least likely to meet C (e.g. customers to exclude from a
/// campaign). Computed by maximizing the negated weights on the same hull
/// machinery; ties prefer larger support.
RangeRule MinimizedConfidenceRule(std::span<const int64_t> u,
                                  std::span<const int64_t> v,
                                  int64_t total_tuples,
                                  int64_t min_support_count);

}  // namespace optrules::rules

#endif  // OPTRULES_RULES_OPTIMIZED_CONFIDENCE_H_
