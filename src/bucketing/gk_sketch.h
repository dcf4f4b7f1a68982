// Greenwald-Khanna epsilon-approximate quantile summary.
//
// A deterministic, single-pass alternative to the paper's randomized
// Algorithm 3.1 for building almost equi-depth buckets: the sketch
// maintains O((1/eps) * log(eps*N)) tuples and answers any quantile with
// rank error at most eps*N, so cut points taken at the 1/M quantiles give
// buckets whose depth deviates by at most eps*N from N/M -- without
// sampling variance. `bench/ablation_sketch` compares the two designs.
//
// Reference: M. Greenwald and S. Khanna, "Space-efficient online
// computation of quantile summaries", SIGMOD 2001 (post-dates the paper;
// implemented here as the natural 'future work' upgrade).

#ifndef OPTRULES_BUCKETING_GK_SKETCH_H_
#define OPTRULES_BUCKETING_GK_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/boundaries.h"

namespace optrules::bucketing {

/// Online epsilon-approximate quantile summary over doubles.
class GkQuantileSketch {
 public:
  /// epsilon in (0, 0.5): maximum rank error as a fraction of the count.
  explicit GkQuantileSketch(double epsilon);

  /// Inserts one value.
  void Add(double value);

  /// Number of values inserted.
  int64_t count() const { return count_; }

  /// Number of summary tuples currently held (the space bound).
  int summary_size() const { return static_cast<int>(summary_.size()); }

  /// Value whose rank is within epsilon*count of phi*count; phi in [0, 1].
  /// Requires count() > 0.
  double Quantile(double phi) const;

 private:
  struct Tuple {
    double value;
    int64_t g;      ///< rmin(this) - rmin(previous)
    int64_t delta;  ///< rmax(this) - rmin(this)
  };

  void Compress();

  double epsilon_;
  int64_t count_ = 0;
  int64_t inserts_since_compress_ = 0;
  std::vector<Tuple> summary_;  // sorted by value
};

/// Cut points at the 1/M..(M-1)/M quantiles of a filled sketch; the
/// shared tail of every GK bucketizer path (column, batch scan).
/// The sketch must have count() > 0.
BucketBoundaries BoundariesFromGkSketch(const GkQuantileSketch& sketch,
                                        int num_buckets);

/// Equi-depth boundaries from one pass of a GK sketch over a column.
/// Rank error of every cut point is at most epsilon*N.
BucketBoundaries BuildEquiDepthBoundariesGk(std::span<const double> values,
                                            int num_buckets,
                                            double epsilon);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_GK_SKETCH_H_
