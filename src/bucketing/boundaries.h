// Bucket boundaries over the domain of one numeric attribute.
//
// M buckets are described by M-1 interior cut points p_1 <= ... <= p_{M-1};
// bucket i (0-based) covers (p_i, p_{i+1}] with p_0 = -inf and p_M = +inf,
// exactly the assignment rule of Algorithm 3.1 step 4 ("find i such that
// p_{i-1} < x <= p_i").

#ifndef OPTRULES_BUCKETING_BOUNDARIES_H_
#define OPTRULES_BUCKETING_BOUNDARIES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/simd_kernels.h"
#include "common/logging.h"

namespace optrules::bucketing {

/// How equi-depth bucket boundaries are derived per numeric attribute.
enum class Bucketizer {
  kSampling,   ///< Algorithm 3.1: random sample + sorted quantiles
  kGkSketch,   ///< deterministic Greenwald-Khanna quantile sketch
  kExactSort,  ///< full sort of the column ("Naive Sort"; exact depths)
};

/// Immutable set of bucket cut points with table-guided point location.
///
/// Every instance carries a guide table (simd::LocateGuide), built in the
/// constructor every factory goes through in O(T + M) time: T ~ 4 x cuts
/// equal slots between the first and last cut, each recording how many
/// cuts fall in earlier slots. Locate reads the table, then runs a
/// compare-and-add search whose trip count is fixed by the widest slot, so
/// sampled cut layouts cost O(1) expected per value instead of O(log M).
/// Layouts the table cannot narrow (non-finite ends or scale, fewer than
/// two cuts, or a widest slot that saves no search step) get one slot --
/// a plain power-of-two search over all cuts. Either way the answer is
/// exactly std::lower_bound's, on every SIMD arm.
class BucketBoundaries {
 public:
  /// From interior cut points (must be sorted ascending and free of NaN);
  /// yields `cut_points.size() + 1` buckets.
  static BucketBoundaries FromCutPoints(std::vector<double> cut_points);

  /// Exact equi-depth boundaries from a fully sorted value array: cut point
  /// i is the (i * n / M)-th smallest value. This is the "sort the data"
  /// path the paper wants to avoid for out-of-core tables.
  static BucketBoundaries FromSortedValues(std::span<const double> sorted,
                                           int num_buckets);

  /// Affine cuts lo + i * step (i = 1 .. num_buckets-1). Such layouts
  /// need no special path: the guide gives them a 1- or 2-step search.
  static BucketBoundaries FromEquiWidth(double lo, double step,
                                        int num_buckets);

  /// Number of buckets (cut points + 1).
  int num_buckets() const {
    return static_cast<int>(cut_points_.size()) + 1;
  }

  /// Sentinel Locate() result for values that belong to no bucket (NaN).
  static constexpr int kNoBucket = -1;

  /// Bucket index of value `x` in [0, num_buckets), or kNoBucket when `x`
  /// is NaN. NaN compares false against every cut point, so without the
  /// sentinel it would silently land in bucket 0 and inflate the u-count
  /// of every range touching the leftmost bucket; the repo-wide policy is
  /// that NaN rows count toward total_tuples but toward no bucket. Runs
  /// the same guided search as the batch kernels.
  int Locate(double x) const;

  /// Batch point location: out[i] = Locate(values[i]) for every i,
  /// bit-identical to the scalar call (including the NaN -> kNoBucket
  /// policy) but without per-value function dispatch. Runs the guided
  /// search on the active SIMD kernel arm (simd::Active()), or on the
  /// scalar kernel under OPTRULES_FORCE_SCALAR=1. Returns the number of
  /// kNoBucket entries written (the NaN count). The spans must have equal
  /// lengths.
  int64_t LocateBatch(std::span<const double> values,
                      std::span<int32_t> out) const;

  /// LocateBatch pinned to one specific kernel arm -- the differential
  /// tests use this to prove every arm bit-identical on shared inputs.
  int64_t LocateBatchWithKernels(const simd::Kernels& kernels,
                                 std::span<const double> values,
                                 std::span<int32_t> out) const;

  /// Search steps after the table lookup (ceil(log2(widest slot + 1))),
  /// and the number of guide slots (1 = the full-search fallback).
  /// Exposed so tests can assert which layouts the guide narrows.
  int guide_steps() const { return guide_steps_; }
  int guide_slots() const { return static_cast<int>(slot_lo_.size()); }

  /// Interior cut points, ascending.
  const std::vector<double>& cut_points() const { return cut_points_; }

  /// Exclusive lower / inclusive upper edge of bucket i; the first lower
  /// edge is -infinity and the last upper edge +infinity.
  double LowerEdge(int i) const;
  double UpperEdge(int i) const;

 private:
  explicit BucketBoundaries(std::vector<double> cut_points);

  /// The guide over this object's own storage. Built per call, so copies
  /// and moves never point into another instance's buffers.
  simd::LocateGuide Guide() const {
    return {padded_cuts_.data(), slot_lo_.data(), guide_first_,
            guide_scale_, static_cast<double>(guide_slots() - 1),
            guide_steps_};
  }

  std::vector<double> cut_points_;
  /// cut_points_ followed by +inf up to size + 2^guide_steps_.
  std::vector<double> padded_cuts_;
  /// slot_lo_[s] = number of cuts whose slot is < s.
  std::vector<int32_t> slot_lo_;
  double guide_first_ = 0.0;
  double guide_scale_ = 0.0;
  int guide_steps_ = 0;
};

/// Strategy + parameters for boundary planning. This is the single
/// dispatch point for the three bucketizers; the miners and the bench
/// harnesses all build boundaries through BuildBoundaries() rather than
/// switching on the strategy themselves.
struct BoundaryPlan {
  Bucketizer bucketizer = Bucketizer::kSampling;
  int num_buckets = 1000;        ///< M of Algorithm 3.1
  int64_t sample_per_bucket = 40;  ///< S/M of Algorithm 3.1 (sampling only)
  uint64_t seed = 42;            ///< sampling seed (sampling only)
  /// Rank-error fraction for the GK bucketizer; 0 = auto.
  double gk_epsilon = 0.0;

  /// gk_epsilon, defaulted to 1 / (4 * num_buckets) when unset.
  double EffectiveGkEpsilon() const;
};

/// Builds equi-depth boundaries for one in-memory column under `plan`.
/// `salt` decorrelates per-attribute sampling seeds (the effective seed is
/// plan.seed + salt); the deterministic bucketizers ignore it.
BucketBoundaries BuildBoundaries(std::span<const double> values,
                                 const BoundaryPlan& plan,
                                 uint64_t salt = 0);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_BOUNDARIES_H_
