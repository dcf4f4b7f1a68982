#include "bucketing/boundaries.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bucketing/equidepth_sampler.h"
#include "bucketing/gk_sketch.h"
#include "bucketing/simd_kernels_scalar.inl.h"
#include "bucketing/sort_bucketizer.h"
#include "common/rng.h"

namespace optrules::bucketing {

BucketBoundaries BucketBoundaries::FromCutPoints(
    std::vector<double> cut_points) {
  // is_sorted alone accepts NaN anywhere ({1, NaN, 0} compares false both
  // ways), so NaN is ruled out first: it is never a cut point.
  OPTRULES_CHECK(std::none_of(cut_points.begin(), cut_points.end(),
                              [](double c) { return std::isnan(c); }));
  OPTRULES_CHECK(std::is_sorted(cut_points.begin(), cut_points.end()));
  return BucketBoundaries(std::move(cut_points));
}

BucketBoundaries BucketBoundaries::FromSortedValues(
    std::span<const double> sorted, int num_buckets) {
  OPTRULES_CHECK(num_buckets >= 1);
  OPTRULES_DCHECK(std::is_sorted(sorted.begin(), sorted.end()));
  std::vector<double> cuts;
  cuts.reserve(static_cast<size_t>(num_buckets) - 1);
  const int64_t n = static_cast<int64_t>(sorted.size());
  for (int i = 1; i < num_buckets; ++i) {
    if (n == 0) break;
    // The i*(n/M)-th smallest sample becomes p_i (paper step 3); with
    // 1-based "k-th smallest" that is index k-1.
    const int64_t rank =
        std::max<int64_t>(0, std::min<int64_t>(n, i * n / num_buckets) - 1);
    cuts.push_back(sorted[static_cast<size_t>(rank)]);
  }
  // Duplicated quantiles (heavy ties) are legal: the duplicate buckets are
  // simply empty and get compacted away by the counting layer.
  return BucketBoundaries(std::move(cuts));
}

namespace {

/// Guide slots per cut point, and the cap that keeps a huge M from
/// allocating an unbounded table (2^16 slots = 256 KiB).
constexpr size_t kGuideSlotsPerCut = 4;
constexpr size_t kMaxGuideSlots = size_t{1} << 16;

/// Search steps that cover `width` candidates past the base:
/// ceil(log2(width + 1)).
int StepsFor(size_t width) {
  int steps = 0;
  while ((size_t{1} << steps) <= width) ++steps;
  return steps;
}

}  // namespace

BucketBoundaries BucketBoundaries::FromEquiWidth(double lo, double step,
                                                 int num_buckets) {
  OPTRULES_CHECK(num_buckets >= 1);
  std::vector<double> cuts;
  cuts.reserve(static_cast<size_t>(num_buckets) - 1);
  for (int i = 1; i < num_buckets; ++i) {
    cuts.push_back(lo + step * static_cast<double>(i));
  }
  return BucketBoundaries(std::move(cuts));
}

BucketBoundaries::BucketBoundaries(std::vector<double> cut_points)
    : cut_points_(std::move(cut_points)) {
  const size_t n = cut_points_.size();
  // The search runs on 32-bit indices up to n + 2^steps <= 3n + 2.
  OPTRULES_CHECK(n < (size_t{1} << 29));
  // Without a usable table the search covers all n cuts from index 0.
  const int full_steps = StepsFor(n);
  slot_lo_ = {0};
  guide_steps_ = full_steps;
  if (n >= 2) {
    const size_t slots = std::min(kGuideSlotsPerCut * n, kMaxGuideSlots);
    const double first = cut_points_.front();
    const double last = cut_points_.back();
    // A denormal or zero range overflows the scale; an overflowing range
    // (lowest() .. max()) flushes it to zero. Both keep the one slot.
    const double scale = static_cast<double>(slots) / (last - first);
    if (std::isfinite(first) && std::isfinite(last) && scale > 0.0 &&
        std::isfinite(scale)) {
      // Bin the cuts with the exact slot function the kernels apply to
      // values, so lower_bound(x) always lies in the slot's window.
      const simd::LocateGuide binning = {nullptr, nullptr, first, scale,
                                         static_cast<double>(slots - 1), 0};
      std::vector<int32_t> counts(slots, 0);
      for (const double cut : cut_points_) {
        ++counts[static_cast<size_t>(simd::internal::GuideSlot(binning, cut))];
      }
      const int steps = StepsFor(static_cast<size_t>(
          *std::max_element(counts.begin(), counts.end())));
      // Keep the table only when it saves at least one dependent load
      // (the table gather itself costs one).
      if (steps + 1 < full_steps) {
        slot_lo_.assign(slots, 0);
        for (size_t s = 1; s < slots; ++s) {
          slot_lo_[s] = slot_lo_[s - 1] + counts[s - 1];
        }
        guide_first_ = first;
        guide_scale_ = scale;
        guide_steps_ = steps;
      }
    }
  }
  padded_cuts_.assign(n + (size_t{1} << guide_steps_),
                      std::numeric_limits<double>::infinity());
  std::copy(cut_points_.begin(), cut_points_.end(), padded_cuts_.begin());
}

int BucketBoundaries::Locate(double x) const {
  // Bucket i covers (p_i, p_{i+1}]; the lower_bound index (first cut >= x)
  // is exactly the index of the covering bucket.
  return simd::internal::GuidedLocateOne(Guide(), x);
}

int64_t BucketBoundaries::LocateBatch(std::span<const double> values,
                                      std::span<int32_t> out) const {
  return LocateBatchWithKernels(simd::Active(), values, out);
}

int64_t BucketBoundaries::LocateBatchWithKernels(
    const simd::Kernels& kernels, std::span<const double> values,
    std::span<int32_t> out) const {
  OPTRULES_CHECK(values.size() == out.size());
  return kernels.locate_guided(values.data(), values.size(), Guide(),
                               out.data());
}

double BucketBoundaries::LowerEdge(int i) const {
  OPTRULES_CHECK(0 <= i && i < num_buckets());
  if (i == 0) return -std::numeric_limits<double>::infinity();
  return cut_points_[static_cast<size_t>(i - 1)];
}

double BucketBoundaries::UpperEdge(int i) const {
  OPTRULES_CHECK(0 <= i && i < num_buckets());
  if (i == num_buckets() - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return cut_points_[static_cast<size_t>(i)];
}

double BoundaryPlan::EffectiveGkEpsilon() const {
  return gk_epsilon > 0.0 ? gk_epsilon
                          : 1.0 / (4.0 * static_cast<double>(num_buckets));
}

BucketBoundaries BuildBoundaries(std::span<const double> values,
                                 const BoundaryPlan& plan, uint64_t salt) {
  OPTRULES_CHECK(plan.num_buckets >= 1);
  switch (plan.bucketizer) {
    case Bucketizer::kSampling: {
      Rng rng(plan.seed + salt);
      SamplerOptions sampler;
      sampler.num_buckets = plan.num_buckets;
      sampler.sample_per_bucket = plan.sample_per_bucket;
      return BuildEquiDepthBoundaries(values, sampler, rng);
    }
    case Bucketizer::kGkSketch:
      return BuildEquiDepthBoundariesGk(values, plan.num_buckets,
                                        plan.EffectiveGkEpsilon());
    case Bucketizer::kExactSort:
      return ExactEquiDepthBoundaries(values, plan.num_buckets);
  }
  OPTRULES_CHECK(false);
  return BucketBoundaries::FromCutPoints({});
}

}  // namespace optrules::bucketing
