#include "bucketing/gk_sketch.h"

#include <algorithm>
#include <cmath>

namespace optrules::bucketing {

GkQuantileSketch::GkQuantileSketch(double epsilon) : epsilon_(epsilon) {
  OPTRULES_CHECK(0.0 < epsilon && epsilon < 0.5);
}

void GkQuantileSketch::Add(double value) {
  // NaN values belong to no bucket (the repo-wide NaN policy); letting
  // one into the summary would corrupt the rank invariants because NaN
  // compares false against everything.
  if (std::isnan(value)) return;
  // Locate the insertion point (first tuple with a larger value).
  auto it = std::upper_bound(
      summary_.begin(), summary_.end(), value,
      [](double v, const Tuple& t) { return v < t.value; });
  Tuple tuple;
  tuple.value = value;
  tuple.g = 1;
  // New extreme values have exact rank; interior insertions inherit the
  // full allowed uncertainty.
  if (it == summary_.begin() || it == summary_.end()) {
    tuple.delta = 0;
  } else {
    tuple.delta = static_cast<int64_t>(
                      std::floor(2.0 * epsilon_ *
                                 static_cast<double>(count_))) -
                  1;
    if (tuple.delta < 0) tuple.delta = 0;
  }
  summary_.insert(it, tuple);
  ++count_;
  // Compress every 1/(2*eps) insertions (the GK schedule).
  if (++inserts_since_compress_ >=
      static_cast<int64_t>(1.0 / (2.0 * epsilon_))) {
    Compress();
    inserts_since_compress_ = 0;
  }
}

void GkQuantileSketch::Compress() {
  if (summary_.size() < 3) return;
  const auto threshold = static_cast<int64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
  // Merge tuple i into i+1 when the combined uncertainty stays within the
  // budget. Never merge the first or last tuple (they pin the extremes).
  std::vector<Tuple> compressed;
  compressed.reserve(summary_.size());
  compressed.push_back(summary_.front());
  int64_t pending_g = 0;
  for (size_t i = 1; i + 1 < summary_.size(); ++i) {
    const Tuple& current = summary_[i];
    const Tuple& next = summary_[i + 1];
    if (pending_g + current.g + next.g + next.delta < threshold) {
      // current is absorbed into next.
      pending_g += current.g;
    } else {
      Tuple kept = current;
      kept.g += pending_g;
      pending_g = 0;
      compressed.push_back(kept);
    }
  }
  Tuple last = summary_.back();
  last.g += pending_g;
  compressed.push_back(last);
  summary_ = std::move(compressed);
}

double GkQuantileSketch::Quantile(double phi) const {
  OPTRULES_CHECK(count_ > 0);
  OPTRULES_CHECK(0.0 <= phi && phi <= 1.0);
  // Target rank in 1..n; the GK invariant (g_i + delta_i <= 2*eps*n)
  // guarantees some tuple has both rmin and rmax within eps*n of it.
  const double n = static_cast<double>(count_);
  const double target = std::clamp(std::ceil(phi * n), 1.0, n);
  const double slack = epsilon_ * n;
  int64_t rmin = 0;
  for (const Tuple& tuple : summary_) {
    rmin += tuple.g;
    const int64_t rmax = rmin + tuple.delta;
    if (target - static_cast<double>(rmin) <= slack &&
        static_cast<double>(rmax) - target <= slack) {
      return tuple.value;
    }
  }
  return summary_.back().value;
}

BucketBoundaries BoundariesFromGkSketch(const GkQuantileSketch& sketch,
                                        int num_buckets) {
  OPTRULES_CHECK(num_buckets >= 1);
  OPTRULES_CHECK(sketch.count() > 0);
  std::vector<double> cuts;
  cuts.reserve(static_cast<size_t>(num_buckets) - 1);
  for (int i = 1; i < num_buckets; ++i) {
    cuts.push_back(sketch.Quantile(static_cast<double>(i) /
                                   static_cast<double>(num_buckets)));
  }
  std::sort(cuts.begin(), cuts.end());
  return BucketBoundaries::FromCutPoints(std::move(cuts));
}

BucketBoundaries BuildEquiDepthBoundariesGk(std::span<const double> values,
                                            int num_buckets,
                                            double epsilon) {
  OPTRULES_CHECK(num_buckets >= 1);
  GkQuantileSketch sketch(epsilon);
  for (const double value : values) sketch.Add(value);
  // Guard on the sketch count, not values.empty(): Add() drops NaN (the
  // repo-wide NaN policy), so a non-empty all-NaN column also leaves the
  // sketch empty and gets the single all-covering bucket.
  if (sketch.count() == 0) return BucketBoundaries::FromCutPoints({});
  return BoundariesFromGkSketch(sketch, num_buckets);
}

}  // namespace optrules::bucketing
