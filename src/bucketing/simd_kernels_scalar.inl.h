// Scalar cores shared by every kernel arm (internal header): the locate
// search, the target-byte packing, and the scatter's row visitor.
//
// The SIMD translation units handle remainder tails with these exact
// functions, and BucketBoundaries::Locate runs the search for single
// values, so
// scalar calls, tail rows and vector lanes are bit-identical BY
// CONSTRUCTION, not by parallel maintenance of several copies. Include
// only from simd_kernels*.cc and boundaries.cc.

#ifndef OPTRULES_BUCKETING_SIMD_KERNELS_SCALAR_INL_H_
#define OPTRULES_BUCKETING_SIMD_KERNELS_SCALAR_INL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "bucketing/simd_kernels.h"

namespace optrules::bucketing::simd::internal {

/// The guide's slot function, spelled with the same IEEE operations (and
/// the same min/max operand order) as the vector arms. The clamp runs in
/// double before the truncating cast, which makes the cast floor()'s
/// answer on [0, last_slot]; a NaN x lands on last_slot.
inline int32_t GuideSlot(const LocateGuide& guide, double x) {
  double t = (x - guide.first) * guide.scale;
  t = t < guide.last_slot ? t : guide.last_slot;
  t = t > 0.0 ? t : 0.0;
  return static_cast<int32_t>(t);
}

/// Guided lower_bound: the number of cuts < x. The table narrows the
/// answer to a window of 2^steps - 1 candidates past slot_lo[slot(x)];
/// `steps` conditional-move halvings settle it. Probes past the last cut
/// read the +inf padding, which never advances the base. A NaN x settles
/// on some in-range index; callers map it to -1.
inline int32_t GuidedLowerBound(const LocateGuide& guide, double x) {
  int32_t base = guide.slot_lo[GuideSlot(guide, x)];
  for (int step = guide.steps - 1; step >= 0; --step) {
    const int32_t half = int32_t{1} << step;
    base += static_cast<int32_t>(guide.cuts[base + half - 1] < x) * half;
  }
  return base;
}

/// One full scalar locate (NaN policy applied): the bucket index or -1.
inline int32_t GuidedLocateOne(const LocateGuide& guide, double x) {
  return std::isnan(x) ? -1 : GuidedLowerBound(guide, x);
}

/// Bit t of the packed target byte of row i: columns[t][i] != 0.
inline uint8_t PackTargetsOne(const uint8_t* const* columns, int count,
                              size_t i) {
  unsigned byte = 0;
  for (int t = 0; t < count; ++t) {
    byte |= static_cast<unsigned>(columns[t][i] != 0) << t;
  }
  return static_cast<uint8_t>(byte);
}

/// Visits the rows a scatter counts: row = sel[k] (or k), skipping
/// kNoBucket rows when kGuard; fn(row, bucket) per surviving row, in
/// ascending k.
template <bool kSel, bool kGuard, typename Fn>
inline void ForEachBucketedRowImpl(const int32_t* buckets, const int32_t* sel,
                                   size_t m, Fn& fn) {
  for (size_t k = 0; k < m; ++k) {
    const size_t row = kSel ? static_cast<size_t>(sel[k]) : k;
    const int32_t bucket = buckets[row];
    if (kGuard && bucket < 0) continue;
    fn(row, static_cast<size_t>(bucket));
  }
}

/// Runtime (sel, guard) dispatch onto the four guard- and
/// indirection-free loops above; every arm's scatter kernel runs its
/// per-row add through this.
template <typename Fn>
inline void ForEachBucketedRow(const int32_t* buckets, const int32_t* sel,
                               size_t m, bool guard, Fn&& fn) {
  if (sel != nullptr) {
    if (guard) {
      ForEachBucketedRowImpl<true, true>(buckets, sel, m, fn);
    } else {
      ForEachBucketedRowImpl<true, false>(buckets, sel, m, fn);
    }
  } else if (guard) {
    ForEachBucketedRowImpl<false, true>(buckets, sel, m, fn);
  } else {
    ForEachBucketedRowImpl<false, false>(buckets, sel, m, fn);
  }
}

}  // namespace optrules::bucketing::simd::internal

#endif  // OPTRULES_BUCKETING_SIMD_KERNELS_SCALAR_INL_H_
