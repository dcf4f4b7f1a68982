#include "rules/optimized_support.h"

namespace optrules::rules {

RangeRule OptimizedSupportRule(std::span<const int64_t> u,
                               std::span<const int64_t> v,
                               int64_t total_tuples, Ratio min_confidence) {
  OptimizedSupportScratch scratch;
  return OptimizedSupportRule(u, v, total_tuples, min_confidence, scratch);
}

RangeRule OptimizedSupportRule(std::span<const int64_t> u,
                               std::span<const int64_t> v,
                               int64_t total_tuples, Ratio min_confidence,
                               OptimizedSupportScratch& scratch) {
  OPTRULES_CHECK(u.size() == v.size());
  for (size_t i = 0; i < u.size(); ++i) {
    OPTRULES_CHECK(u[i] >= 1);
    OPTRULES_CHECK(0 <= v[i] && v[i] <= u[i]);
  }
  // Exact gains: g_i = den*v_i - num*u_i, so gain(s..t) >= 0 iff
  // conf(s, t) >= num/den.
  const auto gain = [&](int i) -> __int128 {
    return static_cast<__int128>(min_confidence.den()) *
               v[static_cast<size_t>(i)] -
           static_cast<__int128>(min_confidence.num()) *
               u[static_cast<size_t>(i)];
  };
  const internal::MaxSupportScanResult result =
      internal::ScanMaxSupport(u, gain, scratch);
  if (!result.found) return RangeRule{};
  return MakeRangeRule(u, v, total_tuples, result.s, result.t);
}

}  // namespace optrules::rules
