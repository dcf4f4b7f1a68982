#include "rules/average_range.h"

#include "rules/effective_scan.h"
#include "rules/optimized_confidence.h"

namespace optrules::rules {

RangeAggregate MaximumAverageRange(std::span<const int64_t> u,
                                   std::span<const double> v,
                                   int64_t min_support_count) {
  const SlopePair pair = OptimalSlopePair(u, v, min_support_count);
  if (!pair.found) return RangeAggregate{};
  return MakeRangeAggregate(u, v, pair.m, pair.n - 1);
}

RangeAggregate MaximumSupportRange(std::span<const int64_t> u,
                                   std::span<const double> v,
                                   double min_average) {
  OPTRULES_CHECK(u.size() == v.size());
  for (size_t i = 0; i < u.size(); ++i) OPTRULES_CHECK(u[i] >= 1);
  const auto gain = [&](int i) -> long double {
    return static_cast<long double>(v[static_cast<size_t>(i)]) -
           static_cast<long double>(min_average) *
               static_cast<long double>(u[static_cast<size_t>(i)]);
  };
  internal::MaxSupportScratch<long double> scratch;
  const internal::MaxSupportScanResult result =
      internal::ScanMaxSupport(u, gain, scratch);
  if (!result.found) return RangeAggregate{};
  return MakeRangeAggregate(u, v, result.s, result.t);
}

}  // namespace optrules::rules
