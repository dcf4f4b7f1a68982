// Optimized-support rules (Section 4.2, Algorithms 4.3 and 4.4).
//
// Among ranges of consecutive buckets whose confidence is at least the
// given threshold, find the one maximizing the support. Runs in O(M) via
// effective start indices and a monotone backward scan for each start's
// furthest confident end. All arithmetic is exact (128-bit integer gains
// against a rational threshold).

#ifndef OPTRULES_RULES_OPTIMIZED_SUPPORT_H_
#define OPTRULES_RULES_OPTIMIZED_SUPPORT_H_

#include <cstdint>
#include <span>

#include "common/ratio.h"
#include "rules/effective_scan.h"
#include "rules/rule.h"

namespace optrules::rules {

/// Maximizes sum(u) over ranges with sum(v)/sum(u) >= min_confidence.
/// Requires 0 <= v_i <= u_i. Returns found=false when no range is
/// confident.
RangeRule OptimizedSupportRule(std::span<const int64_t> u,
                               std::span<const int64_t> v,
                               int64_t total_tuples, Ratio min_confidence);

/// Working arrays of OptimizedSupportRule, reusable across calls.
using OptimizedSupportScratch = internal::MaxSupportScratch<__int128>;

/// OptimizedSupportRule over caller-owned working arrays: a loop over many
/// bucket arrays passes one scratch to every call and stops allocating
/// once it has grown to the largest array.
RangeRule OptimizedSupportRule(std::span<const int64_t> u,
                               std::span<const int64_t> v,
                               int64_t total_tuples, Ratio min_confidence,
                               OptimizedSupportScratch& scratch);

}  // namespace optrules::rules

#endif  // OPTRULES_RULES_OPTIMIZED_SUPPORT_H_
