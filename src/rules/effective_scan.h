// Internal: generic implementation of Algorithms 4.3 + 4.4.
//
// Shared by the exact integer instantiation (optimized-support rules with
// rational confidence thresholds) and the real-valued instantiation
// (Section 5 maximum-support ranges under an average threshold).
//
// Terminology (Section 4.2): with per-bucket gains g_i = v_i - theta*u_i,
// a start index s is *effective* iff every prefix ending at s-1 has
// negative gain sum; top(s) is the largest t >= s with gain(s..t) >= 0.
// The optimal support pair is the effective s maximizing the tuple count
// of [s, top(s)], found by one forward scan (effective indices) and one
// backward scan (tops, monotone by Lemma 4.2).

#ifndef OPTRULES_RULES_EFFECTIVE_SCAN_H_
#define OPTRULES_RULES_EFFECTIVE_SCAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"

namespace optrules::rules::internal {

/// Result of the effective-index scan: 0-based inclusive bucket range.
struct MaxSupportScanResult {
  bool found = false;
  int s = -1;
  int t = -1;
};

/// The scan's O(M) working arrays. A loop that scans many bucket arrays
/// owns one and passes it to every call, so the scans allocate only while
/// the arrays grow.
template <typename GainT>
struct MaxSupportScratch {
  std::vector<GainT> f;          // F(j) = sum_{i<j} g_i
  std::vector<int64_t> x;        // cumulative tuple counts
  std::vector<int> effective;    // effective start indices, ascending
};

/// Finds the maximum-support range with non-negative total gain.
/// `gain(i)` returns GainT for bucket i; GainT must be a signed numeric
/// type closed under addition for M terms (the callers use __int128 /
/// long double).
template <typename GainT, typename GainFn>
MaxSupportScanResult ScanMaxSupport(std::span<const int64_t> u, GainFn gain,
                                    MaxSupportScratch<GainT>& scratch) {
  const int m = static_cast<int>(u.size());
  MaxSupportScanResult best;
  if (m == 0) return best;

  // Cumulative gain table F(j) = sum_{i<j} g_i (Algorithm 4.4's table).
  std::vector<GainT>& f = scratch.f;
  f.resize(static_cast<size_t>(m) + 1);
  f[0] = GainT(0);
  for (int i = 0; i < m; ++i) {
    f[static_cast<size_t>(i) + 1] = f[static_cast<size_t>(i)] + gain(i);
  }
  // Cumulative tuple counts for support comparison.
  std::vector<int64_t>& x = scratch.x;
  x.resize(static_cast<size_t>(m) + 1);
  x[0] = 0;
  for (int i = 0; i < m; ++i) {
    x[static_cast<size_t>(i) + 1] = x[static_cast<size_t>(i)] +
                                    u[static_cast<size_t>(i)];
  }

  // Algorithm 4.3: forward scan for effective indices. w tracks
  // max_{j<s} gain(j .. s-1); s is effective iff w < 0 (s = 0 trivially).
  std::vector<int>& effective = scratch.effective;
  effective.clear();
  effective.push_back(0);
  GainT w = GainT(0);
  for (int s = 1; s < m; ++s) {
    const GainT prev = gain(s - 1);
    w = prev + (w > GainT(0) ? w : GainT(0));
    if (w < GainT(0)) effective.push_back(s);
  }

  // Algorithm 4.4: backward alternating scan. tops are monotone over
  // effective indices (Lemma 4.2), so i only ever decreases.
  int i = m - 1;
  int64_t best_support = -1;
  for (int j = static_cast<int>(effective.size()) - 1; j >= 0; --j) {
    const int s = effective[static_cast<size_t>(j)];
    while (i >= s &&
           f[static_cast<size_t>(i) + 1] - f[static_cast<size_t>(s)] <
               GainT(0)) {
      --i;
    }
    if (i < s) continue;  // no t with avg(s, t) >= theta for this s
    const int64_t support = x[static_cast<size_t>(i) + 1] -
                            x[static_cast<size_t>(s)];
    if (support > best_support) {
      best_support = support;
      best.found = true;
      best.s = s;
      best.t = i;
    }
  }
  return best;
}

}  // namespace optrules::rules::internal

#endif  // OPTRULES_RULES_EFFECTIVE_SCAN_H_
