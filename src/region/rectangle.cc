#include "region/rectangle.h"

#include <vector>

#include "rules/kadane.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"

namespace optrules::region {

namespace {

/// One y-band [y1, y2] collapsed to per-column totals, with empty columns
/// compacted out (the 1-D algorithms require u_i >= 1). `x_of[i]` maps the
/// compacted bucket i back to its grid column.
struct Band {
  std::vector<int64_t> u;
  std::vector<int64_t> v;
  std::vector<int> x_of;
};

void CompactBand(const std::vector<int64_t>& col_u,
                 const std::vector<int64_t>& col_v, Band* band) {
  band->u.clear();
  band->v.clear();
  band->x_of.clear();
  for (size_t x = 0; x < col_u.size(); ++x) {
    if (col_u[x] == 0) continue;
    band->u.push_back(col_u[x]);
    band->v.push_back(col_v[x]);
    band->x_of.push_back(static_cast<int>(x));
  }
}

void FillRegion(const GridCounts& grid, const Band& band, int s, int t,
                int y1, int y2, int64_t support_count, int64_t hit_count,
                RegionRule* out) {
  out->found = true;
  out->x1 = band.x_of[static_cast<size_t>(s)];
  out->x2 = band.x_of[static_cast<size_t>(t)];
  out->y1 = y1;
  out->y2 = y2;
  out->support_count = support_count;
  out->hit_count = hit_count;
  out->support = grid.total_tuples() > 0
                     ? static_cast<double>(support_count) /
                           static_cast<double>(grid.total_tuples())
                     : 0.0;
  out->confidence = support_count > 0
                        ? static_cast<double>(hit_count) /
                              static_cast<double>(support_count)
                        : 0.0;
}

/// conf(a) > conf(b) exactly, as h/s fractions.
bool ConfGreater(int64_t h1, int64_t s1, int64_t h2, int64_t s2) {
  return static_cast<__int128>(h1) * s2 > static_cast<__int128>(h2) * s1;
}

bool ConfEqual(int64_t h1, int64_t s1, int64_t h2, int64_t s2) {
  return static_cast<__int128>(h1) * s2 == static_cast<__int128>(h2) * s1;
}

/// Shared band sweep driving a per-band 1-D optimizer.
template <typename PerBand>
void SweepBands(const GridCounts& grid, PerBand per_band) {
  const int nx = grid.nx();
  std::vector<int64_t> col_u(static_cast<size_t>(nx));
  std::vector<int64_t> col_v(static_cast<size_t>(nx));
  Band band;
  for (int y1 = 0; y1 < grid.ny(); ++y1) {
    std::fill(col_u.begin(), col_u.end(), 0);
    std::fill(col_v.begin(), col_v.end(), 0);
    for (int y2 = y1; y2 < grid.ny(); ++y2) {
      for (int x = 0; x < nx; ++x) {
        col_u[static_cast<size_t>(x)] += grid.u(x, y2);
        col_v[static_cast<size_t>(x)] += grid.v(x, y2);
      }
      CompactBand(col_u, col_v, &band);
      if (band.u.empty()) continue;
      per_band(band, y1, y2);
    }
  }
}

}  // namespace

RegionRule OptimizedConfidenceRectangle(const GridCounts& grid,
                                        int64_t min_support_count) {
  RegionRule best;
  rules::SlopePairContext context;  // one hull buffer for every band
  SweepBands(grid, [&](const Band& band, int y1, int y2) {
    context.Assign(band.u, band.v);
    const rules::RangeRule rule = rules::OptimizedConfidenceRule(
        context, band.u, band.v, grid.total_tuples(), min_support_count);
    if (!rule.found) return;
    const bool better =
        !best.found ||
        ConfGreater(rule.hit_count, rule.support_count, best.hit_count,
                    best.support_count) ||
        (ConfEqual(rule.hit_count, rule.support_count, best.hit_count,
                   best.support_count) &&
         rule.support_count > best.support_count);
    if (better) {
      FillRegion(grid, band, rule.s, rule.t, y1, y2, rule.support_count,
                 rule.hit_count, &best);
    }
  });
  return best;
}

RegionRule OptimizedSupportRectangle(const GridCounts& grid,
                                     Ratio min_confidence) {
  RegionRule best;
  rules::OptimizedSupportScratch scratch;  // one for every band
  SweepBands(grid, [&](const Band& band, int y1, int y2) {
    const rules::RangeRule rule = rules::OptimizedSupportRule(
        band.u, band.v, grid.total_tuples(), min_confidence, scratch);
    if (!rule.found) return;
    if (!best.found || rule.support_count > best.support_count) {
      FillRegion(grid, band, rule.s, rule.t, y1, y2, rule.support_count,
                 rule.hit_count, &best);
    }
  });
  return best;
}

RegionRule MaxGainRectangle(const GridCounts& grid, Ratio theta) {
  RegionRule best;
  __int128 best_gain = 0;
  SweepBands(grid, [&](const Band& band, int y1, int y2) {
    const rules::GainRange range =
        rules::MaxGainRange(band.u, band.v, theta);
    if (!range.found) return;
    // Recompute the exact gain (GainRange reports a double).
    __int128 gain = 0;
    int64_t support_count = 0;
    int64_t hit_count = 0;
    for (int i = range.s; i <= range.t; ++i) {
      gain += static_cast<__int128>(theta.den()) *
                  band.v[static_cast<size_t>(i)] -
              static_cast<__int128>(theta.num()) *
                  band.u[static_cast<size_t>(i)];
      support_count += band.u[static_cast<size_t>(i)];
      hit_count += band.v[static_cast<size_t>(i)];
    }
    if (!best.found || gain > best_gain) {
      best_gain = gain;
      FillRegion(grid, band, range.s, range.t, y1, y2, support_count,
                 hit_count, &best);
    }
  });
  return best;
}

}  // namespace optrules::region
