// Tests for two-dimensional region mining (grid, rectangles, x-monotone
// regions), including brute-force oracles on small grids, the grid NaN
// policy, and the MultiCountPlan grid channel against the row-at-a-time
// BuildGrid reference.

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/counting.h"
#include "common/rng.h"
#include "region/grid.h"
#include "region/rectangle.h"
#include "region/xmonotone.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"
#include "storage/columnar_batch.h"
#include "storage/relation.h"

namespace optrules::region {
namespace {

GridCounts RandomGrid(int nx, int ny, int64_t max_u, double hit_rate,
                      uint64_t seed) {
  Rng rng(seed);
  GridCounts grid(nx, ny);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const int64_t u = rng.NextInt(0, max_u);
      for (int64_t k = 0; k < u; ++k) {
        grid.Add(x, y, rng.NextBernoulli(hit_rate));
      }
    }
  }
  return grid;
}

/// Rectangle sums via direct iteration.
void RectSums(const GridCounts& grid, int x1, int x2, int y1, int y2,
              int64_t* u, int64_t* v) {
  *u = 0;
  *v = 0;
  for (int y = y1; y <= y2; ++y) {
    for (int x = x1; x <= x2; ++x) {
      *u += grid.u(x, y);
      *v += grid.v(x, y);
    }
  }
}

// -------------------------------------------------------------- grid ----

TEST(GridTest, BuildGridCountsCells) {
  const std::vector<double> xs = {1.0, 5.0, 9.0, 5.0};
  const std::vector<double> ys = {1.0, 1.0, 9.0, 9.0};
  const std::vector<uint8_t> target = {1, 0, 1, 1};
  const auto bx = bucketing::BucketBoundaries::FromCutPoints({4.0});
  const auto by = bucketing::BucketBoundaries::FromCutPoints({4.0});
  const GridCounts grid = BuildGrid(xs, ys, target, bx, by);
  EXPECT_EQ(grid.nx(), 2);
  EXPECT_EQ(grid.ny(), 2);
  EXPECT_EQ(grid.total_tuples(), 4);
  EXPECT_EQ(grid.u(0, 0), 1);  // (1,1)
  EXPECT_EQ(grid.v(0, 0), 1);
  EXPECT_EQ(grid.u(1, 0), 1);  // (5,1)
  EXPECT_EQ(grid.v(1, 0), 0);
  EXPECT_EQ(grid.u(1, 1), 2);  // (9,9) and (5,9)
  EXPECT_EQ(grid.v(1, 1), 2);
  EXPECT_EQ(grid.u(0, 1), 0);
}

TEST(GridTest, NanCoordinatesLandInNoCellButCountTowardN) {
  // Mirrors the 1-D NaN policy tests: a NaN in EITHER grid axis sends the
  // row to no cell, but the row still counts toward the support
  // denominator N.
  const double nan = std::nan("");
  const std::vector<double> xs = {1.0, nan, 9.0, nan, 5.0};
  const std::vector<double> ys = {1.0, 1.0, nan, nan, 9.0};
  const std::vector<uint8_t> target = {1, 1, 1, 1, 1};
  const auto bx = bucketing::BucketBoundaries::FromCutPoints({4.0});
  const auto by = bucketing::BucketBoundaries::FromCutPoints({4.0});
  const GridCounts grid = BuildGrid(xs, ys, target, bx, by);
  EXPECT_EQ(grid.total_tuples(), 5);  // NaN rows still count toward N
  int64_t cell_total = 0;
  for (int y = 0; y < grid.ny(); ++y) {
    for (int x = 0; x < grid.nx(); ++x) cell_total += grid.u(x, y);
  }
  EXPECT_EQ(cell_total, 2);  // only the two fully-located rows
  EXPECT_EQ(grid.u(0, 0), 1);  // (1,1)
  EXPECT_EQ(grid.u(1, 1), 1);  // (5,9)
}

TEST(GridTest, AllNanAxisLeavesEmptyGridWithFullN) {
  const double nan = std::nan("");
  const std::vector<double> xs = {nan, nan, nan};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  const std::vector<uint8_t> target = {1, 0, 1};
  const auto bounds = bucketing::BucketBoundaries::FromCutPoints({2.0});
  const GridCounts grid = BuildGrid(xs, ys, target, bounds, bounds);
  EXPECT_EQ(grid.total_tuples(), 3);
  for (int y = 0; y < grid.ny(); ++y) {
    for (int x = 0; x < grid.nx(); ++x) {
      EXPECT_EQ(grid.u(x, y), 0);
      EXPECT_EQ(grid.v(x, y), 0);
    }
  }
}

TEST(GridTest, FromCellsAdoptsEngineArrays) {
  // The engine bridge: a GridBucketCounts target plane becomes a
  // GridCounts with N possibly exceeding the cell total (NaN rows).
  bucketing::GridBucketCounts cells;
  cells.nx = 2;
  cells.ny = 3;
  cells.u = {1, 2, 3, 4, 5, 6};
  cells.v = {{0, 1, 1, 2, 2, 3}, {1, 1, 1, 1, 1, 1}};
  cells.total_tuples = 25;
  const GridCounts grid = FromGridBucketCounts(cells, 0);
  EXPECT_EQ(grid.nx(), 2);
  EXPECT_EQ(grid.ny(), 3);
  EXPECT_EQ(grid.total_tuples(), 25);
  EXPECT_EQ(grid.u(1, 2), 6);  // row-major by y
  EXPECT_EQ(grid.v(1, 2), 3);
  const GridCounts plane1 = FromGridBucketCounts(cells, 1);
  EXPECT_EQ(plane1.v(0, 0), 1);
}

// ------------------------------------------------------- grid channel ----

/// Kernel-level grid-channel cases mirroring the 1-D NaN policy tests: the
/// engine-side MultiCountPlan grid scatter must agree cell-for-cell with
/// the row-at-a-time BuildGrid reference, NaNs included.
TEST(GridChannelTest, PlanGridMatchesBuildGridWithNans) {
  const double nan = std::nan("");
  storage::Relation relation(storage::Schema::Synthetic(2, 2));
  Rng rng(404);
  for (int row = 0; row < 3000; ++row) {
    const double x = rng.NextBernoulli(0.15) ? nan : rng.NextUniform(0, 100);
    const double y = rng.NextBernoulli(0.10) ? nan : rng.NextUniform(0, 100);
    const std::vector<double> numeric = {x, y};
    const std::vector<uint8_t> boolean = {
        rng.NextBernoulli(0.4) ? uint8_t{1} : uint8_t{0},
        rng.NextBernoulli(0.7) ? uint8_t{1} : uint8_t{0}};
    relation.AppendRow(numeric, boolean);
  }
  // A deliberately rectangular grid: 4 x-buckets by 7 y-buckets.
  const auto bx =
      bucketing::BucketBoundaries::FromCutPoints({25.0, 50.0, 75.0});
  const auto by = bucketing::BucketBoundaries::FromCutPoints(
      {10.0, 30.0, 45.0, 60.0, 80.0, 95.0});

  bucketing::MultiCountSpec spec;
  spec.num_targets = 2;
  bucketing::GridChannel channel;
  channel.x_column = 0;
  channel.x_boundaries = &bx;
  channel.y_column = 1;
  channel.y_boundaries = &by;
  spec.grid_channels.push_back(channel);
  bucketing::MultiCountPlan plan(std::move(spec));
  storage::RelationBatchSource source(&relation, /*batch_rows=*/256);
  auto reader = source.CreateReader();
  storage::ColumnarBatch batch;
  while (reader->Next(&batch)) plan.Accumulate(batch);

  const bucketing::GridBucketCounts& cells = plan.grid_counts(0);
  ASSERT_EQ(cells.nx, 4);
  ASSERT_EQ(cells.ny, 7);
  EXPECT_EQ(cells.total_tuples, relation.NumRows());
  for (int t = 0; t < 2; ++t) {
    const GridCounts expected =
        BuildGrid(relation.NumericColumn(0), relation.NumericColumn(1),
                  relation.BooleanColumn(t), bx, by);
    const GridCounts actual = FromGridBucketCounts(cells, t);
    ASSERT_EQ(actual.total_tuples(), expected.total_tuples()) << t;
    for (int y = 0; y < 7; ++y) {
      for (int x = 0; x < 4; ++x) {
        ASSERT_EQ(actual.u(x, y), expected.u(x, y)) << x << "," << y;
        ASSERT_EQ(actual.v(x, y), expected.v(x, y)) << x << "," << y;
      }
    }
  }
}

TEST(GridChannelTest, GridSharesLocatePassWithBaseChannelsAndMerges) {
  // A grid channel over columns that 1-D channels already bucket must
  // reuse their located indices (same boundaries objects), and partial
  // plans must merge grids exactly.
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  Rng rng(405);
  for (int row = 0; row < 1000; ++row) {
    const std::vector<double> numeric = {rng.NextUniform(0, 10),
                                         rng.NextUniform(0, 10)};
    const std::vector<uint8_t> boolean = {
        rng.NextBernoulli(0.5) ? uint8_t{1} : uint8_t{0}};
    relation.AppendRow(numeric, boolean);
  }
  const auto bx = bucketing::BucketBoundaries::FromCutPoints({3.0, 6.0});
  const auto by = bucketing::BucketBoundaries::FromCutPoints({5.0});

  const auto make_spec = [&] {
    bucketing::MultiCountSpec spec;
    spec.num_targets = 1;
    for (int a = 0; a < 2; ++a) {
      bucketing::CountChannel channel;
      channel.column = a;
      channel.boundaries = a == 0 ? &bx : &by;
      spec.channels.push_back(std::move(channel));
    }
    bucketing::GridChannel grid;
    grid.x_column = 0;
    grid.x_boundaries = &bx;
    grid.y_column = 1;
    grid.y_boundaries = &by;
    spec.grid_channels.push_back(grid);
    return spec;
  };

  bucketing::MultiCountPlan serial(make_spec());
  storage::RelationBatchSource source(&relation, 128);
  auto reader = source.CreateReader();
  storage::ColumnarBatch batch;
  while (reader->Next(&batch)) serial.Accumulate(batch);

  // Two half-table partials merged in order must equal the serial scan.
  bucketing::MultiCountPlan merged(make_spec());
  bucketing::MultiCountPlan second(make_spec());
  const int64_t half = relation.NumRows() / 2;
  for (auto [plan, begin, end] :
       {std::tuple{&merged, int64_t{0}, half},
        std::tuple{&second, half, relation.NumRows()}}) {
    auto range_reader = source.CreateRangeReader(begin, end);
    while (range_reader->Next(&batch)) plan->Accumulate(batch);
  }
  merged.Merge(second);

  const bucketing::GridBucketCounts& a = serial.grid_counts(0);
  const bucketing::GridBucketCounts& b = merged.grid_counts(0);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.v, b.v);
  EXPECT_EQ(a.total_tuples, b.total_tuples);
  // And the grid agrees with the BuildGrid reference.
  const GridCounts expected =
      BuildGrid(relation.NumericColumn(0), relation.NumericColumn(1),
                relation.BooleanColumn(0), bx, by);
  const GridCounts actual = FromGridBucketCounts(a, 0);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 3; ++x) {
      EXPECT_EQ(actual.u(x, y), expected.u(x, y));
      EXPECT_EQ(actual.v(x, y), expected.v(x, y));
    }
  }
}

// -------------------------------------------------------- rectangles ----

TEST(RectangleTest, FindsPlantedBlock) {
  // A 6x6 grid: cells in [2,3]x[2,3] are pure hits, everything else pure
  // misses; each cell holds 4 tuples.
  GridCounts grid(6, 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      const bool hot = 2 <= x && x <= 3 && 2 <= y && y <= 3;
      for (int k = 0; k < 4; ++k) grid.Add(x, y, hot);
    }
  }
  const RegionRule rule = OptimizedConfidenceRectangle(grid, 16);
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.x1, 2);
  EXPECT_EQ(rule.x2, 3);
  EXPECT_EQ(rule.y1, 2);
  EXPECT_EQ(rule.y2, 3);
  EXPECT_DOUBLE_EQ(rule.confidence, 1.0);
  EXPECT_EQ(rule.support_count, 16);
}

TEST(RectangleTest, InfeasibleSupportNotFound) {
  GridCounts grid(2, 2);
  grid.Add(0, 0, true);
  EXPECT_FALSE(OptimizedConfidenceRectangle(grid, 5).found);
}

TEST(RectangleTest, SupportRectangleWidensWhileConfident) {
  // Center 2x2 pure hits surrounded by a ring at 50%: widening keeps
  // confidence >= 1/2 and triples the support.
  GridCounts grid(4, 4);
  Rng rng(3);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const bool hot = 1 <= x && x <= 2 && 1 <= y && y <= 2;
      for (int k = 0; k < 2; ++k) {
        grid.Add(x, y, hot || (k == 0));  // ring cells: 1 of 2 hits
      }
    }
  }
  const RegionRule rule = OptimizedSupportRectangle(grid, Ratio(1, 2));
  ASSERT_TRUE(rule.found);
  EXPECT_EQ(rule.support_count, 32);  // whole grid qualifies
  EXPECT_GE(rule.confidence, 0.5);
}

class RectanglePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RectanglePropertyTest, ConfidenceMatchesBruteForce) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int nx = 2 + static_cast<int>(rng.NextBounded(8));
  const int ny = 2 + static_cast<int>(rng.NextBounded(8));
  const GridCounts grid = RandomGrid(nx, ny, 4, 0.4, seed * 13 + 1);
  if (grid.total_tuples() == 0) return;
  const int64_t min_support = 1 + rng.NextInt(0, grid.total_tuples() - 1);

  const RegionRule fast = OptimizedConfidenceRectangle(grid, min_support);

  // Brute force over all rectangles.
  bool found = false;
  int64_t best_u = 0;
  int64_t best_v = 0;
  for (int x1 = 0; x1 < nx; ++x1) {
    for (int x2 = x1; x2 < nx; ++x2) {
      for (int y1 = 0; y1 < ny; ++y1) {
        for (int y2 = y1; y2 < ny; ++y2) {
          int64_t u;
          int64_t v;
          RectSums(grid, x1, x2, y1, y2, &u, &v);
          if (u < min_support) continue;
          const bool better =
              !found ||
              static_cast<__int128>(v) * best_u >
                  static_cast<__int128>(best_v) * u ||
              (static_cast<__int128>(v) * best_u ==
                   static_cast<__int128>(best_v) * u &&
               u > best_u);
          if (better) {
            found = true;
            best_u = u;
            best_v = v;
          }
        }
      }
    }
  }
  ASSERT_EQ(fast.found, found) << "seed " << seed;
  if (!found) return;
  EXPECT_EQ(static_cast<__int128>(fast.hit_count) * best_u,
            static_cast<__int128>(best_v) * fast.support_count)
      << "seed " << seed;
  EXPECT_EQ(fast.support_count, best_u) << "seed " << seed;
}

TEST_P(RectanglePropertyTest, SupportMatchesBruteForce) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5555);
  const int nx = 2 + static_cast<int>(rng.NextBounded(8));
  const int ny = 2 + static_cast<int>(rng.NextBounded(8));
  const GridCounts grid = RandomGrid(nx, ny, 4, 0.45, seed * 17 + 5);
  const Ratio theta(1, 2);

  const RegionRule fast = OptimizedSupportRectangle(grid, theta);

  bool found = false;
  int64_t best_u = -1;
  for (int x1 = 0; x1 < nx; ++x1) {
    for (int x2 = x1; x2 < nx; ++x2) {
      for (int y1 = 0; y1 < ny; ++y1) {
        for (int y2 = y1; y2 < ny; ++y2) {
          int64_t u;
          int64_t v;
          RectSums(grid, x1, x2, y1, y2, &u, &v);
          if (u == 0) continue;
          if (!theta.LessOrEqualTo(v, u)) continue;
          if (u > best_u) {
            found = true;
            best_u = u;
          }
        }
      }
    }
  }
  ASSERT_EQ(fast.found, found) << "seed " << seed;
  if (found) {
    EXPECT_EQ(fast.support_count, best_u) << "seed " << seed;
    EXPECT_TRUE(theta.LessOrEqualTo(fast.hit_count, fast.support_count));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectanglePropertyTest,
                         testing::Range(uint64_t{1}, uint64_t{30}));

/// The band sweep of the rectangle optimizers written out plainly: every
/// y-band collapsed, empty columns dropped, and a FRESH 1-D optimizer call
/// per band. `conf` picks the confidence (true) or support optimizer.
RegionRule FreshPerBandRectangle(const GridCounts& grid, bool conf,
                                 int64_t min_support, Ratio theta) {
  RegionRule best;
  for (int y1 = 0; y1 < grid.ny(); ++y1) {
    for (int y2 = y1; y2 < grid.ny(); ++y2) {
      std::vector<int64_t> u;
      std::vector<int64_t> v;
      std::vector<int> x_of;
      for (int x = 0; x < grid.nx(); ++x) {
        int64_t cu;
        int64_t cv;
        RectSums(grid, x, x, y1, y2, &cu, &cv);
        if (cu == 0) continue;
        u.push_back(cu);
        v.push_back(cv);
        x_of.push_back(x);
      }
      if (u.empty()) continue;
      const rules::RangeRule rule =
          conf ? rules::OptimizedConfidenceRule(u, v, grid.total_tuples(),
                                                min_support)
               : rules::OptimizedSupportRule(u, v, grid.total_tuples(),
                                             theta);
      if (!rule.found) continue;
      const __int128 lhs = static_cast<__int128>(rule.hit_count) *
                           best.support_count;
      const __int128 rhs = static_cast<__int128>(best.hit_count) *
                           rule.support_count;
      const bool better =
          !best.found ||
          (conf ? lhs > rhs || (lhs == rhs &&
                                rule.support_count > best.support_count)
                : rule.support_count > best.support_count);
      if (!better) continue;
      best.found = true;
      best.x1 = x_of[static_cast<size_t>(rule.s)];
      best.x2 = x_of[static_cast<size_t>(rule.t)];
      best.y1 = y1;
      best.y2 = y2;
      best.support_count = rule.support_count;
      best.hit_count = rule.hit_count;
      best.support = static_cast<double>(rule.support_count) /
                     static_cast<double>(grid.total_tuples());
      best.confidence = static_cast<double>(rule.hit_count) /
                        static_cast<double>(rule.support_count);
    }
  }
  return best;
}

void ExpectSameRegionRule(const RegionRule& a, const RegionRule& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.x1, b.x1);
  EXPECT_EQ(a.x2, b.x2);
  EXPECT_EQ(a.y1, b.y1);
  EXPECT_EQ(a.y2, b.y2);
  EXPECT_EQ(a.support_count, b.support_count);
  EXPECT_EQ(a.hit_count, b.hit_count);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.confidence, b.confidence);
}

// The rectangle optimizers reuse one hull context / support scratch over
// all bands of a grid; on random grids -- NaN-free ones and ones whose
// support denominator counts NaN rows outside every cell, with and
// without whole empty columns -- they must answer exactly like fresh
// 1-D calls per band.
TEST_P(RectanglePropertyTest, ReusedBandScratchMatchesFreshPerBandCalls) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xabcd);
  const int nx = 1 + static_cast<int>(rng.NextBounded(24));
  const int ny = 1 + static_cast<int>(rng.NextBounded(12));
  const GridCounts random = RandomGrid(nx, ny, 6, 0.35, seed * 19 + 3);
  std::vector<int64_t> u(static_cast<size_t>(nx * ny));
  std::vector<int64_t> v(static_cast<size_t>(nx * ny));
  int64_t cells = 0;
  const bool empty_columns = seed % 2 == 0;
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const bool drop = empty_columns && x % 3 == 1;
      const auto i = static_cast<size_t>(y * nx + x);
      u[i] = drop ? 0 : random.u(x, y);
      v[i] = drop ? 0 : random.v(x, y);
      cells += u[i];
    }
  }
  const int64_t nan_rows = seed % 3 == 0 ? 0 : rng.NextInt(1, 50);
  const GridCounts grid =
      GridCounts::FromCells(nx, ny, u, v, cells + nan_rows);
  if (grid.total_tuples() == 0) return;
  for (const double fraction : {0.0, 0.05, 0.3, 0.8}) {
    const int64_t min_support = rules::MinSupportCount(cells, fraction);
    ExpectSameRegionRule(
        OptimizedConfidenceRectangle(grid, min_support),
        FreshPerBandRectangle(grid, true, min_support, Ratio()));
  }
  for (const Ratio theta : {Ratio(0, 1), Ratio(1, 3), Ratio(1, 2)}) {
    ExpectSameRegionRule(OptimizedSupportRectangle(grid, theta),
                         FreshPerBandRectangle(grid, false, 0, theta));
  }
}

// --------------------------------------------------------- x-monotone ----

TEST(XMonotoneTest, RectangleIsRecoveredWhenOptimal) {
  GridCounts grid(5, 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      const bool hot = 1 <= x && x <= 3 && 2 <= y && y <= 3;
      grid.Add(x, y, hot);
    }
  }
  const XMonotoneRegion region = MaxGainXMonotoneRegion(grid, Ratio(1, 2));
  ASSERT_TRUE(region.found);
  EXPECT_EQ(region.x_begin, 1);
  ASSERT_EQ(region.column_ranges.size(), 3u);
  for (const auto& [s, t] : region.column_ranges) {
    EXPECT_EQ(s, 2);
    EXPECT_EQ(t, 3);
  }
  EXPECT_DOUBLE_EQ(region.confidence, 1.0);
}

TEST(XMonotoneTest, FollowsADiagonalBand) {
  // Hits along a 2-thick diagonal band (rows x and x+1 of column x):
  // consecutive column intervals [x, x+1] overlap, so an x-monotone region
  // captures the whole band with no misses; no rectangle can.
  const int n = 6;
  GridCounts grid(n, n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      grid.Add(x, y, y == x || y == x + 1);
    }
  }
  const Ratio theta(1, 2);
  const XMonotoneRegion region = MaxGainXMonotoneRegion(grid, theta);
  const RegionRule rectangle = MaxGainRectangle(grid, theta);
  ASSERT_TRUE(region.found);
  ASSERT_TRUE(rectangle.found);
  // Band size: 2 hits per column except the last (row n would be off
  // grid), so 2n - 1 cells, all hits.
  EXPECT_EQ(region.hit_count, 2 * n - 1);
  EXPECT_EQ(region.support_count, 2 * n - 1);
  EXPECT_DOUBLE_EQ(region.confidence, 1.0);
  // Strictly more gain than the best rectangle (which must pay for misses
  // to span multiple columns, or stay narrow).
  const double rect_gain =
      2.0 * static_cast<double>(rectangle.hit_count) -
      static_cast<double>(rectangle.support_count);
  EXPECT_GT(region.gain, rect_gain);
}

TEST(XMonotoneTest, ColumnsMustOverlap) {
  // Two hot cells that do NOT share rows in adjacent columns: a connected
  // x-monotone region cannot take both without including a connector.
  GridCounts grid(2, 4);
  for (int k = 0; k < 3; ++k) {
    grid.Add(0, 0, true);
    grid.Add(1, 3, true);
  }
  grid.Add(0, 1, false);
  grid.Add(0, 2, false);
  grid.Add(1, 1, false);
  grid.Add(1, 2, false);
  const XMonotoneRegion region = MaxGainXMonotoneRegion(grid, Ratio(1, 2));
  ASSERT_TRUE(region.found);
  // Gains: hot cell = 3*(2-1)... in den units: v*2 - u*1 = 3 each; every
  // connector cell costs 1. Taking both hot cells requires >= 2 connector
  // cells in one column plus overlap; best single cell = 3, best connected
  // path = 3 + 3 - (cost of connecting cells) = 6 - 2 = 4 via column 0
  // rows [0..3]? Column 0 has cells (0,1),(0,2) cost 1 each; (0,3) empty.
  // Region col0=[0,3], col1=[3,3]: gain 3 - 1 - 1 + 0 + 3 = 4.
  EXPECT_EQ(region.gain, 4.0);
  EXPECT_EQ(region.column_ranges.size(), 2u);
}

class XMonotonePropertyTest : public testing::TestWithParam<uint64_t> {};

/// Exhaustive x-monotone search on tiny grids by recursion over columns.
struct BruteState {
  const GridCounts* grid;
  Ratio theta;
  __int128 best;
  bool found;
};

void BruteExtend(BruteState* state, int x, int s, int t, __int128 gain) {
  state->found = true;
  if (gain > state->best) state->best = gain;
  if (x + 1 >= state->grid->nx()) return;
  const int ny = state->grid->ny();
  for (int s2 = 0; s2 < ny; ++s2) {
    for (int t2 = s2; t2 < ny; ++t2) {
      if (s2 > t || t2 < s) continue;  // must overlap
      __int128 column_gain = 0;
      for (int y = s2; y <= t2; ++y) {
        column_gain +=
            static_cast<__int128>(state->theta.den()) *
                state->grid->v(x + 1, y) -
            static_cast<__int128>(state->theta.num()) *
                state->grid->u(x + 1, y);
      }
      BruteExtend(state, x + 1, s2, t2, gain + column_gain);
    }
  }
}

TEST_P(XMonotonePropertyTest, MatchesExhaustiveSearchOnTinyGrids) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int nx = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4
  const int ny = 2 + static_cast<int>(rng.NextBounded(3));
  const GridCounts grid = RandomGrid(nx, ny, 3, 0.5, seed * 31 + 7);
  const Ratio theta(1, 2);

  const XMonotoneRegion fast = MaxGainXMonotoneRegion(grid, theta);

  BruteState state{&grid, theta, 0, false};
  for (int x = 0; x < nx; ++x) {
    for (int s = 0; s < ny; ++s) {
      for (int t = s; t < ny; ++t) {
        __int128 gain = 0;
        for (int y = s; y <= t; ++y) {
          gain += static_cast<__int128>(theta.den()) * grid.v(x, y) -
                  static_cast<__int128>(theta.num()) * grid.u(x, y);
        }
        BruteExtend(&state, x, s, t, gain);
      }
    }
  }
  ASSERT_TRUE(fast.found);
  ASSERT_TRUE(state.found);
  EXPECT_EQ(static_cast<double>(state.best), fast.gain) << "seed " << seed;
}

TEST_P(XMonotonePropertyTest, AlwaysAtLeastRectangleGain) {
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0xbeef);
  const int nx = 2 + static_cast<int>(rng.NextBounded(6));
  const int ny = 2 + static_cast<int>(rng.NextBounded(6));
  const GridCounts grid = RandomGrid(nx, ny, 4, 0.5, seed * 7 + 3);
  const Ratio theta(1, 2);
  const XMonotoneRegion region = MaxGainXMonotoneRegion(grid, theta);
  const RegionRule rectangle = MaxGainRectangle(grid, theta);
  if (!rectangle.found || !region.found) return;
  const double rect_gain =
      static_cast<double>(theta.den()) *
          static_cast<double>(rectangle.hit_count) -
      static_cast<double>(theta.num()) *
          static_cast<double>(rectangle.support_count);
  EXPECT_GE(region.gain, rect_gain) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, XMonotonePropertyTest,
                         testing::Range(uint64_t{1}, uint64_t{25}));

TEST(XMonotoneTest, RegionIntervalsOverlapInvariant) {
  const GridCounts grid = RandomGrid(10, 10, 3, 0.4, 99);
  const XMonotoneRegion region = MaxGainXMonotoneRegion(grid, Ratio(1, 2));
  ASSERT_TRUE(region.found);
  for (size_t i = 1; i < region.column_ranges.size(); ++i) {
    const auto& [s_prev, t_prev] = region.column_ranges[i - 1];
    const auto& [s, t] = region.column_ranges[i];
    EXPECT_LE(s, t_prev);
    EXPECT_GE(t, s_prev);
    EXPECT_LE(s, t);
  }
}

}  // namespace
}  // namespace optrules::region
