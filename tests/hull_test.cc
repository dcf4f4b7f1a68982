// Tests for geometry predicates, the static hull oracle, and the
// convex-hull tree (Algorithm 4.1).

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hull/convex_hull_tree.h"
#include "hull/point.h"
#include "hull/static_hull.h"

namespace optrules::hull {
namespace {

TEST(PointTest, OrientationSigns) {
  const Point a{0, 0};
  const Point b{1, 0};
  EXPECT_EQ(Orientation(a, b, Point{2, 1}), 1);    // above: ccw
  EXPECT_EQ(Orientation(a, b, Point{2, -1}), -1);  // below: cw
  EXPECT_EQ(Orientation(a, b, Point{2, 0}), 0);    // collinear
}

TEST(PointTest, CompareSlopes) {
  const Point origin{0, 0};
  EXPECT_EQ(CompareSlopes(origin, Point{1, 1}, Point{1, 2}), -1);
  EXPECT_EQ(CompareSlopes(origin, Point{1, 2}, Point{1, 1}), 1);
  EXPECT_EQ(CompareSlopes(origin, Point{1, 1}, Point{2, 2}), 0);
}

TEST(PointTest, OrientationExactAtLargeIntegerCoordinates) {
  // 1e7-scale integer coordinates: products are ~1e14, exact in long
  // double. A nearly-collinear triple must be classified correctly.
  const Point a{0, 0};
  const Point b{10000000, 10000000};
  EXPECT_EQ(Orientation(a, b, Point{20000000, 20000001}), 1);
  EXPECT_EQ(Orientation(a, b, Point{20000000, 19999999}), -1);
  EXPECT_EQ(Orientation(a, b, Point{20000000, 20000000}), 0);
}

TEST(StaticHullTest, KnownSmallCases) {
  // Single point.
  const std::vector<Point> one = {{0, 0}};
  EXPECT_EQ(UpperHullIndices(one), (std::vector<int>{0}));
  // Two points.
  const std::vector<Point> two = {{0, 0}, {1, 5}};
  EXPECT_EQ(UpperHullIndices(two), (std::vector<int>{0, 1}));
  // Peak in the middle.
  const std::vector<Point> peak = {{0, 0}, {1, 3}, {2, 0}};
  EXPECT_EQ(UpperHullIndices(peak), (std::vector<int>{0, 1, 2}));
  // Valley in the middle is dropped from the upper hull.
  const std::vector<Point> valley = {{0, 0}, {1, -3}, {2, 0}};
  EXPECT_EQ(UpperHullIndices(valley), (std::vector<int>{0, 2}));
  // Collinear interior points are excluded (strict hull).
  const std::vector<Point> line = {{0, 0}, {1, 1}, {2, 2}};
  EXPECT_EQ(UpperHullIndices(line), (std::vector<int>{0, 2}));
}

std::vector<Point> RandomMonotonePoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points(static_cast<size_t>(n));
  double x = 0.0;
  for (auto& p : points) {
    x += 1.0 + static_cast<double>(rng.NextBounded(5));
    p.x = x;
    p.y = static_cast<double>(rng.NextInt(-50, 50));
  }
  return points;
}

TEST(StaticHullTest, HullNodesDominateAllPoints) {
  const std::vector<Point> points = RandomMonotonePoints(200, 31);
  const std::vector<int> hull = UpperHullIndices(points);
  // Every point must lie on or below every hull edge.
  for (size_t e = 0; e + 1 < hull.size(); ++e) {
    const Point& a = points[static_cast<size_t>(hull[e])];
    const Point& b = points[static_cast<size_t>(hull[e + 1])];
    for (const Point& p : points) {
      if (p.x < a.x || p.x > b.x) continue;
      EXPECT_LE(Orientation(a, b, p), 0);
    }
  }
}

// ----------------------------------------------------- convex hull tree ----

class HullTreeParamTest : public testing::TestWithParam<uint64_t> {};

TEST_P(HullTreeParamTest, MatchesStaticHullAtEveryBase) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.NextBounded(120));
  const std::vector<Point> points = RandomMonotonePoints(n, seed * 7 + 1);

  ConvexHullTree tree(points);
  for (int base = 0; base < n; ++base) {
    if (base > 0) tree.AdvanceBase();
    ASSERT_EQ(tree.base(), base);
    const std::vector<int> expected = UpperHullIndices(
        std::span<const Point>(points).subspan(static_cast<size_t>(base)));
    ASSERT_EQ(tree.hull_size(), static_cast<int>(expected.size()))
        << "base " << base << " seed " << seed;
    // Stack order: top (= hull_size-1) is leftmost; expected is
    // left-to-right. Indices in `expected` are relative to the suffix.
    for (size_t k = 0; k < expected.size(); ++k) {
      const int node =
          tree.NodeAt(tree.hull_size() - 1 - static_cast<int>(k));
      EXPECT_EQ(node, expected[k] + base) << "base " << base;
      EXPECT_EQ(tree.PositionOf(node),
                tree.hull_size() - 1 - static_cast<int>(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HullTreeParamTest,
                         testing::Range(uint64_t{1}, uint64_t{40}));

/// The tree's current hull equals the static upper hull of the suffix
/// starting at its base, node for node and position for position, and
/// every other point reports position -1.
void ExpectHullMatchesStatic(const ConvexHullTree& tree,
                             const std::vector<Point>& points) {
  const int base = tree.base();
  const std::vector<int> expected = UpperHullIndices(
      std::span<const Point>(points).subspan(static_cast<size_t>(base)));
  ASSERT_EQ(tree.hull_size(), static_cast<int>(expected.size()))
      << "base " << base;
  std::vector<int> positions(points.size(), -1);
  for (size_t k = 0; k < expected.size(); ++k) {
    const int position = tree.hull_size() - 1 - static_cast<int>(k);
    EXPECT_EQ(tree.NodeAt(position), expected[k] + base) << "base " << base;
    positions[static_cast<size_t>(expected[k] + base)] = position;
  }
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(tree.PositionOf(static_cast<int>(i)), positions[i])
        << "base " << base << " point " << i;
  }
}

// One tree rebuilt over point sets that shrink to a single point and grow
// again, each walked part way, rewound, and walked to the end: every
// Build and Rewind lands on U_0 and every base matches the static hull.
TEST(HullTreeTest, RebuildAndRewindReuseOneTree) {
  ConvexHullTree tree;
  EXPECT_EQ(tree.num_points(), 0);
  uint64_t seed = 100;
  for (const int n : {120, 3, 1, 2, 200}) {
    SCOPED_TRACE(n);
    const std::vector<Point> points = RandomMonotonePoints(n, ++seed);
    tree.Build(points);
    ASSERT_EQ(tree.num_points(), n);
    for (const int stop : {n / 2, n - 1, n - 1}) {
      tree.Rewind();
      ASSERT_EQ(tree.base(), 0);
      ExpectHullMatchesStatic(tree, points);
      while (tree.base() < stop) {
        tree.AdvanceBase();
        ExpectHullMatchesStatic(tree, points);
      }
    }
  }
}

TEST(HullTreeTest, SinglePoint) {
  ConvexHullTree tree({{1.0, 2.0}});
  EXPECT_EQ(tree.hull_size(), 1);
  EXPECT_EQ(tree.NodeAt(0), 0);
  EXPECT_EQ(tree.base(), 0);
}

TEST(HullTreeTest, PositionOfAbsentNodeIsMinusOne) {
  // The valley point is not on U_0.
  ConvexHullTree tree({{0, 0}, {1, -5}, {2, 0}});
  EXPECT_EQ(tree.PositionOf(1), -1);
  EXPECT_GE(tree.PositionOf(0), 0);
  // After advancing, the old base is gone and the valley is the new base.
  tree.AdvanceBase();
  EXPECT_EQ(tree.PositionOf(0), -1);
  EXPECT_GE(tree.PositionOf(1), 0);
}

TEST(HullTreeTest, CollinearPointsKeepExtremes) {
  ConvexHullTree tree({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(tree.hull_size(), 2);
  EXPECT_EQ(tree.NodeAt(0), 3);  // bottom = rightmost
  EXPECT_EQ(tree.NodeAt(1), 0);  // top = leftmost
}

TEST(HullTreeTest, MonotoneIncreasingConcaveSequence) {
  // Concave increasing y: every point is on the upper hull.
  std::vector<Point> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back(
        {static_cast<double>(i), std::sqrt(static_cast<double>(i))});
  }
  ConvexHullTree tree(points);
  EXPECT_EQ(tree.hull_size(), 50);
}

TEST(HullTreeTest, ConvexSequenceKeepsOnlyEndpoints) {
  // Convex (bowl) shape: only the two endpoints are on the upper hull.
  std::vector<Point> points;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i);
    points.push_back({x, (x - 25.0) * (x - 25.0)});
  }
  ConvexHullTree tree(points);
  EXPECT_EQ(tree.hull_size(), 2);
}

}  // namespace
}  // namespace optrules::hull
