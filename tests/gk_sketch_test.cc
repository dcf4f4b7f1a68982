// Tests for the Greenwald-Khanna quantile sketch and the sketch-based
// equi-depth bucketizer.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/gk_sketch.h"
#include "common/rng.h"
#include "datagen/distributions.h"

namespace optrules::bucketing {
namespace {

TEST(GkSketchTest, ExactOnTinyInputs) {
  GkQuantileSketch sketch(0.1);
  for (const double v : {5.0, 1.0, 3.0}) sketch.Add(v);
  EXPECT_EQ(sketch.count(), 3);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 5.0);
}

TEST(GkSketchTest, RejectsBadEpsilon) {
  EXPECT_DEATH(GkQuantileSketch(0.0), "");
  EXPECT_DEATH(GkQuantileSketch(0.5), "");
}

struct SketchCase {
  int64_t n;
  double epsilon;
  datagen::DistSpec spec;
  uint64_t seed;
};

class GkSketchPropertyTest : public testing::TestWithParam<SketchCase> {};

TEST_P(GkSketchPropertyTest, QuantileRankErrorWithinEpsilon) {
  const SketchCase& param = GetParam();
  Rng rng(param.seed);
  const auto dist = datagen::MakeDistribution(param.spec);
  std::vector<double> values(static_cast<size_t>(param.n));
  for (double& v : values) v = dist->Sample(rng);

  GkQuantileSketch sketch(param.epsilon);
  for (const double v : values) sketch.Add(v);

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double answer = sketch.Quantile(phi);
    // With duplicates the answer occupies a rank *interval*
    // [count(< answer) + 1, count(<= answer)]; GK guarantees the target
    // rank is within eps*n of that interval.
    const auto rank_lo = static_cast<int64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), answer) -
        sorted.begin()) + 1;
    const auto rank_hi = static_cast<int64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), answer) -
        sorted.begin());
    const double target = phi * static_cast<double>(param.n);
    const double distance =
        std::max({static_cast<double>(rank_lo) - target,
                  target - static_cast<double>(rank_hi), 0.0});
    // Allow +1 for boundary rounding.
    EXPECT_LE(distance, param.epsilon * static_cast<double>(param.n) + 1.0)
        << "phi " << phi;
  }
}

TEST_P(GkSketchPropertyTest, SummaryStaysSublinear) {
  const SketchCase& param = GetParam();
  if (param.n < 10000) return;
  Rng rng(param.seed ^ 0x77);
  const auto dist = datagen::MakeDistribution(param.spec);
  GkQuantileSketch sketch(param.epsilon);
  for (int64_t i = 0; i < param.n; ++i) sketch.Add(dist->Sample(rng));
  // The GK bound is O((1/eps) log(eps n)); assert a generous multiple.
  const double bound = 30.0 / param.epsilon *
                       std::log2(param.epsilon *
                                 static_cast<double>(param.n) + 2.0);
  EXPECT_LT(sketch.summary_size(), bound);
  EXPECT_LT(sketch.summary_size(), param.n / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GkSketchPropertyTest,
    testing::Values(
        SketchCase{1000, 0.05, datagen::DistSpec::Uniform(0, 1), 1},
        SketchCase{20000, 0.01, datagen::DistSpec::Uniform(0, 1e6), 2},
        SketchCase{20000, 0.02, datagen::DistSpec::Gaussian(0, 10), 3},
        SketchCase{20000, 0.02, datagen::DistSpec::LogNormal(0, 2), 4},
        SketchCase{50000, 0.005, datagen::DistSpec::Exponential(0.1), 5},
        SketchCase{20000, 0.05, datagen::DistSpec::Zipf(100, 1.2), 6}));

TEST(GkSketchTest, DuplicateHeavyInput) {
  GkQuantileSketch sketch(0.02);
  for (int i = 0; i < 10000; ++i) sketch.Add(42.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 42.0);
  EXPECT_LT(sketch.summary_size(), 500);
}

TEST(GkSketchTest, SortedAndReverseSortedStreams) {
  for (const bool reverse : {false, true}) {
    GkQuantileSketch sketch(0.01);
    for (int i = 0; i < 20000; ++i) {
      sketch.Add(static_cast<double>(reverse ? 20000 - i : i));
    }
    const double median = sketch.Quantile(0.5);
    EXPECT_NEAR(median, 10000.0, 0.01 * 20000 + 1);
  }
}

TEST(GkBucketizerTest, BucketsAlmostEquiDepth) {
  Rng rng(7);
  std::vector<double> values(50000);
  for (double& v : values) v = std::exp(2.0 * rng.NextGaussian());
  const int m = 100;
  const BucketBoundaries boundaries =
      BuildEquiDepthBoundariesGk(values, m, 0.001);
  ASSERT_EQ(boundaries.num_buckets(), m);
  std::vector<int64_t> counts(static_cast<size_t>(m), 0);
  for (const double v : values) {
    ++counts[static_cast<size_t>(boundaries.Locate(v))];
  }
  const double expected = 500.0;
  for (const int64_t c : counts) {
    // Adjacent cut points each carry eps*n = 50 rank error.
    EXPECT_NEAR(static_cast<double>(c), expected, 2 * 50.0 + 1);
  }
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
            50000);
}

TEST(GkBucketizerTest, EmptyInputSingleBucket) {
  EXPECT_EQ(
      BuildEquiDepthBoundariesGk(std::vector<double>{}, 10, 0.01)
          .num_buckets(),
      1);
}

TEST(GkBucketizerTest, DeterministicUnlikeSampling) {
  Rng rng(9);
  std::vector<double> values(10000);
  for (double& v : values) v = rng.NextUniform(0.0, 1.0);
  const BucketBoundaries a = BuildEquiDepthBoundariesGk(values, 20, 0.01);
  const BucketBoundaries b = BuildEquiDepthBoundariesGk(values, 20, 0.01);
  EXPECT_EQ(a.cut_points(), b.cut_points());
}

}  // namespace
}  // namespace optrules::bucketing
