// Differential tests for BucketBoundaries::LocateBatch against the scalar
// Locate and an independent std::lower_bound reference: random, sampled
// (uniform, exponential, lognormal, heavy-tie), duplicated, affine,
// infinite-ended, overflowing, denormal, single and empty cut-point sets,
// probed with random values inside and outside the cut range, exact cut
// values, their ulp neighbors, NaN, +/-inf, and signed zero. Every kernel
// arm must be bit-identical to the reference everywhere, including the
// NaN -> kNoBucket policy; the guide-shape assertions pin which layouts
// the guide table narrows and which take the one-slot full search.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/equiwidth.h"
#include "common/rng.h"
#include "fuzz_seed.h"

namespace optrules::bucketing {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Ground truth nobody under test shares: lower_bound over the cuts, with
/// the repo-wide NaN policy applied on top.
int ReferenceLocate(const std::vector<double>& cuts, double x) {
  if (std::isnan(x)) return BucketBoundaries::kNoBucket;
  return static_cast<int>(std::lower_bound(cuts.begin(), cuts.end(), x) -
                          cuts.begin());
}

/// Probes worth testing against any cut set: every cut exactly, its two
/// ulp neighbors, the specials, and a spread of random values.
std::vector<double> ProbeValues(const std::vector<double>& cuts, Rng& rng) {
  std::vector<double> values = {kNaN, kInf, -kInf, 0.0, -0.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min()};
  for (const double cut : cuts) {
    values.push_back(cut);
    values.push_back(std::nextafter(cut, -kInf));
    values.push_back(std::nextafter(cut, kInf));
  }
  // Finite ends only: an infinite or overflowing range would make the
  // uniform draws non-finite.
  const double lo = cuts.empty() || !std::isfinite(cuts.front() - 10.0)
                        ? -10.0
                        : cuts.front() - 10.0;
  const double hi = cuts.empty() || !std::isfinite(cuts.back() + 10.0)
                        ? 10.0
                        : cuts.back() + 10.0;
  for (int i = 0; i < 500; ++i) values.push_back(rng.NextUniform(lo, hi));
  // Far outside the cut range on both sides.
  if (!cuts.empty() && std::isfinite(cuts.front()) &&
      std::isfinite(cuts.back())) {
    const double span = std::max(1.0, cuts.back() - cuts.front());
    for (const double factor : {2.0, 1e3, 1e12}) {
      values.push_back(cuts.front() - factor * span);
      values.push_back(cuts.back() + factor * span);
    }
  }
  return values;
}

void ExpectBoundariesMatchReference(const BucketBoundaries& boundaries,
                                    uint64_t seed) {
  const std::vector<double>& cuts = boundaries.cut_points();
  SCOPED_TRACE(testing::Message()
               << "cuts=" << cuts.size()
               << " guide_slots=" << boundaries.guide_slots()
               << " guide_steps=" << boundaries.guide_steps()
               << " seed=" << seed);
  Rng rng(seed);
  const std::vector<double> values = ProbeValues(cuts, rng);
  std::vector<int32_t> batch(values.size());
  boundaries.LocateBatch(values, batch);
  int64_t expected_no_bucket = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const int expected = ReferenceLocate(cuts, values[i]);
    if (expected == BucketBoundaries::kNoBucket) ++expected_no_bucket;
    ASSERT_EQ(boundaries.Locate(values[i]), expected)
        << "scalar mismatch at value " << values[i];
    ASSERT_EQ(batch[i], expected)
        << "batch mismatch at value " << values[i];
  }
  // EVERY registered kernel arm (scalar, avx2, avx512 -- whatever this
  // machine offers) must be bit-identical to the reference on the same
  // probes, including the remainder tails shorter than one loop
  // iteration: each arm runs over every prefix length up to two of its
  // widest iterations (AVX-512: 4 searches x 8 lanes) plus the full probe
  // set.
  for (const simd::Kernels* kernels : simd::AvailableKernels()) {
    SCOPED_TRACE(testing::Message() << "arm=" << kernels->name);
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= std::min<size_t>(65, values.size()); ++n) {
      lengths.push_back(n);
    }
    lengths.push_back(values.size());
    for (const size_t n : lengths) {
      std::vector<int32_t> out(n, -7);  // poison: every lane must be set
      const int64_t no_bucket = boundaries.LocateBatchWithKernels(
          *kernels, std::span<const double>(values).first(n),
          std::span<int32_t>(out));
      int64_t want_no_bucket = 0;
      for (size_t i = 0; i < n; ++i) {
        const int expected = ReferenceLocate(cuts, values[i]);
        if (expected == BucketBoundaries::kNoBucket) ++want_no_bucket;
        ASSERT_EQ(out[i], expected)
            << "arm " << kernels->name << " lane " << i << " of " << n
            << " value " << values[i];
      }
      ASSERT_EQ(no_bucket, want_no_bucket)
          << "arm " << kernels->name << " NaN count over " << n;
    }
  }
  (void)expected_no_bucket;
}

void ExpectBatchMatchesScalarAndReference(const std::vector<double>& cuts,
                                          uint64_t seed) {
  ExpectBoundariesMatchReference(BucketBoundaries::FromCutPoints(cuts),
                                 seed);
}

TEST(LocateBatchTest, EmptyCutPoints) {
  ExpectBatchMatchesScalarAndReference({}, 1);
}

TEST(LocateBatchTest, SingleCutPoint) {
  ExpectBatchMatchesScalarAndReference({3.25}, 2);
}

TEST(LocateBatchTest, DuplicatedCutPoints) {
  ExpectBatchMatchesScalarAndReference({1.0, 1.0, 1.0, 2.0, 2.0, 7.5}, 3);
  ExpectBatchMatchesScalarAndReference({4.0, 4.0, 4.0, 4.0}, 4);
}

TEST(LocateBatchTest, InfiniteCutPoints) {
  ExpectBatchMatchesScalarAndReference({-kInf, 0.0, kInf}, 5);
  ExpectBatchMatchesScalarAndReference({-kInf, -kInf}, 6);
}

/// Search steps of a plain power-of-two search over n cuts.
int FullSearchSteps(size_t n) {
  int steps = 0;
  while ((size_t{1} << steps) <= n) ++steps;
  return steps;
}

/// `count` draws from `draw`, bucketed the way the engine's kSampling
/// planner does it (Algorithm 3.1 at `num_buckets`, S = 40 per bucket).
template <typename Draw>
BucketBoundaries SampledBoundaries(int num_buckets, int count, uint64_t seed,
                                   Draw draw) {
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(count));
  for (double& v : values) v = draw(rng);
  BoundaryPlan plan;
  plan.num_buckets = num_buckets;
  return BuildBoundaries(values, plan);
}

TEST(LocateBatchTest, AffineCutsGetOneStepGuide) {
  // An exactly affine layout needs one search step after the table.
  std::vector<double> cuts;
  for (int i = 0; i < 1000; ++i) {
    cuts.push_back(-4.0 + 0.25 * static_cast<double>(i));
  }
  const BucketBoundaries boundaries = BucketBoundaries::FromCutPoints(cuts);
  EXPECT_GT(boundaries.guide_slots(), 1);
  EXPECT_LE(boundaries.guide_steps(), 1);
  ExpectBatchMatchesScalarAndReference(cuts, 7);
}

TEST(LocateBatchTest, EquiWidthBucketizerOutputGetsShortGuide) {
  // The equi-width bucketizer's affine cuts round per cut, which must not
  // cost more than a step -- and must stay exact on arbitrary ranges.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> values(257);
    const double lo = rng.NextUniform(-1e6, 1e6);
    const double hi = lo + rng.NextUniform(1e-3, 1e6);
    for (double& v : values) v = rng.NextUniform(lo, hi);
    const BucketBoundaries boundaries = EquiWidthBoundaries(values, 64);
    ASSERT_GT(boundaries.guide_slots(), 1);
    ASSERT_LE(boundaries.guide_steps(), 2);
    ExpectBoundariesMatchReference(boundaries,
                                   500 + static_cast<uint64_t>(round));
  }
}

TEST(LocateBatchTest, FromEquiWidthMatchesReferenceOnDegenerateSteps) {
  // A zero step collapses every cut onto one value, and a denormal step's
  // range overflows the guide scale: both take the one-slot full search
  // and still locate exactly.
  const BucketBoundaries zero = BucketBoundaries::FromEquiWidth(1.0, 0.0, 8);
  EXPECT_EQ(zero.guide_slots(), 1);
  ExpectBoundariesMatchReference(zero, 601);
  const BucketBoundaries denormal = BucketBoundaries::FromEquiWidth(
      0.0, std::numeric_limits<double>::denorm_min(), 8);
  EXPECT_EQ(denormal.guide_slots(), 1);
  ExpectBoundariesMatchReference(denormal, 602);
}

TEST(LocateBatchTest, SubUlpCollapseTakesFullSearch) {
  // A near-constant large-magnitude column: the equi-width step is below
  // one ulp of the values, so the rounded cuts collapse onto two distinct
  // doubles. Half the cuts share one slot, so the table would save
  // nothing: the guide keeps one slot, and the search stays exact.
  const double base = 1e15;
  std::vector<double> values = {base, std::nextafter(base, kInf)};
  const BucketBoundaries boundaries = EquiWidthBoundaries(values, 1000);
  EXPECT_EQ(boundaries.guide_slots(), 1);
  EXPECT_EQ(boundaries.guide_steps(),
            FullSearchSteps(boundaries.cut_points().size()));
  ExpectBoundariesMatchReference(boundaries, 603);
}

TEST(LocateBatchTest, PerturbedAffineCutsKeepShortGuide) {
  // One perturbed interior cut changes nothing about the guide's shape --
  // and the answers stay exact.
  std::vector<double> cuts;
  for (int i = 0; i < 64; ++i) cuts.push_back(static_cast<double>(i));
  cuts[31] = std::nextafter(cuts[31], kInf);
  const BucketBoundaries boundaries = BucketBoundaries::FromCutPoints(cuts);
  EXPECT_GT(boundaries.guide_slots(), 1);
  EXPECT_LE(boundaries.guide_steps(), 1);
  ExpectBatchMatchesScalarAndReference(cuts, 8);
}

TEST(LocateBatchTest, DegenerateLayoutsUseOneSlot) {
  // Fewer than two cuts, a zero range, infinite ends, an overflowing
  // range and a denormal range all take the one-slot full search.
  const double lowest = std::numeric_limits<double>::lowest();
  const double max = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> layouts = {
      {},
      {1.0},
      {2.0, 2.0},
      {-kInf, 0.0, kInf},
      {-kInf, 1.0, 2.0, 3.0, 4.0, 5.0},
      {1.0, 2.0, 3.0, 4.0, 5.0, kInf},
      {lowest, -1.0, 0.0, 1.0, max},
      {0.0, tiny, 2 * tiny, 3 * tiny, 4 * tiny, 5 * tiny}};
  for (size_t i = 0; i < layouts.size(); ++i) {
    const BucketBoundaries boundaries =
        BucketBoundaries::FromCutPoints(layouts[i]);
    EXPECT_EQ(boundaries.guide_slots(), 1) << "layout " << i;
    EXPECT_EQ(boundaries.guide_steps(), FullSearchSteps(layouts[i].size()))
        << "layout " << i;
    ExpectBoundariesMatchReference(boundaries, 610 + i);
  }
}

TEST(LocateBatchTest, WideLayoutsStayExact) {
  // Ranges whose width overflows, or whose scale overflows, spread over
  // many cuts (the fallback's window is wider than a vector step).
  std::vector<double> overflow;
  for (int i = -50; i <= 50; ++i) {
    overflow.push_back(std::ldexp(static_cast<double>(i), 1018));
  }
  ASSERT_FALSE(std::isfinite(overflow.back() - overflow.front()));
  ExpectBatchMatchesScalarAndReference(overflow, 620);
  std::vector<double> denormal;
  for (int i = 0; i < 100; ++i) {
    denormal.push_back(static_cast<double>(i) *
                       std::numeric_limits<double>::denorm_min());
  }
  ExpectBatchMatchesScalarAndReference(denormal, 621);
}

TEST(LocateBatchTest, AllEqualCutsTakeFullSearch) {
  const std::vector<double> cuts(999, 4.0);
  const BucketBoundaries boundaries = BucketBoundaries::FromCutPoints(cuts);
  EXPECT_EQ(boundaries.guide_slots(), 1);
  ExpectBatchMatchesScalarAndReference(cuts, 630);
}

TEST(LocateBatchTest, SampledUniformCutsGetShortGuide) {
  // The benchmark of record's shape: uniform columns, M = 1000.
  const BucketBoundaries boundaries = SampledBoundaries(
      1000, 100000, 640, [](Rng& rng) { return rng.NextUniform(0.0, 1e6); });
  ASSERT_EQ(boundaries.num_buckets(), 1000);
  EXPECT_GT(boundaries.guide_slots(), 1);
  EXPECT_LE(boundaries.guide_steps(), 2);
  ExpectBoundariesMatchReference(boundaries, 641);
}

TEST(LocateBatchTest, SampledExponentialCutsGetShortGuide) {
  const BucketBoundaries boundaries =
      SampledBoundaries(1000, 100000, 650, [](Rng& rng) {
        return -std::log1p(-rng.NextDouble());
      });
  EXPECT_GT(boundaries.guide_slots(), 1);
  EXPECT_LE(boundaries.guide_steps(), 3);
  ExpectBoundariesMatchReference(boundaries, 651);
}

TEST(LocateBatchTest, SampledLognormalCutsTakeFullSearch) {
  // lognormal(0, 3): the top cuts stretch the range so far that most cuts
  // share the first slots; the table would save nothing.
  const BucketBoundaries boundaries =
      SampledBoundaries(1000, 100000, 660, [](Rng& rng) {
        return std::exp(3.0 * rng.NextGaussian());
      });
  EXPECT_EQ(boundaries.guide_slots(), 1);
  ExpectBoundariesMatchReference(boundaries, 661);
}

TEST(LocateBatchTest, SampledHeavyTieCutsStayExact) {
  // Half the values sit on a handful of repeated points, so long runs of
  // equal cuts fill single slots.
  const BucketBoundaries boundaries =
      SampledBoundaries(1000, 100000, 670, [](Rng& rng) {
        return rng.NextBernoulli(0.5)
                   ? static_cast<double>(rng.NextInt(0, 4))
                   : rng.NextUniform(0.0, 4.0);
      });
  EXPECT_LT(boundaries.guide_steps(),
            FullSearchSteps(boundaries.cut_points().size()));
  ExpectBoundariesMatchReference(boundaries, 671);
}

TEST(LocateBatchTest, RegionGridLayoutsStayExact) {
  // 32-bucket layouts, the region grid's default axis size.
  const BucketBoundaries uniform = SampledBoundaries(
      32, 5000, 680, [](Rng& rng) { return rng.NextUniform(-1.0, 1.0); });
  ASSERT_EQ(uniform.num_buckets(), 32);
  EXPECT_GT(uniform.guide_slots(), 1);
  ExpectBoundariesMatchReference(uniform, 681);
  const BucketBoundaries gaussian = SampledBoundaries(
      32, 5000, 682, [](Rng& rng) { return rng.NextGaussian(); });
  ExpectBoundariesMatchReference(gaussian, 683);
}

TEST(LocateBatchTest, CopiesAndMovesLocateIdentically) {
  // The guide is rebuilt from each object's own storage on every call, so
  // a copy or a move never reads the source's (here: freed) buffers.
  std::vector<double> cuts;
  for (int i = 0; i < 300; ++i) cuts.push_back(std::sqrt(i * 7.0));
  auto original =
      std::make_unique<BucketBoundaries>(BucketBoundaries::FromCutPoints(cuts));
  const BucketBoundaries copied = *original;
  BucketBoundaries assigned = BucketBoundaries::FromCutPoints({0.0});
  assigned = *original;
  BucketBoundaries moved = std::move(*original);
  original.reset();
  ASSERT_GT(copied.guide_slots(), 1);
  const std::vector<const BucketBoundaries*> all = {&copied, &assigned,
                                                    &moved};
  for (const BucketBoundaries* b : all) {
    EXPECT_EQ(b->guide_steps(), copied.guide_steps());
    ExpectBoundariesMatchReference(*b, 690);
  }
}

TEST(LocateBatchTest, FuzzRandomCutSets) {
  Rng rng(testfuzz::FuzzSeed(1234));
  for (int round = 0; round < 50; ++round) {
    const int num_cuts = static_cast<int>(rng.NextInt(0, 40));
    std::vector<double> cuts;
    for (int i = 0; i < num_cuts; ++i) {
      cuts.push_back(rng.NextUniform(-1e6, 1e6));
    }
    // Duplicate a random prefix element sometimes (heavy-tie shapes).
    if (num_cuts > 2 && rng.NextBernoulli(0.5)) {
      cuts[static_cast<size_t>(rng.NextInt(1, num_cuts - 1))] = cuts[0];
    }
    std::sort(cuts.begin(), cuts.end());
    ExpectBatchMatchesScalarAndReference(cuts,
                                         9000 + static_cast<uint64_t>(round));
  }
}

TEST(LocateBatchTest, FuzzAffineCutSets) {
  // Affine layouts with arbitrary (non-power-of-two) steps: detection may
  // or may not fire depending on rounding, but the answers must stay
  // exact in both cases.
  Rng rng(testfuzz::FuzzSeed(4321));
  for (int round = 0; round < 50; ++round) {
    const int num_cuts = static_cast<int>(rng.NextInt(2, 200));
    const double first = rng.NextUniform(-1e3, 1e3);
    const double step = rng.NextUniform(1e-3, 10.0);
    std::vector<double> cuts;
    for (int i = 0; i < num_cuts; ++i) {
      cuts.push_back(first + step * static_cast<double>(i));
    }
    std::sort(cuts.begin(), cuts.end());  // rounding can perturb order
    ExpectBatchMatchesScalarAndReference(cuts,
                                         7000 + static_cast<uint64_t>(round));
  }
}

TEST(LocateBatchTest, NaNAlwaysMapsToNoBucket) {
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({0.0, 1.0, 2.0});
  const std::vector<double> values = {kNaN, 0.5, kNaN, kNaN, 1.5};
  std::vector<int32_t> out(values.size());
  boundaries.LocateBatch(values, out);
  EXPECT_EQ(out[0], BucketBoundaries::kNoBucket);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], BucketBoundaries::kNoBucket);
  EXPECT_EQ(out[3], BucketBoundaries::kNoBucket);
  EXPECT_EQ(out[4], 2);
}

}  // namespace
}  // namespace optrules::bucketing
