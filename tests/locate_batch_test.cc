// Differential tests for BucketBoundaries::LocateBatch against the scalar
// Locate and an independent std::lower_bound reference: random, sampled
// (uniform, exponential, lognormal, heavy-tie), duplicated, affine,
// infinite-ended, overflowing, denormal, single and empty cut-point sets,
// probed with random values inside and outside the cut range, exact cut
// values, their ulp neighbors, NaN, +/-inf, and signed zero. Every kernel
// arm must be bit-identical to the reference everywhere, including the
// NaN -> kNoBucket policy; the guide-shape assertions pin which layouts
// the guide table narrows and which take the one-slot full search.
//
// The same file pins the target kernels (pack_targets, scatter_targets)
// of every arm against plain per-target loops, and the fused counting
// plan against the OPTRULES_FORCE_SCALAR reference arm: plain,
// conditional, sum-riding and grid channels over NaN-laden batches, read
// before any take, merged from partials, and serialized byte for byte.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/equiwidth.h"
#include "bucketing/simd_kernels.h"
#include "common/rng.h"
#include "fuzz_seed.h"
#include "storage/columnar_batch.h"
#include "storage/relation.h"

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

// ------------------------------------------------ target kernels ----

using TargetBlock = std::vector<int64_t, CacheLineAllocator<int64_t>>;

constexpr int kTargetCounts[] = {0, 1, 7, 8, 9, 16, 17};

/// T random Boolean columns of n rows; nonzero bytes other than 1 check
/// the kernels' != 0 test.
std::vector<std::vector<uint8_t>> RandomTargets(int num_targets, size_t n,
                                                Rng& rng) {
  std::vector<std::vector<uint8_t>> columns(
      static_cast<size_t>(num_targets), std::vector<uint8_t>(n));
  for (auto& column : columns) {
    for (uint8_t& byte : column) {
      const int64_t draw = rng.NextInt(0, 5);
      byte = draw < 3 ? 0 : static_cast<uint8_t>(draw == 3 ? 1 : 0x80 + draw);
    }
  }
  return columns;
}

int PlaneCount(int num_targets, size_t g) {
  return std::min(8, num_targets - static_cast<int>(8 * g));
}

TEST(TargetKernelsTest, PackMatchesReferenceOnEveryArm) {
  Rng rng(testfuzz::FuzzSeed(5150));
  for (const int num_targets : kTargetCounts) {
    const auto columns = RandomTargets(num_targets, 1000, rng);
    const size_t planes = (static_cast<size_t>(num_targets) + 7) / 8;
    for (const simd::Kernels* kernels : simd::AvailableKernels()) {
      for (const size_t n : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                             size_t{33}, size_t{65}, size_t{1000}}) {
        SCOPED_TRACE(testing::Message() << "arm=" << kernels->name
                                        << " T=" << num_targets
                                        << " n=" << n);
        for (size_t g = 0; g < planes; ++g) {
          const int count = PlaneCount(num_targets, g);
          std::vector<const uint8_t*> pointers;
          for (int t = 0; t < count; ++t) {
            pointers.push_back(columns[8 * g + static_cast<size_t>(t)].data());
          }
          std::vector<uint8_t> plane(n, 0xa5);  // poison
          kernels->pack_targets(pointers.data(), count, n, plane.data());
          for (size_t i = 0; i < n; ++i) {
            unsigned want = 0;
            for (int t = 0; t < count; ++t) {
              if (pointers[static_cast<size_t>(t)][i] != 0) want |= 1u << t;
            }
            ASSERT_EQ(plane[i], want) << "plane " << g << " row " << i;
          }
        }
      }
    }
  }
}

/// Scatters `columns` over `buckets` (rows through `sel` when non-null)
/// with every arm and checks the block against per-target loops; the
/// block starts from nonzero counts, so the scatter must ADD.
void ExpectScatterMatchesReference(
    const std::vector<std::vector<uint8_t>>& columns,
    const std::vector<int32_t>& buckets, const std::vector<int32_t>* sel,
    int num_buckets) {
  const int num_targets = static_cast<int>(columns.size());
  const size_t n = buckets.size();
  const size_t m = sel != nullptr ? sel->size() : n;
  bool has_no_bucket = false;
  for (const int32_t b : buckets) has_no_bucket |= b < 0;
  const auto slots = static_cast<size_t>(num_buckets);
  const size_t planes = (columns.size() + 7) / 8;
  for (const simd::Kernels* kernels : simd::AvailableKernels()) {
    for (const bool guard : {true, false}) {
      if (!guard && has_no_bucket) continue;
      SCOPED_TRACE(testing::Message()
                   << "arm=" << kernels->name << " T=" << num_targets
                   << " sel=" << (sel != nullptr) << " guard=" << guard);
      for (size_t g = 0; g < planes; ++g) {
        const int count = PlaneCount(num_targets, g);
        std::vector<const uint8_t*> pointers;
        for (int t = 0; t < count; ++t) {
          pointers.push_back(columns[8 * g + static_cast<size_t>(t)].data());
        }
        std::vector<uint8_t> plane(n);
        simd::ScalarKernels().pack_targets(pointers.data(), count, n,
                                           plane.data());
        TargetBlock block(slots * 8);
        for (size_t i = 0; i < block.size(); ++i) {
          block[i] = static_cast<int64_t>(i % 5);
        }
        kernels->scatter_targets(buckets.data(),
                                 sel != nullptr ? sel->data() : nullptr, m,
                                 plane.data(), block.data(), guard);
        std::vector<int64_t> want(slots * 8);
        for (size_t i = 0; i < want.size(); ++i) {
          want[i] = static_cast<int64_t>(i % 5);
        }
        for (int t = 0; t < count; ++t) {
          for (size_t k = 0; k < m; ++k) {
            const size_t row =
                sel != nullptr ? static_cast<size_t>((*sel)[k]) : k;
            if (buckets[row] < 0) continue;
            want[8 * static_cast<size_t>(buckets[row]) +
                 static_cast<size_t>(t)] +=
                pointers[static_cast<size_t>(t)][row] != 0 ? 1 : 0;
          }
        }
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(block[i], want[i])
              << "plane " << g << " bucket " << i / 8 << " lane " << i % 8;
        }
      }
    }
  }
}

TEST(TargetKernelsTest, ScatterMatchesReferenceOnEveryArm) {
  Rng rng(testfuzz::FuzzSeed(5151));
  constexpr int kBuckets = 37;
  constexpr size_t kRows = 777;
  for (const int num_targets : kTargetCounts) {
    const auto columns = RandomTargets(num_targets, kRows, rng);
    std::vector<int32_t> sel;
    for (size_t row = 0; row < kRows; ++row) {
      if (rng.NextBernoulli(0.4)) sel.push_back(static_cast<int32_t>(row));
    }
    // Random buckets; the same with kNoBucket rows; every row in the first
    // bucket, then every row in the last.
    std::vector<std::vector<int32_t>> layouts(4, std::vector<int32_t>(kRows));
    for (size_t row = 0; row < kRows; ++row) {
      layouts[0][row] = static_cast<int32_t>(rng.NextInt(0, kBuckets - 1));
      layouts[1][row] = rng.NextBernoulli(0.2)
                            ? BucketBoundaries::kNoBucket
                            : layouts[0][row];
      layouts[2][row] = 0;
      layouts[3][row] = kBuckets - 1;
    }
    for (size_t l = 0; l < layouts.size(); ++l) {
      SCOPED_TRACE(testing::Message() << "layout " << l);
      ExpectScatterMatchesReference(columns, layouts[l], nullptr, kBuckets);
      ExpectScatterMatchesReference(columns, layouts[l], &sel, kBuckets);
    }
  }
}

// ------------------------------------- fused plan vs reference arm ----

/// 3 numeric columns with NaN stretches, T Boolean targets (bytes 0, 1
/// and other nonzero values).
storage::Relation NanLadenRelation(int num_targets, int64_t rows,
                                   uint64_t seed) {
  storage::Relation relation(storage::Schema::Synthetic(3, num_targets));
  Rng rng(seed);
  for (int a = 0; a < 3; ++a) {
    std::vector<double>& column = relation.MutableNumericColumn(a);
    column.resize(static_cast<size_t>(rows));
    for (int64_t row = 0; row < rows; ++row) {
      column[static_cast<size_t>(row)] =
          (row + a) % (5 + 2 * a) == 0 ? kNaN : rng.NextUniform(-50.0, 50.0);
    }
  }
  const auto columns =
      RandomTargets(num_targets, static_cast<size_t>(rows), rng);
  for (int t = 0; t < num_targets; ++t) {
    relation.MutableBooleanColumn(t) = columns[static_cast<size_t>(t)];
  }
  relation.SetRowCountAfterColumnFill(rows);
  return relation;
}

/// Plain channels over every column (column 0 carrying two sum targets),
/// two conditional channels, and a rectangular grid.
MultiCountSpec FusedSpec(const std::vector<BucketBoundaries>& boundaries,
                         int num_targets) {
  MultiCountSpec spec;
  spec.num_targets = num_targets;
  spec.conditions = {{0}, {0, num_targets - 1}};
  for (int a = 0; a < 3; ++a) {
    CountChannel channel;
    channel.column = a;
    channel.boundaries = &boundaries[static_cast<size_t>(a)];
    if (a == 0) channel.sum_targets = {1, 2};
    spec.channels.push_back(std::move(channel));
  }
  for (int c = 0; c < 2; ++c) {
    CountChannel channel;
    channel.column = c + 1;
    channel.boundaries = &boundaries[static_cast<size_t>(c + 1)];
    channel.condition = c;
    spec.channels.push_back(std::move(channel));
  }
  GridChannel grid;
  grid.x_column = 0;
  grid.x_boundaries = &boundaries[0];
  grid.y_column = 2;
  grid.y_boundaries = &boundaries[3];
  spec.grid_channels.push_back(grid);
  return spec;
}

void ExpectSameDoubles(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i])) {
      EXPECT_TRUE(std::isnan(b[i])) << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << i;
    }
  }
}

void ExpectSamePlans(const MultiCountPlan& a, const MultiCountPlan& b) {
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (int c = 0; c < a.num_channels(); ++c) {
    SCOPED_TRACE(testing::Message() << "channel " << c);
    EXPECT_EQ(a.counts(c).u, b.counts(c).u);
    EXPECT_EQ(a.counts(c).v, b.counts(c).v);
    EXPECT_EQ(a.counts(c).total_tuples, b.counts(c).total_tuples);
    ExpectSameDoubles(a.counts(c).min_value, b.counts(c).min_value);
    ExpectSameDoubles(a.counts(c).max_value, b.counts(c).max_value);
    for (int k = 0; k < static_cast<int>(a.spec().channels[static_cast<size_t>(
                                               c)].sum_targets.size());
         ++k) {
      ExpectSameDoubles(a.MakeBucketSums(c, k).sum, b.MakeBucketSums(c, k).sum);
    }
  }
  ASSERT_EQ(a.num_grid_channels(), b.num_grid_channels());
  for (int g = 0; g < a.num_grid_channels(); ++g) {
    EXPECT_EQ(a.grid_counts(g).u, b.grid_counts(g).u);
    EXPECT_EQ(a.grid_counts(g).v, b.grid_counts(g).v);
    EXPECT_EQ(a.grid_counts(g).total_tuples, b.grid_counts(g).total_tuples);
  }
}

/// Accumulates the relation's batches [first, last) into `plan`.
void AccumulateBatches(const storage::Relation& relation, size_t first,
                       size_t last, MultiCountPlan* plan) {
  storage::RelationBatchSource source(&relation, 300);
  std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
  storage::ColumnarBatch batch;
  for (size_t i = 0; reader->Next(&batch) && i < last; ++i) {
    if (i >= first) plan->Accumulate(batch);
  }
}

TEST(FusedScatterTest, PlanMatchesForceScalarReferenceArm) {
  for (const int num_targets : {1, 8, 9, 17}) {
    SCOPED_TRACE(testing::Message() << "T=" << num_targets);
    const storage::Relation relation =
        NanLadenRelation(num_targets, 2500, 600 + num_targets);
    std::vector<BucketBoundaries> boundaries;
    for (const int buckets : {20, 27, 34, 6}) {
      boundaries.push_back(BucketBoundaries::FromEquiWidth(
          -50.0, 100.0 / buckets, buckets));
    }
    const MultiCountSpec spec = FusedSpec(boundaries, num_targets);

    simd::SetForceScalarForTest(true);
    MultiCountPlan reference(spec);
    AccumulateBatches(relation, 0, 100, &reference);
    simd::SetForceScalarForTest(false);
    MultiCountPlan fused(spec);
    AccumulateBatches(relation, 0, 100, &fused);
    // Read before any take: the const readers fold the blocks in.
    ExpectSamePlans(fused, reference);

    // Two merged fused partials equal the serial scan (and the block of a
    // partial that was never read folds in through Merge).
    MultiCountPlan head(spec);
    MultiCountPlan tail(spec);
    AccumulateBatches(relation, 0, 4, &head);
    AccumulateBatches(relation, 4, 100, &tail);
    head.Merge(tail);
    ExpectSamePlans(head, reference);

    // Partial-state bytes are identical across arms, and a fused partial
    // round-trips into a plan that had already accumulated (its unfolded
    // block must not leak into the loaded state).
    std::vector<uint8_t> fused_bytes;
    std::vector<uint8_t> reference_bytes;
    MultiCountPlan unread(spec);
    AccumulateBatches(relation, 0, 100, &unread);
    unread.AppendPartialState(&fused_bytes);
    reference.AppendPartialState(&reference_bytes);
    EXPECT_EQ(fused_bytes, reference_bytes);
    MultiCountPlan loaded(spec);
    AccumulateBatches(relation, 0, 3, &loaded);
    ASSERT_TRUE(loaded.LoadPartialState(fused_bytes).ok());
    ExpectSamePlans(loaded, reference);

    // Takes see the same counts as the reference arm's.
    MultiCountPlan taken(spec);
    AccumulateBatches(relation, 0, 100, &taken);
    for (int c = 0; c < taken.num_channels(); ++c) {
      const BucketCounts counts = taken.TakeCounts(c);
      EXPECT_EQ(counts.v, reference.counts(c).v) << c;
    }
    EXPECT_EQ(taken.TakeGridCounts(0).v, reference.grid_counts(0).v);
  }
}

}  // namespace
}  // namespace optrules::bucketing
