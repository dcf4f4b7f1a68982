// Tests for bucket boundaries, samplers, counting, parallelism, and the
// Section 3.4 error bounds.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/equidepth_sampler.h"
#include "bucketing/equiwidth.h"
#include "bucketing/error_bounds.h"
#include "bucketing/parallel_count.h"
#include "bucketing/sort_bucketizer.h"
#include "common/rng.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace optrules::bucketing {
namespace {

std::vector<double> RandomValues(int64_t n, uint64_t seed, double lo = 0.0,
                                 double hi = 1000.0) {
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(n));
  for (double& v : values) v = rng.NextUniform(lo, hi);
  return values;
}

/// Bit patterns, so -0.0 and +0.0 compare unequal.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

// --------------------------------------------------------- boundaries ----

TEST(BoundariesTest, LocateRespectsHalfOpenIntervals) {
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({10.0, 20.0});
  EXPECT_EQ(b.num_buckets(), 3);
  EXPECT_EQ(b.Locate(-5.0), 0);
  EXPECT_EQ(b.Locate(10.0), 0);   // bucket 0 is (-inf, 10]
  EXPECT_EQ(b.Locate(10.5), 1);
  EXPECT_EQ(b.Locate(20.0), 1);   // bucket 1 is (10, 20]
  EXPECT_EQ(b.Locate(20.0001), 2);
  EXPECT_EQ(b.Locate(1e300), 2);
}

TEST(BoundariesTest, EdgesAndInfinities) {
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({1.0, 2.0});
  EXPECT_TRUE(std::isinf(b.LowerEdge(0)));
  EXPECT_DOUBLE_EQ(b.UpperEdge(0), 1.0);
  EXPECT_DOUBLE_EQ(b.LowerEdge(1), 1.0);
  EXPECT_DOUBLE_EQ(b.UpperEdge(1), 2.0);
  EXPECT_TRUE(std::isinf(b.UpperEdge(2)));
}

TEST(BoundariesTest, SingleBucketCoversEverything) {
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({});
  EXPECT_EQ(b.num_buckets(), 1);
  EXPECT_EQ(b.Locate(-1e308), 0);
  EXPECT_EQ(b.Locate(1e308), 0);
}

TEST(BoundariesTest, FromSortedValuesGivesExactEquiDepth) {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 0.0);
  const BucketBoundaries b = BucketBoundaries::FromSortedValues(values, 10);
  EXPECT_EQ(b.num_buckets(), 10);
  std::vector<int64_t> counts(10, 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  for (int64_t c : counts) EXPECT_EQ(c, 100);
}

// -------------------------------------------------------- exact depth ----

// Mixed runs of -0.0 and +0.0: the full sort puts every -0.0 first, so a
// zero cut point's sign depends on the column's multiset, not its order.
TEST(SortBucketizerTest, ExactEquiDepthZeroCutsIgnoreRowOrder) {
  std::vector<double> column;
  for (int i = 0; i < 3000; ++i) {
    column.push_back(i % 3 == 0 ? -0.0 : 0.0);
    if (i % 4 == 0) column.push_back(0.25 * i - 300.0);
    if (i % 7 == 0) column.push_back(std::nan(""));
  }
  std::vector<double> reversed(column.rbegin(), column.rend());
  std::vector<double> shuffled = column;
  Rng rng(9);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const int m : {2, 7, 64, 500}) {
    SCOPED_TRACE(m);
    const std::vector<double> cuts =
        ExactEquiDepthBoundaries(column, m).cut_points();
    EXPECT_EQ(Bits(ExactEquiDepthBoundaries(reversed, m).cut_points()),
              Bits(cuts));
    EXPECT_EQ(Bits(ExactEquiDepthBoundaries(shuffled, m).cut_points()),
              Bits(cuts));
  }
  // Zeros are 80% of the numbers, so at M = 64 both signs are cut points.
  const std::vector<double> cuts =
      ExactEquiDepthBoundaries(column, 64).cut_points();
  EXPECT_TRUE(std::any_of(cuts.begin(), cuts.end(), [](double v) {
    return v == 0.0 && std::signbit(v);
  }));
  EXPECT_TRUE(std::any_of(cuts.begin(), cuts.end(), [](double v) {
    return v == 0.0 && !std::signbit(v);
  }));
}

TEST(SortBucketizerTest, ExactEquiDepthOnShuffledInput) {
  std::vector<double> values = RandomValues(10000, 21);
  const BucketBoundaries b = ExactEquiDepthBoundaries(values, 100);
  std::vector<int64_t> counts(100, 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  // All buckets within one tuple of perfectly equal depth (ties aside).
  EXPECT_GE(*lo, 99);
  EXPECT_LE(*hi, 101);
}

TEST(SortBucketizerTest, HeavyTiesYieldEmptyBucketsNotWrongCounts) {
  std::vector<double> values(1000, 42.0);  // all identical
  const BucketBoundaries b = ExactEquiDepthBoundaries(values, 10);
  std::vector<int64_t> counts(static_cast<size_t>(b.num_buckets()), 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
            1000);
  // Every tuple must land in exactly one bucket.
  int nonzero = 0;
  for (int64_t c : counts) nonzero += c > 0 ? 1 : 0;
  EXPECT_EQ(nonzero, 1);
}

// ------------------------------------------------------------ sampler ----

struct SamplerCase {
  int64_t n;
  int num_buckets;
  uint64_t seed;
};

class SamplerDepthTest : public testing::TestWithParam<SamplerCase> {};

TEST_P(SamplerDepthTest, BucketsAreAlmostEquiDepth) {
  const SamplerCase& param = GetParam();
  const std::vector<double> values = RandomValues(param.n, param.seed);
  SamplerOptions options;
  options.num_buckets = param.num_buckets;
  options.sample_per_bucket = 40;
  Rng rng(param.seed + 1);
  const BucketBoundaries b =
      BuildEquiDepthBoundaries(values, options, rng);
  std::vector<int64_t> counts(static_cast<size_t>(b.num_buckets()), 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];

  const double expected =
      static_cast<double>(param.n) / param.num_buckets;
  // Section 3.2: with S/M = 40 a relative deviation of 50% has probability
  // < 0.3 per bucket; across buckets we allow a small number of outliers
  // but no gross distortion.
  int gross = 0;
  for (int64_t c : counts) {
    if (std::abs(static_cast<double>(c) - expected) > expected) ++gross;
  }
  EXPECT_LE(gross, param.num_buckets / 10);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
            param.n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerDepthTest,
    testing::Values(SamplerCase{20000, 10, 1}, SamplerCase{50000, 100, 2},
                    SamplerCase{100000, 1000, 3},
                    SamplerCase{5000, 50, 4}));

TEST(SamplerTest, EmptyInputYieldsSingleBucket) {
  SamplerOptions options;
  options.num_buckets = 16;
  Rng rng(5);
  const BucketBoundaries b =
      BuildEquiDepthBoundaries(std::vector<double>{}, options, rng);
  EXPECT_EQ(b.num_buckets(), 1);
}

TEST(SamplerTest, StreamSamplerMatchesColumnSampler) {
  // The batch-source sampler draws the column sampler's S row indices and
  // gathers them in one sequential pass, so with the same seed both give
  // bit-identical cut points -- here across batches smaller than the
  // sample and a second, differently-bucketed column in the same pass.
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  Rng data_rng(6);
  for (int i = 0; i < 50000; ++i) {
    const double v[] = {data_rng.NextUniform(0.0, 1.0),
                        data_rng.NextGaussian()};
    const uint8_t flag = 0;
    relation.AppendRow(v, std::span<const uint8_t>(&flag, 1));
  }
  storage::RelationBatchSource source(&relation, /*batch_rows=*/333);
  const SampledColumn columns[] = {{0, 100, 7}, {1, 37, 8}, {0, 5, 9}};
  Result<std::vector<BucketBoundaries>> sampled =
      SampleBoundaries(source, columns, /*sample_per_bucket=*/40);
  ASSERT_TRUE(sampled.ok());
  ASSERT_EQ(sampled.value().size(), 3u);
  EXPECT_EQ(source.scans_started(), 1);
  for (size_t i = 0; i < 3; ++i) {
    SamplerOptions options;
    options.num_buckets = columns[i].num_buckets;
    Rng rng(columns[i].seed);
    const BucketBoundaries expected = BuildEquiDepthBoundaries(
        relation.NumericColumn(columns[i].column), options, rng);
    EXPECT_EQ(sampled.value()[i].cut_points(), expected.cut_points());
  }

  const BucketBoundaries& b = sampled.value()[0];
  EXPECT_EQ(b.num_buckets(), 100);
  std::vector<int64_t> counts(100, 0);
  for (double v : relation.NumericColumn(0)) {
    ++counts[static_cast<size_t>(b.Locate(v))];
  }
  const double expected = 500.0;
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected);  // +-100%
  }
}

TEST(SamplerTest, EmptySourceYieldsSingleBucketsWithoutScanning) {
  const storage::Relation relation(storage::Schema::Synthetic(1, 1));
  storage::RelationBatchSource source(&relation);
  const SampledColumn column{0, 16, 1};
  Result<std::vector<BucketBoundaries>> sampled =
      SampleBoundaries(source, {&column, 1}, 40);
  ASSERT_TRUE(sampled.ok());
  ASSERT_EQ(sampled.value().size(), 1u);
  EXPECT_EQ(sampled.value()[0].num_buckets(), 1);
  EXPECT_EQ(source.scans_started(), 0);
}

/// The comparison-sort form of the sample order: NaN dropped, std::sort,
/// then the zero run (whose order std::sort leaves unspecified) rewritten
/// negatives-first.
std::vector<double> ReferenceSampleSort(std::vector<double> values) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](double v) { return std::isnan(v); }),
               values.end());
  std::sort(values.begin(), values.end());
  const auto [zeros_begin, zeros_end] =
      std::equal_range(values.begin(), values.end(), 0.0);
  const auto negative_zeros = std::count_if(
      zeros_begin, zeros_end, [](double v) { return std::signbit(v); });
  std::fill(zeros_begin, zeros_begin + negative_zeros, -0.0);
  std::fill(zeros_begin + negative_zeros, zeros_end, 0.0);
  return values;
}

TEST(SortSampleTest, EqualsStdSortWithNegativeZerosFirst) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double max = std::numeric_limits<double>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,  -0.0,   inf,  -inf, denorm,
                             -denorm, max, -max, 1.0,  -1.0};
  Rng rng(77);
  // Any non-NaN bit pattern: exercises every key byte and exponent.
  const auto random_double = [&rng] {
    for (;;) {
      const double v = std::bit_cast<double>(rng.Next64());
      if (!std::isnan(v)) return v;
    }
  };
  for (const size_t n : {0, 1, 2, 255, 256, 257, 40000}) {
    SCOPED_TRACE(n);
    std::vector<std::vector<double>> inputs(6);
    for (size_t i = 0; i < n; ++i) {
      const double special = specials[rng.NextBounded(std::size(specials))];
      inputs[0].push_back(rng.NextBounded(4) == 0 ? special
                                                  : random_double());
      inputs[1].push_back(special);  // heavy ties, zeros of both signs
      inputs[2].push_back(-0.0);     // all equal
      inputs[3].push_back(rng.NextUniform(-1e3, 1e3));
      // Half NaN of either sign, all dropped.
      inputs[5].push_back(i % 2 == 0 ? std::copysign(nan, special) : special);
    }
    inputs[4] = ReferenceSampleSort(inputs[0]);
    std::reverse(inputs[4].begin(), inputs[4].end());  // reversed
    for (size_t k = 0; k < inputs.size(); ++k) {
      SCOPED_TRACE(k);
      std::vector<double> sorted = inputs[k];
      SortSample(sorted);
      EXPECT_EQ(Bits(sorted), Bits(ReferenceSampleSort(inputs[k])));
    }
  }
}

TEST(SamplerTest, CutPointsDependOnlyOnTheSampleMultiset) {
  // Equal doubles are bitwise identical except -0.0 and +0.0, so the
  // quantile step's sort puts -0.0 first: any permutation of a sample
  // holding both zeros (and NaNs, which are dropped) gives the same bits.
  std::vector<double> sample;
  for (int i = 0; i < 40; ++i) {
    sample.push_back(i % 2 == 0 ? 0.0 : -0.0);
    sample.push_back(static_cast<double>(i % 5) - 2.0);
  }
  sample.push_back(std::nan(""));
  const auto bits = [](const std::vector<double>& cuts) {
    std::vector<uint64_t> out;
    for (const double cut : cuts) out.push_back(std::bit_cast<uint64_t>(cut));
    return out;
  };
  std::vector<double> copy = sample;
  const BucketBoundaries reference = BoundariesFromSample(copy, 40);
  const std::vector<double>& cuts = reference.cut_points();
  // Both zeros become cut points, every -0.0 before every +0.0.
  const auto first_positive_zero =
      std::find_if(cuts.begin(), cuts.end(),
                   [](double v) { return v == 0.0 && !std::signbit(v); });
  ASSERT_NE(first_positive_zero, cuts.end());
  ASSERT_NE(first_positive_zero, cuts.begin());
  EXPECT_TRUE(std::signbit(*(first_positive_zero - 1)));
  EXPECT_TRUE(std::none_of(first_positive_zero, cuts.end(), [](double v) {
    return v == 0.0 && std::signbit(v);
  }));
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> permuted = sample;
    std::shuffle(permuted.begin(), permuted.end(), rng);
    EXPECT_EQ(bits(BoundariesFromSample(permuted, 40).cut_points()),
              bits(cuts));
  }
}

// ---------------------------------------------------------- equiwidth ----

TEST(EquiWidthTest, CutsAreEvenlySpaced) {
  const std::vector<double> values = {0.0, 100.0, 37.0, 58.0};
  const BucketBoundaries b = EquiWidthBoundaries(values, 4);
  ASSERT_EQ(b.num_buckets(), 4);
  EXPECT_DOUBLE_EQ(b.cut_points()[0], 25.0);
  EXPECT_DOUBLE_EQ(b.cut_points()[1], 50.0);
  EXPECT_DOUBLE_EQ(b.cut_points()[2], 75.0);
}

TEST(EquiWidthTest, SkewedDataConcentratesInFewBuckets) {
  // Lognormal data: equi-width puts nearly everything in the first bucket,
  // which is exactly why the paper prefers equi-depth (footnote 3).
  Rng rng(8);
  std::vector<double> values(20000);
  for (double& v : values) v = std::exp(3.0 * rng.NextGaussian());
  const BucketBoundaries b = EquiWidthBoundaries(values, 100);
  std::vector<int64_t> counts(100, 0);
  for (double v : values) ++counts[static_cast<size_t>(b.Locate(v))];
  EXPECT_GT(counts[0], 19000);
}

// ------------------------------------------------------------ counting ----

TEST(CountingTest, MatchesBruteForce) {
  const std::vector<double> values = RandomValues(5000, 9);
  Rng rng(10);
  std::vector<uint8_t> target(values.size());
  for (auto& t : target) t = rng.NextBernoulli(0.3) ? 1 : 0;
  const BucketBoundaries b =
      BucketBoundaries::FromCutPoints({250.0, 500.0, 750.0});
  const BucketCounts counts = CountBuckets(values, target, b);

  ASSERT_EQ(counts.num_buckets(), 4);
  ASSERT_EQ(counts.num_targets(), 1);
  std::vector<int64_t> u(4, 0);
  std::vector<int64_t> v(4, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    const auto bucket = static_cast<size_t>(b.Locate(values[i]));
    ++u[bucket];
    if (target[i]) ++v[bucket];
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(counts.u[static_cast<size_t>(i)], u[static_cast<size_t>(i)]);
    EXPECT_EQ(counts.v[0][static_cast<size_t>(i)],
              v[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(counts.total_tuples, 5000);
}

TEST(CountingTest, MinMaxTracksObservedValues) {
  const std::vector<double> values = {1.0, 9.0, 11.0, 19.0, 5.0};
  const std::vector<uint8_t> target = {0, 0, 0, 0, 0};
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({10.0});
  const BucketCounts counts = CountBuckets(values, target, b);
  EXPECT_DOUBLE_EQ(counts.min_value[0], 1.0);
  EXPECT_DOUBLE_EQ(counts.max_value[0], 9.0);
  EXPECT_DOUBLE_EQ(counts.min_value[1], 11.0);
  EXPECT_DOUBLE_EQ(counts.max_value[1], 19.0);
}

TEST(CountingTest, MultipleTargetsCountedInOnePass) {
  const std::vector<double> values = RandomValues(2000, 11);
  Rng rng(12);
  std::vector<uint8_t> t1(values.size());
  std::vector<uint8_t> t2(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    t1[i] = rng.NextBernoulli(0.2) ? 1 : 0;
    t2[i] = rng.NextBernoulli(0.7) ? 1 : 0;
  }
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({500.0});
  const std::vector<uint8_t>* targets[] = {&t1, &t2};
  const BucketCounts counts = CountBuckets(values, targets, b);
  ASSERT_EQ(counts.num_targets(), 2);
  int64_t total_t2 = counts.v[1][0] + counts.v[1][1];
  int64_t expected_t2 = 0;
  for (uint8_t x : t2) expected_t2 += x;
  EXPECT_EQ(total_t2, expected_t2);
}

TEST(CountingTest, ConditionalCountsRestrictToC1) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  const std::vector<uint8_t> c1 = {1, 0, 1, 1};
  const std::vector<uint8_t> c2 = {1, 1, 0, 1};
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({2.5});
  const BucketCounts counts = CountBucketsConditional(values, c1, c2, b);
  // Bucket 0 holds rows {1.0, 2.0}; only row 0 meets C1, and it meets C2.
  EXPECT_EQ(counts.u[0], 1);
  EXPECT_EQ(counts.v[0][0], 1);
  // Bucket 1 holds rows {3.0, 4.0}; both meet C1, row 3 meets C2.
  EXPECT_EQ(counts.u[1], 2);
  EXPECT_EQ(counts.v[0][1], 1);
  // Support denominator stays the full table.
  EXPECT_EQ(counts.total_tuples, 4);
}

TEST(CountingTest, CompactRemovesEmptyBuckets) {
  const std::vector<double> values = {1.0, 30.0};
  const std::vector<uint8_t> target = {1, 0};
  const BucketBoundaries b =
      BucketBoundaries::FromCutPoints({10.0, 20.0, 40.0});
  BucketCounts counts = CountBuckets(values, target, b);
  ASSERT_EQ(counts.num_buckets(), 4);
  CompactEmptyBuckets(&counts);
  ASSERT_EQ(counts.num_buckets(), 2);
  EXPECT_EQ(counts.u[0], 1);
  EXPECT_EQ(counts.v[0][0], 1);
  EXPECT_DOUBLE_EQ(counts.min_value[1], 30.0);
  EXPECT_EQ(counts.total_tuples, 2);
}

TEST(CountingTest, BucketSumsAccumulateTarget) {
  const std::vector<double> values = {1.0, 2.0, 11.0, 12.0};
  const std::vector<double> target = {10.0, 20.0, 5.0, 7.0};
  const BucketBoundaries b = BucketBoundaries::FromCutPoints({10.0});
  BucketSums sums = CountBucketSums(values, target, b);
  EXPECT_EQ(sums.u[0], 2);
  EXPECT_DOUBLE_EQ(sums.sum[0], 30.0);
  EXPECT_EQ(sums.u[1], 2);
  EXPECT_DOUBLE_EQ(sums.sum[1], 12.0);

  // Compaction keeps parallel arrays aligned.
  const BucketBoundaries b3 =
      BucketBoundaries::FromCutPoints({10.0, 100.0});
  BucketSums sparse = CountBucketSums({{5.0}}, {{2.5}}, b3);
  CompactEmptyBuckets(&sparse);
  ASSERT_EQ(sparse.num_buckets(), 1);
  EXPECT_DOUBLE_EQ(sparse.sum[0], 2.5);
}

// ------------------------------------------------------------ parallel ----

class ParallelCountTest : public testing::TestWithParam<int> {};

TEST_P(ParallelCountTest, MatchesSerialForAnyThreadCount) {
  const int threads = GetParam();
  const std::vector<double> values = RandomValues(10007, 14);
  Rng rng(15);
  std::vector<uint8_t> t1(values.size());
  for (auto& t : t1) t = rng.NextBernoulli(0.25) ? 1 : 0;
  const BucketBoundaries b =
      BucketBoundaries::FromCutPoints({100, 200, 300, 400, 500});
  const std::vector<uint8_t>* targets[] = {&t1};
  const BucketCounts serial = CountBuckets(values, targets, b);
  const BucketCounts parallel =
      ParallelCountBuckets(values, targets, b, threads);
  EXPECT_EQ(parallel.u, serial.u);
  EXPECT_EQ(parallel.v, serial.v);
  EXPECT_EQ(parallel.total_tuples, serial.total_tuples);
  for (int i = 0; i < serial.num_buckets(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.min_value[static_cast<size_t>(i)],
                     serial.min_value[static_cast<size_t>(i)]);
    EXPECT_DOUBLE_EQ(parallel.max_value[static_cast<size_t>(i)],
                     serial.max_value[static_cast<size_t>(i)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelCountTest,
                         testing::Values(1, 2, 3, 4, 8));

// ------------------------------------------------- sort-based on disk ----

/// Writes `relation` to `path` as v1, v2, and v2 without zone maps in
/// turn, calling `check()` after each write.
template <typename Check>
void ForEachPagedFormat(const storage::Relation& relation,
                        const std::string& path, Check check) {
  storage::PagedFileWriterOptions v1;
  v1.format = storage::PagedFileFormat::kRowMajorV1;
  storage::PagedFileWriterOptions v2;
  v2.rows_per_page = 1024;  // several pages, a partial last one
  storage::PagedFileWriterOptions v2_no_zones = v2;
  v2_no_zones.zone_maps = false;
  const std::pair<const char*, storage::PagedFileWriterOptions> formats[] = {
      {"v1", v1}, {"v2", v2}, {"v2_no_zone_maps", v2_no_zones}};
  for (const auto& [name, options] : formats) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(storage::WriteRelationToFile(relation, path, options).ok());
    check();
  }
}

/// Both disk baselines must return exactly ExactEquiDepthBoundaries' cut
/// points for every numeric column of `relation`, whatever the on-disk
/// format, and with sort budgets small enough to force many runs.
void ExpectSortBucketizersExact(const storage::Relation& relation,
                                int num_buckets, const std::string& name) {
  const std::string table = testing::TempDir() + "/" + name + ".optr";
  const std::string sorted = testing::TempDir() + "/" + name + "_sorted.optr";
  const std::string split = testing::TempDir() + "/" + name + "_split.optr";
  ForEachPagedFormat(relation, table, [&] {
    for (int a = 0; a < relation.schema().num_numeric(); ++a) {
      SCOPED_TRACE(testing::Message() << "attr=" << a);
      const BucketBoundaries expected =
          ExactEquiDepthBoundaries(relation.NumericColumn(a), num_buckets);
      Result<BucketBoundaries> naive = NaiveSortBoundariesFromFile(
          table, a, num_buckets, sorted, 1 << 16, testing::TempDir());
      ASSERT_TRUE(naive.ok()) << naive.status().ToString();
      EXPECT_EQ(naive.value().cut_points(), expected.cut_points());
      Result<BucketBoundaries> vertical = VerticalSplitSortBoundariesFromFile(
          table, a, num_buckets, split, 1 << 16, testing::TempDir());
      ASSERT_TRUE(vertical.ok()) << vertical.status().ToString();
      EXPECT_EQ(vertical.value().cut_points(), expected.cut_points());
    }
  });
  std::remove(table.c_str());
  std::remove(sorted.c_str());
  std::remove(split.c_str());
}

TEST(SortBucketizerFileTest, NaiveAndVerticalSplitMatchInMemoryExactly) {
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  Rng rng(16);
  for (int i = 0; i < 20000; ++i) {
    const double numeric[] = {rng.NextUniform(0, 1),
                              rng.NextGaussian() * 10.0};
    const uint8_t boolean[] = {static_cast<uint8_t>(i % 3 == 0 ? 1 : 0)};
    relation.AppendRow(numeric, boolean);
  }
  ExpectSortBucketizersExact(relation, 50, "bucketize");
}

TEST(SortBucketizerFileTest, NanLadenTablesMatchInMemoryExactly) {
  // Every 7th value of column 0 is NaN and column 1 is heavily tied; NaN
  // must sort after every number and stay out of the ranks (it counts
  // toward N but lands in no bucket), so the cut points are exactly the
  // in-memory ones over the non-NaN values.
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double numeric[] = {
        i % 7 == 0 ? std::nan("") : rng.NextUniform(-5, 5),
        i % 11 == 0 ? std::nan("") : std::floor(rng.NextUniform(0, 20))};
    const uint8_t boolean[] = {static_cast<uint8_t>(i % 2)};
    relation.AppendRow(numeric, boolean);
  }
  ExpectSortBucketizersExact(relation, 40, "bucketize_nan");
}

TEST(SortBucketizerFileTest, AllNanAndEmptyColumnsYieldOneBucket) {
  storage::Relation all_nan(storage::Schema::Synthetic(1, 1));
  for (int i = 0; i < 100; ++i) {
    const double v = std::nan("");
    const uint8_t f = 0;
    all_nan.AppendRow(std::span<const double>(&v, 1),
                      std::span<const uint8_t>(&f, 1));
  }
  ExpectSortBucketizersExact(all_nan, 10, "bucketize_all_nan");
  const storage::Relation empty(storage::Schema::Synthetic(1, 1));
  ExpectSortBucketizersExact(empty, 10, "bucketize_empty");
}

TEST(SortBucketizerFileTest, RejectsBadAttribute) {
  storage::Relation relation(storage::Schema::Synthetic(1, 1));
  const double v = 1.0;
  const uint8_t f = 0;
  relation.AppendRow(std::span<const double>(&v, 1),
                     std::span<const uint8_t>(&f, 1));
  const std::string table = testing::TempDir() + "/one.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, table).ok());
  EXPECT_FALSE(NaiveSortBoundariesFromFile(table, 5, 10,
                                           testing::TempDir() + "/x.optr",
                                           1 << 16, testing::TempDir())
                   .ok());
  std::remove(table.c_str());
}

// -------------------------------------------------------- error bounds ----

TEST(ErrorBoundsTest, TableOneRows) {
  // Table I of the paper: support_opt = 30%, conf_opt = 70%.
  struct Row {
    int buckets;
    double supp_lo, supp_hi, conf_lo, conf_hi;
  };
  // conf bounds: c*ms/(ms+2) and min(1, c*ms/(ms-2)).
  const Row rows[] = {
      {10, 0.10, 0.50, 0.42, 1.00},
      {100, 0.28, 0.32, 0.65625, 0.75},
      {500, 0.296, 0.304, 0.690789, 0.709459},
      {1000, 0.298, 0.302, 0.695364, 0.704698},
  };
  for (const Row& row : rows) {
    const ApproxErrorBounds b =
        BucketApproximationBounds(0.30, 0.70, row.buckets);
    EXPECT_NEAR(b.support_lo, row.supp_lo, 1e-9) << row.buckets;
    EXPECT_NEAR(b.support_hi, row.supp_hi, 1e-9) << row.buckets;
    EXPECT_NEAR(b.confidence_lo, row.conf_lo, 1e-4) << row.buckets;
    EXPECT_NEAR(b.confidence_hi, row.conf_hi, 1e-4) << row.buckets;
  }
}

TEST(ErrorBoundsTest, RelativeBoundsMatchPaperFormulas) {
  EXPECT_NEAR(RelativeSupportErrorBound(0.3, 100), 2.0 / 30.0, 1e-12);
  EXPECT_NEAR(RelativeConfidenceErrorBound(0.3, 100), 2.0 / 28.0, 1e-12);
  EXPECT_TRUE(std::isinf(RelativeConfidenceErrorBound(0.3, 5)));
}

TEST(ErrorBoundsTest, BoundsShrinkWithMoreBuckets) {
  double prev_width = 2.0;
  for (int m : {10, 50, 100, 500, 1000}) {
    const ApproxErrorBounds b = BucketApproximationBounds(0.30, 0.70, m);
    const double width = b.confidence_hi - b.confidence_lo;
    EXPECT_LT(width, prev_width);
    prev_width = width;
    EXPECT_LE(b.support_lo, 0.30);
    EXPECT_GE(b.support_hi, 0.30);
    EXPECT_LE(b.confidence_lo, 0.70);
    EXPECT_GE(b.confidence_hi, 0.70);
  }
}

}  // namespace
}  // namespace optrules::bucketing
