// Tests for the columnar batch execution core: batch sources, the shared
// multi-pair counting scan, and the MiningEngine's equivalence with the
// legacy per-attribute Miner.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/counting.h"
#include "bucketing/parallel_count.h"
#include "common/thread_pool.h"
#include "datagen/bank.h"
#include "datagen/retail.h"
#include "datagen/table_generator.h"
#include "obs/metrics.h"
#include "rules/miner.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace optrules::rules {
namespace {

using bucketing::BucketBoundaries;
using bucketing::BucketCounts;
using bucketing::MultiCountPlan;

// ------------------------------------------------------ batch sources ----

storage::Relation SmallRelation(int64_t rows, uint64_t seed) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 3;
  config.num_boolean = 2;
  Rng rng(seed);
  return datagen::GenerateTable(config, rng);
}

TEST(BatchSourceTest, RelationBatchesCoverAllRowsInOrder) {
  const storage::Relation relation = SmallRelation(10007, 1);
  storage::RelationBatchSource source(&relation, /*batch_rows=*/256);
  auto reader = source.CreateReader();
  storage::ColumnarBatch batch;
  int64_t rows = 0;
  while (reader->Next(&batch)) {
    ASSERT_EQ(batch.num_numeric(), 3);
    ASSERT_EQ(batch.num_boolean(), 2);
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      EXPECT_EQ(batch.numeric(0)[static_cast<size_t>(r)],
                relation.NumericValue(rows + r, 0));
      EXPECT_EQ(batch.boolean(1)[static_cast<size_t>(r)] != 0,
                relation.BooleanValue(rows + r, 1));
    }
    rows += batch.num_rows();
  }
  EXPECT_EQ(rows, relation.NumRows());
  EXPECT_EQ(source.scans_started(), 1);
}

TEST(BatchSourceTest, PagedFileBatchesMatchRelationBatches) {
  const storage::Relation relation = SmallRelation(5003, 2);
  const std::string path = testing::TempDir() + "/batch_source.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
  auto source_or = storage::PagedFileBatchSource::Open(path, 512);
  ASSERT_TRUE(source_or.ok());
  storage::PagedFileBatchSource& file_source = *source_or.value();
  EXPECT_EQ(file_source.NumTuples(), relation.NumRows());

  auto reader = file_source.CreateReader();
  storage::ColumnarBatch batch;
  int64_t row = 0;
  while (reader->Next(&batch)) {
    for (int64_t r = 0; r < batch.num_rows(); ++r, ++row) {
      for (int a = 0; a < 3; ++a) {
        EXPECT_EQ(batch.numeric(a)[static_cast<size_t>(r)],
                  relation.NumericValue(row, a));
      }
      for (int b = 0; b < 2; ++b) {
        EXPECT_EQ(batch.boolean(b)[static_cast<size_t>(r)] != 0,
                  relation.BooleanValue(row, b));
      }
    }
  }
  EXPECT_EQ(row, relation.NumRows());
  std::remove(path.c_str());
}

// -------------------------------------------------- multi-count kernel ----

TEST(MultiCountTest, PlanMatchesPerAttributeCountBuckets) {
  const storage::Relation relation = SmallRelation(20011, 4);
  std::vector<BucketBoundaries> boundaries;
  std::vector<const BucketBoundaries*> bounds;
  for (int a = 0; a < 3; ++a) {
    boundaries.push_back(BucketBoundaries::FromCutPoints(
        {2e5, 4e5 + 1e4 * a, 6e5, 8e5}));
  }
  for (const auto& b : boundaries) bounds.push_back(&b);
  std::vector<const std::vector<uint8_t>*> targets = {
      &relation.BooleanColumn(0), &relation.BooleanColumn(1)};

  MultiCountPlan plan(bounds, 2);
  storage::RelationBatchSource source(&relation, 512);
  auto reader = source.CreateReader();
  storage::ColumnarBatch batch;
  while (reader->Next(&batch)) plan.Accumulate(batch);

  for (int a = 0; a < 3; ++a) {
    const BucketCounts expected = bucketing::CountBuckets(
        relation.NumericColumn(a), targets, boundaries[static_cast<size_t>(a)]);
    const BucketCounts& actual = plan.counts(a);
    EXPECT_EQ(actual.u, expected.u);
    EXPECT_EQ(actual.v, expected.v);
    EXPECT_EQ(actual.total_tuples, expected.total_tuples);
    for (int bkt = 0; bkt < expected.num_buckets(); ++bkt) {
      const auto bi = static_cast<size_t>(bkt);
      if (expected.u[bi] > 0) {
        EXPECT_DOUBLE_EQ(actual.min_value[bi], expected.min_value[bi]);
        EXPECT_DOUBLE_EQ(actual.max_value[bi], expected.max_value[bi]);
      }
    }
  }
}

TEST(MultiCountTest, ShardedExecutionIsBitIdenticalAndOneScan) {
  const storage::Relation relation = SmallRelation(30013, 5);
  std::vector<BucketBoundaries> boundaries;
  std::vector<const BucketBoundaries*> bounds;
  for (int a = 0; a < 3; ++a) {
    boundaries.push_back(
        BucketBoundaries::FromCutPoints({1e5, 3e5, 5e5, 7e5, 9e5}));
  }
  for (const auto& b : boundaries) bounds.push_back(&b);

  storage::RelationBatchSource serial_source(&relation, 1024);
  MultiCountPlan serial(bounds, 2);
  bucketing::ExecuteMultiCount(serial_source, &serial, nullptr);
  EXPECT_EQ(serial_source.scans_started(), 1);

  for (const int pool_size : {2, 3, 8}) {
    ThreadPool pool(pool_size);
    storage::RelationBatchSource source(&relation, 1024);
    MultiCountPlan parallel(bounds, 2);
    bucketing::ExecuteMultiCount(source, &parallel, &pool);
    EXPECT_EQ(source.scans_started(), 1) << pool_size;
    for (int a = 0; a < 3; ++a) {
      EXPECT_EQ(parallel.counts(a).u, serial.counts(a).u) << pool_size;
      EXPECT_EQ(parallel.counts(a).v, serial.counts(a).v) << pool_size;
      EXPECT_EQ(parallel.counts(a).total_tuples,
                serial.counts(a).total_tuples);
    }
  }
}

// ----------------------------------------------- parallel determinism ----

TEST(ParallelCountTest, DeterministicAcrossThreadCounts) {
  const storage::Relation relation = SmallRelation(50021, 7);
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({1e5, 2e5, 4e5, 6e5, 8e5, 9.5e5});
  std::vector<const std::vector<uint8_t>*> targets = {
      &relation.BooleanColumn(0), &relation.BooleanColumn(1)};

  const BucketCounts one = bucketing::ParallelCountBuckets(
      relation.NumericColumn(0), targets, boundaries, 1);
  for (const int threads : {2, 8}) {
    const BucketCounts counts = bucketing::ParallelCountBuckets(
        relation.NumericColumn(0), targets, boundaries, threads);
    EXPECT_EQ(counts.u, one.u) << threads;
    EXPECT_EQ(counts.v, one.v) << threads;
    EXPECT_EQ(counts.total_tuples, one.total_tuples) << threads;
    for (int b = 0; b < one.num_buckets(); ++b) {
      const auto bi = static_cast<size_t>(b);
      if (one.u[bi] == 0) continue;
      EXPECT_DOUBLE_EQ(counts.min_value[bi], one.min_value[bi]);
      EXPECT_DOUBLE_EQ(counts.max_value[bi], one.max_value[bi]);
    }
  }
}

TEST(ParallelCountTest, ExplicitPoolOverloadMatches) {
  const storage::Relation relation = SmallRelation(9001, 8);
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({5e5});
  std::vector<const std::vector<uint8_t>*> targets = {
      &relation.BooleanColumn(1)};
  ThreadPool pool(3);
  const BucketCounts pooled = bucketing::ParallelCountBuckets(
      relation.NumericColumn(1), targets, boundaries, 5, pool);
  const BucketCounts serial = bucketing::CountBuckets(
      relation.NumericColumn(1), relation.BooleanColumn(1), boundaries);
  EXPECT_EQ(pooled.u, serial.u);
  EXPECT_EQ(pooled.v, serial.v);
}

// -------------------------------------------------------- NaN guards ----

TEST(NanGuardTest, LocateSendsNanToNoBucket) {
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({10.0, 20.0});
  EXPECT_EQ(boundaries.Locate(std::nan("")), BucketBoundaries::kNoBucket);
  EXPECT_EQ(boundaries.Locate(5.0), 0);
  EXPECT_EQ(boundaries.Locate(1e300), 2);
}

TEST(NanGuardTest, NanRowsCountTowardNButTowardNoBucket) {
  const double nan = std::nan("");
  const std::vector<double> values = {1.0, 2.0, nan, nan, 30.0};
  const std::vector<uint8_t> target = {1, 0, 1, 1, 1};
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({10.0, 20.0});
  BucketCounts counts = bucketing::CountBuckets(values, target, boundaries);
  // The NaN policy: NaN rows inflate no bucket's u-count (they used to be
  // silently routed to bucket 0), but the support denominator N still
  // covers every tuple.
  EXPECT_EQ(counts.u[0], 2);
  EXPECT_EQ(counts.v[0][0], 1);
  EXPECT_EQ(counts.total_tuples, 5);
  EXPECT_DOUBLE_EQ(counts.min_value[0], 1.0);
  EXPECT_DOUBLE_EQ(counts.max_value[0], 2.0);
  bucketing::CompactEmptyBuckets(&counts);
  ASSERT_EQ(counts.num_buckets(), 2);
  EXPECT_FALSE(std::isnan(bucketing::RangeMinValue(counts, 0, 1)));
  EXPECT_FALSE(std::isnan(bucketing::RangeMaxValue(counts, 0, 1)));
}

TEST(NanGuardTest, AllNanColumnLeavesEveryBucketEmpty) {
  const double nan = std::nan("");
  const std::vector<double> values = {nan, nan};
  const std::vector<uint8_t> target = {1, 1};
  const BucketBoundaries boundaries = BucketBoundaries::FromCutPoints({});
  BucketCounts counts = bucketing::CountBuckets(values, target, boundaries);
  EXPECT_EQ(counts.total_tuples, 2);
  bucketing::CompactEmptyBuckets(&counts);
  // No bucket received a tuple, so compaction removes all of them; rule
  // emission treats the empty array as "no range".
  EXPECT_EQ(counts.num_buckets(), 0);
}

TEST(NanGuardTest, ConditionalAndSumKernelsSkipNanValues) {
  const double nan = std::nan("");
  const std::vector<double> values = {1.0, nan, 15.0, nan, 25.0};
  const std::vector<uint8_t> c1 = {1, 1, 1, 1, 0};
  const std::vector<uint8_t> c2 = {1, 1, 0, 1, 1};
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({10.0, 20.0});
  const BucketCounts conditional =
      bucketing::CountBucketsConditional(values, c1, c2, boundaries);
  EXPECT_EQ(conditional.u, (std::vector<int64_t>{1, 1, 0}));
  EXPECT_EQ(conditional.v[0], (std::vector<int64_t>{1, 0, 0}));
  EXPECT_EQ(conditional.total_tuples, 5);

  const std::vector<double> target = {10.0, 100.0, 20.0, 1000.0, 40.0};
  const bucketing::BucketSums sums =
      bucketing::CountBucketSums(values, target, boundaries);
  // NaN range-attribute rows contribute to no bucket's count or sum.
  EXPECT_EQ(sums.u, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_EQ(sums.sum, (std::vector<double>{10.0, 20.0, 40.0}));
  EXPECT_EQ(sums.total_tuples, 5);
}

TEST(NanGuardTest, InfiniteSumTargetsStayInfiniteUnderCompensation) {
  // +/-inf is in-domain for sum targets. The Neumaier compensation terms
  // must not turn an honestly infinite per-bucket sum into NaN
  // (inf - inf = NaN inside the naive correction).
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {1.0, 2.0, 3.0, 15.0};
  const std::vector<double> target = {10.0, inf, 5.0, -inf};
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({10.0});
  const bucketing::BucketSums sums =
      bucketing::CountBucketSums(values, target, boundaries);
  EXPECT_TRUE(std::isinf(sums.sum[0]));
  EXPECT_GT(sums.sum[0], 0.0);
  EXPECT_TRUE(std::isinf(sums.sum[1]));
  EXPECT_LT(sums.sum[1], 0.0);

  // Same through a plan sum channel (the engine path).
  storage::Relation relation(storage::Schema::Synthetic(2, 1));
  for (size_t row = 0; row < values.size(); ++row) {
    const double numeric[] = {values[row], target[row]};
    const uint8_t boolean[] = {0};
    relation.AppendRow(numeric, boolean);
  }
  bucketing::MultiCountSpec spec;
  spec.num_targets = 1;
  bucketing::CountChannel channel;
  channel.column = 0;
  channel.boundaries = &boundaries;
  channel.count_targets = false;
  channel.sum_targets = {1};
  spec.channels.push_back(std::move(channel));
  bucketing::MultiCountPlan plan(std::move(spec));
  storage::RelationBatchSource source(&relation, 2);
  bucketing::ExecuteMultiCount(source, &plan, nullptr);
  const bucketing::BucketSums plan_sums = plan.TakeBucketSums(0, 0);
  EXPECT_TRUE(std::isinf(plan_sums.sum[0]));
  EXPECT_GT(plan_sums.sum[0], 0.0);
  EXPECT_TRUE(std::isinf(plan_sums.sum[1]));
  EXPECT_LT(plan_sums.sum[1], 0.0);
}

// ------------------------------------------------------ mining engine ----

void ExpectSameRules(const std::vector<MinedRule>& a,
                     const std::vector<MinedRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].found, b[i].found);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].numeric_attr, b[i].numeric_attr);
    EXPECT_EQ(a[i].boolean_attr, b[i].boolean_attr);
    EXPECT_EQ(a[i].range_lo, b[i].range_lo);
    EXPECT_EQ(a[i].range_hi, b[i].range_hi);
    EXPECT_EQ(a[i].support_count, b[i].support_count);
    EXPECT_EQ(a[i].hit_count, b[i].hit_count);
    EXPECT_EQ(a[i].support, b[i].support);
    EXPECT_EQ(a[i].confidence, b[i].confidence);
  }
}

TEST(MiningEngineTest, SingleScanResultsMatchLegacyMinerOnBank) {
  datagen::BankConfig config;
  config.num_customers = 30000;
  Rng rng(11);
  const storage::Relation bank = datagen::GenerateBankCustomers(config, rng);
  MinerOptions options;
  options.num_buckets = 200;
  options.min_support = 0.05;
  options.min_confidence = 0.5;

  Miner legacy(&bank, options);
  MiningEngine engine(&bank, options);
  ExpectSameRules(engine.MineAllPairs(), legacy.MineAll());
  EXPECT_EQ(engine.counting_scans(), 1);
}

TEST(MiningEngineTest, SingleScanResultsMatchLegacyMinerOnRetail) {
  datagen::RetailConfig config;
  config.num_transactions = 30000;
  Rng rng(12);
  const storage::Relation retail = datagen::GenerateRetail(config, rng);
  MinerOptions options;
  options.num_buckets = 150;
  options.min_support = 0.02;
  options.min_confidence = 0.4;

  Miner legacy(&retail, options);
  MiningEngine engine(&retail, options);
  ExpectSameRules(engine.MineAllPairs(), legacy.MineAll());
}

TEST(MiningEngineTest, ExactlyOneCountingScanForAnyNumberOfPairs) {
  const storage::Relation relation = SmallRelation(20000, 13);
  storage::RelationBatchSource source(&relation);
  MinerOptions options;
  options.num_buckets = 100;
  MiningEngine engine(&source, relation.schema(), options);

  // 3 numeric x 2 boolean = 6 pairs, 12 rules -- and exactly ONE scan of
  // the data (boundary planning over a batch source costs one more pass,
  // counting never rescans).
  const std::vector<MinedRule> all = engine.MineAllPairs();
  EXPECT_EQ(all.size(), 12u);
  EXPECT_EQ(engine.counting_scans(), 1);
  EXPECT_EQ(source.scans_started(), 2);  // planning + counting

  // Subsequent pair queries answer from the cache: still one scan.
  ASSERT_TRUE(engine.MinePair("num0", "bool1").ok());
  ASSERT_TRUE(engine.MinePair("num2", "bool0").ok());
  EXPECT_EQ(engine.counting_scans(), 1);
  EXPECT_EQ(source.scans_started(), 2);
}

TEST(MiningEngineTest, RelationEngineScansOnceTotal) {
  // The in-memory fast path plans from the columns directly, so even the
  // planning pass does not touch the batch source: one scan, full stop.
  const storage::Relation relation = SmallRelation(10000, 17);
  storage::RelationBatchSource source(&relation);
  MinerOptions options;
  options.num_buckets = 64;
  options.bucketizer = Bucketizer::kGkSketch;
  MiningEngine engine(&source, relation.schema(), options);
  engine.Prepare();
  // Generic sources pay one planning pass; the engine built directly over
  // the relation (below) must not even do that.
  EXPECT_EQ(source.scans_started(), 2);

  MiningEngine direct(&relation, options);
  direct.MineAllPairs();
  EXPECT_EQ(direct.counting_scans(), 1);
}

TEST(MiningEngineTest, FileEngineMatchesInMemoryEngineWithGk) {
  // GK sketches are deterministic and insertion-order equal between the
  // column and batch paths, so the disk-resident engine must reproduce
  // the in-memory engine bit for bit.
  const storage::Relation relation = SmallRelation(15000, 14);
  const std::string path = testing::TempDir() + "/engine_gk.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
  auto source_or = storage::PagedFileBatchSource::Open(path);
  ASSERT_TRUE(source_or.ok());

  MinerOptions options;
  options.num_buckets = 100;
  options.bucketizer = Bucketizer::kGkSketch;
  MiningEngine memory_engine(&relation, options);
  MiningEngine file_engine(source_or.value().get(), relation.schema(),
                           options);
  ExpectSameRules(file_engine.MineAllPairs(), memory_engine.MineAllPairs());
  EXPECT_EQ(file_engine.counting_scans(), 1);
  std::remove(path.c_str());
}

TEST(MiningEngineTest, FileEngineSamplingRecoversPlantedRule) {
  datagen::TableConfig config;
  config.num_rows = 40000;
  config.num_numeric = 2;
  config.num_boolean = 2;
  datagen::PlantedRule planted;
  planted.numeric_attr = 0;
  planted.boolean_attr = 0;
  planted.lo = 300000.0;
  planted.hi = 500000.0;
  planted.prob_inside = 0.8;
  planted.prob_outside = 0.1;
  config.planted_rules.push_back(planted);
  const std::string path = testing::TempDir() + "/engine_sampling.optr";
  {
    Rng rng(15);
    ASSERT_TRUE(datagen::GenerateTableToFile(config, rng, path).ok());
  }
  auto source_or = storage::PagedFileBatchSource::Open(path);
  ASSERT_TRUE(source_or.ok());
  MinerOptions options;
  options.num_buckets = 200;
  options.min_support = 0.10;
  MiningEngine engine(source_or.value().get(),
                      storage::Schema::Synthetic(2, 2), options);
  Result<std::vector<MinedRule>> rules = engine.MinePair("num0", "bool0");
  ASSERT_TRUE(rules.ok());
  const MinedRule& confidence_rule = rules.value()[0];
  ASSERT_TRUE(confidence_rule.found);
  EXPECT_GT(confidence_rule.confidence, 0.7);
  EXPECT_GE(confidence_rule.range_lo, 300000.0 - 30000.0);
  EXPECT_LE(confidence_rule.range_hi, 500000.0 + 30000.0);
  std::remove(path.c_str());
}

TEST(MiningEngineTest, PooledEngineMatchesSerialEngine) {
  const storage::Relation relation = SmallRelation(25000, 16);
  MinerOptions options;
  options.num_buckets = 100;
  MiningEngine serial(&relation, options);
  ThreadPool pool(4);
  MiningEngine pooled(&relation, options, &pool);
  ExpectSameRules(pooled.MineAllPairs(), serial.MineAllPairs());
}

TEST(MiningEngineTest, UnknownAttributesAreNotFoundErrors) {
  const storage::Relation relation = SmallRelation(100, 18);
  MiningEngine engine(&relation, MinerOptions{});
  EXPECT_EQ(engine.MinePair("nope", "bool0").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.MinePair("num0", "nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.MineGeneralized("num0", {"nope"}, "bool0").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      engine.MineMaximumAverageRange("num0", "nope", 0.1).status().code(),
      StatusCode::kNotFound);
  // Failed lookups must not have triggered the counting scan.
  EXPECT_EQ(engine.counting_scans(), 0);
}

// ------------------------- generalized / aggregate / sweep equivalence ----

/// Bitwise double equality that also accepts NaN == NaN: when the summed
/// target attribute itself carries NaNs, both paths must propagate the
/// identical NaN average.
void ExpectSameDouble(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b));
    return;
  }
  EXPECT_EQ(a, b);
}

void ExpectSameAggregate(const Result<MinedAggregateRange>& a,
                         const Result<MinedAggregateRange>& b) {
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().found, b.value().found);
  EXPECT_EQ(a.value().range_attr, b.value().range_attr);
  EXPECT_EQ(a.value().target_attr, b.value().target_attr);
  EXPECT_EQ(a.value().range_lo, b.value().range_lo);
  EXPECT_EQ(a.value().range_hi, b.value().range_hi);
  EXPECT_EQ(a.value().support_count, b.value().support_count);
  EXPECT_EQ(a.value().support, b.value().support);
  ExpectSameDouble(a.value().average, b.value().average);
}

void ExpectSameRuleResults(const Result<std::vector<MinedRule>>& a,
                           const Result<std::vector<MinedRule>>& b) {
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameRules(a.value(), b.value());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].presumptive_condition,
              b.value()[i].presumptive_condition);
  }
}

TEST(MiningEngineTest, AllNanColumnIsSafeForEveryBucketizer) {
  // A fully-NaN attribute (e.g. an all-null column) must not crash any
  // bucketizer's planner -- the GK path used to CHECK-fail because its
  // empty guard tested the input size, not the NaN-filtered sketch count.
  storage::Relation relation = SmallRelation(500, 29);
  for (double& value : relation.MutableNumericColumn(0)) {
    value = std::nan("");
  }
  for (const Bucketizer bucketizer :
       {Bucketizer::kSampling, Bucketizer::kGkSketch,
        Bucketizer::kExactSort}) {
    MinerOptions options;
    options.num_buckets = 16;
    options.sample_per_bucket = 4;
    options.bucketizer = bucketizer;
    Miner legacy(&relation, options);
    MiningEngine engine(&relation, options);
    const std::vector<MinedRule> rules = engine.MineAllPairs();
    ExpectSameRules(rules, legacy.MineAll());
    // Every pair on the all-NaN attribute reports "no range".
    for (const MinedRule& rule : rules) {
      if (rule.numeric_attr == "num0") {
        EXPECT_FALSE(rule.found);
      }
    }
  }
}

TEST(MiningEngineTest, GeneralizedRulesMatchLegacyMiner) {
  const storage::Relation relation = SmallRelation(20000, 21);
  MinerOptions options;
  options.num_buckets = 120;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  ExpectSameRuleResults(engine.MineGeneralized("num0", {"bool0"}, "bool1"),
                        legacy.MineGeneralized("num0", {"bool0"}, "bool1"));
  ExpectSameRuleResults(
      engine.MineGeneralized("num2", {"bool0", "bool1"}, "bool0"),
      legacy.MineGeneralized("num2", {"bool0", "bool1"}, "bool0"));
  // The empty conjunction is a legal presumptive condition.
  ExpectSameRuleResults(engine.MineGeneralized("num1", {}, "bool0"),
                        legacy.MineGeneralized("num1", {}, "bool0"));
}

TEST(MiningEngineTest, AggregateRangesMatchLegacyMiner) {
  const storage::Relation relation = SmallRelation(20000, 22);
  MinerOptions options;
  options.num_buckets = 150;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  ExpectSameAggregate(engine.MineMaximumAverageRange("num0", "num1", 0.1),
                      legacy.MineMaximumAverageRange("num0", "num1", 0.1));
  ExpectSameAggregate(engine.MineMaximumAverageRange("num2", "num0", 0.25),
                      legacy.MineMaximumAverageRange("num2", "num0", 0.25));
  ExpectSameAggregate(
      engine.MineMaximumSupportRange("num1", "num2", 520000.0),
      legacy.MineMaximumSupportRange("num1", "num2", 520000.0));
}

TEST(MiningEngineTest, ThresholdSweepMatchesPerThresholdLegacyMiners) {
  const storage::Relation relation = SmallRelation(15000, 23);
  MinerOptions options;
  options.num_buckets = 100;
  MiningEngine engine(&relation, options);
  const ThresholdSet sweep[] = {
      {0.02, 0.3}, {0.05, 0.5}, {0.20, 0.8}, {0.50, 0.95}};
  const std::vector<MinedRule> swept = engine.MineAllPairs(sweep);
  EXPECT_EQ(engine.counting_scans(), 1);
  const size_t per_sweep = 3 * 2 * 2;  // pairs x two rule kinds
  ASSERT_EQ(swept.size(), per_sweep * std::size(sweep));
  for (size_t i = 0; i < std::size(sweep); ++i) {
    MinerOptions legacy_options = options;
    legacy_options.min_support = sweep[i].min_support;
    legacy_options.min_confidence = sweep[i].min_confidence;
    Miner legacy(&relation, legacy_options);
    const std::vector<MinedRule> expected = legacy.MineAll();
    ExpectSameRules(
        std::vector<MinedRule>(swept.begin() + i * per_sweep,
                               swept.begin() + (i + 1) * per_sweep),
        expected);
  }
}

// A sweep builds each pair's hull once and solves it per threshold set;
// its output must be the per-threshold calls' outputs concatenated in
// sweep order -- repeated and extreme threshold sets included.
TEST(MiningEngineTest, ThresholdSweepEqualsPerThresholdCallsConcatenated) {
  const storage::Relation relation = SmallRelation(15000, 25);
  MinerOptions options;
  options.num_buckets = 120;
  const ThresholdSet sweep[] = {{0.0, 0.0},   {0.03, 0.4}, {0.10, 0.6},
                                {0.03, 0.4},  {1.0, 1.0},  {0.5, 0.2}};
  MiningEngine swept_engine(&relation, options);
  const std::vector<MinedRule> swept = swept_engine.MineAllPairs(sweep);
  MiningEngine engine(&relation, options);
  std::vector<MinedRule> concatenated;
  for (const ThresholdSet& thresholds : sweep) {
    const std::vector<MinedRule> one =
        engine.MineAllPairs(std::span(&thresholds, 1));
    concatenated.insert(concatenated.end(), one.begin(), one.end());
  }
  ExpectSameRules(swept, concatenated);
  EXPECT_TRUE(swept_engine.MineAllPairs({}).empty());
}

TEST(MiningEngineTest, AllQueryKindsTogetherCostOneCountingScan) {
  const storage::Relation relation = SmallRelation(12000, 24);
  storage::RelationBatchSource source(&relation);
  MinerOptions options;
  options.num_buckets = 80;
  MiningEngine engine(&source, relation.schema(), options);
  // Register the session's generalized conditions, aggregate targets, and
  // region pairs up front so the shared scan accumulates every channel --
  // 1-D and 2-D grid alike -- at once.
  ASSERT_TRUE(engine.RequestGeneralized({"bool0"}).ok());
  ASSERT_TRUE(engine.RequestGeneralized({"bool0", "bool1"}).ok());
  ASSERT_TRUE(engine.RequestAverageTarget("num1").ok());
  ASSERT_TRUE(engine.RequestRegionPair("num0", "num1").ok());

  engine.MineAllPairs();
  ASSERT_TRUE(engine.MineGeneralized("num0", {"bool0"}, "bool1").ok());
  ASSERT_TRUE(
      engine.MineGeneralized("num2", {"bool0", "bool1"}, "bool0").ok());
  ASSERT_TRUE(engine.MineMaximumAverageRange("num0", "num1", 0.1).ok());
  ASSERT_TRUE(engine.MineMaximumSupportRange("num2", "num1", 4e5).ok());
  ASSERT_TRUE(engine.MineOptimizedRegion("num0", "num1", "bool0").ok());
  ASSERT_TRUE(engine.MineOptimizedRegion("num0", "num1", "bool1").ok());
  const ThresholdSet sweep[] = {{0.01, 0.4}, {0.10, 0.6}};
  engine.MineAllPairs(sweep);

  EXPECT_EQ(engine.counting_scans(), 1);
  EXPECT_EQ(source.scans_started(), 2);  // planning + counting

  // A permuted spelling of a registered conjunction is the same condition
  // (the mask is order-independent); it must hit the cache, not rescan.
  ASSERT_TRUE(
      engine.MineGeneralized("num2", {"bool1", "bool0"}, "bool0").ok());
  EXPECT_EQ(engine.counting_scans(), 1);

  // A condition that was NOT pre-registered is still answerable, at the
  // documented price of one supplemental scan on first use.
  ASSERT_TRUE(engine.MineGeneralized("num1", {"bool1"}, "bool0").ok());
  EXPECT_EQ(engine.counting_scans(), 2);
  ASSERT_TRUE(engine.MineGeneralized("num0", {"bool1"}, "bool1").ok());
  EXPECT_EQ(engine.counting_scans(), 2);  // cached from here on

  // Same contract for a late region pair: one supplemental scan on first
  // use, then cached for every Boolean target.
  ASSERT_TRUE(engine.MineOptimizedRegion("num1", "num2", "bool0").ok());
  EXPECT_EQ(engine.counting_scans(), 3);
  ASSERT_TRUE(engine.MineOptimizedRegion("num1", "num2", "bool1").ok());
  EXPECT_EQ(engine.counting_scans(), 3);
}

TEST(MiningEngineTest, PooledEngineMatchesSerialForGeneralizedRules) {
  const storage::Relation relation = SmallRelation(30000, 25);
  MinerOptions options;
  options.num_buckets = 90;
  MiningEngine serial(&relation, options);
  ThreadPool pool(4);
  MiningEngine pooled(&relation, options, &pool);
  for (MiningEngine* engine : {&serial, &pooled}) {
    ASSERT_TRUE(engine->RequestGeneralized({"bool1"}).ok());
  }
  // Conditional count channels are integer state: the row-sharded
  // schedule must be bit-identical to serial.
  ExpectSameRuleResults(pooled.MineGeneralized("num1", {"bool1"}, "bool0"),
                        serial.MineGeneralized("num1", {"bool1"}, "bool0"));
  EXPECT_EQ(pooled.counting_scans(), 1);
}

// ------------------------------------------------ region (2-D) parity ----

void ExpectSameRegionRule(const region::RegionRule& a,
                          const region::RegionRule& b) {
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

void ExpectSameRegion(const Result<MinedRegion>& a_or,
                      const Result<MinedRegion>& b_or) {
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  const MinedRegion& a = a_or.value();
  const MinedRegion& b = b_or.value();
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(a.ny, b.ny);
  EXPECT_EQ(a.total_tuples, b.total_tuples);
  {
    SCOPED_TRACE("confidence rectangle");
    ExpectSameRegionRule(a.confidence_rectangle, b.confidence_rectangle);
  }
  {
    SCOPED_TRACE("support rectangle");
    ExpectSameRegionRule(a.support_rectangle, b.support_rectangle);
  }
  EXPECT_EQ(a.xmonotone_gain.found, b.xmonotone_gain.found);
  EXPECT_EQ(a.xmonotone_gain.x_begin, b.xmonotone_gain.x_begin);
  EXPECT_EQ(a.xmonotone_gain.column_ranges, b.xmonotone_gain.column_ranges);
  EXPECT_EQ(a.xmonotone_gain.support_count, b.xmonotone_gain.support_count);
  EXPECT_EQ(a.xmonotone_gain.hit_count, b.xmonotone_gain.hit_count);
  EXPECT_EQ(a.xmonotone_gain.support, b.xmonotone_gain.support);
  EXPECT_EQ(a.xmonotone_gain.confidence, b.xmonotone_gain.confidence);
  EXPECT_EQ(a.xmonotone_gain.gain, b.xmonotone_gain.gain);
}

TEST(MiningEngineTest, RegionsMatchLegacyOnBankAndRetail) {
  {
    datagen::BankConfig config;
    config.num_customers = 25000;
    Rng rng(33);
    const storage::Relation bank =
        datagen::GenerateBankCustomers(config, rng);
    MinerOptions options;
    options.num_buckets = 100;
    options.region_grid_buckets = 24;
    Miner legacy(&bank, options);
    MiningEngine engine(&bank, options);
    ExpectSameRegion(engine.MineOptimizedRegion("Age", "Balance", "CardLoan"),
                     legacy.MineOptimizedRegion("Age", "Balance", "CardLoan"));
    EXPECT_EQ(engine.counting_scans(), 1);
  }
  {
    datagen::RetailConfig config;
    config.num_transactions = 25000;
    Rng rng(34);
    const storage::Relation retail = datagen::GenerateRetail(config, rng);
    const storage::Schema& schema = retail.schema();
    MinerOptions options;
    options.num_buckets = 80;
    options.region_grid_buckets = 16;
    Miner legacy(&retail, options);
    MiningEngine engine(&retail, options);
    const std::string x = schema.NumericName(0);
    const std::string y = schema.NumericName(1);
    const std::string target = schema.BooleanName(0);
    ExpectSameRegion(engine.MineOptimizedRegion(x, y, target),
                     legacy.MineOptimizedRegion(x, y, target));
  }
}

TEST(MiningEngineTest, FileEngineRegionsMatchLegacyWithGk) {
  // Out-of-core 2-D mining: the disk-resident engine's grid channel must
  // reproduce the in-memory legacy BuildGrid path bit for bit, in both
  // paged read modes (GK boundaries keep the planning deterministic).
  datagen::BankConfig config;
  config.num_customers = 20000;
  Rng rng(35);
  const storage::Relation bank = datagen::GenerateBankCustomers(config, rng);
  const std::string path = testing::TempDir() + "/region_engine.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(bank, path).ok());

  MinerOptions options;
  options.num_buckets = 60;
  options.region_grid_buckets = 20;
  options.bucketizer = Bucketizer::kGkSketch;
  Miner legacy(&bank, options);
  const auto expected =
      legacy.MineOptimizedRegion("Age", "Balance", "CardLoan");

  for (const storage::PagedReadMode mode :
       {storage::PagedReadMode::kSynchronous,
        storage::PagedReadMode::kDoubleBuffered}) {
    auto source_or = storage::PagedFileBatchSource::Open(path, 512, mode);
    ASSERT_TRUE(source_or.ok());
    MiningEngine engine(source_or.value().get(), bank.schema(), options);
    ASSERT_TRUE(engine.RequestRegionPair("Age", "Balance").ok());
    ExpectSameRegion(engine.MineOptimizedRegion("Age", "Balance", "CardLoan"),
                     expected);
    // Any Boolean target of a registered pair answers from the cache.
    ASSERT_TRUE(
        engine.MineOptimizedRegion("Age", "Balance", "AutoWithdrawal").ok());
    EXPECT_EQ(engine.counting_scans(), 1);
  }
  std::remove(path.c_str());
}

TEST(MiningEngineTest, LateRegionPairOnUnplannedColumnMatchesLegacy) {
  // The region boundary set is planned only for registered axis columns.
  // A pair registered AFTER the scan that uses a brand-new column must
  // re-plan that set (supplemental scan) and still match the legacy path
  // bit for bit on both the old and the new pair.
  const storage::Relation relation = SmallRelation(15017, 38);
  MinerOptions options;
  options.num_buckets = 70;
  options.region_grid_buckets = 12;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  ASSERT_TRUE(engine.RequestRegionPair("num0", "num1").ok());
  ExpectSameRegion(engine.MineOptimizedRegion("num0", "num1", "bool0"),
                   legacy.MineOptimizedRegion("num0", "num1", "bool0"));
  EXPECT_EQ(engine.counting_scans(), 1);
  // num2 was outside the planned mask; the late pair re-plans + rescans.
  ExpectSameRegion(engine.MineOptimizedRegion("num2", "num0", "bool1"),
                   legacy.MineOptimizedRegion("num2", "num0", "bool1"));
  EXPECT_EQ(engine.counting_scans(), 2);
  // And the originally-planned pair still answers from the cache.
  ExpectSameRegion(engine.MineOptimizedRegion("num0", "num1", "bool1"),
                   legacy.MineOptimizedRegion("num0", "num1", "bool1"));
  EXPECT_EQ(engine.counting_scans(), 2);
}

TEST(MiningEngineTest, PooledRegionQueriesMatchSerialAcrossShardCounts) {
  // The grid channels of row-sharded partial plans must Merge
  // bit-identically to the serial scan, for 1/2/8-way pools.
  const storage::Relation relation = SmallRelation(30011, 36);
  MinerOptions options;
  options.num_buckets = 90;
  options.region_grid_buckets = 18;
  MiningEngine serial(&relation, options);
  ASSERT_TRUE(serial.RequestRegionPair("num0", "num2").ok());
  const auto expected = serial.MineOptimizedRegion("num0", "num2", "bool0");
  for (const int pool_size : {1, 2, 8}) {
    ThreadPool pool(pool_size);
    MiningEngine pooled(&relation, options, &pool);
    ASSERT_TRUE(pooled.RequestRegionPair("num0", "num2").ok());
    SCOPED_TRACE(pool_size);
    ExpectSameRegion(pooled.MineOptimizedRegion("num0", "num2", "bool0"),
                     expected);
    EXPECT_EQ(pooled.counting_scans(), 1);
  }
}

TEST(MiningEngineTest, AverageRangeBitIdenticalAcrossPoolSizes) {
  // Regression for the ROADMAP sums item: Neumaier-compensated per-bucket
  // sums over a pool-size-independent shard layout make aggregate mining
  // bit-identical at ANY pool size (1, 3, and 7 here) -- including the
  // mined average, which is a double.
  const storage::Relation relation = SmallRelation(50021, 37);
  MinerOptions options;
  options.num_buckets = 120;
  std::vector<Result<MinedAggregateRange>> results;
  for (const int pool_size : {1, 3, 7}) {
    ThreadPool pool(pool_size);
    MiningEngine engine(&relation, options, &pool);
    ASSERT_TRUE(engine.RequestAverageTarget("num1").ok());
    results.push_back(
        engine.MineMaximumAverageRange("num0", "num1", 0.05));
    ASSERT_TRUE(results.back().ok());
    ASSERT_TRUE(results.back().value().found);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(i);
    const MinedAggregateRange& a = results[0].value();
    const MinedAggregateRange& b = results[i].value();
    EXPECT_EQ(a.range_lo, b.range_lo);
    EXPECT_EQ(a.range_hi, b.range_hi);
    EXPECT_EQ(a.support_count, b.support_count);
    EXPECT_EQ(a.support, b.support);
    EXPECT_EQ(a.average, b.average);  // exact double equality
  }
}

// ---------------------------------------- NaN-laden end-to-end parity ----

storage::Relation RelationWithNans(int64_t rows, uint64_t seed) {
  storage::Relation relation = SmallRelation(rows, seed);
  // Deterministically poke NaNs into every numeric column, including long
  // stretches in column 0 so whole buckets go empty.
  const double nan = std::nan("");
  for (int a = 0; a < relation.schema().num_numeric(); ++a) {
    std::vector<double>& column = relation.MutableNumericColumn(a);
    for (size_t row = static_cast<size_t>(a); row < column.size();
         row += 7 + static_cast<size_t>(a) * 3) {
      column[row] = nan;
    }
  }
  return relation;
}

TEST(MiningEngineTest, NanLadenRelationMatchesLegacyAcrossAllQueryKinds) {
  const storage::Relation relation = RelationWithNans(20011, 26);
  MinerOptions options;
  options.num_buckets = 110;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  ExpectSameRules(engine.MineAllPairs(), legacy.MineAll());
  ExpectSameRuleResults(engine.MineGeneralized("num0", {"bool0"}, "bool1"),
                        legacy.MineGeneralized("num0", {"bool0"}, "bool1"));
  ExpectSameAggregate(engine.MineMaximumAverageRange("num1", "num2", 0.1),
                      legacy.MineMaximumAverageRange("num1", "num2", 0.1));
  ExpectSameAggregate(engine.MineMaximumSupportRange("num2", "num0", 4e5),
                      legacy.MineMaximumSupportRange("num2", "num0", 4e5));
}

TEST(MiningEngineTest, NanLadenPagedFileMatchesLegacyWithGk) {
  // NaN doubles round-trip through the fixed-width file format, and the
  // disk-resident engine must reproduce the in-memory legacy miner bit
  // for bit (GK boundaries are deterministic and insertion-order equal
  // between the column and batch paths).
  const storage::Relation relation = RelationWithNans(9001, 27);
  const std::string path = testing::TempDir() + "/nan_engine.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
  auto source_or = storage::PagedFileBatchSource::Open(path, 512);
  ASSERT_TRUE(source_or.ok());
  MinerOptions options;
  options.num_buckets = 60;
  options.bucketizer = Bucketizer::kGkSketch;
  Miner legacy(&relation, options);
  MiningEngine engine(source_or.value().get(), relation.schema(), options);
  ASSERT_TRUE(engine.RequestGeneralized({"bool1"}).ok());
  ASSERT_TRUE(engine.RequestAverageTarget("num1").ok());
  ExpectSameRules(engine.MineAllPairs(), legacy.MineAll());
  ExpectSameRuleResults(engine.MineGeneralized("num2", {"bool1"}, "bool0"),
                        legacy.MineGeneralized("num2", {"bool1"}, "bool0"));
  ExpectSameAggregate(engine.MineMaximumAverageRange("num0", "num1", 0.15),
                      legacy.MineMaximumAverageRange("num0", "num1", 0.15));
  EXPECT_EQ(engine.counting_scans(), 1);
  std::remove(path.c_str());
}

TEST(MiningEngineTest, DoubleBufferedFileEngineMatchesSynchronousEverywhere) {
  // The async prefetch reader must be invisible to every query kind: two
  // engines over the same file, one per read mode, answer all-pairs,
  // generalized, aggregate, and threshold-sweep queries bit-identically
  // (GK boundaries keep the planning deterministic).
  const storage::Relation relation = RelationWithNans(12007, 31);
  const std::string path = testing::TempDir() + "/double_buffer_engine.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
  auto sync_or = storage::PagedFileBatchSource::Open(
      path, 512, storage::PagedReadMode::kSynchronous);
  auto buffered_or = storage::PagedFileBatchSource::Open(
      path, 512, storage::PagedReadMode::kDoubleBuffered);
  ASSERT_TRUE(sync_or.ok());
  ASSERT_TRUE(buffered_or.ok());

  MinerOptions options;
  options.num_buckets = 70;
  options.bucketizer = Bucketizer::kGkSketch;
  MiningEngine sync_engine(sync_or.value().get(), relation.schema(),
                           options);
  MiningEngine buffered_engine(buffered_or.value().get(), relation.schema(),
                               options);
  for (MiningEngine* engine : {&sync_engine, &buffered_engine}) {
    ASSERT_TRUE(engine->RequestGeneralized({"bool0"}).ok());
    ASSERT_TRUE(engine->RequestAverageTarget("num2").ok());
  }
  ExpectSameRules(buffered_engine.MineAllPairs(), sync_engine.MineAllPairs());
  ExpectSameRuleResults(
      buffered_engine.MineGeneralized("num1", {"bool0"}, "bool1"),
      sync_engine.MineGeneralized("num1", {"bool0"}, "bool1"));
  ExpectSameAggregate(
      buffered_engine.MineMaximumAverageRange("num0", "num2", 0.1),
      sync_engine.MineMaximumAverageRange("num0", "num2", 0.1));
  ExpectSameAggregate(
      buffered_engine.MineMaximumSupportRange("num1", "num2", 4e5),
      sync_engine.MineMaximumSupportRange("num1", "num2", 4e5));
  const ThresholdSet sweep[] = {{0.02, 0.3}, {0.15, 0.7}};
  ExpectSameRules(buffered_engine.MineAllPairs(sweep),
                  sync_engine.MineAllPairs(sweep));
  EXPECT_EQ(buffered_engine.counting_scans(), 1);
  EXPECT_EQ(sync_engine.counting_scans(), 1);
  std::remove(path.c_str());
}

TEST(MiningEngineTest, PooledDoubleBufferedFileEngineMatchesSerialSync) {
  // Row-sharded scans over prefetching range readers (one prefetch thread
  // per shard) must still merge to the serial synchronous answer.
  const storage::Relation relation = RelationWithNans(15013, 32);
  const std::string path = testing::TempDir() + "/double_buffer_pooled.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
  auto sync_or = storage::PagedFileBatchSource::Open(
      path, 256, storage::PagedReadMode::kSynchronous);
  auto buffered_or = storage::PagedFileBatchSource::Open(
      path, 256, storage::PagedReadMode::kDoubleBuffered);
  ASSERT_TRUE(sync_or.ok());
  ASSERT_TRUE(buffered_or.ok());
  MinerOptions options;
  options.num_buckets = 50;
  options.bucketizer = Bucketizer::kGkSketch;
  MiningEngine serial(sync_or.value().get(), relation.schema(), options);
  ThreadPool pool(4);
  MiningEngine pooled(buffered_or.value().get(), relation.schema(), options,
                      &pool);
  ExpectSameRules(pooled.MineAllPairs(), serial.MineAllPairs());
  EXPECT_EQ(pooled.counting_scans(), 1);
  std::remove(path.c_str());
}

// ------------------------------ sampled planning across storage layouts ----

/// A full mixed session -- all-pairs and a threshold sweep, generalized,
/// both aggregate kinds, a region pair, then a late region pair that
/// re-plans its boundary set -- under the default sampling bucketizer,
/// checked bit for bit against an in-memory engine and the legacy Miner
/// over `relation`. The engine draws the in-memory path's sample, so its
/// row layout must not leak into a single bit.
void ExpectSamplingSessionMatches(const storage::Relation& relation,
                                  const MinerOptions& options,
                                  MiningEngine* engine) {
  ASSERT_EQ(options.bucketizer, Bucketizer::kSampling);
  Miner legacy(&relation, options);
  MiningEngine memory(&relation, options);
  for (MiningEngine* e : {engine, &memory}) {
    ASSERT_TRUE(e->RequestGeneralized({"bool0"}).ok());
    ASSERT_TRUE(e->RequestAverageTarget("num2").ok());
    ASSERT_TRUE(e->RequestRegionPair("num0", "num1").ok());
  }
  ExpectSameRules(engine->MineAllPairs(), legacy.MineAll());
  const ThresholdSet sweep[] = {{0.02, 0.3}, {0.15, 0.7}};
  ExpectSameRules(engine->MineAllPairs(sweep), memory.MineAllPairs(sweep));
  ExpectSameRuleResults(engine->MineGeneralized("num1", {"bool0"}, "bool1"),
                        legacy.MineGeneralized("num1", {"bool0"}, "bool1"));
  ExpectSameAggregate(engine->MineMaximumAverageRange("num0", "num2", 0.1),
                      legacy.MineMaximumAverageRange("num0", "num2", 0.1));
  ExpectSameAggregate(engine->MineMaximumSupportRange("num1", "num2", 4e5),
                      legacy.MineMaximumSupportRange("num1", "num2", 4e5));
  ExpectSameRegion(engine->MineOptimizedRegion("num0", "num1", "bool1"),
                   legacy.MineOptimizedRegion("num0", "num1", "bool1"));
  EXPECT_EQ(engine->counting_scans(), 1);
  ExpectSameRegion(engine->MineOptimizedRegion("num2", "num0", "bool0"),
                   legacy.MineOptimizedRegion("num2", "num0", "bool0"));
  EXPECT_EQ(engine->counting_scans(), 2);
}

TEST(SampledPlanningTest, PagedEnginesMatchInMemoryAndLegacy) {
  const storage::Relation relation = RelationWithNans(6007, 81);
  MinerOptions options;
  options.num_buckets = 40;
  options.region_grid_buckets = 8;
  struct Layout {
    const char* name;
    storage::PagedFileWriterOptions writer;
  };
  std::vector<Layout> layouts(3);
  layouts[0].name = "v2";
  layouts[0].writer.rows_per_page = 256;
  layouts[1].name = "v2 without zone maps";
  layouts[1].writer.rows_per_page = 256;
  layouts[1].writer.zone_maps = false;
  layouts[2].name = "v1";
  layouts[2].writer.format = storage::PagedFileFormat::kRowMajorV1;
  for (const Layout& layout : layouts) {
    const std::string path = testing::TempDir() + "/sampled_planning.optr";
    ASSERT_TRUE(
        storage::WriteRelationToFile(relation, path, layout.writer).ok());
    const Result<storage::PagedFileInfo> info =
        storage::ReadPagedFileInfo(path);
    ASSERT_TRUE(info.ok());
    const size_t page_bytes = storage::ScanGeometry(info.value()).page_stride();
    for (const size_t capacity :
         {size_t{0}, 2 * page_bytes, storage::kDefaultBufferPoolBytes}) {
      SCOPED_TRACE(std::string(layout.name) + ", pool of " +
                   std::to_string(capacity) + " bytes");
      storage::BufferPool pool(capacity);
      auto source = storage::PagedFileBatchSource::Open(
          path, 300, storage::PagedReadMode::kDoubleBuffered, &pool);
      ASSERT_TRUE(source.ok());
      MiningEngine engine(source.value().get(), relation.schema(), options);
      ExpectSamplingSessionMatches(relation, options, &engine);
    }
    std::remove(path.c_str());
  }
}

/// A source whose readers end `missing` rows short of NumTuples(), as a
/// table that lost its tail mid-session would; `missing` may change
/// between scans.
class ShortReadSource : public storage::BatchSource {
 public:
  explicit ShortReadSource(const storage::Relation* relation)
      : inner_(relation, 256) {}

  int num_numeric() const override { return inner_.num_numeric(); }
  int num_boolean() const override { return inner_.num_boolean(); }
  int64_t NumTuples() const override { return inner_.NumTuples(); }
  void set_missing(int64_t missing) { missing_ = missing; }

 protected:
  std::unique_ptr<storage::BatchReader> DoCreateReader() override {
    return inner_.CreateRangeReader(0, inner_.NumTuples() - missing_);
  }

 private:
  storage::RelationBatchSource inner_;
  int64_t missing_ = 0;
};

TEST(MultiCountTest, PooledScanWithoutRangeReadersIsSerial) {
  // A source without range readers cannot be row-sharded, so a pooled
  // ExecuteMultiCount scans it serially with one reader: 1-D counts, sum
  // chains and grid cells come out bit-identical to the nullptr-pool scan
  // of the same rows, in exactly one scan.
  const storage::Relation relation = SmallRelation(8009, 6);
  const BucketBoundaries bx = BucketBoundaries::FromCutPoints({2.5e5, 7.5e5});
  const BucketBoundaries by = BucketBoundaries::FromCutPoints({5e5});
  const auto make_spec = [&] {
    bucketing::MultiCountSpec spec;
    spec.num_targets = 2;
    for (int a = 0; a < 3; ++a) {
      bucketing::CountChannel channel;
      channel.column = a;
      channel.boundaries = &bx;
      if (a == 0) channel.sum_targets = {1, 2};
      spec.channels.push_back(channel);
    }
    bucketing::GridChannel grid;
    grid.x_column = 0;
    grid.x_boundaries = &bx;
    grid.y_column = 1;
    grid.y_boundaries = &by;
    spec.grid_channels.push_back(grid);
    return spec;
  };

  storage::RelationBatchSource serial_source(&relation, 256);
  MultiCountPlan serial(make_spec());
  bucketing::ExecuteMultiCount(serial_source, &serial, nullptr);

  ShortReadSource source(&relation);  // 256-row batches, nothing missing
  ASSERT_FALSE(source.SupportsRangeReaders());
  ThreadPool pool(4);
  MultiCountPlan pooled(make_spec());
  bucketing::ExecuteMultiCount(source, &pooled, &pool);
  EXPECT_EQ(source.scans_started(), 1);
  for (int a = 0; a < 3; ++a) {
    EXPECT_EQ(pooled.counts(a).u, serial.counts(a).u);
    EXPECT_EQ(pooled.counts(a).v, serial.counts(a).v);
    EXPECT_EQ(pooled.counts(a).total_tuples, serial.counts(a).total_tuples);
  }
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(pooled.MakeBucketSums(0, k).sum, serial.MakeBucketSums(0, k).sum);
  }
  EXPECT_EQ(pooled.grid_counts(0).u, serial.grid_counts(0).u);
  EXPECT_EQ(pooled.grid_counts(0).v, serial.grid_counts(0).v);
  EXPECT_EQ(pooled.grid_counts(0).total_tuples,
            serial.grid_counts(0).total_tuples);
}

TEST(SampledPlanningTest, ShortReadsAreCorruptionNotAbort) {
  const storage::Relation relation = SmallRelation(4000, 82);
  MinerOptions options;
  options.num_buckets = 30;
  options.region_grid_buckets = 6;
  ShortReadSource source(&relation);
  source.set_missing(1000);
  MiningEngine engine(&source, relation.schema(), options);
  const Status failed = engine.TryPrepare();
  EXPECT_EQ(failed.code(), StatusCode::kCorruption) << failed.ToString();
  EXPECT_EQ(engine.counting_scans(), 0);

  // The session stays retryable: once reads are whole again it prepares
  // and matches the in-memory engine.
  source.set_missing(0);
  ASSERT_TRUE(engine.TryPrepare().ok());
  MiningEngine memory(&relation, options);
  ExpectSameRules(engine.MineAllPairs(), memory.MineAllPairs());

  // A late region pair at a bucket count with no boundary set yet (6 !=
  // num_buckets) needs a planning pass, which fails the same way and rolls
  // the registration back; the retry re-plans and re-scans.
  source.set_missing(1);
  EXPECT_EQ(engine.RequestRegionPair("num0", "num2").code(),
            StatusCode::kCorruption);
  EXPECT_EQ(engine.counting_scans(), 1);
  source.set_missing(0);
  ASSERT_TRUE(engine.RequestRegionPair("num0", "num2").ok());
  EXPECT_EQ(engine.counting_scans(), 2);
  ExpectSameRegion(engine.MineOptimizedRegion("num0", "num2", "bool0"),
                   memory.MineOptimizedRegion("num0", "num2", "bool0"));
  // Late generalized and aggregate registrations bucket through the base
  // set, so they plan nothing and cost only their supplemental scans.
  ExpectSameRuleResults(engine.MineGeneralized("num1", {"bool1"}, "bool0"),
                        memory.MineGeneralized("num1", {"bool1"}, "bool0"));
  ExpectSameAggregate(engine.MineMaximumAverageRange("num0", "num1", 0.1),
                      memory.MineMaximumAverageRange("num0", "num1", 0.1));
  EXPECT_EQ(engine.counting_scans(), 4);
}

// The Result-returning mining calls prepare through TryPrepare, so a
// failed planning pass comes back as Corruption even when the call is the
// session's first -- no abort -- and the session stays retryable.
TEST(SampledPlanningTest, FirstMiningCallReturnsCorruptionNotAbort) {
  const storage::Relation relation = SmallRelation(4000, 84);
  MinerOptions options;
  options.num_buckets = 30;
  options.region_grid_buckets = 6;
  ShortReadSource source(&relation);
  source.set_missing(1000);
  const std::vector<std::function<Status(MiningEngine&)>> calls = {
      [](MiningEngine& e) { return e.MinePair("num0", "bool0").status(); },
      [](MiningEngine& e) {
        return e.MineGeneralized("num1", {"bool1"}, "bool0").status();
      },
      [](MiningEngine& e) {
        return e.MineMaximumAverageRange("num0", "num1", 0.1).status();
      },
      [](MiningEngine& e) {
        return e.MineMaximumSupportRange("num0", "num1", 4e5).status();
      },
      [](MiningEngine& e) {
        return e.MineOptimizedRegion("num0", "num2", "bool0").status();
      },
  };
  MiningEngine memory(&relation, options);
  for (size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE(i);
    source.set_missing(1000);
    MiningEngine engine(&source, relation.schema(), options);
    const Status failed = calls[i](engine);
    EXPECT_EQ(failed.code(), StatusCode::kCorruption) << failed.ToString();
    EXPECT_EQ(engine.counting_scans(), 0);
    source.set_missing(0);
    EXPECT_TRUE(calls[i](engine).ok());
    EXPECT_EQ(engine.counting_scans(), 1);
  }
  source.set_missing(0);
  MiningEngine engine(&source, relation.schema(), options);
  ExpectSameRuleResults(engine.MinePair("num2", "bool1"),
                        memory.MinePair("num2", "bool1"));
}

// Every rule kind at num_buckets shares the base boundary set, so a late
// generalized or aggregate registration costs its counting scan and no
// planning pass -- and answers exactly like an up-front registration and
// the legacy Miner.
TEST(SampledPlanningTest, LateGeneralizedAndAverageAddNoPlanningPass) {
  const storage::Relation relation = SmallRelation(6000, 83);
  MinerOptions options;
  options.num_buckets = 40;
  obs::Counter* passes =
      obs::MetricsRegistry::Default().GetCounter("engine.planning_passes");
  storage::RelationBatchSource source(&relation, 512);
  MiningEngine late(&source, relation.schema(), options);
  ASSERT_TRUE(late.TryPrepare().ok());
  const int64_t planned = passes->Value();
  EXPECT_EQ(late.counting_scans(), 1);

  ASSERT_TRUE(late.RequestGeneralized({"bool1"}).ok());
  EXPECT_EQ(passes->Value(), planned);
  EXPECT_EQ(late.counting_scans(), 2);
  ASSERT_TRUE(late.RequestAverageTarget("num2").ok());
  EXPECT_EQ(passes->Value(), planned);
  EXPECT_EQ(late.counting_scans(), 3);

  MiningEngine early(&relation, options);
  ASSERT_TRUE(early.RequestGeneralized({"bool1"}).ok());
  ASSERT_TRUE(early.RequestAverageTarget("num2").ok());
  Miner legacy(&relation, options);
  for (const char* attr : {"num0", "num1", "num2"}) {
    SCOPED_TRACE(attr);
    ExpectSameRuleResults(late.MineGeneralized(attr, {"bool1"}, "bool0"),
                          early.MineGeneralized(attr, {"bool1"}, "bool0"));
    ExpectSameRuleResults(late.MineGeneralized(attr, {"bool1"}, "bool0"),
                          legacy.MineGeneralized(attr, {"bool1"}, "bool0"));
    ExpectSameAggregate(late.MineMaximumAverageRange(attr, "num2", 0.1),
                        early.MineMaximumAverageRange(attr, "num2", 0.1));
    ExpectSameAggregate(late.MineMaximumAverageRange(attr, "num2", 0.1),
                        legacy.MineMaximumAverageRange(attr, "num2", 0.1));
  }
  EXPECT_EQ(early.counting_scans(), 1);
  EXPECT_EQ(late.counting_scans(), 3);
}

// A region axis bucketed at num_buckets IS the base set: registering the
// pair up front plans nothing beyond the base sample (one S per attribute
// at M), and a late pair at that count costs only its counting scan.
TEST(SampledPlanningTest, RegionPairAtBaseCountReusesBaseCutPoints) {
  const storage::Relation relation = SmallRelation(6000, 84);
  MinerOptions options;
  options.num_buckets = 16;
  options.region_grid_buckets = 16;
  obs::Counter* passes =
      obs::MetricsRegistry::Default().GetCounter("engine.planning_passes");
  storage::RelationBatchSource source(&relation, 512);

  MiningEngine plain(&source, relation.schema(), options);
  const int64_t before = passes->Value();
  ASSERT_TRUE(plain.TryPrepare().ok());
  EXPECT_EQ(passes->Value(), before + 1);
  ASSERT_TRUE(plain.RequestRegionPair("num0", "num1").ok());
  EXPECT_EQ(passes->Value(), before + 1);
  EXPECT_EQ(plain.counting_scans(), 2);

  MiningEngine early(&relation, options);
  ASSERT_TRUE(early.RequestRegionPair("num0", "num1").ok());
  ASSERT_TRUE(early.TryPrepare().ok());
  EXPECT_EQ(passes->Value(), before + 2);
  EXPECT_EQ(early.counting_scans(), 1);

  // Same cut points on every path: the grid rows (and so every region
  // answer) agree with the base-set engine, the up-front engine, and the
  // legacy Miner's per-axis bucketing at this count.
  Miner legacy(&relation, options);
  for (const char* target : {"bool0", "bool1"}) {
    SCOPED_TRACE(target);
    ExpectSameRegion(plain.MineOptimizedRegion("num0", "num1", target),
                     early.MineOptimizedRegion("num0", "num1", target));
    ExpectSameRegion(plain.MineOptimizedRegion("num0", "num1", target),
                     legacy.MineOptimizedRegion("num0", "num1", target));
  }
  ExpectSameRules(plain.MineAllPairs(), early.MineAllPairs());
}

// A base channel that carries sum targets hands out u/min/max to BOTH its
// counts and its sums, whichever is taken first.
TEST(MultiCountTest, TakeBucketSumsAndTakeCountsKeepBothResults) {
  const storage::Relation relation = RelationWithNans(3000, 85);
  bucketing::BoundaryPlan boundary_plan;
  boundary_plan.num_buckets = 50;
  const BucketBoundaries boundaries = bucketing::BuildBoundaries(
      relation.NumericColumn(0), boundary_plan, 0);
  const auto make_spec = [&boundaries] {
    bucketing::MultiCountSpec spec;
    spec.num_targets = 2;
    bucketing::CountChannel channel;
    channel.column = 0;
    channel.boundaries = &boundaries;
    channel.sum_targets = {1, 2};
    spec.channels.push_back(std::move(channel));
    return spec;
  };
  for (const bool sums_first : {true, false}) {
    SCOPED_TRACE(sums_first);
    MultiCountPlan plan(make_spec());
    storage::RelationBatchSource source(&relation, 700);
    bucketing::ExecuteMultiCount(source, &plan, nullptr);
    const BucketCounts counts = plan.counts(0);
    const bucketing::BucketSums sums[] = {plan.MakeBucketSums(0, 0),
                                          plan.MakeBucketSums(0, 1)};
    BucketCounts taken_counts;
    std::vector<bucketing::BucketSums> taken_sums;
    if (!sums_first) taken_counts = plan.TakeCounts(0);
    taken_sums.push_back(plan.TakeBucketSums(0, 0));
    taken_sums.push_back(plan.TakeBucketSums(0, 1));
    if (sums_first) taken_counts = plan.TakeCounts(0);
    EXPECT_EQ(taken_counts.u, counts.u);
    EXPECT_EQ(taken_counts.v, counts.v);
    EXPECT_EQ(taken_counts.total_tuples, counts.total_tuples);
    ASSERT_EQ(taken_counts.min_value.size(), counts.min_value.size());
    for (size_t b = 0; b < counts.min_value.size(); ++b) {
      ExpectSameDouble(taken_counts.min_value[b], counts.min_value[b]);
      ExpectSameDouble(taken_counts.max_value[b], counts.max_value[b]);
    }
    for (size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(taken_sums[k].u, counts.u);
      EXPECT_EQ(taken_sums[k].u, sums[k].u);
      ASSERT_EQ(taken_sums[k].sum.size(), sums[k].sum.size());
      for (size_t b = 0; b < sums[k].sum.size(); ++b) {
        ExpectSameDouble(taken_sums[k].sum[b], sums[k].sum[b]);
        ExpectSameDouble(taken_sums[k].min_value[b], counts.min_value[b]);
        ExpectSameDouble(taken_sums[k].max_value[b], counts.max_value[b]);
      }
    }
  }
}

// ----------------------------------------------- wide-schema coverage ----

TEST(WideSchemaTest, PagedFileRoundTripsSixHundredNumericAttributes) {
  // 600 numeric attributes = 4800 row bytes, beyond the 4096-byte staging
  // array AppendRow used to CHECK-crash on.
  const int kNumeric = 600;
  const int kBoolean = 5;
  const int64_t kRows = 64;
  const storage::Schema schema =
      storage::Schema::Synthetic(kNumeric, kBoolean);
  const std::string path = testing::TempDir() + "/wide_schema.optr";
  auto writer_or = storage::PagedFileWriter::Create(path, kNumeric, kBoolean);
  ASSERT_TRUE(writer_or.ok());
  storage::PagedFileWriter writer = std::move(writer_or).value();
  std::vector<double> numeric(static_cast<size_t>(kNumeric));
  std::vector<uint8_t> boolean(static_cast<size_t>(kBoolean));
  for (int64_t row = 0; row < kRows; ++row) {
    for (int a = 0; a < kNumeric; ++a) {
      numeric[static_cast<size_t>(a)] =
          static_cast<double>(row) * 1000.0 + a;
    }
    for (int b = 0; b < kBoolean; ++b) {
      boolean[static_cast<size_t>(b)] =
          static_cast<uint8_t>((row + b) % 2);
    }
    ASSERT_TRUE(writer.AppendRow(numeric, boolean).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  auto read_or = storage::ReadRelationFromFile(path, schema);
  ASSERT_TRUE(read_or.ok());
  const storage::Relation& read = read_or.value();
  ASSERT_EQ(read.NumRows(), kRows);
  for (int64_t row = 0; row < kRows; row += 17) {
    for (int a = 0; a < kNumeric; a += 101) {
      EXPECT_EQ(read.NumericValue(row, a),
                static_cast<double>(row) * 1000.0 + a);
    }
    for (int b = 0; b < kBoolean; ++b) {
      EXPECT_EQ(read.BooleanValue(row, b), (row + b) % 2 != 0);
    }
  }
  std::remove(path.c_str());
}

TEST(WideSchemaTest, WideEngineOverPagedFileMatchesLegacy) {
  datagen::TableConfig config;
  config.num_rows = 400;
  config.num_numeric = 600;
  config.num_boolean = 2;
  Rng rng(28);
  const storage::Relation relation = datagen::GenerateTable(config, rng);
  const std::string path = testing::TempDir() + "/wide_engine.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, path).ok());
  auto source_or = storage::PagedFileBatchSource::Open(path);
  ASSERT_TRUE(source_or.ok());

  MinerOptions options;
  options.num_buckets = 8;
  options.sample_per_bucket = 4;
  options.bucketizer = Bucketizer::kGkSketch;
  Miner legacy(&relation, options);
  MiningEngine engine(source_or.value().get(), relation.schema(), options);
  ExpectSameRules(engine.MineAllPairs(), legacy.MineAll());
  EXPECT_EQ(engine.counting_scans(), 1);
  std::remove(path.c_str());
}

// -------------------- rectangular grids + hull context caching ----------

TEST(MiningEngineTest, RectangularRegionGridsMatchLegacy) {
  const storage::Relation relation = SmallRelation(20000, 71);
  MinerOptions options;
  options.num_buckets = 60;
  options.region_grid_buckets = 10;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  // Mixed shapes in ONE session: a wide grid, a tall grid whose x axis
  // shares a bucket count with the wide grid's y axis (they must share a
  // region boundary set), and the square default -- all from one scan.
  ASSERT_TRUE(engine.RequestRegionPair("num0", "num1", 24, 6).ok());
  ASSERT_TRUE(engine.RequestRegionPair("num1", "num2", 6, 18).ok());
  ASSERT_TRUE(engine.RequestRegionPair("num0", "num2").ok());
  const auto wide = engine.MineOptimizedRegion("num0", "num1", "bool0");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide.value().nx, 24);
  EXPECT_EQ(wide.value().ny, 6);
  ExpectSameRegion(
      wide, legacy.MineOptimizedRegion("num0", "num1", "bool0", 24, 6));
  ExpectSameRegion(
      engine.MineOptimizedRegion("num1", "num2", "bool1"),
      legacy.MineOptimizedRegion("num1", "num2", "bool1", 6, 18));
  ExpectSameRegion(engine.MineOptimizedRegion("num0", "num2", "bool0"),
                   legacy.MineOptimizedRegion("num0", "num2", "bool0"));
  // The 1-D sweep rides the same scan, unaffected by the grid shapes.
  ExpectSameRules(engine.MineAllPairs(), legacy.MineAll());
  EXPECT_EQ(engine.counting_scans(), 1);
  // Degenerate shapes are rejected, not CHECK-crashed.
  EXPECT_FALSE(engine.RequestRegionPair("num0", "num1", 0, 4).ok());
}

TEST(MiningEngineTest, LateRectangularPairCostsOneSupplementalScan) {
  const storage::Relation relation = SmallRelation(12000, 72);
  MinerOptions options;
  options.num_buckets = 50;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  engine.MineAllPairs();
  EXPECT_EQ(engine.counting_scans(), 1);
  // A late rectangular pair plans its two fresh bucket counts and costs
  // the documented one supplemental scan.
  ASSERT_TRUE(engine.RequestRegionPair("num1", "num0", 5, 9).ok());
  EXPECT_EQ(engine.counting_scans(), 2);
  ExpectSameRegion(engine.MineOptimizedRegion("num1", "num0", "bool1"),
                   legacy.MineOptimizedRegion("num1", "num0", "bool1", 5, 9));
  EXPECT_EQ(engine.counting_scans(), 2);
}

TEST(MiningEngineTest, RepeatedAggregateQueriesReuseHullContext) {
  const storage::Relation relation = SmallRelation(20000, 73);
  MinerOptions options;
  options.num_buckets = 120;
  Miner legacy(&relation, options);
  MiningEngine engine(&relation, options);
  ASSERT_TRUE(engine.RequestAverageTarget("num1").ok());
  // A threshold sweep over ONE (range, target) pair builds the hull
  // context once and stays bit-identical to the per-call legacy miner.
  for (const double min_support : {0.02, 0.1, 0.25, 0.6}) {
    ExpectSameAggregate(
        engine.MineMaximumAverageRange("num0", "num1", min_support),
        legacy.MineMaximumAverageRange("num0", "num1", min_support));
  }
  EXPECT_EQ(engine.hull_contexts_built(), 1);
  // A different range attribute is a different context.
  ExpectSameAggregate(engine.MineMaximumAverageRange("num2", "num1", 0.1),
                      legacy.MineMaximumAverageRange("num2", "num1", 0.1));
  EXPECT_EQ(engine.hull_contexts_built(), 2);
  // Support-range queries reuse the cached sums; the effective-index scan
  // has no threshold-independent structure, so no context is built.
  ExpectSameAggregate(
      engine.MineMaximumSupportRange("num0", "num1", 4.5e5),
      legacy.MineMaximumSupportRange("num0", "num1", 4.5e5));
  EXPECT_EQ(engine.hull_contexts_built(), 2);
  EXPECT_EQ(engine.counting_scans(), 1);
}

// Thresholds act only in the O(M) optimizers, so the ThresholdSet forms
// of MinePair / MineGeneralized / MineOptimizedRegion on ONE prepared
// engine must equal a fresh engine constructed at those thresholds, bit
// for bit, while the shared engine never scans again.
TEST(MiningEngineTest, ThresholdSetFormsEqualFreshEnginesAtThoseThresholds) {
  const storage::Relation relation = RelationWithNans(6000, 81);
  const ThresholdSet sets[] = {
      {0.0, 0.0}, {0.02, 0.3}, {0.05, 0.5}, {0.3, 0.9}, {1.0, 1.0}};
  for (const int m : {1, 3, 1000}) {
    SCOPED_TRACE(m);
    MinerOptions options;
    options.num_buckets = m;
    options.region_grid_buckets = std::min(m, 6);
    MiningEngine shared(&relation, options);
    ASSERT_TRUE(shared.RequestGeneralized({"bool0"}).ok());
    ASSERT_TRUE(shared.RequestRegionPair("num0", "num1").ok());
    ASSERT_TRUE(shared.TryPrepare().ok());
    for (const ThresholdSet& thresholds : sets) {
      SCOPED_TRACE(thresholds.min_support);
      MinerOptions fresh_options = options;
      fresh_options.min_support = thresholds.min_support;
      fresh_options.min_confidence = thresholds.min_confidence;
      MiningEngine fresh(&relation, fresh_options);
      ExpectSameRuleResults(shared.MinePair("num0", "bool1", thresholds),
                            fresh.MinePair("num0", "bool1"));
      ExpectSameRuleResults(shared.MinePair("num2", "bool0", thresholds),
                            fresh.MinePair("num2", "bool0"));
      ExpectSameRuleResults(
          shared.MineGeneralized("num1", {"bool0"}, "bool1", thresholds),
          fresh.MineGeneralized("num1", {"bool0"}, "bool1"));
      for (const char* target : {"bool0", "bool1"}) {
        ExpectSameRegion(
            shared.MineOptimizedRegion("num0", "num1", target, thresholds),
            fresh.MineOptimizedRegion("num0", "num1", target));
      }
    }
    // The no-threshold forms answer at the engine's own options.
    ExpectSameRuleResults(shared.MinePair("num0", "bool1"),
                          shared.MinePair("num0", "bool1",
                                          ThresholdsOf(options)));
    EXPECT_EQ(shared.counting_scans(), 1);
  }
}

TEST(MiningEngineTest, OutOfRangeThresholdsAreInvalidArgumentNotAbort) {
  const storage::Relation relation = SmallRelation(2000, 83);
  MinerOptions options;
  options.num_buckets = 20;
  MiningEngine engine(&relation, options);
  Miner legacy(&relation, options);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const ThresholdSet& bad : {ThresholdSet{1.5, 0.5},
                                  ThresholdSet{-0.1, 0.5},
                                  ThresholdSet{0.05, 1.5},
                                  ThresholdSet{0.05, -0.1},
                                  ThresholdSet{nan, 0.5},
                                  ThresholdSet{0.05, nan}}) {
    EXPECT_EQ(ValidateThresholds(bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.MinePair("num0", "bool0", bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        engine.MineGeneralized("num0", {"bool0"}, "bool1", bad).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.MineOptimizedRegion("num0", "num1", "bool0", bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  for (const double bad : {1.5, -0.1, nan}) {
    EXPECT_EQ(engine.MineMaximumAverageRange("num0", "num1", bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(legacy.MineMaximumAverageRange("num0", "num1", bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_EQ(engine.MineMaximumSupportRange("num0", "num1", bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(legacy.MineMaximumSupportRange("num0", "num1", bad)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // Rejected before any planning or scan.
  EXPECT_EQ(engine.counting_scans(), 0);
  EXPECT_TRUE(ValidateThresholds({0.0, 1.0}).ok());
}

}  // namespace
}  // namespace optrules::rules
