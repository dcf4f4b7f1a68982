// End-to-end pipeline tests crossing module boundaries that the per-module
// suites don't: CSV -> Miner, PagedFile -> batch bucketizer -> rules,
// report generation from a full sweep, and failure injection on truncated
// files.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "bucketing/counting.h"
#include "bucketing/equidepth_sampler.h"
#include "bucketing/parallel_count.h"
#include "bucketing/sort_bucketizer.h"
#include "common/ratio.h"
#include "datagen/table_generator.h"
#include "report/report.h"
#include "rules/miner.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/csv.h"
#include "storage/paged_file.h"

namespace optrules {
namespace {

datagen::TableConfig PlantedConfig(int64_t rows) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 2;
  config.num_boolean = 2;
  datagen::PlantedRule rule;
  rule.numeric_attr = 0;
  rule.boolean_attr = 0;
  rule.lo = 250000.0;
  rule.hi = 450000.0;
  rule.prob_inside = 0.75;
  rule.prob_outside = 0.08;
  config.planted_rules.push_back(rule);
  return config;
}

TEST(PipelineTest, CsvRoundTripPreservesMinedRules) {
  Rng rng(1);
  const storage::Relation original =
      datagen::GenerateTable(PlantedConfig(30000), rng);
  const std::string path = testing::TempDir() + "/pipeline.csv";
  ASSERT_TRUE(storage::WriteCsv(original, path).ok());
  Result<storage::Relation> loaded = storage::ReadCsv(path);
  ASSERT_TRUE(loaded.ok());

  rules::MinerOptions options;
  options.num_buckets = 100;
  options.min_support = 0.1;
  rules::Miner a(&original, options);
  rules::Miner b(&loaded.value(), options);
  const rules::MinedRule rule_a = a.MinePair("num0", "bool0").value()[0];
  const rules::MinedRule rule_b = b.MinePair("num0", "bool0").value()[0];
  ASSERT_TRUE(rule_a.found);
  ASSERT_TRUE(rule_b.found);
  // Identical data + identical seed => identical mined rule.
  EXPECT_EQ(rule_a.support_count, rule_b.support_count);
  EXPECT_EQ(rule_a.hit_count, rule_b.hit_count);
  EXPECT_DOUBLE_EQ(rule_a.range_lo, rule_b.range_lo);
  std::remove(path.c_str());
}

TEST(PipelineTest, DiskPipelineMatchesInMemoryPipeline) {
  // The out-of-core path (paged batch source -> sampled-row gather ->
  // one counting scan -> O(M) rules) draws the in-memory path's sample,
  // so with the Miner's generator (session seed + attribute salt 0) it
  // must find the very same rule.
  Rng rng(2);
  const storage::Relation table =
      datagen::GenerateTable(PlantedConfig(40000), rng);
  const std::string path = testing::TempDir() + "/pipeline.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(table, path).ok());

  rules::MinerOptions options;
  options.num_buckets = 100;
  options.min_support = 0.10;

  auto source_or = storage::PagedFileBatchSource::Open(path);
  ASSERT_TRUE(source_or.ok());
  storage::PagedFileBatchSource& source = *source_or.value();
  const bucketing::SampledColumn column{0, options.num_buckets,
                                        options.seed};
  const Result<std::vector<bucketing::BucketBoundaries>> boundaries =
      bucketing::SampleBoundaries(source, {&column, 1},
                                  options.sample_per_bucket);
  ASSERT_TRUE(boundaries.ok());
  bucketing::MultiCountSpec spec;
  spec.num_targets = source.num_boolean();
  bucketing::CountChannel channel;
  channel.column = 0;
  channel.boundaries = &boundaries.value().front();
  spec.channels.push_back(channel);
  bucketing::MultiCountPlan plan(std::move(spec));
  bucketing::ExecuteMultiCount(source, &plan, nullptr);
  EXPECT_EQ(source.scans_started(), 2);  // one gather, one counting scan
  bucketing::BucketCounts counts = plan.TakeCounts(0);
  bucketing::CompactEmptyBuckets(&counts);
  const rules::RangeRule disk_rule = rules::OptimizedConfidenceRule(
      counts.u, counts.v[0], counts.total_tuples,
      rules::MinSupportCount(counts.total_tuples, options.min_support));

  rules::Miner miner(&table, options);
  const rules::MinedRule memory_rule =
      miner.MinePair("num0", "bool0").value()[0];

  ASSERT_TRUE(disk_rule.found);
  ASSERT_TRUE(memory_rule.found);
  EXPECT_EQ(disk_rule.confidence, memory_rule.confidence);
  EXPECT_EQ(disk_rule.support, memory_rule.support);
  EXPECT_EQ(disk_rule.support_count, memory_rule.support_count);
  EXPECT_EQ(disk_rule.hit_count, memory_rule.hit_count);
  EXPECT_EQ(bucketing::RangeMinValue(counts, disk_rule.s, disk_rule.t),
            memory_rule.range_lo);
  EXPECT_EQ(bucketing::RangeMaxValue(counts, disk_rule.s, disk_rule.t),
            memory_rule.range_hi);
  std::remove(path.c_str());
}

TEST(PipelineTest, TruncatedPagedFileIsDetected) {
  Rng rng(4);
  const storage::Relation table =
      datagen::GenerateTable(PlantedConfig(1000), rng);
  const std::string path = testing::TempDir() + "/truncated.optr";
  storage::PagedFileWriterOptions v1;
  v1.format = storage::PagedFileFormat::kRowMajorV1;
  storage::PagedFileWriterOptions v2;
  storage::PagedFileWriterOptions v2_no_zones;
  v2_no_zones.zone_maps = false;
  for (const storage::PagedFileWriterOptions& format :
       {v1, v2, v2_no_zones}) {
    SCOPED_TRACE(testing::Message()
                 << "format=" << static_cast<int>(format.format)
                 << " zone_maps=" << format.zone_maps);
    ASSERT_TRUE(storage::WriteRelationToFile(table, path, format).ok());
    // Chop the last 100 bytes off.
    {
      std::ifstream in(path, std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      bytes.resize(bytes.size() - 100);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    // Bulk load detects the corruption...
    EXPECT_EQ(storage::ReadRelationFromFile(
                  path, storage::Schema::Synthetic(2, 2))
                  .status()
                  .code(),
              StatusCode::kCorruption);
    // ...and so does every batch reader, at open rather than mid-scan,
    // including the sort baselines that used to rank a short scan as if
    // it were complete.
    storage::BufferPool pool(0);
    EXPECT_EQ(storage::PagedFileBatchSource::Open(
                  path, storage::kDefaultBatchRows,
                  storage::PagedReadMode::kSynchronous, &pool)
                  .status()
                  .code(),
              StatusCode::kCorruption);
    EXPECT_EQ(bucketing::NaiveSortBoundariesFromFile(
                  path, 0, 10, testing::TempDir() + "/truncated_sorted.optr",
                  1 << 16, testing::TempDir())
                  .status()
                  .code(),
              StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(PipelineTest, FullSweepToMarkdownReport) {
  Rng rng(5);
  const storage::Relation table =
      datagen::GenerateTable(PlantedConfig(20000), rng);
  rules::MinerOptions options;
  options.num_buckets = 100;
  rules::Miner miner(&table, options);
  const auto ranked = report::RankByLift(miner.MineAll(), table);
  ASSERT_FALSE(ranked.empty());
  const std::string path = testing::TempDir() + "/sweep_report.md";
  ASSERT_TRUE(report::WriteTextFile(report::ToMarkdown(ranked), path).ok());
  std::ifstream in(path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line.find("| rule |"), 0u);
  std::remove(path.c_str());
}

TEST(PipelineTest, ConsistentAnswersAcrossThresholdSweep) {
  // Monotonicity invariants across thresholds, end to end:
  // higher min confidence => no more support; higher min support =>
  // no higher confidence.
  Rng rng(6);
  const storage::Relation table =
      datagen::GenerateTable(PlantedConfig(30000), rng);
  rules::MinerOptions options;
  options.num_buckets = 200;

  double previous_support = 2.0;
  for (const double min_confidence : {0.2, 0.4, 0.6, 0.8}) {
    options.min_confidence = min_confidence;
    rules::Miner miner(&table, options);
    const rules::MinedRule rule =
        miner.MinePair("num0", "bool0").value()[1];
    if (!rule.found) break;  // once infeasible, stays infeasible
    EXPECT_LE(rule.support, previous_support) << min_confidence;
    EXPECT_GE(rule.confidence, min_confidence - 1e-9);
    previous_support = rule.support;
  }

  double previous_confidence = 2.0;
  for (const double min_support : {0.05, 0.15, 0.3, 0.6}) {
    options.min_support = min_support;
    rules::Miner miner(&table, options);
    const rules::MinedRule rule =
        miner.MinePair("num0", "bool0").value()[0];
    ASSERT_TRUE(rule.found);
    EXPECT_LE(rule.confidence, previous_confidence + 1e-9) << min_support;
    EXPECT_GE(rule.support, min_support - 0.01);
    previous_confidence = rule.confidence;
  }
}

TEST(PipelineTest, GeneratedFileAndGeneratedRelationAgree) {
  // GenerateTable and GenerateTableToFile with the same seed produce the
  // same rows.
  const datagen::TableConfig config = PlantedConfig(2000);
  Rng rng_a(7);
  const storage::Relation in_memory = datagen::GenerateTable(config, rng_a);
  const std::string path = testing::TempDir() + "/gen_agree.optr";
  Rng rng_b(7);
  ASSERT_TRUE(datagen::GenerateTableToFile(config, rng_b, path).ok());
  Result<storage::Relation> from_file =
      storage::ReadRelationFromFile(path, in_memory.schema());
  ASSERT_TRUE(from_file.ok());
  ASSERT_EQ(from_file.value().NumRows(), in_memory.NumRows());
  for (int64_t row = 0; row < 100; ++row) {
    EXPECT_DOUBLE_EQ(from_file.value().NumericValue(row, 0),
                     in_memory.NumericValue(row, 0));
    EXPECT_EQ(from_file.value().BooleanValue(row, 1),
              in_memory.BooleanValue(row, 1));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optrules
