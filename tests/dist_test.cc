// Tests of the distributed scan subsystem (src/dist/): manifest I/O,
// the partitioner, the wire format, in-process and subprocess workers,
// the coordinator's deterministic merge, fault tolerance (retry,
// failover, respawn, deadlines, work stealing),
// and the MiningEngine wired to a PartitionedTable -- including the
// acceptance contract: a full mixed session over K partitions,
// in-process and subprocess workers, is bit-identical to the
// single-PagedFile path with counting_scans() == 1, even when a worker
// is kill -9'd mid-scan.
//
// Subprocess tests spawn the optrules_workerd binary named by the
// OPTRULES_WORKERD environment variable (set by ctest); they skip when it
// is absent so the binary can run standalone. The check-faults lane
// re-runs this binary with OPTRULES_WORKERD_FAULT=rotate armed globally;
// tests that talk to daemons directly (no coordinator retry above them)
// disarm it with ScopedFaultsOff, and fault-specific tests override it
// with their own token-gated spec.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/parallel_count.h"
#include "common/rng.h"
#include "datagen/table_generator.h"
#include "dist/coordinator.h"
#include "dist/fault_injection.h"
#include "dist/manifest.h"
#include "dist/partitioned_table.h"
#include "dist/scan_worker.h"
#include "dist/wire.h"
#include "rules/miner.h"
#include "storage/csv.h"
#include "storage/paged_file.h"

namespace optrules::dist {
namespace {

using bucketing::BucketBoundaries;
using bucketing::CountChannel;
using bucketing::GridChannel;
using bucketing::MultiCountPlan;
using bucketing::MultiCountSpec;

std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

storage::Relation TestRelation(int64_t rows, uint64_t seed,
                               int num_numeric = 3, int num_boolean = 2) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = num_numeric;
  config.num_boolean = num_boolean;
  Rng rng(seed);
  storage::Relation relation = datagen::GenerateTable(config, rng);
  // Sprinkle NaNs so the no-bucket policy is exercised through the wire.
  std::vector<double>& column = relation.MutableNumericColumn(0);
  for (size_t row = 0; row < column.size(); row += 97) {
    column[row] = std::nan("");
  }
  return relation;
}

/// An engine-shaped spec over `relation`'s schema: base channels for every
/// numeric attribute, one conditional channel, one sum channel, one grid
/// channel (rectangular).
MultiCountSpec MakeMixedSpec(const storage::Schema& schema,
                             const std::vector<BucketBoundaries>& base,
                             const BucketBoundaries& grid_y) {
  MultiCountSpec spec;
  spec.num_targets = schema.num_boolean();
  spec.conditions.push_back({0});
  for (int a = 0; a < schema.num_numeric(); ++a) {
    CountChannel channel;
    channel.column = a;
    channel.boundaries = &base[static_cast<size_t>(a)];
    spec.channels.push_back(std::move(channel));
  }
  CountChannel conditional;
  conditional.column = 1;
  conditional.boundaries = &base[1];
  conditional.condition = 0;
  spec.channels.push_back(std::move(conditional));
  CountChannel summing;
  summing.column = 0;
  summing.boundaries = &base[0];
  summing.count_targets = false;
  summing.sum_targets = {1, 2};
  spec.channels.push_back(std::move(summing));
  GridChannel grid;
  grid.x_column = 0;
  grid.x_boundaries = &base[0];
  grid.y_column = 1;
  grid.y_boundaries = &grid_y;
  spec.grid_channels.push_back(grid);
  return spec;
}

std::vector<BucketBoundaries> BaseBoundaries(
    const storage::Relation& relation, int num_buckets) {
  bucketing::BoundaryPlan plan;
  plan.bucketizer = bucketing::Bucketizer::kExactSort;
  plan.num_buckets = num_buckets;
  std::vector<BucketBoundaries> base;
  for (int a = 0; a < relation.schema().num_numeric(); ++a) {
    base.push_back(bucketing::BuildBoundaries(relation.NumericColumn(a),
                                              plan,
                                              static_cast<uint64_t>(a)));
  }
  return base;
}

void ExpectPlansIdentical(const MultiCountPlan& a, const MultiCountPlan& b) {
  ASSERT_EQ(a.num_channels(), b.num_channels());
  ASSERT_EQ(a.num_grid_channels(), b.num_grid_channels());
  for (int c = 0; c < a.num_channels(); ++c) {
    const bucketing::BucketCounts& ca = a.counts(c);
    const bucketing::BucketCounts& cb = b.counts(c);
    EXPECT_EQ(ca.total_tuples, cb.total_tuples) << "channel " << c;
    ASSERT_EQ(ca.u, cb.u) << "channel " << c;
    ASSERT_EQ(ca.v, cb.v) << "channel " << c;
    ASSERT_EQ(ca.u.size(), cb.min_value.size());
    for (size_t bkt = 0; bkt < ca.min_value.size(); ++bkt) {
      const bool a_nan = std::isnan(ca.min_value[bkt]);
      const bool b_nan = std::isnan(cb.min_value[bkt]);
      ASSERT_EQ(a_nan, b_nan);
      if (!a_nan) {
        ASSERT_EQ(ca.min_value[bkt], cb.min_value[bkt]);
        ASSERT_EQ(ca.max_value[bkt], cb.max_value[bkt]);
      }
    }
    const size_t num_sums = a.spec().channels[static_cast<size_t>(c)]
                                .sum_targets.size();
    for (size_t k = 0; k < num_sums; ++k) {
      const bucketing::BucketSums sa =
          a.MakeBucketSums(c, static_cast<int>(k));
      const bucketing::BucketSums sb =
          b.MakeBucketSums(c, static_cast<int>(k));
      ASSERT_EQ(sa.sum, sb.sum) << "channel " << c << " sum target " << k;
    }
  }
  for (int g = 0; g < a.num_grid_channels(); ++g) {
    const bucketing::GridBucketCounts& ga = a.grid_counts(g);
    const bucketing::GridBucketCounts& gb = b.grid_counts(g);
    EXPECT_EQ(ga.total_tuples, gb.total_tuples);
    ASSERT_EQ(ga.u, gb.u) << "grid " << g;
    ASSERT_EQ(ga.v, gb.v) << "grid " << g;
  }
}

/// Restores one environment variable on destruction; value == nullptr
/// unsets it for the scope.
class ScopedEnv {
 public:
  ScopedEnv(const std::string& name, const char* value) : name_(name) {
    const char* old = std::getenv(name_.c_str());
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// Disarms daemon fault injection for tests that assert on direct worker
/// conversations (no coordinator retry above them): the check-faults
/// ctest lane arms OPTRULES_WORKERD_FAULT=rotate process-wide.
struct ScopedFaultsOff {
  ScopedEnv fault{"OPTRULES_WORKERD_FAULT", nullptr};
  ScopedEnv token{"OPTRULES_WORKERD_FAULT_TOKEN", nullptr};
  ScopedEnv counter{"OPTRULES_WORKERD_FAULT_COUNTER", nullptr};
};

/// Creates the token file exactly ONE daemon can claim (by unlinking it)
/// to arm its fault; returns its path for OPTRULES_WORKERD_FAULT_TOKEN.
std::string WriteFaultToken(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* file = std::fopen(path.c_str(), "wb");
  EXPECT_NE(file, nullptr);
  std::fputs("token\n", file);
  std::fclose(file);
  return path;
}

/// Worker factory for fault tests: the `ordinal`-th worker it builds (and
/// only that one) wraps its InProcessScanWorker in the given faults;
/// respawned replacements come from the same factory and run clean.
std::function<Result<std::unique_ptr<ScanWorker>>()> FaultyWorkerFactory(
    int faulty_ordinal, std::vector<InjectedFault> faults) {
  auto built = std::make_shared<std::atomic<int>>(0);
  return [built, faulty_ordinal,
          faults = std::move(faults)]() -> Result<std::unique_ptr<ScanWorker>> {
    std::unique_ptr<ScanWorker> inner =
        std::make_unique<InProcessScanWorker>();
    if (built->fetch_add(1) == faulty_ordinal) {
      return std::unique_ptr<ScanWorker>(
          std::make_unique<FaultInjectingScanWorker>(std::move(inner),
                                                     faults));
    }
    return inner;
  };
}

// ----------------------------------------------------------- manifest ----

TEST(ManifestTest, RoundTripsSchemaPartitionsAndStats) {
  const std::string dir = TempDir("manifest_roundtrip");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  PartitionManifest manifest;
  auto schema = storage::Schema::Create(
      {{"age", storage::AttrKind::kNumeric},
       {"account balance", storage::AttrKind::kNumeric},
       {"card loan", storage::AttrKind::kBoolean}});
  ASSERT_TRUE(schema.ok());
  manifest.schema = schema.value();
  manifest.partitions = {{"part-00000.optr", 5}, {"part-00001.optr", 7}};
  manifest.numeric_stats = {{-1.5, 2.25},
                            {0.1, std::numeric_limits<double>::infinity()}};
  ASSERT_TRUE(WriteManifest(manifest, dir).ok());

  Result<PartitionManifest> read = ReadManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().schema, manifest.schema);
  EXPECT_EQ(read.value().schema_hash, SchemaHash(manifest.schema));
  ASSERT_EQ(read.value().num_partitions(), 2);
  EXPECT_EQ(read.value().partitions[0].file, "part-00000.optr");
  EXPECT_EQ(read.value().partitions[1].num_rows, 7);
  EXPECT_EQ(read.value().total_rows(), 12);
  ASSERT_EQ(read.value().numeric_stats.size(), 2u);
  EXPECT_EQ(read.value().numeric_stats[0].min_value, -1.5);
  EXPECT_EQ(read.value().numeric_stats[0].max_value, 2.25);
  EXPECT_TRUE(std::isinf(read.value().numeric_stats[1].max_value));
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, RejectsTamperedSchema) {
  const std::string dir = TempDir("manifest_tampered");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  PartitionManifest manifest;
  manifest.schema = storage::Schema::Synthetic(2, 1);
  manifest.partitions = {{"part-00000.optr", 1}};
  manifest.numeric_stats.resize(2);
  ASSERT_TRUE(WriteManifest(manifest, dir).ok());
  // Flip one attribute name in the manifest text.
  const std::string path = dir + "/" + kManifestFileName;
  std::string text;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
      text.append(chunk, got);
    }
    std::fclose(file);
  }
  const size_t pos = text.find("attr numeric num0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 17, "attr numeric hack");
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), file), text.size());
    std::fclose(file);
  }
  const Result<PartitionManifest> read = ReadManifest(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, MissingDirectoryIsIoError) {
  const Result<PartitionManifest> read =
      ReadManifest(testing::TempDir() + "/does_not_exist_xyz");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// -------------------------------------------------------- partitioner ----

TEST(PartitionerTest, RoundRobinSplitsRowsInOrder) {
  const storage::Relation relation = TestRelation(101, 11);
  const std::string dir = TempDir("rr_split");
  PartitionOptions options;
  options.num_partitions = 3;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().num_partitions(), 3);
  EXPECT_EQ(table.value().total_rows(), relation.NumRows());
  // Partition p holds rows p, p+3, p+6, ... in original order, exactly.
  for (int p = 0; p < 3; ++p) {
    Result<storage::Relation> part = storage::ReadRelationFromFile(
        table.value().PartitionPath(p), relation.schema());
    ASSERT_TRUE(part.ok());
    ASSERT_EQ(part.value().NumRows(), table.value().partition_rows(p));
    int64_t source_row = p;
    for (int64_t row = 0; row < part.value().NumRows();
         ++row, source_row += 3) {
      for (int a = 0; a < relation.schema().num_numeric(); ++a) {
        const double expected = relation.NumericValue(source_row, a);
        const double got = part.value().NumericValue(row, a);
        if (std::isnan(expected)) {
          ASSERT_TRUE(std::isnan(got));
        } else {
          ASSERT_EQ(got, expected);
        }
      }
      for (int b = 0; b < relation.schema().num_boolean(); ++b) {
        ASSERT_EQ(part.value().BooleanValue(row, b),
                  relation.BooleanValue(source_row, b));
      }
    }
  }
  // Stats: NaN-safe min/max of every numeric column.
  for (int a = 0; a < relation.schema().num_numeric(); ++a) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const double value : relation.NumericColumn(a)) {
      if (std::isnan(value)) continue;
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    const AttributeStats& stats =
        table.value().manifest().numeric_stats[static_cast<size_t>(a)];
    EXPECT_EQ(stats.min_value, lo);
    EXPECT_EQ(stats.max_value, hi);
  }
  std::filesystem::remove_all(dir);
}

TEST(PartitionerTest, HashRoutingIsDeterministicAndComplete) {
  const storage::Relation relation = TestRelation(300, 12);
  PartitionOptions options;
  options.num_partitions = 4;
  options.strategy = PartitionStrategy::kHash;
  const std::string dir_a = TempDir("hash_a");
  const std::string dir_b = TempDir("hash_b");
  Result<PartitionedTable> a = PartitionRelation(relation, dir_a, options);
  Result<PartitionedTable> b = PartitionRelation(relation, dir_b, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().total_rows(), relation.NumRows());
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(a.value().partition_rows(p), b.value().partition_rows(p));
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(PartitionerTest, OpenValidatesPartitionFiles) {
  const storage::Relation relation = TestRelation(64, 13);
  const std::string dir = TempDir("open_validate");
  PartitionOptions options;
  options.num_partitions = 2;
  ASSERT_TRUE(PartitionRelation(relation, dir, options).ok());
  ASSERT_TRUE(PartitionedTable::Open(dir).ok());
  // Deleting a partition file must fail Open, not a later scan.
  std::filesystem::remove(dir + "/part-00001.optr");
  EXPECT_FALSE(PartitionedTable::Open(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(PartitionerTest, PartitionPagedFileMatchesPartitionRelation) {
  const storage::Relation relation = TestRelation(200, 14);
  const std::string paged = testing::TempDir() + "/dist_single.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, paged).ok());
  PartitionOptions options;
  options.num_partitions = 3;
  const std::string dir_r = TempDir("from_relation");
  const std::string dir_f = TempDir("from_file");
  Result<PartitionedTable> from_relation =
      PartitionRelation(relation, dir_r, options);
  Result<PartitionedTable> from_file =
      PartitionPagedFile(paged, relation.schema(), dir_f, options);
  ASSERT_TRUE(from_relation.ok());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(from_relation.value().partition_rows(p),
              from_file.value().partition_rows(p));
    // Byte-identical partition files: same rows, same order, same layout.
    const auto read = [](const std::string& path) {
      std::FILE* file = std::fopen(path.c_str(), "rb");
      std::string bytes;
      char chunk[4096];
      size_t got;
      while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        bytes.append(chunk, got);
      }
      std::fclose(file);
      return bytes;
    };
    EXPECT_EQ(read(from_relation.value().PartitionPath(p)),
              read(from_file.value().PartitionPath(p)))
        << "partition " << p;
  }
  std::remove(paged.c_str());
  std::filesystem::remove_all(dir_r);
  std::filesystem::remove_all(dir_f);
}

TEST(PartitionerTest, RepartitioningReplacesTheTableWholesale) {
  const storage::Relation relation = TestRelation(120, 29);
  const std::string dir = TempDir("repartition");
  PartitionOptions options;
  options.num_partitions = 4;
  ASSERT_TRUE(PartitionRelation(relation, dir, options).ok());
  // Re-partition the same directory at a smaller K: the staged swap must
  // leave no stale part files from the old layout behind.
  options.num_partitions = 2;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().num_partitions(), 2);
  EXPECT_EQ(table.value().total_rows(), relation.NumRows());
  EXPECT_FALSE(std::filesystem::exists(dir + "/part-00002.optr"));
  EXPECT_FALSE(std::filesystem::exists(dir + ".staging"));
  ASSERT_TRUE(PartitionedTable::Open(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(PartitionerTest, CsvPartitionsLikeItsRelation) {
  storage::Relation relation = TestRelation(80, 26);
  // CSV cells round-trip decimally, so drop the NaNs TestRelation injects
  // and compare via the re-read relation rather than the original.
  std::vector<double>& column = relation.MutableNumericColumn(0);
  for (double& value : column) {
    if (std::isnan(value)) value = 0.0;
  }
  const std::string csv = testing::TempDir() + "/dist_input.csv";
  ASSERT_TRUE(storage::WriteCsv(relation, csv).ok());
  const std::string dir = TempDir("from_csv");
  PartitionOptions options;
  options.num_partitions = 3;
  Result<PartitionedTable> table = PartitionCsv(csv, dir, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().total_rows(), relation.NumRows());
  EXPECT_EQ(table.value().schema(), relation.schema());
  std::remove(csv.c_str());
  std::filesystem::remove_all(dir);
}

TEST(PartitionerTest, ConcatSourceReplaysPartitionsInManifestOrder) {
  const storage::Relation relation = TestRelation(150, 15);
  const std::string dir = TempDir("concat");
  PartitionOptions options;
  options.num_partitions = 4;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok());
  PartitionedTableBatchSource source(&table.value(), 32);
  EXPECT_EQ(source.NumTuples(), relation.NumRows());
  std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
  storage::ColumnarBatch batch;
  std::vector<double> streamed;
  while (reader->Next(&batch)) {
    const std::span<const double> column = batch.numeric(1);
    streamed.insert(streamed.end(), column.begin(), column.end());
  }
  ASSERT_EQ(static_cast<int64_t>(streamed.size()), relation.NumRows());
  // Round-robin: partition-concatenated order is row p, p+4, ... per p.
  size_t index = 0;
  for (int p = 0; p < 4; ++p) {
    for (int64_t row = p; row < relation.NumRows(); row += 4) {
      ASSERT_EQ(streamed[index++], relation.NumericValue(row, 1));
    }
  }
  EXPECT_EQ(source.scans_started(), 1);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------------- wire ----

TEST(WireTest, ScanRequestRoundTrips) {
  const storage::Relation relation = TestRelation(64, 16);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 8);
  const BucketBoundaries grid_y =
      BucketBoundaries::FromCutPoints({0.25, 0.5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);
  std::vector<uint8_t> payload;
  EncodeScanRequest("/some/partition.optr", 1234,
                    storage::PagedReadMode::kSynchronous, spec, &payload);
  Result<ScanRequestFrame> frame = DecodeScanRequest(payload);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().partition_path, "/some/partition.optr");
  EXPECT_EQ(frame.value().batch_rows, 1234);
  EXPECT_EQ(frame.value().read_mode, storage::PagedReadMode::kSynchronous);
  const MultiCountSpec& decoded = frame.value().spec;
  EXPECT_EQ(decoded.num_targets, spec.num_targets);
  EXPECT_EQ(decoded.conditions, spec.conditions);
  ASSERT_EQ(decoded.channels.size(), spec.channels.size());
  for (size_t c = 0; c < spec.channels.size(); ++c) {
    EXPECT_EQ(decoded.channels[c].column, spec.channels[c].column);
    EXPECT_EQ(decoded.channels[c].condition, spec.channels[c].condition);
    EXPECT_EQ(decoded.channels[c].count_targets,
              spec.channels[c].count_targets);
    EXPECT_EQ(decoded.channels[c].sum_targets,
              spec.channels[c].sum_targets);
    ASSERT_NE(decoded.channels[c].boundaries, nullptr);
    EXPECT_EQ(decoded.channels[c].boundaries->cut_points(),
              spec.channels[c].boundaries->cut_points());
  }
  ASSERT_EQ(decoded.grid_channels.size(), 1u);
  EXPECT_EQ(decoded.grid_channels[0].y_boundaries->cut_points(),
            grid_y.cut_points());
  // Shared boundary identity survives the wire: the grid's x axis reuses
  // channel 0's boundaries object, so locate groups still dedupe.
  EXPECT_EQ(decoded.grid_channels[0].x_boundaries,
            decoded.channels[0].boundaries);
  // Corrupt payloads fail, never crash.
  std::vector<uint8_t> truncated(payload.begin(),
                                 payload.begin() + payload.size() / 2);
  EXPECT_FALSE(DecodeScanRequest(truncated).ok());
}

TEST(WireTest, NanCutPointIsCorruption) {
  // A hostile frame must not reach BucketBoundaries with a NaN cut (that
  // aborts the worker); the decoder rejects it at any table position,
  // including a one-element table the pairwise sort check cannot see.
  const std::vector<std::vector<double>> tables = {
      {0.5}, {0.5, 2.0, 3.0}, {-1.0, 0.0, 0.5}};
  for (const std::vector<double>& cuts : tables) {
    const BucketBoundaries boundaries = BucketBoundaries::FromCutPoints(cuts);
    MultiCountSpec spec;
    spec.num_targets = 1;
    CountChannel channel;
    channel.column = 0;
    channel.boundaries = &boundaries;
    spec.channels.push_back(channel);
    std::vector<uint8_t> payload;
    EncodeScanRequest("/p.optr", 64, storage::PagedReadMode::kSynchronous,
                      spec, &payload);
    ASSERT_TRUE(DecodeScanRequest(payload).ok());
    // Overwrite the encoded 0.5 cut with a quiet NaN.
    const double half = 0.5;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    uint8_t half_bytes[sizeof(double)];
    std::memcpy(half_bytes, &half, sizeof(double));
    const auto at = std::search(payload.begin(), payload.end(),
                                std::begin(half_bytes), std::end(half_bytes));
    ASSERT_NE(at, payload.end());
    std::memcpy(&*at, &nan, sizeof(double));
    const Result<ScanRequestFrame> frame = DecodeScanRequest(payload);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
    EXPECT_NE(frame.status().ToString().find("NaN"), std::string::npos)
        << frame.status().ToString();
  }
}

TEST(WireTest, PartialPlanStateRoundTripsBitExactly) {
  const storage::Relation relation = TestRelation(500, 17);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 10);
  const BucketBoundaries grid_y =
      BucketBoundaries::FromCutPoints({1e5, 4e5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);

  storage::RelationBatchSource source(&relation, 128);
  MultiCountPlan original(spec);
  bucketing::ExecuteMultiCount(source, &original, nullptr);
  std::vector<uint8_t> bytes;
  original.AppendPartialState(&bytes);

  MultiCountPlan restored(spec);
  ASSERT_TRUE(restored.LoadPartialState(bytes).ok());
  ExpectPlansIdentical(restored, original);

  // Truncation and shape mismatch are detected.
  MultiCountPlan scratch(spec);
  EXPECT_FALSE(scratch
                   .LoadPartialState(std::span<const uint8_t>(bytes)
                                         .subspan(0, bytes.size() - 3))
                   .ok());
  MultiCountSpec narrow;
  narrow.num_targets = relation.schema().num_boolean();
  CountChannel only;
  only.column = 0;
  only.boundaries = &base[0];
  narrow.channels.push_back(only);
  MultiCountPlan wrong_shape(narrow);
  EXPECT_FALSE(wrong_shape.LoadPartialState(bytes).ok());
}

TEST(WireTest, ReadFrameTimedEnforcesDeadlines) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<uint8_t> payload;
  // Total deadline: nothing ever arrives.
  FrameTimeouts total_only;
  total_only.total_ms = 100;
  Status status = ReadFrameTimed(fds[0], &payload, total_only);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // Liveness: a partial length prefix, then silence.
  const uint8_t half_prefix[2] = {8, 0};
  ASSERT_EQ(::write(fds[1], half_prefix, sizeof(half_prefix)), 2);
  FrameTimeouts liveness_only;
  liveness_only.liveness_ms = 100;
  status = ReadFrameTimed(fds[0], &payload, liveness_only);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  ::close(fds[0]);
  ::close(fds[1]);

  // A frame that does arrive in time reads back intact, and clean EOF at
  // a frame boundary is still NotFound under timeouts.
  ASSERT_EQ(::pipe(fds), 0);
  const uint8_t bytes[] = {42, 7};
  ASSERT_TRUE(WriteFrame(fds[1], bytes).ok());
  ::close(fds[1]);
  FrameTimeouts both;
  both.liveness_ms = 1000;
  both.total_ms = 1000;
  ASSERT_TRUE(ReadFrameTimed(fds[0], &payload, both).ok());
  EXPECT_EQ(payload, std::vector<uint8_t>({42, 7}));
  EXPECT_EQ(ReadFrameTimed(fds[0], &payload, both).code(),
            StatusCode::kNotFound);
  ::close(fds[0]);
}

TEST(WireTest, ErrorFrameRoundTrips) {
  std::vector<uint8_t> payload;
  EncodeErrorFrame(Status::NotFound("no such partition"), &payload);
  const Status status = DecodeErrorFrame(payload);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "no such partition");
}

// ------------------------------------------------------------ workers ----

/// Reference: serial scan of the whole relation.
MultiCountPlan ReferencePlan(const storage::Relation& relation,
                             const MultiCountSpec& spec) {
  storage::RelationBatchSource source(&relation);
  MultiCountPlan plan(spec);
  bucketing::ExecuteMultiCount(source, &plan, nullptr);
  return plan;
}

/// Merges per-partition worker partials in partition order.
MultiCountPlan MergeWorkerPartials(ScanWorker& worker,
                                   const PartitionedTable& table,
                                   const MultiCountSpec& spec) {
  PartitionScanSpec scan_spec;
  scan_spec.spec = &spec;
  MultiCountPlan merged(spec);
  for (int p = 0; p < table.num_partitions(); ++p) {
    Result<MultiCountPlan> partial =
        worker.CountPartition(table.PartitionPath(p), scan_spec);
    EXPECT_TRUE(partial.ok()) << partial.status().ToString();
    merged.Merge(partial.value());
  }
  return merged;
}

TEST(ScanWorkerTest, InProcessWorkerPartialsMergeToReference) {
  const storage::Relation relation = TestRelation(700, 18);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 12);
  const BucketBoundaries grid_y = BucketBoundaries::FromCutPoints({2e5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);
  const std::string dir = TempDir("worker_inproc");
  PartitionOptions options;
  options.num_partitions = 3;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok());

  InProcessScanWorker worker;
  const MultiCountPlan merged =
      MergeWorkerPartials(worker, table.value(), spec);
  const MultiCountPlan reference = ReferencePlan(relation, spec);
  // Counts/grids/min/max are permutation-invariant, so the partitioned
  // merge must equal the single-relation serial reference bit for bit;
  // the compensated sums agree too on this data (asserted exactly).
  ExpectPlansIdentical(merged, reference);
  std::filesystem::remove_all(dir);
}

TEST(ScanWorkerTest, SubprocessWorkerMatchesInProcess) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  ScopedFaultsOff no_faults;  // direct worker use: no retry layer above
  const storage::Relation relation = TestRelation(600, 19);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 9);
  const BucketBoundaries grid_y = BucketBoundaries::FromCutPoints({3e5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);
  const std::string dir = TempDir("worker_subproc");
  PartitionOptions options;
  options.num_partitions = 3;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok());

  Result<std::unique_ptr<SubprocessScanWorker>> subprocess =
      SubprocessScanWorker::Spawn(ResolveWorkerdPath(""));
  ASSERT_TRUE(subprocess.ok()) << subprocess.status().ToString();
  // ONE daemon serves all three partitions sequentially over its pipe.
  const MultiCountPlan remote =
      MergeWorkerPartials(*subprocess.value(), table.value(), spec);
  InProcessScanWorker local;
  const MultiCountPlan in_process =
      MergeWorkerPartials(local, table.value(), spec);
  ExpectPlansIdentical(remote, in_process);
  std::filesystem::remove_all(dir);
}

TEST(ScanWorkerTest, SubprocessWorkerReportsMissingPartition) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  ScopedFaultsOff no_faults;  // direct worker use: no retry layer above
  Result<std::unique_ptr<SubprocessScanWorker>> worker =
      SubprocessScanWorker::Spawn(ResolveWorkerdPath(""));
  ASSERT_TRUE(worker.ok());
  MultiCountSpec spec;
  spec.num_targets = 1;
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({1.0});
  CountChannel channel;
  channel.column = 0;
  channel.boundaries = &boundaries;
  spec.channels.push_back(channel);
  PartitionScanSpec scan_spec;
  scan_spec.spec = &spec;
  // The error comes back as a frame; the daemon survives to serve again.
  Result<MultiCountPlan> missing = worker.value()->CountPartition(
      testing::TempDir() + "/no_such_partition.optr", scan_spec, nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  Result<MultiCountPlan> still_missing = worker.value()->CountPartition(
      testing::TempDir() + "/still_missing.optr", scan_spec, nullptr);
  EXPECT_FALSE(still_missing.ok());
}

TEST(ScanWorkerTest, SpawnFailsWithoutBinary) {
  EXPECT_FALSE(SubprocessScanWorker::Spawn("").ok());
}

TEST(ScanWorkerTest, PingPongAndExternalKill) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  ScopedFaultsOff no_faults;  // direct worker use: no retry layer above
  Result<std::unique_ptr<SubprocessScanWorker>> worker =
      SubprocessScanWorker::Spawn(ResolveWorkerdPath(""));
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();
  EXPECT_TRUE(worker.value()->Ping(2'000).ok());
  EXPECT_TRUE(worker.value()->healthy());
  // kill -9 the daemon out from under the worker: the next ping must
  // fail, mark the transport broken, and reap the child.
  ASSERT_EQ(::kill(worker.value()->pid(), SIGKILL), 0);
  EXPECT_FALSE(worker.value()->Ping(2'000).ok());
  EXPECT_FALSE(worker.value()->healthy());
  // Further use fails fast instead of writing into a dead pipe.
  MultiCountSpec spec;
  spec.num_targets = 1;
  const BucketBoundaries boundaries =
      BucketBoundaries::FromCutPoints({1.0});
  CountChannel channel;
  channel.column = 0;
  channel.boundaries = &boundaries;
  spec.channels.push_back(channel);
  PartitionScanSpec scan_spec;
  scan_spec.spec = &spec;
  EXPECT_FALSE(worker.value()
                   ->CountPartition(testing::TempDir() + "/unused.optr",
                                    scan_spec, nullptr)
                   .ok());
}

TEST(ScanWorkerTest, DestructorReapsWedgedDaemonPromptly) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  ScopedFaultsOff no_faults;
  Result<std::unique_ptr<SubprocessScanWorker>> worker =
      SubprocessScanWorker::Spawn(ResolveWorkerdPath(""));
  ASSERT_TRUE(worker.ok());
  // SIGSTOP wedges the daemon completely: it cannot read the shutdown
  // frame, cannot exit on EOF, and a stopped process ignores SIGTERM
  // until continued -- only the destructor's SIGKILL escalation can reap
  // it. The destructor must return promptly regardless.
  ASSERT_EQ(::kill(worker.value()->pid(), SIGSTOP), 0);
  const auto start = std::chrono::steady_clock::now();
  worker.value().reset();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5'000) << "destructor hung on a wedged daemon";
}

// -------------------------------------------------------- coordinator ----

TEST(CoordinatorTest, MergeIsIdenticalForAnyWorkerCount) {
  const storage::Relation relation = TestRelation(900, 20);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 14);
  const BucketBoundaries grid_y = BucketBoundaries::FromCutPoints({2e5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);
  const MultiCountPlan reference = ReferencePlan(relation, spec);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kRoundRobin, PartitionStrategy::kHash}) {
    const std::string dir = TempDir("coord_workers");
    PartitionOptions options;
    options.num_partitions = 5;
    options.strategy = strategy;
    Result<PartitionedTable> table =
        PartitionRelation(relation, dir, options);
    ASSERT_TRUE(table.ok());
    for (const int workers : {1, 2, 5}) {
      DistributedScanOptions scan_options;
      scan_options.max_workers = workers;
      DistributedScanCoordinator coordinator(&table.value(), scan_options);
      MultiCountPlan plan(spec);
      ASSERT_TRUE(coordinator.Execute(&plan).ok());
      EXPECT_EQ(coordinator.partition_scans(), 5);
      ExpectPlansIdentical(plan, reference);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CoordinatorTest, MixedFormatPartitionsScanIdentically) {
  // A PartitionedTable may hold a mix of on-disk format versions (e.g.
  // partitions written before and after the columnar v2 rollout). The
  // manifest records rows and schema, not layout; every reader negotiates
  // the version per file, so a mixed table must validate and scan
  // bit-identically to the all-v2 table it started as.
  const storage::Relation relation = TestRelation(700, 23);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 11);
  const BucketBoundaries grid_y = BucketBoundaries::FromCutPoints({2e5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);
  const MultiCountPlan reference = ReferencePlan(relation, spec);
  const std::string dir = TempDir("coord_mixed_formats");
  PartitionOptions options;
  options.num_partitions = 3;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok());

  // Rewrite partition 1 in the legacy row-major v1 layout, same rows and
  // order, then re-open the table from the untouched manifest.
  const std::string part1 = table.value().PartitionPath(1);
  Result<storage::PagedFileInfo> before = storage::ReadPagedFileInfo(part1);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().format_version, 2u);
  Result<storage::Relation> part1_rows =
      storage::ReadRelationFromFile(part1, relation.schema());
  ASSERT_TRUE(part1_rows.ok());
  storage::PagedFileWriterOptions v1;
  v1.format = storage::PagedFileFormat::kRowMajorV1;
  ASSERT_TRUE(
      storage::WriteRelationToFile(part1_rows.value(), part1, v1).ok());
  Result<storage::PagedFileInfo> after = storage::ReadPagedFileInfo(part1);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().format_version, 1u);

  Result<PartitionedTable> mixed = PartitionedTable::Open(dir);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  {
    DistributedScanCoordinator coordinator(&mixed.value(), {});
    MultiCountPlan plan(spec);
    ASSERT_TRUE(coordinator.Execute(&plan).ok());
    ExpectPlansIdentical(plan, reference);
  }
  if (!ResolveWorkerdPath("").empty()) {
    // The subprocess worker re-opens the partition file in its own
    // process; version negotiation must survive the hop too.
    DistributedScanOptions scan_options;
    scan_options.worker_kind = WorkerKind::kSubprocess;
    scan_options.max_workers = 2;
    DistributedScanCoordinator coordinator(&mixed.value(), scan_options);
    MultiCountPlan plan(spec);
    ASSERT_TRUE(coordinator.Execute(&plan).ok());
    ExpectPlansIdentical(plan, reference);
  }
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorTest, ManifestPruningSkipsDeadPartitionsBitExactly) {
  // Condition Boolean 0 is true only on rows congruent to 0 mod 4; under
  // round-robin partitioning into 4 partitions every true row lands in
  // partition 0, so the manifest's per-partition stats prove partitions
  // 1-3 dead for an all-conditional spec. The coordinator must skip them
  // before dispatch -- in-process AND subprocess workers -- and still
  // merge to the single-relation serial reference bit for bit (skipped
  // partitions contribute their row counts, nothing else).
  storage::Relation relation = TestRelation(1000, 77);
  std::vector<uint8_t>& cond = relation.MutableBooleanColumn(0);
  for (size_t i = 0; i < cond.size(); ++i) {
    if (i % 4 != 0) cond[i] = 0;
  }
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 12);
  MultiCountSpec spec;
  spec.num_targets = relation.schema().num_boolean();
  spec.conditions.push_back({0});
  for (int a = 0; a < relation.schema().num_numeric(); ++a) {
    CountChannel channel;
    channel.column = a;
    channel.boundaries = &base[static_cast<size_t>(a)];
    channel.condition = 0;
    spec.channels.push_back(std::move(channel));
  }
  CountChannel summing;
  summing.column = 0;
  summing.boundaries = &base[0];
  summing.condition = 0;
  summing.count_targets = false;
  summing.sum_targets = {1, 2};
  spec.channels.push_back(std::move(summing));
  const MultiCountPlan reference = ReferencePlan(relation, spec);

  const std::string dir = TempDir("coord_prune");
  PartitionOptions options;
  options.num_partitions = 4;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE(table.value().manifest().has_partition_stats);

  std::vector<WorkerKind> kinds = {WorkerKind::kInProcess};
  if (!ResolveWorkerdPath("").empty()) {
    kinds.push_back(WorkerKind::kSubprocess);
  }
  for (const WorkerKind kind : kinds) {
    DistributedScanOptions scan_options;
    scan_options.worker_kind = kind;
    scan_options.max_workers = 2;
    DistributedScanCoordinator coordinator(&table.value(), scan_options);
    MultiCountPlan plan(spec);
    ASSERT_TRUE(coordinator.Execute(&plan).ok());
    ExpectPlansIdentical(plan, reference);
    EXPECT_EQ(coordinator.scan_stats().partitions_skipped, 3);
    EXPECT_EQ(coordinator.partition_scans(), 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorTest, SubprocessWorkersMatchInProcess) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  const storage::Relation relation = TestRelation(400, 21);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 7);
  const BucketBoundaries grid_y = BucketBoundaries::FromCutPoints({1e5});
  const MultiCountSpec spec =
      MakeMixedSpec(relation.schema(), base, grid_y);
  const std::string dir = TempDir("coord_subproc");
  PartitionOptions options;
  options.num_partitions = 4;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok());

  MultiCountPlan in_process(spec);
  {
    DistributedScanCoordinator coordinator(&table.value(), {});
    ASSERT_TRUE(coordinator.Execute(&in_process).ok());
  }
  DistributedScanOptions scan_options;
  scan_options.worker_kind = WorkerKind::kSubprocess;
  scan_options.max_workers = 2;  // 2 daemons x 2 partitions each
  DistributedScanCoordinator coordinator(&table.value(), scan_options);
  MultiCountPlan subprocess(spec);
  ASSERT_TRUE(coordinator.Execute(&subprocess).ok());
  ExpectPlansIdentical(subprocess, in_process);
  std::filesystem::remove_all(dir);
}

TEST(CoordinatorTest, MissingWorkerBinaryIsAnError) {
  const storage::Relation relation = TestRelation(50, 22);
  const std::string dir = TempDir("coord_missing_binary");
  PartitionOptions options;
  options.num_partitions = 2;
  Result<PartitionedTable> table = PartitionRelation(relation, dir, options);
  ASSERT_TRUE(table.ok());
  DistributedScanOptions scan_options;
  scan_options.worker_kind = WorkerKind::kSubprocess;
  scan_options.workerd_path = "/no/such/binary";
  DistributedScanCoordinator coordinator(&table.value(), scan_options);
  const std::vector<BucketBoundaries> base = BaseBoundaries(relation, 4);
  const BucketBoundaries grid_y = BucketBoundaries::FromCutPoints({0.0});
  MultiCountPlan plan(MakeMixedSpec(relation.schema(), base, grid_y));
  // exec fails inside the child, so the first partition scan reports the
  // dead pipe as an error instead of hanging.
  EXPECT_FALSE(coordinator.Execute(&plan).ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------- fault tolerance ----

/// Shared scaffolding: a partitioned table plus the serial reference plan
/// every fault scenario must still reproduce bit for bit.
struct FaultFixture {
  FaultFixture(int64_t rows, uint64_t seed, int partitions,
               const std::string& dir_name)
      : relation(TestRelation(rows, seed)),
        base(BaseBoundaries(relation, 10)),
        grid_y(BucketBoundaries::FromCutPoints({2e5})),
        spec(MakeMixedSpec(relation.schema(), base, grid_y)),
        reference(ReferencePlan(relation, spec)),
        dir(TempDir(dir_name)) {
    PartitionOptions options;
    options.num_partitions = partitions;
    Result<PartitionedTable> opened =
        PartitionRelation(relation, dir, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    table.emplace(std::move(opened).value());
  }
  ~FaultFixture() { std::filesystem::remove_all(dir); }

  storage::Relation relation;
  std::vector<BucketBoundaries> base;
  BucketBoundaries grid_y;
  MultiCountSpec spec;
  MultiCountPlan reference;
  std::string dir;
  std::optional<PartitionedTable> table;
};

/// The tentpole contract, in-process side: a worker whose transport dies
/// mid-scan (the in-process analogue of kill -9) is replaced, its
/// partition re-dispatched, and the merged result stays bit-identical to
/// the no-failure run -- at K = 3 and K = 8.
TEST(FaultToleranceTest, InProcessWorkerCrashFailsOverBitExactly) {
  for (const int k : {3, 8}) {
    FaultFixture fixture(1100, 31, k, "fault_inproc_k" + std::to_string(k));
    DistributedScanOptions options;
    options.max_workers = 3;
    // Static scheduling pins partition 0 to the faulty slot 0, so the fault
    // always fires (under the work queue a fast peer may steal it first).
    options.scheduling = ScanScheduling::kStatic;
    options.worker_factory = FaultyWorkerFactory(
        0, {{.at_call = 0,
             .status = Status::IoError("injected transport death"),
             .mark_unhealthy = true}});
    DistributedScanCoordinator coordinator(&fixture.table.value(), options);
    MultiCountPlan plan(fixture.spec);
    ASSERT_TRUE(coordinator.Execute(&plan).ok());
    ExpectPlansIdentical(plan, fixture.reference);
    EXPECT_EQ(coordinator.partition_scans(), k) << "k=" << k;
    EXPECT_GE(coordinator.scan_stats().retries, 1) << "k=" << k;
    EXPECT_GE(coordinator.scan_stats().workers_respawned, 1) << "k=" << k;
  }
}

/// The tentpole contract, subprocess side: one daemon of the fleet
/// kill -9's itself mid-scan (request read, reply never sent); the
/// coordinator respawns a replacement, retries the partition, and the
/// merged counts/grids/Neumaier sums are bit-identical -- K = 3 and 8.
TEST(FaultToleranceTest, SubprocessKillNineMidScanIsBitIdentical) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  for (const int k : {3, 8}) {
    FaultFixture fixture(900, 33, k, "fault_kill9_k" + std::to_string(k));
    ScopedEnv fault("OPTRULES_WORKERD_FAULT", "crash-before-reply");
    const std::string token =
        WriteFaultToken("kill9_token_k" + std::to_string(k));
    ScopedEnv token_env("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
    DistributedScanOptions options;
    options.worker_kind = WorkerKind::kSubprocess;
    // Static scheduling makes every daemon serve its own stride, so the
    // one that claimed the fault token at spawn always gets a request.
    options.scheduling = ScanScheduling::kStatic;
    options.max_workers = 3;
    DistributedScanCoordinator coordinator(&fixture.table.value(), options);
    MultiCountPlan plan(fixture.spec);
    const Status status = coordinator.Execute(&plan);
    ASSERT_TRUE(status.ok()) << "k=" << k << ": " << status.ToString();
    ExpectPlansIdentical(plan, fixture.reference);
    EXPECT_GE(coordinator.scan_stats().retries, 1) << "k=" << k;
    EXPECT_GE(coordinator.scan_stats().workers_respawned, 1) << "k=" << k;
  }
}

/// Transport-level faults beyond a clean crash: a truncated reply frame
/// followed by death, and a garbage frame. Both must mark the daemon
/// broken and fail over without poisoning the merge.
TEST(FaultToleranceTest, CorruptFramesFailOverBitExactly) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  for (const std::string kind : {"crash-mid-frame", "garbage-frame"}) {
    FaultFixture fixture(700, 35, 4, "fault_" + kind);
    ScopedEnv fault("OPTRULES_WORKERD_FAULT", kind.c_str());
    const std::string token = WriteFaultToken("corrupt_token_" + kind);
    ScopedEnv token_env("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
    DistributedScanOptions options;
    options.worker_kind = WorkerKind::kSubprocess;
    // Static scheduling makes every daemon serve its own stride, so the
    // one that claimed the fault token at spawn always gets a request.
    options.scheduling = ScanScheduling::kStatic;
    options.max_workers = 2;
    DistributedScanCoordinator coordinator(&fixture.table.value(), options);
    MultiCountPlan plan(fixture.spec);
    const Status status = coordinator.Execute(&plan);
    ASSERT_TRUE(status.ok()) << kind << ": " << status.ToString();
    ExpectPlansIdentical(plan, fixture.reference);
    EXPECT_GE(coordinator.scan_stats().retries, 1) << kind;
    EXPECT_GE(coordinator.scan_stats().workers_respawned, 1) << kind;
  }
}

/// A clean kError frame is a request failure, not a transport failure:
/// the daemon answered and stays in the roster; only the partition is
/// retried.
TEST(FaultToleranceTest, ErrorFrameRetriesWithoutRespawning) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  FaultFixture fixture(600, 37, 4, "fault_error_frame");
  ScopedEnv fault("OPTRULES_WORKERD_FAULT", "error-frame");
  const std::string token = WriteFaultToken("error_frame_token");
  ScopedEnv token_env("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
  DistributedScanOptions options;
  options.worker_kind = WorkerKind::kSubprocess;
  // Static scheduling makes every daemon serve its own stride, so the
  // one that claimed the fault token at spawn always gets a request.
  options.scheduling = ScanScheduling::kStatic;
  options.max_workers = 2;
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_GE(coordinator.scan_stats().retries, 1);
  EXPECT_EQ(coordinator.scan_stats().workers_respawned, 0);
}

/// Liveness vs deadline, hung side: a daemon that sleeps with heartbeats
/// SUPPRESSED is declared hung after liveness_timeout_ms, SIGKILLed, and
/// its partition retried -- long before its 30 s nap would end.
TEST(FaultToleranceTest, HungDaemonIsKilledAndRetried) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  FaultFixture fixture(500, 39, 3, "fault_hang");
  ScopedEnv fault("OPTRULES_WORKERD_FAULT", "hang:30000");
  const std::string token = WriteFaultToken("hang_token");
  ScopedEnv token_env("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
  DistributedScanOptions options;
  options.worker_kind = WorkerKind::kSubprocess;
  // Static scheduling makes every daemon serve its own stride, so the
  // one that claimed the fault token at spawn always gets a request.
  options.scheduling = ScanScheduling::kStatic;
  options.max_workers = 3;
  options.liveness_timeout_ms = 300;
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_GE(coordinator.scan_stats().retries, 1);
  EXPECT_GE(coordinator.scan_stats().workers_respawned, 1);
  EXPECT_LT(elapsed.count(), 15'000) << "hung daemon was waited out";
}

/// Liveness vs deadline, slow side: a daemon that stalls WITH heartbeats
/// running is provably alive, so the same liveness timeout must NOT kill
/// it -- the scan just takes the extra 600 ms and nothing retries.
TEST(FaultToleranceTest, StragglerWithHeartbeatsIsNotKilled) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  FaultFixture fixture(500, 41, 3, "fault_stall");
  ScopedEnv fault("OPTRULES_WORKERD_FAULT", "stall:600");
  const std::string token = WriteFaultToken("stall_token");
  ScopedEnv token_env("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
  DistributedScanOptions options;
  options.worker_kind = WorkerKind::kSubprocess;
  options.max_workers = 3;
  options.liveness_timeout_ms = 300;  // < the stall, yet no kill
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_EQ(coordinator.scan_stats().retries, 0);
  EXPECT_EQ(coordinator.scan_stats().workers_respawned, 0);
}

/// The per-partition deadline caps even a live straggler: heartbeats keep
/// it past the liveness check, but the total budget expires, the daemon
/// is killed, and the retry (with a backed-off, doubled deadline) lands
/// on a clean respawn.
TEST(FaultToleranceTest, PartitionDeadlineKillsLiveStraggler) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  FaultFixture fixture(500, 43, 3, "fault_deadline");
  ScopedEnv fault("OPTRULES_WORKERD_FAULT", "stall:5000");
  const std::string token = WriteFaultToken("deadline_token");
  ScopedEnv token_env("OPTRULES_WORKERD_FAULT_TOKEN", token.c_str());
  DistributedScanOptions options;
  options.worker_kind = WorkerKind::kSubprocess;
  // Static scheduling makes every daemon serve its own stride, so the
  // one that claimed the fault token at spawn always gets a request.
  options.scheduling = ScanScheduling::kStatic;
  options.max_workers = 3;
  options.partition_deadline_ms = 400;
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_GE(coordinator.scan_stats().retries, 1);
  EXPECT_GE(coordinator.scan_stats().workers_respawned, 1);
  EXPECT_LT(elapsed.count(), 5'000) << "deadline did not cut the stall";
}

/// Work stealing: with one worker slot stuck on its first partition, an
/// idle peer drains the rest of its static stride. Same bits, and the
/// partitions_stolen counter proves the path ran.
TEST(FaultToleranceTest, IdleWorkersStealFromStragglers) {
  FaultFixture fixture(1000, 45, 8, "fault_steal");
  DistributedScanOptions options;
  options.max_workers = 2;
  // Worker slot 0 sleeps 400 ms on its first scan; slot 1 finishes its
  // own four partitions in a fraction of that and steals slot 0's rest.
  options.worker_factory =
      FaultyWorkerFactory(0, {{.at_call = 0, .delay_ms = 400}});
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_GE(coordinator.scan_stats().partitions_stolen, 1);
  EXPECT_EQ(coordinator.scan_stats().retries, 0);
  EXPECT_EQ(coordinator.scan_stats().workers_respawned, 0);
}

/// The legacy static schedule never steals: the same straggler setup
/// completes with partitions_stolen == 0 (and the same bits).
TEST(FaultToleranceTest, StaticSchedulingNeverSteals) {
  FaultFixture fixture(1000, 45, 8, "fault_static");
  DistributedScanOptions options;
  options.max_workers = 2;
  options.scheduling = ScanScheduling::kStatic;
  options.worker_factory =
      FaultyWorkerFactory(0, {{.at_call = 0, .delay_ms = 200}});
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_EQ(coordinator.scan_stats().partitions_stolen, 0);
}

/// Retry budget: a partition that fails on every attempt eventually
/// fails the scan with ITS error, after exactly the configured number of
/// attempts.
TEST(FaultToleranceTest, RetryBudgetExhaustionFailsTheScan) {
  FaultFixture fixture(300, 49, 2, "fault_budget");
  DistributedScanOptions options;
  options.max_workers = 1;
  options.max_partition_attempts = 2;
  std::vector<InjectedFault> always_failing;
  for (int call = 0; call < 8; ++call) {
    always_failing.push_back(
        {.at_call = call, .status = Status::Internal("persistent fault")});
  }
  options.worker_factory = FaultyWorkerFactory(0, always_failing);
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  const Status status = coordinator.Execute(&plan);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(coordinator.scan_stats().retries, 1);  // 2 attempts = 1 retry
}

/// InvalidArgument is permanent: no retry, the scan fails immediately.
TEST(FaultToleranceTest, PermanentFailuresAreNotRetried) {
  FaultFixture fixture(300, 51, 2, "fault_permanent");
  DistributedScanOptions options;
  options.max_workers = 1;
  options.worker_factory = FaultyWorkerFactory(
      0, {{.at_call = 0,
           .status = Status::InvalidArgument("bad spec for partition")}});
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  const Status status = coordinator.Execute(&plan);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.scan_stats().retries, 0);
}

/// When every worker is dead and the respawn budget is spent, the scan
/// fails cleanly instead of hanging or spinning forever.
TEST(FaultToleranceTest, DeadFleetWithExhaustedBudgetFailsCleanly) {
  FaultFixture fixture(300, 53, 2, "fault_dead_fleet");
  DistributedScanOptions options;
  options.max_workers = 1;
  options.max_respawns = 1;
  auto lethal_factory = []() -> Result<std::unique_ptr<ScanWorker>> {
    std::vector<InjectedFault> faults;
    for (int call = 0; call < 8; ++call) {
      faults.push_back({.at_call = call,
                        .status = Status::IoError("worker keeps dying"),
                        .mark_unhealthy = true});
    }
    return std::unique_ptr<ScanWorker>(
        std::make_unique<FaultInjectingScanWorker>(
            std::make_unique<InProcessScanWorker>(), std::move(faults)));
  };
  options.worker_factory = lethal_factory;
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  MultiCountPlan plan(fixture.spec);
  EXPECT_FALSE(coordinator.Execute(&plan).ok());
}

/// The roster-retention fix: one bad partition must no longer re-fork
/// every healthy daemon. A scan that fails because a partition file
/// vanished keeps all daemons (they answered with clean error frames);
/// once the file is restored the SAME daemons serve the next Execute,
/// with zero respawns.
TEST(FaultToleranceTest, FailedExecuteKeepsHealthyDaemons) {
  if (ResolveWorkerdPath("").empty()) {
    GTEST_SKIP() << "OPTRULES_WORKERD not set";
  }
  ScopedFaultsOff no_faults;  // the respawn count below must isolate the fix
  FaultFixture fixture(600, 55, 3, "fault_roster");
  DistributedScanOptions options;
  options.worker_kind = WorkerKind::kSubprocess;
  options.max_workers = 3;
  DistributedScanCoordinator coordinator(&fixture.table.value(), options);
  const std::string victim = fixture.table.value().PartitionPath(1);
  const std::string hidden = victim + ".hidden";
  std::filesystem::rename(victim, hidden);
  MultiCountPlan failing(fixture.spec);
  ASSERT_FALSE(coordinator.Execute(&failing).ok());
  std::filesystem::rename(hidden, victim);
  MultiCountPlan plan(fixture.spec);
  ASSERT_TRUE(coordinator.Execute(&plan).ok());
  ExpectPlansIdentical(plan, fixture.reference);
  EXPECT_EQ(coordinator.scan_stats().workers_respawned, 0)
      << "healthy daemons were re-forked after an unrelated failure";
}

/// The fault counters flow through MiningEngine::scan_stats(), so a
/// session can report its retries/respawns/steals without reaching into
/// the coordinator.
TEST(FaultToleranceTest, EngineScanStatsExposeFaultCounters) {
  const storage::Relation relation = TestRelation(900, 57);
  const std::string dir = TempDir("fault_engine_stats");
  PartitionOptions partition_options;
  partition_options.num_partitions = 4;
  Result<PartitionedTable> table =
      PartitionRelation(relation, dir, partition_options);
  ASSERT_TRUE(table.ok());
  DistributedScanOptions scan_options;
  scan_options.max_workers = 2;
  // Static scheduling pins partition 0 to the faulty slot 0, so the fault
  // always fires (under the work queue a fast peer may steal it first).
  scan_options.scheduling = ScanScheduling::kStatic;
  scan_options.worker_factory = FaultyWorkerFactory(
      0, {{.at_call = 0,
           .status = Status::IoError("injected transport death"),
           .mark_unhealthy = true}});
  rules::MinerOptions options;
  options.num_buckets = 12;
  rules::MiningEngine engine(&table.value(), options, scan_options);
  ASSERT_TRUE(engine.TryPrepare().ok());
  EXPECT_GE(engine.scan_stats().retries, 1);
  EXPECT_GE(engine.scan_stats().workers_respawned, 1);
  std::filesystem::remove_all(dir);
}

// ------------------------------------- engine over a PartitionedTable ----

using rules::MinedAggregateRange;
using rules::MinedRegion;
using rules::MinedRule;
using rules::MinerOptions;
using rules::MiningEngine;

void ExpectSameRules(const std::vector<MinedRule>& a,
                     const std::vector<MinedRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].found, b[i].found) << "rule " << i;
    ASSERT_EQ(a[i].range_lo, b[i].range_lo) << "rule " << i;
    ASSERT_EQ(a[i].range_hi, b[i].range_hi) << "rule " << i;
    ASSERT_EQ(a[i].support_count, b[i].support_count) << "rule " << i;
    ASSERT_EQ(a[i].hit_count, b[i].hit_count) << "rule " << i;
    ASSERT_EQ(a[i].support, b[i].support) << "rule " << i;
    ASSERT_EQ(a[i].confidence, b[i].confidence) << "rule " << i;
  }
}

void ExpectSameAggregate(const Result<MinedAggregateRange>& a_or,
                         const Result<MinedAggregateRange>& b_or) {
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  const MinedAggregateRange& a = a_or.value();
  const MinedAggregateRange& b = b_or.value();
  ASSERT_EQ(a.found, b.found);
  ASSERT_EQ(a.range_lo, b.range_lo);
  ASSERT_EQ(a.range_hi, b.range_hi);
  ASSERT_EQ(a.support_count, b.support_count);
  ASSERT_EQ(a.support, b.support);
  ASSERT_EQ(a.average, b.average);
}

void ExpectSameRegion(const Result<MinedRegion>& a_or,
                      const Result<MinedRegion>& b_or) {
  ASSERT_TRUE(a_or.ok());
  ASSERT_TRUE(b_or.ok());
  const MinedRegion& a = a_or.value();
  const MinedRegion& b = b_or.value();
  ASSERT_EQ(a.found, b.found);
  ASSERT_EQ(a.nx, b.nx);
  ASSERT_EQ(a.ny, b.ny);
  ASSERT_EQ(a.total_tuples, b.total_tuples);
  ASSERT_EQ(a.confidence_rectangle.support_count,
            b.confidence_rectangle.support_count);
  ASSERT_EQ(a.confidence_rectangle.hit_count,
            b.confidence_rectangle.hit_count);
  ASSERT_EQ(a.support_rectangle.support_count,
            b.support_rectangle.support_count);
  ASSERT_EQ(a.xmonotone_gain.gain, b.xmonotone_gain.gain);
  ASSERT_EQ(a.xmonotone_gain.column_ranges, b.xmonotone_gain.column_ranges);
}

/// The acceptance contract: a full mixed session (all-pairs + generalized
/// + average + region) over a PartitionedTable with K in {1, 3, 8}
/// partitions, in-process and subprocess workers, is bit-identical to the
/// single-PagedFile engine, with counting_scans() == 1 (K physical
/// partition scans behind it). kExactSort keeps boundary planning
/// permutation-invariant so the partitioned row order cannot leak in.
TEST(PartitionedEngineTest, MixedSessionMatchesSinglePagedFile) {
  const storage::Relation relation = TestRelation(4000, 23, 4, 3);
  const storage::Schema& schema = relation.schema();
  MinerOptions options;
  options.num_buckets = 60;
  options.region_grid_buckets = 12;
  options.bucketizer = rules::Bucketizer::kExactSort;

  const std::string paged = testing::TempDir() + "/dist_engine_single.optr";
  ASSERT_TRUE(storage::WriteRelationToFile(relation, paged).ok());
  auto single_source = storage::PagedFileBatchSource::Open(paged);
  ASSERT_TRUE(single_source.ok());
  MiningEngine reference(single_source.value().get(), schema, options);
  const auto run_session = [&schema](MiningEngine& engine) {
    ASSERT_TRUE(engine.RequestGeneralized({schema.BooleanName(0)}).ok());
    ASSERT_TRUE(engine.RequestAverageTarget(schema.NumericName(1)).ok());
    ASSERT_TRUE(
        engine
            .RequestRegionPair(schema.NumericName(0), schema.NumericName(1))
            .ok());
    engine.Prepare();
  };
  run_session(reference);
  const std::vector<MinedRule> reference_rules = reference.MineAllPairs();
  const auto reference_generalized = reference.MineGeneralized(
      schema.NumericName(2), {schema.BooleanName(0)}, schema.BooleanName(1));
  ASSERT_TRUE(reference_generalized.ok());
  const auto reference_average = reference.MineMaximumAverageRange(
      schema.NumericName(0), schema.NumericName(1), 0.1);
  const auto reference_support = reference.MineMaximumSupportRange(
      schema.NumericName(0), schema.NumericName(1), 1e5);
  const auto reference_region = reference.MineOptimizedRegion(
      schema.NumericName(0), schema.NumericName(1), schema.BooleanName(0));
  ASSERT_EQ(reference.counting_scans(), 1);

  const bool have_workerd = !ResolveWorkerdPath("").empty();
  for (const int k : {1, 3, 8}) {
    const std::string dir =
        TempDir("engine_mixed_k" + std::to_string(k));
    PartitionOptions partition_options;
    partition_options.num_partitions = k;
    Result<PartitionedTable> table =
        PartitionRelation(relation, dir, partition_options);
    ASSERT_TRUE(table.ok());

    std::vector<DistributedScanOptions> variants;
    variants.push_back({});  // in-process, one worker per partition
    DistributedScanOptions two_workers;
    two_workers.max_workers = 2;
    variants.push_back(two_workers);
    if (have_workerd) {
      DistributedScanOptions subprocess;
      subprocess.worker_kind = WorkerKind::kSubprocess;
      subprocess.max_workers = k == 1 ? 1 : 2;
      variants.push_back(subprocess);
    }
    for (const DistributedScanOptions& variant : variants) {
      MiningEngine engine(&table.value(), options, variant);
      run_session(engine);
      ExpectSameRules(engine.MineAllPairs(), reference_rules);
      const auto generalized = engine.MineGeneralized(
          schema.NumericName(2), {schema.BooleanName(0)},
          schema.BooleanName(1));
      ASSERT_TRUE(generalized.ok());
      ExpectSameRules(generalized.value(), reference_generalized.value());
      ExpectSameAggregate(
          engine.MineMaximumAverageRange(schema.NumericName(0),
                                         schema.NumericName(1), 0.1),
          reference_average);
      ExpectSameAggregate(
          engine.MineMaximumSupportRange(schema.NumericName(0),
                                         schema.NumericName(1), 1e5),
          reference_support);
      ExpectSameRegion(
          engine.MineOptimizedRegion(schema.NumericName(0),
                                     schema.NumericName(1),
                                     schema.BooleanName(0)),
          reference_region);
      EXPECT_EQ(engine.counting_scans(), 1)
          << "k=" << k << " subprocess="
          << (variant.worker_kind == WorkerKind::kSubprocess);
    }
    std::filesystem::remove_all(dir);
  }
  std::remove(paged.c_str());
}

/// The table's rows with its partitions concatenated in manifest order:
/// the row order a partitioned engine's boundary planning samples.
storage::Relation ManifestOrderRelation(const PartitionedTable& table) {
  const storage::Schema& schema = table.schema();
  storage::Relation relation(schema);
  std::vector<double> numeric(static_cast<size_t>(schema.num_numeric()));
  std::vector<uint8_t> boolean(static_cast<size_t>(schema.num_boolean()));
  PartitionedTableBatchSource source(&table, 512);
  std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
  storage::ColumnarBatch batch;
  while (reader->Next(&batch)) {
    for (size_t r = 0; r < static_cast<size_t>(batch.num_rows()); ++r) {
      for (size_t a = 0; a < numeric.size(); ++a) {
        numeric[a] = batch.numeric(static_cast<int>(a))[r];
      }
      for (size_t b = 0; b < boolean.size(); ++b) {
        boolean[b] = batch.boolean(static_cast<int>(b))[r];
      }
      relation.AppendRow(numeric, boolean);
    }
  }
  return relation;
}

/// Sampled planning draws the in-memory path's row indices and gathers
/// them over the partitions in manifest order, so a full mixed session
/// under the default sampling bucketizer is bit-identical to an in-memory
/// engine over the manifest-order rows, for any K and either worker
/// kind. At K = 1 that order is the original table's, so the legacy Miner
/// over it is a reference too.
TEST(PartitionedEngineTest, SamplingSessionMatchesManifestOrderEngine) {
  const storage::Relation relation = TestRelation(3000, 24, 4, 3);
  const storage::Schema& schema = relation.schema();
  MinerOptions options;
  options.num_buckets = 40;
  options.region_grid_buckets = 8;
  const std::string x = schema.NumericName(0);
  const std::string y = schema.NumericName(1);
  const std::string z = schema.NumericName(2);
  const std::string target = schema.BooleanName(0);
  const std::vector<std::string> condition = {schema.BooleanName(1)};
  const auto expect_same_session = [&](MiningEngine& engine,
                                       auto& reference) {
    ExpectSameRules(engine.MineGeneralized(x, condition, target).value(),
                    reference.MineGeneralized(x, condition, target).value());
    ExpectSameAggregate(engine.MineMaximumAverageRange(x, y, 0.1),
                        reference.MineMaximumAverageRange(x, y, 0.1));
    ExpectSameAggregate(engine.MineMaximumSupportRange(x, z, 1e5),
                        reference.MineMaximumSupportRange(x, z, 1e5));
    ExpectSameRegion(engine.MineOptimizedRegion(x, y, target),
                     reference.MineOptimizedRegion(x, y, target));
  };

  const bool have_workerd = !ResolveWorkerdPath("").empty();
  for (const int k : {1, 3, 8}) {
    const std::string dir = TempDir("engine_sampling_k" + std::to_string(k));
    PartitionOptions partition_options;
    partition_options.num_partitions = k;
    Result<PartitionedTable> table =
        PartitionRelation(relation, dir, partition_options);
    ASSERT_TRUE(table.ok());
    const storage::Relation ordered = ManifestOrderRelation(table.value());
    MiningEngine reference(&ordered, options);
    const std::vector<MinedRule> reference_rules = reference.MineAllPairs();
    if (k == 1) {
      rules::Miner legacy(&relation, options);
      ExpectSameRules(reference_rules, legacy.MineAll());
      expect_same_session(reference, legacy);
    }

    std::vector<DistributedScanOptions> variants(1);  // in-process
    if (have_workerd) {
      DistributedScanOptions subprocess;
      subprocess.worker_kind = WorkerKind::kSubprocess;
      subprocess.max_workers = 2;
      variants.push_back(subprocess);
    }
    for (const DistributedScanOptions& variant : variants) {
      SCOPED_TRACE("k=" + std::to_string(k) + " subprocess=" +
                   std::to_string(variant.worker_kind ==
                                  WorkerKind::kSubprocess));
      MiningEngine engine(&table.value(), options, variant);
      ASSERT_TRUE(engine.RequestGeneralized(condition).ok());
      ASSERT_TRUE(engine.RequestAverageTarget(y).ok());
      ASSERT_TRUE(engine.RequestAverageTarget(z).ok());
      ASSERT_TRUE(engine.RequestRegionPair(x, y).ok());
      ExpectSameRules(engine.MineAllPairs(), reference_rules);
      expect_same_session(engine, reference);
      EXPECT_EQ(engine.counting_scans(), 1);
    }
    std::filesystem::remove_all(dir);
  }
}

/// Misconfigured distributed sessions surface a Status through
/// TryPrepare instead of aborting the host process, and recover once the
/// configuration is fixable (here: switching worker kinds).
TEST(PartitionedEngineTest, TryPrepareSurfacesWorkerFailures) {
  const storage::Relation relation = TestRelation(300, 27);
  const std::string dir = TempDir("engine_try_prepare");
  PartitionOptions partition_options;
  partition_options.num_partitions = 2;
  Result<PartitionedTable> table =
      PartitionRelation(relation, dir, partition_options);
  ASSERT_TRUE(table.ok());
  DistributedScanOptions scan_options;
  scan_options.worker_kind = WorkerKind::kSubprocess;
  scan_options.workerd_path = "/no/such/binary";
  MinerOptions options;
  options.num_buckets = 8;
  {
    MiningEngine engine(&table.value(), options, scan_options);
    const Status status = engine.TryPrepare();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(engine.counting_scans(), 0);
  }
  // Same table, in-process workers: fine.
  MiningEngine engine(&table.value(), options);
  EXPECT_TRUE(engine.TryPrepare().ok());
  EXPECT_EQ(engine.counting_scans(), 1);
  std::filesystem::remove_all(dir);
}

/// A partition deleted AFTER Open but BEFORE the session starts fails
/// softly through TryPrepare's up-front revalidation.
TEST(PartitionedEngineTest, TryPrepareSurfacesVanishedPartition) {
  const storage::Relation relation = TestRelation(200, 28);
  const std::string dir = TempDir("engine_vanished_partition");
  PartitionOptions partition_options;
  partition_options.num_partitions = 2;
  Result<PartitionedTable> table =
      PartitionRelation(relation, dir, partition_options);
  ASSERT_TRUE(table.ok());
  std::filesystem::remove(table.value().PartitionPath(1));
  MinerOptions options;
  options.num_buckets = 8;
  MiningEngine engine(&table.value(), options);
  const Status status = engine.TryPrepare();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(engine.counting_scans(), 0);
  std::filesystem::remove_all(dir);
}

/// A late region pair on a partitioned engine costs the documented one
/// supplemental (distributed) scan and still matches the reference.
TEST(PartitionedEngineTest, LateRegionPairCostsOneSupplementalScan) {
  const storage::Relation relation = TestRelation(1200, 25);
  const storage::Schema& schema = relation.schema();
  MinerOptions options;
  options.num_buckets = 30;
  options.region_grid_buckets = 8;
  options.bucketizer = rules::Bucketizer::kExactSort;
  const std::string dir = TempDir("engine_late_region");
  PartitionOptions partition_options;
  partition_options.num_partitions = 3;
  Result<PartitionedTable> table =
      PartitionRelation(relation, dir, partition_options);
  ASSERT_TRUE(table.ok());
  MiningEngine engine(&table.value(), options);
  engine.MineAllPairs();
  EXPECT_EQ(engine.counting_scans(), 1);
  const auto region = engine.MineOptimizedRegion(
      schema.NumericName(0), schema.NumericName(1), schema.BooleanName(0));
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(engine.counting_scans(), 2);

  rules::Miner legacy(&relation, options);
  // kExactSort boundaries are permutation-invariant, so the legacy miner
  // over the unpartitioned relation is still the bit-identical reference.
  const auto expected = legacy.MineOptimizedRegion(
      schema.NumericName(0), schema.NumericName(1), schema.BooleanName(0));
  ExpectSameRegion(region, expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace optrules::dist
