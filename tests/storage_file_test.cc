// Tests for PagedFile, the paged batch readers, and the external merge
// sort.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/external_sort.h"
#include "storage/paged_file.h"

namespace optrules::storage {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Relation RandomRelation(int64_t rows, int num_numeric, int num_boolean,
                        uint64_t seed) {
  Relation r(Schema::Synthetic(num_numeric, num_boolean));
  Rng rng(seed);
  std::vector<double> numeric(static_cast<size_t>(num_numeric));
  std::vector<uint8_t> boolean(static_cast<size_t>(num_boolean));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& x : numeric) x = rng.NextUniform(-100.0, 100.0);
    for (auto& b : boolean) b = rng.NextBernoulli(0.4) ? 1 : 0;
    r.AppendRow(numeric, boolean);
  }
  return r;
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAllBytes(const std::string& path,
                   const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(PagedFileTest, RoundTrip) {
  const std::string path = TempPath("roundtrip.optr");
  const Relation original = RandomRelation(257, 3, 2, 1);
  ASSERT_TRUE(WriteRelationToFile(original, path).ok());

  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().num_numeric, 3);
  EXPECT_EQ(info.value().num_boolean, 2);
  EXPECT_EQ(info.value().num_rows, 257);
  EXPECT_EQ(info.value().row_bytes, 26u);

  Result<Relation> loaded =
      ReadRelationFromFile(path, Schema::Synthetic(3, 2));
  ASSERT_TRUE(loaded.ok());
  const Relation& r = loaded.value();
  ASSERT_EQ(r.NumRows(), original.NumRows());
  for (int64_t row = 0; row < r.NumRows(); ++row) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(r.NumericValue(row, c),
                       original.NumericValue(row, c));
    }
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(r.BooleanValue(row, c), original.BooleanValue(row, c));
    }
  }
  std::remove(path.c_str());
}

TEST(PagedFileTest, EmptyTableRoundTrip) {
  const std::string path = TempPath("empty.optr");
  ASSERT_TRUE(
      WriteRelationToFile(Relation(Schema::Synthetic(1, 1)), path).ok());
  Result<Relation> loaded =
      ReadRelationFromFile(path, Schema::Synthetic(1, 1));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumRows(), 0);
  std::remove(path.c_str());
}

TEST(PagedFileTest, SchemaMismatchRejected) {
  const std::string path = TempPath("mismatch.optr");
  ASSERT_TRUE(WriteRelationToFile(RandomRelation(5, 2, 1, 2), path).ok());
  EXPECT_EQ(
      ReadRelationFromFile(path, Schema::Synthetic(1, 1)).status().code(),
      StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PagedFileTest, BadMagicIsCorruption) {
  const std::string path = TempPath("badmagic.optr");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = "this is not a paged file at all.................";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_EQ(ReadPagedFileInfo(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedFileTest, ShortHeaderIsCorruption) {
  const std::string path = TempPath("short.optr");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("OPTR", 1, 4, f);
  std::fclose(f);
  EXPECT_EQ(ReadPagedFileInfo(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedFileTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadPagedFileInfo("/no/such/file.optr").status().code(),
            StatusCode::kIoError);
}

TEST(PagedFileTest, InvalidAttributeCountsRejected) {
  EXPECT_FALSE(
      PagedFileWriter::Create(TempPath("zero.optr"), 0, 0).ok());
}

// ------------------------------------------------------ external sort ----

/// Serializes `relation` as headerless fixed-width records in the v1 row
/// layout (doubles, then Boolean bytes) -- the shape ExternalSort sorts.
std::vector<uint8_t> RowRecords(const Relation& relation) {
  const size_t row_bytes = relation.schema().RowBytes();
  const int num_numeric = relation.schema().num_numeric();
  std::vector<uint8_t> bytes(row_bytes *
                             static_cast<size_t>(relation.NumRows()));
  for (int64_t row = 0; row < relation.NumRows(); ++row) {
    uint8_t* out = bytes.data() + static_cast<size_t>(row) * row_bytes;
    for (int c = 0; c < num_numeric; ++c) {
      const double value = relation.NumericValue(row, c);
      std::memcpy(out + static_cast<size_t>(c) * sizeof(double), &value,
                  sizeof(double));
    }
    for (int b = 0; b < relation.schema().num_boolean(); ++b) {
      out[static_cast<size_t>(num_numeric) * sizeof(double) +
          static_cast<size_t>(b)] = relation.BooleanValue(row, b) ? 1 : 0;
    }
  }
  return bytes;
}

/// The `record_bytes`-wide records of `bytes`, one string each.
std::vector<std::string> SplitRecords(const std::vector<uint8_t>& bytes,
                                      size_t record_bytes) {
  std::vector<std::string> records;
  for (size_t at = 0; at + record_bytes <= bytes.size(); at += record_bytes) {
    records.emplace_back(reinterpret_cast<const char*>(bytes.data() + at),
                         record_bytes);
  }
  return records;
}

double DoubleAt(const std::string& record, size_t offset) {
  double value;
  std::memcpy(&value, record.data() + offset, sizeof(double));
  return value;
}

struct ExternalSortCase {
  int64_t rows;
  size_t memory_budget;
  uint64_t seed;
};

class ExternalSortTest : public testing::TestWithParam<ExternalSortCase> {};

TEST_P(ExternalSortTest, SortsByKeyAttribute) {
  const ExternalSortCase& param = GetParam();
  const std::string input = TempPath("sort_in.bin");
  const std::string output = TempPath("sort_out.bin");
  const Relation relation = RandomRelation(param.rows, 2, 1, param.seed);
  const std::vector<uint8_t> records = RowRecords(relation);
  WriteAllBytes(input, records);

  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.key_offset = sizeof(double);  // sort by numeric attribute 1
  options.memory_budget_bytes = param.memory_budget;
  options.temp_dir = testing::TempDir();
  Result<ExternalSortStats> stats = ExternalSort(input, output, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_records, param.rows);

  const std::vector<uint8_t> sorted_bytes = ReadAllBytes(output);
  ASSERT_EQ(sorted_bytes.size(), records.size());
  const std::vector<std::string> sorted =
      SplitRecords(sorted_bytes, options.record_bytes);
  // Keys ascending, and the multiset of whole records preserved.
  std::vector<double> keys;
  for (const std::string& record : sorted) {
    keys.push_back(DoubleAt(record, options.key_offset));
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  std::vector<std::string> expected =
      SplitRecords(records, options.record_bytes);
  std::vector<std::string> got = sorted;
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  std::remove(input.c_str());
  std::remove(output.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSortTest,
    testing::Values(
        ExternalSortCase{0, 1 << 20, 1},       // empty input
        ExternalSortCase{1, 1 << 20, 2},       // single record
        ExternalSortCase{100, 1 << 20, 3},     // single in-memory run
        ExternalSortCase{5000, 4096, 4},       // many runs, k-way merge
        ExternalSortCase{5000, 26 * 7, 5},     // tiny budget: 7-record runs
        ExternalSortCase{20000, 1 << 14, 6}    // wide merge fan-in
        ));

TEST(ExternalSortErrorsTest, RejectsZeroRecordBytes) {
  ExternalSortOptions options;
  options.record_bytes = 0;
  EXPECT_EQ(ExternalSort("x", "y", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExternalSortErrorsTest, RejectsKeyOutsideRecord) {
  ExternalSortOptions options;
  options.record_bytes = 8;
  options.key_offset = 4;
  EXPECT_EQ(ExternalSort("x", "y", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExternalSortErrorsTest, MissingInputIsIoError) {
  ExternalSortOptions options;
  options.record_bytes = 16;
  EXPECT_EQ(
      ExternalSort("/no/such/input", TempPath("out.bin"), options)
          .status()
          .code(),
      StatusCode::kIoError);
}

TEST(ExternalSortTest, PreservesWholeRecords) {
  // Sorting must move whole rows, not just keys: check that the boolean
  // payload still matches its numeric partner after the sort.
  const std::string input = TempPath("pairs_in.bin");
  const std::string output = TempPath("pairs_out.bin");
  Relation relation(Schema::Synthetic(1, 1));
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(0.0, 1.0);
    const uint8_t flag = v > 0.5 ? 1 : 0;  // payload derivable from key
    const double row[] = {v};
    relation.AppendRow(row, std::span<const uint8_t>(&flag, 1));
  }
  WriteAllBytes(input, RowRecords(relation));
  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.key_offset = 0;
  options.memory_budget_bytes = 512;
  options.temp_dir = testing::TempDir();
  ASSERT_TRUE(ExternalSort(input, output, options).ok());
  const std::vector<std::string> sorted =
      SplitRecords(ReadAllBytes(output), options.record_bytes);
  ASSERT_EQ(sorted.size(), 1000u);
  for (const std::string& record : sorted) {
    EXPECT_EQ(record[sizeof(double)] != 0, DoubleAt(record, 0) > 0.5);
  }
  std::remove(input.c_str());
  std::remove(output.c_str());
}

TEST(ExternalSortTest, NanKeysSortAfterEveryNumber) {
  // NaN keys are not ordered by <; the sort must still be a strict weak
  // ordering (runs and merge agree), placing every NaN after +inf.
  const std::string input = TempPath("nan_in.bin");
  const std::string output = TempPath("nan_out.bin");
  Relation relation(Schema::Synthetic(1, 1));
  Rng rng(8);
  const double specials[] = {std::nan(""), -std::nan(""), INFINITY,
                             -INFINITY, 0.0, -0.0};
  int64_t nan_rows = 0;
  for (int i = 0; i < 3000; ++i) {
    const double v = i % 5 == 0 ? specials[(i / 5) % 6]
                                : rng.NextUniform(-10.0, 10.0);
    nan_rows += std::isnan(v) ? 1 : 0;
    const uint8_t flag = static_cast<uint8_t>(i % 2);
    relation.AppendRow(std::span<const double>(&v, 1),
                       std::span<const uint8_t>(&flag, 1));
  }
  const std::vector<uint8_t> records = RowRecords(relation);
  WriteAllBytes(input, records);
  ExternalSortOptions options;
  options.record_bytes = relation.schema().RowBytes();
  options.memory_budget_bytes = 9 * 64;  // many runs: the merge decides
  options.temp_dir = testing::TempDir();
  ASSERT_TRUE(ExternalSort(input, output, options).ok());
  const std::vector<std::string> sorted =
      SplitRecords(ReadAllBytes(output), options.record_bytes);
  ASSERT_EQ(sorted.size(), 3000u);
  const auto numbers = static_cast<size_t>(3000 - nan_rows);
  std::vector<double> keys;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double key = DoubleAt(sorted[i], 0);
    EXPECT_EQ(std::isnan(key), i >= numbers) << i;
    if (i < numbers) keys.push_back(key);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  std::vector<std::string> expected =
      SplitRecords(records, options.record_bytes);
  std::vector<std::string> got = sorted;
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  std::remove(input.c_str());
  std::remove(output.c_str());
}

// ------------------------------------- double-buffered batch reading ----

/// Drains one full scan of `source` into row-major vectors so scans from
/// different readers/modes can be compared batch-structure and all.
struct DrainedScan {
  std::vector<int64_t> batch_sizes;
  std::vector<double> numeric;
  std::vector<uint8_t> boolean;
};

DrainedScan DrainReader(BatchReader& reader) {
  DrainedScan drained;
  ColumnarBatch batch;
  while (reader.Next(&batch)) {
    drained.batch_sizes.push_back(batch.num_rows());
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      for (int a = 0; a < batch.num_numeric(); ++a) {
        drained.numeric.push_back(batch.numeric(a)[static_cast<size_t>(r)]);
      }
      for (int b = 0; b < batch.num_boolean(); ++b) {
        drained.boolean.push_back(batch.boolean(b)[static_cast<size_t>(r)]);
      }
    }
  }
  return drained;
}

DrainedScan DrainScan(BatchSource& source) {
  return DrainReader(*source.CreateReader());
}

TEST(PagedFileBatchSourceTest, DoubleBufferedBitIdenticalToSynchronous) {
  const int64_t rows = 10007;
  const std::string path = TempPath("double_buffered.optr");
  const Relation relation = RandomRelation(rows, 4, 3, 77);
  ASSERT_TRUE(WriteRelationToFile(relation, path).ok());
  // Batch sizes around the interesting boundaries: 1 row, an odd size, a
  // divisor-free size, exactly the file, larger than the file.
  for (const int64_t batch_rows : {int64_t{1}, int64_t{7}, int64_t{512},
                                   rows, rows + 1000}) {
    SCOPED_TRACE(testing::Message() << "batch_rows=" << batch_rows);
    auto sync_or =
        PagedFileBatchSource::Open(path, batch_rows,
                                   PagedReadMode::kSynchronous);
    auto buffered_or =
        PagedFileBatchSource::Open(path, batch_rows,
                                   PagedReadMode::kDoubleBuffered);
    ASSERT_TRUE(sync_or.ok());
    ASSERT_TRUE(buffered_or.ok());
    const DrainedScan sync = DrainScan(*sync_or.value());
    const DrainedScan buffered = DrainScan(*buffered_or.value());
    EXPECT_EQ(sync.batch_sizes, buffered.batch_sizes);
    EXPECT_EQ(sync.numeric, buffered.numeric);
    EXPECT_EQ(sync.boolean, buffered.boolean);
    EXPECT_EQ(static_cast<int64_t>(sync.batch_sizes.size()),
              (rows + batch_rows - 1) / batch_rows);
  }
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, DoubleBufferedRangeReadersMatchSynchronous) {
  const int64_t rows = 4099;
  const std::string path = TempPath("double_buffered_range.optr");
  const Relation relation = RandomRelation(rows, 2, 2, 78);
  ASSERT_TRUE(WriteRelationToFile(relation, path).ok());
  auto sync_or =
      PagedFileBatchSource::Open(path, 256, PagedReadMode::kSynchronous);
  auto buffered_or =
      PagedFileBatchSource::Open(path, 256, PagedReadMode::kDoubleBuffered);
  ASSERT_TRUE(sync_or.ok());
  ASSERT_TRUE(buffered_or.ok());
  const int64_t splits[] = {0, 1000, 2049, rows};
  for (size_t s = 0; s + 1 < std::size(splits); ++s) {
    auto sync_reader =
        sync_or.value()->CreateRangeReader(splits[s], splits[s + 1]);
    auto buffered_reader =
        buffered_or.value()->CreateRangeReader(splits[s], splits[s + 1]);
    ColumnarBatch sync_batch;
    ColumnarBatch buffered_batch;
    while (sync_reader->Next(&sync_batch)) {
      ASSERT_TRUE(buffered_reader->Next(&buffered_batch));
      ASSERT_EQ(sync_batch.num_rows(), buffered_batch.num_rows());
      for (int a = 0; a < 2; ++a) {
        const auto lhs = sync_batch.numeric(a);
        const auto rhs = buffered_batch.numeric(a);
        ASSERT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin()));
      }
    }
    EXPECT_FALSE(buffered_reader->Next(&buffered_batch));
  }
  std::remove(path.c_str());
}

TEST(PagedFileBatchSourceTest, DoubleBufferedReaderAbandonedMidScan) {
  // Destroying a reader while the prefetcher is ahead must join cleanly
  // (no hang, no touch-after-free); TSan covers the race side.
  const std::string path = TempPath("double_buffered_abandon.optr");
  const Relation relation = RandomRelation(2048, 2, 1, 79);
  ASSERT_TRUE(WriteRelationToFile(relation, path).ok());
  auto source_or =
      PagedFileBatchSource::Open(path, 128, PagedReadMode::kDoubleBuffered);
  ASSERT_TRUE(source_or.ok());
  auto reader = source_or.value()->CreateReader();
  ColumnarBatch batch;
  ASSERT_TRUE(reader->Next(&batch));
  reader.reset();  // abandon with pages outstanding
  std::remove(path.c_str());
}

// ------------------------------------------- columnar v2 page format ----

TEST(PagedFileV2Test, RoundTripAcrossFormatVersions) {
  const Relation original = RandomRelation(1013, 3, 2, 11);
  const std::string v1_path = TempPath("formats_v1.optr");
  const std::string v2_path = TempPath("formats_v2.optr");
  PagedFileWriterOptions v1;
  v1.format = PagedFileFormat::kRowMajorV1;
  ASSERT_TRUE(WriteRelationToFile(original, v1_path, v1).ok());
  ASSERT_TRUE(WriteRelationToFile(original, v2_path).ok());  // default v2

  Result<PagedFileInfo> v1_info = ReadPagedFileInfo(v1_path);
  Result<PagedFileInfo> v2_info = ReadPagedFileInfo(v2_path);
  ASSERT_TRUE(v1_info.ok());
  ASSERT_TRUE(v2_info.ok());
  EXPECT_EQ(v1_info.value().format_version, 1u);
  EXPECT_EQ(v1_info.value().header_bytes, kPagedFileHeaderBytes);
  EXPECT_EQ(v1_info.value().rows_per_page, 0u);
  EXPECT_EQ(v2_info.value().format_version, 2u);
  EXPECT_EQ(v2_info.value().header_bytes, kPagedFileV2HeaderBytes);
  EXPECT_GE(v2_info.value().rows_per_page, 1u);
  EXPECT_EQ(v1_info.value().num_rows, v2_info.value().num_rows);
  EXPECT_EQ(v1_info.value().row_bytes, v2_info.value().row_bytes);

  // Both formats reload to the identical relation, bit for bit.
  Result<Relation> from_v1 =
      ReadRelationFromFile(v1_path, Schema::Synthetic(3, 2));
  Result<Relation> from_v2 =
      ReadRelationFromFile(v2_path, Schema::Synthetic(3, 2));
  ASSERT_TRUE(from_v1.ok());
  ASSERT_TRUE(from_v2.ok());
  ASSERT_EQ(from_v1.value().NumRows(), original.NumRows());
  ASSERT_EQ(from_v2.value().NumRows(), original.NumRows());
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(from_v1.value().NumericColumn(c), original.NumericColumn(c));
    EXPECT_EQ(from_v2.value().NumericColumn(c), original.NumericColumn(c));
  }
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(from_v1.value().BooleanColumn(c), original.BooleanColumn(c));
    EXPECT_EQ(from_v2.value().BooleanColumn(c), original.BooleanColumn(c));
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(PagedFileV2Test, PagesAreFixedStrideAndPartialPageIsZeroFilled) {
  const std::string path = TempPath("partial_page.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 64;
  // Raw-layout assertions below measure the exact file size; keep the
  // optional zone-map trailer out (which also covers the zone-map-less
  // v2 read path).
  options.zone_maps = false;
  // 100 rows / 64 per page = one full page + one partial (36 rows).
  const Relation relation = RandomRelation(100, 2, 1, 12);
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  ASSERT_TRUE(info_or.ok());
  const PagedFileInfo& info = info_or.value();
  EXPECT_EQ(info.rows_per_page, 64u);
  EXPECT_EQ(info.num_pages(), 2);
  EXPECT_EQ(info.rows_in_page(0), 64);
  EXPECT_EQ(info.rows_in_page(1), 36);

  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  ASSERT_EQ(bytes.size(),
            kPagedFileV2HeaderBytes + 2 * info.page_stride());
  const std::span<const uint8_t> all(bytes);
  EXPECT_TRUE(
      ValidateV2Page(info, 0,
                     all.subspan(kPagedFileV2HeaderBytes,
                                 info.page_stride()))
          .ok());
  EXPECT_TRUE(
      ValidateV2Page(info, 1,
                     all.subspan(kPagedFileV2HeaderBytes +
                                     info.page_stride(),
                                 info.page_stride()))
          .ok());
  // Every byte past row 36 in the partial page's runs must be zero.
  const size_t page1 = kPagedFileV2HeaderBytes + info.page_stride();
  for (int c = 0; c < 2; ++c) {
    for (size_t i = 36 * sizeof(double); i < 64 * sizeof(double); ++i) {
      ASSERT_EQ(bytes[page1 + info.numeric_run_offset(c) + i], 0u);
    }
  }
  for (size_t i = 36; i < 64; ++i) {
    ASSERT_EQ(bytes[page1 + info.boolean_run_offset(0) + i], 0u);
  }

  // A stale byte planted in the partial page's dead space must be caught
  // on read (the writer's zero-fill guarantee, enforced).
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const long stale_offset = static_cast<long>(
      page1 + info.numeric_run_offset(1) + 50 * sizeof(double));
  ASSERT_EQ(std::fseek(f, stale_offset, SEEK_SET), 0);
  const uint8_t stale = 0xab;
  ASSERT_EQ(std::fwrite(&stale, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(ReadRelationFromFile(path, Schema::Synthetic(2, 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedFileV2Test, CorruptDirectoryIsCaughtOnRead) {
  const std::string path = TempPath("bad_directory.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 32;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(40, 2, 1, 13), path, options).ok());
  // Flip a directory entry in page 0.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(kPagedFileV2HeaderBytes + 4),
                       SEEK_SET),
            0);
  const uint32_t junk = 0xdeadbeef;
  ASSERT_EQ(std::fwrite(&junk, 1, 4, f), 4u);
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(ReadRelationFromFile(path, Schema::Synthetic(2, 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PagedFileV2Test, BatchScansMatchRelationAcrossFormatsPoolsAndModes) {
  // Multiple pages with batch sizes that do NOT divide rows_per_page, so
  // batches clamp at page boundaries; v1 and v2 files, through pools that
  // cache nothing, thrash, or hold the whole file, in both read modes: the
  // scanned VALUES must be bit-identical to the in-memory relation.
  const int64_t rows = 10007;
  const Relation relation = RandomRelation(rows, 4, 3, 14);
  RelationBatchSource memory(&relation);
  const DrainedScan expected = DrainScan(memory);
  const std::string v1_path = TempPath("scan_v1.optr");
  const std::string v2_path = TempPath("scan_v2.optr");
  PagedFileWriterOptions v1;
  v1.format = PagedFileFormat::kRowMajorV1;
  PagedFileWriterOptions v2;
  v2.rows_per_page = 512;
  ASSERT_TRUE(WriteRelationToFile(relation, v1_path, v1).ok());
  ASSERT_TRUE(WriteRelationToFile(relation, v2_path, v2).ok());
  Result<PagedFileInfo> v2_info = ReadPagedFileInfo(v2_path);
  ASSERT_TRUE(v2_info.ok());
  for (const size_t capacity : {size_t{0}, 2 * v2_info.value().page_stride(),
                                kDefaultBufferPoolBytes}) {
    BufferPool pool(capacity);
    for (const int64_t batch_rows :
         {int64_t{1}, int64_t{7}, int64_t{500}, int64_t{512}, rows}) {
      for (const std::string& path : {v1_path, v2_path}) {
        SCOPED_TRACE(testing::Message() << "capacity=" << capacity
                                        << " batch_rows=" << batch_rows
                                        << " path=" << path);
        auto sync = PagedFileBatchSource::Open(
            path, batch_rows, PagedReadMode::kSynchronous, &pool);
        auto buffered = PagedFileBatchSource::Open(
            path, batch_rows, PagedReadMode::kDoubleBuffered, &pool);
        ASSERT_TRUE(sync.ok());
        ASSERT_TRUE(buffered.ok());
        const DrainedScan sync_scan = DrainScan(*sync.value());
        const DrainedScan buffered_scan = DrainScan(*buffered.value());
        // Batches clamp to scan pages, so their structure differs from the
        // relation's but must agree between the two modes.
        EXPECT_EQ(sync_scan.batch_sizes, buffered_scan.batch_sizes);
        EXPECT_EQ(sync_scan.numeric, expected.numeric);
        EXPECT_EQ(sync_scan.boolean, expected.boolean);
        EXPECT_EQ(buffered_scan.numeric, expected.numeric);
        EXPECT_EQ(buffered_scan.boolean, expected.boolean);
      }
    }
    // A zero-capacity pool evicts every frame as its last pin drops.
    if (capacity == 0) {
      EXPECT_EQ(pool.bytes_used(), 0u);
    }
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(PagedFileV2Test, RangeReadersStartMidPage) {
  // 512 numeric columns make a v1 row 4098 bytes wide, so its scan pages
  // are 256-row blocks -- the same geometry as the v2 file's pages.
  const int64_t rows = 1100;
  const Relation relation = RandomRelation(rows, 512, 2, 15);
  RelationBatchSource memory(&relation);
  const std::string v1_path = TempPath("range_v1.optr");
  const std::string v2_path = TempPath("range_v2.optr");
  PagedFileWriterOptions v1;
  v1.format = PagedFileFormat::kRowMajorV1;
  PagedFileWriterOptions v2;
  v2.rows_per_page = 256;
  ASSERT_TRUE(WriteRelationToFile(relation, v1_path, v1).ok());
  ASSERT_TRUE(WriteRelationToFile(relation, v2_path, v2).ok());
  Result<PagedFileInfo> v1_info = ReadPagedFileInfo(v1_path);
  ASSERT_TRUE(v1_info.ok());
  ASSERT_EQ(ScanGeometry(v1_info.value()).rows_per_page, 256u);
  const size_t page_stride = ScanGeometry(v1_info.value()).page_stride();
  // Shard splits chosen to start mid-page, at a page boundary, and in the
  // final partial page.
  const int64_t splits[] = {0, 77, 256, 700, 1024, 1050, rows};
  for (const size_t capacity :
       {size_t{0}, 2 * page_stride, kDefaultBufferPoolBytes}) {
    BufferPool pool(capacity);
    for (const std::string& path : {v1_path, v2_path}) {
      for (const PagedReadMode mode :
           {PagedReadMode::kSynchronous, PagedReadMode::kDoubleBuffered}) {
        auto source = PagedFileBatchSource::Open(path, 100, mode, &pool);
        ASSERT_TRUE(source.ok());
        for (size_t s = 0; s + 1 < std::size(splits); ++s) {
          SCOPED_TRACE(testing::Message()
                       << "capacity=" << capacity << " path=" << path
                       << " shard=[" << splits[s] << "," << splits[s + 1]
                       << ")");
          auto expected_reader =
              memory.CreateRangeReader(splits[s], splits[s + 1]);
          auto paged_reader =
              source.value()->CreateRangeReader(splits[s], splits[s + 1]);
          // Compare flattened values (batch shapes differ).
          const DrainedScan expected = DrainReader(*expected_reader);
          const DrainedScan got = DrainReader(*paged_reader);
          EXPECT_EQ(got.numeric, expected.numeric);
          EXPECT_EQ(got.boolean, expected.boolean);
        }
      }
    }
    if (capacity == 0) {
      EXPECT_EQ(pool.bytes_used(), 0u);
    }
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

// ----------------------------------------------------------- zone maps ----

TEST(ZoneMapTest, RoundTripValidatesAndCarriesSentinels) {
  const std::string path = TempPath("zones.optr");
  Relation relation(Schema::Synthetic(2, 2));
  // 3 pages of 64: page 1's column 0 is all-NaN (numeric sentinel), and
  // boolean column 1 is true only inside page 2 (max == 0 elsewhere).
  for (int64_t i = 0; i < 160; ++i) {
    const int64_t page = i / 64;
    const double numeric[] = {
        page == 1 ? std::nan("") : static_cast<double>(i),
        1000.0 - static_cast<double>(i)};
    const uint8_t boolean[] = {1, static_cast<uint8_t>(page == 2 ? 1 : 0)};
    relation.AppendRow(numeric, boolean);
  }
  PagedFileWriterOptions options;
  options.rows_per_page = 64;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());

  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  ASSERT_TRUE(info_or.ok());
  const PagedFileInfo& info = info_or.value();
  ASSERT_TRUE(info.has_zone_maps);
  Result<ZoneMapIndex> zones_or = ReadZoneMapIndex(path, info);
  ASSERT_TRUE(zones_or.ok()) << zones_or.status().ToString();
  const ZoneMapIndex& zones = zones_or.value();
  ASSERT_EQ(zones.num_pages, 3);

  // Page 0: column 0 spans [0, 63]; page 1: the all-NaN sentinel
  // (min = +inf > max = -inf); page 2 spans [128, 159].
  EXPECT_EQ(zones.NumericMin(0, 0), 0.0);
  EXPECT_EQ(zones.NumericMax(0, 0), 63.0);
  EXPECT_GT(zones.NumericMin(1, 0), zones.NumericMax(1, 0));
  EXPECT_EQ(zones.NumericMin(2, 0), 128.0);
  EXPECT_EQ(zones.NumericMax(2, 0), 159.0);
  // Boolean 1 has a true row only in page 2.
  EXPECT_EQ(zones.BooleanMax(0, 1), 0);
  EXPECT_EQ(zones.BooleanMax(1, 1), 0);
  EXPECT_EQ(zones.BooleanMax(2, 1), 1);
  EXPECT_EQ(zones.BooleanMin(0, 0), 1);

  // Deep validation: every stored entry is bit-exactly recomputable from
  // its page image.
  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  const std::span<const uint8_t> all(bytes);
  for (int64_t page = 0; page < zones.num_pages; ++page) {
    EXPECT_TRUE(ValidateZoneMapEntry(
                    info, zones, page,
                    all.subspan(kPagedFileV2HeaderBytes +
                                    static_cast<size_t>(page) *
                                        info.page_stride(),
                                info.page_stride()))
                    .ok())
        << "page " << page;
  }

  // The whole-file reader cross-checks zone maps on load and still
  // round-trips the relation exactly.
  Result<Relation> loaded =
      ReadRelationFromFile(path, Schema::Synthetic(2, 2));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().NumericColumn(1), relation.NumericColumn(1));
  std::remove(path.c_str());
}

TEST(ZoneMapTest, WriterOptionTurnsTrailerOff) {
  const std::string path = TempPath("no_zones.optr");
  PagedFileWriterOptions options;
  options.zone_maps = false;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(100, 2, 1, 5), path, options).ok());
  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().has_zone_maps);
  // Zone-map-less v2 files read everywhere; they just never prune.
  EXPECT_TRUE(ReadRelationFromFile(path, Schema::Synthetic(2, 1)).ok());
  std::remove(path.c_str());
}

TEST(ZoneMapTest, TamperedTrailerIsCaught) {
  const std::string path = TempPath("zones_tamper.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 32;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(100, 2, 1, 6), path, options).ok());
  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  ASSERT_TRUE(info_or.ok());
  const PagedFileInfo& info = info_or.value();
  ASSERT_TRUE(info.has_zone_maps);

  // A plausible-but-wrong bound (min lowered by 1) passes the structural
  // checks; only the deep bit-exact recompute can catch it.
  {
    Result<ZoneMapIndex> zones_or = ReadZoneMapIndex(path, info);
    ASSERT_TRUE(zones_or.ok());
    ZoneMapIndex zones = std::move(zones_or).value();
    zones.numeric_min[0] -= 1.0;
    const std::vector<uint8_t> bytes = ReadAllBytes(path);
    EXPECT_FALSE(ValidateZoneMapEntry(
                     info, zones, 0,
                     std::span<const uint8_t>(bytes).subspan(
                         kPagedFileV2HeaderBytes, info.page_stride()))
                     .ok());
  }

  // Inverted non-sentinel bounds are rejected structurally at load.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // First numeric pair of the trailer: [magic u32][4 pad] then min, max.
    const long min_offset = static_cast<long>(info.zone_map_offset()) + 8;
    const double huge = 1e300;
    ASSERT_EQ(std::fseek(f, min_offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
    EXPECT_EQ(ReadZoneMapIndex(path, info).status().code(),
              StatusCode::kCorruption);
  }

  // A clobbered trailer magic is caught immediately.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(info.zone_map_offset()),
                         SEEK_SET),
              0);
    const uint32_t junk = 0xdeadbeef;
    ASSERT_EQ(std::fwrite(&junk, sizeof(junk), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);
    EXPECT_EQ(ReadZoneMapIndex(path, info).status().code(),
              StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

TEST(ZoneMapTest, TruncatedTrailerIsCaught) {
  const std::string path = TempPath("zones_trunc.optr");
  PagedFileWriterOptions options;
  options.rows_per_page = 32;
  ASSERT_TRUE(
      WriteRelationToFile(RandomRelation(100, 2, 1, 7), path, options).ok());
  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  const std::vector<uint8_t> bytes = ReadAllBytes(path);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size() - 4, f),
            bytes.size() - 4);
  ASSERT_EQ(std::fclose(f), 0);
  EXPECT_EQ(ReadZoneMapIndex(path, info.value()).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optrules::storage
