#include "bucketing/sort_bucketizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bucketing/equidepth_sampler.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/external_sort.h"
#include "storage/paged_file.h"

namespace optrules::bucketing {

namespace {

/// Picks the equi-depth ranks out of a sorted sequence streamed value by
/// value.
class RankPicker {
 public:
  RankPicker(int64_t n, int num_buckets) {
    for (int i = 1; i < num_buckets && n > 0; ++i) {
      // The i*(n/M)-th smallest value (1-based) is stream index k-1,
      // matching BucketBoundaries::FromSortedValues.
      ranks_.push_back(std::max<int64_t>(
          0, std::min<int64_t>(n, i * n / num_buckets) - 1));
    }
  }

  void Accept(int64_t index, double value) {
    while (next_ < ranks_.size() &&
           ranks_[next_] == index) {
      cuts_.push_back(value);
      ++next_;
    }
  }

  std::vector<double> TakeCuts() { return std::move(cuts_); }

 private:
  std::vector<int64_t> ranks_;
  size_t next_ = 0;
  std::vector<double> cuts_;
};

/// Opens `path` for synchronous scans through `pool`. The sort baselines
/// pass a function-local zero-capacity pool: the table and the sort
/// temporaries never enter (or evict from) the process pool, and every
/// scan pays its own reads, as an uncached sort pipeline would.
Result<std::unique_ptr<storage::PagedFileBatchSource>> OpenUncached(
    const std::string& path, storage::BufferPool* pool) {
  return storage::PagedFileBatchSource::Open(
      path, storage::kDefaultBatchRows, storage::PagedReadMode::kSynchronous,
      pool);
}

/// RecordSource that packs the rows of one batch scan of a PagedFile
/// (either format) into the fixed-width v1 row layout the external sort
/// shuffles: numeric doubles back to back, then Boolean bytes. Counts the
/// NaN sort keys on the way -- the sort orders them after every number,
/// so they sit at the tail of the sorted output.
class BatchRecordSource final : public storage::RecordSource {
 public:
  BatchRecordSource(storage::BatchSource& source, int key_attr)
      : reader_(source.CreateReader()),
        num_numeric_(source.num_numeric()),
        num_boolean_(source.num_boolean()),
        row_bytes_(sizeof(double) * static_cast<size_t>(num_numeric_) +
                   static_cast<size_t>(num_boolean_)),
        key_attr_(key_attr) {}

  size_t ReadRecords(uint8_t* out, size_t max_records) override {
    size_t produced = 0;
    while (produced < max_records) {
      if (offset_ == batch_.num_rows()) {
        if (!reader_->Next(&batch_)) break;
        offset_ = 0;
      }
      const auto begin = static_cast<size_t>(offset_);
      const size_t take =
          std::min(max_records - produced,
                   static_cast<size_t>(batch_.num_rows()) - begin);
      uint8_t* rows = out + produced * row_bytes_;
      for (int c = 0; c < num_numeric_; ++c) {
        const std::span<const double> column =
            batch_.numeric(c).subspan(begin, take);
        for (size_t r = 0; r < take; ++r) {
          std::memcpy(rows + r * row_bytes_ +
                          static_cast<size_t>(c) * sizeof(double),
                      &column[r], sizeof(double));
        }
        if (c == key_attr_) {
          nan_keys_ += std::count_if(column.begin(), column.end(),
                                     [](double v) { return std::isnan(v); });
        }
      }
      const size_t boolean_offset =
          sizeof(double) * static_cast<size_t>(num_numeric_);
      for (int b = 0; b < num_boolean_; ++b) {
        const std::span<const uint8_t> column =
            batch_.boolean(b).subspan(begin, take);
        for (size_t r = 0; r < take; ++r) {
          rows[r * row_bytes_ + boolean_offset + static_cast<size_t>(b)] =
              column[r];
        }
      }
      offset_ += static_cast<int64_t>(take);
      produced += take;
    }
    return produced;
  }

  size_t row_bytes() const { return row_bytes_; }
  int64_t nan_keys() const { return nan_keys_; }

 private:
  std::unique_ptr<storage::BatchReader> reader_;
  storage::ColumnarBatch batch_;
  int64_t offset_ = 0;  ///< rows of batch_ already packed
  int num_numeric_;
  int num_boolean_;
  size_t row_bytes_;
  int key_attr_;
  int64_t nan_keys_ = 0;
};

/// The 24-byte v1 PagedFile header for a sorted output of known shape --
/// row count included up front, since sorting never changes it.
std::vector<uint8_t> V1Header(int num_numeric, int num_boolean,
                              int64_t num_rows) {
  std::vector<uint8_t> header(storage::kPagedFileHeaderBytes, 0);
  const auto put_u32 = [&header](size_t offset, uint32_t v) {
    std::memcpy(header.data() + offset, &v, sizeof(v));
  };
  put_u32(0, 0x4f505452);  // "OPTR"
  put_u32(4, static_cast<uint32_t>(storage::PagedFileFormat::kRowMajorV1));
  put_u32(8, static_cast<uint32_t>(num_numeric));
  put_u32(12, static_cast<uint32_t>(num_boolean));
  const auto rows = static_cast<uint64_t>(num_rows);
  std::memcpy(header.data() + 16, &rows, sizeof(rows));
  return header;
}

}  // namespace

BucketBoundaries ExactEquiDepthBoundaries(std::span<const double> values,
                                          int num_buckets) {
  OPTRULES_CHECK(num_buckets >= 1);
  // NaN values belong to no bucket (the repo-wide NaN policy): SortSample
  // drops them, so the depths are planned over the numbers only, and its
  // -0.0-first order keeps a zero cut's sign independent of row order.
  std::vector<double> sorted(values.begin(), values.end());
  SortSample(sorted);
  return BucketBoundaries::FromSortedValues(sorted, num_buckets);
}

Result<BucketBoundaries> NaiveSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& sorted_path, size_t memory_budget_bytes,
    const std::string& temp_dir) {
  OPTRULES_CHECK(num_buckets >= 1);
  storage::BufferPool pool(0);
  auto table_or = OpenUncached(table_path, &pool);
  if (!table_or.ok()) return table_or.status();
  storage::PagedFileBatchSource& table = *table_or.value();
  if (numeric_attr < 0 || numeric_attr >= table.num_numeric()) {
    return Status::InvalidArgument("numeric_attr out of range");
  }

  // Whole rows are sorted: each batch row of a v1 or v2 table is packed
  // into the v1 row layout on the fly, with no row-major temporary.
  BatchRecordSource records(table, numeric_attr);
  storage::ExternalSortOptions sort_options;
  sort_options.record_bytes = records.row_bytes();
  sort_options.key_offset =
      static_cast<size_t>(numeric_attr) * sizeof(double);
  sort_options.memory_budget_bytes = memory_budget_bytes;
  sort_options.temp_dir = temp_dir;
  const std::vector<uint8_t> header = V1Header(
      table.num_numeric(), table.num_boolean(), table.NumTuples());
  Result<storage::ExternalSortStats> sorted_or =
      storage::ExternalSortRecords(records, sorted_path, header,
                                   sort_options);
  if (!sorted_or.ok()) return sorted_or.status();

  auto sorted_source_or = OpenUncached(sorted_path, &pool);
  if (!sorted_source_or.ok()) return sorted_source_or.status();
  // NaN rows sort last and belong to no bucket: rank over the numbers
  // only, so the cuts equal ExactEquiDepthBoundaries over the column.
  RankPicker picker(sorted_or.value().num_records - records.nan_keys(),
                    num_buckets);
  std::unique_ptr<storage::BatchReader> reader =
      sorted_source_or.value()->CreateReader();
  storage::ColumnarBatch batch;
  int64_t index = 0;
  while (reader->Next(&batch)) {
    for (const double value : batch.numeric(numeric_attr)) {
      picker.Accept(index++, value);
    }
  }
  return BucketBoundaries::FromCutPoints(picker.TakeCuts());
}

Result<BucketBoundaries> VerticalSplitSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& split_path, size_t memory_budget_bytes,
    const std::string& temp_dir) {
  // Phase 1: vertical split -- project (value, tuple id) rows into a
  // narrow v1 PagedFile (the id stored as a double, exact below 2^53).
  {
    storage::BufferPool pool(0);
    auto table_or = OpenUncached(table_path, &pool);
    if (!table_or.ok()) return table_or.status();
    storage::PagedFileBatchSource& table = *table_or.value();
    if (numeric_attr < 0 || numeric_attr >= table.num_numeric()) {
      return Status::InvalidArgument("numeric_attr out of range");
    }
    storage::PagedFileWriterOptions split_options;
    split_options.format = storage::PagedFileFormat::kRowMajorV1;
    Result<storage::PagedFileWriter> split_or =
        storage::PagedFileWriter::Create(split_path, 2, 0, split_options);
    if (!split_or.ok()) return split_or.status();
    storage::PagedFileWriter& split = split_or.value();
    std::unique_ptr<storage::BatchReader> reader = table.CreateReader();
    storage::ColumnarBatch batch;
    double tid = 0.0;
    while (reader->Next(&batch)) {
      for (const double value : batch.numeric(numeric_attr)) {
        const double row[] = {value, tid++};
        OPTRULES_RETURN_IF_ERROR(split.AppendRow(row, {}));
      }
    }
    OPTRULES_RETURN_IF_ERROR(split.Close());
  }

  // Phases 2 and 3: the naive sort of the narrow projection by value.
  const std::string sorted_split = split_path + ".sorted";
  Result<BucketBoundaries> boundaries =
      NaiveSortBoundariesFromFile(split_path, 0, num_buckets, sorted_split,
                                  memory_budget_bytes, temp_dir);
  std::remove(sorted_split.c_str());
  return boundaries;
}

}  // namespace optrules::bucketing
