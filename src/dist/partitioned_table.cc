#include "dist/partitioned_table.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/bytes.h"
#include "storage/csv.h"
#include "storage/paged_file.h"

namespace optrules::dist {

namespace {

/// Partition file names: part-00000.optr, part-00001.optr, ...
std::string PartitionFileName(int p) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "part-%05d.optr", p);
  return buffer;
}

/// FNV-1a over one serialized row, seeded; the kHash routing function.
uint64_t HashRowBytes(std::span<const uint8_t> row, uint64_t seed) {
  bytes::Fnv1a hash(seed);
  hash.Mix(row);
  return hash.digest();
}

}  // namespace

std::string PartitionedTable::PartitionPath(int p) const {
  OPTRULES_CHECK(0 <= p && p < num_partitions());
  return dir_ + "/" + manifest_.partitions[static_cast<size_t>(p)].file;
}

Result<PartitionedTable> PartitionedTable::Open(const std::string& dir) {
  Result<PartitionManifest> manifest = ReadManifest(dir);
  if (!manifest.ok()) return manifest.status();
  PartitionedTable table(dir, std::move(manifest).value());
  // Validate every partition header against the manifest before handing
  // the table out: a missing or truncated partition should fail at Open
  // time, not in the middle of a distributed scan.
  OPTRULES_RETURN_IF_ERROR(table.Validate());
  return table;
}

Status PartitionedTable::Validate() const {
  for (int p = 0; p < num_partitions(); ++p) {
    Result<storage::PagedFileInfo> info =
        storage::ReadPagedFileInfo(PartitionPath(p));
    if (!info.ok()) return info.status();
    if (info.value().num_numeric != schema().num_numeric() ||
        info.value().num_boolean != schema().num_boolean()) {
      return Status::Corruption("partition attribute counts disagree with "
                                "manifest: " +
                                PartitionPath(p));
    }
    if (info.value().num_rows != partition_rows(p)) {
      return Status::Corruption("partition row count disagrees with "
                                "manifest: " +
                                PartitionPath(p));
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<storage::PagedFileBatchSource>>
PartitionedTable::OpenPartition(int p, int64_t batch_rows,
                                storage::PagedReadMode mode) const {
  OPTRULES_CHECK(0 <= p && p < num_partitions());
  return storage::PagedFileBatchSource::Open(PartitionPath(p), batch_rows,
                                             mode);
}

namespace {

/// Writes the K partition files + manifest of one partitioning pass into
/// `dir` (which must exist and be empty-ish); the atomic-swap wrapper
/// below points this at a staging directory.
Status WritePartitionedTable(storage::BatchSource& source,
                             const storage::Schema& schema,
                             const std::string& dir,
                             const PartitionOptions& options) {
  const int k = options.num_partitions;
  std::vector<storage::PagedFileWriter> writers;
  writers.reserve(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    Result<storage::PagedFileWriter> writer = storage::PagedFileWriter::Create(
        dir + "/" + PartitionFileName(p), schema.num_numeric(),
        schema.num_boolean());
    if (!writer.ok()) return writer.status();
    writers.push_back(std::move(writer).value());
  }

  const int num_numeric = schema.num_numeric();
  const int num_boolean = schema.num_boolean();
  std::vector<AttributeStats> stats(static_cast<size_t>(num_numeric));
  // Per-partition stats ([p * num_numeric + c] / [p * num_boolean + b]);
  // the coordinator prunes whole partitions with these, so they follow the
  // same NaN-skipping sentinel rules as the zone maps.
  std::vector<AttributeStats> part_numeric(
      static_cast<size_t>(k) * static_cast<size_t>(num_numeric));
  std::vector<BooleanStats> part_boolean(
      static_cast<size_t>(k) * static_cast<size_t>(num_boolean));
  std::vector<uint8_t> row(schema.RowBytes());
  std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
  storage::ColumnarBatch batch;
  int64_t row_index = 0;
  while (reader->Next(&batch)) {
    const int64_t rows = batch.num_rows();
    for (int64_t r = 0; r < rows; ++r) {
      // Serialize the row once into the fixed-width file layout; both the
      // hash router and the partition writer consume the same bytes.
      for (int a = 0; a < num_numeric; ++a) {
        const double value = batch.numeric(a)[static_cast<size_t>(r)];
        std::memcpy(row.data() + static_cast<size_t>(a) * sizeof(double),
                    &value, sizeof(double));
        if (!std::isnan(value)) {
          AttributeStats& stat = stats[static_cast<size_t>(a)];
          if (value < stat.min_value) stat.min_value = value;
          if (value > stat.max_value) stat.max_value = value;
        }
      }
      uint8_t* booleans =
          row.data() + static_cast<size_t>(num_numeric) * sizeof(double);
      for (int b = 0; b < num_boolean; ++b) {
        booleans[b] = batch.boolean(b)[static_cast<size_t>(r)];
      }
      const int p =
          options.strategy == PartitionStrategy::kRoundRobin
              ? static_cast<int>(row_index % k)
              : static_cast<int>(HashRowBytes(row, options.hash_seed) %
                                 static_cast<uint64_t>(k));
      for (int a = 0; a < num_numeric; ++a) {
        const double value = batch.numeric(a)[static_cast<size_t>(r)];
        if (!std::isnan(value)) {
          AttributeStats& stat =
              part_numeric[static_cast<size_t>(p * num_numeric + a)];
          if (value < stat.min_value) stat.min_value = value;
          if (value > stat.max_value) stat.max_value = value;
        }
      }
      for (int b = 0; b < num_boolean; ++b) {
        BooleanStats& stat =
            part_boolean[static_cast<size_t>(p * num_boolean + b)];
        if (booleans[b] < stat.min_value) stat.min_value = booleans[b];
        if (booleans[b] > stat.max_value) stat.max_value = booleans[b];
      }
      OPTRULES_RETURN_IF_ERROR(
          writers[static_cast<size_t>(p)].AppendRawRow(row.data()));
      ++row_index;
    }
  }

  PartitionManifest manifest;
  manifest.schema = schema;
  manifest.schema_hash = SchemaHash(schema);
  manifest.numeric_stats = std::move(stats);
  manifest.has_partition_stats = true;
  manifest.partition_numeric_stats = std::move(part_numeric);
  manifest.partition_boolean_stats = std::move(part_boolean);
  manifest.partitions.reserve(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    PartitionInfo partition;
    partition.file = PartitionFileName(p);
    partition.num_rows = writers[static_cast<size_t>(p)].NumRows();
    manifest.partitions.push_back(std::move(partition));
    OPTRULES_RETURN_IF_ERROR(writers[static_cast<size_t>(p)].Close());
  }
  return WriteManifest(manifest, dir);
}

}  // namespace

Result<PartitionedTable> PartitionBatchSource(
    storage::BatchSource& source, const storage::Schema& schema,
    const std::string& dir, const PartitionOptions& options) {
  if (options.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (schema.num_numeric() != source.num_numeric() ||
      schema.num_boolean() != source.num_boolean()) {
    return Status::InvalidArgument(
        "schema attribute counts do not match source");
  }
  // Build the whole table in a sibling staging directory and swap it into
  // place only once the manifest is durable: a failure mid-write (disk
  // full, bad source) leaves any existing table at `dir` untouched, and a
  // success replaces it wholesale -- never a manifest pointing at
  // truncated partition files.
  const std::string staging = dir + ".staging";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);
  std::filesystem::create_directories(staging, ec);
  if (ec) {
    return Status::IoError("cannot create directory: " + staging + ": " +
                           ec.message());
  }
  const Status written =
      WritePartitionedTable(source, schema, staging, options);
  if (!written.ok()) {
    std::filesystem::remove_all(staging, ec);
    return written;
  }
  std::filesystem::remove_all(dir, ec);
  if (ec) {
    std::filesystem::remove_all(staging, ec);
    return Status::IoError("cannot replace directory: " + dir);
  }
  std::filesystem::rename(staging, dir, ec);
  if (ec) {
    std::filesystem::remove_all(staging, ec);
    return Status::IoError("cannot move staged table into place: " + dir);
  }
  return PartitionedTable::Open(dir);
}

Result<PartitionedTable> PartitionRelation(const storage::Relation& relation,
                                           const std::string& dir,
                                           const PartitionOptions& options) {
  storage::RelationBatchSource source(&relation);
  return PartitionBatchSource(source, relation.schema(), dir, options);
}

Result<PartitionedTable> PartitionPagedFile(const std::string& paged_path,
                                            const storage::Schema& schema,
                                            const std::string& dir,
                                            const PartitionOptions& options) {
  Result<std::unique_ptr<storage::PagedFileBatchSource>> source =
      storage::PagedFileBatchSource::Open(paged_path);
  if (!source.ok()) return source.status();
  return PartitionBatchSource(*source.value(), schema, dir, options);
}

Result<PartitionedTable> PartitionCsv(const std::string& csv_path,
                                      const std::string& dir,
                                      const PartitionOptions& options) {
  Result<storage::Relation> relation = storage::ReadCsv(csv_path);
  if (!relation.ok()) return relation.status();
  return PartitionRelation(relation.value(), dir, options);
}

// ----------------------------------------- PartitionedTableBatchSource ----

bool PartitionIsDead(const PartitionedTable& table,
                     const storage::ScanPruneSpec& spec, int p) {
  const PartitionManifest& manifest = table.manifest();
  if (!manifest.has_partition_stats || spec.empty()) return false;
  return storage::AllUnitsDead(
      spec,
      [&](int c) {
        const AttributeStats& stat = manifest.PartitionNumeric(p, c);
        return stat.min_value <= stat.max_value;
      },
      [&](int b) { return manifest.PartitionBoolean(p, b).max_value != 0; });
}

namespace {

/// Reader that walks the partitions in manifest order, delegating to one
/// partition reader at a time. Partitions the manifest stats prove dead
/// under the installed prune spec are skipped without opening their files;
/// the spec is re-installed on each live partition's source so zone maps
/// prune pages inside it too. Counters land in `parent`, the
/// PartitionedTableBatchSource, which must outlive the reader.
class ConcatReader : public storage::BatchReader {
 public:
  ConcatReader(const PartitionedTable* table, int64_t batch_rows,
               storage::PagedReadMode mode,
               std::shared_ptr<const storage::ScanPruneSpec> prune,
               storage::BatchSource* parent)
      : table_(table),
        batch_rows_(batch_rows),
        mode_(mode),
        prune_(std::move(prune)),
        parent_(parent) {}

  ~ConcatReader() override { FinishPartition(); }

  bool Next(storage::ColumnarBatch* batch) override {
    while (true) {
      if (reader_ != nullptr && reader_->Next(batch)) return true;
      if (next_partition_ >= table_->num_partitions()) return false;
      const int p = next_partition_++;
      if (prune_ != nullptr && PartitionIsDead(*table_, *prune_, p)) {
        pruned_rows_ += table_->partition_rows(p);
        parent_->AddSourceStats({.partitions_skipped = 1});
        continue;
      }
      Result<std::unique_ptr<storage::PagedFileBatchSource>> source =
          table_->OpenPartition(p, batch_rows_, mode_);
      // A partition vanishing MID-scan is fatal (BatchReader::Next has no
      // error channel, and silently truncating the table would corrupt
      // results); callers that need a soft failure re-run
      // PartitionedTable::Validate() immediately before scanning, as
      // MiningEngine::TryPrepare does.
      OPTRULES_CHECK(source.ok());
      // The old reader must die before the source it was created from
      // (it reports its counters into the source).
      FinishPartition();
      source_ = std::move(source).value();
      source_->InstallPruneSpec(prune_);
      reader_ = source_->CreateReader();
    }
  }

  int64_t pruned_rows() const override {
    return pruned_rows_ +
           (reader_ != nullptr ? reader_->pruned_rows() : 0);
  }

 private:
  /// Retires the current partition: banks its reader's pruned rows, then
  /// destroys reader before source and folds the source's counters into
  /// the parent.
  void FinishPartition() {
    if (reader_ != nullptr) {
      pruned_rows_ += reader_->pruned_rows();
      reader_.reset();
    }
    if (source_ != nullptr) {
      parent_->AddSourceStats(source_->SourceStats());
      source_.reset();
    }
  }

  const PartitionedTable* table_;
  int64_t batch_rows_;
  storage::PagedReadMode mode_;
  std::shared_ptr<const storage::ScanPruneSpec> prune_;
  storage::BatchSource* parent_;
  int next_partition_ = 0;
  int64_t pruned_rows_ = 0;
  std::unique_ptr<storage::PagedFileBatchSource> source_;
  std::unique_ptr<storage::BatchReader> reader_;
};

}  // namespace

PartitionedTableBatchSource::PartitionedTableBatchSource(
    const PartitionedTable* table, int64_t batch_rows,
    storage::PagedReadMode mode)
    : table_(table), batch_rows_(batch_rows), mode_(mode) {
  OPTRULES_CHECK(table != nullptr);
}

int PartitionedTableBatchSource::num_numeric() const {
  return table_->schema().num_numeric();
}

int PartitionedTableBatchSource::num_boolean() const {
  return table_->schema().num_boolean();
}

int64_t PartitionedTableBatchSource::NumTuples() const {
  return table_->total_rows();
}

std::unique_ptr<storage::BatchReader>
PartitionedTableBatchSource::DoCreateReader() {
  return std::make_unique<ConcatReader>(table_, batch_rows_, mode_,
                                        prune_spec(), this);
}

}  // namespace optrules::dist
