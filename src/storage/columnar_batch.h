// Columnar batch execution core: the one way tables are scanned.
//
// Scans hand out fixed-capacity blocks of whole columns -- numeric column
// slices plus Boolean byte-column slices -- so consumers iterate tight
// span loops with one virtual call per *batch*, never per row. In-memory
// relations serve zero-copy views into their columns; disk-resident
// PagedFiles serve column slices pointing straight into v2 page images
// pinned in a BufferPool (one read path: legacy row-major v1 files are
// decoded into v2 page images when a page loads). Every table scan --
// counting (bucketing::MultiCountPlan), boundary planning, the
// distributed workers, and the Figure 9 sort baselines -- goes through a
// BatchSource; only the bulk loader ReadRelationFromFile (the tests'
// integrity oracle) reads pages on its own.

#ifndef OPTRULES_STORAGE_COLUMNAR_BATCH_H_
#define OPTRULES_STORAGE_COLUMNAR_BATCH_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"
#include "storage/relation.h"
#include "storage/scan_prune.h"

namespace optrules::storage {

/// Default number of rows per batch: large enough to amortize dispatch,
/// small enough that one batch of a wide table stays cache-resident.
inline constexpr int64_t kDefaultBatchRows = 4096;

/// One block of up to `capacity` rows in columnar form. The spans are
/// borrowed views owned by the producing reader; they stay valid until the
/// next Next() call on that reader (or until the reader is destroyed).
class ColumnarBatch {
 public:
  int64_t num_rows() const { return num_rows_; }
  int num_numeric() const { return static_cast<int>(numeric_.size()); }
  int num_boolean() const { return static_cast<int>(boolean_.size()); }

  /// Column slice of the i-th numeric attribute; num_rows() entries.
  std::span<const double> numeric(int i) const {
    return numeric_[static_cast<size_t>(i)];
  }
  /// Column slice of the i-th Boolean attribute (0/1 bytes).
  std::span<const uint8_t> boolean(int i) const {
    return boolean_[static_cast<size_t>(i)];
  }

  /// Producer-side assembly: resets to an empty batch with the given
  /// attribute counts.
  void Reset(int num_numeric, int num_boolean);
  /// Producer-side assembly: installs the column views for this block.
  /// Every span must have `rows` entries.
  void SetRows(int64_t rows);
  void SetNumeric(int i, std::span<const double> column);
  void SetBoolean(int i, std::span<const uint8_t> column);

 private:
  int64_t num_rows_ = 0;
  std::vector<std::span<const double>> numeric_;
  std::vector<std::span<const uint8_t>> boolean_;
};

/// One sequential scan over a table in batch granularity.
class BatchReader {
 public:
  virtual ~BatchReader() = default;

  /// Fills `batch` with the next block; returns false at end of scan (the
  /// batch contents are unspecified then). Spans installed into `batch`
  /// are invalidated by the following Next() call.
  virtual bool Next(ColumnarBatch* batch) = 0;

  /// Rows this reader skipped so far because the source's installed
  /// ScanPruneSpec proved they cannot contribute (zone-map page pruning,
  /// manifest partition pruning). The executor adds them back into the
  /// plan via MultiCountPlan::AddSkippedRows, so pruned results stay
  /// bit-identical to the unpruned reference.
  virtual int64_t pruned_rows() const { return 0; }
};

/// Cache and pruning counters of one scan or source. Every layer that
/// combines scans -- a source over its readers, the partitioned source over
/// its partitions, the distributed coordinator over its partials, an
/// engine over its planning and counting scans -- sums them with +=.
struct BatchSourceStats {
  int64_t cache_hits = 0;    ///< buffer-pool fetches served without I/O
  int64_t cache_misses = 0;  ///< buffer-pool fetches that paid a page load
  int64_t pages_skipped = 0;
  int64_t partitions_skipped = 0;
  /// Seconds readers spent blocked on page loads (their own, or waiting
  /// on the prefetch thread's in-flight load).
  double io_wait_seconds = 0.0;
  // Fault-tolerance counters, populated only by the distributed scan
  // coordinator (zero for plain sources): partition scans re-dispatched
  // after a worker failure, worker daemons (re)spawned beyond the initial
  // roster build, and partitions served by a worker other than their
  // static owner (work-stealing / failover takeovers).
  int64_t retries = 0;
  int64_t workers_respawned = 0;
  int64_t partitions_stolen = 0;

  BatchSourceStats& operator+=(const BatchSourceStats& other) {
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    pages_skipped += other.pages_skipped;
    partitions_skipped += other.partitions_skipped;
    io_wait_seconds += other.io_wait_seconds;
    retries += other.retries;
    workers_respawned += other.workers_respawned;
    partitions_stolen += other.partitions_stolen;
    return *this;
  }

  double cache_hit_rate() const {
    const int64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }
};

/// A table that can be scanned in columnar batches. Each CreateReader()
/// starts one sequential scan; the source counts scans so callers (and
/// tests) can assert how often the data was actually read.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  virtual int num_numeric() const = 0;
  virtual int num_boolean() const = 0;
  virtual int64_t NumTuples() const = 0;

  /// Starts a new scan from the first row.
  std::unique_ptr<BatchReader> CreateReader() {
    NoteScanStarted();
    return DoCreateReader();
  }

  /// True when CreateRangeReader is supported (concurrent sharded scans of
  /// disjoint row ranges, used by the parallel counting pass).
  virtual bool SupportsRangeReaders() const { return false; }

  /// Reader over rows [begin, end); only valid when SupportsRangeReaders().
  /// Does NOT count as a separate scan -- the caller accounts one scan for
  /// the whole sharded pass via NoteScanStarted().
  virtual std::unique_ptr<BatchReader> CreateRangeReader(int64_t begin,
                                                         int64_t end);

  /// Number of scans started over this source so far.
  int64_t scans_started() const { return scans_started_; }

  /// Accounts one logical scan (CreateReader does this automatically;
  /// sharded passes call it once for the whole pass).
  void NoteScanStarted() { ++scans_started_; }

  /// Installs (or clears, with nullptr) the prune requirements of the scan
  /// about to run; readers created while a spec is installed may skip
  /// provably non-contributing pages/partitions (they account the rows via
  /// pruned_rows()). Install BEFORE creating readers and clear after the
  /// last reader died -- the spec is not synchronized against concurrent
  /// readers. Sources without page/partition stats simply ignore it.
  void InstallPruneSpec(std::shared_ptr<const ScanPruneSpec> spec) {
    prune_spec_ = std::move(spec);
  }
  const std::shared_ptr<const ScanPruneSpec>& prune_spec() const {
    return prune_spec_;
  }

  /// Cache/pruning counters this source's readers reported so far; they
  /// report per page, so the value is live mid-scan and complete once the
  /// last reader is done. Zero for purely in-memory sources.
  BatchSourceStats SourceStats() const;

  /// Folds a reader's counters into SourceStats(). Thread-safe: the range
  /// readers of one sharded scan report concurrently.
  void AddSourceStats(const BatchSourceStats& delta);

 protected:
  virtual std::unique_ptr<BatchReader> DoCreateReader() = 0;

 private:
  int64_t scans_started_ = 0;
  std::shared_ptr<const ScanPruneSpec> prune_spec_;
  mutable std::mutex totals_mu_;
  BatchSourceStats totals_;
};

/// Zero-copy batch source over an in-memory Relation: batches are subspans
/// of the relation's columns (no per-row work at all). Supports sharded
/// range readers, so parallel counting partitions rows across the pool.
class RelationBatchSource : public BatchSource {
 public:
  explicit RelationBatchSource(const Relation* relation,
                               int64_t batch_rows = kDefaultBatchRows);

  int num_numeric() const override;
  int num_boolean() const override;
  int64_t NumTuples() const override;
  bool SupportsRangeReaders() const override { return true; }
  std::unique_ptr<BatchReader> CreateRangeReader(int64_t begin,
                                                 int64_t end) override;

  const Relation* relation() const { return relation_; }

 protected:
  std::unique_ptr<BatchReader> DoCreateReader() override;

 private:
  const Relation* relation_;
  int64_t batch_rows_;
};

/// How PagedFileBatchSource readers overlap I/O with compute.
enum class PagedReadMode {
  /// A dedicated prefetch thread per reader warms the buffer pool with page
  /// N+1 while the caller computes over page N (the default). The thread
  /// is per-reader rather than a shared-pool task on purpose: row-sharded
  /// scans occupy every pool worker with readers that BLOCK on their next
  /// page, so prefetches queued behind them on the same pool would
  /// deadlock. A zero-capacity pool gets no prefetch thread.
  kDoubleBuffered,
  /// No prefetch thread: every page loads on the calling thread when the
  /// scan reaches it. Batches are bit-identical across the two modes.
  kSynchronous,
};

/// Batch source over a PagedFile (either format version). Every page read
/// goes through a BufferPool: readers pin the frame holding their current
/// page and serve batch spans pointing straight into its v2 page image
/// (v1 blocks are decoded into v2 images at load, see ScanGeometry), so
/// there is no per-row work and batches clamp to page boundaries. Each
/// reader owns its own file handle; readers must be destroyed before the
/// source that created them (they report their counters into it per page).
/// Supports range readers, so disk-resident counting can be sharded too.
class PagedFileBatchSource : public BatchSource {
 public:
  /// `pool` must not be nullptr; BufferPool::Default() is the process-wide
  /// pool (zero-capacity under OPTRULES_BUFFER_POOL_BYTES=0: no caching,
  /// but the same read path, zone-map pruning included). Zone maps, when
  /// the file carries them, are loaded and validated here. Fails when the
  /// header, the zone maps, or the pool registration of `path` fails.
  static Result<std::unique_ptr<PagedFileBatchSource>> Open(
      const std::string& path, int64_t batch_rows = kDefaultBatchRows,
      PagedReadMode mode = PagedReadMode::kDoubleBuffered,
      BufferPool* pool = BufferPool::Default());

  int num_numeric() const override { return info_.num_numeric; }
  int num_boolean() const override { return info_.num_boolean; }
  int64_t NumTuples() const override { return info_.num_rows; }
  bool SupportsRangeReaders() const override { return true; }
  std::unique_ptr<BatchReader> CreateRangeReader(int64_t begin,
                                                 int64_t end) override;

 protected:
  std::unique_ptr<BatchReader> DoCreateReader() override;

 private:
  PagedFileBatchSource() = default;

  std::string path_;
  PagedFileInfo info_;
  int64_t batch_rows_ = kDefaultBatchRows;
  PagedReadMode mode_ = PagedReadMode::kDoubleBuffered;
  BufferPool* pool_ = nullptr;
  uint64_t pool_file_id_ = 0;
  std::shared_ptr<const ZoneMapIndex> zones_;
};

}  // namespace optrules::storage

#endif  // OPTRULES_STORAGE_COLUMNAR_BATCH_H_
