#include "storage/columnar_batch.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/timer.h"
#include "obs/metrics.h"

namespace optrules::storage {

namespace {

obs::Histogram* PageIoWaitHistogram() {
  static obs::Histogram* const hist =
      obs::MetricsRegistry::Default().GetHistogram(
          "storage.page_io_wait_seconds");
  return hist;
}

obs::Counter* PagesSkippedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter("storage.pages_skipped");
  return counter;
}

}  // namespace

void ColumnarBatch::Reset(int num_numeric, int num_boolean) {
  num_rows_ = 0;
  numeric_.assign(static_cast<size_t>(num_numeric), {});
  boolean_.assign(static_cast<size_t>(num_boolean), {});
}

void ColumnarBatch::SetRows(int64_t rows) {
  OPTRULES_CHECK(rows >= 0);
  num_rows_ = rows;
}

void ColumnarBatch::SetNumeric(int i, std::span<const double> column) {
  numeric_[static_cast<size_t>(i)] = column;
}

void ColumnarBatch::SetBoolean(int i, std::span<const uint8_t> column) {
  boolean_[static_cast<size_t>(i)] = column;
}

BatchSourceStats BatchSource::SourceStats() const {
  std::lock_guard<std::mutex> lock(totals_mu_);
  return totals_;
}

void BatchSource::AddSourceStats(const BatchSourceStats& delta) {
  std::lock_guard<std::mutex> lock(totals_mu_);
  totals_ += delta;
}

std::unique_ptr<BatchReader> BatchSource::CreateRangeReader(int64_t /*begin*/,
                                                            int64_t /*end*/) {
  OPTRULES_CHECK(false);  // only valid when SupportsRangeReaders()
  return nullptr;
}

// ----------------------------------------------------------- relation ----

namespace {

/// Serves [begin, end) of a relation as zero-copy column subspans.
class RelationBatchReader : public BatchReader {
 public:
  RelationBatchReader(const Relation* relation, int64_t begin, int64_t end,
                      int64_t batch_rows)
      : relation_(relation),
        position_(begin),
        end_(end),
        batch_rows_(batch_rows) {}

  bool Next(ColumnarBatch* batch) override {
    if (position_ >= end_) return false;
    const int64_t rows = std::min(batch_rows_, end_ - position_);
    const Schema& schema = relation_->schema();
    batch->Reset(schema.num_numeric(), schema.num_boolean());
    batch->SetRows(rows);
    const auto offset = static_cast<size_t>(position_);
    const auto count = static_cast<size_t>(rows);
    for (int i = 0; i < schema.num_numeric(); ++i) {
      batch->SetNumeric(
          i, std::span<const double>(relation_->NumericColumn(i))
                 .subspan(offset, count));
    }
    for (int i = 0; i < schema.num_boolean(); ++i) {
      batch->SetBoolean(
          i, std::span<const uint8_t>(relation_->BooleanColumn(i))
                 .subspan(offset, count));
    }
    position_ += rows;
    return true;
  }

 private:
  const Relation* relation_;
  int64_t position_;
  int64_t end_;
  int64_t batch_rows_;
};

}  // namespace

RelationBatchSource::RelationBatchSource(const Relation* relation,
                                         int64_t batch_rows)
    : relation_(relation), batch_rows_(batch_rows) {
  OPTRULES_CHECK(relation != nullptr);
  OPTRULES_CHECK(batch_rows >= 1);
}

int RelationBatchSource::num_numeric() const {
  return relation_->schema().num_numeric();
}

int RelationBatchSource::num_boolean() const {
  return relation_->schema().num_boolean();
}

int64_t RelationBatchSource::NumTuples() const {
  return relation_->NumRows();
}

std::unique_ptr<BatchReader> RelationBatchSource::DoCreateReader() {
  return std::make_unique<RelationBatchReader>(relation_, 0,
                                               relation_->NumRows(),
                                               batch_rows_);
}

std::unique_ptr<BatchReader> RelationBatchSource::CreateRangeReader(
    int64_t begin, int64_t end) {
  OPTRULES_CHECK(0 <= begin && begin <= end && end <= relation_->NumRows());
  return std::make_unique<RelationBatchReader>(relation_, begin, end,
                                               batch_rows_);
}

// ---------------------------------------------------------- paged file ----

namespace {

/// Everything a paged reader needs from its source: where the pages live,
/// how to identify them in the pool, what may be pruned, and where to
/// report the counters.
struct PagedReaderContext {
  std::string path;
  PagedFileInfo info;  ///< on-disk header (what ReadPageImage decodes)
  PagedFileInfo geom;  ///< ScanGeometry(info): the layout of every frame
  BufferPool* pool = nullptr;
  uint64_t file_id = 0;
  std::shared_ptr<const ZoneMapIndex> zones;
  std::shared_ptr<const ScanPruneSpec> prune;
  BatchSource* source = nullptr;  ///< outlives the reader
};

/// True when page `page` provably contributes nothing to the installed
/// prune spec beyond its row count: a numeric column "has a value" iff its
/// zone-map bounds are non-sentinel (min <= max), a Boolean column "has a
/// true row" iff its max byte is 1.
bool PageIsDead(const PagedReaderContext& ctx, int64_t page) {
  if (ctx.zones == nullptr || ctx.prune == nullptr || ctx.prune->empty()) {
    return false;
  }
  const ZoneMapIndex& z = *ctx.zones;
  return AllUnitsDead(
      *ctx.prune,
      [&](int c) { return z.NumericMin(page, c) <= z.NumericMax(page, c); },
      [&](int b) { return z.BooleanMax(page, b) != 0; });
}

/// Zero-transpose reader over a PagedFile whose pages flow through the
/// BufferPool. Every frame holds a v2 page image (ReadPageImage decodes v1
/// blocks at load), so batches are spans pointing straight into the
/// column runs of the PINNED frame -- the pin is released only when the
/// scan crosses into the next page, so spans outlive the Next() call that
/// produced them. Batches clamp to page boundaries (counting results are
/// independent of batch splits). Pages the installed ScanPruneSpec proves
/// dead are skipped without touching the pool (their rows are accounted
/// via pruned_rows()).
///
/// In kDoubleBuffered mode a per-reader prefetch thread with its own FILE
/// handle walks the same live-page sequence one page ahead of the consumer
/// and issues BufferPool::Prefetch hints; the pool's loading-frame
/// protocol makes the consumer's later Fetch wait on the in-flight load
/// instead of re-reading. Pacing is by live-page ORDINAL (pruned pages are
/// invisible to it), so a long dead stretch cannot stall the prefetcher
/// behind page-number arithmetic. A zero-capacity pool gets no hints: a
/// hinted frame would be evicted before the consumer could pin it.
class PagedFileBatchReader : public BatchReader {
 public:
  PagedFileBatchReader(PagedReaderContext ctx, std::FILE* file,
                       int64_t begin, int64_t end, int64_t batch_rows,
                       PagedReadMode mode)
      : ctx_(std::move(ctx)),
        file_(file),
        begin_(begin),
        position_(begin),
        end_(end),
        batch_rows_(batch_rows) {
    if (mode == PagedReadMode::kDoubleBuffered &&
        ctx_.pool->capacity_bytes() > 0 && position_ < end_) {
      prefetch_file_ = std::fopen(ctx_.path.c_str(), "rb");
      if (prefetch_file_ != nullptr) {
        prefetcher_ = std::thread([this] { PrefetchLoop(); });
      }
    }
  }

  ~PagedFileBatchReader() override {
    if (prefetcher_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(pf_mu_);
        stop_ = true;
      }
      pf_cv_.notify_all();
      prefetcher_.join();
    }
    if (prefetch_file_ != nullptr) std::fclose(prefetch_file_);
    pin_.Reset();
    std::fclose(file_);
  }

  bool Next(ColumnarBatch* batch) override {
    const PagedFileInfo& geom = ctx_.geom;
    const auto rpp = static_cast<int64_t>(geom.rows_per_page);
    while (position_ < end_) {
      const int64_t page = position_ / rpp;
      const int64_t page_limit =
          std::min(end_, page * rpp + geom.rows_in_page(page));
      if (PageIsDead(ctx_, page)) {
        pruned_rows_ += page_limit - position_;
        PagesSkippedCounter()->Add();
        ctx_.source->AddSourceStats({.pages_skipped = 1});
        position_ = (page + 1) * rpp;
        continue;
      }
      if (!pin_ || pinned_page_ != page) PinPage(page);
      const int64_t in_page = position_ - page * rpp;
      const int64_t want = std::min(batch_rows_, page_limit - position_);
      OPTRULES_CHECK(want > 0);
      const uint8_t* base = pin_.data();
      batch->Reset(geom.num_numeric, geom.num_boolean);
      batch->SetRows(want);
      for (int c = 0; c < geom.num_numeric; ++c) {
        // The run is 8-byte aligned: the directory is padded to 8 bytes and
        // the frame buffer is allocator-aligned.
        const auto* run =
            reinterpret_cast<const double*>(base + geom.numeric_run_offset(c));
        batch->SetNumeric(c, std::span<const double>(
                                 run + in_page, static_cast<size_t>(want)));
      }
      for (int b = 0; b < geom.num_boolean; ++b) {
        batch->SetBoolean(
            b, std::span<const uint8_t>(
                   base + geom.boolean_run_offset(b) + in_page,
                   static_cast<size_t>(want)));
      }
      position_ += want;
      return true;
    }
    return false;
  }

  int64_t pruned_rows() const override { return pruned_rows_; }

 private:
  /// Loader for page `page` reading through `file` (the consumer's handle
  /// or the prefetcher's -- each thread only ever passes its own).
  BufferPool::Loader MakeLoader(std::FILE* file, int64_t page) {
    return [this, file, page](uint8_t* dest) {
      return ReadPageImage(
          ctx_.info, file, page,
          std::span<uint8_t>(dest, ctx_.geom.page_stride()));
    };
  }

  void PinPage(int64_t page) {
    WallTimer wait_timer;
    bool was_hit = false;
    Result<BufferPool::Pin> pin =
        ctx_.pool->Fetch(ctx_.file_id, page, ctx_.geom.page_stride(),
                         MakeLoader(file_, page), &was_hit);
    // end_ is bounded by the header's row count, so a failed load means a
    // truncated or corrupt file; silently accepting it would merge partial
    // counts with no diagnostic.
    OPTRULES_CHECK(pin.ok());
    pin_ = std::move(pin.value());
    pinned_page_ = page;
    // Reported per page, so long-lived readers show live values instead of
    // a lump sum at destruction.
    const double wait_seconds = wait_timer.ElapsedSeconds();
    PageIoWaitHistogram()->Observe(wait_seconds);
    ctx_.source->AddSourceStats({.cache_hits = was_hit ? 1 : 0,
                                 .cache_misses = was_hit ? 0 : 1,
                                 .io_wait_seconds = wait_seconds});
    if (prefetcher_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(pf_mu_);
        ++live_pages_consumed_;
      }
      pf_cv_.notify_all();
    }
  }

  /// Prefetch thread: warms the pool with every live page of [begin, end)
  /// in scan order, at most one live page past what the consumer pinned.
  void PrefetchLoop() {
    const auto rpp = static_cast<int64_t>(ctx_.geom.rows_per_page);
    const int64_t first_page = begin_ / rpp;
    const int64_t last_page = (end_ - 1) / rpp;
    int64_t ordinal = 0;  // index into the live-page sequence
    for (int64_t page = first_page; page <= last_page; ++page) {
      if (PageIsDead(ctx_, page)) continue;
      {
        std::unique_lock<std::mutex> lock(pf_mu_);
        pf_cv_.wait(lock, [&] {
          return stop_ || ordinal <= live_pages_consumed_;
        });
        if (stop_) return;
      }
      ctx_.pool->Prefetch(ctx_.file_id, page, ctx_.geom.page_stride(),
                          MakeLoader(prefetch_file_, page));
      ++ordinal;
    }
  }

  PagedReaderContext ctx_;
  std::FILE* file_;
  const int64_t begin_;  ///< immutable; the prefetch thread reads it
  int64_t position_;
  int64_t end_;
  int64_t batch_rows_;
  BufferPool::Pin pin_;
  int64_t pinned_page_ = -1;
  int64_t pruned_rows_ = 0;
  // Prefetch pacing: the consumer counts the live pages it has pinned;
  // the prefetcher stalls until its next live page is at most one past
  // that count.
  std::FILE* prefetch_file_ = nullptr;
  std::mutex pf_mu_;
  std::condition_variable pf_cv_;
  int64_t live_pages_consumed_ = 0;
  bool stop_ = false;
  std::thread prefetcher_;
};

}  // namespace

Result<std::unique_ptr<PagedFileBatchSource>> PagedFileBatchSource::Open(
    const std::string& path, int64_t batch_rows, PagedReadMode mode,
    BufferPool* pool) {
  OPTRULES_CHECK(pool != nullptr);
  if (batch_rows <= 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  if (!info.ok()) return info.status();
  Result<uint64_t> file_id = pool->RegisterFile(path);
  if (!file_id.ok()) return file_id.status();
  auto source =
      std::unique_ptr<PagedFileBatchSource>(new PagedFileBatchSource());
  source->path_ = path;
  source->info_ = info.value();
  source->batch_rows_ = batch_rows;
  source->mode_ = mode;
  source->pool_ = pool;
  source->pool_file_id_ = file_id.value();
  if (source->info_.has_zone_maps) {
    Result<ZoneMapIndex> zones = ReadZoneMapIndex(path, source->info_);
    if (!zones.ok()) return zones.status();
    source->zones_ =
        std::make_shared<const ZoneMapIndex>(std::move(zones.value()));
  }
  return source;
}

std::unique_ptr<BatchReader> PagedFileBatchSource::DoCreateReader() {
  return CreateRangeReader(0, info_.num_rows);
}

std::unique_ptr<BatchReader> PagedFileBatchSource::CreateRangeReader(
    int64_t begin, int64_t end) {
  OPTRULES_CHECK(0 <= begin && begin <= end && end <= info_.num_rows);
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  OPTRULES_CHECK(file != nullptr);
  PagedReaderContext ctx;
  ctx.path = path_;
  ctx.info = info_;
  ctx.geom = ScanGeometry(info_);
  ctx.pool = pool_;
  ctx.file_id = pool_file_id_;
  ctx.zones = zones_;
  ctx.prune = prune_spec();
  ctx.source = this;
  return std::make_unique<PagedFileBatchReader>(std::move(ctx), file, begin,
                                                end, batch_rows_, mode_);
}

}  // namespace optrules::storage
