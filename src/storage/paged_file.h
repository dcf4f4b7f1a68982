// Fixed-width binary table store, row-major (v1) or columnar (v2).
//
// This is the out-of-core substrate: the paper's motivating setting is a
// database much larger than main memory, where sorting every numeric
// attribute is prohibitively expensive and a single sequential scan is the
// only affordable full-table access. PagedFile stores tables behind a small
// header in one of two on-disk formats, and the readers scan them through
// bounded buffers. Scans see one page format: ReadPageImage loads either
// version as a v2 page image (see ScanGeometry).
//
// v1 (row-major, 24-byte header):
//   [magic u32][version=1][num_numeric u32][num_boolean u32][num_rows u64]
//   row 0, row 1, ... (Schema::RowBytes() bytes each: doubles then booleans)
//
// v2 (columnar pages, 32-byte header):
//   [magic u32][version=2][num_numeric u32][num_boolean u32][num_rows u64]
//   [rows_per_page u32][reserved u32]
//   page 0, page 1, ... (page_stride() bytes each, fixed stride)
//
// Each v2 page holds rows_per_page rows split into per-column contiguous
// runs, so a scan can hand out column slices with zero transpose work:
//
//   [column-offset directory: (nn + nb) u32 entries, padded to 8 bytes]
//   [numeric column 0 run: rows_per_page doubles]
//   ...
//   [numeric column nn-1 run]
//   [boolean column 0 run: rows_per_page bytes]
//   ...
//   [boolean column nb-1 run]
//   [zero pad to 8-byte stride]
//
// The directory is redundant (offsets are derivable from the header) and
// exists as a per-page integrity check; readers validate it. The last page
// may hold fewer than rows_per_page rows; its unused tail bytes are written
// as zero and readers assert that, so stale buffer content can never leak
// into a file. Because the directory is padded to 8 bytes and pages start
// at 8-byte multiples from an 8-byte-aligned header end, every numeric run
// is 8-byte aligned inside a malloc'd page buffer.

#ifndef OPTRULES_STORAGE_PAGED_FILE_H_
#define OPTRULES_STORAGE_PAGED_FILE_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace optrules::storage {

/// Size of the v1 PagedFile header in bytes.
inline constexpr size_t kPagedFileHeaderBytes = 24;
/// Size of the v2 (columnar) PagedFile header in bytes.
inline constexpr size_t kPagedFileV2HeaderBytes = 32;

/// On-disk layout of a PagedFile; the numeric value is the header version.
enum class PagedFileFormat : uint32_t {
  kRowMajorV1 = 1,  ///< rows serialized back to back (legacy; still read
                    ///< everywhere, and written by the naive-sort
                    ///< bucketizer's sorted output and on request)
  kColumnarV2 = 2,  ///< per-column runs inside fixed-stride pages (default)
};

/// Options for PagedFileWriter::Create.
struct PagedFileWriterOptions {
  PagedFileFormat format = PagedFileFormat::kColumnarV2;
  /// Rows per v2 page; 0 = auto-size so a page's column payload is on the
  /// order of 1 MiB (clamped to [256, 65536]). Ignored for v1.
  uint32_t rows_per_page = 0;
  /// v2 only: accumulate per-page per-column min/max (NaN-skipped) while
  /// writing and append the zone-map trailer readers prune scans with.
  /// Flagged in the header's reserved word; files written without zone
  /// maps (and every v1 file) read everywhere, they just never prune.
  bool zone_maps = true;
};

/// Buffered sequential writer of a PagedFile.
class PagedFileWriter {
 public:
  /// Creates/truncates `path` for a table with the given attribute counts
  /// (default options: columnar v2 with zone maps).
  static Result<PagedFileWriter> Create(
      const std::string& path, int num_numeric, int num_boolean,
      const PagedFileWriterOptions& options = {});

  PagedFileWriter(PagedFileWriter&& other) noexcept;
  PagedFileWriter& operator=(PagedFileWriter&& other) noexcept;
  PagedFileWriter(const PagedFileWriter&) = delete;
  PagedFileWriter& operator=(const PagedFileWriter&) = delete;
  ~PagedFileWriter();

  /// Appends one row.
  Status AppendRow(std::span<const double> numeric_values,
                   std::span<const uint8_t> boolean_values);

  /// Appends one row already serialized in the v1 row layout (doubles then
  /// boolean bytes). Works for both formats: the v2 writer scatters the
  /// fields into its page's column runs, so producers that hash or route on
  /// serialized row bytes (the partitioner) need no format awareness.
  Status AppendRawRow(const uint8_t* row);

  /// Flushes (zero-padding a partial v2 page), patches the row count into
  /// the header, and closes the file. Must be called exactly once before
  /// destruction for a valid file.
  Status Close();

  /// Rows appended so far.
  int64_t NumRows() const { return num_rows_; }

 private:
  PagedFileWriter() = default;
  Status FlushBuffer();
  /// v1: claims the next row_bytes_ slot in the write buffer (flushing
  /// first if full) and returns its write pointer; advances the row count.
  Result<uint8_t*> ReserveRow();
  /// v2: writes the staged page (already zero-padded) and clears the
  /// payload region for the next page.
  Status FlushPage();
  /// v2: scatters one row into the staged page's column runs.
  Status AppendRowV2(const double* numeric_values,
                     const uint8_t* boolean_values);
  /// v2 zone maps: resets the staged page's per-column accumulators to the
  /// empty sentinels (+inf/-inf, 1/0).
  void ResetZoneAccumulators();
  /// v2 zone maps: appends the staged page's accumulated entry to the
  /// trailer image and resets the accumulators.
  void AppendZoneEntry();

  std::FILE* file_ = nullptr;
  std::string path_;
  PagedFileFormat format_ = PagedFileFormat::kRowMajorV1;
  int num_numeric_ = 0;
  int num_boolean_ = 0;
  size_t row_bytes_ = 0;
  int64_t num_rows_ = 0;
  std::vector<uint8_t> buffer_;  ///< v1: 1 MiB row buffer; v2: one page
  size_t buffer_used_ = 0;       ///< v1 only
  // v2 page geometry (all zero for v1).
  uint32_t rows_per_page_ = 0;
  size_t directory_bytes_ = 0;
  size_t page_stride_ = 0;
  uint32_t row_in_page_ = 0;
  // v2 zone maps: per-column accumulators of the page being staged, plus
  // the growing trailer image appended to the file in Close().
  bool zone_maps_ = false;
  std::vector<double> zone_min_;
  std::vector<double> zone_max_;
  std::vector<uint8_t> zone_bool_min_;
  std::vector<uint8_t> zone_bool_max_;
  std::vector<uint8_t> zone_trailer_;
};

/// Metadata of an open PagedFile, with the v2 page geometry derived from
/// the header fields (the same formulas the writer used).
struct PagedFileInfo {
  int num_numeric = 0;
  int num_boolean = 0;
  int64_t num_rows = 0;
  size_t row_bytes = 0;  ///< v1 row width (also the logical row width of v2)
  uint32_t format_version = 1;
  uint32_t rows_per_page = 0;  ///< v2 only; 0 for v1
  size_t header_bytes = kPagedFileHeaderBytes;
  /// v2 only: the file carries a zone-map trailer after the last page
  /// (bit 0 of the header's reserved word).
  bool has_zone_maps = false;

  /// v2 geometry. All require format_version == 2.
  size_t directory_bytes() const;
  /// Byte offset of numeric column `c`'s run inside a page.
  size_t numeric_run_offset(int c) const;
  /// Byte offset of boolean column `b`'s run inside a page.
  size_t boolean_run_offset(int b) const;
  /// Fixed on-disk size of every page (8-byte multiple).
  size_t page_stride() const;
  /// Number of pages covering num_rows.
  int64_t num_pages() const;
  /// Rows actually stored in page `page` (only the last may be partial).
  int64_t rows_in_page(int64_t page) const;
  /// Byte offset of the zone-map trailer (just past the last page).
  int64_t zone_map_offset() const;
  /// On-disk bytes of one page's zone-map entry (nn min/max double pairs
  /// followed by nb min/max byte pairs, packed).
  size_t zone_map_entry_bytes() const;
};

/// In-memory zone-map index of one v2 file: per page and per column the
/// min/max over the stored values, with NaNs skipped. A page whose numeric
/// column saw only NaNs carries the empty sentinel (min = +inf > max =
/// -inf); Boolean min/max are 0/1 bytes, so max == 0 means "no true row in
/// this page". Scans prune pages with these, so the index is validated
/// structurally at load time (like the per-page offset directory) and can
/// be cross-checked against page content with ValidateZoneMapEntry.
struct ZoneMapIndex {
  int num_numeric = 0;
  int num_boolean = 0;
  int64_t num_pages = 0;
  /// [page * num_numeric + c]
  std::vector<double> numeric_min;
  std::vector<double> numeric_max;
  /// [page * num_boolean + b]
  std::vector<uint8_t> boolean_min;
  std::vector<uint8_t> boolean_max;

  double NumericMin(int64_t page, int c) const {
    return numeric_min[static_cast<size_t>(page * num_numeric + c)];
  }
  double NumericMax(int64_t page, int c) const {
    return numeric_max[static_cast<size_t>(page * num_numeric + c)];
  }
  uint8_t BooleanMin(int64_t page, int b) const {
    return boolean_min[static_cast<size_t>(page * num_boolean + b)];
  }
  uint8_t BooleanMax(int64_t page, int b) const {
    return boolean_max[static_cast<size_t>(page * num_boolean + b)];
  }
};

/// Loads and validates the zone-map trailer of `path` (info must come from
/// ReadPagedFileInfo on the same file and have has_zone_maps set). Fails
/// with Corruption on a bad trailer magic, a trailer whose size disagrees
/// with the page count, NaN bounds, inverted non-sentinel bounds, or
/// non-0/1 Boolean bounds.
Result<ZoneMapIndex> ReadZoneMapIndex(const std::string& path,
                                      const PagedFileInfo& info);

/// Deep integrity check: recomputes page `page_index`'s zone-map entry
/// from the page image and compares it bit-exactly against the index.
Status ValidateZoneMapEntry(const PagedFileInfo& info,
                            const ZoneMapIndex& zones, int64_t page_index,
                            std::span<const uint8_t> page);

/// Validates one v2 page image against the derived geometry: the stored
/// column-offset directory must match, and on a partial (last) page every
/// byte past the stored rows must be zero -- the writer's stale-byte
/// guarantee. `page.size()` must equal info.page_stride().
Status ValidateV2Page(const PagedFileInfo& info, int64_t page_index,
                      std::span<const uint8_t> page);

/// Reads and validates the header of `path` (either format version).
/// Corruption when the file is shorter than the header implies (header +
/// num_rows * row_bytes for v1, header + num_pages * page_stride for v2),
/// so a truncated table fails when it is opened rather than mid-scan.
Result<PagedFileInfo> ReadPagedFileInfo(const std::string& path);

/// The page geometry every scan of the file `info` describes sees, whatever
/// its on-disk format: a v2 file's own geometry, or -- for a row-major v1
/// file -- a v2 page layout over fixed blocks of rows (about 1 MiB of rows,
/// clamped to [256, 65536]; a pure function of the row width, so every
/// reader agrees on block boundaries). Scan pages are what ReadPageImage
/// produces, so page caches only ever hold v2 page images. Only the page
/// geometry and num_rows are meaningful; file offsets come from `info`.
PagedFileInfo ScanGeometry(const PagedFileInfo& info);

/// Loads scan page `page` of the file `info` describes, read through
/// `file`, into `dest` (exactly ScanGeometry(info).page_stride() bytes): a
/// v2 page is read as stored and checked with ValidateV2Page; a v1 block is
/// read and scattered into a v2 page image with a zero tail, as the writer
/// lays out a partial last page. IoError on a short read (a truncated
/// file), Corruption on a page that fails validation.
Status ReadPageImage(const PagedFileInfo& info, std::FILE* file,
                     int64_t page, std::span<uint8_t> dest);

/// Writes an entire in-memory relation to `path` in PagedFile format.
Status WriteRelationToFile(const Relation& relation, const std::string& path);
Status WriteRelationToFile(const Relation& relation, const std::string& path,
                           const PagedFileWriterOptions& options);

/// Loads an entire PagedFile (either format) into memory. `schema` must
/// match the stored attribute counts; pass Schema::Synthetic(...) when
/// names don't matter.
Result<Relation> ReadRelationFromFile(const std::string& path,
                                      const Schema& schema);

}  // namespace optrules::storage

#endif  // OPTRULES_STORAGE_PAGED_FILE_H_
