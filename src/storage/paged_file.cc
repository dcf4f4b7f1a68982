#include "storage/paged_file.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "storage/buffer_pool.h"

namespace optrules::storage {

namespace {

constexpr uint32_t kMagic = 0x4f505452;      // "OPTR"
constexpr uint32_t kZoneMapMagic = 0x4f50545a;  // "OPTZ"
/// Zone-map trailer prefix: magic + 4 pad bytes (keeps the double pairs
/// 8-aligned relative to the trailer start).
constexpr size_t kZoneMapTrailerPrefixBytes = 8;
/// Bit 0 of the v2 header's reserved word: a zone-map trailer follows the
/// last page.
constexpr uint32_t kHeaderFlagZoneMaps = 1;
/// Write-buffer size of the v1 writer (v2 buffers exactly one page).
constexpr size_t kV1WriteBufferBytes = size_t{1} << 20;

void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
uint32_t GetU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

size_t RoundUp8(size_t n) { return (n + 7) & ~size_t{7}; }

/// Auto page size: the largest power-of-two row count whose column payload
/// stays around 1 MiB, clamped to [256, 65536]. Power-of-two keeps the
/// row -> (page, offset) split cheap and the clamp bounds both per-page
/// overhead (wide schemas) and page count (narrow schemas).
uint32_t AutoRowsPerPage(size_t row_bytes) {
  constexpr size_t kTargetPayload = size_t{1} << 20;
  uint32_t rows = 256;
  while (rows < 65536 &&
         size_t{rows} * 2 * row_bytes <= kTargetPayload) {
    rows *= 2;
  }
  return rows;
}

/// Fills a v2 page's column-offset directory (identical on every page).
void WriteDirectory(const PagedFileInfo& geom, uint8_t* page) {
  for (int c = 0; c < geom.num_numeric; ++c) {
    PutU32(page + static_cast<size_t>(c) * 4,
           static_cast<uint32_t>(geom.numeric_run_offset(c)));
  }
  for (int b = 0; b < geom.num_boolean; ++b) {
    PutU32(page + (static_cast<size_t>(geom.num_numeric) +
                   static_cast<size_t>(b)) *
                      4,
           static_cast<uint32_t>(geom.boolean_run_offset(b)));
  }
}

/// Geometry snapshot used by the writer (num_rows irrelevant there).
PagedFileInfo MakeV2Geometry(int num_numeric, int num_boolean,
                             uint32_t rows_per_page) {
  PagedFileInfo geom;
  geom.num_numeric = num_numeric;
  geom.num_boolean = num_boolean;
  geom.row_bytes = static_cast<size_t>(num_numeric) * sizeof(double) +
                   static_cast<size_t>(num_boolean);
  geom.format_version = 2;
  geom.rows_per_page = rows_per_page;
  geom.header_bytes = kPagedFileV2HeaderBytes;
  return geom;
}

/// Rows per scan page of a v1 file: the v1 analogue of AutoRowsPerPage's
/// ~1 MiB target, clamped to [256, 65536].
uint32_t V1BlockRows(size_t row_bytes) {
  const auto rows = static_cast<int64_t>((size_t{1} << 20) / row_bytes);
  return static_cast<uint32_t>(std::clamp<int64_t>(rows, 256, 65536));
}

/// Seeks to an absolute byte offset in chunks that fit a 32-bit long, so
/// page offsets in files beyond 2 GiB work on every platform (plain fseek
/// takes a long, which is 32 bits on some targets).
void SeekToOffset(std::FILE* file, uint64_t offset) {
  OPTRULES_CHECK(std::fseek(file, 0, SEEK_SET) == 0);
  constexpr uint64_t kChunk = 1u << 30;
  while (offset > 0) {
    const uint64_t step = std::min(offset, kChunk);
    OPTRULES_CHECK(std::fseek(file, static_cast<long>(step), SEEK_CUR) == 0);
    offset -= step;
  }
}

}  // namespace

size_t PagedFileInfo::directory_bytes() const {
  return RoundUp8(
      (static_cast<size_t>(num_numeric) + static_cast<size_t>(num_boolean)) *
      4);
}

size_t PagedFileInfo::numeric_run_offset(int c) const {
  return directory_bytes() +
         static_cast<size_t>(c) * rows_per_page * sizeof(double);
}

size_t PagedFileInfo::boolean_run_offset(int b) const {
  return directory_bytes() +
         static_cast<size_t>(num_numeric) * rows_per_page * sizeof(double) +
         static_cast<size_t>(b) * rows_per_page;
}

size_t PagedFileInfo::page_stride() const {
  return RoundUp8(boolean_run_offset(num_boolean));
}

int64_t PagedFileInfo::num_pages() const {
  if (rows_per_page == 0) return 0;
  return (num_rows + rows_per_page - 1) /
         static_cast<int64_t>(rows_per_page);
}

int64_t PagedFileInfo::rows_in_page(int64_t page) const {
  const int64_t begin = page * static_cast<int64_t>(rows_per_page);
  return std::min<int64_t>(rows_per_page, num_rows - begin);
}

int64_t PagedFileInfo::zone_map_offset() const {
  return static_cast<int64_t>(header_bytes) +
         num_pages() * static_cast<int64_t>(page_stride());
}

size_t PagedFileInfo::zone_map_entry_bytes() const {
  return static_cast<size_t>(num_numeric) * 2 * sizeof(double) +
         static_cast<size_t>(num_boolean) * 2;
}

Status ValidateV2Page(const PagedFileInfo& info, int64_t page_index,
                      std::span<const uint8_t> page) {
  OPTRULES_CHECK(info.format_version == 2);
  OPTRULES_CHECK(page.size() == info.page_stride());
  for (int c = 0; c < info.num_numeric; ++c) {
    if (GetU32(page.data() + static_cast<size_t>(c) * 4) !=
        info.numeric_run_offset(c)) {
      return Status::Corruption("page directory mismatch (numeric column " +
                                std::to_string(c) + ", page " +
                                std::to_string(page_index) + ")");
    }
  }
  for (int b = 0; b < info.num_boolean; ++b) {
    if (GetU32(page.data() + (static_cast<size_t>(info.num_numeric) +
                              static_cast<size_t>(b)) *
                                 4) != info.boolean_run_offset(b)) {
      return Status::Corruption("page directory mismatch (boolean column " +
                                std::to_string(b) + ", page " +
                                std::to_string(page_index) + ")");
    }
  }
  const int64_t rows = info.rows_in_page(page_index);
  if (rows < 0 || rows > static_cast<int64_t>(info.rows_per_page)) {
    return Status::Corruption("page " + std::to_string(page_index) +
                              " out of range");
  }
  if (rows == static_cast<int64_t>(info.rows_per_page)) return Status::Ok();
  // Partial last page: the unused tail of every column run (and the final
  // stride pad) must be zero -- the writer's stale-byte guarantee.
  auto all_zero = [&page](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (page[i] != 0) return false;
    }
    return true;
  };
  const auto used = static_cast<size_t>(rows);
  for (int c = 0; c < info.num_numeric; ++c) {
    const size_t run = info.numeric_run_offset(c);
    if (!all_zero(run + used * sizeof(double),
                  run + info.rows_per_page * sizeof(double))) {
      return Status::Corruption("stale bytes after numeric column " +
                                std::to_string(c) + " in partial page " +
                                std::to_string(page_index));
    }
  }
  for (int b = 0; b < info.num_boolean; ++b) {
    const size_t run = info.boolean_run_offset(b);
    if (!all_zero(run + used, run + info.rows_per_page)) {
      return Status::Corruption("stale bytes after boolean column " +
                                std::to_string(b) + " in partial page " +
                                std::to_string(page_index));
    }
  }
  if (!all_zero(info.boolean_run_offset(info.num_boolean),
                info.page_stride())) {
    return Status::Corruption("stale bytes in stride pad of page " +
                              std::to_string(page_index));
  }
  return Status::Ok();
}

Result<PagedFileWriter> PagedFileWriter::Create(
    const std::string& path, int num_numeric, int num_boolean,
    const PagedFileWriterOptions& options) {
  if (num_numeric < 0 || num_boolean < 0 || num_numeric + num_boolean == 0) {
    return Status::InvalidArgument("invalid attribute counts");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create file: " + path);
  }
  // fopen("wb") truncates in place (same inode), so drop any frames the
  // default pool cached for a previous file at this path.
  BufferPool::Default()->InvalidateFile(path);
  PagedFileWriter writer;
  writer.file_ = file;
  writer.path_ = path;
  writer.format_ = options.format;
  writer.num_numeric_ = num_numeric;
  writer.num_boolean_ = num_boolean;
  writer.row_bytes_ = static_cast<size_t>(num_numeric) * sizeof(double) +
                      static_cast<size_t>(num_boolean);

  const bool v2 = options.format == PagedFileFormat::kColumnarV2;
  const size_t header_bytes =
      v2 ? kPagedFileV2HeaderBytes : kPagedFileHeaderBytes;
  uint8_t header[kPagedFileV2HeaderBytes] = {0};
  PutU32(header, kMagic);
  PutU32(header + 4, static_cast<uint32_t>(options.format));
  PutU32(header + 8, static_cast<uint32_t>(num_numeric));
  PutU32(header + 12, static_cast<uint32_t>(num_boolean));
  PutU64(header + 16, 0);  // row count patched in Close().
  if (v2) {
    writer.rows_per_page_ = options.rows_per_page != 0
                                ? options.rows_per_page
                                : AutoRowsPerPage(writer.row_bytes_);
    const PagedFileInfo geom =
        MakeV2Geometry(num_numeric, num_boolean, writer.rows_per_page_);
    writer.directory_bytes_ = geom.directory_bytes();
    writer.page_stride_ = geom.page_stride();
    writer.buffer_.assign(writer.page_stride_, 0);
    WriteDirectory(geom, writer.buffer_.data());
    PutU32(header + 24, writer.rows_per_page_);
    writer.zone_maps_ = options.zone_maps;
    PutU32(header + 28, writer.zone_maps_ ? kHeaderFlagZoneMaps : 0);
    if (writer.zone_maps_) {
      writer.ResetZoneAccumulators();
      writer.zone_trailer_.assign(kZoneMapTrailerPrefixBytes, 0);
      PutU32(writer.zone_trailer_.data(), kZoneMapMagic);
    }
  } else {
    writer.buffer_.resize(std::max(kV1WriteBufferBytes, writer.row_bytes_));
  }
  if (std::fwrite(header, 1, header_bytes, file) != header_bytes) {
    std::fclose(file);
    return Status::IoError("cannot write header: " + path);
  }
  return writer;
}

PagedFileWriter::PagedFileWriter(PagedFileWriter&& other) noexcept {
  *this = std::move(other);
}

PagedFileWriter& PagedFileWriter::operator=(
    PagedFileWriter&& other) noexcept {
  if (this == &other) return *this;
  if (file_ != nullptr) std::fclose(file_);
  file_ = other.file_;
  other.file_ = nullptr;
  path_ = std::move(other.path_);
  format_ = other.format_;
  num_numeric_ = other.num_numeric_;
  num_boolean_ = other.num_boolean_;
  row_bytes_ = other.row_bytes_;
  num_rows_ = other.num_rows_;
  buffer_ = std::move(other.buffer_);
  buffer_used_ = other.buffer_used_;
  rows_per_page_ = other.rows_per_page_;
  directory_bytes_ = other.directory_bytes_;
  page_stride_ = other.page_stride_;
  row_in_page_ = other.row_in_page_;
  zone_maps_ = other.zone_maps_;
  zone_min_ = std::move(other.zone_min_);
  zone_max_ = std::move(other.zone_max_);
  zone_bool_min_ = std::move(other.zone_bool_min_);
  zone_bool_max_ = std::move(other.zone_bool_max_);
  zone_trailer_ = std::move(other.zone_trailer_);
  return *this;
}

void PagedFileWriter::ResetZoneAccumulators() {
  zone_min_.assign(static_cast<size_t>(num_numeric_),
                   std::numeric_limits<double>::infinity());
  zone_max_.assign(static_cast<size_t>(num_numeric_),
                   -std::numeric_limits<double>::infinity());
  zone_bool_min_.assign(static_cast<size_t>(num_boolean_), 1);
  zone_bool_max_.assign(static_cast<size_t>(num_boolean_), 0);
}

void PagedFileWriter::AppendZoneEntry() {
  const size_t base = zone_trailer_.size();
  zone_trailer_.resize(base + static_cast<size_t>(num_numeric_) * 2 *
                                  sizeof(double) +
                       static_cast<size_t>(num_boolean_) * 2);
  uint8_t* out = zone_trailer_.data() + base;
  for (int c = 0; c < num_numeric_; ++c) {
    std::memcpy(out, &zone_min_[static_cast<size_t>(c)], sizeof(double));
    out += sizeof(double);
    std::memcpy(out, &zone_max_[static_cast<size_t>(c)], sizeof(double));
    out += sizeof(double);
  }
  for (int b = 0; b < num_boolean_; ++b) {
    *out++ = zone_bool_min_[static_cast<size_t>(b)];
    *out++ = zone_bool_max_[static_cast<size_t>(b)];
  }
  ResetZoneAccumulators();
}

PagedFileWriter::~PagedFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status PagedFileWriter::FlushBuffer() {
  if (buffer_used_ == 0) return Status::Ok();
  if (std::fwrite(buffer_.data(), 1, buffer_used_, file_) != buffer_used_) {
    return Status::IoError("write failed: " + path_);
  }
  buffer_used_ = 0;
  return Status::Ok();
}

Result<uint8_t*> PagedFileWriter::ReserveRow() {
  OPTRULES_CHECK(file_ != nullptr);
  if (buffer_used_ + row_bytes_ > buffer_.size()) {
    OPTRULES_RETURN_IF_ERROR(FlushBuffer());
  }
  uint8_t* row = buffer_.data() + buffer_used_;
  buffer_used_ += row_bytes_;
  ++num_rows_;
  return row;
}

Status PagedFileWriter::FlushPage() {
  if (std::fwrite(buffer_.data(), 1, page_stride_, file_) != page_stride_) {
    return Status::IoError("write failed: " + path_);
  }
  if (zone_maps_) AppendZoneEntry();
  // Clear the payload for the next page (the directory is identical on
  // every page and stays in place), so a final partial page is zero-padded
  // by construction rather than by a separate pass.
  std::memset(buffer_.data() + directory_bytes_, 0,
              page_stride_ - directory_bytes_);
  row_in_page_ = 0;
  return Status::Ok();
}

Status PagedFileWriter::AppendRowV2(const double* numeric_values,
                                    const uint8_t* boolean_values) {
  OPTRULES_CHECK(file_ != nullptr);
  uint8_t* page = buffer_.data();
  const size_t r = row_in_page_;
  size_t offset = directory_bytes_ + r * sizeof(double);
  for (int c = 0; c < num_numeric_; ++c) {
    std::memcpy(page + offset, numeric_values + c, sizeof(double));
    offset += size_t{rows_per_page_} * sizeof(double);
  }
  offset = directory_bytes_ +
           static_cast<size_t>(num_numeric_) * rows_per_page_ *
               sizeof(double) +
           r;
  for (int b = 0; b < num_boolean_; ++b) {
    page[offset] = boolean_values[b];
    offset += rows_per_page_;
  }
  if (zone_maps_) {
    for (int c = 0; c < num_numeric_; ++c) {
      const double v = numeric_values[c];
      if (!std::isnan(v)) {
        const auto i = static_cast<size_t>(c);
        if (v < zone_min_[i]) zone_min_[i] = v;
        if (v > zone_max_[i]) zone_max_[i] = v;
      }
    }
    for (int b = 0; b < num_boolean_; ++b) {
      const auto i = static_cast<size_t>(b);
      if (boolean_values[b] < zone_bool_min_[i]) {
        zone_bool_min_[i] = boolean_values[b];
      }
      if (boolean_values[b] > zone_bool_max_[i]) {
        zone_bool_max_[i] = boolean_values[b];
      }
    }
  }
  ++row_in_page_;
  ++num_rows_;
  if (row_in_page_ == rows_per_page_) return FlushPage();
  return Status::Ok();
}

Status PagedFileWriter::AppendRawRow(const uint8_t* row) {
  if (format_ == PagedFileFormat::kColumnarV2) {
    // The row-major bytes may be unaligned (caller-owned buffer), so the
    // doubles go through a memcpy-based scatter.
    uint8_t* page = buffer_.data();
    const size_t r = row_in_page_;
    size_t offset = directory_bytes_ + r * sizeof(double);
    for (int c = 0; c < num_numeric_; ++c) {
      std::memcpy(page + offset, row + static_cast<size_t>(c) * 8,
                  sizeof(double));
      if (zone_maps_) {
        double v;
        std::memcpy(&v, row + static_cast<size_t>(c) * 8, sizeof(double));
        if (!std::isnan(v)) {
          const auto i = static_cast<size_t>(c);
          if (v < zone_min_[i]) zone_min_[i] = v;
          if (v > zone_max_[i]) zone_max_[i] = v;
        }
      }
      offset += size_t{rows_per_page_} * sizeof(double);
    }
    const uint8_t* booleans = row + static_cast<size_t>(num_numeric_) * 8;
    offset = directory_bytes_ +
             static_cast<size_t>(num_numeric_) * rows_per_page_ *
                 sizeof(double) +
             r;
    for (int b = 0; b < num_boolean_; ++b) {
      page[offset] = booleans[b];
      if (zone_maps_) {
        const auto i = static_cast<size_t>(b);
        if (booleans[b] < zone_bool_min_[i]) zone_bool_min_[i] = booleans[b];
        if (booleans[b] > zone_bool_max_[i]) zone_bool_max_[i] = booleans[b];
      }
      offset += rows_per_page_;
    }
    ++row_in_page_;
    ++num_rows_;
    if (row_in_page_ == rows_per_page_) return FlushPage();
    return Status::Ok();
  }
  Result<uint8_t*> slot = ReserveRow();
  if (!slot.ok()) return slot.status();
  std::memcpy(slot.value(), row, row_bytes_);
  return Status::Ok();
}

Status PagedFileWriter::AppendRow(std::span<const double> numeric_values,
                                  std::span<const uint8_t> boolean_values) {
  OPTRULES_CHECK(numeric_values.size() == static_cast<size_t>(num_numeric_));
  OPTRULES_CHECK(boolean_values.size() == static_cast<size_t>(num_boolean_));
  if (format_ == PagedFileFormat::kColumnarV2) {
    return AppendRowV2(numeric_values.data(), boolean_values.data());
  }
  // Serialize straight into the write buffer: Create() sizes it to hold at
  // least one row, so arbitrarily wide schemas (the paper's "hundreds of
  // numeric attributes") never hit a fixed-size staging array.
  Result<uint8_t*> slot = ReserveRow();
  if (!slot.ok()) return slot.status();
  // An empty span's data() may be null, which memcpy must never see.
  if (!numeric_values.empty()) {
    std::memcpy(slot.value(), numeric_values.data(),
                numeric_values.size() * sizeof(double));
  }
  if (!boolean_values.empty()) {
    std::memcpy(slot.value() + numeric_values.size() * sizeof(double),
                boolean_values.data(), boolean_values.size());
  }
  return Status::Ok();
}

Status PagedFileWriter::Close() {
  OPTRULES_CHECK(file_ != nullptr);
  if (format_ == PagedFileFormat::kColumnarV2) {
    if (row_in_page_ > 0) {
      // Partial last page: the payload past row_in_page_ was never written
      // and is still zero from FlushPage()/Create(), so flushing as-is
      // gives the zero-padded tail readers assert on.
      OPTRULES_RETURN_IF_ERROR(FlushPage());
    }
    if (zone_maps_ &&
        std::fwrite(zone_trailer_.data(), 1, zone_trailer_.size(), file_) !=
            zone_trailer_.size()) {
      return Status::IoError("zone-map trailer write failed: " + path_);
    }
  } else {
    OPTRULES_RETURN_IF_ERROR(FlushBuffer());
  }
  // The row count lives at byte 16 in both header versions.
  if (std::fseek(file_, 16, SEEK_SET) != 0) {
    return Status::IoError("seek failed: " + path_);
  }
  uint8_t count_bytes[8];
  PutU64(count_bytes, static_cast<uint64_t>(num_rows_));
  if (std::fwrite(count_bytes, 1, 8, file_) != 8) {
    return Status::IoError("header patch failed: " + path_);
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed: " + path_);
  // The bytes behind `path_` just changed: a long-lived default pool must
  // not serve frames cached from a previous file at this path (file
  // timestamps are too coarse to catch a quick same-size rewrite).
  BufferPool::Default()->InvalidateFile(path_);
  return Status::Ok();
}

Result<PagedFileInfo> ReadPagedFileInfo(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open: " + path);
  uint8_t header[kPagedFileV2HeaderBytes];
  const size_t got = std::fread(header, 1, sizeof(header), file);
  // fstat, not fseek(SEEK_END): glibc refills its buffer from the file's
  // tail on a read-mode seek, and opening a table must read no page bytes.
  struct stat st;
  const bool stat_ok = ::fstat(::fileno(file), &st) == 0;
  std::fclose(file);
  if (!stat_ok) return Status::IoError("cannot stat: " + path);
  const auto file_bytes = static_cast<uint64_t>(st.st_size);
  // An empty v1 file is exactly 24 bytes, so only the common prefix is
  // required up front; v2 needs the full 32.
  if (got < kPagedFileHeaderBytes) {
    return Status::Corruption("short header: " + path);
  }
  if (GetU32(header) != kMagic) {
    return Status::Corruption("bad magic: " + path);
  }
  const uint32_t version = GetU32(header + 4);
  if (version != 1 && version != 2) {
    return Status::Corruption("unsupported version: " + path);
  }
  PagedFileInfo info;
  info.format_version = version;
  info.num_numeric = static_cast<int>(GetU32(header + 8));
  info.num_boolean = static_cast<int>(GetU32(header + 12));
  info.num_rows = static_cast<int64_t>(GetU64(header + 16));
  info.row_bytes = static_cast<size_t>(info.num_numeric) * sizeof(double) +
                   static_cast<size_t>(info.num_boolean);
  if (version == 2) {
    if (got < kPagedFileV2HeaderBytes) {
      return Status::Corruption("short header: " + path);
    }
    info.header_bytes = kPagedFileV2HeaderBytes;
    info.rows_per_page = GetU32(header + 24);
    if (info.rows_per_page == 0) {
      return Status::Corruption("zero rows_per_page: " + path);
    }
    info.has_zone_maps = (GetU32(header + 28) & kHeaderFlagZoneMaps) != 0;
  }
  if (info.num_numeric < 0 || info.num_boolean < 0 || info.num_rows < 0) {
    return Status::Corruption("invalid header counts: " + path);
  }
  // The header must not promise more rows than the file holds, so a
  // truncated table fails here, at open, instead of mid-scan. Checked by
  // division: a corrupt row count cannot overflow the comparison.
  const uint64_t payload = file_bytes - info.header_bytes;
  const auto rows = static_cast<uint64_t>(info.num_rows);
  const uint64_t units =
      version == 1 ? rows
                   : rows / info.rows_per_page +
                         (rows % info.rows_per_page != 0 ? 1 : 0);
  const uint64_t unit_bytes =
      version == 1 ? info.row_bytes : info.page_stride();
  if (unit_bytes > 0 && units > payload / unit_bytes) {
    return Status::Corruption("truncated file: " + path);
  }
  return info;
}

PagedFileInfo ScanGeometry(const PagedFileInfo& info) {
  if (info.format_version == 2) return info;
  PagedFileInfo geom =
      MakeV2Geometry(info.num_numeric, info.num_boolean,
                     V1BlockRows(std::max<size_t>(info.row_bytes, 1)));
  geom.num_rows = info.num_rows;
  return geom;
}

Status ReadPageImage(const PagedFileInfo& info, std::FILE* file,
                     int64_t page, std::span<uint8_t> dest) {
  const PagedFileInfo geom = ScanGeometry(info);
  OPTRULES_CHECK(0 <= page && page < geom.num_pages());
  OPTRULES_CHECK(dest.size() == geom.page_stride());
  const auto truncated = [page] {
    return Status::IoError("short read of page " + std::to_string(page));
  };
  if (info.format_version == 2) {
    SeekToOffset(file, static_cast<uint64_t>(info.header_bytes) +
                           static_cast<uint64_t>(page) * dest.size());
    if (std::fread(dest.data(), 1, dest.size(), file) != dest.size()) {
      return truncated();
    }
    return ValidateV2Page(info, page, dest);
  }
  // v1: read the block's whole rows, then scatter them into the column runs
  // of a zeroed v2 page image.
  const auto rows = static_cast<size_t>(geom.rows_in_page(page));
  std::vector<uint8_t> block(rows * info.row_bytes);
  SeekToOffset(file, static_cast<uint64_t>(info.header_bytes) +
                         static_cast<uint64_t>(page) * geom.rows_per_page *
                             info.row_bytes);
  if (std::fread(block.data(), 1, block.size(), file) != block.size()) {
    return truncated();
  }
  std::fill(dest.begin(), dest.end(), uint8_t{0});
  WriteDirectory(geom, dest.data());
  for (int c = 0; c < info.num_numeric; ++c) {
    uint8_t* run = dest.data() + geom.numeric_run_offset(c);
    for (size_t r = 0; r < rows; ++r) {
      std::memcpy(run + r * sizeof(double),
                  block.data() + r * info.row_bytes +
                      static_cast<size_t>(c) * sizeof(double),
                  sizeof(double));
    }
  }
  const size_t boolean_offset =
      static_cast<size_t>(info.num_numeric) * sizeof(double);
  for (int b = 0; b < info.num_boolean; ++b) {
    uint8_t* run = dest.data() + geom.boolean_run_offset(b);
    for (size_t r = 0; r < rows; ++r) {
      run[r] = block[r * info.row_bytes + boolean_offset +
                     static_cast<size_t>(b)];
    }
  }
  return Status::Ok();
}

Result<ZoneMapIndex> ReadZoneMapIndex(const std::string& path,
                                      const PagedFileInfo& info) {
  OPTRULES_CHECK(info.format_version == 2 && info.has_zone_maps);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open: " + path);
  const int64_t pages = info.num_pages();
  const size_t entry = info.zone_map_entry_bytes();
  const int64_t trailer_bytes =
      static_cast<int64_t>(kZoneMapTrailerPrefixBytes) +
      pages * static_cast<int64_t>(entry);
  // The trailer must END the file: seek there first so a truncated or
  // over-long file fails here instead of feeding garbage bounds to the
  // pruning layer.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::IoError("seek failed: " + path);
  }
  if (std::ftell(file) != static_cast<long>(info.zone_map_offset() +
                                            trailer_bytes)) {
    std::fclose(file);
    return Status::Corruption("zone-map trailer size mismatch: " + path);
  }
  if (std::fseek(file, static_cast<long>(info.zone_map_offset()),
                 SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IoError("seek failed: " + path);
  }
  uint8_t prefix[kZoneMapTrailerPrefixBytes];
  if (std::fread(prefix, 1, sizeof(prefix), file) != sizeof(prefix)) {
    std::fclose(file);
    return Status::Corruption("truncated zone-map trailer: " + path);
  }
  if (GetU32(prefix) != kZoneMapMagic) {
    std::fclose(file);
    return Status::Corruption("bad zone-map trailer magic: " + path);
  }
  ZoneMapIndex zones;
  zones.num_numeric = info.num_numeric;
  zones.num_boolean = info.num_boolean;
  zones.num_pages = pages;
  zones.numeric_min.resize(static_cast<size_t>(pages) *
                           static_cast<size_t>(info.num_numeric));
  zones.numeric_max.resize(zones.numeric_min.size());
  zones.boolean_min.resize(static_cast<size_t>(pages) *
                           static_cast<size_t>(info.num_boolean));
  zones.boolean_max.resize(zones.boolean_min.size());
  std::vector<uint8_t> buffer(entry);
  for (int64_t p = 0; p < pages; ++p) {
    if (std::fread(buffer.data(), 1, entry, file) != entry) {
      std::fclose(file);
      return Status::Corruption("truncated zone-map trailer: " + path);
    }
    const uint8_t* in = buffer.data();
    for (int c = 0; c < info.num_numeric; ++c) {
      double lo;
      double hi;
      std::memcpy(&lo, in, sizeof(double));
      in += sizeof(double);
      std::memcpy(&hi, in, sizeof(double));
      in += sizeof(double);
      // Bounds are NaN-skipped by construction; a NaN bound, or an
      // inverted pair that is not the all-NaN sentinel (+inf, -inf), can
      // only come from corruption -- and a bad bound would silently prune
      // live pages, so it is rejected like a directory mismatch.
      const bool sentinel =
          lo == std::numeric_limits<double>::infinity() &&
          hi == -std::numeric_limits<double>::infinity();
      if (std::isnan(lo) || std::isnan(hi) || (lo > hi && !sentinel)) {
        std::fclose(file);
        return Status::Corruption("invalid zone-map bounds (page " +
                                  std::to_string(p) + ", numeric column " +
                                  std::to_string(c) + "): " + path);
      }
      zones.numeric_min[static_cast<size_t>(p * info.num_numeric + c)] = lo;
      zones.numeric_max[static_cast<size_t>(p * info.num_numeric + c)] = hi;
    }
    for (int b = 0; b < info.num_boolean; ++b) {
      const uint8_t lo = *in++;
      const uint8_t hi = *in++;
      if (lo > 1 || hi > 1 || lo > hi) {
        std::fclose(file);
        return Status::Corruption("invalid zone-map bounds (page " +
                                  std::to_string(p) + ", boolean column " +
                                  std::to_string(b) + "): " + path);
      }
      zones.boolean_min[static_cast<size_t>(p * info.num_boolean + b)] = lo;
      zones.boolean_max[static_cast<size_t>(p * info.num_boolean + b)] = hi;
    }
  }
  std::fclose(file);
  return zones;
}

Status ValidateZoneMapEntry(const PagedFileInfo& info,
                            const ZoneMapIndex& zones, int64_t page_index,
                            std::span<const uint8_t> page) {
  OPTRULES_CHECK(page.size() == info.page_stride());
  const int64_t rows = info.rows_in_page(page_index);
  for (int c = 0; c < info.num_numeric; ++c) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    const uint8_t* run = page.data() + info.numeric_run_offset(c);
    for (int64_t r = 0; r < rows; ++r) {
      double v;
      std::memcpy(&v, run + static_cast<size_t>(r) * sizeof(double),
                  sizeof(double));
      if (std::isnan(v)) continue;
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    if (std::memcmp(&lo, &zones.numeric_min[static_cast<size_t>(
                              page_index * info.num_numeric + c)],
                    sizeof(double)) != 0 ||
        std::memcmp(&hi, &zones.numeric_max[static_cast<size_t>(
                              page_index * info.num_numeric + c)],
                    sizeof(double)) != 0) {
      return Status::Corruption("zone map disagrees with page content "
                                "(page " +
                                std::to_string(page_index) +
                                ", numeric column " + std::to_string(c) +
                                ")");
    }
  }
  for (int b = 0; b < info.num_boolean; ++b) {
    uint8_t lo = 1;
    uint8_t hi = 0;
    const uint8_t* run = page.data() + info.boolean_run_offset(b);
    for (int64_t r = 0; r < rows; ++r) {
      const uint8_t v = run[r];
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    if (lo != zones.BooleanMin(page_index, b) ||
        hi != zones.BooleanMax(page_index, b)) {
      return Status::Corruption("zone map disagrees with page content "
                                "(page " +
                                std::to_string(page_index) +
                                ", boolean column " + std::to_string(b) +
                                ")");
    }
  }
  return Status::Ok();
}

Status WriteRelationToFile(const Relation& relation, const std::string& path,
                           const PagedFileWriterOptions& options) {
  Result<PagedFileWriter> writer_or =
      PagedFileWriter::Create(path, relation.schema().num_numeric(),
                              relation.schema().num_boolean(), options);
  if (!writer_or.ok()) return writer_or.status();
  PagedFileWriter writer = std::move(writer_or).value();
  std::vector<double> numeric_row(
      static_cast<size_t>(relation.schema().num_numeric()));
  std::vector<uint8_t> boolean_row(
      static_cast<size_t>(relation.schema().num_boolean()));
  for (int64_t row = 0; row < relation.NumRows(); ++row) {
    for (int i = 0; i < relation.schema().num_numeric(); ++i) {
      numeric_row[static_cast<size_t>(i)] = relation.NumericValue(row, i);
    }
    for (int i = 0; i < relation.schema().num_boolean(); ++i) {
      boolean_row[static_cast<size_t>(i)] =
          relation.BooleanValue(row, i) ? 1 : 0;
    }
    OPTRULES_RETURN_IF_ERROR(writer.AppendRow(numeric_row, boolean_row));
  }
  return writer.Close();
}

Status WriteRelationToFile(const Relation& relation,
                           const std::string& path) {
  return WriteRelationToFile(relation, path, PagedFileWriterOptions{});
}

Result<Relation> ReadRelationFromFile(const std::string& path,
                                      const Schema& schema) {
  Result<PagedFileInfo> info_or = ReadPagedFileInfo(path);
  if (!info_or.ok()) return info_or.status();
  const PagedFileInfo& info = info_or.value();
  if (info.num_numeric != schema.num_numeric() ||
      info.num_boolean != schema.num_boolean()) {
    return Status::InvalidArgument(
        "schema attribute counts do not match file: " + path);
  }
  // Full-file loads are the integrity backstop: on top of the per-page
  // directory/zero-tail checks, cross-check every zone-map entry against
  // the actual page content when the file carries them.
  ZoneMapIndex zones;
  if (info.has_zone_maps) {
    Result<ZoneMapIndex> zones_or = ReadZoneMapIndex(path, info);
    if (!zones_or.ok()) return zones_or.status();
    zones = std::move(zones_or).value();
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open: " + path);
  Relation relation(schema);
  relation.Reserve(info.num_rows);
  std::vector<double> numeric_row(static_cast<size_t>(info.num_numeric));
  std::vector<uint8_t> boolean_row(static_cast<size_t>(info.num_boolean));
  const PagedFileInfo geom = ScanGeometry(info);
  std::vector<uint8_t> page(geom.page_stride());
  for (int64_t p = 0; p < geom.num_pages(); ++p) {
    Status valid = ReadPageImage(info, file, p, page);
    if (valid.code() == StatusCode::kIoError) {
      valid = Status::Corruption("truncated file: " + path);
    }
    if (valid.ok() && info.has_zone_maps) {
      valid = ValidateZoneMapEntry(info, zones, p, page);
    }
    if (!valid.ok()) {
      std::fclose(file);
      return valid;
    }
    const int64_t rows = geom.rows_in_page(p);
    for (int64_t r = 0; r < rows; ++r) {
      for (int c = 0; c < info.num_numeric; ++c) {
        std::memcpy(&numeric_row[static_cast<size_t>(c)],
                    page.data() + geom.numeric_run_offset(c) +
                        static_cast<size_t>(r) * sizeof(double),
                    sizeof(double));
      }
      for (int b = 0; b < info.num_boolean; ++b) {
        boolean_row[static_cast<size_t>(b)] =
            page[geom.boolean_run_offset(b) + static_cast<size_t>(r)];
      }
      relation.AppendRow(numeric_row, boolean_row);
    }
  }
  std::fclose(file);
  return relation;
}

}  // namespace optrules::storage
