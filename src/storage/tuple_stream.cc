#include "storage/tuple_stream.h"

#include <cstring>

namespace optrules::storage {

RelationTupleStream::RelationTupleStream(const Relation* relation)
    : relation_(relation) {
  OPTRULES_CHECK(relation != nullptr);
  numeric_buffer_.resize(
      static_cast<size_t>(relation->schema().num_numeric()));
  boolean_buffer_.resize(
      static_cast<size_t>(relation->schema().num_boolean()));
}

int RelationTupleStream::num_numeric() const {
  return relation_->schema().num_numeric();
}

int RelationTupleStream::num_boolean() const {
  return relation_->schema().num_boolean();
}

int64_t RelationTupleStream::NumTuples() const {
  return relation_->NumRows();
}

bool RelationTupleStream::Next(TupleView* view) {
  if (position_ >= relation_->NumRows()) return false;
  for (int i = 0; i < num_numeric(); ++i) {
    numeric_buffer_[static_cast<size_t>(i)] =
        relation_->NumericValue(position_, i);
  }
  for (int i = 0; i < num_boolean(); ++i) {
    boolean_buffer_[static_cast<size_t>(i)] =
        relation_->BooleanValue(position_, i) ? 1 : 0;
  }
  ++position_;
  view->numeric = numeric_buffer_.data();
  view->booleans = boolean_buffer_.data();
  return true;
}

Result<std::unique_ptr<FileTupleStream>> FileTupleStream::Open(
    const std::string& path) {
  Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  if (!info.ok()) return info.status();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::IoError("cannot open: " + path);
  auto stream = std::unique_ptr<FileTupleStream>(new FileTupleStream());
  stream->file_ = file;
  stream->info_ = info.value();
  stream->geom_ = ScanGeometry(stream->info_);
  stream->page_.resize(stream->geom_.page_stride());
  stream->numeric_buffer_.resize(
      static_cast<size_t>(stream->info_.num_numeric));
  stream->boolean_buffer_.resize(
      static_cast<size_t>(stream->info_.num_boolean));
  return stream;
}

FileTupleStream::~FileTupleStream() {
  if (file_ != nullptr) std::fclose(file_);
}

bool FileTupleStream::Next(TupleView* view) {
  if (rows_consumed_ >= info_.num_rows) return false;
  if (page_position_ >= rows_in_page_) {
    const int64_t page =
        rows_consumed_ / static_cast<int64_t>(geom_.rows_per_page);
    const Status loaded = ReadPageImage(info_, file_, page, page_);
    // A short read (truncated file) ends the stream early rather than
    // fabricating rows; a page that fails validation is a hard error.
    if (loaded.code() == StatusCode::kIoError) return false;
    OPTRULES_CHECK(loaded.ok());
    rows_in_page_ = geom_.rows_in_page(page);
    page_position_ = 0;
  }
  const auto r = static_cast<size_t>(page_position_);
  for (int c = 0; c < info_.num_numeric; ++c) {
    std::memcpy(&numeric_buffer_[static_cast<size_t>(c)],
                page_.data() + geom_.numeric_run_offset(c) +
                    r * sizeof(double),
                sizeof(double));
  }
  for (int b = 0; b < info_.num_boolean; ++b) {
    boolean_buffer_[static_cast<size_t>(b)] =
        page_[geom_.boolean_run_offset(b) + r];
  }
  view->numeric = numeric_buffer_.data();
  view->booleans = boolean_buffer_.data();
  ++page_position_;
  ++rows_consumed_;
  return true;
}

void FileTupleStream::Reset() {
  rows_in_page_ = 0;
  page_position_ = 0;
  rows_consumed_ = 0;
}

}  // namespace optrules::storage
