// Row-at-a-time tuple scanning over in-memory relations and PagedFiles.
//
// The bucketing pass (Algorithm 3.1 step 4) needs exactly one sequential
// scan of the data. TupleStream abstracts where the tuples live so the same
// counting code runs over an in-memory Relation and over a disk-resident
// table.

#ifndef OPTRULES_STORAGE_TUPLE_STREAM_H_
#define OPTRULES_STORAGE_TUPLE_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/paged_file.h"
#include "storage/relation.h"

namespace optrules::storage {

/// Borrowed view of one tuple; pointers are valid until the next call to
/// Next() on the producing stream.
struct TupleView {
  const double* numeric;    ///< numeric values, num_numeric() entries
  const uint8_t* booleans;  ///< boolean values (0/1), num_boolean() entries
};

/// Sequential, resettable scan over a table.
class TupleStream {
 public:
  virtual ~TupleStream() = default;

  /// Number of numeric attributes per tuple.
  virtual int num_numeric() const = 0;
  /// Number of Boolean attributes per tuple.
  virtual int num_boolean() const = 0;
  /// Total number of tuples in the table.
  virtual int64_t NumTuples() const = 0;

  /// Advances to the next tuple; returns false at end of stream.
  virtual bool Next(TupleView* view) = 0;

  /// Rewinds the stream to the first tuple.
  virtual void Reset() = 0;
};

/// TupleStream over an in-memory Relation (does not own the relation).
class RelationTupleStream : public TupleStream {
 public:
  explicit RelationTupleStream(const Relation* relation);

  int num_numeric() const override;
  int num_boolean() const override;
  int64_t NumTuples() const override;
  bool Next(TupleView* view) override;
  void Reset() override { position_ = 0; }

 private:
  const Relation* relation_;
  int64_t position_ = 0;
  std::vector<double> numeric_buffer_;
  std::vector<uint8_t> boolean_buffer_;
};

/// TupleStream over a PagedFile (either format version), reading one scan
/// page at a time through ReadPageImage (the same page loader the batch
/// readers use), so scans of tables larger than memory stay sequential and
/// cheap. Each tuple is gathered from the page image's per-column runs.
class FileTupleStream : public TupleStream {
 public:
  static Result<std::unique_ptr<FileTupleStream>> Open(
      const std::string& path);

  ~FileTupleStream() override;
  FileTupleStream(const FileTupleStream&) = delete;
  FileTupleStream& operator=(const FileTupleStream&) = delete;

  int num_numeric() const override { return info_.num_numeric; }
  int num_boolean() const override { return info_.num_boolean; }
  int64_t NumTuples() const override { return info_.num_rows; }
  bool Next(TupleView* view) override;
  void Reset() override;

 private:
  FileTupleStream() = default;

  std::FILE* file_ = nullptr;
  PagedFileInfo info_;
  PagedFileInfo geom_;  ///< ScanGeometry(info_)
  std::vector<uint8_t> page_;  ///< one scan page image
  int64_t rows_in_page_ = 0;
  int64_t page_position_ = 0;
  int64_t rows_consumed_ = 0;
  std::vector<double> numeric_buffer_;
  std::vector<uint8_t> boolean_buffer_;
};

}  // namespace optrules::storage

#endif  // OPTRULES_STORAGE_TUPLE_STREAM_H_
