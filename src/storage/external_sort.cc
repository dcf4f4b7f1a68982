#include "storage/external_sort.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <vector>

#include "common/logging.h"

namespace optrules::storage {

namespace {

double KeyAt(const uint8_t* record, size_t key_offset) {
  double key;
  std::memcpy(&key, record + key_offset, sizeof(double));
  return key;
}

/// Comparator: double key first (NaN after every number, so the order
/// stays a strict weak ordering on NaN-laden input), full record bytes as
/// tie-break.
struct RecordLess {
  size_t record_bytes;
  size_t key_offset;
  bool operator()(const uint8_t* a, const uint8_t* b) const {
    const double ka = KeyAt(a, key_offset);
    const double kb = KeyAt(b, key_offset);
    const bool a_nan = std::isnan(ka);
    const bool b_nan = std::isnan(kb);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && ka != kb) return ka < kb;
    return std::memcmp(a, b, record_bytes) < 0;
  }
};

/// RAII stdio handle.
struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  std::FILE* release() {
    std::FILE* out = f;
    f = nullptr;
    return out;
  }
};

/// Records fread straight out of an open file (does not own the handle).
class FileRecordSource final : public RecordSource {
 public:
  FileRecordSource(std::FILE* file, size_t record_bytes)
      : file_(file), record_bytes_(record_bytes) {}

  size_t ReadRecords(uint8_t* out, size_t max_records) override {
    return std::fread(out, record_bytes_, max_records, file_);
  }

 private:
  std::FILE* file_;
  size_t record_bytes_;
};

/// Buffered reader of one sorted run during the merge phase.
class RunReader {
 public:
  RunReader(std::FILE* file, size_t record_bytes, size_t buffer_records)
      : file_(file),
        record_bytes_(record_bytes),
        buffer_(buffer_records * record_bytes) {}

  ~RunReader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  /// Returns the current record, or nullptr when the run is exhausted.
  const uint8_t* Peek() {
    if (position_ >= records_in_buffer_) {
      const size_t got = std::fread(buffer_.data(), record_bytes_,
                                    buffer_.size() / record_bytes_, file_);
      records_in_buffer_ = got;
      position_ = 0;
      if (got == 0) return nullptr;
    }
    return buffer_.data() + position_ * record_bytes_;
  }

  void Pop() { ++position_; }

 private:
  std::FILE* file_;
  size_t record_bytes_;
  std::vector<uint8_t> buffer_;
  size_t records_in_buffer_ = 0;
  size_t position_ = 0;
};

}  // namespace

Result<ExternalSortStats> ExternalSortRecords(
    RecordSource& source, const std::string& output_path,
    std::span<const uint8_t> header, const ExternalSortOptions& options) {
  if (options.record_bytes == 0) {
    return Status::InvalidArgument("record_bytes must be > 0");
  }
  if (options.key_offset + sizeof(double) > options.record_bytes) {
    return Status::InvalidArgument("key does not fit in record");
  }

  // Phase 1: run generation.
  const size_t records_per_run =
      std::max<size_t>(1, options.memory_budget_bytes / options.record_bytes);
  std::vector<uint8_t> chunk(records_per_run * options.record_bytes);
  std::vector<const uint8_t*> pointers;
  std::vector<std::string> run_paths;
  int64_t total_records = 0;

  const RecordLess less{options.record_bytes, options.key_offset};
  while (true) {
    const size_t got = source.ReadRecords(chunk.data(), records_per_run);
    if (got == 0) break;
    total_records += static_cast<int64_t>(got);
    pointers.clear();
    pointers.reserve(got);
    for (size_t i = 0; i < got; ++i) {
      pointers.push_back(chunk.data() + i * options.record_bytes);
    }
    std::sort(pointers.begin(), pointers.end(), less);

    const std::string run_path = options.temp_dir + "/optrules_run_" +
                                 std::to_string(run_paths.size()) + "_" +
                                 std::to_string(
                                     reinterpret_cast<uintptr_t>(&chunk)) +
                                 ".tmp";
    File run;
    run.f = std::fopen(run_path.c_str(), "wb");
    if (run.f == nullptr) {
      return Status::IoError("cannot create run file: " + run_path);
    }
    for (const uint8_t* rec : pointers) {
      if (std::fwrite(rec, 1, options.record_bytes, run.f) !=
          options.record_bytes) {
        return Status::IoError("run write failed: " + run_path);
      }
    }
    if (std::fclose(run.release()) != 0) {
      return Status::IoError("run close failed: " + run_path);
    }
    run_paths.push_back(run_path);
  }

  // Phase 2: k-way merge into the output.
  File output;
  output.f = std::fopen(output_path.c_str(), "wb");
  if (output.f == nullptr) {
    return Status::IoError("cannot create: " + output_path);
  }
  if (!header.empty() &&
      std::fwrite(header.data(), 1, header.size(), output.f) !=
          header.size()) {
    return Status::IoError("header write failed: " + output_path);
  }

  std::vector<std::unique_ptr<RunReader>> readers;
  readers.reserve(run_paths.size());
  const size_t merge_buffer_records = std::max<size_t>(
      16, options.memory_budget_bytes /
              (options.record_bytes * std::max<size_t>(1, run_paths.size()) *
               2));
  for (const std::string& run_path : run_paths) {
    std::FILE* f = std::fopen(run_path.c_str(), "rb");
    if (f == nullptr) return Status::IoError("cannot reopen: " + run_path);
    readers.push_back(std::make_unique<RunReader>(f, options.record_bytes,
                                                  merge_buffer_records));
  }

  using HeapEntry = std::pair<const uint8_t*, size_t>;  // record, reader idx
  auto heap_greater = [&less](const HeapEntry& a, const HeapEntry& b) {
    return less(b.first, a.first);
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      decltype(heap_greater)>
      heap(heap_greater);
  for (size_t i = 0; i < readers.size(); ++i) {
    const uint8_t* rec = readers[i]->Peek();
    if (rec != nullptr) heap.emplace(rec, i);
  }
  while (!heap.empty()) {
    auto [rec, idx] = heap.top();
    heap.pop();
    if (std::fwrite(rec, 1, options.record_bytes, output.f) !=
        options.record_bytes) {
      return Status::IoError("output write failed: " + output_path);
    }
    readers[idx]->Pop();
    const uint8_t* next = readers[idx]->Peek();
    if (next != nullptr) heap.emplace(next, idx);
  }
  if (std::fclose(output.release()) != 0) {
    return Status::IoError("output close failed: " + output_path);
  }
  readers.clear();
  for (const std::string& run_path : run_paths) {
    std::remove(run_path.c_str());
  }

  ExternalSortStats stats;
  stats.num_records = total_records;
  stats.num_runs = static_cast<int>(run_paths.size());
  return stats;
}

Result<ExternalSortStats> ExternalSort(const std::string& input_path,
                                       const std::string& output_path,
                                       const ExternalSortOptions& options) {
  if (options.record_bytes == 0) {
    return Status::InvalidArgument("record_bytes must be > 0");
  }
  if (options.key_offset + sizeof(double) > options.record_bytes) {
    return Status::InvalidArgument("key does not fit in record");
  }

  File input;
  input.f = std::fopen(input_path.c_str(), "rb");
  if (input.f == nullptr) {
    return Status::IoError("cannot open: " + input_path);
  }
  FileRecordSource source(input.f, options.record_bytes);
  return ExternalSortRecords(source, output_path, {}, options);
}

}  // namespace optrules::storage
