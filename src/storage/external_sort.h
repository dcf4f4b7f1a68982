// External merge sort over fixed-width records.
//
// Substrate for the "Naive Sort" and "Vertical Split Sort" baselines of
// Figure 9: sorting a disk-resident table by one numeric attribute under a
// bounded memory budget. Records are fixed-width byte strings compared by a
// little-endian IEEE double at a fixed offset -- NaN keys after every
// number -- with ties broken by memcmp of the whole record, making the
// sort deterministic.
//
// Input comes either from a headerless file of back-to-back records or
// from any RecordSource -- which is how a PagedFile of either format is
// sorted without first being rewritten as a row-major temporary: the
// naive-sort bucketizer packs rows out of scan batches straight into the
// run generator.

#ifndef OPTRULES_STORAGE_EXTERNAL_SORT_H_
#define OPTRULES_STORAGE_EXTERNAL_SORT_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace optrules::storage {

/// Options controlling an external sort run.
struct ExternalSortOptions {
  size_t record_bytes = 0;      ///< width of each record (required, > 0)
  size_t key_offset = 0;        ///< byte offset of the double sort key
  size_t memory_budget_bytes = 64 << 20;  ///< max bytes sorted in memory
  std::string temp_dir = "/tmp";          ///< directory for run files
};

/// Statistics of a completed external sort.
struct ExternalSortStats {
  int64_t num_records = 0;
  int num_runs = 0;
};

/// Streams fixed-width records into the run generator.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Fills `out` with up to `max_records` consecutive records (each
  /// ExternalSortOptions::record_bytes wide) and returns how many were
  /// produced; 0 means end of input.
  virtual size_t ReadRecords(uint8_t* out, size_t max_records) = 0;
};

/// Sorts the records produced by `source` into `output_path`, writing
/// `header` verbatim before the first record. Run generation + k-way
/// merge; never holds more than `memory_budget_bytes` of record data in
/// memory.
Result<ExternalSortStats> ExternalSortRecords(
    RecordSource& source, const std::string& output_path,
    std::span<const uint8_t> header, const ExternalSortOptions& options);

/// Sorts `input_path` into `output_path` (both headerless fixed-width
/// record files). Thin wrapper over ExternalSortRecords with a
/// file-backed source.
Result<ExternalSortStats> ExternalSort(const std::string& input_path,
                                       const std::string& output_path,
                                       const ExternalSortOptions& options);

}  // namespace optrules::storage

#endif  // OPTRULES_STORAGE_EXTERNAL_SORT_H_
