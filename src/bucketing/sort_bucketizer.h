// Sort-based exact equi-depth bucketing: the two baselines of Figure 9.
//
// "Naive Sort" copies the whole column and quick-sorts it per attribute;
// "Vertical Split Sort" first projects the table onto a narrow
// (value, tuple-id) temporary before sorting, reducing the sorted volume.
// For disk-resident tables both read the table (either PagedFile format)
// in batches through a PagedFileBatchSource, externally sort whole rows
// packed into the v1 row layout (storage::ExternalSortRecords), and pick
// the ranks from one batch scan of the sorted v1 output. Every scan goes
// through a function-local zero-capacity BufferPool, so nothing enters or
// is evicted from the process pool and each pass pays its own reads.
// Vertical Split Sort is the naive sort of its projection. NaN values
// sort after every number and are excluded from the ranks (they count
// toward N but land in no bucket), so the cut points equal
// ExactEquiDepthBoundaries.

#ifndef OPTRULES_BUCKETING_SORT_BUCKETIZER_H_
#define OPTRULES_BUCKETING_SORT_BUCKETIZER_H_

#include <span>
#include <string>

#include "bucketing/boundaries.h"
#include "common/status.h"

namespace optrules::bucketing {

/// Exact equi-depth boundaries by sorting a copy of the column ("Naive
/// Sort" when applied per attribute to the full table).
BucketBoundaries ExactEquiDepthBoundaries(std::span<const double> values,
                                          int num_buckets);

/// Disk path of "Naive Sort": externally sorts the PagedFile at
/// `table_path` by numeric attribute `numeric_attr` into the v1 PagedFile
/// `sorted_path`, then derives exact equi-depth boundaries from the sorted
/// order with a single scan. `memory_budget_bytes` bounds the sort memory.
/// Corruption when the table is truncated or fails validation at open.
Result<BucketBoundaries> NaiveSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& sorted_path, size_t memory_budget_bytes,
    const std::string& temp_dir);

/// Disk path of "Vertical Split Sort": projects (value, tuple id) rows of
/// attribute `numeric_attr` into a narrow v1 PagedFile at `split_path`,
/// externally sorts that, and derives exact boundaries.
Result<BucketBoundaries> VerticalSplitSortBoundariesFromFile(
    const std::string& table_path, int numeric_attr, int num_buckets,
    const std::string& split_path, size_t memory_budget_bytes,
    const std::string& temp_dir);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_SORT_BUCKETIZER_H_
