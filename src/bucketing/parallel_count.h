// Algorithm 3.2: parallel bucket counting.
//
// The tuples are partitioned over worker threads (the paper's "processor
// elements"); each worker counts its share into private arrays with no
// communication, and the coordinator sums the partial counts in shard
// order, so every thread count produces bit-identical results. Workers
// come from a reusable ThreadPool rather than ad-hoc thread spawns, and
// the multi-pair entry point drives a whole MultiCountPlan -- every
// numeric attribute against every Boolean target -- through ONE shared
// scan of a BatchSource.

#ifndef OPTRULES_BUCKETING_PARALLEL_COUNT_H_
#define OPTRULES_BUCKETING_PARALLEL_COUNT_H_

#include <span>
#include <vector>

#include "bucketing/counting.h"
#include "common/thread_pool.h"
#include "storage/columnar_batch.h"

namespace optrules::bucketing {

/// Parallel version of CountBuckets over in-memory columns. Equivalent to
/// the serial version for any thread count; `num_threads >= 1` is the
/// number of row shards. Runs on `pool` (shards beyond the pool size
/// queue), or on DefaultThreadPool() for the 4-argument overload.
BucketCounts ParallelCountBuckets(
    std::span<const double> values,
    std::span<const std::vector<uint8_t>* const> targets,
    const BucketBoundaries& boundaries, int num_threads, ThreadPool& pool);

BucketCounts ParallelCountBuckets(
    std::span<const double> values,
    std::span<const std::vector<uint8_t>* const> targets,
    const BucketBoundaries& boundaries, int num_threads);

/// Executes `plan` over exactly one scan of `source`, partitioned over
/// `pool` (pass nullptr for a serial scan).
///
/// With a pool, sources that support range readers (in-memory relations,
/// PagedFiles) are sharded by rows: each worker accumulates a private
/// partial plan (built from the same MultiCountSpec) over a contiguous
/// shard and the partials merge in shard order. The shard layout is a
/// pure function of the row count -- never of the pool size -- so results
/// are identical for ANY pool, including a pool of size 1. Every other
/// source (and every source under a nullptr pool) is scanned serially by
/// one reader. Either way u/v counts, grid cells, and min/max are
/// bit-identical to a serial scan and exactly one scan is accounted on
/// `source` (assertable via BatchSource::scans_started()). Per-bucket
/// double sum channels are Neumaier-compensated and bit-identical across
/// all pool sizes under row-sharding (the compensated merge still
/// reassociates at shard borders, so the last ulp can differ from the
/// serial chain).
///
/// The pass installs DerivePruneSpec(plan->spec()) on the source for its
/// duration, so pooled PagedFile readers may skip zone-map-dead pages;
/// skipped rows are added back via MultiCountPlan::AddSkippedRows, keeping
/// pruned results bit-identical to unpruned ones.
void ExecuteMultiCount(storage::BatchSource& source, MultiCountPlan* plan,
                       ThreadPool* pool);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_PARALLEL_COUNT_H_
