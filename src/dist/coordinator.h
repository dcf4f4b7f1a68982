// DistributedScanCoordinator: one logical counting scan over a
// PartitionedTable.
//
// The MultiCountPlan::Merge contract already makes partial counts exact;
// what the coordinator adds is the fan-out and a DETERMINISTIC merge: it
// assigns partitions to workers (in-process threads or optrules_workerd
// subprocesses), collects one partial plan per partition, and merges them
// in fixed partition order 0..K-1. Because each worker partial is the
// serial reference chain over its partition, the merged result is a pure
// function of (table, spec): bit-identical counts/grids/min/max for any
// worker count or worker kind, and bit-identical Neumaier-compensated
// sums for any worker count (the merged sums can differ from a single
// unpartitioned file's serial chain only in the last ulp, exactly as the
// row-sharded pool schedule already documents).
//
// Fault tolerance rides on the same purity: a partition whose scan fails
// (error frame, dead pipe, crashed or hung daemon) is simply re-run -- on
// a surviving worker, or on a freshly respawned daemon when the failed
// worker's transport broke -- and every re-run produces the same bits, so
// retries and work stealing never change the merged result. Scheduling
// decides only WHO scans a partition and WHEN; the merge consumes exactly
// one partial per live partition, in partition order, no matter how many
// attempts produced it.
//
// Scan counters merge the same way: the winning attempt of each live
// partition reports one storage::BatchSourceStats (a subprocess worker
// ships the scan fields in its kScanResult header), and the coordinator
// adds them with BatchSourceStats::operator+= in partition order.

#ifndef OPTRULES_DIST_COORDINATOR_H_
#define OPTRULES_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bucketing/counting.h"
#include "common/status.h"
#include "dist/partitioned_table.h"
#include "dist/scan_worker.h"

namespace optrules::dist {

/// Which worker implementation the coordinator fans out to.
enum class WorkerKind {
  kInProcess,   ///< threads in this process, one partition scan each
  kSubprocess,  ///< forked optrules_workerd daemons over pipes
};

/// How partitions are handed to worker slots.
enum class ScanScheduling {
  /// Each slot prefers its static stride (w, w+W, ...) but an idle slot
  /// steals unstarted partitions from slow peers. The default: same
  /// merged bits as kStatic, better wall clock under stragglers.
  kWorkQueue,
  /// Strict static assignment (slot w serves exactly w, w+W, ...);
  /// retried partitions still fail over to any live slot. Kept for
  /// benchmarking the stealing win and for reproducing old schedules.
  kStatic,
};

/// Fan-out parameters of a distributed scan.
struct DistributedScanOptions {
  WorkerKind worker_kind = WorkerKind::kInProcess;
  /// Concurrent worker slots; 0 = one per partition. The worker count
  /// and schedule never change results, only wall clock.
  int max_workers = 0;
  int64_t batch_rows = storage::kDefaultBatchRows;
  storage::PagedReadMode read_mode =
      storage::PagedReadMode::kDoubleBuffered;
  /// optrules_workerd binary for kSubprocess; empty = $OPTRULES_WORKERD.
  std::string workerd_path;

  ScanScheduling scheduling = ScanScheduling::kWorkQueue;
  /// Total attempts (first try + retries) a partition gets before its
  /// failure fails the scan. InvalidArgument failures are permanent and
  /// never retried; everything else -- error frames, dead pipes, corrupt
  /// frames, deadline expiries -- is presumed transient.
  int max_partition_attempts = 3;
  /// Budget of replacement workers per Execute(): how many broken-
  /// transport workers (crashed/hung daemons) may be respawned before
  /// the slot is abandoned. The scan itself fails only when no live
  /// slots remain with partitions still undone.
  int max_respawns = 8;
  /// Per-attempt reply deadline in ms; 0 = none. Grows by retry_backoff
  /// per retry of the same partition, so a deadline tuned to the common
  /// case does not starve a genuinely slow partition forever.
  int64_t partition_deadline_ms = 0;
  double retry_backoff = 2.0;
  /// Max silent gap before a subprocess worker counts as hung (daemons
  /// heartbeat every ~100 ms mid-scan); 0 = none. A hung daemon is
  /// SIGKILLed, reaped, and its partition retried.
  int64_t liveness_timeout_ms = 10'000;
  /// Test/bench hook: when set, every worker (initial roster and
  /// respawns) comes from this factory instead of worker_kind.
  std::function<Result<std::unique_ptr<ScanWorker>>()> worker_factory;
};

/// Drives one MultiCountSpec over every partition of a table.
class DistributedScanCoordinator {
 public:
  DistributedScanCoordinator(const PartitionedTable* table,
                             DistributedScanOptions options);

  /// Fans plan->spec() out to the workers (one scan per partition, at
  /// most max_workers concurrent) and merges the partial plans into
  /// *plan in partition order. Partitions the manifest's per-partition
  /// stats prove dead under the spec's derived prune ranges are never
  /// dispatched at all; their row counts enter the plan through
  /// AddSkippedRows during the merge, so the merged result stays
  /// bit-identical to a no-pruning run. Failed partition scans are
  /// retried per DistributedScanOptions (failing workers replaced up to
  /// the respawn budget); the scan fails only when some partition
  /// exhausts its attempts or no live workers remain, and then the
  /// failed partition with the lowest index determines the returned
  /// status. On error the plan's accumulated state is unspecified.
  Status Execute(bucketing::MultiCountPlan* plan);

  /// Partition scans MERGED across all Execute() calls: one per live
  /// partition per successful scan. Pruned partitions are not counted
  /// (never scanned); failed or duplicate attempts are not counted
  /// either (tracked by scan_stats().retries instead), so this is the
  /// logical scan count, independent of fault injection.
  int64_t partition_scans() const { return partition_scans_; }

  /// Counters accumulated across all Execute() calls: the += sum of each
  /// merged partition's BatchSourceStats (cache hits/misses, pages
  /// skipped, io-wait), partitions_skipped from coordinator-side manifest
  /// pruning, plus the fault-tolerance counters retries,
  /// workers_respawned, and partitions_stolen.
  storage::BatchSourceStats scan_stats() const { return scan_stats_; }

 private:
  /// Builds one worker per options_ (factory > worker_kind).
  Result<std::unique_ptr<ScanWorker>> MakeWorker();
  /// Ensures roster_ holds `workers` live workers: full rebuild on size
  /// change, otherwise pings survivors and replaces the broken ones
  /// (replacements of previously-live workers count as respawns).
  Status RepairRoster(int workers);

  const PartitionedTable* table_;
  DistributedScanOptions options_;
  int64_t partition_scans_ = 0;
  storage::BatchSourceStats scan_stats_;
  /// Worker roster, built on first Execute() and reused by later scans
  /// (a subprocess daemon serves many requests over one pipe, so a
  /// session with supplemental scans does not re-fork per scan). After a
  /// failed Execute only the workers that actually broke are dropped;
  /// healthy daemons keep serving the next call.
  std::vector<std::unique_ptr<ScanWorker>> roster_;
};

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_COORDINATOR_H_
