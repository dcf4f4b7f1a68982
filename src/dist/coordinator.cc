#include "dist/coordinator.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace optrules::dist {

namespace {

/// Registry instruments of the distributed scan path, resolved once.
struct DistMetrics {
  obs::Counter* retries;
  obs::Counter* workers_respawned;
  obs::Counter* partitions_stolen;
  obs::Counter* partition_scans;
  obs::Counter* partitions_skipped;
  obs::Histogram* partition_scan_seconds;

  static const DistMetrics& Get() {
    static const DistMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return DistMetrics{reg.GetCounter("dist.retries"),
                         reg.GetCounter("dist.workers_respawned"),
                         reg.GetCounter("dist.partitions_stolen"),
                         reg.GetCounter("dist.partition_scans"),
                         reg.GetCounter("dist.partitions_skipped"),
                         reg.GetHistogram("dist.partition_scan_seconds")};
    }();
    return metrics;
  }
};

}  // namespace

DistributedScanCoordinator::DistributedScanCoordinator(
    const PartitionedTable* table, DistributedScanOptions options)
    : table_(table), options_(std::move(options)) {
  OPTRULES_CHECK(table != nullptr);
  OPTRULES_CHECK(options_.max_workers >= 0);
  OPTRULES_CHECK(options_.batch_rows >= 1);
  OPTRULES_CHECK(options_.max_partition_attempts >= 1);
  OPTRULES_CHECK(options_.max_respawns >= 0);
  OPTRULES_CHECK(options_.retry_backoff >= 1.0);
}

Result<std::unique_ptr<ScanWorker>>
DistributedScanCoordinator::MakeWorker() {
  if (options_.worker_factory) return options_.worker_factory();
  if (options_.worker_kind == WorkerKind::kInProcess) {
    return std::unique_ptr<ScanWorker>(
        std::make_unique<InProcessScanWorker>());
  }
  Result<std::unique_ptr<SubprocessScanWorker>> worker =
      SubprocessScanWorker::Spawn(ResolveWorkerdPath(options_.workerd_path));
  if (!worker.ok()) return worker.status();
  return std::unique_ptr<ScanWorker>(std::move(worker).value());
}

Status DistributedScanCoordinator::RepairRoster(int workers) {
  if (static_cast<int>(roster_.size()) != workers) {
    // Worker-count change (or first Execute): build a fresh roster.
    // Spawns can fail (missing daemon binary), so the roster is
    // completed before any scan starts.
    roster_.clear();
    roster_.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      Result<std::unique_ptr<ScanWorker>> worker = MakeWorker();
      if (!worker.ok()) {
        roster_.clear();
        return worker.status();
      }
      roster_.push_back(std::move(worker).value());
    }
    return Status::Ok();
  }
  // Reused roster: keep every worker that is still live, replace only the
  // broken ones. A daemon that died since the last Execute (or a slot a
  // failed Execute already discarded) shows up as a null/unhealthy slot
  // or a failed ping; each replacement of a previously-live worker counts
  // as a respawn.
  const int64_t ping_timeout_ms =
      options_.liveness_timeout_ms > 0 ? options_.liveness_timeout_ms
                                       : 2'000;
  for (int w = 0; w < workers; ++w) {
    std::unique_ptr<ScanWorker>& slot = roster_[static_cast<size_t>(w)];
    if (slot != nullptr && slot->healthy() &&
        slot->Ping(ping_timeout_ms).ok()) {
      continue;
    }
    Result<std::unique_ptr<ScanWorker>> worker = MakeWorker();
    if (!worker.ok()) {
      slot = nullptr;
      return worker.status();
    }
    slot = std::move(worker).value();
    ++scan_stats_.workers_respawned;
  }
  return Status::Ok();
}

Status DistributedScanCoordinator::Execute(bucketing::MultiCountPlan* plan) {
  OPTRULES_CHECK(plan != nullptr);
  const int partitions = table_->num_partitions();
  const int workers =
      options_.max_workers == 0
          ? partitions
          : std::min(options_.max_workers, partitions);

  OPTRULES_RETURN_IF_ERROR(RepairRoster(workers));

  // One physical scan = one span; the per-partition attempts below hang
  // off it as children even though they run on worker threads.
  obs::Span scan_span("dist.scan");
  scan_span.AddAttribute("partitions", static_cast<double>(partitions));
  scan_span.AddAttribute("workers", static_cast<double>(workers));
  const uint64_t scan_span_id = scan_span.id();

  PartitionScanSpec base_spec;
  base_spec.spec = &plan->spec();
  base_spec.batch_rows = options_.batch_rows;
  base_spec.read_mode = options_.read_mode;
  base_spec.liveness_timeout_ms = options_.liveness_timeout_ms;

  // Manifest pruning happens before any dispatch: a partition whose
  // per-partition stats prove it dead under the spec's derived ranges
  // contributes only its row count, which AddSkippedRows injects during
  // the merge below -- no worker, no file open, no pages.
  const storage::ScanPruneSpec prune =
      bucketing::DerivePruneSpec(plan->spec());
  std::vector<char> dead(static_cast<size_t>(partitions), 0);
  if (!prune.empty()) {
    for (int p = 0; p < partitions; ++p) {
      dead[static_cast<size_t>(p)] =
          PartitionIsDead(*table_, prune, p) ? 1 : 0;
    }
  }

  // Scheduler state, all guarded by `mu`. Results land keyed by partition
  // index and nothing merges until every live partition is done, so the
  // merge below runs strictly in partition order no matter which worker
  // (or which ATTEMPT -- retries produce the same bits) finished first.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> pending;  // claimable live partitions, index order
  std::vector<std::optional<bucketing::MultiCountPlan>> partials(
      static_cast<size_t>(partitions));
  std::vector<storage::BatchSourceStats> stats(
      static_cast<size_t>(partitions));
  std::vector<Status> errors(static_cast<size_t>(partitions));
  std::vector<int> attempts(static_cast<size_t>(partitions), 0);
  std::vector<int> inflight(static_cast<size_t>(partitions), 0);
  std::vector<char> done(static_cast<size_t>(partitions), 0);
  std::vector<char> slot_dead(static_cast<size_t>(workers), 0);
  int undone = 0;
  for (int p = 0; p < partitions; ++p) {
    if (dead[static_cast<size_t>(p)] != 0) continue;
    pending.push_back(p);
    ++undone;
  }
  bool failed = false;
  Status global_failure;  // set when the fleet dies, not one partition
  int respawns_left = options_.max_respawns;
  int active_workers = workers;
  int64_t retries = 0;
  int64_t respawned = 0;
  int64_t stolen = 0;

  // The pending partition slot w could run right now, or -1 (mu held).
  // Order of preference: its own static stride, then -- per scheduling
  // mode -- someone else's unstarted partition (a steal) or an
  // orphaned/retried partition.
  const auto find_claim = [&](int w) -> int {
    for (const int p : pending) {
      if (p % workers == w) return p;
    }
    if (options_.scheduling == ScanScheduling::kWorkQueue) {
      if (!pending.empty()) return pending.front();
    } else {
      // Strict static schedule: foreign partitions are claimable only as
      // failover -- retries, or stride partitions whose owner slot died.
      for (const int p : pending) {
        if (attempts[static_cast<size_t>(p)] > 0 ||
            slot_dead[static_cast<size_t>(p % workers)] != 0) {
          return p;
        }
      }
    }
    return -1;
  };

  const auto serve = [&](int w) {
    for (;;) {
      int claim = -1;
      int attempt = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return failed || undone == 0 || find_claim(w) >= 0;
        });
        if (failed || undone == 0) return;
        claim = find_claim(w);
        const size_t p = static_cast<size_t>(claim);
        pending.erase(std::find(pending.begin(), pending.end(), claim));
        if (claim % workers != w && attempts[p] == 0) ++stolen;
        attempt = attempts[p];
        ++inflight[p];
      }

      PartitionScanSpec scan_spec = base_spec;
      if (options_.partition_deadline_ms > 0) {
        // Exponential backoff: retries of one partition get a longer
        // deadline each time, so a tuned deadline cannot starve a
        // genuinely slow partition indefinitely.
        scan_spec.deadline_ms = static_cast<int64_t>(
            static_cast<double>(options_.partition_deadline_ms) *
            std::pow(options_.retry_backoff, attempt));
      }
      storage::BatchSourceStats attempt_stats;
      WallTimer attempt_timer;
      Result<bucketing::MultiCountPlan> partial =
          [&]() -> Result<bucketing::MultiCountPlan> {
        // Worker threads have no span context; parent this attempt (and
        // any spans the in-process scan below creates) under the scan.
        obs::ScopedParent span_parent(scan_span_id);
        obs::Span partition_span("dist.partition");
        partition_span.AddAttribute("partition",
                                    static_cast<double>(claim));
        partition_span.AddAttribute("worker", static_cast<double>(w));
        partition_span.AddAttribute("attempt", static_cast<double>(attempt));
        return roster_[static_cast<size_t>(w)]->CountPartition(
            table_->PartitionPath(claim), scan_spec,
            &attempt_stats);
      }();
      DistMetrics::Get().partition_scan_seconds->Observe(
          attempt_timer.ElapsedSeconds());

      std::unique_lock<std::mutex> lock(mu);
      const size_t p = static_cast<size_t>(claim);
      --inflight[p];
      if (partial.ok()) {
        // First bit-exact partial wins; a duplicate (a retry racing its
        // predecessor) is identical by construction and is discarded,
        // never double-merged.
        if (done[p] == 0) {
          done[p] = 1;
          partials[p].emplace(std::move(partial).value());
          stats[p] = attempt_stats;
          --undone;
          if (undone == 0) cv.notify_all();
        }
      } else if (done[p] == 0) {
        ++attempts[p];
        errors[p] = partial.status();
        const bool retryable =
            partial.status().code() != StatusCode::kInvalidArgument;
        if (retryable && attempts[p] < options_.max_partition_attempts) {
          // Head of the queue: a wounded partition re-dispatches before
          // fresh work so its backoff clock starts immediately.
          pending.push_front(claim);
          ++retries;
          cv.notify_all();
        } else if (inflight[p] == 0) {
          failed = true;
          cv.notify_all();
        }
        // else: another attempt at p is still in flight and may yet
        // succeed; its completion decides the partition's fate.
      }

      if (!roster_[static_cast<size_t>(w)]->healthy()) {
        // This slot's transport broke (daemon crashed, hung, or spoke
        // garbage). Respawn within budget; otherwise retire the slot --
        // remaining work fails over to the surviving slots.
        std::unique_ptr<ScanWorker> fresh;
        Status spawn_status;
        if (respawns_left > 0) {
          --respawns_left;
          lock.unlock();
          Result<std::unique_ptr<ScanWorker>> spawned = MakeWorker();
          lock.lock();
          if (spawned.ok()) {
            fresh = std::move(spawned).value();
          } else {
            spawn_status = spawned.status();
          }
        } else {
          spawn_status = Status::IoError(
              "worker respawn budget exhausted for this scan");
        }
        if (fresh != nullptr) {
          roster_[static_cast<size_t>(w)] = std::move(fresh);
          ++respawned;
        } else {
          slot_dead[static_cast<size_t>(w)] = 1;
          if (--active_workers == 0 && undone > 0 && !failed) {
            failed = true;
            global_failure = spawn_status;
          }
          // Static-mode peers may now claim this slot's stride.
          cv.notify_all();
          return;
        }
      }
    }
  };

  if (undone > 0) {
    if (workers == 1) {
      serve(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(workers));
      for (int w = 0; w < workers; ++w) threads.emplace_back(serve, w);
      for (std::thread& thread : threads) thread.join();
    }
  }

  scan_stats_.retries += retries;
  scan_stats_.workers_respawned += respawned;
  scan_stats_.partitions_stolen += stolen;
  DistMetrics::Get().retries->Add(static_cast<uint64_t>(retries));
  DistMetrics::Get().workers_respawned->Add(static_cast<uint64_t>(respawned));
  DistMetrics::Get().partitions_stolen->Add(static_cast<uint64_t>(stolen));

  // Keep the roster, but null out any worker whose transport broke (a
  // retired slot, or a worker that went unhealthy on its final attempt):
  // the next Execute replaces exactly those, and ONLY those -- healthy
  // daemons keep serving even after a failed scan.
  for (std::unique_ptr<ScanWorker>& slot : roster_) {
    if (slot != nullptr && !slot->healthy()) slot = nullptr;
  }

  if (failed || undone > 0) {
    for (int p = 0; p < partitions; ++p) {
      if (dead[static_cast<size_t>(p)] == 0 &&
          done[static_cast<size_t>(p)] == 0 &&
          !errors[static_cast<size_t>(p)].ok()) {
        return errors[static_cast<size_t>(p)];
      }
    }
    if (!global_failure.ok()) return global_failure;
    return Status::Internal("distributed scan failed without a status");
  }

  // Deterministic merge: fixed partition order, independent of worker
  // scheduling and retries. Pruned partitions enter as
  // pure row-count additions.
  int64_t scanned = 0;
  for (int p = 0; p < partitions; ++p) {
    if (dead[static_cast<size_t>(p)] != 0) {
      plan->AddSkippedRows(table_->partition_rows(p));
      ++scan_stats_.partitions_skipped;
      DistMetrics::Get().partitions_skipped->Add();
      continue;
    }
    plan->Merge(*partials[static_cast<size_t>(p)]);
    scan_stats_.cache_hits += stats[static_cast<size_t>(p)].cache_hits;
    scan_stats_.cache_misses += stats[static_cast<size_t>(p)].cache_misses;
    scan_stats_.pages_skipped += stats[static_cast<size_t>(p)].pages_skipped;
    scan_stats_.io_wait_seconds += stats[static_cast<size_t>(p)].io_wait_seconds;
    ++scanned;
  }
  partition_scans_ += scanned;
  DistMetrics::Get().partition_scans->Add(static_cast<uint64_t>(scanned));
  return Status::Ok();
}

}  // namespace optrules::dist
