// Test-only fault injection for ScanWorkers.
//
// FaultInjectingScanWorker wraps any ScanWorker and fails (or delays)
// specific CountPartition calls by per-worker call ordinal, so the
// coordinator's retry / failover / respawn / deadline paths are
// exercisable deterministically WITHOUT a subprocess daemon -- the
// in-process mirror of the OPTRULES_WORKERD_FAULT hooks in
// optrules_workerd (see dist/worker_protocol.h for that grammar).
//
// Faults are one-shot, like the daemon's: a fault armed at call ordinal n
// fires on the n-th CountPartition call (0-based) and never again, so a
// retried partition succeeds on the next attempt unless another fault is
// armed for it. Tests and the bench also use the delay-only form
// (`status` ok, `delay_ms` > 0) to manufacture stragglers for the
// work-stealing path.

#ifndef OPTRULES_DIST_FAULT_INJECTION_H_
#define OPTRULES_DIST_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/scan_worker.h"

namespace optrules::dist {

/// One injected fault, keyed by the wrapper's CountPartition call ordinal.
struct InjectedFault {
  /// 0-based CountPartition call this fault fires on.
  int64_t at_call = 0;
  /// Status to return instead of scanning. An OK status means "scan
  /// normally" -- combine with delay_ms for a pure straggler.
  Status status = Status::Ok();
  /// Sleep this long before returning/scanning (straggler simulation).
  int64_t delay_ms = 0;
  /// Whether the fault also breaks the worker's transport (the analogue
  /// of a dead pipe: healthy() goes false and the coordinator must
  /// replace the worker). Ignored when `status` is OK.
  bool mark_unhealthy = false;
};

/// ScanWorker decorator that fires InjectedFaults by call ordinal and
/// otherwise forwards to the wrapped worker.
class FaultInjectingScanWorker final : public ScanWorker {
 public:
  FaultInjectingScanWorker(std::unique_ptr<ScanWorker> inner,
                           std::vector<InjectedFault> faults)
      : inner_(std::move(inner)), faults_(std::move(faults)) {}

  Result<bucketing::MultiCountPlan> CountPartition(
      const std::string& partition_path, const PartitionScanSpec& spec,
      storage::BatchSourceStats* stats) override;

  Status Ping(int64_t timeout_ms) override {
    if (!healthy_) return Status::IoError("fault-injected worker is down");
    return inner_->Ping(timeout_ms);
  }

  bool healthy() const override { return healthy_ && inner_->healthy(); }

  int64_t calls() const { return calls_; }

 private:
  std::unique_ptr<ScanWorker> inner_;
  std::vector<InjectedFault> faults_;
  int64_t calls_ = 0;
  bool healthy_ = true;
};

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_FAULT_INJECTION_H_
