#include "dist/scan_worker.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <utility>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bucketing/parallel_count.h"
#include "common/bytes.h"
#include "dist/wire.h"
#include "obs/metrics.h"

namespace optrules::dist {

namespace {

/// A worker that died between frames turns coordinator writes into EPIPE;
/// without this, the default SIGPIPE disposition would kill the whole
/// coordinator process instead of surfacing an IoError status.
void IgnoreSigpipeOnce() {
  static const bool ignored = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)ignored;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Histogram* HeartbeatGapHistogram() {
  static obs::Histogram* const hist =
      obs::MetricsRegistry::Default().GetHistogram(
          "dist.heartbeat_gap_seconds");
  return hist;
}

/// Reaps `pid` without blocking forever: WNOHANG polling for `budget_ms`,
/// escalating through `escalate_sig` (SIGTERM, then SIGKILL) when the
/// child has not exited by the end of a budget slice. The final SIGKILL
/// wait is blocking -- after SIGKILL the child cannot run user code, so
/// the wait is bounded by kernel teardown, not by daemon behavior.
void ReapWithEscalation(pid_t pid, int64_t wnohang_budget_ms,
                        int64_t sigterm_budget_ms) {
  if (pid <= 0) return;
  int wstatus = 0;
  const auto poll_until = [&](int64_t budget_ms) {
    const int64_t deadline = NowMs() + budget_ms;
    do {
      const pid_t done = ::waitpid(pid, &wstatus, WNOHANG);
      if (done == pid || (done < 0 && errno != EINTR)) return true;
      ::usleep(5 * 1000);
    } while (NowMs() < deadline);
    return false;
  };
  if (poll_until(wnohang_budget_ms)) return;
  ::kill(pid, SIGTERM);
  if (poll_until(sigterm_budget_ms)) return;
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

Result<bucketing::MultiCountPlan> InProcessScanWorker::CountPartition(
    const std::string& partition_path, const PartitionScanSpec& spec,
    storage::BatchSourceStats* stats) {
  OPTRULES_CHECK(spec.spec != nullptr);
  Result<std::unique_ptr<storage::PagedFileBatchSource>> source =
      storage::PagedFileBatchSource::Open(partition_path, spec.batch_rows,
                                          spec.read_mode);
  if (!source.ok()) return source.status();
  bucketing::MultiCountPlan plan(*spec.spec);
  // Serial reference chain (see the header): partials are a pure function
  // of (partition file, spec) -- parallelism lives across partitions.
  // (The read path below may still serve pages from the shared buffer
  // pool and prune zone-map-dead pages; both are invisible in the
  // partial's counts.)
  bucketing::ExecuteMultiCount(*source.value(), &plan, nullptr);
  if (stats != nullptr) *stats = source.value()->SourceStats();
  return plan;
}

Result<std::unique_ptr<SubprocessScanWorker>> SubprocessScanWorker::Spawn(
    const std::string& workerd_path) {
  if (workerd_path.empty()) {
    return Status::InvalidArgument(
        "no worker daemon binary configured (set DistributedScanOptions::"
        "workerd_path or the OPTRULES_WORKERD environment variable)");
  }
  IgnoreSigpipeOnce();
  int to_child[2];    // coordinator writes -> child stdin
  int from_child[2];  // child stdout -> coordinator reads
  // O_CLOEXEC matters with several workers: without it, worker B's child
  // would inherit worker A's pipe fds, keeping A's stdout write end open
  // after A dies -- the coordinator's ReadFrame would then hang forever
  // instead of reporting the dead daemon. dup2 onto stdio below clears
  // the flag for the child's own two ends.
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    return Status::IoError("pipe2() failed");
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return Status::IoError("pipe2() failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      ::close(fd);
    }
    return Status::IoError("fork() failed");
  }
  if (pid == 0) {
    // Child: wire the pipe pair to stdin/stdout and become the daemon.
    // If the host process runs with stdio fds closed, pipe2 may have
    // handed out fd 0/1 -- dup2 onto the same fd would be a no-op that
    // LEAVES O_CLOEXEC set, so raise the ends above stderr first. The
    // original (O_CLOEXEC) pipe fds close themselves at exec; the raised
    // duplicates alias the daemon's own stdio pipes and are harmless.
    int in_fd = to_child[0];
    int out_fd = from_child[1];
    while (in_fd >= 0 && in_fd <= STDERR_FILENO) in_fd = ::dup(in_fd);
    while (out_fd >= 0 && out_fd <= STDERR_FILENO) out_fd = ::dup(out_fd);
    if (in_fd < 0 || out_fd < 0 ||
        ::dup2(in_fd, STDIN_FILENO) < 0 ||
        ::dup2(out_fd, STDOUT_FILENO) < 0) {
      ::_exit(127);
    }
    ::execl(workerd_path.c_str(), "optrules_workerd",
            static_cast<char*>(nullptr));
    // exec failed; the parent sees EOF on its next read and reports it.
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  std::unique_ptr<SubprocessScanWorker> worker(new SubprocessScanWorker());
  worker->to_child_ = to_child[1];
  worker->from_child_ = from_child[0];
  worker->pid_ = pid;
  return worker;
}

SubprocessScanWorker::~SubprocessScanWorker() {
  if (to_child_ >= 0) {
    // Best-effort shutdown frame; closing the pipe alone also ends the
    // worker loop (clean EOF). Skipped on an unhealthy worker: its pipe
    // state is unknown and the write could block on a full buffer.
    if (healthy_) {
      const uint8_t shutdown[] = {
          static_cast<uint8_t>(FrameKind::kShutdown)};
      (void)WriteFrame(to_child_, shutdown);
    }
    ::close(to_child_);
    to_child_ = -1;
  }
  if (from_child_ >= 0) {
    ::close(from_child_);
    from_child_ = -1;
  }
  // WNOHANG poll first (a healthy daemon exits promptly on EOF/shutdown),
  // then SIGTERM, then SIGKILL: a wedged daemon can never hang the
  // embedding process at shutdown.
  ReapWithEscalation(pid_, /*wnohang_budget_ms=*/50,
                     /*sigterm_budget_ms=*/200);
  pid_ = -1;
}

void SubprocessScanWorker::KillNow() {
  healthy_ = false;
  if (to_child_ >= 0) {
    ::close(to_child_);
    to_child_ = -1;
  }
  if (from_child_ >= 0) {
    ::close(from_child_);
    from_child_ = -1;
  }
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
}

Result<bucketing::MultiCountPlan> SubprocessScanWorker::CountPartition(
    const std::string& partition_path, const PartitionScanSpec& spec,
    storage::BatchSourceStats* stats) {
  OPTRULES_CHECK(spec.spec != nullptr);
  if (!healthy_) {
    return Status::IoError("subprocess worker already failed; respawn it");
  }
  std::vector<uint8_t> request;
  EncodeScanRequest(partition_path, spec.batch_rows, spec.read_mode,
                    *spec.spec, &request);
  const Status wrote = WriteFrame(to_child_, request);
  if (!wrote.ok()) {
    // EPIPE: the daemon died between requests. Reap it now.
    KillNow();
    return wrote;
  }
  const int64_t start_ms = NowMs();
  int64_t last_frame_ms = start_ms;
  std::vector<uint8_t> reply;
  for (;;) {
    FrameTimeouts timeouts;
    timeouts.liveness_ms = spec.liveness_timeout_ms;
    if (spec.deadline_ms > 0) {
      // Heartbeat frames reset the liveness clock but never the total
      // deadline: recompute the remaining budget each iteration.
      const int64_t remaining = spec.deadline_ms - (NowMs() - start_ms);
      if (remaining <= 0) {
        KillNow();
        return Status::DeadlineExceeded(
            "partition scan deadline exceeded: " + partition_path);
      }
      timeouts.total_ms = remaining;
    }
    const Status read = ReadFrameTimed(from_child_, &reply, timeouts);
    if (read.code() == StatusCode::kNotFound) {
      // Clean EOF: the daemon exited (crashed, or exec failed). Reap.
      KillNow();
      return Status::IoError("worker daemon exited before replying: " +
                             partition_path);
    }
    if (read.code() == StatusCode::kDeadlineExceeded) {
      // Hung (liveness) or over-deadline daemon: it may be wedged
      // mid-scan holding resources, so SIGKILL it immediately.
      KillNow();
      return read;
    }
    if (!read.ok()) {
      // Mid-frame EOF or I/O failure: pipe state unknown.
      KillNow();
      return read;
    }
    if (reply.empty()) {
      KillNow();
      return Status::Corruption("empty reply frame from worker");
    }
    // Observed gap between liveness signals (heartbeats or the reply
    // itself): the daemon pulses every ~100 ms, so the histogram's tail is
    // the early-warning signal for stalling workers.
    const int64_t frame_ms = NowMs();
    HeartbeatGapHistogram()->Observe(
        static_cast<double>(frame_ms - last_frame_ms) / 1e3);
    last_frame_ms = frame_ms;
    if (static_cast<FrameKind>(reply[0]) == FrameKind::kHeartbeat) {
      continue;  // mid-scan keepalive, not the reply
    }
    break;
  }
  const FrameKind kind = static_cast<FrameKind>(reply[0]);
  // A clean error frame means the daemon served the request and reported
  // a failure: the transport is intact and the worker stays healthy.
  if (kind == FrameKind::kError) return DecodeErrorFrame(reply);
  if (kind != FrameKind::kScanResult) {
    // Garbage on the reply stream: everything after this byte is suspect.
    KillNow();
    return Status::Corruption("unexpected reply frame kind from worker");
  }
  // kScanResult payload: [kind][scan-stats header][partial plan state].
  storage::BatchSourceStats wire_stats;
  const Status header_read = ReadScanStatsHeader(
      std::span<const uint8_t>(reply).subspan(1), &wire_stats);
  if (!header_read.ok()) {
    KillNow();
    return header_read;
  }
  if (stats != nullptr) *stats = wire_stats;
  // Rebuild the partial locally from the coordinator-side spec, then load
  // the worker's bit-exact accumulator state into it.
  bucketing::MultiCountPlan plan(*spec.spec);
  const Status loaded = plan.LoadPartialState(
      std::span<const uint8_t>(reply).subspan(1 + kScanStatsHeaderBytes));
  if (!loaded.ok()) {
    KillNow();
    return loaded;
  }
  return plan;
}

Status SubprocessScanWorker::Ping(int64_t timeout_ms) {
  if (!healthy_) {
    return Status::IoError("subprocess worker already failed");
  }
  const uint8_t ping[] = {static_cast<uint8_t>(FrameKind::kPing)};
  const Status wrote = WriteFrame(to_child_, ping);
  if (!wrote.ok()) {
    KillNow();
    return wrote;
  }
  const int64_t start_ms = NowMs();
  std::vector<uint8_t> reply;
  for (;;) {
    FrameTimeouts timeouts;
    if (timeout_ms > 0) {
      const int64_t remaining = timeout_ms - (NowMs() - start_ms);
      if (remaining <= 0) {
        KillNow();
        return Status::DeadlineExceeded("worker ping timed out");
      }
      timeouts.total_ms = remaining;
    }
    const Status read = ReadFrameTimed(from_child_, &reply, timeouts);
    if (!read.ok()) {
      KillNow();
      return read.code() == StatusCode::kNotFound
                 ? Status::IoError("worker daemon exited")
                 : read;
    }
    if (!reply.empty() &&
        static_cast<FrameKind>(reply[0]) == FrameKind::kHeartbeat) {
      continue;  // stale keepalive from an earlier scan
    }
    break;
  }
  if (reply.empty() ||
      static_cast<FrameKind>(reply[0]) != FrameKind::kPong) {
    KillNow();
    return Status::Corruption("unexpected ping reply from worker");
  }
  return Status::Ok();
}

std::string ResolveWorkerdPath(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv("OPTRULES_WORKERD");
  return env != nullptr ? env : "";
}

}  // namespace optrules::dist
