#include "dist/worker_protocol.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "bucketing/counting.h"
#include "bucketing/parallel_count.h"
#include "common/bytes.h"
#include "common/env.h"
#include "dist/wire.h"
#include "storage/columnar_batch.h"

namespace optrules::dist {

namespace {

/// Conservative upper estimate of the partial-state reply size: the
/// dominant per-bucket / per-cell arrays (u, v planes, min/max, sum +
/// compensation pairs) at 8 bytes per slot, plus a small per-array
/// overhead. Used to refuse specs whose reply could never fit a frame
/// BEFORE any accumulator is allocated.
uint64_t EstimateReplyBytes(const bucketing::MultiCountSpec& spec) {
  uint64_t bytes = 64;
  for (const bucketing::CountChannel& channel : spec.channels) {
    const auto buckets =
        static_cast<uint64_t>(channel.boundaries->num_buckets());
    const uint64_t rows = 3 +
                          (channel.count_targets
                               ? static_cast<uint64_t>(spec.num_targets)
                               : 0) +
                          2 * channel.sum_targets.size();
    bytes += 64 + rows * (8 + buckets * 8);
  }
  for (const bucketing::GridChannel& channel : spec.grid_channels) {
    const uint64_t cells =
        static_cast<uint64_t>(channel.x_boundaries->num_buckets()) *
        static_cast<uint64_t>(channel.y_boundaries->num_buckets());
    bytes += 64 + (1 + static_cast<uint64_t>(spec.num_targets)) *
                      (8 + cells * 8);
  }
  return bytes;
}

/// Frames are capped at 1 GiB (wire.cc); leave headroom for overhead.
constexpr uint64_t kMaxReplyBytes = 1ull << 29;  // 512 MiB

/// Validates every column reference of a decoded spec against the opened
/// partition's attribute counts. ExecuteMultiCount enforces the same
/// invariants with CHECKs, but a daemon must answer a corrupt or
/// mis-addressed frame with an error frame, not a process abort.
Status ValidateSpecForSource(const bucketing::MultiCountSpec& spec,
                             int num_numeric, int num_boolean) {
  const auto numeric_ok = [num_numeric](int column) {
    return 0 <= column && column < num_numeric;
  };
  if (spec.num_targets != num_boolean) {
    return Status::InvalidArgument(
        "scan request num_targets does not match partition");
  }
  for (const bucketing::CountChannel& channel : spec.channels) {
    if (!numeric_ok(channel.column)) {
      return Status::InvalidArgument("channel column out of range");
    }
    for (const int target : channel.sum_targets) {
      if (!numeric_ok(target)) {
        return Status::InvalidArgument("sum target column out of range");
      }
    }
  }
  for (const bucketing::GridChannel& channel : spec.grid_channels) {
    if (!numeric_ok(channel.x_column) || !numeric_ok(channel.y_column)) {
      return Status::InvalidArgument("grid axis column out of range");
    }
    if (static_cast<int64_t>(channel.x_boundaries->num_buckets()) *
            channel.y_boundaries->num_buckets() >
        std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument("grid cell count overflows int32");
    }
  }
  for (const std::vector<int>& condition : spec.conditions) {
    for (const int column : condition) {
      if (column < 0 || column >= num_boolean) {
        return Status::InvalidArgument("condition column out of range");
      }
    }
  }
  // Refuse specs whose serialized partial could never fit a reply frame,
  // before allocating multi-GB accumulators (the daemon must answer with
  // an error frame, never die on bad_alloc or the frame-size CHECK).
  if (EstimateReplyBytes(spec) > kMaxReplyBytes) {
    return Status::InvalidArgument(
        "scan result would exceed the reply frame size");
  }
  return Status::Ok();
}

// ------------------------------------------------------ fault hooks ----

/// One armed fault, parsed from OPTRULES_WORKERD_FAULT (see the header
/// for the grammar). Fires once at scan-request ordinal `at_request`.
struct WorkerFault {
  enum class Kind {
    kNone,
    kCrashBeforeReply,
    kCrashMidFrame,
    kGarbageFrame,
    kErrorFrame,
    kStall,
    kHang,
  };
  Kind kind = Kind::kNone;
  int64_t sleep_ms = 0;
  int64_t at_request = 0;
};

/// `rotate` mode: atomically increment the counter file (flock'd text
/// integer) to obtain this daemon's unique spawn ordinal. -1 = no counter
/// configured; rotation stays inert.
int64_t ClaimRotationOrdinal() {
  const char* path = std::getenv("OPTRULES_WORKERD_FAULT_COUNTER");
  if (path == nullptr || path[0] == '\0') return -1;
  const int fd = ::open(path, O_RDWR | O_CREAT, 0644);
  if (fd < 0) return -1;
  if (::flock(fd, LOCK_EX) != 0) {
    ::close(fd);
    return -1;
  }
  char buffer[32] = {0};
  const ssize_t got = ::pread(fd, buffer, sizeof(buffer) - 1, 0);
  const int64_t ordinal = got > 0 ? std::atoll(buffer) : 0;
  const std::string next = std::to_string(ordinal + 1);
  (void)::ftruncate(fd, 0);
  (void)::pwrite(fd, next.data(), next.size(), 0);
  ::close(fd);  // releases the flock
  return ordinal;
}

WorkerFault ParseWorkerFault(const char* spec) {
  WorkerFault fault;
  if (spec == nullptr) spec = std::getenv("OPTRULES_WORKERD_FAULT");
  if (spec == nullptr || spec[0] == '\0') return fault;
  std::string text(spec);
  if (text == "rotate") {
    // Sparse deterministic pattern keyed by spawn ordinal: ~2 in 5
    // daemons fault exactly once on their first scan request, so a
    // whole dist test suite survives on default retry/respawn budgets
    // while every failover path still fires.
    const int64_t ordinal = ClaimRotationOrdinal();
    if (ordinal < 0) return fault;
    if (ordinal % 5 == 1) {
      fault.kind = WorkerFault::Kind::kErrorFrame;
    } else if (ordinal % 5 == 3) {
      fault.kind = WorkerFault::Kind::kCrashBeforeReply;
    }
    return fault;
  }
  // The numeric pieces of a fault spec parse strictly (clean non-negative
  // integers only): "stall:50x" or "@2junk" used to half-parse via atoll
  // and arm a fault at the wrong ordinal. A malformed number now disarms
  // the whole spec with a warning -- a misconfigured test should fail
  // loudly as "no fault fired", never fault somewhere unexpected.
  const auto reject = [&text](const char* what) {
    std::fprintf(stderr,
                 "optrules_workerd: ignoring fault spec with malformed %s "
                 "(\"%s\" must use clean non-negative integers)\n",
                 what, text.c_str());
    return WorkerFault{};
  };
  const size_t at = text.find('@');
  if (at != std::string::npos) {
    const std::optional<uint64_t> ordinal =
        env::ParseNonNegativeInt(text.substr(at + 1));
    if (!ordinal.has_value()) return reject("@ordinal");
    fault.at_request = static_cast<int64_t>(*ordinal);
    text.resize(at);
  }
  const size_t colon = text.find(':');
  if (colon != std::string::npos) {
    const std::optional<uint64_t> sleep_ms =
        env::ParseNonNegativeInt(text.substr(colon + 1));
    if (!sleep_ms.has_value()) return reject(":milliseconds");
    fault.sleep_ms = static_cast<int64_t>(*sleep_ms);
    text.resize(colon);
  }
  if (text == "crash-before-reply") {
    fault.kind = WorkerFault::Kind::kCrashBeforeReply;
  } else if (text == "crash-mid-frame") {
    fault.kind = WorkerFault::Kind::kCrashMidFrame;
  } else if (text == "garbage-frame") {
    fault.kind = WorkerFault::Kind::kGarbageFrame;
  } else if (text == "error-frame") {
    fault.kind = WorkerFault::Kind::kErrorFrame;
  } else if (text == "stall") {
    fault.kind = WorkerFault::Kind::kStall;
  } else if (text == "hang") {
    fault.kind = WorkerFault::Kind::kHang;
  }
  if (fault.kind == WorkerFault::Kind::kNone) return fault;
  // A configured token file gates the fault: exactly one daemon of a
  // fleet can claim it (unlink is atomic), so respawned replacements run
  // clean and a faulty scan still converges deterministically.
  const char* token = std::getenv("OPTRULES_WORKERD_FAULT_TOKEN");
  if (token != nullptr && token[0] != '\0' && ::unlink(token) != 0) {
    fault.kind = WorkerFault::Kind::kNone;
  }
  return fault;
}

// -------------------------------------------------- keepalive writer ----

// The heartbeat thread and the main loop share the reply fd; the shared
// dist::FrameWriter (wire.h) keeps their frames from interleaving.

constexpr int64_t kHeartbeatIntervalMs = 100;

/// Ships kHeartbeat frames every interval while in scope (unless
/// suppressed -- the `hang` fault). Write failures are ignored: a
/// coordinator that already gave up on this daemon closed the pipe.
class ScopedHeartbeats {
 public:
  ScopedHeartbeats(FrameWriter* writer, bool suppressed) {
    if (suppressed) return;
    thread_ = std::thread([this, writer] {
      const uint8_t heartbeat[] = {
          static_cast<uint8_t>(FrameKind::kHeartbeat)};
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        if (cv_.wait_for(lock,
                         std::chrono::milliseconds(kHeartbeatIntervalMs),
                         [this] { return stop_; })) {
          break;
        }
        lock.unlock();
        (void)writer->Write(heartbeat);
        lock.lock();
      }
    });
  }

  ~ScopedHeartbeats() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Runs one decoded scan request; returns the kScanResult payload or an
/// error to be shipped back as a kError frame.
Status ServeScanRequest(std::span<const uint8_t> request,
                        std::vector<uint8_t>* reply) {
  Result<ScanRequestFrame> frame = DecodeScanRequest(request);
  if (!frame.ok()) return frame.status();
  Result<std::unique_ptr<storage::PagedFileBatchSource>> source =
      storage::PagedFileBatchSource::Open(frame.value().partition_path,
                                          frame.value().batch_rows,
                                          frame.value().read_mode);
  if (!source.ok()) return source.status();
  OPTRULES_RETURN_IF_ERROR(ValidateSpecForSource(
      frame.value().spec, source.value()->num_numeric(),
      source.value()->num_boolean()));
  // The worker's partial is the serial reference chain (pool == nullptr):
  // a pure function of (partition file, spec), so any worker count -- and
  // the in-process worker -- produces bit-identical partials.
  bucketing::MultiCountPlan plan(frame.value().spec);
  bucketing::ExecuteMultiCount(*source.value(), &plan, nullptr);
  // Readers are gone once ExecuteMultiCount returns, so the source's
  // counters are final. They travel back in the reply header and the
  // coordinator adds them to its scan stats, so a remote scan is as
  // observable as an in-process one.
  reply->push_back(static_cast<uint8_t>(FrameKind::kScanResult));
  AppendScanStatsHeader(source.value()->SourceStats(), reply);
  plan.AppendPartialState(reply);
  return Status::Ok();
}

/// Writes a deliberately truncated frame (length prefix larger than the
/// bytes that follow) so the peer observes "pipe closed mid-frame".
void WriteTruncatedFrame(int fd) {
  const uint32_t claimed = 64;
  uint8_t header[sizeof(claimed)];
  std::memcpy(header, &claimed, sizeof(claimed));
  (void)!::write(fd, header, sizeof(header));
  const uint8_t partial[8] = {0};
  (void)!::write(fd, partial, sizeof(partial));
}

}  // namespace

int RunWorkerLoop(int in_fd, int out_fd, const char* fault_spec) {
  // The heartbeat thread may race a coordinator that killed this daemon's
  // pipe; EPIPE must surface as a write error, not SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);
  WorkerFault fault = ParseWorkerFault(fault_spec);
  FrameWriter writer(out_fd);
  std::vector<uint8_t> request;
  std::vector<uint8_t> reply;
  int64_t scan_requests = 0;
  while (true) {
    const Status read = ReadFrame(in_fd, &request);
    if (read.code() == StatusCode::kNotFound) return 0;  // clean EOF
    if (!read.ok()) return 1;
    const FrameKind kind = request.empty()
                               ? FrameKind::kShutdown
                               : static_cast<FrameKind>(request[0]);
    if (kind == FrameKind::kShutdown) return 0;
    if (kind == FrameKind::kPing) {
      const uint8_t pong[] = {static_cast<uint8_t>(FrameKind::kPong)};
      if (!writer.Write(pong).ok()) return 1;
      continue;
    }
    reply.clear();
    if (kind != FrameKind::kScanRequest) {
      EncodeErrorFrame(
          Status::InvalidArgument("unexpected frame kind"), &reply);
      if (!writer.Write(reply).ok()) return 1;
      continue;
    }
    const bool fault_now = fault.kind != WorkerFault::Kind::kNone &&
                           scan_requests == fault.at_request;
    ++scan_requests;
    {
      // Heartbeats cover the whole serve, injected sleeps included, so a
      // stalled straggler stays distinguishable from a hung daemon.
      ScopedHeartbeats heartbeats(
          &writer,
          /*suppressed=*/fault_now &&
              fault.kind == WorkerFault::Kind::kHang);
      if (fault_now) {
        switch (fault.kind) {
          case WorkerFault::Kind::kStall:
          case WorkerFault::Kind::kHang:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fault.sleep_ms));
            break;
          case WorkerFault::Kind::kCrashBeforeReply:
            // The genuine kill -9 mid-scan: the request was read, the
            // reply never comes, the pid dies without cleanup.
            (void)::raise(SIGKILL);
            break;
          case WorkerFault::Kind::kCrashMidFrame:
            WriteTruncatedFrame(out_fd);
            (void)::raise(SIGKILL);
            break;
          case WorkerFault::Kind::kGarbageFrame: {
            const uint8_t garbage[] = {0xEE, 0xBE, 0xEF};
            if (!writer.Write(garbage).ok()) return 1;
            fault.kind = WorkerFault::Kind::kNone;
            continue;
          }
          case WorkerFault::Kind::kErrorFrame: {
            reply.clear();
            EncodeErrorFrame(Status::Internal("injected worker fault"),
                             &reply);
            if (!writer.Write(reply).ok()) return 1;
            fault.kind = WorkerFault::Kind::kNone;
            continue;
          }
          case WorkerFault::Kind::kNone:
            break;
        }
        fault.kind = WorkerFault::Kind::kNone;  // every fault is one-shot
      }
      const Status served = ServeScanRequest(request, &reply);
      if (!served.ok()) {
        reply.clear();
        EncodeErrorFrame(served, &reply);
      }
    }  // heartbeats stop before the reply ships
    if (!writer.Write(reply).ok()) return 1;
  }
}

}  // namespace optrules::dist
