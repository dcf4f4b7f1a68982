// Wire protocol of the distributed scan subsystem.
//
// Workers and the coordinator exchange length-prefixed frames over pipes:
//   [u32 payload length][payload]
// where payload[0] is a FrameKind byte. A scan request carries the
// partition file path, the reader parameters, and a self-contained
// MultiCountSpec (boundary cut points serialized by value, so the worker
// reconstructs bit-identical BucketBoundaries); a scan result carries the
// MultiCountPlan partial state (bucketing::AppendPartialState). All
// multi-byte values are native-endian: the protocol connects processes of
// one architecture (local pipes, or a homogeneous cluster).

#ifndef OPTRULES_DIST_WIRE_H_
#define OPTRULES_DIST_WIRE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bucketing/counting.h"
#include "common/status.h"
#include "storage/columnar_batch.h"

namespace optrules::dist {

/// First payload byte of every frame.
enum class FrameKind : uint8_t {
  kScanRequest = 1,  ///< coordinator -> worker: count one partition
  kScanResult = 2,   ///< worker -> coordinator: partial plan state
  kError = 3,        ///< worker -> coordinator: status code + message
  kShutdown = 4,     ///< coordinator -> worker: exit the loop
  kPing = 5,         ///< coordinator -> worker: health check
  kPong = 6,         ///< worker -> coordinator: kPing acknowledgement
  kHeartbeat = 7,    ///< worker -> coordinator: still alive mid-scan
};

/// Writes one [length][payload] frame to `fd` with one writev(2) of the
/// length prefix and payload (so a socket sends them as one segment
/// rather than holding the payload behind the prefix's ACK), handling
/// short writes and EINTR.
///
/// NOT atomic across threads: two threads calling WriteFrame on one fd can
/// interleave mid-frame (a large payload takes several writev calls),
/// corrupting the stream. Any connection written by more than one thread -- a worker
/// daemon's heartbeat thread, a serve-layer connection multiplexing
/// responder threads -- must serialize through a FrameWriter.
Status WriteFrame(int fd, std::span<const uint8_t> payload);

/// Serializes WriteFrame calls on one shared fd: the per-connection write
/// mutex of every multi-writer connection (daemon reply pipes, serve-layer
/// client sockets). Reads need no twin: each connection has exactly one
/// reader thread.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}
  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  Status Write(std::span<const uint8_t> payload) {
    std::lock_guard<std::mutex> lock(mu_);
    return WriteFrame(fd_, payload);
  }

  int fd() const { return fd_; }

 private:
  int fd_;
  std::mutex mu_;
};

/// Reads the next frame into *payload. A clean EOF at a frame boundary
/// returns NotFound (the peer closed the pipe); EOF mid-frame is
/// Corruption.
Status ReadFrame(int fd, std::vector<uint8_t>* payload);

/// Timeouts for ReadFrameTimed, both in milliseconds, 0 = unlimited.
struct FrameTimeouts {
  /// Maximum silent gap between any two bytes. A worker mid-scan ships a
  /// kHeartbeat frame every ~100 ms, so a gap this long means the peer is
  /// hung (not merely slow): the read fails with DeadlineExceeded.
  int64_t liveness_ms = 0;
  /// Maximum total time for this frame, heartbeats included: the
  /// per-partition deadline. Expiry fails with DeadlineExceeded.
  int64_t total_ms = 0;
};

/// ReadFrame with poll()-based timeouts: distinguishes a hung peer
/// (liveness_ms of silence) and an overall deadline (total_ms) from slow
/// but live scans. Either expiry returns DeadlineExceeded and leaves the
/// stream mid-frame (the connection must be considered unusable).
Status ReadFrameTimed(int fd, std::vector<uint8_t>* payload,
                      const FrameTimeouts& timeouts);

/// A decoded scan request. `spec` points into `boundaries`, so the struct
/// is move-only and must outlive any plan built from the spec.
struct ScanRequestFrame {
  ScanRequestFrame() = default;
  ScanRequestFrame(ScanRequestFrame&&) = default;
  ScanRequestFrame& operator=(ScanRequestFrame&&) = default;
  ScanRequestFrame(const ScanRequestFrame&) = delete;
  ScanRequestFrame& operator=(const ScanRequestFrame&) = delete;

  std::string partition_path;
  int64_t batch_rows = storage::kDefaultBatchRows;
  storage::PagedReadMode read_mode =
      storage::PagedReadMode::kDoubleBuffered;
  /// Deserialized boundary objects, in first-use order; the spec's channel
  /// pointers reference these (stable across moves of the frame).
  std::vector<bucketing::BucketBoundaries> boundaries;
  bucketing::MultiCountSpec spec;
};

/// Encodes a kScanRequest payload. Every distinct BucketBoundaries
/// pointer across channels and grid axes is serialized once (by cut
/// points) and referenced by index, mirroring the plan's locate groups.
void EncodeScanRequest(const std::string& partition_path, int64_t batch_rows,
                       storage::PagedReadMode read_mode,
                       const bucketing::MultiCountSpec& spec,
                       std::vector<uint8_t>* out);

/// Decodes a kScanRequest payload (payload[0] must be kScanRequest).
Result<ScanRequestFrame> DecodeScanRequest(std::span<const uint8_t> payload);

/// Encodes a kError payload from a status.
void EncodeErrorFrame(const Status& status, std::vector<uint8_t>* out);

/// Decodes a kError payload back into the status it carried.
Status DecodeErrorFrame(std::span<const uint8_t> payload);

/// Encoded size of the scan-stats header of a kScanResult payload: the
/// four counters a partition scan reports -- pages_skipped, cache_hits,
/// cache_misses (each 8 bytes) and io_wait_seconds (a raw double), in that
/// order -- between the kind byte and the partial plan state. Fixed-size
/// so the partial-state offset stays static.
inline constexpr size_t kScanStatsHeaderBytes =
    3 * sizeof(int64_t) + sizeof(double);

/// Appends the scan-stats header of `stats` (the fields above; the rest of
/// BatchSourceStats is coordinator-side and does not travel).
void AppendScanStatsHeader(const storage::BatchSourceStats& stats,
                           std::vector<uint8_t>* out);

/// Decodes a header written by AppendScanStatsHeader from the front of
/// `bytes` into *stats (fields that do not travel read 0). Corruption when
/// `bytes` holds fewer than kScanStatsHeaderBytes.
Status ReadScanStatsHeader(std::span<const uint8_t> bytes,
                           storage::BatchSourceStats* stats);

}  // namespace optrules::dist

#endif  // OPTRULES_DIST_WIRE_H_
