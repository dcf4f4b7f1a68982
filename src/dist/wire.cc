#include "dist/wire.h"

#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/bytes.h"

namespace optrules::dist {

namespace {

constexpr uint32_t kMaxFrameBytes = 1u << 30;  // 1 GiB sanity bound

/// Writes every byte of `parts`, in order, with one writev() per attempt:
/// a frame normally leaves in a single call (header and payload in one
/// segment on a socket), and a partial write or EINTR resumes where the
/// kernel stopped.
Status WriteAll(int fd, std::span<iovec> parts) {
  size_t first = 0;
  while (first < parts.size()) {
    const ssize_t n = ::writev(fd, parts.data() + first,
                               static_cast<int>(parts.size() - first));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("frame write failed: ") +
                             std::strerror(errno));
    }
    auto left = static_cast<size_t>(n);
    while (first < parts.size() && left >= parts[first].iov_len) {
      left -= parts[first].iov_len;
      ++first;
    }
    if (left > 0) {
      parts[first].iov_base = static_cast<uint8_t*>(parts[first].iov_base) +
                              left;
      parts[first].iov_len -= left;
    }
  }
  return Status::Ok();
}

using SteadyClock = std::chrono::steady_clock;

/// Time budget of one timed frame read: the total deadline is fixed at
/// construction; the liveness window restarts whenever bytes arrive.
struct ReadDeadline {
  int64_t liveness_ms = 0;
  SteadyClock::time_point total_deadline;
  bool has_total = false;

  explicit ReadDeadline(const FrameTimeouts& timeouts)
      : liveness_ms(timeouts.liveness_ms) {
    if (timeouts.total_ms > 0) {
      has_total = true;
      total_deadline =
          SteadyClock::now() + std::chrono::milliseconds(timeouts.total_ms);
    }
  }

  bool unlimited() const { return liveness_ms <= 0 && !has_total; }
};

/// Blocks until `fd` is readable or the deadline expires. OK = readable.
Status WaitReadable(int fd, const ReadDeadline& deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline.has_total) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline.total_deadline -
                                     SteadyClock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("partition scan deadline exceeded");
      }
      timeout_ms = static_cast<int>(std::min<int64_t>(
          remaining.count() + 1, std::numeric_limits<int>::max()));
    }
    if (deadline.liveness_ms > 0) {
      const int liveness = static_cast<int>(std::min<int64_t>(
          deadline.liveness_ms, std::numeric_limits<int>::max()));
      timeout_ms = timeout_ms < 0 ? liveness : std::min(timeout_ms, liveness);
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pipe poll failed: ") +
                             std::strerror(errno));
    }
    if (ready > 0) return Status::Ok();
    // poll timed out: decide which budget ran out. A liveness window that
    // is shorter than the remaining total means the peer went silent.
    if (deadline.has_total &&
        SteadyClock::now() >= deadline.total_deadline) {
      return Status::DeadlineExceeded("partition scan deadline exceeded");
    }
    return Status::DeadlineExceeded("worker silent past liveness timeout");
  }
}

/// Reads exactly `size` bytes; at_start distinguishes clean EOF (NotFound)
/// from a truncated frame (Corruption). A non-null deadline bounds the
/// wait before every read (any arriving byte restarts the liveness
/// window by construction: the next wait starts fresh).
Status ReadAll(int fd, uint8_t* data, size_t size, bool at_start,
               const ReadDeadline* deadline = nullptr) {
  size_t got = 0;
  while (got < size) {
    if (deadline != nullptr && !deadline->unlimited()) {
      OPTRULES_RETURN_IF_ERROR(WaitReadable(fd, *deadline));
    }
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pipe read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      return at_start && got == 0
                 ? Status::NotFound("pipe closed")
                 : Status::Corruption("pipe closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

using bytes::AppendArray;
using bytes::AppendScalar;
using bytes::AppendString;
using bytes::ByteReader;

// The protocol stores condition / sum-target index lists as int32 arrays;
// the raw-array helpers rely on int being exactly that wide (true on
// every platform this native-endian protocol connects).
static_assert(sizeof(int) == sizeof(int32_t));

}  // namespace

Status WriteFrame(int fd, std::span<const uint8_t> payload) {
  OPTRULES_CHECK(payload.size() <= kMaxFrameBytes);
  const uint32_t length = static_cast<uint32_t>(payload.size());
  uint8_t header[sizeof(length)];
  std::memcpy(header, &length, sizeof(length));
  iovec parts[] = {
      {header, sizeof(header)},
      {const_cast<uint8_t*>(payload.data()), payload.size()}};
  return WriteAll(fd, parts);
}

Status ReadFrame(int fd, std::vector<uint8_t>* payload) {
  OPTRULES_CHECK(payload != nullptr);
  uint32_t length = 0;
  uint8_t header[sizeof(length)];
  OPTRULES_RETURN_IF_ERROR(
      ReadAll(fd, header, sizeof(header), /*at_start=*/true));
  std::memcpy(&length, header, sizeof(length));
  if (length > kMaxFrameBytes) {
    return Status::Corruption("oversized frame");
  }
  payload->resize(length);
  if (length == 0) return Status::Ok();
  return ReadAll(fd, payload->data(), length, /*at_start=*/false);
}

Status ReadFrameTimed(int fd, std::vector<uint8_t>* payload,
                      const FrameTimeouts& timeouts) {
  OPTRULES_CHECK(payload != nullptr);
  const ReadDeadline deadline(timeouts);
  uint32_t length = 0;
  uint8_t header[sizeof(length)];
  OPTRULES_RETURN_IF_ERROR(
      ReadAll(fd, header, sizeof(header), /*at_start=*/true, &deadline));
  std::memcpy(&length, header, sizeof(length));
  if (length > kMaxFrameBytes) {
    return Status::Corruption("oversized frame");
  }
  payload->resize(length);
  if (length == 0) return Status::Ok();
  return ReadAll(fd, payload->data(), length, /*at_start=*/false, &deadline);
}

void EncodeScanRequest(const std::string& partition_path, int64_t batch_rows,
                       storage::PagedReadMode read_mode,
                       const bucketing::MultiCountSpec& spec,
                       std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<uint8_t>(out, static_cast<uint8_t>(FrameKind::kScanRequest));
  AppendString(out, partition_path);
  AppendScalar<int64_t>(out, batch_rows);
  AppendScalar<uint8_t>(
      out, read_mode == storage::PagedReadMode::kSynchronous ? 0 : 1);
  AppendScalar<int32_t>(out, spec.num_targets);

  // Boundary table: each distinct pointer once, in first-use order across
  // the 1-D channels then the grid axes (the same identity rule the plan's
  // locate groups use, so shared boundary sets stay shared remotely).
  std::vector<const bucketing::BucketBoundaries*> table;
  const auto index_of = [&table](const bucketing::BucketBoundaries* b) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (table[i] == b) return static_cast<uint32_t>(i);
    }
    table.push_back(b);
    return static_cast<uint32_t>(table.size() - 1);
  };
  std::vector<uint32_t> channel_boundary(spec.channels.size());
  for (size_t c = 0; c < spec.channels.size(); ++c) {
    channel_boundary[c] = index_of(spec.channels[c].boundaries);
  }
  std::vector<std::pair<uint32_t, uint32_t>> grid_boundary(
      spec.grid_channels.size());
  for (size_t g = 0; g < spec.grid_channels.size(); ++g) {
    grid_boundary[g] = {index_of(spec.grid_channels[g].x_boundaries),
                        index_of(spec.grid_channels[g].y_boundaries)};
  }
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(table.size()));
  for (const bucketing::BucketBoundaries* boundaries : table) {
    AppendArray(out, boundaries->cut_points());
  }

  AppendScalar<uint32_t>(out, static_cast<uint32_t>(spec.conditions.size()));
  for (const std::vector<int>& condition : spec.conditions) {
    AppendArray(out, condition);
  }
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(spec.channels.size()));
  for (size_t c = 0; c < spec.channels.size(); ++c) {
    const bucketing::CountChannel& channel = spec.channels[c];
    AppendScalar<int32_t>(out, channel.column);
    AppendScalar<uint32_t>(out, channel_boundary[c]);
    AppendScalar<int32_t>(out, channel.condition);
    AppendScalar<uint8_t>(out, channel.count_targets ? 1 : 0);
    AppendArray(out, channel.sum_targets);
  }
  AppendScalar<uint32_t>(out,
                         static_cast<uint32_t>(spec.grid_channels.size()));
  for (size_t g = 0; g < spec.grid_channels.size(); ++g) {
    const bucketing::GridChannel& channel = spec.grid_channels[g];
    AppendScalar<int32_t>(out, channel.x_column);
    AppendScalar<uint32_t>(out, grid_boundary[g].first);
    AppendScalar<int32_t>(out, channel.y_column);
    AppendScalar<uint32_t>(out, grid_boundary[g].second);
  }
}

Result<ScanRequestFrame> DecodeScanRequest(
    std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  uint8_t kind = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&kind));
  if (kind != static_cast<uint8_t>(FrameKind::kScanRequest)) {
    return Status::InvalidArgument("not a scan request frame");
  }
  ScanRequestFrame frame;
  OPTRULES_RETURN_IF_ERROR(reader.ReadString(&frame.partition_path));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&frame.batch_rows));
  if (frame.batch_rows < 1) {
    return Status::Corruption("invalid batch_rows in scan request");
  }
  uint8_t mode = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&mode));
  frame.read_mode = mode == 0 ? storage::PagedReadMode::kSynchronous
                              : storage::PagedReadMode::kDoubleBuffered;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&frame.spec.num_targets));

  uint32_t num_boundaries = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_boundaries));
  // Every table entry consumes at least its 8-byte length prefix, so a
  // count past the REMAINING bytes / 8 is corruption, not an allocation
  // request (same for the section counts below): reserve/resize must
  // never be driven past what the frame could possibly hold.
  if (num_boundaries > reader.remaining() / 8) {
    return Status::Corruption("boundary table count exceeds payload");
  }
  // Grow the section vectors as entries actually parse (bounded upfront
  // reserve): memory use stays proportional to bytes present in the
  // frame, so a hostile count can never drive one giant allocation.
  frame.boundaries.reserve(std::min<uint32_t>(num_boundaries, 4096));
  for (uint32_t i = 0; i < num_boundaries; ++i) {
    std::vector<double> cuts;
    OPTRULES_RETURN_IF_ERROR(reader.ReadArray(&cuts));
    // NaN fails every comparison, so the pairwise check alone would pass
    // a one-element [NaN] table; reject NaN at any position first.
    if (std::any_of(cuts.begin(), cuts.end(),
                    [](double c) { return std::isnan(c); })) {
      return Status::Corruption("NaN cut point in scan request");
    }
    for (size_t j = 0; j + 1 < cuts.size(); ++j) {
      if (!(cuts[j] <= cuts[j + 1])) {
        return Status::Corruption("unsorted cut points in scan request");
      }
    }
    frame.boundaries.push_back(
        bucketing::BucketBoundaries::FromCutPoints(std::move(cuts)));
  }
  const auto boundary_at =
      [&frame,
       num_boundaries](uint32_t i) -> const bucketing::BucketBoundaries* {
    return i < num_boundaries ? &frame.boundaries[i] : nullptr;
  };

  uint32_t num_conditions = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_conditions));
  if (num_conditions > reader.remaining() / 8) {
    return Status::Corruption("condition count exceeds payload");
  }
  frame.spec.conditions.reserve(std::min<uint32_t>(num_conditions, 4096));
  for (uint32_t c = 0; c < num_conditions; ++c) {
    std::vector<int> condition;
    OPTRULES_RETURN_IF_ERROR(reader.ReadArray(&condition));
    frame.spec.conditions.push_back(std::move(condition));
  }
  uint32_t num_channels = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_channels));
  if (num_channels > reader.remaining() / 8) {
    return Status::Corruption("channel count exceeds payload");
  }
  frame.spec.channels.reserve(std::min<uint32_t>(num_channels, 4096));
  for (uint32_t c = 0; c < num_channels; ++c) {
    bucketing::CountChannel channel;
    uint32_t boundary = 0;
    uint8_t count_targets = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&channel.column));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&boundary));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&channel.condition));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&count_targets));
    OPTRULES_RETURN_IF_ERROR(reader.ReadArray(&channel.sum_targets));
    channel.count_targets = count_targets != 0;
    channel.boundaries = boundary_at(boundary);
    if (channel.boundaries == nullptr) {
      return Status::Corruption("boundary index out of range");
    }
    if (channel.condition != bucketing::CountChannel::kUnconditional &&
        (channel.condition < 0 ||
         channel.condition >= static_cast<int>(num_conditions))) {
      return Status::Corruption("condition index out of range");
    }
    frame.spec.channels.push_back(std::move(channel));
  }
  uint32_t num_grids = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_grids));
  if (num_grids > reader.remaining() / 8) {
    return Status::Corruption("grid channel count exceeds payload");
  }
  frame.spec.grid_channels.reserve(std::min<uint32_t>(num_grids, 4096));
  for (uint32_t g = 0; g < num_grids; ++g) {
    bucketing::GridChannel channel;
    uint32_t x_boundary = 0;
    uint32_t y_boundary = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&channel.x_column));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&x_boundary));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&channel.y_column));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&y_boundary));
    channel.x_boundaries = boundary_at(x_boundary);
    channel.y_boundaries = boundary_at(y_boundary);
    if (channel.x_boundaries == nullptr || channel.y_boundaries == nullptr) {
      return Status::Corruption("boundary index out of range");
    }
    frame.spec.grid_channels.push_back(channel);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in scan request");
  }
  return frame;
}

void EncodeErrorFrame(const Status& status, std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<uint8_t>(out, static_cast<uint8_t>(FrameKind::kError));
  AppendScalar<int32_t>(out, static_cast<int32_t>(status.code()));
  AppendString(out, status.message());
}

Status DecodeErrorFrame(std::span<const uint8_t> payload) {
  ByteReader reader(payload);
  uint8_t kind = 0;
  Status parse = reader.ReadScalar(&kind);
  int32_t code = 0;
  std::string message;
  if (parse.ok()) parse = reader.ReadScalar(&code);
  if (parse.ok()) parse = reader.ReadString(&message);
  if (!parse.ok() || kind != static_cast<uint8_t>(FrameKind::kError)) {
    return Status::Corruption("malformed error frame");
  }
  // An OK code inside an error frame is itself a protocol violation.
  if (code == static_cast<int32_t>(StatusCode::kOk)) {
    return Status::Corruption("error frame carried OK status");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

void AppendScanStatsHeader(const storage::BatchSourceStats& stats,
                           std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<int64_t>(out, stats.pages_skipped);
  AppendScalar<int64_t>(out, stats.cache_hits);
  AppendScalar<int64_t>(out, stats.cache_misses);
  AppendScalar<double>(out, stats.io_wait_seconds);
}

Status ReadScanStatsHeader(std::span<const uint8_t> bytes,
                           storage::BatchSourceStats* stats) {
  OPTRULES_CHECK(stats != nullptr);
  *stats = {};
  ByteReader reader(bytes);
  Status parse = reader.ReadScalar(&stats->pages_skipped);
  if (parse.ok()) parse = reader.ReadScalar(&stats->cache_hits);
  if (parse.ok()) parse = reader.ReadScalar(&stats->cache_misses);
  if (parse.ok()) parse = reader.ReadScalar(&stats->io_wait_seconds);
  if (!parse.ok()) {
    return Status::Corruption("truncated scan stats header");
  }
  return Status::Ok();
}

}  // namespace optrules::dist
