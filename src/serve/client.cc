#include "serve/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.h"

namespace optrules::serve {

Result<MiningClient> MiningClient::ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unusable unix socket path: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect " + path + ": " + std::strerror(err));
  }
  return MiningClient(fd);
}

Result<MiningClient> MiningClient::ConnectTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("connect 127.0.0.1:" + std::to_string(port) +
                           ": " + std::strerror(err));
  }
  return MiningClient(fd);
}

MiningClient::MiningClient(MiningClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_session_id_(other.next_session_id_),
      timeouts_(other.timeouts_) {}

MiningClient& MiningClient::operator=(MiningClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_session_id_ = other.next_session_id_;
    timeouts_ = other.timeouts_;
  }
  return *this;
}

MiningClient::~MiningClient() { Close(); }

void MiningClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<SessionReply> MiningClient::RunSession(
    const SessionRequest& request) {
  const uint32_t session_id = next_session_id_++;
  std::vector<uint8_t> frame;
  EncodeOpenSession(session_id, request, &frame);
  OPTRULES_RETURN_IF_ERROR(dist::WriteFrame(fd_, frame));
  // Read until THIS session's reply: a pipelining client may see pongs
  // or other sessions' replies in between (they are simply skipped here;
  // concurrent tenants use one client each).
  for (;;) {
    std::vector<uint8_t> payload;
    OPTRULES_RETURN_IF_ERROR(dist::ReadFrameTimed(fd_, &payload, timeouts_));
    if (payload.empty()) {
      return Status::Corruption("empty frame from mining server");
    }
    switch (static_cast<ServeFrameKind>(payload[0])) {
      case ServeFrameKind::kSessionResult: {
        SessionReply reply;
        OPTRULES_RETURN_IF_ERROR(DecodeSessionResult(payload, &reply));
        if (reply.session_id != session_id) continue;
        return reply;
      }
      case ServeFrameKind::kServeError: {
        uint32_t errored_id = 0;
        Status carried;
        OPTRULES_RETURN_IF_ERROR(
            DecodeServeError(payload, &errored_id, &carried));
        if (errored_id != session_id && errored_id != 0) continue;
        return carried;
      }
      default:
        continue;  // pong / metrics for someone else's call
    }
  }
}

Status MiningClient::Ping() {
  std::vector<uint8_t> frame;
  bytes::AppendScalar<uint8_t>(&frame,
                               static_cast<uint8_t>(ServeFrameKind::kPing));
  OPTRULES_RETURN_IF_ERROR(dist::WriteFrame(fd_, frame));
  std::vector<uint8_t> payload;
  OPTRULES_RETURN_IF_ERROR(dist::ReadFrameTimed(fd_, &payload, timeouts_));
  if (payload.empty() ||
      payload[0] != static_cast<uint8_t>(ServeFrameKind::kPong)) {
    return Status::Corruption("expected kPong from mining server");
  }
  return Status::Ok();
}

Result<obs::MetricsSnapshot> MiningClient::Metrics() {
  std::vector<uint8_t> frame;
  bytes::AppendScalar<uint8_t>(
      &frame, static_cast<uint8_t>(ServeFrameKind::kMetricsRequest));
  OPTRULES_RETURN_IF_ERROR(dist::WriteFrame(fd_, frame));
  std::vector<uint8_t> payload;
  OPTRULES_RETURN_IF_ERROR(dist::ReadFrameTimed(fd_, &payload, timeouts_));
  obs::MetricsSnapshot snapshot;
  OPTRULES_RETURN_IF_ERROR(DecodeMetricsReply(payload, &snapshot));
  return snapshot;
}

Status MiningClient::SendRaw(std::span<const uint8_t> payload) {
  return dist::WriteFrame(fd_, payload);
}

Status MiningClient::ReadRaw(std::vector<uint8_t>* payload) {
  return dist::ReadFrameTimed(fd_, payload, timeouts_);
}

}  // namespace optrules::serve
