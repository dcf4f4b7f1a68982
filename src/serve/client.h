// MiningClient: the blocking client of the resident mining service.
//
// One client = one connection = one thread's view of the service: the
// calls are synchronous (send a frame, read frames until the matching
// reply), so a multi-tenant load generator runs one client per tenant
// thread. Session ids are assigned by the client and echoed by the
// server, which is what lets hostile-frame tests address a deliberately
// corrupt session and watch only THAT session fail.

#ifndef OPTRULES_SERVE_CLIENT_H_
#define OPTRULES_SERVE_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/wire.h"
#include "serve/protocol.h"

namespace optrules::serve {

class MiningClient {
 public:
  /// Connects to a Unix-domain socket (a MiningServer::ListenUnix path).
  static Result<MiningClient> ConnectUnix(const std::string& path);
  /// Connects to 127.0.0.1:`port` (a MiningServer::ListenTcp port).
  static Result<MiningClient> ConnectTcp(uint16_t port);

  MiningClient(MiningClient&& other) noexcept;
  MiningClient& operator=(MiningClient&& other) noexcept;
  MiningClient(const MiningClient&) = delete;
  MiningClient& operator=(const MiningClient&) = delete;
  ~MiningClient();

  /// Read timeouts applied to every reply wait; zeros = block forever.
  void set_timeouts(dist::FrameTimeouts timeouts) { timeouts_ = timeouts; }

  /// Runs one session end to end: assigns the next session id, sends the
  /// request, and blocks for this session's kSessionResult. A server-side
  /// session failure (kServeError) comes back as the carried status; a
  /// transport failure as an IoError/Corruption status.
  Result<SessionReply> RunSession(const SessionRequest& request);

  /// Round-trips a kPing.
  Status Ping();

  /// Fetches the server process's full metrics-registry snapshot
  /// (kMetricsRequest/kMetricsReply): every counter, gauge, and histogram
  /// the daemon's subsystems report, the serve.* counters included (read
  /// them as obs::CounterDelta between two snapshots).
  Result<obs::MetricsSnapshot> Metrics();

  /// Escape hatches for protocol tests: ship an arbitrary payload as one
  /// frame / read the next raw frame.
  Status SendRaw(std::span<const uint8_t> payload);
  Status ReadRaw(std::vector<uint8_t>* payload);

  int fd() const { return fd_; }

 private:
  explicit MiningClient(int fd) : fd_(fd) {}
  void Close();

  int fd_ = -1;
  uint32_t next_session_id_ = 1;
  dist::FrameTimeouts timeouts_;
};

}  // namespace optrules::serve

#endif  // OPTRULES_SERVE_CLIENT_H_
