// MiningServer: the resident mining service.
//
// A daemon-side scheduling layer over the existing engine: client
// connections (Unix-domain or TCP sockets) carry serve-protocol frames,
// and every admitted session is keyed by (table directory, table
// generation, scan-shaping options fingerprint -- ScanOptionsFingerprint,
// which leaves out min_support and min_confidence). A session that needs
// a counting scan is queued into that key's COALESCING WINDOW: sessions
// that arrive within the window against the same key -- typically many
// tenants querying one published table, at whatever thresholds -- are
// answered by ONE shared MiningEngine whose single counting scan
// registers every session's channels up front, so N concurrent sessions
// cost one physical scan instead of N. Thresholds act only in the O(M)
// optimizers, so each session's answers are emitted at its own thresholds
// from the shared counts. Engines persist across windows in a small LRU
// keyed by the same triple; a republished table (new manifest bytes = new
// generation) naturally misses the cache and re-scans.
//
// A WARM session -- its key has a resident, prepared engine and none of
// its queries would register a new channel (MiningEngine::WouldRegister*)
// -- needs no scan, so it skips the window: the warm sessions of a key
// form a batch that is due at once, apart from any window a cold session
// of the same key has open. Every batch, warm or cold, executes the same
// way (register, prepare, answer), so the answers do not depend on the
// path.
//
// Threading model:
//   * accept thread  -- polls the listen socket, admits connections.
//   * handler thread -- one per connection, the connection's ONLY reader:
//     decodes frames, answers pings and metrics requests inline, queues
//     admitted sessions as arrivals.
//   * scheduler thread -- the only owner of batches and engines: files
//     each arrival as warm or cold against the resident engines, executes
//     due batches, writes result frames.
// Replies and inline answers target the same socket from different
// threads, so every write goes through the connection's dist::FrameWriter
// (the per-connection write mutex); frames never interleave.
//
// Failure isolation: a malformed or hostile frame fails with an error
// frame addressed to the offending session id (or closes just that
// connection when the stream itself is corrupt); other clients of the
// same batch -- even of the same connection -- are unaffected. Stop() is
// the graceful path: stop accepting, flush or deadline-fail the queued
// sessions, shut down every socket so blocked readers unwind, and release
// the engines (which closes subprocess worker rosters through their
// normal WNOHANG -> SIGTERM -> SIGKILL escalation), so a wedged client
// cannot hang process exit.
//
// Counters: the server reports only into obs::MetricsRegistry::Default()
// -- the serve.* counters (sessions admitted / rejected / served / failed,
// physical scans, coalesced sessions, batches, engine-cache hits and
// misses, per-reason rejections, per-tenant served sessions) and the
// serve.engines_cached gauge. kMetricsReply ships them; the registry is
// process-wide and monotone, so in-process readers (tests, the load
// harness) compare two snapshots with obs::CounterDelta.

#ifndef OPTRULES_SERVE_SERVER_H_
#define OPTRULES_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dist/coordinator.h"
#include "dist/wire.h"
#include "serve/protocol.h"

namespace optrules::serve {

/// Admission-control and scheduling knobs of a MiningServer.
struct ServerOptions {
  /// Sessions admitted but not yet answered; the admission bound. A
  /// session beyond it is refused with an OutOfRange error frame.
  int max_pending_sessions = 64;
  /// Concurrent client connections; excess connects are refused with an
  /// error frame and closed.
  int max_connections = 64;
  /// The coalescing window of sessions that need a counting scan: such a
  /// session waits this long after the FIRST such arrival of its (table,
  /// generation, scan options) key before the batch executes, collecting
  /// same-key sessions into one shared scan. 0 executes every session
  /// immediately (coalescing off). Sessions a resident engine answers
  /// without a scan never wait for it.
  int64_t coalescing_window_ms = 25;
  /// Deadline applied to sessions that do not carry their own.
  int64_t default_deadline_ms = 60'000;
  /// Stop(): how long the scheduler may keep executing queued batches
  /// before the remaining sessions are failed with DeadlineExceeded.
  int64_t drain_deadline_ms = 10'000;
  /// Send timeout per socket write, so a client that stops reading wedges
  /// its own replies, never a server thread (and never process exit).
  int64_t send_timeout_ms = 10'000;
  /// Engines kept resident across windows, LRU-evicted beyond this.
  int max_cached_engines = 4;
  /// Fan-out of each engine's counting scans.
  dist::DistributedScanOptions scan_options;
};

/// The resident service. Listen*() then Start(); Stop() is idempotent and
/// runs from the destructor if needed.
class MiningServer {
 public:
  explicit MiningServer(ServerOptions options = {});
  ~MiningServer();
  MiningServer(const MiningServer&) = delete;
  MiningServer& operator=(const MiningServer&) = delete;

  /// Binds a Unix-domain socket at `path` (unlinking a stale one).
  Status ListenUnix(const std::string& path);
  /// Binds 127.0.0.1:`port`; 0 picks an ephemeral port (see port()).
  Status ListenTcp(uint16_t port);

  /// The bound address: the socket path, or "127.0.0.1:<port>".
  const std::string& address() const { return address_; }
  /// The bound TCP port (0 for Unix-domain sockets).
  uint16_t port() const { return port_; }

  /// Spawns the accept and scheduler threads. Listen*() must have
  /// succeeded.
  Status Start();

  /// Graceful shutdown: stops accepting, drains or deadline-fails queued
  /// sessions, unblocks and joins every connection thread, releases the
  /// engine cache (terminating subprocess worker rosters). Idempotent.
  void Stop();

 private:
  struct Connection;
  struct CachedEngine;
  /// The coalescing and engine-cache key: same directory, same manifest
  /// bytes, same scan-shaping options => shareable scan and engine.
  /// Thresholds are not part of it: every query is answered at its own
  /// session's ThresholdSet.
  struct EngineKey {
    std::string table_dir;
    uint64_t generation = 0;
    uint64_t scan_options_fingerprint = 0;
    friend auto operator<=>(const EngineKey&, const EngineKey&) = default;
  };
  using Clock = std::chrono::steady_clock;
  /// One admitted session waiting for its batch.
  struct PendingSession {
    EngineKey key;
    std::shared_ptr<Connection> conn;
    uint32_t session_id = 0;
    SessionRequest request;
    Clock::time_point enqueued;  ///< admission time
    int64_t deadline_ms = 0;     ///< effective (defaulted) queue deadline
  };
  /// A key's warm batch (no scan needed, due at once) is kept apart from
  /// its cold coalescing window.
  struct BatchKey {
    EngineKey engine;
    bool warm = false;
    friend auto operator<=>(const BatchKey&, const BatchKey&) = default;
  };
  /// The sessions of one batch: executes as one shared engine session when
  /// `due` passes.
  struct Batch {
    Clock::time_point due;
    std::vector<PendingSession> sessions;
  };

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  /// Decodes + admits one kOpenSession payload from `conn`.
  void HandleOpenSession(const std::shared_ptr<Connection>& conn,
                         std::span<const uint8_t> payload);
  void SchedulerLoop();
  /// Whether a resident, prepared engine answers `session` without a
  /// counting scan. Scheduler thread only.
  bool IsWarm(const PendingSession& session) const;
  /// Moves arrivals_ into their warm batch or cold window. Scheduler
  /// thread, under mu_.
  void FileArrivals();
  /// Runs one due batch: get-or-build the engine, register every
  /// session's channels, scan once, answer each session.
  void ExecuteBatch(const EngineKey& key, Batch batch);
  /// Replies with an error frame and counts the session failed.
  void FailSession(const std::shared_ptr<Connection>& conn,
                   uint32_t session_id, const Status& status);
  /// Looks the key up in the LRU (front = hottest), or opens the table
  /// and builds a fresh engine with `options` (evicting beyond the cache
  /// bound). The engine's own thresholds are never read. Scheduler thread
  /// only.
  Result<CachedEngine*> GetOrCreateEngine(const EngineKey& key,
                                          const rules::MinerOptions& options);
  void WriteError(const std::shared_ptr<Connection>& conn,
                  uint32_t session_id, const Status& status);

  ServerOptions options_;
  int listen_fd_ = -1;
  std::string address_;
  uint16_t port_ = 0;
  /// Unix socket path to unlink on Stop (empty for TCP).
  std::string unlink_path_;

  std::thread accept_thread_;
  std::thread scheduler_thread_;

  mutable std::mutex mu_;
  std::condition_variable scheduler_cv_;
  /// Signals active_handlers_ reaching zero during Stop.
  std::condition_variable handlers_cv_;
  bool started_ = false;
  bool stopping_ = false;
  bool stopped_ = false;
  /// Instant past which a draining scheduler fails the remaining queued
  /// sessions instead of executing them.
  Clock::time_point stop_deadline_;
  /// Open connections, for shutdown() fan-out on Stop.
  std::vector<std::shared_ptr<Connection>> connections_;
  /// Detached handler threads still running (each holds a Connection).
  int active_handlers_ = 0;
  /// Admitted sessions the scheduler has not yet filed into a batch.
  std::vector<PendingSession> arrivals_;
  /// Filed batches; each executes when its due time passes.
  std::map<BatchKey, Batch> batches_;
  /// Admitted and not yet answered: arrivals plus batched sessions.
  int pending_sessions_ = 0;

  /// Engines are touched ONLY by the scheduler thread (and Stop after the
  /// scheduler joined), so they need no lock of their own.
  std::list<std::pair<EngineKey, std::unique_ptr<CachedEngine>>> engines_;
};

}  // namespace optrules::serve

#endif  // OPTRULES_SERVE_SERVER_H_
