#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/bytes.h"
#include "common/timer.h"
#include "dist/manifest.h"
#include "dist/partitioned_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/miner.h"

namespace optrules::serve {

namespace {

/// The server's instruments: the only record of what it did, exported
/// through kMetricsReply.
struct ServeMetrics {
  obs::Counter* sessions_admitted;
  /// Admission-control refusals: rejected_connection_limit +
  /// rejected_admission (a queue-deadline expiry happens after admission
  /// and counts in sessions_failed instead).
  obs::Counter* sessions_rejected;
  /// Sessions answered with a kSessionResult, counted when the batch's
  /// answers are ready and BEFORE the replies are written, so a client
  /// holding its reply sees the batch counted. A reply whose write then
  /// fails (the client is gone or wedged) stays counted here AND is
  /// counted in sessions_failed: counters are monotone, so a lost reply
  /// adds one to each.
  obs::Counter* sessions_served;
  /// Sessions answered with a kServeError, plus lost replies (above).
  obs::Counter* sessions_failed;
  obs::Counter* physical_scans;      ///< counting scans actually run
  /// Sessions served without a physical scan of their own.
  obs::Counter* coalesced_sessions;
  obs::Counter* batches_executed;     ///< coalescing windows flushed
  obs::Counter* engine_cache_hits;    ///< window reused a resident engine
  obs::Counter* engine_cache_misses;  ///< window had to build an engine
  obs::Counter* rejected_connection_limit;  ///< connection cap at accept
  obs::Counter* rejected_admission;  ///< session cap or shutting down
  obs::Counter* rejected_queue_deadline;  ///< deadline expired while queued
  obs::Gauge* engines_cached;  ///< engines resident after the last window
  obs::Histogram* queue_wait_seconds;
  obs::Histogram* window_seconds;

  static const ServeMetrics& Get() {
    static const ServeMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return ServeMetrics{
          reg.GetCounter("serve.sessions_admitted"),
          reg.GetCounter("serve.sessions_rejected"),
          reg.GetCounter("serve.sessions_served"),
          reg.GetCounter("serve.sessions_failed"),
          reg.GetCounter("serve.physical_scans"),
          reg.GetCounter("serve.coalesced_sessions"),
          reg.GetCounter("serve.batches_executed"),
          reg.GetCounter("serve.engine_cache_hits"),
          reg.GetCounter("serve.engine_cache_misses"),
          reg.GetCounter("serve.rejected_connection_limit"),
          reg.GetCounter("serve.rejected_admission"),
          reg.GetCounter("serve.rejected_queue_deadline"),
          reg.GetGauge("serve.engines_cached"),
          reg.GetHistogram("serve.queue_wait_seconds"),
          reg.GetHistogram("serve.window_seconds")};
    }();
    return metrics;
  }
};

/// Per-tenant served-session counter, keyed by the session's full
/// OptionsFingerprint (thresholds included), so tenants that share one
/// coalesced scan still count apart. Dynamic lookup: the registry mutex
/// is fine at once-per-session frequency.
obs::Counter* TenantSessionsCounter(uint64_t fingerprint) {
  char name[64];
  std::snprintf(name, sizeof(name), "serve.tenant.%016llx.sessions_served",
                static_cast<unsigned long long>(fingerprint));
  return obs::MetricsRegistry::Default().GetCounter(name);
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over the raw manifest bytes: the table generation. Any rewrite
/// of the manifest -- repartition, republish, schema change -- yields a
/// new generation, so cached engines of the old table can never answer
/// for the new one.
Result<uint64_t> ManifestGeneration(const std::string& dir) {
  const std::string path = dir + "/" + dist::kManifestFileName;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no table manifest at " + path);
  }
  bytes::Fnv1a hash;
  char buffer[4096];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash.Mix(static_cast<uint8_t>(buffer[i]));
    }
  }
  return hash.digest();
}

/// Registers the channels `query` needs on the shared engine so the
/// batch's single scan covers it. Failures are deliberately dropped: the
/// matching Mine* call reproduces the same error as this query's
/// per-query status without failing the batch.
void PreRegisterQuery(rules::MiningEngine* engine, const ServeQuery& query) {
  switch (query.kind) {
    case ServeQuery::Kind::kGeneralized:
      (void)engine->RequestGeneralized(query.conditions);
      break;
    case ServeQuery::Kind::kAverageRange:
    case ServeQuery::Kind::kSupportRange:
      (void)engine->RequestAverageTarget(query.attr_b);
      break;
    case ServeQuery::Kind::kRegion:
      if (query.nx > 0 && query.ny > 0) {
        (void)engine->RequestRegionPair(query.attr_a, query.attr_b,
                                        query.nx, query.ny);
      } else {
        (void)engine->RequestRegionPair(query.attr_a, query.attr_b);
      }
      break;
    case ServeQuery::Kind::kAllPairs:
    case ServeQuery::Kind::kPair:
      break;  // covered by the base channels of every scan
  }
}

/// Answers one query from the prepared engine's cached channels at the
/// session's `thresholds` -- never at the engine's own option thresholds,
/// since a cached engine may have been built for another session. Errors
/// (unknown attribute, wrong attribute kind, an aggregate threshold out of
/// its domain) land in the answer's status: per-query isolation, never a
/// session or batch failure.
QueryAnswer AnswerQuery(rules::MiningEngine* engine,
                        const rules::ThresholdSet& thresholds,
                        const ServeQuery& query) {
  QueryAnswer answer;
  switch (query.kind) {
    case ServeQuery::Kind::kAllPairs:
      answer.rules = engine->MineAllPairs({&thresholds, 1});
      break;
    case ServeQuery::Kind::kPair: {
      auto result = engine->MinePair(query.attr_a, query.attr_b, thresholds);
      if (result.ok()) {
        answer.rules = std::move(result).value();
      } else {
        answer.status = result.status();
      }
      break;
    }
    case ServeQuery::Kind::kGeneralized: {
      auto result = engine->MineGeneralized(query.attr_a, query.conditions,
                                            query.attr_b, thresholds);
      if (result.ok()) {
        answer.rules = std::move(result).value();
      } else {
        answer.status = result.status();
      }
      break;
    }
    case ServeQuery::Kind::kAverageRange: {
      auto result = engine->MineMaximumAverageRange(
          query.attr_a, query.attr_b, query.threshold);
      if (result.ok()) {
        answer.aggregate = std::move(result).value();
      } else {
        answer.status = result.status();
      }
      break;
    }
    case ServeQuery::Kind::kSupportRange: {
      auto result = engine->MineMaximumSupportRange(
          query.attr_a, query.attr_b, query.threshold);
      if (result.ok()) {
        answer.aggregate = std::move(result).value();
      } else {
        answer.status = result.status();
      }
      break;
    }
    case ServeQuery::Kind::kRegion: {
      auto result = engine->MineOptimizedRegion(query.attr_a, query.attr_b,
                                                query.target, thresholds);
      if (result.ok()) {
        answer.region = std::move(result).value();
      } else {
        answer.status = result.status();
      }
      break;
    }
  }
  return answer;
}

}  // namespace

/// One client socket. The fd stays open until the last reference (handler
/// thread or queued session) drops, so the scheduler can always write a
/// reply; writes serialize through `writer`.
struct MiningServer::Connection {
  explicit Connection(int fd) : fd(fd), writer(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
  dist::FrameWriter writer;
};

/// A resident engine: the opened table (heap-allocated -- the engine
/// keeps a pointer to it) plus the session answering from it.
struct MiningServer::CachedEngine {
  std::unique_ptr<dist::PartitionedTable> table;
  std::unique_ptr<rules::MiningEngine> engine;
};

MiningServer::MiningServer(ServerOptions options)
    : options_(std::move(options)) {
  // Register the serve instruments up front so an operator's SIGUSR1
  // dump (or a kMetricsRequest) against an idle daemon lists them at
  // zero instead of returning an empty registry.
  ServeMetrics::Get();
}

MiningServer::~MiningServer() { Stop(); }

Status MiningServer::ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unusable unix socket path: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("bind " + path + ": " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("listen " + path + ": " + std::strerror(err));
  }
  listen_fd_ = fd;
  address_ = path;
  unlink_path_ = path;
  return Status::Ok();
}

Status MiningServer::ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("bind: ") + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(err));
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  address_ = "127.0.0.1:" + std::to_string(port_);
  return Status::Ok();
}

Status MiningServer::Start() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Start() before a successful Listen*()");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::InvalidArgument("server already started");
    started_ = true;
  }
  // A client closing mid-reply must surface as a write error on that
  // connection, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  accept_thread_ = std::thread(&MiningServer::AcceptLoop, this);
  scheduler_thread_ = std::thread(&MiningServer::SchedulerLoop, this);
  return Status::Ok();
}

void MiningServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stopping_ = true;
    stop_deadline_ms_ = NowMs() + options_.drain_deadline_ms;
    scheduler_cv_.notify_all();
  }
  // Wake the accept poll, then the threads exit on their own.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  {
    // Unblock every connection reader (and any writer stuck against a
    // full socket buffer), then wait for the detached handlers to unwind.
    std::unique_lock<std::mutex> lock(mu_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
    handlers_cv_.wait(lock, [this] { return active_handlers_ == 0; });
    connections_.clear();
  }
  // Releasing the engines tears down their coordinators' worker rosters:
  // subprocess workers get the WNOHANG -> SIGTERM -> SIGKILL escalation,
  // so a wedged worker cannot outlive the server either.
  engines_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

void MiningServer::AcceptLoop() {
  for (;;) {
    pollfd probe{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&probe, 1, /*timeout_ms=*/100);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    if (ready <= 0) continue;
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) continue;
    if (options_.send_timeout_ms > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.send_timeout_ms / 1000;
      timeout.tv_usec =
          static_cast<suseconds_t>((options_.send_timeout_ms % 1000) * 1000);
      ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                   sizeof(timeout));
    }
    auto conn = std::make_shared<Connection>(client_fd);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_ &&
          connections_.size() <
              static_cast<size_t>(std::max(1, options_.max_connections))) {
        connections_.push_back(conn);
        ++active_handlers_;
        admitted = true;
      }
    }
    if (!admitted) {
      ServeMetrics::Get().sessions_rejected->Add();
      ServeMetrics::Get().rejected_connection_limit->Add();
      WriteError(conn, 0,
                 Status::OutOfRange("connection limit reached"));
      continue;  // conn's destructor closes the socket
    }
    std::thread(&MiningServer::HandleConnection, this, std::move(conn))
        .detach();
  }
}

void MiningServer::HandleConnection(std::shared_ptr<Connection> conn) {
  std::vector<uint8_t> payload;
  for (;;) {
    const Status read = dist::ReadFrame(conn->fd, &payload);
    // NotFound = clean close, Corruption = broken framing; either way
    // this connection's stream is done (but its queued sessions still
    // get their replies through the shared_ptr the scheduler holds).
    if (!read.ok()) break;
    if (payload.empty()) break;
    switch (static_cast<ServeFrameKind>(payload[0])) {
      case ServeFrameKind::kPing: {
        std::vector<uint8_t> pong;
        bytes::AppendScalar<uint8_t>(
            &pong, static_cast<uint8_t>(ServeFrameKind::kPong));
        pong.insert(pong.end(), payload.begin() + 1, payload.end());
        (void)conn->writer.Write(pong);
        break;
      }
      case ServeFrameKind::kMetricsRequest: {
        std::vector<uint8_t> out;
        EncodeMetricsReply(obs::MetricsRegistry::Default().Snapshot(),
                           &out);
        (void)conn->writer.Write(out);
        break;
      }
      case ServeFrameKind::kOpenSession:
        HandleOpenSession(conn, payload);
        break;
      default:
        // An unknown kind is a well-framed mistake: report and keep the
        // connection (its other sessions are unaffected).
        WriteError(conn, 0,
                   Status::InvalidArgument("unknown serve frame kind"));
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), conn),
        connections_.end());
    --active_handlers_;
    handlers_cv_.notify_all();
  }
}

void MiningServer::HandleOpenSession(const std::shared_ptr<Connection>& conn,
                                     std::span<const uint8_t> payload) {
  uint32_t session_id = 0;
  SessionRequest request;
  Status status = DecodeOpenSession(payload, &session_id, &request);
  if (status.ok()) status = ValidateSessionOptions(request.options);
  uint64_t generation = 0;
  if (status.ok()) {
    Result<uint64_t> gen = ManifestGeneration(request.table_dir);
    if (gen.ok()) {
      generation = gen.value();
    } else {
      status = gen.status();
    }
  }
  if (!status.ok()) {
    // This session's fault alone: reply and keep reading the connection.
    FailSession(conn, session_id, status);
    return;
  }

  EngineKey key{request.table_dir, generation,
                ScanOptionsFingerprint(request.options)};
  PendingSession session;
  session.conn = conn;
  session.session_id = session_id;
  session.enqueue_ms = NowMs();
  session.deadline_ms = request.deadline_ms > 0
                            ? request.deadline_ms
                            : options_.default_deadline_ms;
  session.request = std::move(request);

  Status refusal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      refusal = Status::OutOfRange("server shutting down");
    } else if (pending_sessions_ >=
               std::max(1, options_.max_pending_sessions)) {
      refusal = Status::OutOfRange("session admission limit reached");
    } else {
      Batch& batch = batches_[key];
      if (batch.sessions.empty()) {
        batch.due_ms = session.enqueue_ms + options_.coalescing_window_ms;
      }
      batch.sessions.push_back(std::move(session));
      ++pending_sessions_;
      scheduler_cv_.notify_all();
    }
  }
  if (!refusal.ok()) {
    ServeMetrics::Get().sessions_rejected->Add();
    ServeMetrics::Get().rejected_admission->Add();
    WriteError(conn, session_id, refusal);
    return;
  }
  ServeMetrics::Get().sessions_admitted->Add();
}

void MiningServer::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (batches_.empty()) {
      if (stopping_) return;
      scheduler_cv_.wait(lock, [this] {
        return stopping_ || !batches_.empty();
      });
      continue;
    }
    auto due_it = batches_.begin();
    for (auto it = std::next(batches_.begin()); it != batches_.end(); ++it) {
      if (it->second.due_ms < due_it->second.due_ms) due_it = it;
    }
    const int64_t now = NowMs();
    if (!stopping_ && due_it->second.due_ms > now) {
      scheduler_cv_.wait_for(
          lock, std::chrono::milliseconds(due_it->second.due_ms - now));
      continue;  // re-pick: a new batch may be due earlier
    }
    const EngineKey key = due_it->first;
    Batch batch = std::move(due_it->second);
    batches_.erase(due_it);
    const int batch_size = static_cast<int>(batch.sessions.size());
    const bool drain_expired = stopping_ && NowMs() > stop_deadline_ms_;
    lock.unlock();
    if (drain_expired) {
      for (const PendingSession& session : batch.sessions) {
        FailSession(session.conn, session.session_id,
                    Status::DeadlineExceeded(
                        "server drained past its shutdown deadline"));
      }
    } else {
      ExecuteBatch(key, std::move(batch));
    }
    lock.lock();
    pending_sessions_ -= batch_size;
  }
}

void MiningServer::ExecuteBatch(const EngineKey& key, Batch batch) {
  // Queue-deadline sweep first: a session that waited out its deadline
  // fails without costing the batch anything.
  std::vector<PendingSession> live;
  live.reserve(batch.sessions.size());
  const int64_t start_ms = NowMs();
  for (PendingSession& session : batch.sessions) {
    if (start_ms - session.enqueue_ms > session.deadline_ms) {
      ServeMetrics::Get().rejected_queue_deadline->Add();
      FailSession(session.conn, session.session_id,
                  Status::DeadlineExceeded("session deadline expired in "
                                           "the scheduler queue"));
    } else {
      ServeMetrics::Get().queue_wait_seconds->Observe(
          static_cast<double>(start_ms - session.enqueue_ms) / 1e3);
      live.push_back(std::move(session));
    }
  }
  if (live.empty()) return;

  // The coalescing window's span: the shared scan below (dist.scan and
  // its per-partition children) nests under it because TryPrepare runs on
  // this same scheduler thread.
  obs::Span window_span("serve.window");
  window_span.AddAttribute("sessions", static_cast<double>(live.size()));
  WallTimer window_timer;

  Result<CachedEngine*> cached_or =
      GetOrCreateEngine(key, live.front().request.options);
  if (!cached_or.ok()) {
    for (const PendingSession& session : live) {
      FailSession(session.conn, session.session_id, cached_or.status());
    }
    return;
  }
  rules::MiningEngine* engine = cached_or.value()->engine.get();
  const int64_t scans_before = engine->counting_scans();

  // Register EVERY session's channels before preparing, so one scan
  // covers the whole window (late channels on an already-prepared cached
  // engine cost supplemental scans, counted in the delta below).
  for (const PendingSession& session : live) {
    for (const ServeQuery& query : session.request.queries) {
      PreRegisterQuery(engine, query);
    }
  }
  const Status prepared = engine->TryPrepare();
  if (!prepared.ok()) {
    // The shared scan itself failed (table vanished, workers dead):
    // every session of the batch fails, and the engine is dropped so the
    // next window starts fresh.
    for (const PendingSession& session : live) {
      FailSession(session.conn, session.session_id, prepared);
    }
    engines_.remove_if([&key](const auto& entry) {
      return entry.first == key;
    });
    return;
  }

  std::vector<SessionReply> replies(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    replies[i].session_id = live[i].session_id;
    replies[i].generation = key.generation;
    replies[i].answers.reserve(live[i].request.queries.size());
    const rules::ThresholdSet thresholds =
        rules::ThresholdsOf(live[i].request.options);
    for (const ServeQuery& query : live[i].request.queries) {
      replies[i].answers.push_back(AnswerQuery(engine, thresholds, query));
    }
  }
  const int64_t scan_delta = engine->counting_scans() - scans_before;

  // Commit the batch's counters BEFORE shipping replies: a client holding
  // its answer must see a registry snapshot that includes the batch that
  // produced it (the load harness and tests read the counters right after
  // a reply). A failed write is counted in sessions_failed below.
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.sessions_served->Add(static_cast<int64_t>(live.size()));
  metrics.physical_scans->Add(scan_delta);
  metrics.coalesced_sessions->Add(
      std::max<int64_t>(0, static_cast<int64_t>(live.size()) - scan_delta));
  metrics.batches_executed->Add();
  metrics.engines_cached->Set(static_cast<double>(engines_.size()));
  for (const PendingSession& session : live) {
    TenantSessionsCounter(OptionsFingerprint(session.request.options))
        ->Add();
  }
  window_span.AddAttribute("physical_scans",
                           static_cast<double>(scan_delta));
  metrics.window_seconds->Observe(window_timer.ElapsedSeconds());

  for (size_t i = 0; i < live.size(); ++i) {
    // Arrival order: the sessions whose channels rode an existing or
    // shared scan -- everyone past the first `scan_delta` -- coalesced.
    replies[i].coalesced = static_cast<int64_t>(i) >= scan_delta;
    std::vector<uint8_t> frame;
    EncodeSessionResult(replies[i], &frame);
    if (!live[i].conn->writer.Write(frame).ok()) {
      // Client gone or wedged: its loss alone. The session stays counted
      // in sessions_served as well (see ServeMetrics).
      metrics.sessions_failed->Add();
    }
  }
}

Result<MiningServer::CachedEngine*> MiningServer::GetOrCreateEngine(
    const EngineKey& key, const rules::MinerOptions& options) {
  for (auto it = engines_.begin(); it != engines_.end(); ++it) {
    if (it->first == key) {
      engines_.splice(engines_.begin(), engines_, it);
      ServeMetrics::Get().engine_cache_hits->Add();
      return engines_.front().second.get();
    }
  }
  ServeMetrics::Get().engine_cache_misses->Add();
  Result<dist::PartitionedTable> table_or =
      dist::PartitionedTable::Open(key.table_dir);
  if (!table_or.ok()) return table_or.status();
  auto cached = std::make_unique<CachedEngine>();
  cached->table = std::make_unique<dist::PartitionedTable>(
      std::move(table_or).value());
  cached->engine = std::make_unique<rules::MiningEngine>(
      cached->table.get(), options, options_.scan_options);
  engines_.emplace_front(key, std::move(cached));
  const size_t capacity =
      static_cast<size_t>(std::max(1, options_.max_cached_engines));
  while (engines_.size() > capacity) engines_.pop_back();
  return engines_.front().second.get();
}

void MiningServer::FailSession(const std::shared_ptr<Connection>& conn,
                               uint32_t session_id, const Status& status) {
  ServeMetrics::Get().sessions_failed->Add();
  WriteError(conn, session_id, status);
}

void MiningServer::WriteError(const std::shared_ptr<Connection>& conn,
                              uint32_t session_id, const Status& status) {
  std::vector<uint8_t> frame;
  EncodeServeError(session_id, status, &frame);
  (void)conn->writer.Write(frame);
}

}  // namespace optrules::serve
