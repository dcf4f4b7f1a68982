// Client/server protocol of the resident mining service.
//
// The serve layer is a TRANSPORT over the existing machinery, not a new
// protocol stack: frames travel as the dist/wire length-prefixed
// [u32 length][payload] format (WriteFrame/ReadFrame/ReadFrameTimed and
// the FrameWriter per-connection write mutex are reused verbatim), and
// payload serialization uses the same bounds-checked common/bytes.h
// primitives as the worker pipe protocol. Payload byte 0 is a
// ServeFrameKind; the values start at 32 so a serve frame accidentally
// fed to the worker protocol (or vice versa) is rejected as an unexpected
// kind instead of being half-parsed.
//
// One client session = one kOpenSession frame (table directory + mining
// options + a list of queries) answered by one kSessionResult frame (one
// tagged answer per query, in request order) or one kServeError frame.
// Sessions carry a client-assigned id echoed in the reply, so a client
// may pipeline many sessions on one connection; the server's responder
// threads multiplex replies onto the shared socket under the connection's
// FrameWriter mutex. All multi-byte values are native-endian, like the
// worker protocol: the service connects processes of one architecture.
// Doubles travel as raw bit patterns, so answers are bit-identical to a
// local MiningEngine session over the same table and options.

#ifndef OPTRULES_SERVE_PROTOCOL_H_
#define OPTRULES_SERVE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "rules/miner.h"

namespace optrules::serve {

/// First payload byte of every serve-layer frame.
enum class ServeFrameKind : uint8_t {
  kOpenSession = 32,    ///< client -> server: run one mining session
  kSessionResult = 33,  ///< server -> client: per-query answers
  kServeError = 34,     ///< server -> client: session id + status
  kPing = 35,           ///< client -> server: liveness probe
  kPong = 36,           ///< server -> client: kPing acknowledgement
  kStats = 37,           ///< client -> server: server counter snapshot
  kStatsResult = 38,     ///< server -> client: the counters
  kMetricsRequest = 39,  ///< client -> server: full registry snapshot
  kMetricsReply = 40,    ///< server -> client: the registry contents
};

/// One query of a session. `kind` selects which fields are meaningful;
/// unused fields are ignored (and travel as empty/zero).
struct ServeQuery {
  enum class Kind : uint8_t {
    kAllPairs = 0,      ///< MineAllPairs at the session thresholds
    kPair = 1,          ///< MinePair(attr_a = numeric, attr_b = Boolean)
    kGeneralized = 2,   ///< MineGeneralized(attr_a, conditions, attr_b)
    kAverageRange = 3,  ///< MineMaximumAverageRange(attr_a, attr_b, thr)
    kSupportRange = 4,  ///< MineMaximumSupportRange(attr_a, attr_b, thr)
    kRegion = 5,        ///< MineOptimizedRegion(attr_a, attr_b, target)
  };
  Kind kind = Kind::kAllPairs;
  std::string attr_a;  ///< numeric / range / x attribute
  std::string attr_b;  ///< Boolean / target / y attribute
  std::string target;  ///< region Boolean target / generalized objective
  std::vector<std::string> conditions;  ///< generalized conjunct names
  /// min_support (in [0, 1]) / min_average (finite) for kinds 3-4; a
  /// value outside that domain fails this query with InvalidArgument.
  double threshold = 0.0;
  /// Region grid shape; 0 = the session's region_grid_buckets square.
  int32_t nx = 0;
  int32_t ny = 0;
};

/// One session request: which table, which mining options, which queries.
/// Sessions with identical (table generation, scan-shaping options --
/// see ScanOptionsFingerprint) coalesce into one shared MiningEngine scan
/// server-side, whatever their thresholds; each session's answers are
/// emitted at its own min_support / min_confidence. The options use the
/// exact MinerOptions the engine consumes, serialized field by field.
struct SessionRequest {
  std::string table_dir;  ///< PartitionedTable directory on the server
  rules::MinerOptions options;
  /// Per-session deadline in ms; 0 = the server default. A session still
  /// queued (not yet scanning) past its deadline fails with
  /// DeadlineExceeded instead of occupying the scheduler.
  int64_t deadline_ms = 0;
  std::vector<ServeQuery> queries;
};

/// One answer, tagged by the query kind it answers. `status` is per-query:
/// a failed lookup (unknown attribute) fails this answer only, never the
/// session.
struct QueryAnswer {
  Status status;
  /// kAllPairs / kPair / kGeneralized answers.
  std::vector<rules::MinedRule> rules;
  /// kAverageRange / kSupportRange answer.
  rules::MinedAggregateRange aggregate;
  /// kRegion answer.
  rules::MinedRegion region;
};

/// The reply to one session.
struct SessionReply {
  uint32_t session_id = 0;
  /// FNV-1a of the manifest bytes: the table generation this session was
  /// answered against.
  uint64_t generation = 0;
  /// True when this session's answers came from cached channels without
  /// initiating a physical counting scan of its own.
  bool coalesced = false;
  std::vector<QueryAnswer> answers;  ///< one per query, request order
};

/// Server counter snapshot (kStatsResult payload).
struct ServerStatsSnapshot {
  int64_t sessions_admitted = 0;
  /// Total admission-control refusals: rejected_connection_limit +
  /// rejected_admission (queue-deadline expiries happen after admission
  /// and count in sessions_failed instead).
  int64_t sessions_rejected = 0;
  int64_t sessions_served = 0;     ///< replied with kSessionResult
  int64_t sessions_failed = 0;     ///< replied with kServeError
  int64_t physical_scans = 0;      ///< counting scans actually run
  int64_t coalesced_sessions = 0;  ///< served without a scan of their own
  int64_t batches_executed = 0;    ///< coalescing windows flushed
  int64_t engines_cached = 0;      ///< generations currently resident
  int64_t engine_cache_hits = 0;   ///< session reused a resident engine
  int64_t engine_cache_misses = 0;  ///< session had to build an engine
  // Per-reason rejection breakdown (each also counted in
  // sessions_rejected).
  int64_t rejected_connection_limit = 0;  ///< connection cap at accept
  int64_t rejected_admission = 0;   ///< session cap or shutting down
  int64_t rejected_queue_deadline = 0;  ///< deadline expired while queued
};

/// Limits a decoder enforces on hostile input (counts validated against
/// the remaining payload bytes like the worker protocol's decoder).
inline constexpr uint32_t kMaxQueriesPerSession = 4096;

// --------------------------------------------------------- encoding ----

void EncodeOpenSession(uint32_t session_id, const SessionRequest& request,
                       std::vector<uint8_t>* out);
/// Decodes a kOpenSession payload. On any parse error, *session_id_out
/// still holds the id when the prefix reached it (0 otherwise), so the
/// server can address its error frame.
Status DecodeOpenSession(std::span<const uint8_t> payload,
                         uint32_t* session_id_out, SessionRequest* out);

void EncodeSessionResult(const SessionReply& reply,
                         std::vector<uint8_t>* out);
Status DecodeSessionResult(std::span<const uint8_t> payload,
                           SessionReply* out);

void EncodeServeError(uint32_t session_id, const Status& status,
                      std::vector<uint8_t>* out);
/// Decodes a kServeError payload into (session_id, carried status).
Status DecodeServeError(std::span<const uint8_t> payload,
                        uint32_t* session_id_out, Status* carried);

void EncodeStatsResult(const ServerStatsSnapshot& stats,
                       std::vector<uint8_t>* out);
Status DecodeStatsResult(std::span<const uint8_t> payload,
                         ServerStatsSnapshot* out);

/// Encodes a kMetricsReply payload: the full registry snapshot, map order
/// (so two encodings of one snapshot are byte-identical).
void EncodeMetricsReply(const obs::MetricsSnapshot& snapshot,
                        std::vector<uint8_t>* out);
/// Decodes a kMetricsReply payload. Entry counts and histogram shapes are
/// validated against the remaining payload bytes before any allocation.
Status DecodeMetricsReply(std::span<const uint8_t> payload,
                          obs::MetricsSnapshot* out);

/// Fingerprint of every options field that changes mined bits,
/// thresholds included: the tenant identity of per-tenant counters.
uint64_t OptionsFingerprint(const rules::MinerOptions& options);

/// Fingerprint of the scan-shaping options only -- num_buckets,
/// sample_per_bucket, seed, bucketizer, gk_epsilon, region_grid_buckets
/// -- i.e. OptionsFingerprint with the thresholds normalized away. A
/// shared scan plans ONE set of boundaries from these fields, so
/// sessions coalesce and share a cached engine when these match; each
/// session's min_support / min_confidence apply only when its answers
/// are emitted.
uint64_t ScanOptionsFingerprint(rules::MinerOptions options);

/// Validates decoded options against the engine's CHECK contracts so a
/// hostile request becomes an error frame, never a server abort:
/// thresholds outside [0, 1] (NaN included) are InvalidArgument.
Status ValidateSessionOptions(const rules::MinerOptions& options);

}  // namespace optrules::serve

#endif  // OPTRULES_SERVE_PROTOCOL_H_
