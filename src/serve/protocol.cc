#include "serve/protocol.h"

#include <cstring>
#include <limits>

#include "common/bytes.h"

namespace optrules::serve {

namespace {

using bytes::AppendScalar;
using bytes::AppendString;
using bytes::ByteReader;
using bytes::Fnv1a;

void AppendStatus(const Status& status, std::vector<uint8_t>* out) {
  AppendScalar<int32_t>(out, static_cast<int32_t>(status.code()));
  AppendString(out, status.message());
}

Status ReadStatus(ByteReader* reader, Status* out) {
  int32_t code = 0;
  std::string message;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&code));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&message));
  if (code < 0 ||
      code > static_cast<int32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Corruption("unknown status code in frame");
  }
  *out = code == 0 ? Status::Ok()
                   : Status(static_cast<StatusCode>(code),
                            std::move(message));
  return Status::Ok();
}

// ------------------------------------------------------ mined results ----

void AppendMinedRule(const rules::MinedRule& rule,
                     std::vector<uint8_t>* out) {
  AppendScalar<uint8_t>(out, rule.found ? 1 : 0);
  AppendScalar<uint8_t>(out, static_cast<uint8_t>(rule.kind));
  AppendString(out, rule.numeric_attr);
  AppendString(out, rule.boolean_attr);
  AppendString(out, rule.presumptive_condition);
  AppendScalar<double>(out, rule.range_lo);
  AppendScalar<double>(out, rule.range_hi);
  AppendScalar<int64_t>(out, rule.support_count);
  AppendScalar<int64_t>(out, rule.hit_count);
  AppendScalar<double>(out, rule.support);
  AppendScalar<double>(out, rule.confidence);
}

Status ReadMinedRule(ByteReader* reader, rules::MinedRule* rule) {
  uint8_t found = 0;
  uint8_t kind = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&found));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&kind));
  if (kind > 1) return Status::Corruption("unknown rule kind");
  rule->found = found != 0;
  rule->kind = static_cast<rules::RuleKind>(kind);
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&rule->numeric_attr));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&rule->boolean_attr));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&rule->presumptive_condition));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->range_lo));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->range_hi));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->support_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->hit_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->support));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->confidence));
  return Status::Ok();
}

void AppendAggregate(const rules::MinedAggregateRange& range,
                     std::vector<uint8_t>* out) {
  AppendScalar<uint8_t>(out, range.found ? 1 : 0);
  AppendString(out, range.range_attr);
  AppendString(out, range.target_attr);
  AppendScalar<double>(out, range.range_lo);
  AppendScalar<double>(out, range.range_hi);
  AppendScalar<int64_t>(out, range.support_count);
  AppendScalar<double>(out, range.support);
  AppendScalar<double>(out, range.average);
}

Status ReadAggregate(ByteReader* reader,
                     rules::MinedAggregateRange* range) {
  uint8_t found = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&found));
  range->found = found != 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&range->range_attr));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&range->target_attr));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&range->range_lo));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&range->range_hi));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&range->support_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&range->support));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&range->average));
  return Status::Ok();
}

void AppendRegionRule(const region::RegionRule& rule,
                      std::vector<uint8_t>* out) {
  AppendScalar<uint8_t>(out, rule.found ? 1 : 0);
  AppendScalar<int32_t>(out, rule.x1);
  AppendScalar<int32_t>(out, rule.x2);
  AppendScalar<int32_t>(out, rule.y1);
  AppendScalar<int32_t>(out, rule.y2);
  AppendScalar<int64_t>(out, rule.support_count);
  AppendScalar<int64_t>(out, rule.hit_count);
  AppendScalar<double>(out, rule.support);
  AppendScalar<double>(out, rule.confidence);
}

Status ReadRegionRule(ByteReader* reader, region::RegionRule* rule) {
  uint8_t found = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&found));
  rule->found = found != 0;
  int32_t x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&x1));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&x2));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&y1));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&y2));
  rule->x1 = x1;
  rule->x2 = x2;
  rule->y1 = y1;
  rule->y2 = y2;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->support_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->hit_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->support));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&rule->confidence));
  return Status::Ok();
}

void AppendRegion(const rules::MinedRegion& region,
                  std::vector<uint8_t>* out) {
  AppendScalar<uint8_t>(out, region.found ? 1 : 0);
  AppendString(out, region.x_attr);
  AppendString(out, region.y_attr);
  AppendString(out, region.target_attr);
  AppendScalar<int32_t>(out, region.nx);
  AppendScalar<int32_t>(out, region.ny);
  AppendScalar<int64_t>(out, region.total_tuples);
  AppendRegionRule(region.confidence_rectangle, out);
  AppendRegionRule(region.support_rectangle, out);
  const region::XMonotoneRegion& xm = region.xmonotone_gain;
  AppendScalar<uint8_t>(out, xm.found ? 1 : 0);
  AppendScalar<int32_t>(out, xm.x_begin);
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(xm.column_ranges.size()));
  for (const auto& [lo, hi] : xm.column_ranges) {
    AppendScalar<int32_t>(out, lo);
    AppendScalar<int32_t>(out, hi);
  }
  AppendScalar<int64_t>(out, xm.support_count);
  AppendScalar<int64_t>(out, xm.hit_count);
  AppendScalar<double>(out, xm.support);
  AppendScalar<double>(out, xm.confidence);
  AppendScalar<double>(out, xm.gain);
}

Status ReadRegion(ByteReader* reader, rules::MinedRegion* region) {
  uint8_t found = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&found));
  region->found = found != 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&region->x_attr));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&region->y_attr));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&region->target_attr));
  int32_t nx = 0, ny = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&nx));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&ny));
  region->nx = nx;
  region->ny = ny;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&region->total_tuples));
  OPTRULES_RETURN_IF_ERROR(
      ReadRegionRule(reader, &region->confidence_rectangle));
  OPTRULES_RETURN_IF_ERROR(ReadRegionRule(reader, &region->support_rectangle));
  region::XMonotoneRegion& xm = region->xmonotone_gain;
  uint8_t xm_found = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&xm_found));
  xm.found = xm_found != 0;
  int32_t x_begin = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&x_begin));
  xm.x_begin = x_begin;
  uint32_t num_columns = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&num_columns));
  if (num_columns > reader->remaining() / 8) {
    return Status::Corruption("column range count exceeds payload");
  }
  xm.column_ranges.resize(num_columns);
  for (auto& [lo, hi] : xm.column_ranges) {
    int32_t a = 0, b = 0;
    OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&a));
    OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&b));
    lo = a;
    hi = b;
  }
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&xm.support_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&xm.hit_count));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&xm.support));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&xm.confidence));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&xm.gain));
  return Status::Ok();
}

// ------------------------------------------------------------ options ----

void AppendOptions(const rules::MinerOptions& options,
                   std::vector<uint8_t>* out) {
  AppendScalar<int32_t>(out, options.num_buckets);
  AppendScalar<int64_t>(out, options.sample_per_bucket);
  AppendScalar<double>(out, options.min_support);
  AppendScalar<double>(out, options.min_confidence);
  AppendScalar<uint64_t>(out, options.seed);
  AppendScalar<uint8_t>(out, static_cast<uint8_t>(options.bucketizer));
  AppendScalar<double>(out, options.gk_epsilon);
  AppendScalar<int32_t>(out, options.region_grid_buckets);
}

Status ReadOptions(ByteReader* reader, rules::MinerOptions* options) {
  uint8_t bucketizer = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&options->num_buckets));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&options->sample_per_bucket));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&options->min_support));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&options->min_confidence));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&options->seed));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&bucketizer));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&options->gk_epsilon));
  OPTRULES_RETURN_IF_ERROR(
      reader->ReadScalar(&options->region_grid_buckets));
  if (bucketizer > static_cast<uint8_t>(rules::Bucketizer::kExactSort)) {
    return Status::Corruption("unknown bucketizer in session request");
  }
  options->bucketizer = static_cast<rules::Bucketizer>(bucketizer);
  return Status::Ok();
}

void AppendQuery(const ServeQuery& query, std::vector<uint8_t>* out) {
  AppendScalar<uint8_t>(out, static_cast<uint8_t>(query.kind));
  AppendString(out, query.attr_a);
  AppendString(out, query.attr_b);
  AppendString(out, query.target);
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(query.conditions.size()));
  for (const std::string& name : query.conditions) AppendString(out, name);
  AppendScalar<double>(out, query.threshold);
  AppendScalar<int32_t>(out, query.nx);
  AppendScalar<int32_t>(out, query.ny);
}

Status ReadQuery(ByteReader* reader, ServeQuery* query) {
  uint8_t kind = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&kind));
  if (kind > static_cast<uint8_t>(ServeQuery::Kind::kRegion)) {
    return Status::Corruption("unknown query kind in session request");
  }
  query->kind = static_cast<ServeQuery::Kind>(kind);
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&query->attr_a));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&query->attr_b));
  OPTRULES_RETURN_IF_ERROR(reader->ReadString(&query->target));
  uint32_t num_conditions = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&num_conditions));
  // Every condition name consumes at least its 8-byte length prefix.
  if (num_conditions > reader->remaining() / 8) {
    return Status::Corruption("condition count exceeds payload");
  }
  query->conditions.resize(num_conditions);
  for (std::string& name : query->conditions) {
    OPTRULES_RETURN_IF_ERROR(reader->ReadString(&name));
  }
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&query->threshold));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&query->nx));
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&query->ny));
  if (query->nx < 0 || query->ny < 0 || query->nx > 4096 ||
      query->ny > 4096) {
    return Status::Corruption("region grid shape out of range");
  }
  return Status::Ok();
}

Status CheckKind(ByteReader* reader, ServeFrameKind expected) {
  uint8_t kind = 0;
  OPTRULES_RETURN_IF_ERROR(reader->ReadScalar(&kind));
  if (kind != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument("unexpected serve frame kind");
  }
  return Status::Ok();
}

}  // namespace

// -------------------------------------------------------- open session ----

void EncodeOpenSession(uint32_t session_id, const SessionRequest& request,
                       std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<uint8_t>(out,
                        static_cast<uint8_t>(ServeFrameKind::kOpenSession));
  AppendScalar<uint32_t>(out, session_id);
  AppendString(out, request.table_dir);
  AppendOptions(request.options, out);
  AppendScalar<int64_t>(out, request.deadline_ms);
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(request.queries.size()));
  for (const ServeQuery& query : request.queries) AppendQuery(query, out);
}

Status DecodeOpenSession(std::span<const uint8_t> payload,
                         uint32_t* session_id_out, SessionRequest* out) {
  OPTRULES_CHECK(session_id_out != nullptr && out != nullptr);
  *session_id_out = 0;
  ByteReader reader(payload);
  OPTRULES_RETURN_IF_ERROR(CheckKind(&reader, ServeFrameKind::kOpenSession));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(session_id_out));
  OPTRULES_RETURN_IF_ERROR(reader.ReadString(&out->table_dir));
  OPTRULES_RETURN_IF_ERROR(ReadOptions(&reader, &out->options));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->deadline_ms));
  if (out->deadline_ms < 0) {
    return Status::Corruption("negative session deadline");
  }
  uint32_t num_queries = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_queries));
  if (num_queries > kMaxQueriesPerSession ||
      num_queries > reader.remaining()) {
    return Status::Corruption("query count exceeds payload");
  }
  out->queries.resize(num_queries);
  for (ServeQuery& query : out->queries) {
    OPTRULES_RETURN_IF_ERROR(ReadQuery(&reader, &query));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in session request");
  }
  return Status::Ok();
}

// ------------------------------------------------------ session result ----

void EncodeSessionResult(const SessionReply& reply,
                         std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<uint8_t>(
      out, static_cast<uint8_t>(ServeFrameKind::kSessionResult));
  AppendScalar<uint32_t>(out, reply.session_id);
  AppendScalar<uint64_t>(out, reply.generation);
  AppendScalar<uint8_t>(out, reply.coalesced ? 1 : 0);
  AppendScalar<uint32_t>(out, static_cast<uint32_t>(reply.answers.size()));
  for (const QueryAnswer& answer : reply.answers) {
    AppendStatus(answer.status, out);
    AppendScalar<uint32_t>(out, static_cast<uint32_t>(answer.rules.size()));
    for (const rules::MinedRule& rule : answer.rules) {
      AppendMinedRule(rule, out);
    }
    AppendAggregate(answer.aggregate, out);
    AppendRegion(answer.region, out);
  }
}

Status DecodeSessionResult(std::span<const uint8_t> payload,
                           SessionReply* out) {
  OPTRULES_CHECK(out != nullptr);
  ByteReader reader(payload);
  OPTRULES_RETURN_IF_ERROR(
      CheckKind(&reader, ServeFrameKind::kSessionResult));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->session_id));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->generation));
  uint8_t coalesced = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&coalesced));
  out->coalesced = coalesced != 0;
  uint32_t num_answers = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_answers));
  if (num_answers > kMaxQueriesPerSession) {
    return Status::Corruption("answer count exceeds payload");
  }
  out->answers.resize(num_answers);
  for (QueryAnswer& answer : out->answers) {
    OPTRULES_RETURN_IF_ERROR(ReadStatus(&reader, &answer.status));
    uint32_t num_rules = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_rules));
    if (num_rules > reader.remaining()) {
      return Status::Corruption("rule count exceeds payload");
    }
    answer.rules.resize(num_rules);
    for (rules::MinedRule& rule : answer.rules) {
      OPTRULES_RETURN_IF_ERROR(ReadMinedRule(&reader, &rule));
    }
    OPTRULES_RETURN_IF_ERROR(ReadAggregate(&reader, &answer.aggregate));
    OPTRULES_RETURN_IF_ERROR(ReadRegion(&reader, &answer.region));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in session result");
  }
  return Status::Ok();
}

// --------------------------------------------------------- error frame ----

void EncodeServeError(uint32_t session_id, const Status& status,
                      std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr && !status.ok());
  AppendScalar<uint8_t>(out,
                        static_cast<uint8_t>(ServeFrameKind::kServeError));
  AppendScalar<uint32_t>(out, session_id);
  AppendStatus(status, out);
}

Status DecodeServeError(std::span<const uint8_t> payload,
                        uint32_t* session_id_out, Status* carried) {
  OPTRULES_CHECK(session_id_out != nullptr && carried != nullptr);
  ByteReader reader(payload);
  OPTRULES_RETURN_IF_ERROR(CheckKind(&reader, ServeFrameKind::kServeError));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(session_id_out));
  OPTRULES_RETURN_IF_ERROR(ReadStatus(&reader, carried));
  if (carried->ok()) {
    return Status::Corruption("serve error frame carried OK status");
  }
  return Status::Ok();
}

// --------------------------------------------------------------- stats ----

void EncodeStatsResult(const ServerStatsSnapshot& stats,
                       std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<uint8_t>(out,
                        static_cast<uint8_t>(ServeFrameKind::kStatsResult));
  AppendScalar<int64_t>(out, stats.sessions_admitted);
  AppendScalar<int64_t>(out, stats.sessions_rejected);
  AppendScalar<int64_t>(out, stats.sessions_served);
  AppendScalar<int64_t>(out, stats.sessions_failed);
  AppendScalar<int64_t>(out, stats.physical_scans);
  AppendScalar<int64_t>(out, stats.coalesced_sessions);
  AppendScalar<int64_t>(out, stats.batches_executed);
  AppendScalar<int64_t>(out, stats.engines_cached);
  AppendScalar<int64_t>(out, stats.engine_cache_hits);
  AppendScalar<int64_t>(out, stats.engine_cache_misses);
  AppendScalar<int64_t>(out, stats.rejected_connection_limit);
  AppendScalar<int64_t>(out, stats.rejected_admission);
  AppendScalar<int64_t>(out, stats.rejected_queue_deadline);
}

Status DecodeStatsResult(std::span<const uint8_t> payload,
                         ServerStatsSnapshot* out) {
  OPTRULES_CHECK(out != nullptr);
  ByteReader reader(payload);
  OPTRULES_RETURN_IF_ERROR(CheckKind(&reader, ServeFrameKind::kStatsResult));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->sessions_admitted));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->sessions_rejected));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->sessions_served));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->sessions_failed));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->physical_scans));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->coalesced_sessions));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->batches_executed));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->engines_cached));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->engine_cache_hits));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->engine_cache_misses));
  OPTRULES_RETURN_IF_ERROR(
      reader.ReadScalar(&out->rejected_connection_limit));
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&out->rejected_admission));
  OPTRULES_RETURN_IF_ERROR(
      reader.ReadScalar(&out->rejected_queue_deadline));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in stats result");
  }
  return Status::Ok();
}

// ------------------------------------------------------------- metrics ----

void EncodeMetricsReply(const obs::MetricsSnapshot& snapshot,
                        std::vector<uint8_t>* out) {
  OPTRULES_CHECK(out != nullptr);
  AppendScalar<uint8_t>(out,
                        static_cast<uint8_t>(ServeFrameKind::kMetricsReply));
  AppendScalar<uint64_t>(out,
                         static_cast<uint64_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    AppendString(out, name);
    AppendScalar<int64_t>(out, value);
  }
  AppendScalar<uint64_t>(out, static_cast<uint64_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    AppendString(out, name);
    AppendScalar<double>(out, value);
  }
  AppendScalar<uint64_t>(out,
                         static_cast<uint64_t>(snapshot.histograms.size()));
  for (const auto& [name, hist] : snapshot.histograms) {
    AppendString(out, name);
    bytes::AppendArray(out, hist.bounds);
    bytes::AppendArray(out, hist.bucket_counts);
    AppendScalar<int64_t>(out, hist.count);
    AppendScalar<double>(out, hist.sum);
  }
}

Status DecodeMetricsReply(std::span<const uint8_t> payload,
                          obs::MetricsSnapshot* out) {
  OPTRULES_CHECK(out != nullptr);
  out->counters.clear();
  out->gauges.clear();
  out->histograms.clear();
  ByteReader reader(payload);
  OPTRULES_RETURN_IF_ERROR(
      CheckKind(&reader, ServeFrameKind::kMetricsReply));
  // Entry counts need no up-front bound: every name and value read below
  // validates itself against the remaining bytes, so a hostile count
  // fails on its first truncated entry without allocating.
  uint64_t num_counters = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_counters));
  for (uint64_t i = 0; i < num_counters; ++i) {
    std::string name;
    int64_t value = 0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadString(&name));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&value));
    out->counters.emplace(std::move(name), value);
  }
  uint64_t num_gauges = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_gauges));
  for (uint64_t i = 0; i < num_gauges; ++i) {
    std::string name;
    double value = 0.0;
    OPTRULES_RETURN_IF_ERROR(reader.ReadString(&name));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&value));
    out->gauges.emplace(std::move(name), value);
  }
  uint64_t num_histograms = 0;
  OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&num_histograms));
  for (uint64_t i = 0; i < num_histograms; ++i) {
    std::string name;
    obs::HistogramSnapshot hist;
    OPTRULES_RETURN_IF_ERROR(reader.ReadString(&name));
    OPTRULES_RETURN_IF_ERROR(reader.ReadArray(&hist.bounds));
    OPTRULES_RETURN_IF_ERROR(reader.ReadArray(&hist.bucket_counts));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&hist.count));
    OPTRULES_RETURN_IF_ERROR(reader.ReadScalar(&hist.sum));
    if (hist.bucket_counts.size() != hist.bounds.size() + 1) {
      return Status::Corruption("histogram shape mismatch in metrics reply");
    }
    out->histograms.emplace(std::move(name), std::move(hist));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in metrics reply");
  }
  return Status::Ok();
}

// --------------------------------------------------------- validation ----

uint64_t OptionsFingerprint(const rules::MinerOptions& options) {
  std::vector<uint8_t> bytes;
  AppendOptions(options, &bytes);
  Fnv1a hash;
  hash.Mix(bytes);
  return hash.digest();
}

uint64_t ScanOptionsFingerprint(rules::MinerOptions options) {
  // Thresholds act only at emission: normalize them away.
  options.min_support = 0.0;
  options.min_confidence = 0.0;
  return OptionsFingerprint(options);
}

Status ValidateSessionOptions(const rules::MinerOptions& options) {
  if (options.num_buckets < 1 || options.num_buckets > 1'000'000) {
    return Status::InvalidArgument("num_buckets out of range [1, 1e6]");
  }
  if (options.sample_per_bucket < 1 ||
      options.sample_per_bucket > 1'000'000) {
    return Status::InvalidArgument(
        "sample_per_bucket out of range [1, 1e6]");
  }
  if (options.region_grid_buckets < 1 ||
      options.region_grid_buckets > 4096) {
    return Status::InvalidArgument(
        "region_grid_buckets out of range [1, 4096]");
  }
  OPTRULES_RETURN_IF_ERROR(
      rules::ValidateThresholds(rules::ThresholdsOf(options)));
  if (!(options.gk_epsilon >= 0.0) || options.gk_epsilon >= 1.0) {
    return Status::InvalidArgument("gk_epsilon out of range [0, 1)");
  }
  return Status::Ok();
}

}  // namespace optrules::serve
