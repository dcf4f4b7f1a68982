// The three mixed-session workloads: one engine per session over the same
// seeded table, held in memory (session_inmem), as one PagedFile read
// cold (session_paged_cold), or as K round-robin partitions scanned by
// optrules_workerd subprocesses (session_partitioned_subproc).

#include <malloc.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/partitioned_table.h"
#include "harness.h"
#include "rules/miner.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace optrules::harness {
namespace {

using rules::MinerOptions;
using rules::MiningEngine;

constexpr int64_t kRows = 1'000'000;
constexpr int64_t kSmokeRows = 50'000;
constexpr int kPartitions = 4;
constexpr int kSubprocessWorkers = 2;
constexpr int kSetupRepeats = 21;
/// Every other measured session of a traced run runs untraced, so the
/// tracing overhead is measured inside one process.
constexpr int kMinTracedSessions = 3;

constexpr rules::ThresholdSet kSweep[] = {
    {0.05, 0.5}, {0.10, 0.6}, {0.20, 0.7}};
constexpr double kAggregateMinSupport = 0.10;
constexpr double kAggregateMinAverage = 550'000.0;

enum class Layout { kInMemory, kPaged, kPartitioned };

/// Where a session's engine reads the table.
struct Dataset {
  Layout layout = Layout::kInMemory;
  const storage::Relation* relation = nullptr;
  std::string paged_path;
  const dist::PartitionedTable* table = nullptr;
  dist::WorkerKind worker_kind = dist::WorkerKind::kSubprocess;
};

/// An engine plus the batch source it reads (paged sessions open their
/// own, so each session's source counters start at zero).
struct Target {
  std::unique_ptr<storage::BatchSource> source;
  std::unique_ptr<MiningEngine> engine;
};

Result<Target> OpenTarget(const Dataset& data, const MinerOptions& options) {
  Target target;
  switch (data.layout) {
    case Layout::kInMemory:
      target.engine = std::make_unique<MiningEngine>(data.relation, options);
      break;
    case Layout::kPaged: {
      auto source = storage::PagedFileBatchSource::Open(data.paged_path);
      if (!source.ok()) return source.status();
      target.source = std::move(source).value();
      target.engine = std::make_unique<MiningEngine>(
          target.source.get(),
          storage::Schema::Synthetic(target.source->num_numeric(),
                                     target.source->num_boolean()),
          options);
      break;
    }
    case Layout::kPartitioned: {
      dist::DistributedScanOptions dist_options;
      dist_options.worker_kind = data.worker_kind;
      dist_options.max_workers = kSubprocessWorkers;
      dist_options.workerd_path = OPTRULES_BENCH_WORKERD;
      target.engine =
          std::make_unique<MiningEngine>(data.table, options, dist_options);
      break;
    }
  }
  return target;
}

struct StepTimes {
  double prepare_s = 0.0;
  double pairs_s = 0.0;
  double generalized_s = 0.0;
  double aggregate_s = 0.0;
  double region_s = 0.0;
};

/// Appends a Result's rules / aggregate / region as one answer.
Status AppendAnswer(Result<std::vector<rules::MinedRule>> result,
                    serve::SessionReply* reply) {
  if (!result.ok()) return result.status();
  serve::QueryAnswer answer;
  answer.rules = std::move(result).value();
  reply->answers.push_back(std::move(answer));
  return Status::Ok();
}
Status AppendAnswer(Result<rules::MinedAggregateRange> result,
                    serve::SessionReply* reply) {
  if (!result.ok()) return result.status();
  serve::QueryAnswer answer;
  answer.aggregate = std::move(result).value();
  reply->answers.push_back(std::move(answer));
  return Status::Ok();
}
Status AppendAnswer(Result<rules::MinedRegion> result,
                    serve::SessionReply* reply) {
  if (!result.ok()) return result.status();
  serve::QueryAnswer answer;
  answer.region = std::move(result).value();
  reply->answers.push_back(std::move(answer));
  return Status::Ok();
}

/// Steps 4-6 of the mixed session. A template so the engine and the
/// legacy Miner answer the very same query sequence.
template <typename Miner>
Status MineQueries(Miner* miner, const storage::Schema& schema,
                   StepTimes* times, serve::SessionReply* reply) {
  const std::string& b0 = schema.BooleanName(0);
  const std::string& target = schema.NumericName(2);
  {
    obs::Span span("bench.mine.generalized");
    const double start = Now();
    for (int a = 0; a < schema.num_numeric(); ++a) {
      for (int j = 1; j < schema.num_boolean(); ++j) {
        OPTRULES_RETURN_IF_ERROR(AppendAnswer(
            miner->MineGeneralized(schema.NumericName(a), {b0},
                                   schema.BooleanName(j)),
            reply));
      }
    }
    times->generalized_s = Now() - start;
  }
  {
    obs::Span span("bench.mine.aggregate");
    const double start = Now();
    for (int a = 0; a < schema.num_numeric(); ++a) {
      OPTRULES_RETURN_IF_ERROR(AppendAnswer(
          miner->MineMaximumAverageRange(schema.NumericName(a), target,
                                         kAggregateMinSupport),
          reply));
      OPTRULES_RETURN_IF_ERROR(AppendAnswer(
          miner->MineMaximumSupportRange(schema.NumericName(a), target,
                                         kAggregateMinAverage),
          reply));
    }
    times->aggregate_s = Now() - start;
  }
  {
    obs::Span span("bench.mine.region");
    const double start = Now();
    for (int j = 0; j < schema.num_boolean(); ++j) {
      OPTRULES_RETURN_IF_ERROR(AppendAnswer(
          miner->MineOptimizedRegion(schema.NumericName(0),
                                     schema.NumericName(1),
                                     schema.BooleanName(j)),
          reply));
    }
    times->region_s = Now() - start;
  }
  return Status::Ok();
}

/// The mixed session: register one condition, one aggregate target and
/// one region pair; prepare (plan + the one counting scan); then a
/// 3-entry all-pairs threshold sweep and steps 4-6.
Status MineMixedSession(MiningEngine* engine, StepTimes* times,
                        serve::SessionReply* reply) {
  const storage::Schema& schema = engine->schema();
  OPTRULES_RETURN_IF_ERROR(
      engine->RequestGeneralized({schema.BooleanName(0)}));
  OPTRULES_RETURN_IF_ERROR(
      engine->RequestAverageTarget(schema.NumericName(2)));
  OPTRULES_RETURN_IF_ERROR(engine->RequestRegionPair(schema.NumericName(0),
                                                     schema.NumericName(1)));
  {
    obs::Span span("bench.prepare");
    const double start = Now();
    OPTRULES_RETURN_IF_ERROR(engine->TryPrepare());
    times->prepare_s = Now() - start;
  }
  {
    obs::Span span("bench.mine.pairs");
    const double start = Now();
    serve::QueryAnswer answer;
    answer.rules = engine->MineAllPairs(std::span(kSweep));
    reply->answers.push_back(std::move(answer));
    times->pairs_s = Now() - start;
  }
  return MineQueries(engine, schema, times, reply);
}

/// The same queries answered by the legacy per-query Miner: one Miner per
/// sweep entry for the all-pairs step, then steps 4-6 at `options`.
Result<serve::SessionReply> LegacyMixedSession(
    const storage::Relation& relation, const MinerOptions& options) {
  serve::SessionReply reply;
  serve::QueryAnswer pairs;
  for (const rules::ThresholdSet& thresholds : kSweep) {
    MinerOptions swept = options;
    swept.min_support = thresholds.min_support;
    swept.min_confidence = thresholds.min_confidence;
    rules::Miner miner(&relation, swept);
    for (rules::MinedRule& rule : miner.MineAll()) {
      pairs.rules.push_back(std::move(rule));
    }
  }
  reply.answers.push_back(std::move(pairs));
  rules::Miner miner(&relation, options);
  StepTimes ignored;
  OPTRULES_RETURN_IF_ERROR(
      MineQueries(&miner, relation.schema(), &ignored, &reply));
  return reply;
}

/// One session's raw samples. Span, registry and wire fields are filled
/// only for traced sessions.
struct SessionRecord {
  Status status;
  double wall_s = 0.0;
  StepTimes steps;
  uint64_t digest = 0;
  int64_t counting_scans = 0;
  int64_t rchar_bytes = 0;
  storage::BatchSourceStats scan_stats;

  bool traced = false;
  double scan_s = 0.0;
  int root_scans = 0;
  int dist_scans = 0;
  int dist_workers = 0;
  std::vector<double> partition_s;
  double encode_s = 0.0;
  double decode_s = 0.0;
  int64_t reply_bytes = 0;
  bool wire_round_trip = false;
  int64_t evictions = 0;
  double locate_s = 0.0;
  double mask_s = 0.0;
  double scatter_s = 0.0;
  int64_t dropped_spans = 0;
  std::string forest_json;
};

std::string ToJson(const SessionRecord& r) {
  JsonObject out;
  out.Bool("ok", r.status.ok());
  if (!r.status.ok()) out.Str("error", r.status.ToString());
  out.Bool("traced", r.traced)
      .Num("wall_s", r.wall_s)
      .Num("prepare_s", r.steps.prepare_s)
      .Num("pairs_s", r.steps.pairs_s)
      .Num("generalized_s", r.steps.generalized_s)
      .Num("aggregate_s", r.steps.aggregate_s)
      .Num("region_s", r.steps.region_s)
      .Str("digest", HexDigest(r.digest))
      .Int("counting_scans", r.counting_scans)
      .Int("rchar_bytes", r.rchar_bytes)
      .Int("cache_hits", r.scan_stats.cache_hits)
      .Int("cache_misses", r.scan_stats.cache_misses)
      .Num("io_wait_s", r.scan_stats.io_wait_seconds)
      .Int("retries", r.scan_stats.retries)
      .Int("partitions_stolen", r.scan_stats.partitions_stolen);
  if (r.traced) {
    out.Num("scan_s", r.scan_s)
        .Int("root_scans", r.root_scans)
        .Int("dist_scans", r.dist_scans)
        .Int("dist_workers", r.dist_workers)
        .Nums("partition_s", r.partition_s)
        .Num("encode_s", r.encode_s)
        .Num("decode_s", r.decode_s)
        .Int("reply_bytes", r.reply_bytes)
        .Int("evictions", r.evictions)
        .Num("locate_s", r.locate_s)
        .Num("mask_s", r.mask_s)
        .Num("scatter_s", r.scatter_s)
        .Int("dropped_spans", r.dropped_spans);
  }
  return out.str();
}

/// Reads the traced session's span forest: the counting scans that ran
/// inside TryPrepare and, for distributed scans, their partitions.
void ReadSessionSpans(SessionRecord* record) {
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Default().Snapshot();
  const obs::SpanRecord* prepare = FindSpan(spans, "bench.prepare");
  if (prepare == nullptr) return;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id != prepare->id) continue;
    if (span.name != "bucketing.scan" && span.name != "dist.scan") continue;
    record->scan_s += span.duration_seconds;
    ++record->root_scans;
    if (span.name == "dist.scan") {
      ++record->dist_scans;
      for (const auto& [key, value] : span.attributes) {
        if (key == "workers") record->dist_workers = static_cast<int>(value);
      }
      for (const double d : ChildDurations(spans, span.id, "dist.partition")) {
        record->partition_s.push_back(d);
      }
    }
  }
}

SessionRecord RunSession(const Dataset& data, const MinerOptions& options,
                         bool cold, bool traced) {
  SessionRecord record;
  record.traced = traced;
  if (cold) DropPageCache(data.paged_path);
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.set_enabled(traced);
  const obs::MetricsSnapshot before =
      traced ? obs::MetricsRegistry::Default().Snapshot()
             : obs::MetricsSnapshot{};

  int64_t own_read = 0;
  const Result<int64_t> rchar_before = ReadRchar(0, &own_read);
  serve::SessionReply reply;
  const double start = Now();
  {
    obs::Span session_span("bench.session");
    Result<Target> target = OpenTarget(data, options);
    if (target.ok()) {
      MiningEngine* engine = target.value().engine.get();
      record.status = MineMixedSession(engine, &record.steps, &reply);
      record.counting_scans = engine->counting_scans();
      record.scan_stats = engine->scan_stats();
    } else {
      record.status = target.status();
    }
  }  // engine (and, partitioned, its worker roster) torn down in the wall
  record.wall_s = Now() - start;
  const Result<int64_t> rchar_after = ReadRchar(0);
  if (rchar_before.ok() && rchar_after.ok()) {
    record.rchar_bytes =
        rchar_after.value() - rchar_before.value() - own_read;
  }
  if (record.status.ok()) record.digest = Digest(reply);

  if (traced) {
    std::vector<uint8_t> bytes;
    {
      obs::Span span("bench.wire.encode");
      const double t = Now();
      serve::EncodeSessionResult(reply, &bytes);
      record.encode_s = Now() - t;
    }
    serve::SessionReply decoded;
    {
      obs::Span span("bench.wire.decode");
      const double t = Now();
      const Status status = serve::DecodeSessionResult(bytes, &decoded);
      record.decode_s = Now() - t;
      record.wire_round_trip = status.ok() && Digest(decoded) == record.digest;
    }
    record.reply_bytes = static_cast<int64_t>(bytes.size());
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Default().Snapshot();
    record.evictions = CounterDelta(before, after, "bufferpool.evictions");
    record.locate_s =
        HistogramDelta(before, after, "scan.locate_seconds").second;
    record.mask_s = HistogramDelta(before, after, "scan.mask_seconds").second;
    record.scatter_s =
        HistogramDelta(before, after, "scan.scatter_seconds").second;
    ReadSessionSpans(&record);
    record.dropped_spans = static_cast<int64_t>(tracer.dropped_spans());
    record.forest_json = tracer.ToJson();
    tracer.set_enabled(false);
    tracer.Clear();
  }
  return record;
}

int64_t RelationBytes(const storage::Relation& relation) {
  int64_t bytes = 0;
  for (int i = 0; i < relation.schema().num_numeric(); ++i) {
    bytes += static_cast<int64_t>(relation.NumericColumn(i).size() *
                                  sizeof(double));
  }
  for (int i = 0; i < relation.schema().num_boolean(); ++i) {
    bytes += static_cast<int64_t>(relation.BooleanColumn(i).size());
  }
  return bytes;
}

/// Digest of an untimed kExactSort session over `data` (boundaries are
/// then permutation-invariant, so every layout must agree bit for bit).
Result<uint64_t> ExactSortDigest(const Dataset& data) {
  MinerOptions options;
  options.bucketizer = rules::Bucketizer::kExactSort;
  Result<Target> target = OpenTarget(data, options);
  if (!target.ok()) return target.status();
  StepTimes ignored;
  serve::SessionReply reply;
  OPTRULES_RETURN_IF_ERROR(
      MineMixedSession(target.value().engine.get(), &ignored, &reply));
  return Digest(reply);
}

void WriteForests(const Args& args, const std::vector<SessionRecord>& records,
                  JsonObject* raw) {
  std::string forests = "[";
  bool first = true;
  for (const SessionRecord& r : records) {
    if (!r.traced) continue;
    if (!first) forests += ',';
    forests += r.forest_json;
    first = false;
  }
  forests += "]";
  const std::string path = args.trace_dir + "/" + args.workload + ".spans.json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  const std::string body = JsonObject().Raw("sessions", forests).str();
  std::fwrite(body.data(), 1, body.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
  raw->Str("span_forest", path);
}

}  // namespace

WorkloadResult RunSessionWorkload(const Args& args,
                                  const std::string& data_dir) {
  WorkloadResult result;
  Layout layout = Layout::kInMemory;
  if (args.workload == "session_paged_cold") layout = Layout::kPaged;
  if (args.workload == "session_partitioned_subproc") {
    layout = Layout::kPartitioned;
  }
  const int64_t rows = args.smoke ? kSmokeRows : kRows;
  result.raw.Int("rows", rows);

  // ---------------------------------------- set-up: repeated ingests ----
  // In memory the ingest IS materializing the columnar Relation; the
  // stored layouts time WriteRelationToFile / PartitionRelation of it.
  storage::Relation relation;
  std::optional<dist::PartitionedTable> table;
  std::string stored_path;
  std::vector<double> setup_s;
  if (layout != Layout::kInMemory) {
    relation = GenerateSeededTable(rows, args.seed);
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string path = data_dir + "/table-" + std::to_string(i) +
                             (layout == Layout::kPaged ? ".optr" : "");
    Status status;
    double start = 0.0;
    switch (layout) {
      case Layout::kInMemory:
        // One table resident at a time, its memory handed back to the
        // kernel: otherwise malloc's adaptive mmap threshold lets some
        // repetitions reuse the last table's pages and skip the page faults
        // the others pay, and the median flips between the two.
        relation = storage::Relation();
        malloc_trim(0);
        start = Now();
        relation = GenerateSeededTable(rows, args.seed);
        break;
      case Layout::kPaged:
        start = Now();
        status = storage::WriteRelationToFile(relation, path);
        break;
      case Layout::kPartitioned: {
        dist::PartitionOptions partitioning;
        partitioning.num_partitions = kPartitions;
        table.reset();
        start = Now();
        Result<dist::PartitionedTable> made =
            dist::PartitionRelation(relation, path, partitioning);
        if (made.ok()) {
          table.emplace(std::move(made).value());
        } else {
          status = made.status();
        }
        break;
      }
    }
    setup_s.push_back(Now() - start);
    if (!status.ok()) {
      result.checks.Expect(false, "ingest", status.ToString());
      return result;
    }
    if (!stored_path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(stored_path, ec);
    }
    if (layout != Layout::kInMemory) stored_path = path;
  }
  result.raw.Nums("setup_s", setup_s);
  result.raw.Int("user_bytes",
                 rows * static_cast<int64_t>(relation.schema().RowBytes()));
  result.raw.Int("stored_bytes", layout == Layout::kInMemory
                                     ? RelationBytes(relation)
                                     : StoredBytes(stored_path));
  // Sessions read only the stored copy; the gates regenerate the table.
  if (layout != Layout::kInMemory) relation = storage::Relation();
  // The peak memory reported is that of the sessions, not of set-up.
  malloc_trim(0);
  const bool peak_reset = ResetPeakRss();
  if (!peak_reset) {
    std::fprintf(stderr,
                 "optrules_bench: cannot reset the peak RSS; it includes "
                 "set-up\n");
  }

  Dataset data;
  data.layout = layout;
  data.relation = &relation;
  data.paged_path = stored_path;
  data.table = table.has_value() ? &*table : nullptr;
  const bool cold = layout == Layout::kPaged;
  const MinerOptions options;

  // ------------------------------------------------------- sessions ----
  std::vector<SessionRecord> records;
  const int warmups = args.smoke ? 1 : 2;
  for (int i = 0; i < warmups; ++i) {
    records.push_back(RunSession(data, options, cold, false));
  }
  std::string measured = "[";
  const double deadline = Now() + args.seconds;
  int traced_sessions = 0;
  for (int i = 0;; ++i) {
    const bool enough =
        args.smoke ? i >= 3
                   : Now() >= deadline && i >= 3 &&
                         (!args.traced ||
                          traced_sessions >= kMinTracedSessions);
    if (enough) break;
    const bool traced = args.traced && i % 2 == 0;
    records.push_back(RunSession(data, options, cold, traced));
    traced_sessions += traced ? 1 : 0;
    if (i != 0) measured += ',';
    measured += ToJson(records.back());
    ++result.attempted;
    if (!records.back().status.ok()) ++result.failed;
  }
  measured += "]";
  result.raw.Raw("sessions", measured);
  const Result<int64_t> peak_rss = PeakRssKb(0);
  result.checks.Expect(peak_rss.ok(), "peak_rss_read",
                       peak_rss.status().ToString());
  result.raw.Int("peak_rss_self_kb", peak_rss.ok() ? peak_rss.value() : 0)
      .Bool("peak_rss_reset", peak_reset)
      .Int("peak_rss_children_kb", PeakChildRssKb());
  if (args.traced) WriteForests(args, records, &result.raw);

  // ---------------------------------------------- correctness gates ----
  bool all_ok = true;
  bool stable = true;
  bool one_scan = true;
  bool forest_shape = true;
  bool wire_ok = true;
  for (const SessionRecord& r : records) {
    all_ok = all_ok && r.status.ok();
    stable = stable && r.digest == records.front().digest;
    one_scan = one_scan && r.counting_scans == 1;
    if (r.traced) {
      wire_ok = wire_ok && r.wire_round_trip;
      forest_shape =
          forest_shape && r.root_scans == 1 &&
          (layout != Layout::kPartitioned ||
           (r.dist_scans == 1 &&
            r.partition_s.size() == static_cast<size_t>(kPartitions)));
    }
  }
  const uint64_t digest = records.front().digest;
  result.raw.Str("digest", HexDigest(digest));
  result.checks.Expect(all_ok, "sessions_ok",
                       records.front().status.ToString());
  result.checks.Expect(stable, "digest_identical_across_sessions");
  result.checks.Expect(one_scan, "one_counting_scan_per_session");
  if (args.traced) {
    result.checks.Expect(wire_ok, "wire_round_trip");
    result.checks.Expect(forest_shape, "trace_forest_shape");
  }
  if (!all_ok) return result;

  // The gates compare against engines over a freshly generated copy of
  // the same seeded table.
  if (layout != Layout::kInMemory) {
    relation = GenerateSeededTable(rows, args.seed);
  }
  Dataset in_memory;
  in_memory.relation = &relation;
  switch (layout) {
    case Layout::kInMemory: {
      Result<serve::SessionReply> legacy =
          LegacyMixedSession(relation, options);
      result.checks.Expect(legacy.ok() && Digest(legacy.value()) == digest,
                           "engine_equals_legacy_miner",
                           legacy.status().ToString());
      break;
    }
    case Layout::kPaged: {
      Result<uint64_t> reference = ExactSortDigest(in_memory);
      Result<uint64_t> paged = ExactSortDigest(data);
      result.checks.Expect(reference.ok() && paged.ok() &&
                               reference.value() == paged.value(),
                           "exact_sort_paged_equals_in_memory",
                           paged.status().ToString());
      break;
    }
    case Layout::kPartitioned: {
      Result<uint64_t> reference = ExactSortDigest(in_memory);
      Dataset in_process = data;
      in_process.worker_kind = dist::WorkerKind::kInProcess;
      Result<uint64_t> threads = ExactSortDigest(in_process);
      Result<uint64_t> subprocs = ExactSortDigest(data);
      result.checks.Expect(reference.ok() && threads.ok() &&
                               reference.value() == threads.value(),
                           "exact_sort_inprocess_partitions_equal_in_memory",
                           threads.status().ToString());
      result.checks.Expect(reference.ok() && subprocs.ok() &&
                               reference.value() == subprocs.value(),
                           "exact_sort_subprocess_partitions_equal_in_memory",
                           subprocs.status().ToString());
      break;
    }
  }
  return result;
}

}  // namespace optrules::harness
