// serve_mixed: a spawned optrules_served daemon over K round-robin
// partitions, driven by closed-loop client connections issuing seeded
// one-query sessions.
//
// The query mix is synthetic: no recorded request log or cited source
// backs its proportions. It is dealt from shuffled 20-session decks so
// every run sees the same proportions: 8 pair, 4 all-pairs, 3 generalized
// (random single-Boolean condition), 3 average-range (target n2 or n3)
// and 2 region (one of 3 pairs) sessions.
//
// On top of the mix sits one named stress property, forced engine-cache
// misses: one session per deck carries an alternative min_support. The
// alternatives rotate through 6 values, more than the daemon's 4 cached
// engines, so every such session misses the engine cache and plans and
// scans on the scheduler thread.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dist/partitioned_table.h"
#include "harness.h"
#include "rules/miner.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace optrules::harness {
namespace {

using serve::ServeQuery;

constexpr int64_t kRows = 250'000;
constexpr int64_t kSmokeRows = 50'000;
constexpr int kPartitions = 4;
constexpr int kClients = 4;
constexpr int kSmokeSessionsPerClient = 50;
constexpr int kSetupRepeats = 21;
/// Every kGateEvery-th reply of each client (and each client's first
/// reply of every query kind) is re-answered by a standalone engine.
constexpr int kGateEvery = 25;
constexpr double kAverageMinSupport = 0.10;
/// The cache-miss stress: alternative min_support values, one per deck.
constexpr double kAltMinSupport[] = {0.02, 0.03, 0.04, 0.06, 0.08, 0.12};
constexpr int kRegionPairs[][2] = {{0, 1}, {2, 3}, {4, 5}};
/// One deck: query kinds in the synthetic mix's proportions
/// (40/20/15/15/10 %).
constexpr ServeQuery::Kind kDeck[] = {
    ServeQuery::Kind::kPair,         ServeQuery::Kind::kPair,
    ServeQuery::Kind::kPair,         ServeQuery::Kind::kPair,
    ServeQuery::Kind::kPair,         ServeQuery::Kind::kPair,
    ServeQuery::Kind::kPair,         ServeQuery::Kind::kPair,
    ServeQuery::Kind::kAllPairs,     ServeQuery::Kind::kAllPairs,
    ServeQuery::Kind::kAllPairs,     ServeQuery::Kind::kAllPairs,
    ServeQuery::Kind::kGeneralized,  ServeQuery::Kind::kGeneralized,
    ServeQuery::Kind::kGeneralized,  ServeQuery::Kind::kAverageRange,
    ServeQuery::Kind::kAverageRange, ServeQuery::Kind::kAverageRange,
    ServeQuery::Kind::kRegion,       ServeQuery::Kind::kRegion};
constexpr int kDeckSize = static_cast<int>(std::size(kDeck));
constexpr int kKinds = 6;

const char* KindName(ServeQuery::Kind kind) {
  switch (kind) {
    case ServeQuery::Kind::kAllPairs:
      return "all_pairs";
    case ServeQuery::Kind::kPair:
      return "pair";
    case ServeQuery::Kind::kGeneralized:
      return "generalized";
    case ServeQuery::Kind::kAverageRange:
      return "average_range";
    case ServeQuery::Kind::kSupportRange:
      return "support_range";
    case ServeQuery::Kind::kRegion:
      return "region";
  }
  return "unknown";
}

/// Deals one client's seeded session stream.
class SessionDealer {
 public:
  SessionDealer(uint64_t seed, int client, const storage::Schema& schema,
                std::atomic<uint64_t>* alt_counter)
      : rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client)),
        schema_(schema),
        alt_counter_(alt_counter) {}

  serve::SessionRequest Next(const std::string& table_dir) {
    if (position_ == kDeckSize) Shuffle();
    serve::SessionRequest request;
    request.table_dir = table_dir;
    if (position_ == alt_position_) {
      const uint64_t k = alt_counter_->fetch_add(1);
      request.options.min_support =
          kAltMinSupport[k % std::size(kAltMinSupport)];
    }
    request.queries.push_back(Query(deck_[position_++]));
    return request;
  }

 private:
  void Shuffle() {
    std::copy(std::begin(kDeck), std::end(kDeck), deck_);
    for (int i = kDeckSize - 1; i > 0; --i) {
      const uint64_t j = rng_.NextBounded(static_cast<uint64_t>(i) + 1);
      std::swap(deck_[i], deck_[j]);
    }
    alt_position_ = static_cast<int>(rng_.NextBounded(kDeckSize));
    position_ = 0;
  }

  int Pick(int n) { return static_cast<int>(rng_.NextBounded(n)); }

  ServeQuery Query(ServeQuery::Kind kind) {
    const int nn = schema_.num_numeric();
    const int nb = schema_.num_boolean();
    ServeQuery query;
    query.kind = kind;
    switch (kind) {
      case ServeQuery::Kind::kPair:
        query.attr_a = schema_.NumericName(Pick(nn));
        query.attr_b = schema_.BooleanName(Pick(nb));
        break;
      case ServeQuery::Kind::kGeneralized: {
        const int condition = Pick(nb);
        const int objective = (condition + 1 + Pick(nb - 1)) % nb;
        query.attr_a = schema_.NumericName(Pick(nn));
        query.conditions = {schema_.BooleanName(condition)};
        query.attr_b = schema_.BooleanName(objective);
        break;
      }
      case ServeQuery::Kind::kAverageRange:
        query.attr_a = schema_.NumericName(Pick(nn));
        query.attr_b = schema_.NumericName(2 + Pick(2));
        query.threshold = kAverageMinSupport;
        break;
      case ServeQuery::Kind::kRegion: {
        const int* pair = kRegionPairs[Pick(std::size(kRegionPairs))];
        query.attr_a = schema_.NumericName(pair[0]);
        query.attr_b = schema_.NumericName(pair[1]);
        query.target = schema_.BooleanName(Pick(nb));
        break;
      }
      case ServeQuery::Kind::kAllPairs:
      case ServeQuery::Kind::kSupportRange:
        break;
    }
    return query;
  }

  Rng rng_;
  const storage::Schema& schema_;
  std::atomic<uint64_t>* alt_counter_;
  ServeQuery::Kind deck_[kDeckSize] = {};
  int position_ = kDeckSize;
  int alt_position_ = 0;
};

/// A reply kept for the standalone-engine gate.
struct GateSample {
  serve::SessionRequest request;
  serve::SessionReply reply;
};

/// What one client thread measured.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<double> reply_bytes;
  std::vector<GateSample> gate;
  /// Canonical request bytes -> answer digest: a repeated request must
  /// get a bit-identical answer.
  std::map<std::vector<uint8_t>, uint64_t> answers;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t inconsistent = 0;
  std::string first_error;
};

std::vector<uint8_t> RequestKey(const serve::SessionRequest& request) {
  std::vector<uint8_t> key;
  serve::EncodeOpenSession(0, request, &key);
  return key;
}

void RunClient(const std::string& address, const std::string& table_dir,
               const storage::Schema& schema, const Args& args, int client,
               double deadline, std::atomic<uint64_t>* alt_counter,
               ClientLog* log) {
  auto connected = serve::MiningClient::ConnectUnix(address);
  if (!connected.ok()) {
    log->failed = log->attempted = 1;
    log->first_error = connected.status().ToString();
    return;
  }
  serve::MiningClient mining_client = std::move(connected).value();
  mining_client.set_timeouts({.liveness_ms = 0, .total_ms = 60'000});
  SessionDealer dealer(args.seed, client, schema, alt_counter);
  bool seen_kind[kKinds] = {};
  for (int n = 0;; ++n) {
    if (args.smoke ? n >= kSmokeSessionsPerClient : Now() >= deadline) break;
    const serve::SessionRequest request = dealer.Next(table_dir);
    const double start = Now();
    Result<serve::SessionReply> reply = mining_client.RunSession(request);
    const double latency_ms = (Now() - start) * 1e3;
    ++log->attempted;
    bool ok = reply.ok() &&
              reply.value().answers.size() == request.queries.size();
    if (ok) {
      for (const serve::QueryAnswer& answer : reply.value().answers) {
        ok = ok && answer.status.ok();
      }
    }
    if (!ok) {
      ++log->failed;
      if (log->first_error.empty()) {
        log->first_error = reply.ok() ? "non-OK answer"
                                      : reply.status().ToString();
      }
      continue;
    }
    log->latency_ms.push_back(latency_ms);
    const uint64_t digest = Digest(reply.value());
    const auto [it, inserted] =
        log->answers.emplace(RequestKey(request), digest);
    if (!inserted && it->second != digest) ++log->inconsistent;

    if (args.traced) {
      std::vector<uint8_t> bytes;
      double t = Now();
      serve::EncodeSessionResult(reply.value(), &bytes);
      log->encode_us.push_back((Now() - t) * 1e6);
      serve::SessionReply decoded;
      t = Now();
      const Status status = serve::DecodeSessionResult(bytes, &decoded);
      log->decode_us.push_back((Now() - t) * 1e6);
      log->reply_bytes.push_back(static_cast<double>(bytes.size()));
      if (!status.ok() || Digest(decoded) != digest) ++log->inconsistent;
    }
    const int kind = static_cast<int>(request.queries.front().kind);
    if (n % kGateEvery == 0 || !seen_kind[kind]) {
      log->gate.push_back({request, std::move(reply).value()});
    }
    seen_kind[kind] = true;
  }
}

/// The answer a standalone engine gives `query` (the daemon's own
/// per-query semantics: a failed lookup fails only this answer).
serve::QueryAnswer StandaloneAnswer(rules::MiningEngine* engine,
                                    const ServeQuery& query) {
  serve::QueryAnswer answer;
  const auto take = [&](auto result, auto setter) {
    if (result.ok()) {
      setter(std::move(result).value());
    } else {
      answer.status = result.status();
    }
  };
  switch (query.kind) {
    case ServeQuery::Kind::kAllPairs:
      answer.rules = engine->MineAllPairs();
      break;
    case ServeQuery::Kind::kPair:
      take(engine->MinePair(query.attr_a, query.attr_b),
           [&](auto v) { answer.rules = std::move(v); });
      break;
    case ServeQuery::Kind::kGeneralized:
      take(engine->MineGeneralized(query.attr_a, query.conditions,
                                   query.attr_b),
           [&](auto v) { answer.rules = std::move(v); });
      break;
    case ServeQuery::Kind::kAverageRange:
      take(engine->MineMaximumAverageRange(query.attr_a, query.attr_b,
                                           query.threshold),
           [&](auto v) { answer.aggregate = std::move(v); });
      break;
    case ServeQuery::Kind::kSupportRange:
      take(engine->MineMaximumSupportRange(query.attr_a, query.attr_b,
                                           query.threshold),
           [&](auto v) { answer.aggregate = std::move(v); });
      break;
    case ServeQuery::Kind::kRegion:
      take(engine->MineOptimizedRegion(query.attr_a, query.attr_b,
                                       query.target),
           [&](auto v) { answer.region = std::move(v); });
      break;
  }
  return answer;
}

void Register(rules::MiningEngine* engine, const ServeQuery& query) {
  switch (query.kind) {
    case ServeQuery::Kind::kGeneralized:
      (void)engine->RequestGeneralized(query.conditions);
      break;
    case ServeQuery::Kind::kAverageRange:
    case ServeQuery::Kind::kSupportRange:
      (void)engine->RequestAverageTarget(query.attr_b);
      break;
    case ServeQuery::Kind::kRegion:
      (void)engine->RequestRegionPair(query.attr_a, query.attr_b);
      break;
    case ServeQuery::Kind::kAllPairs:
    case ServeQuery::Kind::kPair:
      break;
  }
}

/// Re-answers every gate sample on standalone engines (one per option
/// fingerprint, every sampled query registered before its one scan).
/// Returns the number of mismatching answers; fills the engine timings.
int64_t RunGate(const dist::PartitionedTable& table,
                const std::vector<GateSample>& samples, bool traced,
                JsonObject* raw) {
  std::map<uint64_t, std::vector<const GateSample*>> groups;
  for (const GateSample& sample : samples) {
    groups[serve::OptionsFingerprint(sample.request.options)].push_back(
        &sample);
  }
  obs::Tracer& tracer = obs::Tracer::Default();
  std::string engines = "[";
  int64_t mismatches = 0;
  for (const auto& [fingerprint, group] : groups) {
    tracer.Clear();
    tracer.set_enabled(traced);
    rules::MiningEngine engine(&table, group.front()->request.options);
    for (const GateSample* sample : group) {
      Register(&engine, sample->request.queries.front());
    }
    double prepare_s = 0.0;
    Status prepared;
    {
      obs::Span span("bench.prepare");
      const double start = Now();
      prepared = engine.TryPrepare();
      prepare_s = Now() - start;
    }
    double scan_s = 0.0;
    const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
    if (const obs::SpanRecord* prepare = FindSpan(spans, "bench.prepare")) {
      for (const double d : ChildDurations(spans, prepare->id, "dist.scan")) {
        scan_s += d;
      }
    }
    tracer.set_enabled(false);
    tracer.Clear();
    if (!prepared.ok()) {
      mismatches += static_cast<int64_t>(group.size());
      continue;
    }
    JsonObject mine_s;
    std::map<std::string, std::vector<double>> by_kind;
    for (const GateSample* sample : group) {
      const ServeQuery& query = sample->request.queries.front();
      serve::SessionReply standalone;
      const double start = Now();
      standalone.answers.push_back(StandaloneAnswer(&engine, query));
      by_kind[KindName(query.kind)].push_back(Now() - start);
      if (CanonicalBytes(standalone) != CanonicalBytes(sample->reply)) {
        ++mismatches;
      }
    }
    for (const auto& [kind, times] : by_kind) mine_s.Nums(kind, times);
    if (engines.size() > 1) engines += ',';
    engines += JsonObject()
                   .Int("queries", static_cast<int64_t>(group.size()))
                   .Num("prepare_s", prepare_s)
                   .Num("scan_s", scan_s)
                   .Raw("mine_s", mine_s.str())
                   .str();
  }
  raw->Raw("gate_engines", engines + "]");
  return mismatches;
}

}  // namespace

WorkloadResult RunServeWorkload(const Args& args, const std::string& data_dir) {
  WorkloadResult result;
  const int64_t rows = args.smoke ? kSmokeRows : kRows;
  result.raw.Int("rows", rows);
  const storage::Relation relation = GenerateSeededTable(rows, args.seed);
  const storage::Schema schema = relation.schema();
  result.raw.Int("user_bytes",
                 rows * static_cast<int64_t>(schema.RowBytes()));

  std::vector<std::string> daemon_env;
  std::string served_trace;
  if (args.traced) {
    served_trace = args.trace_dir + "/" + args.workload + ".served.json";
    daemon_env.push_back("OPTRULES_TRACE_JSON=" + served_trace);
  }

  // ---------------- set-up: repeated partition + spawn to LISTENING ----
  std::optional<dist::PartitionedTable> table;
  std::optional<Daemon> daemon;
  std::string table_dir;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon.has_value()) {
      (void)daemon->Stop();
      daemon.reset();
      table.reset();
      std::error_code ec;
      std::filesystem::remove_all(table_dir, ec);
    }
    table_dir = data_dir + "/table-" + std::to_string(i);
    dist::PartitionOptions partitioning;
    partitioning.num_partitions = kPartitions;
    const double start = Now();
    Result<dist::PartitionedTable> made =
        dist::PartitionRelation(relation, table_dir, partitioning);
    if (!made.ok()) {
      result.checks.Expect(false, "ingest", made.status().ToString());
      return result;
    }
    table.emplace(std::move(made).value());
    Result<Daemon> spawned = Daemon::SpawnListening(
        {OPTRULES_BENCH_SERVED, "--socket=" + data_dir + "/serve.sock",
         "--window-ms=10"},
        daemon_env, 30.0);
    setup_s.push_back(Now() - start);
    if (!spawned.ok()) {
      result.checks.Expect(false, "daemon_listening",
                           spawned.status().ToString());
      return result;
    }
    daemon.emplace(std::move(spawned).value());
  }
  result.raw.Nums("setup_s", setup_s);
  result.raw.Int("stored_bytes", StoredBytes(table_dir));

  // Warm-up: the resident engine for the default options exists before
  // the clock starts.
  auto connected = serve::MiningClient::ConnectUnix(daemon->address());
  if (!connected.ok()) {
    result.checks.Expect(false, "connect", connected.status().ToString());
    return result;
  }
  std::optional<serve::MiningClient> control(std::move(connected).value());
  {
    serve::SessionRequest warmup;
    warmup.table_dir = table_dir;
    warmup.queries.push_back(ServeQuery{});
    const Result<serve::SessionReply> reply = control->RunSession(warmup);
    result.checks.Expect(reply.ok(), "warmup_session",
                         reply.status().ToString());
    if (!reply.ok()) return result;
  }

  // ------------------------------------------------------ the stream ----
  const Result<obs::MetricsSnapshot> metrics_before = control->Metrics();
  const Result<int64_t> rchar_before = ReadRchar(daemon->pid());
  std::vector<ClientLog> logs(kClients);
  std::atomic<uint64_t> alt_counter{0};
  const double start = Now();
  const double deadline = start + args.seconds;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, daemon->address(), table_dir,
                           std::cref(schema), std::cref(args), c, deadline,
                           &alt_counter, &logs[static_cast<size_t>(c)]);
    }
    for (std::thread& client : clients) client.join();
  }
  const double stream_s = Now() - start;
  const Result<obs::MetricsSnapshot> metrics_after = control->Metrics();
  const Result<int64_t> rchar_after = ReadRchar(daemon->pid());
  // The serving system is the daemon; the harness is only its client.
  const Result<int64_t> daemon_peak = PeakRssKb(daemon->pid());
  control.reset();  // hang up before the drain
  const Status stopped = daemon->Stop();
  daemon.reset();
  result.checks.Expect(stopped.ok(), "daemon_clean_exit", stopped.ToString());
  result.checks.Expect(metrics_before.ok() && metrics_after.ok(),
                       "daemon_metrics");
  result.checks.Expect(daemon_peak.ok(), "daemon_peak_rss_read",
                       daemon_peak.status().ToString());

  ClientLog all;
  std::map<std::vector<uint8_t>, uint64_t> answers;
  for (ClientLog& log : logs) {
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.latency_ms, log.latency_ms);
    append(&all.encode_us, log.encode_us);
    append(&all.decode_us, log.decode_us);
    append(&all.reply_bytes, log.reply_bytes);
    for (GateSample& sample : log.gate) all.gate.push_back(std::move(sample));
    for (const auto& [key, digest] : log.answers) {
      const auto [it, inserted] = answers.emplace(key, digest);
      if (!inserted && it->second != digest) ++all.inconsistent;
    }
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.inconsistent += log.inconsistent;
    if (all.first_error.empty()) all.first_error = log.first_error;
  }
  result.attempted = all.attempted;
  result.failed = all.failed;
  result.raw.Num("stream_s", stream_s)
      .Int("sessions", static_cast<int64_t>(all.latency_ms.size()))
      .Nums("latency_ms", all.latency_ms)
      .Int("peak_rss_daemon_kb", daemon_peak.ok() ? daemon_peak.value() : 0);
  if (rchar_before.ok() && rchar_after.ok()) {
    result.raw.Int("daemon_rchar_bytes",
                   rchar_after.value() - rchar_before.value());
  }
  if (metrics_before.ok() && metrics_after.ok()) {
    result.raw.Raw("daemon_registry_delta",
                   RegistryDeltaJson(metrics_before.value(),
                                     metrics_after.value()));
  }
  if (args.traced) {
    result.raw.Nums("encode_us", all.encode_us)
        .Nums("decode_us", all.decode_us)
        .Nums("reply_bytes", all.reply_bytes)
        .Str("served_span_forest", served_trace);
  }

  // ---------------------------------------------- correctness gates ----
  result.checks.Expect(all.failed == 0, "every_reply_ok", all.first_error);
  result.checks.Expect(all.inconsistent == 0,
                       "repeated_requests_answer_identically");
  const int64_t mismatches = RunGate(*table, all.gate, args.traced,
                                     &result.raw);
  result.raw.Int("gate_samples", static_cast<int64_t>(all.gate.size()));
  result.checks.Expect(mismatches == 0, "replies_equal_standalone_engine",
                       std::to_string(mismatches) + " of " +
                           std::to_string(all.gate.size()) + " differ");
  return result;
}

}  // namespace optrules::harness
