// Multi-tenant load harness for the resident mining service.
//
// Boots an in-process MiningServer over one partitioned table and drives
// it from N synthetic tenants (one MiningClient thread each), measuring
// what the serving layer is FOR:
//
//   * Coalescing: all N tenants open sessions -- with overlapping and
//     disjoint query sets -- inside one coalescing window against the
//     same table generation; the window must execute as ONE physical
//     counting scan (physical_scans == 1) while every tenant's answers
//     stay bit-identical to a standalone MiningEngine session over the
//     same table and options.
//   * Throughput: a sustained phase of small sessions across the tenants,
//     reporting sessions/sec and p50/p99 latency (dominated by the
//     coalescing window once the engine is cache-resident).
//
// The server runs in-process, so its serve.* registry counters are this
// process's; each figure below is an obs::CounterDelta from a snapshot
// taken when the server started.
//
// OPTRULES_BENCH_JSON=1 emits the one-line JSON object collected into
// BENCH_serve_load.json; OPTRULES_BENCH_SCALE multiplies rows and the
// sustained-session count.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/table_generator.h"
#include "dist/partitioned_table.h"
#include "obs/metrics.h"
#include "rules/miner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace optrules {
namespace {

using serve::MiningClient;
using serve::MiningServer;
using serve::QueryAnswer;
using serve::ServeQuery;
using serve::SessionReply;
using serve::SessionRequest;

constexpr int kTenants = 4;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bit-level double equality (exact reproduction, NaN included).
bool BitEq(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool RulesEqual(const std::vector<rules::MinedRule>& a,
                const std::vector<rules::MinedRule>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const rules::MinedRule& x = a[i];
    const rules::MinedRule& y = b[i];
    if (x.found != y.found || x.kind != y.kind ||
        x.numeric_attr != y.numeric_attr ||
        x.boolean_attr != y.boolean_attr ||
        x.presumptive_condition != y.presumptive_condition ||
        !BitEq(x.range_lo, y.range_lo) || !BitEq(x.range_hi, y.range_hi) ||
        x.support_count != y.support_count || x.hit_count != y.hit_count ||
        !BitEq(x.support, y.support) || !BitEq(x.confidence, y.confidence)) {
      return false;
    }
  }
  return true;
}

bool AggregatesEqual(const rules::MinedAggregateRange& a,
                     const rules::MinedAggregateRange& b) {
  return a.found == b.found && a.range_attr == b.range_attr &&
         a.target_attr == b.target_attr && BitEq(a.range_lo, b.range_lo) &&
         BitEq(a.range_hi, b.range_hi) &&
         a.support_count == b.support_count && BitEq(a.support, b.support) &&
         BitEq(a.average, b.average);
}

bool RegionRulesEqual(const region::RegionRule& a,
                      const region::RegionRule& b) {
  return a.found == b.found && a.x1 == b.x1 && a.x2 == b.x2 &&
         a.y1 == b.y1 && a.y2 == b.y2 &&
         a.support_count == b.support_count && a.hit_count == b.hit_count &&
         BitEq(a.support, b.support) && BitEq(a.confidence, b.confidence);
}

bool RegionsEqual(const rules::MinedRegion& a, const rules::MinedRegion& b) {
  const region::XMonotoneRegion& xa = a.xmonotone_gain;
  const region::XMonotoneRegion& xb = b.xmonotone_gain;
  return a.found == b.found && a.x_attr == b.x_attr &&
         a.y_attr == b.y_attr && a.target_attr == b.target_attr &&
         a.nx == b.nx && a.ny == b.ny && a.total_tuples == b.total_tuples &&
         RegionRulesEqual(a.confidence_rectangle, b.confidence_rectangle) &&
         RegionRulesEqual(a.support_rectangle, b.support_rectangle) &&
         xa.found == xb.found && xa.x_begin == xb.x_begin &&
         xa.column_ranges == xb.column_ranges &&
         xa.support_count == xb.support_count &&
         xa.hit_count == xb.hit_count && BitEq(xa.support, xb.support) &&
         BitEq(xa.confidence, xb.confidence) && BitEq(xa.gain, xb.gain);
}

/// The answer a standalone MiningEngine gives to `query`.
QueryAnswer StandaloneAnswer(rules::MiningEngine* engine,
                             const ServeQuery& query) {
  QueryAnswer answer;
  switch (query.kind) {
    case ServeQuery::Kind::kAllPairs:
      answer.rules = engine->MineAllPairs();
      break;
    case ServeQuery::Kind::kPair: {
      auto result = engine->MinePair(query.attr_a, query.attr_b);
      if (result.ok()) answer.rules = std::move(result).value();
      break;
    }
    case ServeQuery::Kind::kGeneralized: {
      auto result = engine->MineGeneralized(query.attr_a, query.conditions,
                                            query.attr_b);
      if (result.ok()) answer.rules = std::move(result).value();
      break;
    }
    case ServeQuery::Kind::kAverageRange: {
      auto result = engine->MineMaximumAverageRange(
          query.attr_a, query.attr_b, query.threshold);
      if (result.ok()) answer.aggregate = std::move(result).value();
      break;
    }
    case ServeQuery::Kind::kSupportRange: {
      auto result = engine->MineMaximumSupportRange(
          query.attr_a, query.attr_b, query.threshold);
      if (result.ok()) answer.aggregate = std::move(result).value();
      break;
    }
    case ServeQuery::Kind::kRegion: {
      auto result = engine->MineOptimizedRegion(query.attr_a, query.attr_b,
                                                query.target);
      if (result.ok()) answer.region = std::move(result).value();
      break;
    }
  }
  return answer;
}

bool AnswersEqual(const QueryAnswer& served, const QueryAnswer& standalone) {
  return RulesEqual(served.rules, standalone.rules) &&
         AggregatesEqual(served.aggregate, standalone.aggregate) &&
         RegionsEqual(served.region, standalone.region);
}

/// Each tenant's query mix: overlapping (everyone asks pair num0=>bool0)
/// and disjoint (tenant-private channels) against one generation.
std::vector<ServeQuery> TenantQueries(int tenant,
                                      const storage::Schema& schema) {
  std::vector<ServeQuery> queries;
  ServeQuery shared;
  shared.kind = ServeQuery::Kind::kPair;
  shared.attr_a = schema.NumericName(0);
  shared.attr_b = schema.BooleanName(0);
  queries.push_back(shared);
  switch (tenant % kTenants) {
    case 0: {
      ServeQuery all;
      all.kind = ServeQuery::Kind::kAllPairs;
      queries.push_back(all);
      break;
    }
    case 1: {
      ServeQuery generalized;
      generalized.kind = ServeQuery::Kind::kGeneralized;
      generalized.attr_a = schema.NumericName(1);
      generalized.conditions = {schema.BooleanName(0)};
      generalized.attr_b = schema.BooleanName(1);
      queries.push_back(generalized);
      break;
    }
    case 2: {
      ServeQuery average;
      average.kind = ServeQuery::Kind::kAverageRange;
      average.attr_a = schema.NumericName(0);
      average.attr_b = schema.NumericName(2);
      average.threshold = 0.1;
      queries.push_back(average);
      break;
    }
    default: {
      ServeQuery region;
      region.kind = ServeQuery::Kind::kRegion;
      region.attr_a = schema.NumericName(0);
      region.attr_b = schema.NumericName(1);
      region.target = schema.BooleanName(0);
      queries.push_back(region);
      break;
    }
  }
  return queries;
}

}  // namespace
}  // namespace optrules

int main() {
  using namespace optrules;

  const int64_t scale = bench::BenchScale();
  const int64_t rows = 20'000 * scale;

  // ------------------------------------------------ table under test ----
  char dir_template[] = "/tmp/optrules_serve_load_XXXXXX";
  const char* tmp = mkdtemp(dir_template);
  if (tmp == nullptr) {
    std::fprintf(stderr, "serve_load: mkdtemp failed\n");
    return 1;
  }
  const std::string root(tmp);
  const std::string table_dir = root + "/table";

  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 4;
  config.num_boolean = 3;
  Rng rng(7);
  const storage::Relation relation = datagen::GenerateTable(config, rng);
  dist::PartitionOptions partitioning;
  partitioning.num_partitions = 4;
  auto table_or = dist::PartitionRelation(relation, table_dir, partitioning);
  if (!table_or.ok()) {
    std::fprintf(stderr, "serve_load: %s\n",
                 table_or.status().ToString().c_str());
    return 1;
  }
  const dist::PartitionedTable table = std::move(table_or).value();

  rules::MinerOptions miner_options;
  miner_options.num_buckets = 64;
  miner_options.region_grid_buckets = 16;

  // ------------------------------------------------------- the server ----
  serve::ServerOptions server_options;
  server_options.coalescing_window_ms = 50;
  MiningServer server(server_options);
  if (Status bound = server.ListenUnix(root + "/serve.sock"); !bound.ok()) {
    std::fprintf(stderr, "serve_load: %s\n", bound.ToString().c_str());
    return 1;
  }
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "serve_load: %s\n", started.ToString().c_str());
    return 1;
  }
  const obs::MetricsSnapshot start =
      obs::MetricsRegistry::Default().Snapshot();
  // The rise of serve.<name> from `start` to `now`.
  const auto serve_delta = [&start](const obs::MetricsSnapshot& now,
                                    const std::string& name) {
    return obs::CounterDelta(start, now, "serve." + name);
  };

  bench::PrintHeader("serve_load: cross-session scan coalescing");
  std::printf("rows=%lld partitions=%d tenants=%d window=%lldms\n",
              static_cast<long long>(rows), partitioning.num_partitions,
              kTenants,
              static_cast<long long>(server_options.coalescing_window_ms));

  // --------------------------- phase 1: one window, one physical scan ----
  std::vector<SessionReply> replies(kTenants);
  std::vector<Status> reply_status(kTenants, Status::Ok());
  {
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        auto client_or = MiningClient::ConnectUnix(server.address());
        if (!client_or.ok()) {
          reply_status[static_cast<size_t>(t)] = client_or.status();
          return;
        }
        MiningClient client = std::move(client_or).value();
        SessionRequest request;
        request.table_dir = table_dir;
        request.options = miner_options;
        request.queries = TenantQueries(t, table.schema());
        auto reply = client.RunSession(request);
        if (reply.ok()) {
          replies[static_cast<size_t>(t)] = std::move(reply).value();
        } else {
          reply_status[static_cast<size_t>(t)] = reply.status();
        }
      });
    }
    for (std::thread& tenant : tenants) tenant.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    if (!reply_status[static_cast<size_t>(t)].ok()) {
      std::fprintf(stderr, "serve_load: tenant %d failed: %s\n", t,
                   reply_status[static_cast<size_t>(t)].ToString().c_str());
      return 1;
    }
  }
  const obs::MetricsSnapshot window =
      obs::MetricsRegistry::Default().Snapshot();
  const int64_t window_physical_scans = serve_delta(window, "physical_scans");
  const int64_t window_coalesced_sessions =
      serve_delta(window, "coalesced_sessions");

  // Bit-identity: every tenant's served answers vs a standalone engine.
  bool bit_identical = true;
  for (int t = 0; t < kTenants; ++t) {
    rules::MiningEngine standalone(&table, miner_options);
    const std::vector<ServeQuery> queries =
        TenantQueries(t, table.schema());
    const SessionReply& reply = replies[static_cast<size_t>(t)];
    if (reply.answers.size() != queries.size()) {
      bit_identical = false;
      break;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!reply.answers[q].status.ok() ||
          !AnswersEqual(reply.answers[q],
                        StandaloneAnswer(&standalone, queries[q]))) {
        bit_identical = false;
      }
    }
  }

  std::printf("window: physical_scans=%lld coalesced_sessions=%lld "
              "bit_identical=%s\n",
              static_cast<long long>(window_physical_scans),
              static_cast<long long>(window_coalesced_sessions),
              bit_identical ? "yes" : "NO");

  // ------------------------------- phase 2: sustained session stream ----
  const int sessions_per_tenant = static_cast<int>(25 * scale);
  std::vector<double> latencies_ms;
  latencies_ms.reserve(
      static_cast<size_t>(kTenants * sessions_per_tenant));
  std::mutex latency_mu;
  std::atomic<int> failures{0};
  const double stream_start = NowSeconds();
  {
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        auto client_or = MiningClient::ConnectUnix(server.address());
        if (!client_or.ok()) {
          failures.fetch_add(sessions_per_tenant);
          return;
        }
        MiningClient client = std::move(client_or).value();
        SessionRequest request;
        request.table_dir = table_dir;
        request.options = miner_options;
        ServeQuery pair;
        pair.kind = ServeQuery::Kind::kPair;
        pair.attr_a = table.schema().NumericName(t % 4);
        pair.attr_b = table.schema().BooleanName(t % 3);
        request.queries = {pair};
        std::vector<double> local;
        local.reserve(static_cast<size_t>(sessions_per_tenant));
        for (int s = 0; s < sessions_per_tenant; ++s) {
          const double begin = NowSeconds();
          if (client.RunSession(request).ok()) {
            local.push_back((NowSeconds() - begin) * 1e3);
          } else {
            failures.fetch_add(1);
          }
        }
        std::lock_guard<std::mutex> lock(latency_mu);
        latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      });
    }
    for (std::thread& tenant : tenants) tenant.join();
  }
  const double stream_seconds = NowSeconds() - stream_start;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto percentile = [&](double p) {
    if (latencies_ms.empty()) return 0.0;
    const size_t index = std::min(
        latencies_ms.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies_ms.size())));
    return latencies_ms[index];
  };
  const double sessions_per_sec =
      stream_seconds > 0.0
          ? static_cast<double>(latencies_ms.size()) / stream_seconds
          : 0.0;
  server.Stop();
  const obs::MetricsSnapshot done = obs::MetricsRegistry::Default().Snapshot();
  const int64_t total_physical_scans = serve_delta(done, "physical_scans");
  const int64_t total_coalesced_sessions =
      serve_delta(done, "coalesced_sessions");
  const int64_t total_batches = serve_delta(done, "batches_executed");
  std::filesystem::remove_all(root);

  std::printf("stream: sessions=%zu sessions/sec=%.1f p50=%.2fms "
              "p99=%.2fms failures=%d\n",
              latencies_ms.size(), sessions_per_sec, percentile(0.50),
              percentile(0.99), failures.load());
  std::printf("totals: served=%lld physical_scans=%lld "
              "coalesced_sessions=%lld batches=%lld\n",
              static_cast<long long>(serve_delta(done, "sessions_served")),
              static_cast<long long>(total_physical_scans),
              static_cast<long long>(total_coalesced_sessions),
              static_cast<long long>(total_batches));

  bench::JsonReporter json("serve_load");
  json.Add("rows", rows);
  json.Add("tenants", static_cast<int64_t>(kTenants));
  json.Add("coalescing_window_ms",
           static_cast<int64_t>(server_options.coalescing_window_ms));
  json.Add("window_physical_scans", window_physical_scans);
  json.Add("window_coalesced_sessions", window_coalesced_sessions);
  json.Add("bit_identical", bit_identical);
  json.Add("stream_sessions", static_cast<int64_t>(latencies_ms.size()));
  json.Add("sessions_per_sec", sessions_per_sec);
  json.Add("p50_latency_ms", percentile(0.50));
  json.Add("p99_latency_ms", percentile(0.99));
  json.Add("total_physical_scans", total_physical_scans);
  json.Add("total_coalesced_sessions", total_coalesced_sessions);
  json.Add("total_batches", total_batches);
  json.Add("failures", static_cast<int64_t>(failures.load()));
  // The snapshot carries the serve counters alongside the storage/scan
  // instruments the sessions exercised.
  json.AddRegistrySnapshot(done);

  const bool ok = bit_identical && window_physical_scans == 1 &&
                  failures.load() == 0;
  if (!ok) {
    std::fprintf(stderr, "serve_load: FAILED acceptance checks\n");
    return 1;
  }
  return 0;
}
