// Tests for the resident mining service (src/serve/): protocol codecs
// against hostile payloads, cross-session scan coalescing correctness
// (bit-identical to standalone engines, one physical scan per window),
// per-session failure isolation, admission control, graceful shutdown
// with wedged clients, the shared FrameWriter's multi-thread atomicity,
// generation re-keying on table republish, and a boot round against the
// real optrules_served daemon on an ephemeral socket ($OPTRULES_SERVED).

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "datagen/table_generator.h"
#include "dist/partitioned_table.h"
#include "dist/wire.h"
#include "rules/miner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace optrules::serve {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

storage::Relation TestRelation(int64_t rows, uint64_t seed,
                               int num_numeric = 3, int num_boolean = 2) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = num_numeric;
  config.num_boolean = num_boolean;
  Rng rng(seed);
  storage::Relation relation = datagen::GenerateTable(config, rng);
  std::vector<double>& column = relation.MutableNumericColumn(0);
  for (size_t row = 0; row < column.size(); row += 97) {
    column[row] = std::nan("");
  }
  return relation;
}

dist::PartitionedTable MakeTable(const std::string& dir, int64_t rows,
                                 uint64_t seed) {
  dist::PartitionOptions options;
  options.num_partitions = 3;
  auto table = dist::PartitionRelation(TestRelation(rows, seed), dir, options);
  EXPECT_TRUE(table.status().ok()) << table.status().ToString();
  return std::move(table).value();
}

rules::MinerOptions SmallOptions() {
  rules::MinerOptions options;
  options.num_buckets = 32;
  options.region_grid_buckets = 8;
  return options;
}

MiningClient Connect(const MiningServer& server) {
  auto client = MiningClient::ConnectUnix(server.address());
  EXPECT_TRUE(client.status().ok()) << client.status().ToString();
  MiningClient connected = std::move(client).value();
  // Generous total deadline so a server bug fails the test instead of
  // hanging it.
  connected.set_timeouts({.liveness_ms = 0, .total_ms = 60'000});
  return connected;
}

bool BitEq(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectRulesEqual(const std::vector<rules::MinedRule>& served,
                      const std::vector<rules::MinedRule>& expected) {
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].found, expected[i].found);
    EXPECT_EQ(served[i].kind, expected[i].kind);
    EXPECT_EQ(served[i].numeric_attr, expected[i].numeric_attr);
    EXPECT_EQ(served[i].boolean_attr, expected[i].boolean_attr);
    EXPECT_EQ(served[i].presumptive_condition,
              expected[i].presumptive_condition);
    EXPECT_TRUE(BitEq(served[i].range_lo, expected[i].range_lo));
    EXPECT_TRUE(BitEq(served[i].range_hi, expected[i].range_hi));
    EXPECT_EQ(served[i].support_count, expected[i].support_count);
    EXPECT_EQ(served[i].hit_count, expected[i].hit_count);
    EXPECT_TRUE(BitEq(served[i].support, expected[i].support));
    EXPECT_TRUE(BitEq(served[i].confidence, expected[i].confidence));
  }
}

SessionRequest PairRequest(const std::string& table_dir,
                           const storage::Schema& schema) {
  SessionRequest request;
  request.table_dir = table_dir;
  request.options = SmallOptions();
  ServeQuery pair;
  pair.kind = ServeQuery::Kind::kPair;
  pair.attr_a = schema.NumericName(0);
  pair.attr_b = schema.BooleanName(0);
  request.queries = {pair};
  return request;
}

/// The process-wide registry every server under test reports into.
obs::MetricsSnapshot Registry() {
  return obs::MetricsRegistry::Default().Snapshot();
}

/// How far counter serve.<name> rose since `before`.
int64_t ServeDelta(const obs::MetricsSnapshot& before,
                   const std::string& name) {
  return obs::CounterDelta(before, Registry(), "serve." + name);
}

// ------------------------------------------------------ protocol codec ----

TEST(ServeProtocolTest, OpenSessionRoundTrip) {
  SessionRequest request;
  request.table_dir = "/data/tables/prod";
  request.options = SmallOptions();
  request.options.min_support = 0.07;
  request.deadline_ms = 1234;
  ServeQuery generalized;
  generalized.kind = ServeQuery::Kind::kGeneralized;
  generalized.attr_a = "balance";
  generalized.conditions = {"card_loan", "employed"};
  generalized.attr_b = "default";
  ServeQuery region;
  region.kind = ServeQuery::Kind::kRegion;
  region.attr_a = "age";
  region.attr_b = "balance";
  region.target = "card_loan";
  region.nx = 12;
  region.ny = 20;
  request.queries = {generalized, region};

  std::vector<uint8_t> payload;
  EncodeOpenSession(77, request, &payload);
  uint32_t session_id = 0;
  SessionRequest decoded;
  ASSERT_TRUE(DecodeOpenSession(payload, &session_id, &decoded).ok());
  EXPECT_EQ(session_id, 77u);
  EXPECT_EQ(decoded.table_dir, request.table_dir);
  EXPECT_EQ(decoded.deadline_ms, 1234);
  EXPECT_TRUE(BitEq(decoded.options.min_support, 0.07));
  ASSERT_EQ(decoded.queries.size(), 2u);
  EXPECT_EQ(decoded.queries[0].kind, ServeQuery::Kind::kGeneralized);
  EXPECT_EQ(decoded.queries[0].conditions,
            (std::vector<std::string>{"card_loan", "employed"}));
  EXPECT_EQ(decoded.queries[1].nx, 12);
  EXPECT_EQ(decoded.queries[1].ny, 20);
}

TEST(ServeProtocolTest, TruncatedOpenSessionNeverCrashes) {
  SessionRequest request;
  request.table_dir = "/data/tables/prod";
  request.options = SmallOptions();
  ServeQuery pair;
  pair.kind = ServeQuery::Kind::kPair;
  pair.attr_a = "age";
  pair.attr_b = "card_loan";
  request.queries = {pair};
  std::vector<uint8_t> payload;
  EncodeOpenSession(9, request, &payload);

  // Every truncation must fail cleanly, and the session id must survive
  // any truncation past the 5-byte prefix (the server addresses its error
  // frame with it).
  for (size_t len = 0; len < payload.size(); ++len) {
    uint32_t session_id = 0;
    SessionRequest decoded;
    const Status status = DecodeOpenSession(
        std::span<const uint8_t>(payload.data(), len), &session_id,
        &decoded);
    EXPECT_FALSE(status.ok()) << "truncation at " << len;
    if (len >= 5) {
      EXPECT_EQ(session_id, 9u);
    }
  }
}

TEST(ServeProtocolTest, HostileCountsRejectedBeforeAllocation) {
  // kOpenSession + session id + a table_dir whose length prefix claims
  // 2^60 bytes: the bounds-checked reader must fail, not allocate.
  std::vector<uint8_t> payload;
  bytes::AppendScalar<uint8_t>(
      &payload, static_cast<uint8_t>(ServeFrameKind::kOpenSession));
  bytes::AppendScalar<uint32_t>(&payload, 5);
  bytes::AppendScalar<uint64_t>(&payload, 1ull << 60);
  payload.push_back('x');
  uint32_t session_id = 0;
  SessionRequest decoded;
  const Status status = DecodeOpenSession(payload, &session_id, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(session_id, 5u);
}

TEST(ServeProtocolTest, ServeErrorRoundTrip) {
  std::vector<uint8_t> payload;
  EncodeServeError(31, Status::DeadlineExceeded("too slow"), &payload);
  uint32_t session_id = 0;
  Status carried;
  ASSERT_TRUE(DecodeServeError(payload, &session_id, &carried).ok());
  EXPECT_EQ(session_id, 31u);
  EXPECT_EQ(carried.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(carried.message(), "too slow");
}

TEST(ServeProtocolTest, MetricsReplyRoundTripIsBitExact) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["bufferpool.hits"] = 12345;
  snapshot.counters["serve.sessions_served"] = 2;
  snapshot.gauges["threadpool.queue_depth"] = 7.0;
  // Doubles must survive the wire bit-for-bit, including values that
  // compare equal under ==: -0.0 must not come back as +0.0.
  snapshot.gauges["serve.engines_cached"] = -0.0;
  obs::HistogramSnapshot hist;
  hist.bounds = {0.001, 0.1, 1.0};
  hist.bucket_counts = {4, 3, 2, 1};
  hist.count = 10;
  hist.sum = 1.25;
  snapshot.histograms["scan.locate_seconds"] = hist;
  obs::HistogramSnapshot empty_hist;
  empty_hist.bucket_counts = {0};  // zero bounds => one overflow bucket
  snapshot.histograms["empty.hist"] = empty_hist;

  std::vector<uint8_t> payload;
  EncodeMetricsReply(snapshot, &payload);
  obs::MetricsSnapshot decoded;
  ASSERT_TRUE(DecodeMetricsReply(payload, &decoded).ok());

  EXPECT_EQ(decoded.counters, snapshot.counters);
  ASSERT_EQ(decoded.gauges.size(), snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    ASSERT_TRUE(decoded.gauges.count(name)) << name;
    EXPECT_TRUE(BitEq(decoded.gauges[name], value)) << name;
  }
  ASSERT_EQ(decoded.histograms.size(), snapshot.histograms.size());
  for (const auto& [name, expected] : snapshot.histograms) {
    ASSERT_TRUE(decoded.histograms.count(name)) << name;
    const obs::HistogramSnapshot& got = decoded.histograms[name];
    ASSERT_EQ(got.bounds.size(), expected.bounds.size());
    for (size_t i = 0; i < got.bounds.size(); ++i) {
      EXPECT_TRUE(BitEq(got.bounds[i], expected.bounds[i]));
    }
    EXPECT_EQ(got.bucket_counts, expected.bucket_counts);
    EXPECT_EQ(got.count, expected.count);
    EXPECT_TRUE(BitEq(got.sum, expected.sum));
  }

  // Stable map order => re-encoding the decoded snapshot is byte-identical.
  std::vector<uint8_t> reencoded;
  EncodeMetricsReply(decoded, &reencoded);
  EXPECT_EQ(reencoded, payload);
}

TEST(ServeProtocolTest, MetricsReplyRejectsHostileAndTruncatedPayloads) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["a"] = 1;
  snapshot.gauges["g"] = 2.5;
  obs::HistogramSnapshot hist;
  hist.bounds = {1.0};
  hist.bucket_counts = {3, 4};
  hist.count = 7;
  hist.sum = 5.5;
  snapshot.histograms["h"] = hist;
  std::vector<uint8_t> payload;
  EncodeMetricsReply(snapshot, &payload);

  // Every strict prefix fails cleanly (the trailing-bytes check also
  // rejects suffix garbage below).
  for (size_t len = 0; len < payload.size(); ++len) {
    obs::MetricsSnapshot decoded;
    EXPECT_FALSE(DecodeMetricsReply(
                     std::span<const uint8_t>(payload.data(), len), &decoded)
                     .ok())
        << "truncation at " << len;
  }
  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0);
  obs::MetricsSnapshot decoded;
  EXPECT_EQ(DecodeMetricsReply(trailing, &decoded).code(),
            StatusCode::kCorruption);

  // A histogram whose bucket_counts disagree with its bounds is shape
  // corruption, not a crash.
  obs::MetricsSnapshot malformed;
  obs::HistogramSnapshot bad;
  bad.bounds = {1.0, 2.0};
  bad.bucket_counts = {1};  // needs bounds.size() + 1 == 3
  malformed.histograms["bad"] = bad;
  std::vector<uint8_t> bad_payload;
  EncodeMetricsReply(malformed, &bad_payload);
  EXPECT_EQ(DecodeMetricsReply(bad_payload, &decoded).code(),
            StatusCode::kCorruption);

  // A counter count claiming 2^60 entries must fail on its first
  // truncated entry, not allocate.
  std::vector<uint8_t> hostile;
  bytes::AppendScalar<uint8_t>(
      &hostile, static_cast<uint8_t>(ServeFrameKind::kMetricsReply));
  bytes::AppendScalar<uint64_t>(&hostile, 1ull << 60);
  hostile.push_back('x');
  EXPECT_FALSE(DecodeMetricsReply(hostile, &decoded).ok());
}

TEST(ServeProtocolTest, OptionsFingerprintSeparatesResultChangingFields) {
  rules::MinerOptions a = SmallOptions();
  rules::MinerOptions b = a;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.num_buckets = 33;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = a;
  b.min_support = 0.051;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = a;
  b.seed = 43;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
}

TEST(ServeProtocolTest, ValidateSessionOptionsBounds) {
  EXPECT_TRUE(ValidateSessionOptions(SmallOptions()).ok());
  rules::MinerOptions bad = SmallOptions();
  bad.num_buckets = 0;
  EXPECT_FALSE(ValidateSessionOptions(bad).ok());
  bad = SmallOptions();
  bad.num_buckets = 2'000'000;
  EXPECT_FALSE(ValidateSessionOptions(bad).ok());
  bad = SmallOptions();
  bad.sample_per_bucket = 0;
  EXPECT_FALSE(ValidateSessionOptions(bad).ok());
  bad = SmallOptions();
  bad.region_grid_buckets = 5000;
  EXPECT_FALSE(ValidateSessionOptions(bad).ok());
  bad = SmallOptions();
  bad.gk_epsilon = 1.5;
  EXPECT_FALSE(ValidateSessionOptions(bad).ok());
  bad = SmallOptions();
  bad.min_support = std::nan("");
  EXPECT_FALSE(ValidateSessionOptions(bad).ok());
  // Finite but outside [0, 1]: rejected too, never an engine CHECK.
  for (const double out_of_range : {1.5, -0.1}) {
    bad = SmallOptions();
    bad.min_support = out_of_range;
    EXPECT_EQ(ValidateSessionOptions(bad).code(),
              StatusCode::kInvalidArgument);
    bad = SmallOptions();
    bad.min_confidence = out_of_range;
    EXPECT_EQ(ValidateSessionOptions(bad).code(),
              StatusCode::kInvalidArgument);
  }
  rules::MinerOptions edge = SmallOptions();
  edge.min_support = 0.0;
  edge.min_confidence = 1.0;
  EXPECT_TRUE(ValidateSessionOptions(edge).ok());
}

TEST(ServeProtocolTest, ScanOptionsFingerprintIgnoresOnlyThresholds) {
  const rules::MinerOptions a = SmallOptions();
  rules::MinerOptions b = a;
  b.min_support = 0.051;
  b.min_confidence = 0.9;
  EXPECT_EQ(ScanOptionsFingerprint(a), ScanOptionsFingerprint(b));
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  const std::function<void(rules::MinerOptions&)> scan_shaping[] = {
      [](rules::MinerOptions& o) { o.num_buckets += 1; },
      [](rules::MinerOptions& o) { o.sample_per_bucket += 1; },
      [](rules::MinerOptions& o) { o.seed += 1; },
      [](rules::MinerOptions& o) {
        o.bucketizer = rules::Bucketizer::kExactSort;
      },
      [](rules::MinerOptions& o) { o.gk_epsilon = 0.01; },
      [](rules::MinerOptions& o) { o.region_grid_buckets += 1; },
  };
  for (const auto& change : scan_shaping) {
    rules::MinerOptions c = a;
    change(c);
    EXPECT_NE(ScanOptionsFingerprint(a), ScanOptionsFingerprint(c));
  }
}

// ---------------------------------------------- FrameWriter atomicity ----

// Regression for the concurrent-writer interleaving bug: WriteFrame on a
// shared fd is not atomic (length prefix and payload are separate writes),
// so multi-writer connections must serialize through dist::FrameWriter.
// Four threads hammer one socket; the reader validates every frame's
// internal consistency, which interleaved writes would destroy.
TEST(FrameWriterTest, ConcurrentWritersNeverInterleaveFrames) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  constexpr int kThreads = 4;
  constexpr int kFramesPerThread = 200;

  dist::FrameWriter writer(fds[0]);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&writer, t] {
      for (int i = 0; i < kFramesPerThread; ++i) {
        // Distinctive shape: byte 0 = thread, byte 1.. = a per-(t, i)
        // pattern over a varying length, so any mid-frame interleaving
        // corrupts either a length or a pattern.
        const size_t body = 1 + static_cast<size_t>((i * 37 + t * 101) % 2048);
        std::vector<uint8_t> payload(1 + body);
        payload[0] = static_cast<uint8_t>(t);
        const uint8_t fill = static_cast<uint8_t>((t * 31 + i) & 0xff);
        std::memset(payload.data() + 1, fill, body);
        ASSERT_TRUE(writer.Write(payload).ok());
      }
    });
  }

  std::vector<int> next_index(kThreads, 0);
  for (int received = 0; received < kThreads * kFramesPerThread;
       ++received) {
    std::vector<uint8_t> payload;
    ASSERT_TRUE(dist::ReadFrame(fds[1], &payload).ok());
    ASSERT_GE(payload.size(), 2u);
    const int t = payload[0];
    ASSERT_LT(t, kThreads);
    const int i = next_index[static_cast<size_t>(t)]++;
    ASSERT_LT(i, kFramesPerThread);
    const size_t body = 1 + static_cast<size_t>((i * 37 + t * 101) % 2048);
    ASSERT_EQ(payload.size(), 1 + body);
    const uint8_t fill = static_cast<uint8_t>((t * 31 + i) & 0xff);
    for (size_t b = 1; b < payload.size(); ++b) {
      ASSERT_EQ(payload[b], fill) << "frame of thread " << t << " seq " << i;
    }
  }
  for (std::thread& thread : writers) thread.join();
  close(fds[0]);
  close(fds[1]);
}

// ----------------------------------------------- coalescing correctness ----

TEST(MiningServerTest, CoalescesOverlappingAndDisjointSessionsBitIdentical) {
  const std::string root = TempDir("serve_coalesce");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 1500, 41);
  const storage::Schema& schema = table.schema();

  ServerOptions options;
  options.coalescing_window_ms = 150;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());
  const obs::MetricsSnapshot before = Registry();

  // Client A: the shared pair + a generalized query. Client B: the same
  // shared pair (overlap) + aggregate and region queries (disjoint).
  SessionRequest request_a = PairRequest(table_dir, schema);
  ServeQuery generalized;
  generalized.kind = ServeQuery::Kind::kGeneralized;
  generalized.attr_a = schema.NumericName(1);
  generalized.conditions = {schema.BooleanName(0)};
  generalized.attr_b = schema.BooleanName(1);
  request_a.queries.push_back(generalized);

  SessionRequest request_b = PairRequest(table_dir, schema);
  ServeQuery average;
  average.kind = ServeQuery::Kind::kAverageRange;
  average.attr_a = schema.NumericName(0);
  average.attr_b = schema.NumericName(2);
  average.threshold = 0.1;
  request_b.queries.push_back(average);
  ServeQuery region;
  region.kind = ServeQuery::Kind::kRegion;
  region.attr_a = schema.NumericName(0);
  region.attr_b = schema.NumericName(1);
  region.target = schema.BooleanName(0);
  request_b.queries.push_back(region);

  Result<SessionReply> reply_a = Status::Internal("unset");
  Result<SessionReply> reply_b = Status::Internal("unset");
  {
    std::thread tenant_a([&] {
      MiningClient client = Connect(server);
      reply_a = client.RunSession(request_a);
    });
    std::thread tenant_b([&] {
      MiningClient client = Connect(server);
      reply_b = client.RunSession(request_b);
    });
    tenant_a.join();
    tenant_b.join();
  }
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  ASSERT_TRUE(reply_b.ok()) << reply_b.status().ToString();

  // One coalescing window => ONE physical counting scan for both tenants.
  EXPECT_EQ(ServeDelta(before, "physical_scans"), 1);
  EXPECT_EQ(ServeDelta(before, "coalesced_sessions"), 1);
  EXPECT_EQ(ServeDelta(before, "sessions_served"), 2);
  EXPECT_EQ(ServeDelta(before, "batches_executed"), 1);

  // Same generation for both (one table publish).
  EXPECT_EQ(reply_a.value().generation, reply_b.value().generation);

  // Bit-identity against standalone engines over the same table+options.
  {
    rules::MiningEngine standalone(&table, SmallOptions());
    const auto& answers = reply_a.value().answers;
    ASSERT_EQ(answers.size(), 2u);
    ASSERT_TRUE(answers[0].status.ok());
    ExpectRulesEqual(answers[0].rules,
                     standalone
                         .MinePair(schema.NumericName(0),
                                   schema.BooleanName(0))
                         .value());
    ASSERT_TRUE(answers[1].status.ok());
    ExpectRulesEqual(answers[1].rules,
                     standalone
                         .MineGeneralized(schema.NumericName(1),
                                          {schema.BooleanName(0)},
                                          schema.BooleanName(1))
                         .value());
  }
  {
    rules::MiningEngine standalone(&table, SmallOptions());
    const auto& answers = reply_b.value().answers;
    ASSERT_EQ(answers.size(), 3u);
    ASSERT_TRUE(answers[0].status.ok());
    ExpectRulesEqual(answers[0].rules,
                     standalone
                         .MinePair(schema.NumericName(0),
                                   schema.BooleanName(0))
                         .value());
    ASSERT_TRUE(answers[1].status.ok());
    const rules::MinedAggregateRange expected_range =
        standalone
            .MineMaximumAverageRange(schema.NumericName(0),
                                     schema.NumericName(2), 0.1)
            .value();
    EXPECT_EQ(answers[1].aggregate.found, expected_range.found);
    EXPECT_TRUE(BitEq(answers[1].aggregate.average, expected_range.average));
    EXPECT_EQ(answers[1].aggregate.support_count,
              expected_range.support_count);
    ASSERT_TRUE(answers[2].status.ok());
    const rules::MinedRegion expected_region =
        standalone
            .MineOptimizedRegion(schema.NumericName(0),
                                 schema.NumericName(1),
                                 schema.BooleanName(0))
            .value();
    EXPECT_EQ(answers[2].region.found, expected_region.found);
    EXPECT_EQ(answers[2].region.confidence_rectangle.support_count,
              expected_region.confidence_rectangle.support_count);
    EXPECT_TRUE(BitEq(answers[2].region.xmonotone_gain.gain,
                      expected_region.xmonotone_gain.gain));
    EXPECT_EQ(answers[2].region.xmonotone_gain.column_ranges,
              expected_region.xmonotone_gain.column_ranges);
  }
  server.Stop();
}

TEST(MiningServerTest, CachedEngineAnswersSecondWindowWithoutRescan) {
  const std::string root = TempDir("serve_cache");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 600, 43);

  ServerOptions options;
  options.coalescing_window_ms = 10;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  const obs::MetricsSnapshot before = Registry();
  MiningClient client = Connect(server);
  const SessionRequest request = PairRequest(table_dir, table.schema());
  ASSERT_TRUE(client.RunSession(request).ok());
  ASSERT_TRUE(client.RunSession(request).ok());
  // Two windows, one scan: the second session was served from the cached
  // engine's channels.
  EXPECT_EQ(ServeDelta(before, "physical_scans"), 1);
  EXPECT_EQ(ServeDelta(before, "sessions_served"), 2);
  EXPECT_EQ(ServeDelta(before, "coalesced_sessions"), 1);
  EXPECT_GE(ServeDelta(before, "batches_executed"), 2);
  server.Stop();
}

// ------------------------------------------------------ fault isolation ----

TEST(MiningServerTest, HostileFramesFailOnlyTheOffendingSession) {
  const std::string root = TempDir("serve_hostile");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 500, 47);

  ServerOptions options;
  options.coalescing_window_ms = 100;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  // A well-formed session and, on a SECOND connection, a barrage of
  // hostile frames: truncated open-session, unknown kinds (the retired
  // 37/38 included), hostile count.
  std::vector<uint8_t> valid;
  EncodeOpenSession(1, PairRequest(table_dir, table.schema()), &valid);

  MiningClient hostile = Connect(server);
  // Truncated mid-request (keeps the id prefix).
  ASSERT_TRUE(
      hostile
          .SendRaw(std::span<const uint8_t>(valid.data(), valid.size() / 2))
          .ok());
  std::vector<uint8_t> reply;
  ASSERT_TRUE(hostile.ReadRaw(&reply).ok());
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], static_cast<uint8_t>(ServeFrameKind::kServeError));
  {
    uint32_t errored_id = 0;
    Status carried;
    ASSERT_TRUE(DecodeServeError(reply, &errored_id, &carried).ok());
    EXPECT_EQ(errored_id, 1u);
    EXPECT_FALSE(carried.ok());
  }
  // Unknown frame kinds: junk, and the two retired kinds 37 and 38 (once
  // a server-counter request / reply pair) -- each an error frame, never
  // a reply of another kind.
  for (const uint8_t kind : {uint8_t{0xEE}, uint8_t{37}, uint8_t{38}}) {
    const std::vector<uint8_t> junk = {kind, 1, 2, 3};
    ASSERT_TRUE(hostile.SendRaw(junk).ok());
    ASSERT_TRUE(hostile.ReadRaw(&reply).ok());
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply[0], static_cast<uint8_t>(ServeFrameKind::kServeError))
        << "kind " << int{kind};
    uint32_t errored_id = 1;
    Status carried;
    ASSERT_TRUE(DecodeServeError(reply, &errored_id, &carried).ok());
    EXPECT_EQ(errored_id, 0u);
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(hostile.Ping().ok());
  // A session against a table that does not exist.
  SessionRequest missing = PairRequest(root + "/no_such_table",
                                       table.schema());
  EXPECT_EQ(hostile.RunSession(missing).status().code(),
            StatusCode::kNotFound);
  // Malformed options (num_buckets = 0) must be rejected before reaching
  // any engine CHECK.
  SessionRequest bad_options = PairRequest(table_dir, table.schema());
  bad_options.options.num_buckets = 0;
  EXPECT_FALSE(hostile.RunSession(bad_options).ok());

  // The hostile connection is still alive, and an innocent client is
  // completely unaffected.
  EXPECT_TRUE(hostile.Ping().ok());
  MiningClient innocent = Connect(server);
  auto good = innocent.RunSession(PairRequest(table_dir, table.schema()));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good.value().answers.size(), 1u);
  EXPECT_TRUE(good.value().answers[0].status.ok());

  // An unknown attribute fails its QUERY, not the session or the batch.
  SessionRequest unknown_attr = PairRequest(table_dir, table.schema());
  unknown_attr.queries[0].attr_a = "no_such_attribute";
  auto mixed = innocent.RunSession(unknown_attr);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed.value().answers.size(), 1u);
  EXPECT_FALSE(mixed.value().answers[0].status.ok());
  server.Stop();
}

// ----------------------------------------------------- admission control ----

TEST(MiningServerTest, AdmissionControlRefusesBeyondTheBound) {
  const std::string root = TempDir("serve_admission");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 400, 51);

  ServerOptions options;
  options.max_pending_sessions = 1;
  options.coalescing_window_ms = 400;  // hold the first session queued
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());
  const obs::MetricsSnapshot before = Registry();

  const SessionRequest request = PairRequest(table_dir, table.schema());
  Result<SessionReply> first = Status::Internal("unset");
  std::thread holder([&] {
    MiningClient client = Connect(server);
    first = client.RunSession(request);
  });
  // Let the first session land in its window, then overflow the bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  MiningClient overflow = Connect(server);
  const Result<SessionReply> refused = overflow.RunSession(request);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);

  holder.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(ServeDelta(before, "sessions_rejected"), 1);
  EXPECT_EQ(ServeDelta(before, "rejected_admission"), 1);
  EXPECT_EQ(ServeDelta(before, "sessions_admitted"), 1);
  server.Stop();
}

TEST(MiningServerTest, QueueDeadlineFailsSessionBeforeScan) {
  const std::string root = TempDir("serve_deadline");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 400, 53);

  ServerOptions options;
  options.coalescing_window_ms = 250;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  const obs::MetricsSnapshot before = Registry();
  SessionRequest request = PairRequest(table_dir, table.schema());
  request.deadline_ms = 1;  // expires inside the 250 ms window
  MiningClient client = Connect(server);
  const Result<SessionReply> reply = client.RunSession(request);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ServeDelta(before, "physical_scans"), 0);
  EXPECT_EQ(ServeDelta(before, "rejected_queue_deadline"), 1);
  EXPECT_EQ(ServeDelta(before, "sessions_failed"), 1);
  server.Stop();
}

// ---------------------------------------------------- graceful shutdown ----

TEST(MiningServerTest, StopDrainsQueuedSessionsAndDefeatsWedgedClients) {
  const std::string root = TempDir("serve_shutdown");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 500, 59);

  ServerOptions options;
  options.coalescing_window_ms = 5'000;  // far longer than the test
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  const obs::MetricsSnapshot before = Registry();
  // A wedged client: connects, sends nothing, reads nothing, never
  // closes. Stop() must not wait on it.
  auto wedged = MiningClient::ConnectUnix(server.address());
  ASSERT_TRUE(wedged.ok());

  // Two queued sessions deep inside the long window.
  Result<SessionReply> reply_a = Status::Internal("unset");
  Result<SessionReply> reply_b = Status::Internal("unset");
  std::thread tenant_a([&] {
    MiningClient client = Connect(server);
    reply_a = client.RunSession(PairRequest(table_dir, table.schema()));
  });
  std::thread tenant_b([&] {
    MiningClient client = Connect(server);
    reply_b = client.RunSession(PairRequest(table_dir, table.schema()));
  });
  // Wait (bounded) until both sessions are queued, however slowly the
  // tenant threads get scheduled.
  for (int i = 0; i < 500 && ServeDelta(before, "sessions_admitted") < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto stop_begin = std::chrono::steady_clock::now();
  server.Stop();  // must drain the queued sessions, then return promptly
  const auto stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    stop_begin)
          .count();
  EXPECT_LT(stop_seconds, 8.0) << "Stop() hung on a wedged client";

  tenant_a.join();
  tenant_b.join();
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  ASSERT_TRUE(reply_b.ok()) << reply_b.status().ToString();
  // After Stop, the socket is gone: new connections must fail.
  EXPECT_FALSE(MiningClient::ConnectUnix(root + "/serve.sock").ok());
}

TEST(MiningServerTest, SessionsArrivingDuringShutdownAreRefused) {
  const std::string root = TempDir("serve_shutdown_refuse");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 400, 61);

  MiningServer server;
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());
  MiningClient client = Connect(server);
  ASSERT_TRUE(client.Ping().ok());
  server.Stop();
  // The connection was shut down server-side; the session cannot succeed.
  EXPECT_FALSE(client.RunSession(PairRequest(table_dir, table.schema()))
                   .ok());
}

// ------------------------------------------------- generation re-keying ----

TEST(MiningServerTest, RepublishedTableGetsNewGenerationAndRescan) {
  const std::string root = TempDir("serve_generation");
  const std::string table_dir = root + "/table";
  MakeTable(table_dir, 700, 63);

  ServerOptions options;
  options.coalescing_window_ms = 10;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  const obs::MetricsSnapshot registry_before = Registry();
  MiningClient client = Connect(server);
  const dist::PartitionedTable before =
      dist::PartitionedTable::Open(table_dir).value();
  auto first = client.RunSession(PairRequest(table_dir, before.schema()));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Republish: same directory, different rows => different manifest
  // bytes => a new generation that must NOT be answered from the old
  // engine's cache.
  MakeTable(table_dir, 900, 64);
  const dist::PartitionedTable after =
      dist::PartitionedTable::Open(table_dir).value();
  auto second = client.RunSession(PairRequest(table_dir, after.schema()));
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_NE(first.value().generation, second.value().generation);
  EXPECT_EQ(ServeDelta(registry_before, "physical_scans"), 2);
  EXPECT_EQ(ServeDelta(registry_before, "engine_cache_misses"), 2);

  // The new answers match a standalone engine over the NEW table.
  rules::MiningEngine standalone(&after, SmallOptions());
  ASSERT_EQ(second.value().answers.size(), 1u);
  ExpectRulesEqual(second.value().answers[0].rules,
                   standalone
                       .MinePair(after.schema().NumericName(0),
                                 after.schema().BooleanName(0))
                       .value());
  server.Stop();
}

// ------------------------------------------------------- stats + ping ----

TEST(MiningServerTest, PingAndMetricsOverTheWire) {
  const std::string root = TempDir("serve_metrics");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 400, 67);

  ServerOptions options;
  options.coalescing_window_ms = 10;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  MiningClient client = Connect(server);
  EXPECT_TRUE(client.Ping().ok());
  const Result<obs::MetricsSnapshot> before = client.Metrics();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(client.RunSession(PairRequest(table_dir, table.schema())).ok());
  EXPECT_TRUE(client.Ping().ok());
  const Result<obs::MetricsSnapshot> after = client.Metrics();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const auto delta = [&](const std::string& name) {
    return obs::CounterDelta(before.value(), after.value(), "serve." + name);
  };
  EXPECT_EQ(delta("sessions_admitted"), 1);
  EXPECT_EQ(delta("sessions_served"), 1);
  EXPECT_EQ(delta("sessions_failed"), 0);
  EXPECT_EQ(delta("physical_scans"), 1);
  EXPECT_EQ(delta("batches_executed"), 1);
  EXPECT_EQ(delta("engine_cache_misses"), 1);
  ASSERT_EQ(after.value().gauges.count("serve.engines_cached"), 1u);
  EXPECT_EQ(after.value().gauges.at("serve.engines_cached"), 1.0);
  server.Stop();
}

// A client that closes its socket before its reply arrives: the session
// was served -- its answers were computed and counted before the write --
// and its reply was lost, so over the server's lifetime
// serve.sessions_served and serve.sessions_failed each rise by one.
TEST(MiningServerTest, LostReplyCountsOneServedAndOneFailed) {
  const std::string root = TempDir("serve_lost_reply");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 400, 69);

  const obs::MetricsSnapshot before = Registry();
  ServerOptions options;
  options.coalescing_window_ms = 300;  // the client is gone long before
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());
  {
    MiningClient client = Connect(server);
    std::vector<uint8_t> open;
    EncodeOpenSession(1, PairRequest(table_dir, table.schema()), &open);
    ASSERT_TRUE(client.SendRaw(open).ok());
  }  // closes the socket while the session waits in its window
  for (int i = 0; i < 500 && ServeDelta(before, "sessions_failed") < 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();

  const obs::MetricsSnapshot after = Registry();
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.sessions_admitted"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.physical_scans"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.sessions_served"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.sessions_failed"), 1);
}

// ------------------------------------------------------ observability ----

bool FindAttribute(const obs::SpanRecord& span, std::string_view key,
                   double* out) {
  for (const auto& [name, value] : span.attributes) {
    if (name == key) {
      *out = value;
      return true;
    }
  }
  return false;
}

std::vector<obs::SpanRecord> SpansNamed(
    const std::vector<obs::SpanRecord>& spans, std::string_view name) {
  std::vector<obs::SpanRecord> matches;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) matches.push_back(span);
  }
  return matches;
}

// The registry mirrors the coordinator's folded BatchSourceStats exactly:
// after one engine scan over a quiet process, every integer counter delta
// equals the corresponding scan_stats() field bit-for-bit.
TEST(ObsIntegrationTest, RegistryMirrorsEngineScanStatsBitForBit) {
  const std::string root = TempDir("serve_obs_mirror");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 1200, 83);
  const storage::Schema& schema = table.schema();

  rules::MiningEngine engine(&table, SmallOptions());
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Default().Snapshot();
  ASSERT_TRUE(
      engine.MinePair(schema.NumericName(0), schema.BooleanName(0)).ok());
  const storage::BatchSourceStats stats = engine.scan_stats();
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Default().Snapshot();

  EXPECT_EQ(obs::CounterDelta(before, after, "bufferpool.hits"),
            stats.cache_hits);
  EXPECT_EQ(obs::CounterDelta(before, after, "bufferpool.misses"),
            stats.cache_misses);
  EXPECT_EQ(obs::CounterDelta(before, after, "storage.pages_skipped"),
            stats.pages_skipped);
  EXPECT_EQ(obs::CounterDelta(before, after, "dist.partitions_skipped"),
            stats.partitions_skipped);
  EXPECT_EQ(obs::CounterDelta(before, after, "dist.retries"), stats.retries);
  EXPECT_EQ(obs::CounterDelta(before, after, "dist.workers_respawned"),
            stats.workers_respawned);
  EXPECT_EQ(obs::CounterDelta(before, after, "dist.partitions_stolen"),
            stats.partitions_stolen);
  // One scan over every partition of the 3-way table.
  EXPECT_EQ(obs::CounterDelta(before, after, "dist.partition_scans") +
                obs::CounterDelta(before, after, "dist.partitions_skipped"),
            3);
}

// The end-to-end observability demo from the issue: two tenants coalesce
// into one serve window, which must produce ONE physical-scan trace tree
// (serve.window -> dist.scan -> per-partition dist.partition ->
// bucketing.scan with per-phase timings) and a wire-shipped registry
// snapshot that matches the server's local registry bit-for-bit and
// counts exactly this window's work.
TEST(MiningServerTest, TraceDemoCoalescedWindowOneScanTreeWireMetricsMatch) {
  const std::string root = TempDir("serve_trace_demo");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 1500, 79);
  const storage::Schema& schema = table.schema();

  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.set_enabled(true);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Default().Snapshot();

  ServerOptions options;
  options.coalescing_window_ms = 150;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  const SessionRequest request = PairRequest(table_dir, schema);
  Result<SessionReply> reply_a = Status::Internal("unset");
  Result<SessionReply> reply_b = Status::Internal("unset");
  {
    std::thread tenant_a([&] {
      MiningClient client = Connect(server);
      reply_a = client.RunSession(request);
    });
    std::thread tenant_b([&] {
      MiningClient client = Connect(server);
      reply_b = client.RunSession(request);
    });
    tenant_a.join();
    tenant_b.join();
  }
  // The window span closes on the scheduler thread just AFTER the replies
  // are written, so wait (bounded) for it to be recorded.
  for (int i = 0;
       i < 500 && SpansNamed(tracer.Snapshot(), "serve.window").empty();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  tracer.set_enabled(false);
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  ASSERT_TRUE(reply_b.ok()) << reply_b.status().ToString();

  // --- the trace tree: one window, one scan, one span per partition ---
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  const std::vector<obs::SpanRecord> windows =
      SpansNamed(spans, "serve.window");
  ASSERT_EQ(windows.size(), 1u) << "coalescing must yield ONE window";
  double sessions = 0.0;
  ASSERT_TRUE(FindAttribute(windows[0], "sessions", &sessions));
  EXPECT_EQ(sessions, 2.0);
  double window_scans = 0.0;
  ASSERT_TRUE(FindAttribute(windows[0], "physical_scans", &window_scans));
  EXPECT_EQ(window_scans, 1.0);

  const std::vector<obs::SpanRecord> scans = SpansNamed(spans, "dist.scan");
  ASSERT_EQ(scans.size(), 1u) << "both tenants must share ONE physical scan";
  EXPECT_EQ(scans[0].parent_id, windows[0].id);
  double partitions = 0.0;
  ASSERT_TRUE(FindAttribute(scans[0], "partitions", &partitions));
  EXPECT_EQ(partitions, 3.0);

  const std::vector<obs::SpanRecord> partition_spans =
      SpansNamed(spans, "dist.partition");
  ASSERT_EQ(partition_spans.size(), 3u);
  std::vector<double> partition_ids;
  for (const obs::SpanRecord& span : partition_spans) {
    EXPECT_EQ(span.parent_id, scans[0].id)
        << "partition spans must hang off the scan span across the "
           "thread boundary";
    double partition = -1.0;
    ASSERT_TRUE(FindAttribute(span, "partition", &partition));
    partition_ids.push_back(partition);
  }
  std::sort(partition_ids.begin(), partition_ids.end());
  EXPECT_EQ(partition_ids, (std::vector<double>{0.0, 1.0, 2.0}));

  // Each partition's counting pass traces under its partition span, and
  // the per-phase breakdown (locate/mask/scatter) rides as attributes.
  const std::vector<obs::SpanRecord> bucket_scans =
      SpansNamed(spans, "bucketing.scan");
  ASSERT_EQ(bucket_scans.size(), 3u);
  std::vector<uint64_t> partition_span_ids;
  for (const obs::SpanRecord& span : partition_spans) {
    partition_span_ids.push_back(span.id);
  }
  int spans_with_phases = 0;
  for (const obs::SpanRecord& span : bucket_scans) {
    EXPECT_NE(std::find(partition_span_ids.begin(), partition_span_ids.end(),
                        span.parent_id),
              partition_span_ids.end());
    double ignored = 0.0;
    if (FindAttribute(span, "locate_seconds", &ignored) &&
        FindAttribute(span, "mask_seconds", &ignored) &&
        FindAttribute(span, "scatter_seconds", &ignored)) {
      ++spans_with_phases;
    }
  }
  EXPECT_EQ(spans_with_phases, 3) << "phase timings missing from the trace";

  // --- wire-shipped metrics: bit-for-bit against the local registry ---
  MiningClient client = Connect(server);
  const Result<obs::MetricsSnapshot> wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const obs::MetricsSnapshot local =
      obs::MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(wire.value().counters, local.counters);
  ASSERT_EQ(wire.value().gauges.size(), local.gauges.size());
  for (const auto& [name, value] : local.gauges) {
    ASSERT_TRUE(wire.value().gauges.count(name)) << name;
    EXPECT_TRUE(BitEq(wire.value().gauges.at(name), value)) << name;
  }
  ASSERT_EQ(wire.value().histograms.size(), local.histograms.size());
  for (const auto& [name, expected] : local.histograms) {
    ASSERT_TRUE(wire.value().histograms.count(name)) << name;
    const obs::HistogramSnapshot& got = wire.value().histograms.at(name);
    EXPECT_EQ(got.bucket_counts, expected.bucket_counts) << name;
    EXPECT_EQ(got.count, expected.count) << name;
    EXPECT_TRUE(BitEq(got.sum, expected.sum)) << name;
  }

  // --- and exactly this window's work: two sessions, one scan ---
  const obs::MetricsSnapshot& after = wire.value();
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.sessions_admitted"), 2);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.sessions_served"), 2);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.physical_scans"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.coalesced_sessions"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.batches_executed"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.engine_cache_hits"), 0);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.engine_cache_misses"), 1);

  // Per-tenant counter: both sessions shared one options fingerprint.
  char tenant_counter[64];
  std::snprintf(tenant_counter, sizeof(tenant_counter),
                "serve.tenant.%016llx.sessions_served",
                static_cast<unsigned long long>(
                    OptionsFingerprint(SmallOptions())));
  EXPECT_EQ(obs::CounterDelta(before, after, tenant_counter), 2);

  tracer.Clear();
  server.Stop();
}

TEST(MiningServerTest, TcpListenerServesSessions) {
  const std::string root = TempDir("serve_tcp");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 400, 71);

  ServerOptions options;
  options.coalescing_window_ms = 10;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_NE(server.port(), 0);
  ASSERT_TRUE(server.Start().ok());

  auto client_or = MiningClient::ConnectTcp(server.port());
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  MiningClient client = std::move(client_or).value();
  client.set_timeouts({.liveness_ms = 0, .total_ms = 60'000});
  auto reply = client.RunSession(PairRequest(table_dir, table.schema()));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  server.Stop();
}

// ------------------------------------------- per-session thresholds ----

/// A session with every query kind whose answer depends on the session
/// thresholds, plus an aggregate query.
SessionRequest ThresholdRequest(const std::string& table_dir,
                                const storage::Schema& schema,
                                double min_support, double min_confidence) {
  SessionRequest request = PairRequest(table_dir, schema);
  request.options.min_support = min_support;
  request.options.min_confidence = min_confidence;
  ServeQuery all_pairs;
  all_pairs.kind = ServeQuery::Kind::kAllPairs;
  ServeQuery generalized;
  generalized.kind = ServeQuery::Kind::kGeneralized;
  generalized.attr_a = schema.NumericName(1);
  generalized.conditions = {schema.BooleanName(0)};
  generalized.attr_b = schema.BooleanName(1);
  ServeQuery region;
  region.kind = ServeQuery::Kind::kRegion;
  region.attr_a = schema.NumericName(0);
  region.attr_b = schema.NumericName(2);
  region.target = schema.BooleanName(1);
  ServeQuery average;
  average.kind = ServeQuery::Kind::kAverageRange;
  average.attr_a = schema.NumericName(2);
  average.attr_b = schema.NumericName(1);
  average.threshold = 0.1;
  request.queries.insert(request.queries.end(),
                         {all_pairs, generalized, region, average});
  return request;
}

/// `reply` must equal, byte for byte on the wire, the answers of a
/// standalone engine constructed with the session's own options --
/// thresholds included -- and queried through the no-threshold calls.
void ExpectEqualsStandaloneEngine(const dist::PartitionedTable& table,
                                  const SessionRequest& request,
                                  const SessionReply& reply) {
  rules::MiningEngine engine(&table, request.options);
  SessionReply expected;
  expected.session_id = reply.session_id;
  expected.generation = reply.generation;
  expected.coalesced = reply.coalesced;
  for (const ServeQuery& query : request.queries) {
    QueryAnswer answer;
    switch (query.kind) {
      case ServeQuery::Kind::kAllPairs:
        answer.rules = engine.MineAllPairs();
        break;
      case ServeQuery::Kind::kPair:
        answer.rules = engine.MinePair(query.attr_a, query.attr_b).value();
        break;
      case ServeQuery::Kind::kGeneralized:
        answer.rules = engine
                           .MineGeneralized(query.attr_a, query.conditions,
                                            query.attr_b)
                           .value();
        break;
      case ServeQuery::Kind::kAverageRange:
        answer.aggregate = engine
                               .MineMaximumAverageRange(
                                   query.attr_a, query.attr_b,
                                   query.threshold)
                               .value();
        break;
      case ServeQuery::Kind::kSupportRange:
        answer.aggregate = engine
                               .MineMaximumSupportRange(
                                   query.attr_a, query.attr_b,
                                   query.threshold)
                               .value();
        break;
      case ServeQuery::Kind::kRegion:
        answer.region = engine
                            .MineOptimizedRegion(query.attr_a, query.attr_b,
                                                 query.target)
                            .value();
        break;
    }
    expected.answers.push_back(std::move(answer));
  }
  std::vector<uint8_t> got_bytes;
  std::vector<uint8_t> expected_bytes;
  EncodeSessionResult(reply, &got_bytes);
  EncodeSessionResult(expected, &expected_bytes);
  EXPECT_EQ(got_bytes, expected_bytes)
      << "min_support " << request.options.min_support
      << " min_confidence " << request.options.min_confidence;
}

// Sessions that differ only in min_support / min_confidence share ONE
// coalesced scan and ONE cached engine, and each is answered at its own
// thresholds.
TEST(MiningServerTest, ThresholdOnlySessionsShareOneScanAndOneEngine) {
  const std::string root = TempDir("serve_thresholds");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 1500, 59);
  const storage::Schema& schema = table.schema();

  ServerOptions options;
  options.coalescing_window_ms = 150;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Default().Snapshot();

  // One window: three tenants at three threshold sets.
  const SessionRequest window[] = {
      ThresholdRequest(table_dir, schema, 0.013, 0.31),
      ThresholdRequest(table_dir, schema, 0.17, 0.62),
      ThresholdRequest(table_dir, schema, 0.41, 0.93)};
  std::vector<Result<SessionReply>> replies(
      std::size(window), Status::Internal("unset"));
  {
    std::vector<std::thread> tenants;
    for (size_t i = 0; i < std::size(window); ++i) {
      tenants.emplace_back([&, i] {
        MiningClient client = Connect(server);
        replies[i] = client.RunSession(window[i]);
      });
    }
    for (std::thread& tenant : tenants) tenant.join();
  }
  EXPECT_EQ(ServeDelta(before, "batches_executed"), 1);
  EXPECT_EQ(ServeDelta(before, "physical_scans"), 1);
  EXPECT_EQ(ServeDelta(before, "engine_cache_misses"), 1);
  EXPECT_EQ(ServeDelta(before, "coalesced_sessions"), 2);
  for (size_t i = 0; i < std::size(window); ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].status().ToString();
    for (const QueryAnswer& answer : replies[i].value().answers) {
      EXPECT_TRUE(answer.status.ok()) << answer.status.ToString();
    }
    ExpectEqualsStandaloneEngine(table, window[i], replies[i].value());
  }
  // The thresholds did change the answers (else this test shows nothing).
  EXPECT_NE(replies[0].value().answers[1].rules[0].support_count,
            replies[2].value().answers[1].rules[0].support_count);

  // Six more threshold sets, one window each: all hit the cached engine.
  MiningClient client = Connect(server);
  const double later[][2] = {{0.0, 0.0},  {0.02, 0.4}, {0.07, 0.55},
                             {0.25, 0.8}, {0.6, 0.99}, {1.0, 1.0}};
  for (const auto& [min_support, min_confidence] : later) {
    const SessionRequest request =
        ThresholdRequest(table_dir, schema, min_support, min_confidence);
    const Result<SessionReply> reply = client.RunSession(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ExpectEqualsStandaloneEngine(table, request, reply.value());
  }
  // One cache lookup per window: the first missed, the six later hit.
  const obs::MetricsSnapshot after = Registry();
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.engine_cache_misses"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.engine_cache_hits"), 6);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.physical_scans"), 1);
  EXPECT_EQ(obs::CounterDelta(before, after, "serve.sessions_served"), 9);

  // Per-tenant counters still count by the full options fingerprint.
  for (const SessionRequest& request : window) {
    char tenant_counter[64];
    std::snprintf(tenant_counter, sizeof(tenant_counter),
                  "serve.tenant.%016llx.sessions_served",
                  static_cast<unsigned long long>(
                      OptionsFingerprint(request.options)));
    EXPECT_EQ(obs::CounterDelta(before, after, tenant_counter), 1);
  }
  server.Stop();
}

// A finite threshold outside [0, 1] is the session's fault alone: an
// error frame, and the same connection keeps serving.
TEST(MiningServerTest, OutOfRangeSessionThresholdIsAnErrorFrameNotAnAbort) {
  const std::string root = TempDir("serve_bad_threshold");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 500, 61);

  ServerOptions options;
  options.coalescing_window_ms = 10;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());
  const obs::MetricsSnapshot before = Registry();

  MiningClient client = Connect(server);
  for (const double bad : {1.5, -0.1}) {
    SessionRequest request = PairRequest(table_dir, table.schema());
    request.options.min_support = bad;
    EXPECT_EQ(client.RunSession(request).status().code(),
              StatusCode::kInvalidArgument);
    request = PairRequest(table_dir, table.schema());
    request.options.min_confidence = bad;
    EXPECT_EQ(client.RunSession(request).status().code(),
              StatusCode::kInvalidArgument);
  }
  const SessionRequest valid = PairRequest(table_dir, table.schema());
  const Result<SessionReply> reply = client.RunSession(valid);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().answers.size(), 1u);
  EXPECT_TRUE(reply.value().answers[0].status.ok());
  ExpectEqualsStandaloneEngine(table, valid, reply.value());
  EXPECT_EQ(ServeDelta(before, "sessions_failed"), 4);
  EXPECT_EQ(ServeDelta(before, "sessions_served"), 1);
  server.Stop();
}

// A bad per-query aggregate threshold fails that query alone; the
// session's other answers are unaffected.
TEST(MiningServerTest, BadAggregateThresholdFailsOnlyItsQuery) {
  const std::string root = TempDir("serve_bad_aggregate");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 800, 67);
  const storage::Schema& schema = table.schema();

  ServerOptions options;
  options.coalescing_window_ms = 10;
  MiningServer server(options);
  ASSERT_TRUE(server.ListenUnix(root + "/serve.sock").ok());
  ASSERT_TRUE(server.Start().ok());

  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  SessionRequest request = PairRequest(table_dir, schema);
  const auto aggregate = [&](ServeQuery::Kind kind, double threshold) {
    ServeQuery query;
    query.kind = kind;
    query.attr_a = schema.NumericName(1);
    query.attr_b = schema.NumericName(2);
    query.threshold = threshold;
    request.queries.push_back(query);
  };
  // Queries 1-3: bad average-range support; 4-6: non-finite support-range
  // average; 7-8: valid aggregates of both kinds.
  for (const double bad : {1.5, -0.1, nan}) {
    aggregate(ServeQuery::Kind::kAverageRange, bad);
  }
  for (const double bad : {nan, inf, -inf}) {
    aggregate(ServeQuery::Kind::kSupportRange, bad);
  }
  aggregate(ServeQuery::Kind::kAverageRange, 0.1);
  aggregate(ServeQuery::Kind::kSupportRange, 4e5);

  MiningClient client = Connect(server);
  const Result<SessionReply> reply = client.RunSession(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const std::vector<QueryAnswer>& answers = reply.value().answers;
  ASSERT_EQ(answers.size(), 9u);
  EXPECT_TRUE(answers[0].status.ok());
  for (size_t i = 1; i <= 6; ++i) {
    EXPECT_EQ(answers[i].status.code(), StatusCode::kInvalidArgument)
        << "query " << i;
  }
  EXPECT_TRUE(answers[7].status.ok());
  EXPECT_TRUE(answers[8].status.ok());

  // The good answers equal a standalone engine's.
  SessionRequest good = request;
  good.queries = {request.queries[0], request.queries[7],
                  request.queries[8]};
  SessionReply good_reply = reply.value();
  good_reply.answers = {answers[0], answers[7], answers[8]};
  ExpectEqualsStandaloneEngine(table, good, good_reply);

  // And the daemon is still up for the next session.
  EXPECT_TRUE(client.RunSession(PairRequest(table_dir, schema)).ok());
  server.Stop();
}

// ------------------------------------------------- the real daemon ----

// Boots the optrules_served binary on an ephemeral socket, runs a client
// session against it, and SIGTERMs it: the graceful path must drain and
// exit 0. Exercises the same LISTENING-handshake contract the check-serve
// lane and operators rely on.
TEST(ServedDaemonTest, BootServeSigtermExitsZero) {
  const char* daemon = std::getenv("OPTRULES_SERVED");
  if (daemon == nullptr || daemon[0] == '\0') {
    GTEST_SKIP() << "OPTRULES_SERVED not set; run under ctest";
  }
  const std::string root = TempDir("serve_daemon");
  const std::string table_dir = root + "/table";
  const dist::PartitionedTable table = MakeTable(table_dir, 500, 73);
  const std::string socket_path = root + "/d.sock";

  int out_pipe[2];
  ASSERT_EQ(pipe(out_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    const std::string socket_arg = "--socket=" + socket_path;
    execl(daemon, daemon, socket_arg.c_str(), "--window-ms=10", nullptr);
    _exit(127);
  }
  close(out_pipe[1]);

  // Wait for the LISTENING handshake line.
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos) {
    const ssize_t n = read(out_pipe[0], &c, 1);
    if (n <= 0) break;
    banner.push_back(c);
  }
  ASSERT_NE(banner.find("LISTENING " + socket_path), std::string::npos)
      << "daemon banner: " << banner;

  {
    auto client_or = MiningClient::ConnectUnix(socket_path);
    ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
    MiningClient client = std::move(client_or).value();
    client.set_timeouts({.liveness_ms = 0, .total_ms = 60'000});
    auto reply = client.RunSession(PairRequest(table_dir, table.schema()));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.value().answers.size(), 1u);
    EXPECT_TRUE(reply.value().answers[0].status.ok());
  }

  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int wait_status = 0;
  ASSERT_EQ(waitpid(pid, &wait_status, 0), pid);
  EXPECT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  close(out_pipe[0]);
}

}  // namespace
}  // namespace optrules::serve
