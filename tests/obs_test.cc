// Tests of the observability subsystem (src/obs/): registry correctness
// under concurrency (monotone snapshots while N threads hammer the
// instruments -- the check-tsan lane leans on these), export encodings,
// tracer ring-buffer bounds, span parentage within a thread and across an
// explicit ScopedParent thread boundary, and the disabled-registry
// contract (a flipped switch records nothing, and instrument activity on
// the scan hot path stays O(batches + shards), never O(rows)), and the
// mining engine's traced, counted boundary-planning passes.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/parallel_count.h"
#include "common/rng.h"
#include "datagen/table_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/miner.h"
#include "storage/columnar_batch.h"

namespace optrules::obs {
namespace {

TEST(Counter, AddAndValue) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(counter->Value(), 0);
  counter->Add();
  counter->Add(41);
  EXPECT_EQ(counter->Value(), 42);
  // Same name, same instrument.
  EXPECT_EQ(registry.GetCounter("test.counter"), counter);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(7.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 7.5);
  gauge->Add(2.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 10.0);
}

TEST(Histogram, BucketAssignment) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  hist->Observe(0.5);    // <= 1.0
  hist->Observe(1.0);    // inclusive upper bound
  hist->Observe(5.0);    // <= 10.0
  hist->Observe(1000.0);  // overflow bucket
  const HistogramSnapshot snapshot = hist->Snapshot();
  ASSERT_EQ(snapshot.bounds.size(), 3u);
  ASSERT_EQ(snapshot.bucket_counts.size(), 4u);
  EXPECT_EQ(snapshot.bucket_counts[0], 2);
  EXPECT_EQ(snapshot.bucket_counts[1], 1);
  EXPECT_EQ(snapshot.bucket_counts[2], 0);
  EXPECT_EQ(snapshot.bucket_counts[3], 1);
  EXPECT_EQ(snapshot.count, 4);
  EXPECT_DOUBLE_EQ(snapshot.sum, 1006.5);
}

TEST(Histogram, EmptyBoundsSelectDefaultLatencyBounds) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test.latency");
  EXPECT_EQ(hist->bounds(), Histogram::DefaultLatencyBounds());
}

TEST(MetricsSnapshot, StableOrderedExports) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Add(2);
  registry.GetCounter("a.counter")->Add(1);
  registry.GetGauge("g.gauge")->Set(3.0);
  registry.GetHistogram("h.hist", {1.0})->Observe(0.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string text = snapshot.ToText();
  // std::map ordering: a.counter strictly before b.counter.
  EXPECT_LT(text.find("counter a.counter 1"),
            text.find("counter b.counter 2"));
  EXPECT_NE(text.find("gauge g.gauge 3"), std::string::npos);
  EXPECT_NE(text.find("histogram h.hist count=1"), std::string::npos);
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"a.counter\":1"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Two snapshots of unchanged instruments encode byte-identically.
  EXPECT_EQ(json, registry.Snapshot().ToJson());
}

// N writer threads hammer one counter and one histogram while the main
// thread snapshots continuously: every successive snapshot must be
// monotone non-decreasing (counters and histogram buckets only ever gain),
// and the final values must equal the exact totals. TSan runs this too.
TEST(MetricsConcurrency, MonotoneSnapshotsUnderHammer) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hammer.counter");
  Histogram* hist = registry.GetHistogram("hammer.hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 100000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter->Add();
        hist->Observe(t % 2 == 0 ? 0.25 : 0.75);
      }
      running.fetch_sub(1);
    });
  }
  int64_t last_counter = 0;
  int64_t last_hist_count = 0;
  while (running.load() > 0) {
    const int64_t counter_now = counter->Value();
    const HistogramSnapshot hist_now = hist->Snapshot();
    EXPECT_GE(counter_now, last_counter);
    EXPECT_GE(hist_now.count, last_hist_count);
    EXPECT_EQ(hist_now.bucket_counts[0] + hist_now.bucket_counts[1],
              hist_now.count);
    last_counter = counter_now;
    last_hist_count = hist_now.count;
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kIncrementsPerThread);
  const HistogramSnapshot final_snapshot = hist->Snapshot();
  EXPECT_EQ(final_snapshot.count, int64_t{kThreads} * kIncrementsPerThread);
  EXPECT_EQ(final_snapshot.bucket_counts[0],
            final_snapshot.bucket_counts[1]);
}

// Flipping the process switch off must make every Add/Observe a no-op
// (Value/Snapshot keep working), and flipping it back restores recording.
TEST(MetricsDisabled, SwitchGatesAllUpdates) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("gated.counter");
  Gauge* gauge = registry.GetGauge("gated.gauge");
  Histogram* hist = registry.GetHistogram("gated.hist", {1.0});
  counter->Add(5);
  SetMetricsEnabled(false);
  counter->Add(100);
  gauge->Set(9.0);
  hist->Observe(0.5);
  EXPECT_EQ(counter->Value(), 5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(hist->Snapshot().count, 0);
  SetMetricsEnabled(true);
  counter->Add(1);
  EXPECT_EQ(counter->Value(), 6);
}

// The overhead smoke test: a full counting scan over R rows may move the
// scan-layer instruments only by O(1) per scan/shard -- the registry's
// default instruments must NOT be incremented per row, or the <= 2%
// hot-path overhead budget is unmeetable. Measured as counter deltas, not
// wall time, so the assertion is deterministic.
TEST(MetricsDisabled, ScanActivityIsNotPerRow) {
  datagen::TableConfig config;
  config.num_rows = 50000;
  config.num_numeric = 2;
  config.num_boolean = 2;
  Rng rng(77);
  const storage::Relation table = datagen::GenerateTable(config, rng);
  bucketing::BoundaryPlan boundary_plan;
  boundary_plan.num_buckets = 64;
  const bucketing::BucketBoundaries boundaries =
      bucketing::BuildBoundaries(table.NumericColumn(0), boundary_plan, 1);
  bucketing::MultiCountSpec spec;
  spec.num_targets = 2;
  bucketing::CountChannel channel;
  channel.column = 0;
  channel.boundaries = &boundaries;
  spec.channels.push_back(std::move(channel));

  MetricsRegistry& registry = MetricsRegistry::Default();
  const MetricsSnapshot before = registry.Snapshot();
  storage::RelationBatchSource source(&table);
  bucketing::MultiCountPlan plan(spec);
  bucketing::ExecuteMultiCount(source, &plan, nullptr);
  const MetricsSnapshot after = registry.Snapshot();

  int64_t counter_delta = 0;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    counter_delta += value - (it == before.counters.end() ? 0 : it->second);
  }
  int64_t observe_delta = 0;
  for (const auto& [name, hist] : after.histograms) {
    const auto it = before.histograms.find(name);
    observe_delta +=
        hist.count - (it == before.histograms.end() ? 0 : it->second.count);
  }
  // One serial scan: a handful of counter bumps and phase observations,
  // nowhere near the 50k rows scanned.
  EXPECT_GT(counter_delta, 0);  // scan.executions fired
  EXPECT_LT(counter_delta + observe_delta, 100);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer(/*capacity=*/8);
  {
    Span span(&tracer, "ignored");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(Trace, NestedSpansFormTreeOnOneThread) {
  Tracer tracer(/*capacity=*/16);
  tracer.set_enabled(true);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    Span outer(&tracer, "outer");
    outer_id = outer.id();
    outer.AddAttribute("rows", 42.0);
    {
      Span inner(&tracer, "inner");
      inner_id = inner.id();
    }
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Oldest first: inner finished before outer.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
  ASSERT_EQ(spans[1].attributes.size(), 1u);
  EXPECT_EQ(spans[1].attributes[0].first, "rows");
  const std::string json = tracer.ToJson();
  // The tree nests inner under outer's children.
  EXPECT_LT(json.find("\"outer\""), json.find("\"inner\""));
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

// The scheduler-to-worker seam: a parent span's id crosses a real thread
// boundary via ScopedParent, and the spans created on the worker thread
// land under it -- the linkage the coordinator and thread-pool shards use.
TEST(Trace, ScopedParentLinksAcrossThreadBoundary) {
  Tracer tracer(/*capacity=*/16);
  tracer.set_enabled(true);
  uint64_t parent_id = 0;
  {
    Span parent(&tracer, "scheduler.window");
    parent_id = parent.id();
    std::thread worker([&] {
      // Without the ScopedParent this thread has no current span.
      EXPECT_EQ(Tracer::CurrentSpanId(), 0u);
      ScopedParent link(parent_id);
      EXPECT_EQ(Tracer::CurrentSpanId(), parent_id);
      Span child(&tracer, "worker.partition");
      EXPECT_NE(child.id(), 0u);
    });
    worker.join();
    // The worker's ScopedParent restored this-thread state untouched.
    EXPECT_EQ(Tracer::CurrentSpanId(), parent_id);
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "worker.partition");
  EXPECT_EQ(spans[0].parent_id, parent_id);
  EXPECT_EQ(spans[1].name, "scheduler.window");
}

TEST(Trace, RingBufferBoundsMemoryAndCountsDrops) {
  Tracer tracer(/*capacity=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    Span span(&tracer, "span" + std::to_string(i));
  }
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Newest 4 survive, oldest first.
  EXPECT_EQ(spans[0].name, "span6");
  EXPECT_EQ(spans[3].name, "span9");
  EXPECT_EQ(tracer.dropped_spans(), 6u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

// Orphaned children (parent overwritten by the ring) are promoted to
// roots: ToJson always emits a well-formed forest.
TEST(Trace, OrphanedSpansPromoteToRoots) {
  Tracer tracer(/*capacity=*/2);
  tracer.set_enabled(true);
  {
    Span outer(&tracer, "evicted.parent");
    { Span a(&tracer, "child.a"); }
    { Span b(&tracer, "child.b"); }
    { Span c(&tracer, "child.c"); }
  }  // outer's record lands last; child.a fell off the ring
  const std::string json = tracer.ToJson();
  EXPECT_EQ(json.find("child.a"), std::string::npos);
  EXPECT_NE(json.find("evicted.parent"), std::string::npos);
  EXPECT_NE(json.find("child.c"), std::string::npos);
}

// The boundary-planning pass is a full data pass, so it is traced and
// counted like the counting scan: one `engine.plan` span (a sibling of the
// scan, never its parent) and one `engine.planning_passes` bump per
// planning pass. A late registration plans only when it needs a bucket
// count with no boundary set yet.
TEST(EngineObservability, PlanningPassesAreTracedAndCounted) {
  datagen::TableConfig config;
  config.num_rows = 20000;
  config.num_numeric = 3;
  config.num_boolean = 2;
  Rng rng(78);
  const storage::Relation table = datagen::GenerateTable(config, rng);
  storage::RelationBatchSource source(&table);
  rules::MinerOptions options;
  options.num_buckets = 32;
  rules::MiningEngine engine(&source, table.schema(), options);

  Counter* passes =
      MetricsRegistry::Default().GetCounter("engine.planning_passes");
  Tracer& tracer = Tracer::Default();
  tracer.Clear();
  tracer.set_enabled(true);
  const int64_t before = passes->Value();
  uint64_t prepare_id = 0;
  {
    Span prepare("test.prepare");
    prepare_id = prepare.id();
    ASSERT_TRUE(engine.TryPrepare().ok());
  }
  EXPECT_EQ(passes->Value(), before + 1);
  // Aggregate targets bucket through the base set: no planning pass.
  ASSERT_TRUE(engine.RequestAverageTarget("num1").ok());
  EXPECT_EQ(passes->Value(), before + 1);
  // A region grid at a new bucket count pays one pass; a second pair on
  // the already-planned (attribute, count) slots pays only its scan.
  ASSERT_TRUE(engine.RequestRegionPair("num0", "num1", 8, 8).ok());
  EXPECT_EQ(passes->Value(), before + 2);
  ASSERT_TRUE(engine.RequestRegionPair("num1", "num0", 8, 8).ok());
  EXPECT_EQ(passes->Value(), before + 2);
  tracer.set_enabled(false);
  const std::vector<SpanRecord> spans = tracer.Snapshot();
  tracer.Clear();

  std::vector<uint64_t> plan_ids;
  int prepare_plans = 0;
  int prepare_scans = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "engine.plan") {
      plan_ids.push_back(span.id);
      if (span.parent_id != prepare_id) continue;
      ++prepare_plans;
      // S = 40 samples per bucket for each of the 3 planned columns.
      ASSERT_EQ(span.attributes.size(), 1u);
      EXPECT_EQ(span.attributes[0].first, "rows_sampled");
      EXPECT_EQ(span.attributes[0].second, 3.0 * 40 * 32);
    }
    if (span.name == "bucketing.scan" && span.parent_id == prepare_id) {
      ++prepare_scans;
    }
  }
  EXPECT_EQ(plan_ids.size(), 2u);
  EXPECT_EQ(prepare_plans, 1);
  EXPECT_EQ(prepare_scans, 1);
  // Planning never nests a scan span, and no scan hangs under a plan.
  for (const SpanRecord& span : spans) {
    for (const uint64_t plan_id : plan_ids) {
      EXPECT_NE(span.parent_id, plan_id) << span.name;
    }
  }
}

}  // namespace
}  // namespace optrules::obs
