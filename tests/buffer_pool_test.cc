// Tests of the shared LRU buffer pool (src/storage/buffer_pool.h) and of
// the pooled read path built on it: hit/miss/eviction accounting, load
// deduplication, the soft capacity budget (pinned frames are never
// evicted, so concurrent pinned readers overshoot instead of
// deadlocking), capacity-1 thrash, file-generation invalidation, and the
// acceptance invariant -- paged scans of every flavor sharing one pool are
// bit-identical to the same schedule over the in-memory relation.
//
// The concurrency tests here are the ones check-tsan/check-asan lean on:
// many threads pin, thrash, and evict against one pool while pooled
// double-buffered readers (each with its own prefetch thread) stream the
// same file.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/parallel_count.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/table_generator.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace optrules::storage {
namespace {

using bucketing::BucketBoundaries;
using bucketing::CountChannel;
using bucketing::MultiCountPlan;
using bucketing::MultiCountSpec;

constexpr size_t kPageBytes = 512;

/// Loader producing a deterministic pattern per (file, page) and counting
/// its invocations -- no real file needed for the pool-core tests.
BufferPool::Loader PatternLoader(uint64_t file_id, int64_t page,
                                 std::atomic<int>* loads = nullptr) {
  return [file_id, page, loads](uint8_t* dest) {
    if (loads != nullptr) loads->fetch_add(1);
    for (size_t i = 0; i < kPageBytes; ++i) {
      dest[i] = static_cast<uint8_t>((file_id * 131 +
                                      static_cast<uint64_t>(page) * 31 + i) &
                                     0xff);
    }
    return Status::Ok();
  };
}

void ExpectPattern(const BufferPool::Pin& pin, uint64_t file_id,
                   int64_t page) {
  ASSERT_TRUE(pin);
  ASSERT_EQ(pin.size(), kPageBytes);
  for (size_t i = 0; i < kPageBytes; ++i) {
    ASSERT_EQ(pin.data()[i],
              static_cast<uint8_t>((file_id * 131 +
                                    static_cast<uint64_t>(page) * 31 + i) &
                                   0xff))
        << "file " << file_id << " page " << page << " byte " << i;
  }
}

TEST(BufferPoolTest, FetchCachesAndCountsHitsAndMisses) {
  BufferPool pool(8 * kPageBytes);
  std::atomic<int> loads{0};
  bool was_hit = true;
  Result<BufferPool::Pin> first =
      pool.Fetch(1, 0, kPageBytes, PatternLoader(1, 0, &loads), &was_hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(was_hit);
  ExpectPattern(first.value(), 1, 0);
  first.value().Reset();

  Result<BufferPool::Pin> second =
      pool.Fetch(1, 0, kPageBytes, PatternLoader(1, 0, &loads), &was_hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(was_hit);
  ExpectPattern(second.value(), 1, 0);
  EXPECT_EQ(loads.load(), 1);

  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(pool.bytes_used(), kPageBytes);
}

TEST(BufferPoolTest, LoaderFailureLeavesNoFrameBehind) {
  BufferPool pool(8 * kPageBytes);
  const BufferPool::Loader failing = [](uint8_t*) {
    return Status::IoError("injected");
  };
  EXPECT_FALSE(pool.Fetch(1, 0, kPageBytes, failing).ok());
  EXPECT_EQ(pool.bytes_used(), 0u);
  // The slot is free again: a later fetch with a working loader succeeds.
  Result<BufferPool::Pin> retry =
      pool.Fetch(1, 0, kPageBytes, PatternLoader(1, 0));
  ASSERT_TRUE(retry.ok());
  ExpectPattern(retry.value(), 1, 0);
}

TEST(BufferPoolTest, ConcurrentFetchersOfOnePageShareOneLoad) {
  BufferPool pool(8 * kPageBytes);
  std::atomic<int> loads{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &loads] {
      for (int round = 0; round < 50; ++round) {
        Result<BufferPool::Pin> pin =
            pool.Fetch(7, 3, kPageBytes, PatternLoader(7, 3, &loads));
        ASSERT_TRUE(pin.ok());
        ExpectPattern(pin.value(), 7, 3);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // The page never leaves the (large enough) pool, so exactly one fetch
  // ran the loader; everybody else hit or waited on the in-flight load.
  EXPECT_EQ(loads.load(), 1);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 50);
}

TEST(BufferPoolTest, EvictionUnderConcurrentPinnedReaders) {
  // Budget of two pages, eight readers each pinning a distinct page at
  // the same time: the pinned working set overshoots the budget (soft
  // capacity -- no deadlock, no eviction of pinned frames), and once the
  // pins are gone eviction brings the pool back inside the budget.
  BufferPool pool(2 * kPageBytes);
  constexpr int kThreads = 8;
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<BufferPool::Pin> pin =
          pool.Fetch(1, t, kPageBytes, PatternLoader(1, t));
      ASSERT_TRUE(pin.ok());
      pinned.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      // The frame's bytes must have stayed intact while every other
      // thread pinned, thrashed, and overshot the budget.
      ExpectPattern(pin.value(), 1, t);
    });
  }
  while (pinned.load() < kThreads) std::this_thread::yield();
  EXPECT_EQ(pool.bytes_used(), kThreads * kPageBytes);  // overshoot
  release.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(pool.bytes_used(), 2 * kPageBytes);
  EXPECT_GE(pool.stats().evictions, kThreads - 2);
}

TEST(BufferPoolTest, CapacityOnePoolThrashesCorrectly) {
  // A pool that cannot hold even one page stops caching but must stay
  // correct under concurrent alternating fetches.
  BufferPool pool(1);
  constexpr int kThreads = 4;
  constexpr int kRounds = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int64_t page = (round + t) % 3;
        Result<BufferPool::Pin> pin =
            pool.Fetch(2, page, kPageBytes, PatternLoader(2, page));
        ASSERT_TRUE(pin.ok());
        ExpectPattern(pin.value(), 2, page);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(pool.bytes_used(), 0u);  // nothing can stay resident
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
  // With no residency the steady state is missing, and every installed
  // frame is eventually evicted. Concurrent fetchers of one page may share
  // a single in-flight load: each waiter is charged a miss but the shared
  // frame evicts only once, so evictions can trail misses (never exceed).
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.evictions, stats.misses);
}

TEST(BufferPoolTest, PrefetchWarmsWithoutTouchingCounters) {
  BufferPool pool(8 * kPageBytes);
  std::atomic<int> loads{0};
  pool.Prefetch(4, 9, kPageBytes, PatternLoader(4, 9, &loads));
  EXPECT_EQ(loads.load(), 1);
  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);

  bool was_hit = false;
  Result<BufferPool::Pin> pin =
      pool.Fetch(4, 9, kPageBytes, PatternLoader(4, 9, &loads), &was_hit);
  ASSERT_TRUE(pin.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(loads.load(), 1);  // served from the prefetched frame
  ExpectPattern(pin.value(), 4, 9);
}

TEST(BufferPoolTest, RewritingAFileYieldsAFreshGeneration) {
  const std::string path = testing::TempDir() + "/pool_generation.optr";
  storage::Relation relation(storage::Schema::Synthetic(1, 1));
  const double v0 = 1.0;
  const uint8_t f0 = 1;
  relation.AppendRow({&v0, 1}, {&f0, 1});
  ASSERT_TRUE(WriteRelationToFile(relation, path).ok());

  BufferPool pool(8 * kPageBytes);
  Result<uint64_t> first = pool.RegisterFile(path);
  ASSERT_TRUE(first.ok());

  // Same path, new bytes: the stat identity changes (size differs), so
  // the pool must hand out a fresh id -- frames of the old generation can
  // never serve the new file.
  const double v1 = 2.0;
  relation.AppendRow({&v1, 1}, {&f0, 1});
  ASSERT_TRUE(WriteRelationToFile(relation, path).ok());
  Result<uint64_t> second = pool.RegisterFile(path);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first.value(), second.value());
  std::remove(path.c_str());
}

// ------------------------------------------------ pooled scan identity ----

storage::Relation PooledTestRelation(int64_t rows, uint64_t seed) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = 3;
  config.num_boolean = 2;
  Rng rng(seed);
  storage::Relation relation = datagen::GenerateTable(config, rng);
  std::vector<double>& column = relation.MutableNumericColumn(0);
  for (size_t row = 0; row < column.size(); row += 61) {
    column[row] = std::nan("");
  }
  return relation;
}

MultiCountSpec PooledTestSpec(const std::vector<BucketBoundaries>& base) {
  MultiCountSpec spec;
  spec.num_targets = 2;
  spec.conditions.push_back({0});
  for (int a = 0; a < 3; ++a) {
    CountChannel channel;
    channel.column = a;
    channel.boundaries = &base[static_cast<size_t>(a)];
    spec.channels.push_back(std::move(channel));
  }
  CountChannel conditional;
  conditional.column = 1;
  conditional.boundaries = &base[1];
  conditional.condition = 0;
  spec.channels.push_back(std::move(conditional));
  CountChannel summing;
  summing.column = 0;
  summing.boundaries = &base[0];
  summing.sum_targets = {2};
  spec.channels.push_back(std::move(summing));
  return spec;
}

/// Bit-exact comparison via the serialized partial state (covers counts,
/// min/max, and the Neumaier sum/compensation pairs in one shot).
void ExpectPlansBitIdentical(const MultiCountPlan& a,
                             const MultiCountPlan& b) {
  std::vector<uint8_t> state_a;
  std::vector<uint8_t> state_b;
  a.AppendPartialState(&state_a);
  b.AppendPartialState(&state_b);
  ASSERT_EQ(state_a, state_b);
}

TEST(PooledScanTest, AllReadModesSharingOnePoolMatchRelationBitExactly) {
  const std::string path = testing::TempDir() + "/pool_scan.optr";
  const storage::Relation relation = PooledTestRelation(20000, 99);
  PagedFileWriterOptions options;
  options.rows_per_page = 512;  // many pages, so eviction really happens
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());

  bucketing::BoundaryPlan boundary_plan;
  boundary_plan.bucketizer = bucketing::Bucketizer::kExactSort;
  boundary_plan.num_buckets = 16;
  std::vector<BucketBoundaries> base;
  for (int a = 0; a < 3; ++a) {
    base.push_back(bucketing::BuildBoundaries(
        relation.NumericColumn(a), boundary_plan,
        static_cast<uint64_t>(a)));
  }
  const MultiCountSpec spec = PooledTestSpec(base);

  // A pool two pages big: every scan flavor below thrashes and evicts.
  BufferPool pool(2 * 512 * relation.schema().num_numeric() *
                  sizeof(double));
  ThreadPool threads(4);

  // The paged read path must never change a bit of the SAME execution
  // schedule, so each scenario is compared against that schedule over the
  // in-memory relation -- the row-sharded schedule's Neumaier sums
  // legitimately differ from the serial chain in the last ulp, but never
  // paged vs in-memory.
  struct Scenario {
    PagedReadMode mode;
    int64_t batch_rows;
    bool sharded;
  };
  const Scenario scenarios[] = {
      {PagedReadMode::kSynchronous, 777, false},
      {PagedReadMode::kDoubleBuffered, 777, false},
      {PagedReadMode::kDoubleBuffered, kDefaultBatchRows, true},  // sharded
  };
  MultiCountPlan reference(spec);  // serial: the repo-wide baseline
  MultiCountPlan sharded_reference(spec);
  {
    RelationBatchSource source(&relation);
    bucketing::ExecuteMultiCount(source, &reference, nullptr);
    bucketing::ExecuteMultiCount(source, &sharded_reference, &threads);
  }
  for (const Scenario& scenario : scenarios) {
    MultiCountPlan pooled(spec);
    Result<std::unique_ptr<PagedFileBatchSource>> source =
        PagedFileBatchSource::Open(path, scenario.batch_rows,
                                   scenario.mode, &pool);
    ASSERT_TRUE(source.ok());
    bucketing::ExecuteMultiCount(*source.value(), &pooled,
                                 scenario.sharded ? &threads : nullptr);
    ExpectPlansBitIdentical(scenario.sharded ? sharded_reference : reference,
                            pooled);
  }

  // Two concurrent double-buffered scans over one pool: each must still
  // be bit-identical (shared frames, shared evictions, private pins).
  {
    MultiCountPlan plan_a(spec);
    MultiCountPlan plan_b(spec);
    Result<std::unique_ptr<PagedFileBatchSource>> source_a =
        PagedFileBatchSource::Open(path, 1024,
                                   PagedReadMode::kDoubleBuffered, &pool);
    Result<std::unique_ptr<PagedFileBatchSource>> source_b =
        PagedFileBatchSource::Open(path, 333,
                                   PagedReadMode::kDoubleBuffered, &pool);
    ASSERT_TRUE(source_a.ok());
    ASSERT_TRUE(source_b.ok());
    std::thread other([&] {
      bucketing::ExecuteMultiCount(*source_b.value(), &plan_b, nullptr);
    });
    bucketing::ExecuteMultiCount(*source_a.value(), &plan_a, nullptr);
    other.join();
    ExpectPlansBitIdentical(reference, plan_a);
    ExpectPlansBitIdentical(reference, plan_b);

    // The second pass over a warm (if small) pool must have found SOME
    // frames resident; stats flow through SourceStats.
    const BatchSourceStats stats = source_a.value()->SourceStats();
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0);
  }
  std::remove(path.c_str());
}

TEST(PooledScanTest, WarmRerunOverLargePoolHitsEveryPage) {
  const std::string path = testing::TempDir() + "/pool_warm.optr";
  const storage::Relation relation = PooledTestRelation(8000, 3);
  PagedFileWriterOptions options;
  options.rows_per_page = 1024;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());

  BufferPool pool(size_t{64} << 20);  // everything fits
  for (int pass = 0; pass < 2; ++pass) {
    Result<std::unique_ptr<PagedFileBatchSource>> source =
        PagedFileBatchSource::Open(path, kDefaultBatchRows,
                                   PagedReadMode::kDoubleBuffered, &pool);
    ASSERT_TRUE(source.ok());
    std::unique_ptr<BatchReader> reader = source.value()->CreateReader();
    ColumnarBatch batch;
    int64_t rows = 0;
    while (reader->Next(&batch)) rows += batch.num_rows();
    reader.reset();
    EXPECT_EQ(rows, relation.NumRows());
    const BatchSourceStats stats = source.value()->SourceStats();
    if (pass == 1) {
      // Warm rerun: every demand fetch finds the resident frame.
      EXPECT_EQ(stats.cache_misses, 0);
      EXPECT_GT(stats.cache_hits, 0);
      EXPECT_EQ(stats.cache_hit_rate(), 1.0);
    }
  }
  std::remove(path.c_str());
}

TEST(PooledScanTest, ColdScanEvictsBeforeAdmittingWithinBudget) {
  // A synchronous scan over a file twice the pool's size. Every miss past
  // the first half evicts exactly one least-recently-used frame -- the
  // victims admit-then-trim would pick -- and a newcomer replaces its
  // victim rather than joining it, so the pool never holds more than its
  // budget plus the reader's pinned page.
  const std::string path = testing::TempDir() + "/pool_cold.optr";
  const storage::Relation relation = PooledTestRelation(16 * 512, 5);
  PagedFileWriterOptions options;
  options.rows_per_page = 512;
  ASSERT_TRUE(WriteRelationToFile(relation, path, options).ok());
  const Result<PagedFileInfo> info = ReadPagedFileInfo(path);
  ASSERT_TRUE(info.ok());
  const int64_t pages = info.value().num_pages();
  const size_t page_bytes = ScanGeometry(info.value()).page_stride();
  ASSERT_EQ(pages, 16);

  const auto scan = [&](BufferPool* pool, PagedReadMode mode) {
    Result<std::unique_ptr<PagedFileBatchSource>> source =
        PagedFileBatchSource::Open(path, 100, mode, pool);
    ASSERT_TRUE(source.ok());
    std::unique_ptr<BatchReader> reader = source.value()->CreateReader();
    ColumnarBatch batch;
    int64_t rows = 0;
    while (reader->Next(&batch)) {
      rows += batch.num_rows();
      ASSERT_LE(pool->bytes_used(), pool->capacity_bytes() + page_bytes);
    }
    EXPECT_EQ(rows, relation.NumRows());
  };

  BufferPool half(static_cast<size_t>(pages / 2) * page_bytes);
  scan(&half, PagedReadMode::kSynchronous);
  EXPECT_EQ(half.stats().misses, pages);
  EXPECT_EQ(half.stats().evictions, pages - pages / 2);
  EXPECT_EQ(half.bytes_used(), half.capacity_bytes());

  // A zero-capacity pool drops each frame with its last pin: nothing is
  // left resident once the readers are gone, in either read mode.
  BufferPool empty(0);
  for (const PagedReadMode mode :
       {PagedReadMode::kSynchronous, PagedReadMode::kDoubleBuffered}) {
    scan(&empty, mode);
    EXPECT_EQ(empty.bytes_used(), 0u);
  }
  EXPECT_EQ(empty.stats().evictions, 2 * pages);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optrules::storage
