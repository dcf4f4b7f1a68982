#include "bucketing/parallel_count.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace optrules::bucketing {

BucketCounts ParallelCountBuckets(
    std::span<const double> values,
    std::span<const std::vector<uint8_t>* const> targets,
    const BucketBoundaries& boundaries, int num_threads, ThreadPool& pool) {
  OPTRULES_CHECK(num_threads >= 1);
  for (const std::vector<uint8_t>* target : targets) {
    OPTRULES_CHECK(target != nullptr);
    OPTRULES_CHECK(target->size() == values.size());
  }

  // Step 1: split rows into near-equal contiguous shards, one task per
  // shard (the paper's PEs); the pool executes them with live workers.
  const size_t n = values.size();
  const size_t shards = static_cast<size_t>(num_threads);
  std::vector<BucketCounts> partials(shards);

  // Step 3 (per PE): private counting, no shared state.
  pool.Run(num_threads, [&](int shard) {
    const auto s = static_cast<size_t>(shard);
    const size_t begin = n * s / shards;
    const size_t end = n * (s + 1) / shards;
    partials[s] = CountBucketsSlice(values, targets, boundaries, begin, end);
  });

  // Step 4: the coordinator sums the partial counts in shard order.
  BucketCounts total = std::move(partials[0]);
  for (size_t shard = 1; shard < shards; ++shard) {
    const BucketCounts& part = partials[shard];
    for (int b = 0; b < total.num_buckets(); ++b) {
      const auto bi = static_cast<size_t>(b);
      total.u[bi] += part.u[bi];
      for (int t = 0; t < total.num_targets(); ++t) {
        total.v[static_cast<size_t>(t)][bi] +=
            part.v[static_cast<size_t>(t)][bi];
      }
      // Min and max merge independently (mirroring MultiCountPlan::Merge):
      // nesting the max merge inside the min guard is correct only while
      // the counting kernels always set the two together, and a future
      // asymmetric update must not silently drop maxima.
      if (!std::isnan(part.min_value[bi]) &&
          (std::isnan(total.min_value[bi]) ||
           part.min_value[bi] < total.min_value[bi])) {
        total.min_value[bi] = part.min_value[bi];
      }
      if (!std::isnan(part.max_value[bi]) &&
          (std::isnan(total.max_value[bi]) ||
           part.max_value[bi] > total.max_value[bi])) {
        total.max_value[bi] = part.max_value[bi];
      }
    }
    total.total_tuples += part.total_tuples;
  }
  return total;
}

BucketCounts ParallelCountBuckets(
    std::span<const double> values,
    std::span<const std::vector<uint8_t>* const> targets,
    const BucketBoundaries& boundaries, int num_threads) {
  return ParallelCountBuckets(values, targets, boundaries, num_threads,
                              DefaultThreadPool());
}

namespace {

/// Installs DerivePruneSpec(plan->spec()) on the source for the duration
/// of one counting pass and clears it on scope exit (the spec is not
/// synchronized against readers, so it must never outlive the pass).
class PruneSpecGuard {
 public:
  PruneSpecGuard(storage::BatchSource& source, const MultiCountSpec& spec)
      : source_(source) {
    auto prune =
        std::make_shared<storage::ScanPruneSpec>(DerivePruneSpec(spec));
    if (!prune->empty()) source_.InstallPruneSpec(std::move(prune));
  }
  ~PruneSpecGuard() { source_.InstallPruneSpec(nullptr); }
  PruneSpecGuard(const PruneSpecGuard&) = delete;
  PruneSpecGuard& operator=(const PruneSpecGuard&) = delete;

 private:
  storage::BatchSource& source_;
};

/// Registry histograms for the locate / mask / scatter phase breakdown,
/// resolved once.
struct ScanPhaseMetrics {
  obs::Histogram* locate;
  obs::Histogram* mask;
  obs::Histogram* scatter;
  obs::Counter* scans;

  static const ScanPhaseMetrics& Get() {
    static const ScanPhaseMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return ScanPhaseMetrics{reg.GetHistogram("scan.locate_seconds"),
                              reg.GetHistogram("scan.mask_seconds"),
                              reg.GetHistogram("scan.scatter_seconds"),
                              reg.GetCounter("scan.executions")};
    }();
    return metrics;
  }
};

/// Attaches a ScanPhaseTimes sink to `plan` for the scope and, on exit,
/// observes the phase totals into the registry histograms, chains them
/// into any sink the caller had attached (so existing accessors see
/// identical values), and stamps them onto `span` when one is given.
/// Only valid where attaching a sink is valid: serially-executed plans.
class PhaseTimesScope {
 public:
  explicit PhaseTimesScope(MultiCountPlan* plan, obs::Span* span = nullptr)
      : plan_(plan), span_(span), prior_(plan->phase_times()) {
    plan_->set_phase_times(&local_);
  }
  PhaseTimesScope(const PhaseTimesScope&) = delete;
  PhaseTimesScope& operator=(const PhaseTimesScope&) = delete;

  ~PhaseTimesScope() {
    plan_->set_phase_times(prior_);
    if (prior_ != nullptr) {
      prior_->locate_seconds += local_.locate_seconds;
      prior_->mask_seconds += local_.mask_seconds;
      prior_->scatter_seconds += local_.scatter_seconds;
    }
    const ScanPhaseMetrics& metrics = ScanPhaseMetrics::Get();
    metrics.locate->Observe(local_.locate_seconds);
    metrics.mask->Observe(local_.mask_seconds);
    metrics.scatter->Observe(local_.scatter_seconds);
    if (span_ != nullptr && span_->active()) {
      span_->AddAttribute("locate_seconds", local_.locate_seconds);
      span_->AddAttribute("mask_seconds", local_.mask_seconds);
      span_->AddAttribute("scatter_seconds", local_.scatter_seconds);
    }
  }

 private:
  MultiCountPlan* plan_;
  obs::Span* span_;
  ScanPhaseTimes* prior_;
  ScanPhaseTimes local_;
};

/// Serial fallback: one reader, one plan.
void ExecuteSerial(storage::BatchSource& source, MultiCountPlan* plan) {
  std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
  storage::ColumnarBatch batch;
  while (reader->Next(&batch)) plan->Accumulate(batch);
  plan->AddSkippedRows(reader->pruned_rows());
}

/// Number of row shards for a source of `num_tuples` rows. The layout is
/// a pure function of the row count -- NEVER of the pool size -- so the
/// partial plans and their shard-order merge are identical no matter how
/// many workers execute them: even the compensated double sums come out
/// bit-identical under any pool size. Pools larger than the shard count
/// idle; pools smaller queue shards.
int RowShardCount(int64_t num_tuples) {
  constexpr int64_t kMinRowsPerShard = 8192;
  constexpr int64_t kMaxRowShards = 32;
  return static_cast<int>(
      std::clamp(num_tuples / kMinRowsPerShard, int64_t{1}, kMaxRowShards));
}

/// Row-sharded execution: each worker scans a contiguous row range with
/// its own range reader into a private partial plan; partials merge in
/// shard order. Counts and min/max are bit-identical to serial; per-bucket
/// double sums are Neumaier-compensated and, because the shard layout is
/// pool-independent, bit-identical across all pool sizes (the last ulp can
/// still differ from the unsharded serial chain).
void ExecuteRowSharded(storage::BatchSource& source, MultiCountPlan* plan,
                       ThreadPool& pool, int num_shards,
                       uint64_t parent_span_id) {
  source.NoteScanStarted();  // the whole sharded pass is ONE logical scan
  const int64_t n = source.NumTuples();
  std::vector<MultiCountPlan> partials;
  partials.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    partials.emplace_back(plan->spec());
  }
  pool.Run(num_shards, [&](int shard) {
    // Pool workers have no span context of their own; parent this shard's
    // span (and phase timings) under the scan span explicitly.
    obs::ScopedParent parent(parent_span_id);
    obs::Span shard_span("bucketing.shard");
    shard_span.AddAttribute("shard", static_cast<double>(shard));
    const int64_t begin = n * shard / num_shards;
    const int64_t end = n * (shard + 1) / num_shards;
    std::unique_ptr<storage::BatchReader> reader =
        source.CreateRangeReader(begin, end);
    storage::ColumnarBatch batch;
    MultiCountPlan& partial = partials[static_cast<size_t>(shard)];
    PhaseTimesScope phase_scope(&partial, &shard_span);
    while (reader->Next(&batch)) partial.Accumulate(batch);
    partial.AddSkippedRows(reader->pruned_rows());
  });
  for (const MultiCountPlan& partial : partials) plan->Merge(partial);
}

}  // namespace

void ExecuteMultiCount(storage::BatchSource& source, MultiCountPlan* plan,
                       ThreadPool* pool) {
  OPTRULES_CHECK(plan != nullptr);
  for (const CountChannel& channel : plan->spec().channels) {
    OPTRULES_CHECK(0 <= channel.column &&
                   channel.column < source.num_numeric());
    for (const int target : channel.sum_targets) {
      OPTRULES_CHECK(0 <= target && target < source.num_numeric());
    }
  }
  for (const GridChannel& channel : plan->spec().grid_channels) {
    OPTRULES_CHECK(0 <= channel.x_column &&
                   channel.x_column < source.num_numeric());
    OPTRULES_CHECK(0 <= channel.y_column &&
                   channel.y_column < source.num_numeric());
  }
  for (const std::vector<int>& condition : plan->spec().conditions) {
    for (const int column : condition) {
      OPTRULES_CHECK(0 <= column && column < source.num_boolean());
    }
  }
  OPTRULES_CHECK(source.num_boolean() == plan->num_targets());
  ScanPhaseMetrics::Get().scans->Add();
  obs::Span span("bucketing.scan");
  span.AddAttribute("rows", static_cast<double>(source.NumTuples()));
  // Let the source's readers skip pages/partitions that provably cannot
  // contribute to this plan; the readers account the skipped rows and the
  // executors add them back via AddSkippedRows, so pruning is invisible in
  // the results.
  PruneSpecGuard prune_guard(source, plan->spec());
  // A pool of size 1 still takes the sharded path (with the same
  // pool-independent shard layout), so its sums are bit-identical to any
  // larger pool's; only the serial scan is the unsharded reference.
  if (pool != nullptr && source.SupportsRangeReaders() &&
      source.NumTuples() > 0 &&
      plan->num_channels() + plan->num_grid_channels() > 0) {
    const int num_shards = RowShardCount(source.NumTuples());
    span.AddAttribute("shards", static_cast<double>(num_shards));
    ExecuteRowSharded(source, plan, *pool, num_shards, span.id());
    return;
  }
  PhaseTimesScope phase_scope(plan, &span);
  ExecuteSerial(source, plan);
}

}  // namespace optrules::bucketing
