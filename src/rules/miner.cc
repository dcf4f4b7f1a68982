#include "rules/miner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bucketing/equidepth_sampler.h"
#include "bucketing/gk_sketch.h"
#include "bucketing/parallel_count.h"
#include "bucketing/sort_bucketizer.h"
#include "common/ratio.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/average_range.h"
#include "rules/optimized_confidence.h"
#include "rules/optimized_support.h"

namespace optrules::rules {

namespace {

/// Per-attribute salt decorrelating sampling seeds while keeping the whole
/// run reproducible; shared by Miner and MiningEngine so their boundaries
/// are identical. An attribute's boundaries at bucket count M are drawn
/// from options.seed + this salt alone, so every rule kind that buckets
/// the attribute at M -- plain, generalized (Section 4.3), average
/// (Section 5) and region axes (Section 1.4) -- shares one bucketing, as
/// in Alg. 3.1.
uint64_t AttributeSalt(int numeric_index) {
  return 0x9e37 * static_cast<uint64_t>(numeric_index);
}

/// Counts MiningEngine boundary-planning passes (PlanBoundarySets calls),
/// resolved once.
obs::Counter* PlanningPassesCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Default().GetCounter("engine.planning_passes");
  return counter;
}

/// Renders a conjunction of Boolean attribute names as the rule's
/// presumptive-condition text ("a=yes ^ b=yes").
std::string ConditionText(const std::vector<std::string>& condition_attrs) {
  std::string text;
  for (const std::string& name : condition_attrs) {
    if (!text.empty()) text += " ^ ";
    text += name + "=yes";
  }
  return text;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

/// Working buffers of the two O(M) rule optimizers, reused across pairs.
struct PairScratch {
  SlopePairContext hull;
  OptimizedSupportScratch support;
};

/// Shared rule emission: runs both O(M) optimizers over one pair's count
/// arrays at every threshold set of `sweep` -- the pair's hull is built
/// once and solved per threshold -- and renders the results as MinedRules:
/// sweep entry s writes its confidence rule to out[s * stride] and its
/// support rule to out[s * stride + 1]. Used by Miner and MiningEngine so
/// the two paths are bit-identical by construction.
void EmitRulesForPair(const bucketing::BucketCounts& counts,
                      int target_index, std::span<const ThresholdSet> sweep,
                      const std::string& numeric_attr,
                      const std::string& boolean_attr, PairScratch& scratch,
                      MinedRule* out, size_t stride) {
  const std::span<const int64_t> u = counts.u;
  std::span<const int64_t> v;
  if (!u.empty()) {
    v = counts.v[static_cast<size_t>(target_index)];
    scratch.hull.Assign(u, v);
  }
  const RuleKind kinds[2] = {RuleKind::kOptimizedConfidence,
                             RuleKind::kOptimizedSupport};
  for (size_t s = 0; s < sweep.size(); ++s) {
    RangeRule optimized[2];
    if (!u.empty()) {
      optimized[0] = OptimizedConfidenceRule(
          scratch.hull, u, v, counts.total_tuples,
          MinSupportCount(counts.total_tuples, sweep[s].min_support));
      optimized[1] = OptimizedSupportRule(
          u, v, counts.total_tuples,
          Ratio::FromDouble(sweep[s].min_confidence), scratch.support);
    }
    for (int k = 0; k < 2; ++k) {
      const RangeRule& range = optimized[k];
      MinedRule& rule = out[s * stride + static_cast<size_t>(k)];
      rule.kind = kinds[k];
      rule.numeric_attr = numeric_attr;
      rule.boolean_attr = boolean_attr;
      rule.found = range.found;
      if (range.found) {
        rule.range_lo = bucketing::RangeMinValue(counts, range.s, range.t);
        rule.range_hi = bucketing::RangeMaxValue(counts, range.s, range.t);
        rule.support_count = range.support_count;
        rule.hit_count = range.hit_count;
        rule.support = range.support;
        rule.confidence = range.confidence;
      }
    }
  }
}

/// EmitRulesForPair at one threshold set: the pair's two rules.
std::vector<MinedRule> EmitRulesForPair(
    const bucketing::BucketCounts& counts, int target_index,
    const ThresholdSet& thresholds, const std::string& numeric_attr,
    const std::string& boolean_attr) {
  std::vector<MinedRule> mined(2);
  PairScratch scratch;
  EmitRulesForPair(counts, target_index, {&thresholds, 1}, numeric_attr,
                   boolean_attr, scratch, mined.data(), 2);
  return mined;
}

/// InvalidArgument unless `min_support` lies in [0, 1] (NaN included),
/// so a bad aggregate threshold fails its query instead of tripping
/// MinSupportCount's CHECK.
Status ValidateAggregateSupport(double min_support) {
  if (!(0.0 <= min_support && min_support <= 1.0)) {
    return Status::InvalidArgument("aggregate min_support outside [0, 1]");
  }
  return Status::Ok();
}

/// InvalidArgument unless `min_average` is finite.
Status ValidateAggregateAverage(double min_average) {
  if (!std::isfinite(min_average)) {
    return Status::InvalidArgument("non-finite aggregate min_average");
  }
  return Status::Ok();
}

/// Shared Section 5 rendering: assembles a MinedAggregateRange from a
/// compacted BucketSums and an optimizer result. Used by Miner and
/// MiningEngine so the two paths are identical by construction.
MinedAggregateRange ToMinedAggregate(const bucketing::BucketSums& sums,
                                     const RangeAggregate& aggregate,
                                     const std::string& range_attr,
                                     const std::string& target_attr) {
  MinedAggregateRange mined;
  mined.range_attr = range_attr;
  mined.target_attr = target_attr;
  mined.found = aggregate.found;
  if (aggregate.found) {
    mined.range_lo = bucketing::RangeMinValue(sums, aggregate.s, aggregate.t);
    mined.range_hi = bucketing::RangeMaxValue(sums, aggregate.s, aggregate.t);
    mined.support_count = aggregate.support_count;
    mined.support = sums.total_tuples > 0
                        ? static_cast<double>(aggregate.support_count) /
                              static_cast<double>(sums.total_tuples)
                        : 0.0;
    mined.average = aggregate.average;
  }
  return mined;
}

/// Shared Section 1.4 region emission: runs both rectangle optimizers and
/// the x-monotone gain DP over one grid and assembles the MinedRegion.
/// Used by Miner and MiningEngine so the two paths are bit-identical by
/// construction (the engine's grid channel and the legacy
/// region::BuildGrid pass produce identical grids).
MinedRegion MineRegionFromGrid(const region::GridCounts& grid,
                               const ThresholdSet& thresholds,
                               const std::string& x_attr,
                               const std::string& y_attr,
                               const std::string& target_attr) {
  MinedRegion mined;
  mined.x_attr = x_attr;
  mined.y_attr = y_attr;
  mined.target_attr = target_attr;
  mined.nx = grid.nx();
  mined.ny = grid.ny();
  mined.total_tuples = grid.total_tuples();
  mined.confidence_rectangle = region::OptimizedConfidenceRectangle(
      grid, MinSupportCount(grid.total_tuples(), thresholds.min_support));
  mined.support_rectangle = region::OptimizedSupportRectangle(
      grid, Ratio::FromDouble(thresholds.min_confidence));
  mined.xmonotone_gain = region::MaxGainXMonotoneRegion(
      grid, Ratio::FromDouble(thresholds.min_confidence));
  mined.found = mined.confidence_rectangle.found ||
                mined.support_rectangle.found || mined.xmonotone_gain.found;
  return mined;
}

}  // namespace

Status ValidateThresholds(const ThresholdSet& thresholds) {
  if (!(0.0 <= thresholds.min_support && thresholds.min_support <= 1.0) ||
      !(0.0 <= thresholds.min_confidence &&
        thresholds.min_confidence <= 1.0)) {
    return Status::InvalidArgument("mining threshold outside [0, 1]");
  }
  return Status::Ok();
}

std::string MinedRegion::ToString() const {
  std::string text = "(" + x_attr + ", " + y_attr + ") in R => (" +
                     target_attr + "=yes) on a " + std::to_string(nx) + "x" +
                     std::to_string(ny) + " grid:";
  const auto rectangle_line = [](const char* label,
                                 const region::RegionRule& rule) {
    if (!rule.found) {
      return "\n  " + std::string(label) + ": none";
    }
    return "\n  " + std::string(label) + ": x[" + std::to_string(rule.x1) +
           ", " + std::to_string(rule.x2) + "] y[" + std::to_string(rule.y1) +
           ", " + std::to_string(rule.y2) + "]  [support " +
           FormatDouble(rule.support * 100.0) + "%, confidence " +
           FormatDouble(rule.confidence * 100.0) + "%]";
  };
  text += rectangle_line("confidence rectangle", confidence_rectangle);
  text += rectangle_line("support rectangle", support_rectangle);
  if (!xmonotone_gain.found) {
    text += "\n  x-monotone gain region: none";
  } else {
    text += "\n  x-monotone gain region: columns [" +
            std::to_string(xmonotone_gain.x_begin) + ", " +
            std::to_string(
                xmonotone_gain.x_begin +
                static_cast<int>(xmonotone_gain.column_ranges.size()) - 1) +
            "], gain " + FormatDouble(xmonotone_gain.gain) + "  [support " +
            FormatDouble(xmonotone_gain.support * 100.0) + "%, confidence " +
            FormatDouble(xmonotone_gain.confidence * 100.0) + "%]";
  }
  return text;
}

bucketing::BoundaryPlan ToBoundaryPlan(const MinerOptions& options) {
  bucketing::BoundaryPlan plan;
  plan.bucketizer = options.bucketizer;
  plan.num_buckets = options.num_buckets;
  plan.sample_per_bucket = options.sample_per_bucket;
  plan.seed = options.seed;
  plan.gk_epsilon = options.gk_epsilon;
  return plan;
}

std::string MinedRule::ToString() const {
  if (!found) {
    return "(" + numeric_attr + " => " + boolean_attr + "): no " +
           (kind == RuleKind::kOptimizedConfidence ? "ample" : "confident") +
           " range";
  }
  std::string text = "(" + numeric_attr + " in [" + FormatDouble(range_lo) +
                     ", " + FormatDouble(range_hi) + "])";
  if (!presumptive_condition.empty()) {
    text += " ^ (" + presumptive_condition + ")";
  }
  text += " => (" + boolean_attr + "=yes)";
  text += "  [support " + FormatDouble(support * 100.0) + "%, confidence " +
          FormatDouble(confidence * 100.0) + "%]";
  return text;
}

std::string MinedAggregateRange::ToString() const {
  if (!found) {
    return "avg(" + target_attr + " | " + range_attr + "): no valid range";
  }
  return "avg(" + target_attr + " | " + range_attr + " in [" +
         FormatDouble(range_lo) + ", " + FormatDouble(range_hi) + "]) = " +
         FormatDouble(average) + "  [support " +
         FormatDouble(support * 100.0) + "%]";
}

// ------------------------------------------------------- MiningEngine ----

MiningEngine::MiningEngine(const storage::Relation* relation,
                           MinerOptions options, ThreadPool* pool)
    : relation_(relation),
      schema_(relation != nullptr ? relation->schema() : storage::Schema()),
      options_(options),
      pool_(pool) {
  OPTRULES_CHECK(relation != nullptr);
  owned_source_ = std::make_unique<storage::RelationBatchSource>(relation);
  source_ = owned_source_.get();
}

MiningEngine::MiningEngine(storage::BatchSource* source,
                           storage::Schema schema, MinerOptions options,
                           ThreadPool* pool)
    : source_(source),
      schema_(std::move(schema)),
      options_(options),
      pool_(pool) {
  OPTRULES_CHECK(source != nullptr);
  OPTRULES_CHECK(schema_.num_numeric() == source->num_numeric());
  OPTRULES_CHECK(schema_.num_boolean() == source->num_boolean());
}

MiningEngine::MiningEngine(const dist::PartitionedTable* table,
                           MinerOptions options,
                           dist::DistributedScanOptions dist_options)
    : partitioned_(table),
      dist_options_(std::move(dist_options)),
      options_(options) {
  OPTRULES_CHECK(table != nullptr);
  schema_ = table->schema();
  // The concatenated source feeds boundary planning (one streaming pass in
  // manifest order); counting scans go through the coordinator instead and
  // account their logical scans on this source via NoteScanStarted.
  owned_source_ = std::make_unique<dist::PartitionedTableBatchSource>(
      table, dist_options_.batch_rows, dist_options_.read_mode);
  source_ = owned_source_.get();
}

MiningEngine::~MiningEngine() = default;

Status MiningEngine::ExecuteCount(bucketing::MultiCountPlan* plan) {
  if (partitioned_ != nullptr) {
    if (coordinator_ == nullptr) {
      coordinator_ = std::make_unique<dist::DistributedScanCoordinator>(
          partitioned_, dist_options_);
    }
    OPTRULES_RETURN_IF_ERROR(coordinator_->Execute(plan));
    // The fan-out read the whole table once: account ONE logical scan, so
    // scans_started() keeps meaning "times the data was read".
    source_->NoteScanStarted();
    return Status::Ok();
  }
  bucketing::ExecuteMultiCount(*source_, plan, pool_);
  return Status::Ok();
}

storage::BatchSourceStats MiningEngine::scan_stats() const {
  storage::BatchSourceStats stats;
  if (source_ != nullptr) stats = source_->SourceStats();
  if (coordinator_ != nullptr) stats += coordinator_->scan_stats();
  return stats;
}

Status MiningEngine::PlanBoundarySets(
    std::span<const BoundarySetRequest> requests,
    std::span<std::vector<bucketing::BucketBoundaries>* const> out) {
  OPTRULES_CHECK(requests.size() == out.size());
  const int num_numeric = schema_.num_numeric();
  const size_t sets = requests.size();
  for (size_t i = 0; i < sets; ++i) {
    OPTRULES_CHECK(requests[i].num_buckets >= 1);
    OPTRULES_CHECK(requests[i].column_mask.empty() ||
                   requests[i].column_mask.size() ==
                       static_cast<size_t>(num_numeric));
    out[i]->clear();
    out[i]->reserve(static_cast<size_t>(num_numeric));
  }
  if (sets == 0) return Status::Ok();
  // The span covers planning only; the counting scan that follows is its
  // sibling, never its child.
  obs::Span span("engine.plan");
  PlanningPassesCounter()->Add();

  // Whether set `i` plans attribute `a`; masked-out attributes get empty
  // placeholder boundaries (never consumed by the caller).
  const auto needs = [&requests](size_t i, int a) {
    return requests[i].column_mask.empty() ||
           requests[i].column_mask[static_cast<size_t>(a)] != 0;
  };
  const auto placeholder = [] {
    return bucketing::BucketBoundaries::FromCutPoints({});
  };
  // The span's rows_sampled attribute: Alg. 3.1 samples S rows per
  // planned (set, attribute) slot of a non-empty table; the deterministic
  // bucketizers read every row.
  const auto add_rows_sampled = [&span](int64_t rows) {
    span.AddAttribute("rows_sampled", static_cast<double>(rows));
  };
  const bool sampling = options_.bucketizer == Bucketizer::kSampling;

  if (relation_ != nullptr) {
    // In-memory fast path: plan from the columns directly, with the same
    // per-attribute salts as the legacy Miner (bit-identical boundaries).
    const int64_t rows = relation_->NumRows();
    int64_t rows_sampled = sampling ? 0 : rows;
    for (size_t i = 0; i < sets; ++i) {
      bucketing::BoundaryPlan plan = ToBoundaryPlan(options_);
      plan.num_buckets = requests[i].num_buckets;
      for (int a = 0; a < num_numeric; ++a) {
        if (!needs(i, a)) {
          out[i]->push_back(placeholder());
          continue;
        }
        out[i]->push_back(bucketing::BuildBoundaries(
            relation_->NumericColumn(a), plan, AttributeSalt(a)));
        if (sampling && rows > 0) {
          rows_sampled += options_.sample_per_bucket * plan.num_buckets;
        }
      }
    }
    add_rows_sampled(rows_sampled);
    return Status::Ok();
  }
  if (!sampling) add_rows_sampled(source_->NumTuples());

  // Generic path: ONE sequential pass plans every requested set at once.
  switch (options_.bucketizer) {
    case Bucketizer::kSampling: {
      // Alg. 3.1 per planned (set, attribute) slot with the in-memory
      // path's generator, so the slot draws the same S row indices and
      // plans bit-identical boundaries over the same row order. The
      // sampled rows are gathered in one scan; masked-out slots cost
      // nothing.
      std::vector<bucketing::SampledColumn> columns;
      for (size_t i = 0; i < sets; ++i) {
        for (int a = 0; a < num_numeric; ++a) {
          if (!needs(i, a)) continue;
          columns.push_back(
              {a, requests[i].num_buckets, options_.seed + AttributeSalt(a)});
        }
      }
      int64_t rows_sampled = 0;
      if (source_->NumTuples() > 0) {
        for (const bucketing::SampledColumn& column : columns) {
          rows_sampled += options_.sample_per_bucket * column.num_buckets;
        }
      }
      add_rows_sampled(rows_sampled);
      Result<std::vector<bucketing::BucketBoundaries>> planned =
          bucketing::SampleBoundaries(*source_, columns,
                                      options_.sample_per_bucket);
      if (!planned.ok()) return planned.status();
      size_t next = 0;
      for (size_t i = 0; i < sets; ++i) {
        for (int a = 0; a < num_numeric; ++a) {
          out[i]->push_back(needs(i, a) ? std::move(planned.value()[next++])
                                        : placeholder());
        }
      }
      return Status::Ok();
    }
    case Bucketizer::kGkSketch: {
      // One deterministic GK sketch per (distinct epsilon, attribute),
      // all fed in one scan; identical to the in-memory sketch because
      // insertion order is the row order either way. Seeds are ignored,
      // but the auto epsilon depends on the bucket count, so sets with
      // different bucket counts may need their own sketch group.
      std::vector<double> epsilons(sets);
      std::vector<size_t> group_of(sets);
      std::vector<double> distinct;
      for (size_t i = 0; i < sets; ++i) {
        bucketing::BoundaryPlan plan = ToBoundaryPlan(options_);
        plan.num_buckets = requests[i].num_buckets;
        epsilons[i] = plan.EffectiveGkEpsilon();
        size_t g = distinct.size();
        for (size_t d = 0; d < distinct.size(); ++d) {
          if (distinct[d] == epsilons[i]) {
            g = d;
            break;
          }
        }
        if (g == distinct.size()) distinct.push_back(epsilons[i]);
        group_of[i] = g;
      }
      // Per group, sketch only the attributes some member set plans.
      std::vector<std::vector<uint8_t>> group_needs(
          distinct.size(),
          std::vector<uint8_t>(static_cast<size_t>(num_numeric), 0));
      for (size_t i = 0; i < sets; ++i) {
        for (int a = 0; a < num_numeric; ++a) {
          if (needs(i, a)) group_needs[group_of[i]][static_cast<size_t>(a)] = 1;
        }
      }
      std::vector<bucketing::GkQuantileSketch> sketches;
      sketches.reserve(distinct.size() * static_cast<size_t>(num_numeric));
      for (const double epsilon : distinct) {
        for (int a = 0; a < num_numeric; ++a) sketches.emplace_back(epsilon);
      }
      std::unique_ptr<storage::BatchReader> reader = source_->CreateReader();
      storage::ColumnarBatch batch;
      while (reader->Next(&batch)) {
        for (size_t g = 0; g < distinct.size(); ++g) {
          for (int a = 0; a < num_numeric; ++a) {
            if (group_needs[g][static_cast<size_t>(a)] == 0) continue;
            auto& sketch = sketches[g * static_cast<size_t>(num_numeric) +
                                    static_cast<size_t>(a)];
            for (const double value : batch.numeric(a)) sketch.Add(value);
          }
        }
      }
      for (size_t i = 0; i < sets; ++i) {
        for (int a = 0; a < num_numeric; ++a) {
          const auto& sketch =
              sketches[group_of[i] * static_cast<size_t>(num_numeric) +
                       static_cast<size_t>(a)];
          out[i]->push_back(
              !needs(i, a) || sketch.count() == 0
                  ? placeholder()
                  : bucketing::BoundariesFromGkSketch(
                        sketch, requests[i].num_buckets));
        }
      }
      return Status::Ok();
    }
    case Bucketizer::kExactSort: {
      // Exact depths need the full columns; buffer them from one scan,
      // in memory even for a paged source. (The bounded-memory exact
      // bucketizer is the Figure 9 baseline
      // bucketing::NaiveSortBoundariesFromFile, an external sort over the
      // same batch reader; the engine does not call it.)
      std::vector<uint8_t> any_needs(static_cast<size_t>(num_numeric), 0);
      for (size_t i = 0; i < sets; ++i) {
        for (int a = 0; a < num_numeric; ++a) {
          if (needs(i, a)) any_needs[static_cast<size_t>(a)] = 1;
        }
      }
      std::vector<std::vector<double>> columns(
          static_cast<size_t>(num_numeric));
      std::unique_ptr<storage::BatchReader> reader = source_->CreateReader();
      storage::ColumnarBatch batch;
      while (reader->Next(&batch)) {
        for (int a = 0; a < num_numeric; ++a) {
          if (any_needs[static_cast<size_t>(a)] == 0) continue;
          const std::span<const double> values = batch.numeric(a);
          auto& column = columns[static_cast<size_t>(a)];
          column.insert(column.end(), values.begin(), values.end());
        }
      }
      for (size_t i = 0; i < sets; ++i) {
        for (int a = 0; a < num_numeric; ++a) {
          out[i]->push_back(
              needs(i, a)
                  ? bucketing::ExactEquiDepthBoundaries(
                        columns[static_cast<size_t>(a)],
                        requests[i].num_buckets)
                  : placeholder());
        }
      }
      return Status::Ok();
    }
  }
  OPTRULES_CHECK(false);
  return Status::Ok();
}

Status MiningEngine::RunCountingScan() {
  const int num_numeric = schema_.num_numeric();
  const auto num_attrs = static_cast<size_t>(num_numeric);
  bucketing::MultiCountSpec spec;
  spec.num_targets = schema_.num_boolean();
  spec.conditions = conditions_;
  // Base channels: every numeric attribute against every Boolean target,
  // each also carrying every registered Section 5 sum target, so the
  // aggregate ranges ride the base u/min/max pass.
  for (int a = 0; a < num_numeric; ++a) {
    bucketing::CountChannel channel;
    channel.column = a;
    channel.boundaries = &Boundary(options_.num_buckets, a);
    channel.sum_targets = sum_targets_;
    spec.channels.push_back(std::move(channel));
  }
  // Conditional channels (Section 4.3): every registered condition times
  // every numeric attribute, over the same base boundaries (one locate per
  // attribute and batch serves them all).
  for (size_t c = 0; c < conditions_.size(); ++c) {
    for (int a = 0; a < num_numeric; ++a) {
      bucketing::CountChannel channel;
      channel.column = a;
      channel.boundaries = &Boundary(options_.num_buckets, a);
      channel.condition = static_cast<int>(c);
      spec.channels.push_back(std::move(channel));
    }
  }
  // Grid channels (Section 1.4): one per registered region pair, each
  // axis over its attribute's boundaries at that axis' bucket count (nx
  // for x, ny for y -- rectangular pairs are first-class; an axis at
  // num_buckets is the base set). Axes sharing an (attribute, count)
  // share its locate group inside the plan.
  for (const RegionPair& pair : region_pairs_) {
    bucketing::GridChannel channel;
    channel.x_column = pair.x;
    channel.x_boundaries = &Boundary(pair.nx, pair.x);
    channel.y_column = pair.y;
    channel.y_boundaries = &Boundary(pair.ny, pair.y);
    spec.grid_channels.push_back(channel);
  }

  bucketing::MultiCountPlan plan(std::move(spec));
  OPTRULES_RETURN_IF_ERROR(ExecuteCount(&plan));
  ++counting_scans_;

  counts_.reserve(num_attrs);
  for (int a = 0; a < num_numeric; ++a) {
    counts_.push_back(plan.TakeCounts(a));
    bucketing::CompactEmptyBuckets(&counts_.back());
  }
  generalized_counts_.resize(conditions_.size());
  for (size_t c = 0; c < conditions_.size(); ++c) {
    generalized_counts_[c].reserve(num_attrs);
    for (int a = 0; a < num_numeric; ++a) {
      const size_t channel = num_attrs * (c + 1) + static_cast<size_t>(a);
      generalized_counts_[c].push_back(
          plan.TakeCounts(static_cast<int>(channel)));
      bucketing::CompactEmptyBuckets(&generalized_counts_[c].back());
    }
  }
  aggregate_sums_.assign(num_attrs, {});
  hull_contexts_.clear();  // derived from the sums being replaced
  for (int a = 0; a < num_numeric; ++a) {
    auto& per_target = aggregate_sums_[static_cast<size_t>(a)];
    per_target.reserve(sum_targets_.size());
    for (size_t k = 0; k < sum_targets_.size(); ++k) {
      per_target.push_back(plan.TakeBucketSums(a, static_cast<int>(k)));
      bucketing::CompactEmptyBuckets(&per_target.back());
    }
  }
  region_grids_.clear();
  region_grids_.reserve(region_pairs_.size());
  for (size_t p = 0; p < region_pairs_.size(); ++p) {
    region_grids_.push_back(plan.TakeGridCounts(static_cast<int>(p)));
  }
  return Status::Ok();
}

void MiningEngine::Prepare() {
  const Status status = TryPrepare();
  if (!status.ok()) {
    std::fprintf(stderr, "MiningEngine::Prepare failed: %s\n",
                 status.ToString().c_str());
  }
  OPTRULES_CHECK(status.ok());
}

Status MiningEngine::TryPrepare() {
  if (prepared_) return Status::Ok();
  OPTRULES_CHECK(options_.num_buckets >= 1);
  OPTRULES_CHECK(options_.sample_per_bucket >= 1);
  OPTRULES_CHECK(options_.region_grid_buckets >= 1);
  // Partitions that vanished since the table was opened must fail softly
  // here; the planning stream below treats a partition disappearing
  // MID-scan as fatal, so the window is re-validated up front.
  if (partitioned_ != nullptr) {
    OPTRULES_RETURN_IF_ERROR(partitioned_->Validate());
  }
  // One planning pass covers the base set (every attribute at
  // num_buckets, shared by plain, generalized and aggregate channels) plus
  // one set per other grid bucket count the registered region pairs use
  // (rectangular pairs plan their x axis at nx and y axis at ny), each
  // masked to the columns that actually use it.
  std::vector<BoundarySetRequest> requests = {{options_.num_buckets, {}}};
  std::vector<std::vector<bucketing::BucketBoundaries>*> outs = {
      &boundary_sets_[options_.num_buckets]};
  planned_columns_ = RegionColumnMasks();
  for (auto& [count, mask] : planned_columns_) {
    requests.push_back({count, mask});
    outs.push_back(&boundary_sets_[count]);
  }
  OPTRULES_RETURN_IF_ERROR(PlanBoundarySets(requests, outs));
  OPTRULES_RETURN_IF_ERROR(RunCountingScan());
  prepared_ = true;
  return Status::Ok();
}

std::map<int, std::vector<uint8_t>> MiningEngine::RegionColumnMasks() const {
  std::map<int, std::vector<uint8_t>> masks;
  const auto mark = [this, &masks](int count, int column) {
    std::vector<uint8_t>& mask = masks[count];
    if (mask.empty()) {
      mask.assign(static_cast<size_t>(schema_.num_numeric()), 0);
    }
    mask[static_cast<size_t>(column)] = 1;
  };
  for (const RegionPair& pair : region_pairs_) {
    mark(pair.nx, pair.x);
    mark(pair.ny, pair.y);
  }
  // The base set plans every column already.
  masks.erase(options_.num_buckets);
  return masks;
}

const bucketing::BucketBoundaries& MiningEngine::Boundary(int num_buckets,
                                                          int column) const {
  const auto it = boundary_sets_.find(num_buckets);
  OPTRULES_CHECK(it != boundary_sets_.end());
  return it->second[static_cast<size_t>(column)];
}

std::vector<MinedRule> MiningEngine::MineAllPairs() {
  const ThresholdSet thresholds = ThresholdsOf(options_);
  return MineAllPairs({&thresholds, 1});
}

Result<std::vector<MinedRule>> MiningEngine::MinePair(
    const std::string& numeric_attr, const std::string& boolean_attr) {
  return MinePair(numeric_attr, boolean_attr, ThresholdsOf(options_));
}

Result<std::vector<MinedRule>> MiningEngine::MinePair(
    const std::string& numeric_attr, const std::string& boolean_attr,
    const ThresholdSet& thresholds) {
  OPTRULES_RETURN_IF_ERROR(ValidateThresholds(thresholds));
  const Result<int> numeric_index = schema_.NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> boolean_index = schema_.BooleanIndexOf(boolean_attr);
  if (!boolean_index.ok()) return boolean_index.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  return EmitRulesForPair(
      counts_[static_cast<size_t>(numeric_index.value())],
      boolean_index.value(), thresholds, numeric_attr, boolean_attr);
}

std::vector<MinedRule> MiningEngine::MineAllPairs(
    std::span<const ThresholdSet> sweep) {
  for (const ThresholdSet& thresholds : sweep) {
    OPTRULES_CHECK(ValidateThresholds(thresholds).ok());
  }
  Prepare();
  // Sweep-major output, as if each threshold set ran MineAllPairs() in
  // turn; each pair is visited once and writes its rules for every set.
  const size_t stride = static_cast<size_t>(schema_.num_numeric()) *
                        static_cast<size_t>(schema_.num_boolean()) * 2;
  std::vector<MinedRule> all(sweep.size() * stride);
  PairScratch scratch;
  size_t pair_offset = 0;
  for (int a = 0; a < schema_.num_numeric(); ++a) {
    for (int b = 0; b < schema_.num_boolean(); ++b) {
      EmitRulesForPair(counts_[static_cast<size_t>(a)], b, sweep,
                       schema_.NumericName(a), schema_.BooleanName(b),
                       scratch, all.data() + pair_offset, stride);
      pair_offset += 2;
    }
  }
  return all;
}

Result<int> MiningEngine::EnsureCondition(
    const std::vector<std::string>& names) {
  std::vector<int> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    const Result<int> index = schema_.BooleanIndexOf(name);
    if (!index.ok()) return index.status();
    indices.push_back(index.value());
  }
  // Canonicalize the conjunction (order and duplicates don't change the
  // mask) so a permuted spelling of a registered condition never triggers
  // a needless supplemental scan; the rendered presumptive_condition text
  // still follows the caller's per-query attribute order.
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  for (size_t c = 0; c < conditions_.size(); ++c) {
    if (conditions_[c] == indices) return static_cast<int>(c);
  }
  conditions_.push_back(std::move(indices));
  const int condition = static_cast<int>(conditions_.size()) - 1;
  // A condition registered after the shared scan costs one supplemental
  // scan; registered before, it rides along for free. A failed
  // supplemental scan rolls the registration back so a retry re-scans.
  if (prepared_) {
    const Status status = AddConditionChannels(condition);
    if (!status.ok()) {
      conditions_.pop_back();
      return status;
    }
  }
  return condition;
}

Result<int> MiningEngine::EnsureSumTarget(const std::string& name) {
  const Result<int> index = schema_.NumericIndexOf(name);
  if (!index.ok()) return index.status();
  for (size_t k = 0; k < sum_targets_.size(); ++k) {
    if (sum_targets_[k] == index.value()) return static_cast<int>(k);
  }
  sum_targets_.push_back(index.value());
  const int k = static_cast<int>(sum_targets_.size()) - 1;
  if (prepared_) {
    const Status status = AddSumTargetChannels(index.value());
    if (!status.ok()) {
      sum_targets_.pop_back();
      return status;
    }
  }
  return k;
}

Status MiningEngine::AddConditionChannels(int condition_index) {
  bucketing::MultiCountSpec spec;
  spec.num_targets = schema_.num_boolean();
  spec.conditions = {
      conditions_[static_cast<size_t>(condition_index)]};
  for (int a = 0; a < schema_.num_numeric(); ++a) {
    bucketing::CountChannel channel;
    channel.column = a;
    channel.boundaries = &Boundary(options_.num_buckets, a);
    channel.condition = 0;
    spec.channels.push_back(std::move(channel));
  }
  bucketing::MultiCountPlan plan(std::move(spec));
  OPTRULES_RETURN_IF_ERROR(ExecuteCount(&plan));
  ++counting_scans_;
  generalized_counts_.emplace_back();
  generalized_counts_.back().reserve(
      static_cast<size_t>(schema_.num_numeric()));
  for (int a = 0; a < schema_.num_numeric(); ++a) {
    generalized_counts_.back().push_back(plan.TakeCounts(a));
    bucketing::CompactEmptyBuckets(&generalized_counts_.back().back());
  }
  return Status::Ok();
}

Status MiningEngine::AddSumTargetChannels(int target) {
  // Sum-only channels over the base boundaries: no planning pass, and
  // exactly the u/min/max the shared scan's base channels produced.
  bucketing::MultiCountSpec spec;
  spec.num_targets = schema_.num_boolean();
  for (int a = 0; a < schema_.num_numeric(); ++a) {
    bucketing::CountChannel channel;
    channel.column = a;
    channel.boundaries = &Boundary(options_.num_buckets, a);
    channel.count_targets = false;
    channel.sum_targets = {target};
    spec.channels.push_back(std::move(channel));
  }
  bucketing::MultiCountPlan plan(std::move(spec));
  OPTRULES_RETURN_IF_ERROR(ExecuteCount(&plan));
  ++counting_scans_;
  for (int a = 0; a < schema_.num_numeric(); ++a) {
    auto& per_target = aggregate_sums_[static_cast<size_t>(a)];
    per_target.push_back(plan.TakeBucketSums(a, 0));
    bucketing::CompactEmptyBuckets(&per_target.back());
  }
  return Status::Ok();
}

Result<int> MiningEngine::EnsureRegionPair(const std::string& x_attr,
                                           const std::string& y_attr,
                                           int nx, int ny) {
  if (nx < 1 || ny < 1) {
    return Status::InvalidArgument("region grid shape must be >= 1x1");
  }
  const Result<int> x = schema_.NumericIndexOf(x_attr);
  if (!x.ok()) return x.status();
  const Result<int> y = schema_.NumericIndexOf(y_attr);
  if (!y.ok()) return y.status();
  const RegionPair pair{x.value(), y.value(), nx, ny};
  for (size_t p = 0; p < region_pairs_.size(); ++p) {
    if (region_pairs_[p] == pair) return static_cast<int>(p);
  }
  region_pairs_.push_back(pair);
  const int index = static_cast<int>(region_pairs_.size()) - 1;
  // A pair registered after the shared scan costs one supplemental scan;
  // registered before, its grid channel rides along for free (failed
  // supplemental scans roll the registration back).
  if (prepared_) {
    const Status status = AddRegionChannel(index);
    if (!status.ok()) {
      region_pairs_.pop_back();
      return status;
    }
  }
  return index;
}

int MiningEngine::FindRegionPair(int x, int y) const {
  for (size_t p = 0; p < region_pairs_.size(); ++p) {
    if (region_pairs_[p].x == x && region_pairs_[p].y == y) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

Status MiningEngine::AddRegionChannel(int pair_index) {
  const RegionPair& pair = region_pairs_[static_cast<size_t>(pair_index)];
  // Plan a set when its bucket count has never been planned or the late
  // pair buckets a column outside that count's planned mask (each column's
  // boundaries are derived independently, so columns already planned come
  // out identical). The base count is always fully planned.
  const auto ensure_planned = [this](int count, int column) {
    if (count == options_.num_buckets) return Status::Ok();
    const std::vector<uint8_t>& planned = planned_columns_[count];
    if (!planned.empty() && planned[static_cast<size_t>(column)] != 0) {
      return Status::Ok();
    }
    std::map<int, std::vector<uint8_t>> masks = RegionColumnMasks();
    const BoundarySetRequest requests[] = {{count, masks[count]}};
    std::vector<bucketing::BucketBoundaries>* outs[] = {
        &boundary_sets_[count]};
    // Planning clears the set first, so its mask is dropped until the pass
    // succeeds; a failed pass is retried by the next registration.
    planned_columns_[count].clear();
    OPTRULES_RETURN_IF_ERROR(PlanBoundarySets(requests, outs));
    planned_columns_[count] = std::move(masks[count]);
    return Status::Ok();
  };
  OPTRULES_RETURN_IF_ERROR(ensure_planned(pair.nx, pair.x));
  OPTRULES_RETURN_IF_ERROR(ensure_planned(pair.ny, pair.y));
  bucketing::MultiCountSpec spec;
  spec.num_targets = schema_.num_boolean();
  bucketing::GridChannel channel;
  channel.x_column = pair.x;
  channel.x_boundaries = &Boundary(pair.nx, pair.x);
  channel.y_column = pair.y;
  channel.y_boundaries = &Boundary(pair.ny, pair.y);
  spec.grid_channels.push_back(channel);
  bucketing::MultiCountPlan plan(std::move(spec));
  OPTRULES_RETURN_IF_ERROR(ExecuteCount(&plan));
  ++counting_scans_;
  region_grids_.push_back(plan.TakeGridCounts(0));
  return Status::Ok();
}

Status MiningEngine::RequestGeneralized(
    const std::vector<std::string>& condition_attrs) {
  const Result<int> condition = EnsureCondition(condition_attrs);
  return condition.ok() ? Status::Ok() : condition.status();
}

Status MiningEngine::RequestAverageTarget(const std::string& target_attr) {
  const Result<int> target = EnsureSumTarget(target_attr);
  return target.ok() ? Status::Ok() : target.status();
}

Status MiningEngine::RequestRegionPair(const std::string& x_attr,
                                       const std::string& y_attr) {
  return RequestRegionPair(x_attr, y_attr, options_.region_grid_buckets,
                           options_.region_grid_buckets);
}

Status MiningEngine::RequestRegionPair(const std::string& x_attr,
                                       const std::string& y_attr, int nx,
                                       int ny) {
  const Result<int> pair = EnsureRegionPair(x_attr, y_attr, nx, ny);
  return pair.ok() ? Status::Ok() : pair.status();
}

Result<MinedRegion> MiningEngine::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr) {
  return MineOptimizedRegion(x_attr, y_attr, target_attr,
                             ThresholdsOf(options_));
}

Result<MinedRegion> MiningEngine::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr, const ThresholdSet& thresholds) {
  OPTRULES_RETURN_IF_ERROR(ValidateThresholds(thresholds));
  const Result<int> target = schema_.BooleanIndexOf(target_attr);
  if (!target.ok()) return target.status();
  // An already-registered pair over (x, y) answers at its registered grid
  // shape (rectangular included); otherwise auto-register the square
  // default, at the documented supplemental-scan price when late.
  Result<int> pair = [&]() -> Result<int> {
    const Result<int> x = schema_.NumericIndexOf(x_attr);
    if (!x.ok()) return x.status();
    const Result<int> y = schema_.NumericIndexOf(y_attr);
    if (!y.ok()) return y.status();
    const int found = FindRegionPair(x.value(), y.value());
    if (found >= 0) return found;
    return EnsureRegionPair(x_attr, y_attr, options_.region_grid_buckets,
                            options_.region_grid_buckets);
  }();
  if (!pair.ok()) return pair.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const region::GridCounts grid = region::FromGridBucketCounts(
      region_grids_[static_cast<size_t>(pair.value())], target.value());
  return MineRegionFromGrid(grid, thresholds, x_attr, y_attr, target_attr);
}

Result<std::vector<MinedRule>> MiningEngine::MineGeneralized(
    const std::string& numeric_attr,
    const std::vector<std::string>& condition_attrs,
    const std::string& objective_attr) {
  return MineGeneralized(numeric_attr, condition_attrs, objective_attr,
                         ThresholdsOf(options_));
}

Result<std::vector<MinedRule>> MiningEngine::MineGeneralized(
    const std::string& numeric_attr,
    const std::vector<std::string>& condition_attrs,
    const std::string& objective_attr, const ThresholdSet& thresholds) {
  OPTRULES_RETURN_IF_ERROR(ValidateThresholds(thresholds));
  const Result<int> numeric_index = schema_.NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> objective_index = schema_.BooleanIndexOf(objective_attr);
  if (!objective_index.ok()) return objective_index.status();
  const Result<int> condition = EnsureCondition(condition_attrs);
  if (!condition.ok()) return condition.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const bucketing::BucketCounts& counts =
      generalized_counts_[static_cast<size_t>(condition.value())]
                         [static_cast<size_t>(numeric_index.value())];
  std::vector<MinedRule> mined = EmitRulesForPair(
      counts, objective_index.value(), thresholds, numeric_attr,
      objective_attr);
  const std::string condition_text = ConditionText(condition_attrs);
  for (MinedRule& rule : mined) rule.presumptive_condition = condition_text;
  return mined;
}

SlopePairContext& MiningEngine::HullContextFor(int range_attr, int k) {
  const auto a = static_cast<size_t>(range_attr);
  const auto ki = static_cast<size_t>(k);
  if (hull_contexts_.size() < aggregate_sums_.size()) {
    hull_contexts_.resize(aggregate_sums_.size());
  }
  if (hull_contexts_[a].size() < aggregate_sums_[a].size()) {
    hull_contexts_[a].resize(aggregate_sums_[a].size());
  }
  std::unique_ptr<SlopePairContext>& slot = hull_contexts_[a][ki];
  if (slot == nullptr) {
    const bucketing::BucketSums& sums = SumsFor(range_attr, k);
    slot = std::make_unique<SlopePairContext>(sums.u, sums.sum);
    ++hull_contexts_built_;
  }
  return *slot;
}

Result<MinedAggregateRange> MiningEngine::MineMaximumAverageRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_support) {
  OPTRULES_RETURN_IF_ERROR(ValidateAggregateSupport(min_support));
  const Result<int> range_index = schema_.NumericIndexOf(range_attr);
  if (!range_index.ok()) return range_index.status();
  const Result<int> target = EnsureSumTarget(target_attr);
  if (!target.ok()) return target.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const bucketing::BucketSums& sums =
      SumsFor(range_index.value(), target.value());
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    // Identical to MaximumAverageRange(sums.u, sums.sum, ...) but the
    // threshold-independent hull context is built once per (range,
    // target) pair and reused by every later threshold.
    SlopePairContext& context =
        HullContextFor(range_index.value(), target.value());
    const SlopePair pair = context.Solve(
        MinSupportCount(sums.total_tuples, min_support));
    if (pair.found) {
      aggregate = MakeRangeAggregate(sums.u, sums.sum, pair.m, pair.n - 1);
    }
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

Result<MinedAggregateRange> MiningEngine::MineMaximumSupportRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_average) {
  OPTRULES_RETURN_IF_ERROR(ValidateAggregateAverage(min_average));
  const Result<int> range_index = schema_.NumericIndexOf(range_attr);
  if (!range_index.ok()) return range_index.status();
  const Result<int> target = EnsureSumTarget(target_attr);
  if (!target.ok()) return target.status();
  OPTRULES_RETURN_IF_ERROR(TryPrepare());
  const bucketing::BucketSums& sums =
      SumsFor(range_index.value(), target.value());
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    aggregate = MaximumSupportRange(sums.u, sums.sum, min_average);
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

// -------------------------------------------------------------- Miner ----

/// Cached per-numeric-attribute bucketing: boundaries are sampled once and
/// all Boolean targets counted in one scan; empty buckets are compacted.
struct Miner::AttributeBuckets {
  bucketing::BucketCounts counts;  // v has one entry per Boolean attribute
};

Miner::Miner(const storage::Relation* relation, MinerOptions options)
    : relation_(relation), options_(options) {
  OPTRULES_CHECK(relation != nullptr);
  OPTRULES_CHECK(options_.num_buckets >= 1);
  OPTRULES_CHECK(options_.sample_per_bucket >= 1);
  OPTRULES_CHECK(ValidateThresholds(ThresholdsOf(options_)).ok());
  cache_.resize(static_cast<size_t>(relation->schema().num_numeric()));
}

Miner::~Miner() = default;

const Miner::AttributeBuckets& Miner::BucketsFor(int numeric_index) {
  auto& slot = cache_[static_cast<size_t>(numeric_index)];
  if (slot != nullptr) return *slot;

  const std::vector<double>& values =
      relation_->NumericColumn(numeric_index);
  const bucketing::BucketBoundaries boundaries = bucketing::BuildBoundaries(
      values, ToBoundaryPlan(options_), AttributeSalt(numeric_index));

  std::vector<const std::vector<uint8_t>*> targets;
  targets.reserve(static_cast<size_t>(relation_->schema().num_boolean()));
  for (int b = 0; b < relation_->schema().num_boolean(); ++b) {
    targets.push_back(&relation_->BooleanColumn(b));
  }
  auto buckets = std::make_unique<AttributeBuckets>();
  buckets->counts = bucketing::CountBuckets(values, targets, boundaries);
  bucketing::CompactEmptyBuckets(&buckets->counts);
  slot = std::move(buckets);
  return *slot;
}

Result<std::vector<MinedRule>> Miner::MinePair(
    const std::string& numeric_attr, const std::string& boolean_attr) {
  const Result<int> numeric_index =
      relation_->schema().NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> boolean_index =
      relation_->schema().BooleanIndexOf(boolean_attr);
  if (!boolean_index.ok()) return boolean_index.status();

  const AttributeBuckets& buckets = BucketsFor(numeric_index.value());
  return EmitRulesForPair(buckets.counts, boolean_index.value(),
                          ThresholdsOf(options_), numeric_attr, boolean_attr);
}

std::vector<MinedRule> Miner::MineAll() {
  std::vector<MinedRule> all;
  const storage::Schema& schema = relation_->schema();
  for (int a = 0; a < schema.num_numeric(); ++a) {
    for (int b = 0; b < schema.num_boolean(); ++b) {
      Result<std::vector<MinedRule>> pair =
          MinePair(schema.NumericName(a), schema.BooleanName(b));
      OPTRULES_CHECK(pair.ok());
      for (MinedRule& rule : pair.value()) {
        all.push_back(std::move(rule));
      }
    }
  }
  return all;
}

Result<std::vector<MinedRule>> Miner::MineGeneralized(
    const std::string& numeric_attr,
    const std::vector<std::string>& condition_attrs,
    const std::string& objective_attr) {
  const Result<int> numeric_index =
      relation_->schema().NumericIndexOf(numeric_attr);
  if (!numeric_index.ok()) return numeric_index.status();
  const Result<int> objective_index =
      relation_->schema().BooleanIndexOf(objective_attr);
  if (!objective_index.ok()) return objective_index.status();

  // Materialize the C1 mask (conjunction of the condition attributes).
  const int64_t n = relation_->NumRows();
  std::vector<uint8_t> c1(static_cast<size_t>(n), 1);
  for (const std::string& name : condition_attrs) {
    const Result<int> index = relation_->schema().BooleanIndexOf(name);
    if (!index.ok()) return index.status();
    const std::vector<uint8_t>& column =
        relation_->BooleanColumn(index.value());
    for (size_t row = 0; row < c1.size(); ++row) c1[row] &= column[row];
  }

  const std::vector<double>& values =
      relation_->NumericColumn(numeric_index.value());
  // The attribute's one bucketing (the same boundaries MinePair uses).
  const bucketing::BucketBoundaries boundaries = bucketing::BuildBoundaries(
      values, ToBoundaryPlan(options_), AttributeSalt(numeric_index.value()));
  bucketing::BucketCounts counts = bucketing::CountBucketsConditional(
      values, c1, relation_->BooleanColumn(objective_index.value()),
      boundaries);
  bucketing::CompactEmptyBuckets(&counts);

  std::vector<MinedRule> mined =
      EmitRulesForPair(counts, 0, ThresholdsOf(options_), numeric_attr,
                       objective_attr);
  const std::string condition_text = ConditionText(condition_attrs);
  for (MinedRule& rule : mined) {
    rule.presumptive_condition = condition_text;
  }
  return mined;
}

namespace {

/// Shared Section 5 setup: buckets of A with per-bucket sums of B.
Result<bucketing::BucketSums> BuildSums(const storage::Relation& relation,
                                        const MinerOptions& options,
                                        const std::string& range_attr,
                                        const std::string& target_attr) {
  const Result<int> a = relation.schema().NumericIndexOf(range_attr);
  if (!a.ok()) return a.status();
  const Result<int> b = relation.schema().NumericIndexOf(target_attr);
  if (!b.ok()) return b.status();
  const std::vector<double>& values = relation.NumericColumn(a.value());
  const bucketing::BucketBoundaries boundaries = bucketing::BuildBoundaries(
      values, ToBoundaryPlan(options), AttributeSalt(a.value()));
  bucketing::BucketSums sums = bucketing::CountBucketSums(
      values, relation.NumericColumn(b.value()), boundaries);
  bucketing::CompactEmptyBuckets(&sums);
  return sums;
}

}  // namespace

Result<MinedAggregateRange> Miner::MineMaximumAverageRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_support) {
  OPTRULES_RETURN_IF_ERROR(ValidateAggregateSupport(min_support));
  Result<bucketing::BucketSums> sums_or =
      BuildSums(*relation_, options_, range_attr, target_attr);
  if (!sums_or.ok()) return sums_or.status();
  const bucketing::BucketSums& sums = sums_or.value();
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    aggregate = MaximumAverageRange(
        sums.u, sums.sum, MinSupportCount(sums.total_tuples, min_support));
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

Result<MinedAggregateRange> Miner::MineMaximumSupportRange(
    const std::string& range_attr, const std::string& target_attr,
    double min_average) {
  OPTRULES_RETURN_IF_ERROR(ValidateAggregateAverage(min_average));
  Result<bucketing::BucketSums> sums_or =
      BuildSums(*relation_, options_, range_attr, target_attr);
  if (!sums_or.ok()) return sums_or.status();
  const bucketing::BucketSums& sums = sums_or.value();
  RangeAggregate aggregate;
  if (!sums.u.empty()) {
    aggregate = MaximumSupportRange(sums.u, sums.sum, min_average);
  }
  return ToMinedAggregate(sums, aggregate, range_attr, target_attr);
}

Result<MinedRegion> Miner::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr) {
  return MineOptimizedRegion(x_attr, y_attr, target_attr,
                             options_.region_grid_buckets,
                             options_.region_grid_buckets);
}

Result<MinedRegion> Miner::MineOptimizedRegion(
    const std::string& x_attr, const std::string& y_attr,
    const std::string& target_attr, int nx, int ny) {
  const storage::Schema& schema = relation_->schema();
  const Result<int> x = schema.NumericIndexOf(x_attr);
  if (!x.ok()) return x.status();
  const Result<int> y = schema.NumericIndexOf(y_attr);
  if (!y.ok()) return y.status();
  const Result<int> target = schema.BooleanIndexOf(target_attr);
  if (!target.ok()) return target.status();
  if (nx < 1 || ny < 1) {
    return Status::InvalidArgument("region grid shape must be >= 1x1");
  }

  // Same region boundary recipe as the engine: each axis bucketed at its
  // own count (nx / ny) under the session seed and per-attribute salts.
  bucketing::BoundaryPlan plan = ToBoundaryPlan(options_);
  plan.num_buckets = nx;
  const bucketing::BucketBoundaries x_boundaries = bucketing::BuildBoundaries(
      relation_->NumericColumn(x.value()), plan, AttributeSalt(x.value()));
  plan.num_buckets = ny;
  const bucketing::BucketBoundaries y_boundaries = bucketing::BuildBoundaries(
      relation_->NumericColumn(y.value()), plan, AttributeSalt(y.value()));
  const region::GridCounts grid = region::BuildGrid(
      relation_->NumericColumn(x.value()), relation_->NumericColumn(y.value()),
      relation_->BooleanColumn(target.value()), x_boundaries, y_boundaries);
  return MineRegionFromGrid(grid, ThresholdsOf(options_), x_attr, y_attr,
                            target_attr);
}

}  // namespace optrules::rules
