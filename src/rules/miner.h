// End-to-end rule miners: the system of Section 1.3.
//
// Two entry points share one pipeline (boundary planning -> bucket
// counting -> O(M) optimizers):
//
//  * MiningEngine -- the batch-execution session. It plans equi-depth
//    boundaries for EVERY numeric attribute up front, then accumulates
//    BucketCounts for every (numeric, Boolean) attribute pair -- plus the
//    conditional channels of registered generalized conditions (Section
//    4.3) and the per-bucket sum channels of registered aggregate targets
//    (Section 5) -- in ONE shared columnar scan of the data
//    (bucketing::MultiCountPlan over a storage::BatchSource, optionally
//    partitioned over a ThreadPool), and finally answers plain,
//    generalized, aggregate, and threshold-sweep queries from the cached
//    channels. This is the paper's "complete set of optimized rules for
//    all combinations of hundreds of numeric and Boolean attributes"
//    path: the scan cost is paid once no matter how many queries are
//    answered, in memory or on disk.
//
//  * Miner -- the legacy reference miner over an in-memory relation. It
//    buckets lazily, one counting pass per query, and is kept as the
//    independently-simple implementation the engine is tested against
//    (their outputs must be bit-identical for every query kind).

#ifndef OPTRULES_RULES_MINER_H_
#define OPTRULES_RULES_MINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dist/coordinator.h"
#include "region/rectangle.h"
#include "region/xmonotone.h"
#include "rules/optimized_confidence.h"
#include "rules/rule.h"
#include "storage/columnar_batch.h"
#include "storage/relation.h"

namespace optrules::rules {

/// How equi-depth bucket boundaries are derived per numeric attribute
/// (shared dispatch lives in bucketing::BuildBoundaries).
using Bucketizer = bucketing::Bucketizer;

/// Mining parameters.
struct MinerOptions {
  int num_buckets = 1000;        ///< M of Algorithm 3.1
  int64_t sample_per_bucket = 40;  ///< S/M of Algorithm 3.1
  double min_support = 0.05;     ///< ampleness threshold (confidence rules)
  double min_confidence = 0.5;   ///< confidence threshold (support rules)
  uint64_t seed = 42;            ///< sampling seed
  Bucketizer bucketizer = Bucketizer::kSampling;
  /// Rank-error fraction for the GK bucketizer (ignored otherwise).
  double gk_epsilon = 0.0;  ///< 0 = auto: 1 / (4 * num_buckets)
  /// Per-axis bucket count of two-dimensional region grids (Section 1.4):
  /// each registered region pair is counted into a
  /// region_grid_buckets x region_grid_buckets equi-depth cell grid. Kept
  /// separate from num_buckets because the region optimizers are
  /// O(nx * ny^2) in the grid resolution.
  int region_grid_buckets = 32;
};

/// The bucketizer fields of `options` as a bucketing::BoundaryPlan.
bucketing::BoundaryPlan ToBoundaryPlan(const MinerOptions& options);

/// Which optimization a mined rule answers.
enum class RuleKind {
  kOptimizedConfidence,  ///< max confidence s.t. support >= min_support
  kOptimizedSupport,     ///< max support s.t. confidence >= min_confidence
};

/// A mined rule `(A in [range_lo, range_hi]) [ ^ C1 ] => C`, with its
/// measured statistics. Range endpoints are the observed attribute values
/// spanned by the chosen buckets.
struct MinedRule {
  bool found = false;
  RuleKind kind = RuleKind::kOptimizedConfidence;
  std::string numeric_attr;
  std::string boolean_attr;
  std::string presumptive_condition;  ///< extra C1 conjunct names, or empty
  double range_lo = 0.0;
  double range_hi = 0.0;
  int64_t support_count = 0;
  int64_t hit_count = 0;
  double support = 0.0;
  double confidence = 0.0;

  /// Human-readable one-line rendering of the rule.
  std::string ToString() const;
};

/// One (min_support, min_confidence) pair: the thresholds a query is
/// answered at. Thresholds act only in the O(M) optimizers over the
/// cached bucket counts -- never in boundary planning or the counting
/// scan -- so one prepared engine answers any number of threshold sets.
struct ThresholdSet {
  double min_support = 0.05;
  double min_confidence = 0.5;
};

/// The thresholds carried by `options`.
inline ThresholdSet ThresholdsOf(const MinerOptions& options) {
  return {options.min_support, options.min_confidence};
}

/// InvalidArgument unless both thresholds lie in [0, 1] (NaN included).
Status ValidateThresholds(const ThresholdSet& thresholds);

/// The two-dimensional optimized regions mined for one
/// `(X, Y) in R => C` attribute triple (Section 1.4): both rectangle
/// optimizations plus the gain-optimized x-monotone region, all answered
/// from one nx-by-ny equi-depth grid over (X, Y). Bucket indices inside
/// the sub-results refer to that grid.
struct MinedRegion {
  bool found = false;  ///< any of the three searches found a region
  std::string x_attr;
  std::string y_attr;
  std::string target_attr;
  int nx = 0;
  int ny = 0;
  /// All tuples scanned (the support denominator), NaN rows included.
  int64_t total_tuples = 0;
  /// Max confidence s.t. support >= ThresholdSet::min_support.
  region::RegionRule confidence_rectangle;
  /// Max support s.t. confidence >= ThresholdSet::min_confidence.
  region::RegionRule support_rectangle;
  /// Max gain at theta = ThresholdSet::min_confidence.
  region::XMonotoneRegion xmonotone_gain;

  /// Human-readable multi-line rendering.
  std::string ToString() const;
};

/// A mined Section 5 aggregate range for
/// `avg(B | A in [range_lo, range_hi])`.
struct MinedAggregateRange {
  bool found = false;
  std::string range_attr;   ///< A
  std::string target_attr;  ///< B
  double range_lo = 0.0;
  double range_hi = 0.0;
  int64_t support_count = 0;
  double support = 0.0;
  double average = 0.0;

  std::string ToString() const;
};

/// Batch-execution mining session: one shared counting scan for all
/// attribute pairs.
///
/// Construction is cheap; the first mining call (or an explicit
/// Prepare()) plans boundaries for every numeric attribute and runs the
/// single counting scan. All rule queries afterwards are O(M) on the
/// cached bucket arrays and never touch the data again, so
/// counting_scans() stays 1 for the lifetime of the session.
class MiningEngine {
 public:
  /// Engine over an in-memory relation (which must outlive the engine).
  /// Boundary planning reads the relation's columns directly with the
  /// same per-attribute salts as the legacy Miner, so results match it
  /// bit-for-bit.
  MiningEngine(const storage::Relation* relation, MinerOptions options,
               ThreadPool* pool = nullptr);

  /// Engine over any batch source -- e.g. a disk-resident
  /// storage::PagedFileBatchSource. `schema` names the attributes and
  /// must match the source's attribute counts. Boundary planning costs
  /// one extra sequential pass (every attribute's sampled rows gathered,
  /// or sketched, at once); counting still costs exactly one scan.
  /// Sampling draws the in-memory path's row indices, so the boundaries
  /// -- and every mined bit -- match an engine over the same rows in
  /// memory and the legacy Miner, whatever the file layout or pool size.
  MiningEngine(storage::BatchSource* source, storage::Schema schema,
               MinerOptions options, ThreadPool* pool = nullptr);

  /// Engine over a partitioned table (src/dist/): boundary planning
  /// reads the partitions concatenated in manifest order (one pass, in
  /// this process), and every counting scan fans out through a
  /// DistributedScanCoordinator -- K physical partition scans, in-process
  /// or optrules_workerd subprocess workers, merged in fixed partition
  /// order into ONE logical scan, so counting_scans() stays 1 for a full
  /// mixed session exactly like the single-file paths. Results are a pure
  /// function of (table, options): the worker count and worker kind never
  /// change a single bit. Partitioning reorders rows, and the sampling
  /// and GK bucketizers depend on row order (sampled indices, insertion
  /// order), so their boundaries equal an in-memory engine's over the
  /// manifest-order rows; they match a single-file session when the order
  /// is preserved (round-robin K = 1) or the bucketizer is
  /// permutation-invariant (kExactSort).
  MiningEngine(const dist::PartitionedTable* table, MinerOptions options,
               dist::DistributedScanOptions dist_options = {});

  ~MiningEngine();
  MiningEngine(const MiningEngine&) = delete;
  MiningEngine& operator=(const MiningEngine&) = delete;

  /// Plans boundaries and runs the shared counting scan now (otherwise
  /// the first mining call does it). A failed scan is a fatal error here
  /// and in MineAllPairs; the mining calls that return a Result prepare
  /// through TryPrepare() and return its failure. Sessions that want to
  /// handle scan failures -- e.g. a distributed session whose worker
  /// daemon binary or partition files may be missing -- call TryPrepare()
  /// first and get the Status instead.
  void Prepare();

  /// Prepare() with an error path: plans + scans, returning the first
  /// failure (no-op Ok when already prepared). On error the session stays
  /// unprepared and TryPrepare can be retried. Partition files are
  /// re-validated up front, so tables broken BEFORE the call fail softly;
  /// a sampled planning pass whose reader ends short of NumTuples()
  /// returns Corruption. A partition vanishing in the middle of a scan
  /// itself remains fatal (readers have no mid-stream error channel).
  Status TryPrepare();

  /// Registers a generalized-rule presumptive condition (conjunction of
  /// Boolean attributes, Section 4.3) so the shared counting scan
  /// accumulates its conditional channels for every numeric attribute.
  /// MineGeneralized auto-registers, but registering every condition
  /// before the first mining call keeps counting_scans() at 1; a new
  /// condition after the scan costs one supplemental scan on first use.
  Status RequestGeneralized(const std::vector<std::string>& condition_attrs);

  /// Registers a numeric attribute as a Section 5 aggregate target so the
  /// shared counting scan accumulates its per-bucket sums for every range
  /// attribute. Same pre-registration contract as RequestGeneralized.
  Status RequestAverageTarget(const std::string& target_attr);

  /// Registers a two-dimensional region pair (Section 1.4) so the shared
  /// counting scan scatters its region_grid_buckets^2 cell grid -- per-cell
  /// u plus one v plane per Boolean target -- as a grid channel of the same
  /// single scan. Same pre-registration contract as RequestGeneralized; a
  /// pair registered after the scan costs one supplemental scan.
  Status RequestRegionPair(const std::string& x_attr,
                           const std::string& y_attr);

  /// Rectangular per-request grid: like the overload above but with an
  /// explicit nx-by-ny cell resolution (the region optimizers are
  /// O(nx * ny^2), so a request can spend resolution on the axis that
  /// needs it). Pairs with different shapes coexist in one session; each
  /// axis plans its boundaries at that axis' bucket count.
  Status RequestRegionPair(const std::string& x_attr,
                           const std::string& y_attr, int nx, int ny);

  /// Whether the matching Request* call would register a channel this
  /// engine does not count yet, i.e. cost a counting scan: the first scan
  /// when unprepared, a supplemental one after. Side-effect free, and the
  /// same lookups as registration (a condition compares as its sorted,
  /// de-duplicated index set; a region pair by its exact (x, y, nx, ny)
  /// shape). False when a name does not resolve to an attribute of the
  /// right kind or the shape is invalid: that Request* call fails without
  /// scanning.
  bool WouldRegisterGeneralized(
      const std::vector<std::string>& condition_attrs) const;
  bool WouldRegisterAverageTarget(const std::string& target_attr) const;
  bool WouldRegisterRegionPair(const std::string& x_attr,
                               const std::string& y_attr) const;
  bool WouldRegisterRegionPair(const std::string& x_attr,
                               const std::string& y_attr, int nx,
                               int ny) const;

  /// True once the shared counting scan has run (Prepare / TryPrepare
  /// succeeded): mining calls then answer from cached counts.
  bool prepared() const { return prepared_; }

  /// Both optimized rules for every (numeric, Boolean) attribute pair,
  /// in (numeric-major, Boolean-minor) order, confidence rule before
  /// support rule -- the same order as Miner::MineAll(). Every Mine* call
  /// without a ThresholdSet answers at ThresholdsOf(options()).
  std::vector<MinedRule> MineAllPairs();

  /// Threshold sweep from the same cached counts: the full MineAllPairs()
  /// output at each threshold set, concatenated in sweep order. The scan
  /// cost is paid once, and each pair's convex-hull tree is built once
  /// and solved at every threshold set, so every sweep entry costs one
  /// O(M) tangent walk and one O(M) support scan per pair.
  std::vector<MinedRule> MineAllPairs(std::span<const ThresholdSet> sweep);

  /// Both optimized rules for the pair, from the cached counts, at
  /// `thresholds` (InvalidArgument outside [0, 1]).
  Result<std::vector<MinedRule>> MinePair(const std::string& numeric_attr,
                                          const std::string& boolean_attr,
                                          const ThresholdSet& thresholds);
  Result<std::vector<MinedRule>> MinePair(const std::string& numeric_attr,
                                          const std::string& boolean_attr);

  /// Generalized rules (Section 4.3), answered from the cached
  /// conditional channels at `thresholds`; bit-identical to
  /// Miner::MineGeneralized.
  Result<std::vector<MinedRule>> MineGeneralized(
      const std::string& numeric_attr,
      const std::vector<std::string>& condition_attrs,
      const std::string& objective_attr, const ThresholdSet& thresholds);
  Result<std::vector<MinedRule>> MineGeneralized(
      const std::string& numeric_attr,
      const std::vector<std::string>& condition_attrs,
      const std::string& objective_attr);

  /// Section 5 maximum-average range from the cached sum channels;
  /// bit-identical to Miner::MineMaximumAverageRange for serial scans.
  /// InvalidArgument when `min_support` lies outside [0, 1].
  Result<MinedAggregateRange> MineMaximumAverageRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_support);

  /// Section 5 maximum-support range from the cached sum channels;
  /// bit-identical to Miner::MineMaximumSupportRange for serial scans.
  /// InvalidArgument when `min_average` is not finite.
  Result<MinedAggregateRange> MineMaximumSupportRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_average);

  /// Two-dimensional optimized regions (Section 1.4) for
  /// `(x_attr, y_attr) in R => target_attr`, answered from the cached grid
  /// channel of the shared counting scan at `thresholds`: the
  /// optimized-confidence and optimized-support rectangles plus the
  /// max-gain x-monotone region. Bit-identical to
  /// Miner::MineOptimizedRegion. Auto-registers the pair (one
  /// supplemental scan when it was not pre-registered); any Boolean
  /// target can be queried against a registered pair at no extra scan.
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr,
                                          const ThresholdSet& thresholds);
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr);

  /// Number of counting scans performed over the data so far (0 before
  /// Prepare, 1 after -- regardless of the number of pairs, generalized,
  /// aggregate, or sweep queries answered, as long as every condition /
  /// aggregate target was registered before the first mining call). For a
  /// partitioned engine this counts LOGICAL scans: one distributed scan =
  /// one, however many partitions it fanned out to.
  int64_t counting_scans() const { return counting_scans_; }

  /// Cache and pruning counters accumulated by this session's reads:
  /// buffer-pool hits/misses, zone-map-pruned pages, and manifest-pruned
  /// partitions, io-wait seconds. Single-source engines report their batch
  /// source's counters; partitioned engines add (+=) the distributed
  /// coordinator's (counting fan-outs) to the concatenating source's
  /// (boundary planning). In-memory relation engines report zeros. Purely
  /// diagnostic: pruning and caching never change a mined bit.
  storage::BatchSourceStats scan_stats() const;

  /// Number of SlopePairContext (hull tree) builds so far: repeated
  /// aggregate queries on one (range, target) pair at different
  /// thresholds reuse the cached context, so this stays at one per pair
  /// (tests assert the reuse).
  int64_t hull_contexts_built() const { return hull_contexts_built_; }

  const storage::Schema& schema() const { return schema_; }
  const MinerOptions& options() const { return options_; }

 private:
  /// One boundary set to plan: numeric attributes bucketed into
  /// `num_buckets` buckets under the session seed. An empty `column_mask`
  /// plans every attribute; otherwise only attributes with
  /// column_mask[a] != 0 are planned (the rest get empty placeholder
  /// boundaries) -- region sets use this so a wide schema does not pay
  /// per-attribute planning for a handful of registered grid axes.
  struct BoundarySetRequest {
    int num_buckets = 0;
    std::vector<uint8_t> column_mask;
  };
  /// A registered two-dimensional region pair (numeric column indices)
  /// with its grid resolution (nx need not equal ny).
  struct RegionPair {
    int x = 0;
    int y = 0;
    int nx = 0;
    int ny = 0;
    friend bool operator==(const RegionPair&, const RegionPair&) = default;
  };

  /// Plans one boundary set per request (requests have distinct bucket
  /// counts) for every numeric attribute; generic batch sources pay ONE
  /// sequential pass for the whole request list. Traced as one `engine.plan`
  /// span and counted in `engine.planning_passes`. Returns the scan's
  /// failure -- e.g. Corruption when a reader yields fewer rows than the
  /// source reports -- leaving the requested sets empty.
  Status PlanBoundarySets(
      std::span<const BoundarySetRequest> requests,
      std::span<std::vector<bucketing::BucketBoundaries>* const> out);
  Status RunCountingScan();
  /// Runs `plan` over exactly one logical scan of the session's data:
  /// ExecuteMultiCount over the source, or -- for a partitioned engine --
  /// a distributed fan-out merged in partition order (whose worker or
  /// partition failures surface as the returned Status).
  Status ExecuteCount(bucketing::MultiCountPlan* plan);
  /// Resolves condition attribute names to their canonical form: sorted,
  /// de-duplicated Boolean indices (NotFound / InvalidArgument on a bad
  /// name).
  Result<std::vector<int>> ResolveCondition(
      const std::vector<std::string>& names) const;
  /// Resolves a region pair's attribute names and validates its shape.
  Result<RegionPair> ResolveRegionPair(const std::string& x_attr,
                                       const std::string& y_attr, int nx,
                                       int ny) const;
  /// Resolves + registers a condition; runs a supplemental scan when the
  /// session is already prepared. Returns the condition's index.
  Result<int> EnsureCondition(const std::vector<std::string>& names);
  /// Resolves + registers an aggregate target; supplemental scan when
  /// already prepared. Returns the target's sum-channel index.
  Result<int> EnsureSumTarget(const std::string& name);
  /// Resolves + registers a region pair at the given grid shape;
  /// supplemental scan when already prepared. Returns the pair's grid
  /// index.
  Result<int> EnsureRegionPair(const std::string& x_attr,
                               const std::string& y_attr, int nx, int ny);
  /// Index of the first registered pair over (x, y) columns regardless of
  /// grid shape, or -1.
  int FindRegionPair(int x, int y) const;
  /// Supplemental-scan paths for late registrations; a failed scan is
  /// returned and the registration rolled back by the caller.
  Status AddConditionChannels(int condition_index);
  Status AddSumTargetChannels(int target);
  Status AddRegionChannel(int pair_index);
  /// Per distinct region bucket count other than num_buckets (the base
  /// set covers every column), the mask of numeric columns some
  /// registered pair buckets at that count (x axes contribute their nx,
  /// y axes their ny).
  std::map<int, std::vector<uint8_t>> RegionColumnMasks() const;
  /// Boundaries of attribute `column` at `num_buckets` (must be planned).
  const bucketing::BucketBoundaries& Boundary(int num_buckets,
                                              int column) const;
  const bucketing::BucketSums& SumsFor(int range_attr, int k) const {
    return aggregate_sums_[static_cast<size_t>(range_attr)]
                          [static_cast<size_t>(k)];
  }
  /// Cached hull context of SumsFor(range_attr, k), built on first use.
  SlopePairContext& HullContextFor(int range_attr, int k);

  const storage::Relation* relation_ = nullptr;  ///< in-memory fast path
  std::unique_ptr<storage::BatchSource> owned_source_;
  storage::BatchSource* source_ = nullptr;
  /// Distributed session state (null for single-source engines): counting
  /// scans fan out through the session coordinator instead of
  /// ExecuteMultiCount. The coordinator persists so supplemental scans
  /// reuse its worker roster (no re-fork per scan) and its
  /// partition_scans() accounting spans the session.
  const dist::PartitionedTable* partitioned_ = nullptr;
  dist::DistributedScanOptions dist_options_;
  std::unique_ptr<dist::DistributedScanCoordinator> coordinator_;
  storage::Schema schema_;
  MinerOptions options_;
  ThreadPool* pool_ = nullptr;
  bool prepared_ = false;
  int64_t counting_scans_ = 0;
  int64_t hull_contexts_built_ = 0;
  /// Registered generalized conditions (resolved Boolean indices, in
  /// registration order), aggregate sum targets (numeric indices), and
  /// two-dimensional region pairs.
  std::vector<std::vector<int>> conditions_;
  std::vector<int> sum_targets_;
  std::vector<RegionPair> region_pairs_;
  /// One boundary set per bucket count, each a per-attribute vector drawn
  /// from options.seed + the attribute salt: the base set at num_buckets
  /// (every attribute; plain, generalized, aggregate and same-count region
  /// channels all bucket through it), plus one per other grid bucket
  /// count in use, with placeholders for masked-out columns.
  std::map<int, std::vector<bucketing::BucketBoundaries>> boundary_sets_;
  /// Which columns each non-base set actually planned (a late pair on an
  /// unplanned (count, column) re-plans that count's set).
  std::map<int, std::vector<uint8_t>> planned_columns_;
  /// Compacted per-numeric-attribute counts (one v-row per Boolean attr).
  std::vector<bucketing::BucketCounts> counts_;
  /// generalized_counts_[condition][attr], compacted.
  std::vector<std::vector<bucketing::BucketCounts>> generalized_counts_;
  /// aggregate_sums_[attr][k]: sums of sum_targets_[k] over attr's
  /// aggregate buckets, compacted.
  std::vector<std::vector<bucketing::BucketSums>> aggregate_sums_;
  /// hull_contexts_[attr][k]: lazily built SlopePairContext over
  /// aggregate_sums_[attr][k], reused by every aggregate query on that
  /// pair regardless of threshold.
  std::vector<std::vector<std::unique_ptr<SlopePairContext>>>
      hull_contexts_;
  /// region_grids_[p]: cell grid of region_pairs_[p] (per-cell u plus one
  /// v plane per Boolean target; grids keep their empty cells -- the
  /// region miners handle u == 0 cells directly).
  std::vector<bucketing::GridBucketCounts> region_grids_;
};

/// Legacy reference miner over an in-memory relation.
///
/// The relation must outlive the miner. Bucketings are computed lazily
/// per numeric attribute and cached, so MineAll() pays one sampling pass
/// and one counting pass per numeric attribute regardless of the number
/// of Boolean targets; generalized and aggregate queries re-count per
/// call. MiningEngine supersedes this for every query kind (one scan
/// total instead of one per attribute or per query); Miner stays as the
/// simple reference implementation the engine is tested against.
class Miner {
 public:
  Miner(const storage::Relation* relation, MinerOptions options);
  ~Miner();  // out of line: AttributeBuckets is an incomplete type here

  /// Both optimized rules for the pair (numeric_attr, boolean_attr).
  /// Element 0 is the optimized-confidence rule, element 1 the
  /// optimized-support rule.
  Result<std::vector<MinedRule>> MinePair(const std::string& numeric_attr,
                                          const std::string& boolean_attr);

  /// Both optimized rules for every (numeric, Boolean) attribute pair.
  std::vector<MinedRule> MineAll();

  /// Generalized rules (Section 4.3):
  /// `(A in I) ^ C1 => C2` where C1 is the conjunction of
  /// `condition_attrs` being true. Counts u_i over tuples meeting C1 and
  /// v_i over tuples meeting C1 ^ C2; support stays relative to all
  /// tuples.
  Result<std::vector<MinedRule>> MineGeneralized(
      const std::string& numeric_attr,
      const std::vector<std::string>& condition_attrs,
      const std::string& objective_attr);

  /// Section 5: the range of `range_attr` with at least `min_support`
  /// support maximizing the average of `target_attr`.
  Result<MinedAggregateRange> MineMaximumAverageRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_support);

  /// Section 5: the range of `range_attr` maximizing support subject to
  /// the average of `target_attr` being at least `min_average`.
  Result<MinedAggregateRange> MineMaximumSupportRange(
      const std::string& range_attr, const std::string& target_attr,
      double min_average);

  /// Two-dimensional optimized regions (Section 1.4): builds the
  /// region_grid_buckets^2 equi-depth grid over (x_attr, y_attr) with a
  /// private row-at-a-time counting pass (region::BuildGrid) and runs the
  /// same optimizers as the engine -- the independently-simple reference
  /// path MiningEngine::MineOptimizedRegion is tested bit-identical
  /// against.
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr);

  /// Rectangular variant: an explicit nx-by-ny grid (the engine's
  /// RequestRegionPair(x, y, nx, ny) is tested bit-identical against
  /// this).
  Result<MinedRegion> MineOptimizedRegion(const std::string& x_attr,
                                          const std::string& y_attr,
                                          const std::string& target_attr,
                                          int nx, int ny);

  const MinerOptions& options() const { return options_; }

 private:
  struct AttributeBuckets;  // cached bucketing + counts per numeric attr

  /// Returns (building if needed) the cached bucket statistics of numeric
  /// attribute `numeric_index`.
  const AttributeBuckets& BucketsFor(int numeric_index);

  const storage::Relation* relation_;
  MinerOptions options_;
  std::vector<std::unique_ptr<AttributeBuckets>> cache_;
};

}  // namespace optrules::rules

#endif  // OPTRULES_RULES_MINER_H_
