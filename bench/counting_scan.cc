// Counting-scan microbench: the hot path of Algorithm 3.1 step 4.
//
// The shared counting scan assigns every tuple of every registered channel
// to a bucket; this harness times exactly that kernel over a
// rows x attrs x channels grid, in-memory (RelationBatchSource) and
// out-of-core (PagedFileBatchSource), so the scan's perf trajectory is
// machine-readable (OPTRULES_BENCH_JSON=1). Channel shapes mirror the
// MiningEngine of earlier releases: base channels (attr x all Boolean
// targets), C conditional channels per attribute sharing ONE generalized
// boundary set (Section 4.3), and one sum channel per attribute (Section
// 5); they stay fixed so the history in BENCH_counting_scan.json compares
// like with like. A per-kind section times the scatter of each channel
// kind alone (base, conditional, sum, grid), and a T = 9 shape covers a
// second target plane. A standalone point-location loop isolates
// Locate/LocateBatch throughput from the scatter passes, once on the
// scan's own column and once per cut layout (sampled uniform, affine,
// exponential, lognormal, heavy-tie, M = 32). Every scan's checksum folds
// u, every v row and every grid plane, and the scalar reference arm must
// reproduce the active arm's checksum.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bucketing/boundaries.h"
#include "bucketing/counting.h"
#include "bucketing/equiwidth.h"
#include "bucketing/parallel_count.h"
#include "bucketing/simd_kernels.h"
#include "common/timer.h"
#include "datagen/table_generator.h"
#include "dist/coordinator.h"
#include "dist/fault_injection.h"
#include "dist/partitioned_table.h"
#include "dist/scan_worker.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

namespace {

using optrules::bucketing::BoundaryPlan;
using optrules::bucketing::BucketBoundaries;
using optrules::bucketing::BuildBoundaries;
using optrules::bucketing::CountChannel;
using optrules::bucketing::ExecuteMultiCount;
using optrules::bucketing::GridChannel;
using optrules::bucketing::MultiCountPlan;
using optrules::bucketing::MultiCountSpec;

constexpr int kNumBuckets = 1000;
constexpr int kReps = 3;

/// Engine-shaped spec over the first `attrs` numeric columns: one base
/// channel per attribute, `conditions` conditional channels per attribute
/// (all sharing the per-attribute generalized boundary set, exactly the
/// duplicate-location shape the shared bucket-index cache removes), and one
/// sum channel per attribute when `with_sums`.
MultiCountSpec MakeSpec(const std::vector<BucketBoundaries>& base,
                        const std::vector<BucketBoundaries>& generalized,
                        int attrs, int conditions, int num_boolean,
                        bool with_sums) {
  MultiCountSpec spec;
  spec.num_targets = num_boolean;
  for (int c = 0; c < conditions; ++c) {
    spec.conditions.push_back({c % num_boolean});
  }
  for (int a = 0; a < attrs; ++a) {
    CountChannel channel;
    channel.column = a;
    channel.boundaries = &base[static_cast<size_t>(a)];
    spec.channels.push_back(std::move(channel));
  }
  for (int c = 0; c < conditions; ++c) {
    for (int a = 0; a < attrs; ++a) {
      CountChannel channel;
      channel.column = a;
      channel.boundaries = &generalized[static_cast<size_t>(a)];
      channel.condition = c;
      spec.channels.push_back(std::move(channel));
    }
  }
  if (with_sums) {
    for (int a = 0; a < attrs; ++a) {
      CountChannel channel;
      channel.column = a;
      channel.boundaries = &base[static_cast<size_t>(a)];
      channel.count_targets = false;
      channel.sum_targets = {(a + 1) % attrs};
      spec.channels.push_back(std::move(channel));
    }
  }
  return spec;
}

/// Position-weighted fold of everything a plan counted -- every channel's
/// u and v rows and every grid's u and v planes -- so a scatter that
/// drops, duplicates or misplaces a count changes the checksum.
int64_t PlanChecksum(const MultiCountPlan& plan) {
  int64_t checksum = 0;
  const auto fold = [&checksum](const std::vector<int64_t>& row,
                                int64_t weight) {
    for (size_t i = 0; i < row.size(); ++i) {
      checksum += row[i] * static_cast<int64_t>(i + 1) * weight;
    }
  };
  for (int ch = 0; ch < plan.num_channels(); ++ch) {
    const auto& counts = plan.counts(ch);
    fold(counts.u, 1);
    for (size_t t = 0; t < counts.v.size(); ++t) {
      fold(counts.v[t], static_cast<int64_t>(t + 2));
    }
  }
  for (int g = 0; g < plan.num_grid_channels(); ++g) {
    const auto& grid = plan.grid_counts(g);
    fold(grid.u, 1);
    for (size_t t = 0; t < grid.v.size(); ++t) {
      fold(grid.v[t], static_cast<int64_t>(t + 2));
    }
  }
  return checksum;
}

/// The checksum of one serial scan on the scalar reference arm
/// (OPTRULES_FORCE_SCALAR): every timed configuration CHECKs its
/// active-arm checksum against this.
int64_t ScalarArmChecksum(optrules::storage::BatchSource& source,
                          const MultiCountSpec& spec) {
  const bool was_forced = optrules::bucketing::simd::ForceScalar();
  optrules::bucketing::simd::SetForceScalarForTest(true);
  MultiCountPlan plan(spec);
  ExecuteMultiCount(source, &plan, nullptr);
  optrules::bucketing::simd::SetForceScalarForTest(was_forced);
  return PlanChecksum(plan);
}

/// Runs `spec` over one serial scan of `source` kReps times; returns the
/// best wall time and folds a checksum into *checksum so the work cannot
/// be dead-code-eliminated (and so before/after runs can be diffed).
double TimeScan(optrules::storage::BatchSource& source,
                const MultiCountSpec& spec, int64_t* checksum,
                optrules::bucketing::ScanPhaseTimes* best_phases = nullptr) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    MultiCountPlan plan(spec);
    optrules::bucketing::ScanPhaseTimes phases;
    if (best_phases != nullptr) plan.set_phase_times(&phases);
    optrules::WallTimer timer;
    ExecuteMultiCount(source, &plan, nullptr);
    const double seconds = timer.ElapsedSeconds();
    const bool is_best = rep == 0 || seconds < best;
    if (is_best) best = seconds;
    if (is_best && best_phases != nullptr) *best_phases = phases;
    if (rep == 0) *checksum += PlanChecksum(plan);
  }
  return best;
}

/// Best-of-kReps LocateBatch throughput of `values` against `boundaries`,
/// in Mrows/s; leaves the last rep's buckets in *out.
double LocateBatchMrowsPerSec(const BucketBoundaries& boundaries,
                              std::span<const double> values,
                              std::vector<int32_t>* out) {
  out->resize(values.size());
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    optrules::WallTimer timer;
    boundaries.LocateBatch(values, *out);
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return static_cast<double>(values.size()) / best / 1e6;
}

/// Drops `path` from the OS page cache so every out-of-core rep measures
/// genuinely cold reads (a warm page cache makes fread a memcpy and hides
/// any I/O overlap). The fdatasync matters: DONTNEED silently skips dirty
/// pages, and the file was written moments ago. Best effort: a filesystem
/// that ignores the advice just yields warm-cache numbers.
void EvictFromPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

}  // namespace

int main() {
  const int64_t scale = optrules::bench::BenchScale();
  const int64_t rows = 1000000 * scale;
  const int num_numeric = 8;
  const int num_boolean = 8;
  optrules::bench::JsonReporter json("counting_scan");
  json.Add("rows", rows);
  json.Add("num_buckets", static_cast<int64_t>(kNumBuckets));

  optrules::datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = num_numeric;
  config.num_boolean = num_boolean;
  optrules::Rng rng(9001);
  const optrules::storage::Relation table =
      optrules::datagen::GenerateTable(config, rng);

  BoundaryPlan boundary_plan;
  boundary_plan.num_buckets = kNumBuckets;
  std::vector<BucketBoundaries> base;
  std::vector<BucketBoundaries> generalized;
  for (int a = 0; a < num_numeric; ++a) {
    base.push_back(BuildBoundaries(table.NumericColumn(a), boundary_plan,
                                   static_cast<uint64_t>(a)));
    generalized.push_back(BuildBoundaries(table.NumericColumn(a),
                                          boundary_plan,
                                          1000 + static_cast<uint64_t>(a)));
  }

  // ---- standalone point location: M=1000 buckets over one column -------
  optrules::bench::PrintHeader("Point location (1000 buckets)");
  {
    const std::span<const double> values = table.NumericColumn(0);
    const BucketBoundaries& boundaries = base[0];
    int64_t sink = 0;
    double scalar_best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      optrules::WallTimer timer;
      for (const double value : values) sink += boundaries.Locate(value);
      const double seconds = timer.ElapsedSeconds();
      if (rep == 0 || seconds < scalar_best) scalar_best = seconds;
    }
    const double scalar_mps =
        static_cast<double>(rows) / scalar_best / 1e6;
    std::printf("scalar Locate:     %8.1f Mrows/s (checksum %lld)\n",
                scalar_mps, static_cast<long long>(sink));
    json.Add("locate_scalar_mrows_per_sec", scalar_mps);

    std::vector<int32_t> out;
    const double batch_mps = LocateBatchMrowsPerSec(boundaries, values, &out);
    int64_t batch_sink = 0;
    for (const int32_t bucket : out) batch_sink += bucket;
    // The scalar loop folded its checksum once per rep.
    OPTRULES_CHECK(batch_sink * kReps == sink);
    std::printf("LocateBatch:       %8.1f Mrows/s\n", batch_mps);
    json.Add("locate_batch_mrows_per_sec", batch_mps);
  }

  // ---- LocateBatch per cut layout: each column drawn from the layout's
  // distribution and bucketed by Alg. 3.1 sampling (affine: equi-width).
  optrules::bench::PrintHeader("LocateBatch by cut layout");
  {
    struct Layout {
      const char* name;
      int num_buckets;
      bool equi_width;
      double (*draw)(optrules::Rng&);
    };
    const Layout layouts[] = {
        {"uniform", kNumBuckets, false,
         [](optrules::Rng& r) { return r.NextUniform(0.0, 1e6); }},
        {"affine", kNumBuckets, true,
         [](optrules::Rng& r) { return r.NextUniform(0.0, 1e6); }},
        {"exponential", kNumBuckets, false,
         [](optrules::Rng& r) { return -std::log1p(-r.NextDouble()); }},
        {"lognormal", kNumBuckets, false,
         [](optrules::Rng& r) { return std::exp(3.0 * r.NextGaussian()); }},
        {"heavy_tie", kNumBuckets, false,
         [](optrules::Rng& r) {
           return r.NextBernoulli(0.5) ? static_cast<double>(r.NextInt(0, 4))
                                       : r.NextUniform(0.0, 4.0);
         }},
        {"uniform_m32", 32, false,
         [](optrules::Rng& r) { return r.NextUniform(0.0, 1e6); }},
    };
    std::vector<double> values(static_cast<size_t>(rows));
    std::vector<int32_t> out;
    for (const Layout& layout : layouts) {
      optrules::Rng layout_rng(4242);
      for (double& v : values) v = layout.draw(layout_rng);
      BoundaryPlan plan;
      plan.num_buckets = layout.num_buckets;
      const BucketBoundaries boundaries =
          layout.equi_width
              ? optrules::bucketing::EquiWidthBoundaries(values,
                                                         layout.num_buckets)
              : BuildBoundaries(values, plan);
      const double mps = LocateBatchMrowsPerSec(boundaries, values, &out);
      std::printf("%-12s M=%-5d %8.1f Mrows/s\n", layout.name,
                  layout.num_buckets, mps);
      json.Add(std::string("locate_batch_") + layout.name +
                   "_mrows_per_sec",
               mps);
    }
  }

  // ---- in-memory grid: attrs x conditional channels --------------------
  optrules::bench::PrintHeader(
      "In-memory counting scan (serial, rows x attrs x channels)");
  std::printf("%8s %12s %12s %12s %14s\n", "attrs", "conditions",
              "channels", "time (s)", "Mrows*chan/s");
  optrules::bench::PrintRule(64);
  int64_t checksum = 0;
  int64_t a8_c3_checksum = 0;
  for (const int attrs : {2, 8}) {
    for (const int conditions : {0, 3}) {
      const MultiCountSpec spec = MakeSpec(base, generalized, attrs,
                                           conditions, num_boolean,
                                           /*with_sums=*/true);
      const int channels = static_cast<int>(spec.channels.size());
      optrules::storage::RelationBatchSource source(&table);
      int64_t config_checksum = 0;
      optrules::bucketing::ScanPhaseTimes phases;
      const double seconds = TimeScan(source, spec, &config_checksum,
                                      &phases);
      OPTRULES_CHECK(config_checksum == ScalarArmChecksum(source, spec));
      if (attrs == 8 && conditions == 3) a8_c3_checksum = config_checksum;
      checksum += config_checksum;
      const double throughput = static_cast<double>(rows) * channels /
                                seconds / 1e6;
      std::printf("%8d %12d %12d %12.3f %14.1f  "
                  "(locate %.3f, mask %.3f, scatter %.3f)\n",
                  attrs, conditions, channels, seconds, throughput,
                  phases.locate_seconds, phases.mask_seconds,
                  phases.scatter_seconds);
      const std::string key = "inmem_a" + std::to_string(attrs) + "_c" +
                              std::to_string(conditions);
      json.Add(key + "_seconds", seconds);
      json.Add(key + "_locate_seconds", phases.locate_seconds);
      json.Add(key + "_mask_seconds", phases.mask_seconds);
      json.Add(key + "_scatter_seconds", phases.scatter_seconds);
    }
  }
  json.Add("inmem_checksum", checksum);

  // ---- scatter by channel kind ------------------------------------------
  // Each kind alone over all 8 attributes, so its scatter phase reads
  // directly: base (u/min-max + every target), conditional (the same over
  // a ~50% condition's rows), sum (u/min-max + one Neumaier sum, no
  // targets), grid (4 axis pairs at 32 x 32 cells, u + every target).
  // Then the a8/c3 shape over a 9-target table: a second, one-target plane.
  optrules::bench::PrintHeader("Scatter by channel kind (a8, T = 8)");
  {
    std::vector<BucketBoundaries> grid_axes;
    BoundaryPlan grid_plan;
    grid_plan.num_buckets = 32;
    for (int a = 0; a < num_numeric; ++a) {
      grid_axes.push_back(BuildBoundaries(table.NumericColumn(a), grid_plan,
                                          static_cast<uint64_t>(a)));
    }
    const auto kind_spec = [&](const std::string& kind) {
      MultiCountSpec spec;
      spec.num_targets = num_boolean;
      if (kind == "conditional") spec.conditions.push_back({0});
      for (int a = 0; a < num_numeric && kind != "grid"; ++a) {
        CountChannel channel;
        channel.column = a;
        channel.boundaries = &base[static_cast<size_t>(a)];
        if (kind == "conditional") channel.condition = 0;
        if (kind == "sum") {
          channel.count_targets = false;
          channel.sum_targets = {(a + 1) % num_numeric};
        }
        spec.channels.push_back(std::move(channel));
      }
      for (int a = 0; a + 1 < num_numeric && kind == "grid"; a += 2) {
        GridChannel grid;
        grid.x_column = a;
        grid.x_boundaries = &grid_axes[static_cast<size_t>(a)];
        grid.y_column = a + 1;
        grid.y_boundaries = &grid_axes[static_cast<size_t>(a + 1)];
        spec.grid_channels.push_back(grid);
      }
      return spec;
    };
    for (const char* kind : {"base", "conditional", "sum", "grid"}) {
      const MultiCountSpec spec = kind_spec(kind);
      optrules::storage::RelationBatchSource source(&table);
      int64_t kind_checksum = 0;
      optrules::bucketing::ScanPhaseTimes phases;
      const double seconds = TimeScan(source, spec, &kind_checksum, &phases);
      OPTRULES_CHECK(kind_checksum == ScalarArmChecksum(source, spec));
      std::printf("%-12s %8.3f s (scatter %.3f)\n", kind, seconds,
                  phases.scatter_seconds);
      json.Add(std::string("kind_") + kind + "_scatter_seconds",
               phases.scatter_seconds);
    }
  }
  {
    optrules::datagen::TableConfig t9_config = config;
    t9_config.num_boolean = 9;
    optrules::Rng t9_rng(9002);
    const optrules::storage::Relation t9_table =
        optrules::datagen::GenerateTable(t9_config, t9_rng);
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         9, /*with_sums=*/true);
    optrules::storage::RelationBatchSource source(&t9_table);
    int64_t t9_checksum = 0;
    optrules::bucketing::ScanPhaseTimes phases;
    const double seconds = TimeScan(source, spec, &t9_checksum, &phases);
    OPTRULES_CHECK(t9_checksum == ScalarArmChecksum(source, spec));
    std::printf("a8/c3, T = 9  %8.3f s (scatter %.3f)\n", seconds,
                phases.scatter_seconds);
    json.Add("inmem_t9_a8_c3_seconds", seconds);
    json.Add("inmem_t9_a8_c3_scatter_seconds", phases.scatter_seconds);
  }

  // ---- metrics overhead: registry off vs on, a8/c3 (40 channels) -------
  // The observability acceptance gate: the registry's per-scan activity is
  // O(batches + shards), never O(rows), so the enabled-vs-disabled delta
  // on the full 40-channel scan must stay within noise (<= 2%).
  // metrics_overhead_within_gate reports the check. Checksums prove the
  // switch cannot change counts.
  optrules::bench::PrintHeader(
      "Metrics overhead (in-memory a8/c3, 40 channels)");
  {
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    optrules::storage::RelationBatchSource source(&table);
    // Adjacent off/on pairs, alternating which mode runs first, so slow
    // machine-wide drift (cache state, frequency scaling, neighbors on the
    // box) and run-order effects hit both modes equally; the overhead is
    // the median of the per-pair fractions.
    constexpr int kOverheadPairs = 9;
    constexpr double kOverheadGate = 0.02;
    std::vector<double> off_seconds;
    std::vector<double> on_seconds;
    std::vector<double> deltas;
    std::vector<double> fractions;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      int64_t off_checksum = 0;
      int64_t on_checksum = 0;
      const auto time_mode = [&](bool enabled, int64_t* checksum) {
        optrules::obs::SetMetricsEnabled(enabled);
        return TimeScan(source, spec, checksum);
      };
      double off = 0.0;
      double on = 0.0;
      if (pair % 2 == 0) {
        off = time_mode(false, &off_checksum);
        on = time_mode(true, &on_checksum);
      } else {
        on = time_mode(true, &on_checksum);
        off = time_mode(false, &off_checksum);
      }
      optrules::obs::SetMetricsEnabled(true);
      OPTRULES_CHECK(off_checksum == on_checksum);  // switch never counts
      OPTRULES_CHECK(on_checksum == a8_c3_checksum);
      off_seconds.push_back(off);
      on_seconds.push_back(on);
      deltas.push_back(on - off);
      fractions.push_back((on - off) / off);
    }
    const double overhead_frac = optrules::bench::Median(fractions);
    const bool within_gate = overhead_frac <= kOverheadGate;
    std::printf("metrics disabled:   %8.3f s (median of %d)\n",
                optrules::bench::Median(off_seconds), kOverheadPairs);
    std::printf("metrics enabled:    %8.3f s (median of %d)\n",
                optrules::bench::Median(on_seconds), kOverheadPairs);
    std::printf("overhead:           %+.2f%% (median pair; gate <= %.0f%%: "
                "%s)\n",
                overhead_frac * 100.0, kOverheadGate * 100.0,
                within_gate ? "yes" : "NO");
    json.Add("metrics_off_seconds", optrules::bench::Median(off_seconds));
    json.Add("metrics_on_seconds", optrules::bench::Median(on_seconds));
    json.Add("metrics_overhead_seconds", optrules::bench::Median(deltas));
    json.Add("metrics_overhead_frac", overhead_frac);
    json.Add("metrics_overhead_within_gate", within_gate);
    json.Add("metrics_overhead_pairs", static_cast<int64_t>(kOverheadPairs));
  }

  // ---- out-of-core: PagedFile scan ------------------------------------
  // Two shapes, cold page cache per rep: a2/c0 is prefetch-bound (light
  // kernel, the read dominates), a8/c3 is compute-bound (the overlap hides
  // the whole read). Sync vs double-buffered over identical pages must
  // produce identical counts, as must the columnar v2 layout (the default;
  // zero-transpose reads) vs a row-major v1 copy (decoded into v2 page
  // images as its pages load).
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string tmp_base =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/counting_scan_bench";
  const auto run_paged_shapes = [&](const std::string& file_path,
                                    const std::string& key_prefix) {
    std::printf("%8s %12s %14s %14s %10s %12s\n", "attrs", "conditions",
                "sync (s)", "buffered (s)", "speedup", "io wait (s)");
    optrules::bench::PrintRule(76);
    for (const int conditions : {0, 3}) {
      const int attrs = conditions == 0 ? 2 : num_numeric;
      const MultiCountSpec spec = MakeSpec(base, generalized, attrs,
                                           conditions, num_boolean,
                                           /*with_sums=*/true);
      double mode_seconds[2] = {0.0, 0.0};
      double mode_io_wait[2] = {0.0, 0.0};
      int64_t mode_checksum[2] = {0, 0};
      optrules::bucketing::ScanPhaseTimes mode_phases[2];
      for (const bool buffered : {false, true}) {
        double best = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
          EvictFromPageCache(file_path);
          auto source_or = optrules::storage::PagedFileBatchSource::Open(
              file_path, optrules::storage::kDefaultBatchRows,
              buffered ? optrules::storage::PagedReadMode::kDoubleBuffered
                       : optrules::storage::PagedReadMode::kSynchronous);
          OPTRULES_CHECK(source_or.ok());
          MultiCountPlan plan(spec);
          optrules::bucketing::ScanPhaseTimes phases;
          plan.set_phase_times(&phases);
          optrules::WallTimer timer;
          ExecuteMultiCount(*source_or.value(), &plan, nullptr);
          const double seconds = timer.ElapsedSeconds();
          const bool is_best = rep == 0 || seconds < best;
          if (is_best) {
            best = seconds;
            mode_phases[buffered ? 1 : 0] = phases;
            mode_io_wait[buffered ? 1 : 0] =
                source_or.value()->TotalIoWaitSeconds();
          }
          if (rep == 0) mode_checksum[buffered ? 1 : 0] = PlanChecksum(plan);
        }
        mode_seconds[buffered ? 1 : 0] = best;
      }
      OPTRULES_CHECK(mode_checksum[0] == mode_checksum[1]);  // sync == async
      if (conditions == 3) {
        OPTRULES_CHECK(mode_checksum[1] == a8_c3_checksum);  // disk == mem
      }
      std::printf("%8d %12d %14.3f %14.3f %9.2fx %12.3f\n", attrs,
                  conditions, mode_seconds[0], mode_seconds[1],
                  mode_seconds[0] / mode_seconds[1], mode_io_wait[1]);
      const std::string key = key_prefix + "_a" + std::to_string(attrs) +
                              "_c" + std::to_string(conditions);
      json.Add(key + "_sync_seconds", mode_seconds[0]);
      json.Add(key + "_seconds", mode_seconds[1]);
      json.Add(key + "_sync_io_wait_seconds", mode_io_wait[0]);
      json.Add(key + "_io_wait_seconds", mode_io_wait[1]);
      json.Add(key + "_locate_seconds", mode_phases[1].locate_seconds);
      json.Add(key + "_mask_seconds", mode_phases[1].mask_seconds);
      json.Add(key + "_scatter_seconds", mode_phases[1].scatter_seconds);
    }
  };

  optrules::bench::PrintHeader(
      "Out-of-core counting scan (PagedFile, columnar v2)");
  const std::string path = tmp_base + ".optr";
  OPTRULES_CHECK(
      optrules::storage::WriteRelationToFile(table, path).ok());
  run_paged_shapes(path, "paged");

  // ---- buffer pool: warm repeated session ------------------------------
  // A repeated mining session over the same table (the interactive loop
  // the paper's Section 6 envisions) should pay the disk exactly once: the
  // first session fills a file-sized buffer pool, every later session
  // reads pages out of cache. cache_hit_rate comes from the pool-backed
  // source; the checksum must match the in-memory scan bit for bit.
  optrules::bench::PrintHeader(
      "Buffer pool (warm repeated session, a8/c3)");
  {
    const auto file_bytes =
        static_cast<size_t>(std::filesystem::file_size(path));
    optrules::storage::BufferPool pool(file_bytes + (size_t{16} << 20));
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    const auto run_session = [&](int64_t* checksum_out, double* hit_rate) {
      auto source_or = optrules::storage::PagedFileBatchSource::Open(
          path, optrules::storage::kDefaultBatchRows,
          optrules::storage::PagedReadMode::kDoubleBuffered, &pool);
      OPTRULES_CHECK(source_or.ok());
      MultiCountPlan plan(spec);
      optrules::WallTimer timer;
      ExecuteMultiCount(*source_or.value(), &plan, nullptr);
      const double seconds = timer.ElapsedSeconds();
      if (checksum_out != nullptr) *checksum_out += PlanChecksum(plan);
      if (hit_rate != nullptr) {
        *hit_rate = source_or.value()->SourceStats().cache_hit_rate();
      }
      return seconds;
    };
    EvictFromPageCache(path);
    const double cold_seconds = run_session(nullptr, nullptr);
    double warm_best = 0.0;
    double hit_rate = 0.0;
    int64_t warm_checksum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      double rep_rate = 0.0;
      const double seconds = run_session(
          rep == 0 ? &warm_checksum : nullptr, &rep_rate);
      if (rep == 0 || seconds < warm_best) warm_best = seconds;
      if (rep == 0) hit_rate = rep_rate;
    }
    OPTRULES_CHECK(warm_checksum == a8_c3_checksum);  // warm == memory
    std::printf("cold first session: %8.3f s\n", cold_seconds);
    std::printf("warm re-run:        %8.3f s (%.2fx, hit rate %.3f)\n",
                warm_best, cold_seconds / warm_best, hit_rate);
    json.Add("cold_session_seconds", cold_seconds);
    json.Add("warm_rerun_seconds", warm_best);
    json.Add("cache_hit_rate", hit_rate);
  }

  // ---- zone-map pruning: selective conditional session -----------------
  // Condition Boolean 0 true only in the leading 1% of rows: the v2 zone
  // maps prove nearly every page dead for an all-conditional spec, so the
  // pooled scan skips them wholesale. The pruned plan must still equal
  // the unpruned reference (the same table written without zone maps,
  // read through a zero-capacity pool) bit for bit (checksum below), with
  // pages_skipped proving the pruning actually fired.
  optrules::bench::PrintHeader(
      "Zone-map pruning (selective condition, 1% true window)");
  {
    optrules::storage::Relation selective = table;
    std::vector<uint8_t>& cond = selective.MutableBooleanColumn(0);
    for (size_t i = static_cast<size_t>(rows / 100); i < cond.size(); ++i) {
      cond[i] = 0;
    }
    const std::string selective_path = tmp_base + "_selective.optr";
    const std::string unpruned_path = tmp_base + "_unpruned.optr";
    optrules::storage::PagedFileWriterOptions no_zone_maps;
    no_zone_maps.zone_maps = false;
    OPTRULES_CHECK(
        optrules::storage::WriteRelationToFile(selective, selective_path)
            .ok());
    OPTRULES_CHECK(optrules::storage::WriteRelationToFile(
                       selective, unpruned_path, no_zone_maps)
                       .ok());
    MultiCountSpec spec;
    spec.num_targets = num_boolean;
    spec.conditions.push_back({0});
    for (int a = 0; a < num_numeric; ++a) {
      CountChannel channel;
      channel.column = a;
      channel.boundaries = &base[static_cast<size_t>(a)];
      channel.condition = 0;
      spec.channels.push_back(std::move(channel));
    }
    const auto run_selective = [&](const std::string& file_path,
                                   optrules::storage::BufferPool* pool,
                                   int64_t* pages_skipped) {
      double best = 0.0;
      int64_t checksum_out = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        EvictFromPageCache(file_path);
        auto source_or = optrules::storage::PagedFileBatchSource::Open(
            file_path, optrules::storage::kDefaultBatchRows,
            optrules::storage::PagedReadMode::kDoubleBuffered, pool);
        OPTRULES_CHECK(source_or.ok());
        MultiCountPlan plan(spec);
        optrules::WallTimer timer;
        ExecuteMultiCount(*source_or.value(), &plan, nullptr);
        const double seconds = timer.ElapsedSeconds();
        if (rep == 0 || seconds < best) best = seconds;
        if (rep == 0) {
          checksum_out = PlanChecksum(plan);
          if (pages_skipped != nullptr) {
            *pages_skipped = source_or.value()->SourceStats().pages_skipped;
          }
        }
      }
      return std::make_pair(best, checksum_out);
    };
    optrules::storage::BufferPool uncached(0);
    const auto [unpruned_seconds, unpruned_checksum] =
        run_selective(unpruned_path, &uncached, nullptr);
    optrules::storage::BufferPool pool(
        optrules::storage::kDefaultBufferPoolBytes);
    int64_t pages_skipped = 0;
    const auto [pruned_seconds, pruned_checksum] =
        run_selective(selective_path, &pool, &pages_skipped);
    OPTRULES_CHECK(pruned_checksum == unpruned_checksum);  // pruned == ref
    std::printf("unpruned uncached:  %8.3f s\n", unpruned_seconds);
    std::printf("zone-map pruned:    %8.3f s (%.2fx, %lld pages skipped)\n",
                pruned_seconds, unpruned_seconds / pruned_seconds,
                static_cast<long long>(pages_skipped));
    json.Add("selective_unpruned_seconds", unpruned_seconds);
    json.Add("selective_pruned_seconds", pruned_seconds);
    json.Add("pages_skipped", pages_skipped);
    std::remove(selective_path.c_str());
    std::remove(unpruned_path.c_str());
  }

  optrules::bench::PrintHeader(
      "Out-of-core counting scan (PagedFile, row-major v1 reference)");
  const std::string v1_path = tmp_base + "_v1.optr";
  {
    optrules::storage::PagedFileWriterOptions v1_options;
    v1_options.format = optrules::storage::PagedFileFormat::kRowMajorV1;
    OPTRULES_CHECK(
        optrules::storage::WriteRelationToFile(table, v1_path, v1_options)
            .ok());
  }
  run_paged_shapes(v1_path, "paged_v1");
  std::remove(v1_path.c_str());

  // ---- partitioned / distributed scan: worker scaling curve ------------
  // The same a8/c3 channel load sharded over K=4 partition PagedFiles and
  // driven through the DistributedScanCoordinator at 1/2/4 in-process
  // workers (each partition scanned by the serial reference chain, so the
  // worker count changes wall clock only). Counts must reproduce the
  // in-memory checksum at every worker count: partitioning is
  // permutation of rows and the merge is exact.
  optrules::bench::PrintHeader(
      "Partitioned scan (K=4 partitions, in-process workers)");
  const std::string dist_dir =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/counting_scan_bench_parts";
  std::filesystem::remove_all(dist_dir);
  constexpr int kPartitions = 4;
  {
    optrules::dist::PartitionOptions partition_options;
    partition_options.num_partitions = kPartitions;
    auto table = optrules::dist::PartitionPagedFile(
        path, optrules::storage::Schema::Synthetic(num_numeric, num_boolean),
        dist_dir, partition_options);
    OPTRULES_CHECK(table.ok());
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    std::printf("%8s %12s %14s\n", "workers", "time (s)", "speedup");
    optrules::bench::PrintRule(40);
    double one_worker = 0.0;
    for (const int workers : {1, 2, kPartitions}) {
      optrules::dist::DistributedScanOptions scan_options;
      scan_options.max_workers = workers;
      double best = 0.0;
      int64_t dist_checksum = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        for (int p = 0; p < kPartitions; ++p) {
          EvictFromPageCache(table.value().PartitionPath(p));
        }
        optrules::dist::DistributedScanCoordinator coordinator(
            &table.value(), scan_options);
        MultiCountPlan plan(spec);
        optrules::WallTimer timer;
        OPTRULES_CHECK(coordinator.Execute(&plan).ok());
        const double seconds = timer.ElapsedSeconds();
        if (rep == 0 || seconds < best) best = seconds;
        if (rep == 0) dist_checksum = PlanChecksum(plan);
      }
      OPTRULES_CHECK(dist_checksum == a8_c3_checksum);  // sharded == memory
      if (workers == 1) one_worker = best;
      std::printf("%8d %12.3f %13.2fx\n", workers, best,
                  one_worker / best);
      json.Add("dist_k4_w" + std::to_string(workers) + "_seconds", best);
    }
  }
  std::filesystem::remove_all(dist_dir);

  // ---- induced straggler: static assignment vs work stealing -----------
  // Same load over K=8 partitions and 2 worker slots, with slot 0's
  // worker slowed by 250 ms per partition scan (a FaultInjectingScanWorker
  // whose "faults" are pure delays). Under static assignment slot 0 must
  // grind through its whole stride (4 slow scans back to back); under the
  // work-queue schedule the idle slot 1 steals slot 0's unstarted
  // partitions, so the straggler pays its delay roughly once. Checksums
  // prove both schedules produce the exact in-memory counts; the recovery
  // figure is the wall clock the stealing schedule claws back.
  optrules::bench::PrintHeader(
      "Induced straggler (K=8, 2 workers, slot 0 +250 ms per scan)");
  const std::string straggler_dir =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
      "/counting_scan_bench_straggler";
  std::filesystem::remove_all(straggler_dir);
  {
    static constexpr int kStragglerPartitions = 8;
    static constexpr int64_t kStragglerDelayMs = 250;
    optrules::dist::PartitionOptions partition_options;
    partition_options.num_partitions = kStragglerPartitions;
    auto table = optrules::dist::PartitionPagedFile(
        path, optrules::storage::Schema::Synthetic(num_numeric, num_boolean),
        straggler_dir, partition_options);
    OPTRULES_CHECK(table.ok());
    const MultiCountSpec spec = MakeSpec(base, generalized, num_numeric, 3,
                                         num_boolean, /*with_sums=*/true);
    const auto run_schedule =
        [&](optrules::dist::ScanScheduling scheduling) {
          double best = 0.0;
          int64_t checksum = 0;
          for (int rep = 0; rep < kReps; ++rep) {
            for (int p = 0; p < kStragglerPartitions; ++p) {
              EvictFromPageCache(table.value().PartitionPath(p));
            }
            optrules::dist::DistributedScanOptions scan_options;
            scan_options.max_workers = 2;
            scan_options.scheduling = scheduling;
            auto built = std::make_shared<std::atomic<int>>(0);
            scan_options.worker_factory =
                [built]() -> optrules::Result<
                              std::unique_ptr<optrules::dist::ScanWorker>> {
              std::unique_ptr<optrules::dist::ScanWorker> inner =
                  std::make_unique<optrules::dist::InProcessScanWorker>();
              if (built->fetch_add(1) == 0) {
                std::vector<optrules::dist::InjectedFault> delays;
                for (int call = 0; call < kStragglerPartitions; ++call) {
                  delays.push_back({.at_call = call,
                                    .delay_ms = kStragglerDelayMs});
                }
                return std::unique_ptr<optrules::dist::ScanWorker>(
                    std::make_unique<optrules::dist::FaultInjectingScanWorker>(
                        std::move(inner), std::move(delays)));
              }
              return inner;
            };
            optrules::dist::DistributedScanCoordinator coordinator(
                &table.value(), scan_options);
            MultiCountPlan plan(spec);
            optrules::WallTimer timer;
            OPTRULES_CHECK(coordinator.Execute(&plan).ok());
            const double seconds = timer.ElapsedSeconds();
            if (rep == 0 || seconds < best) best = seconds;
            if (rep == 0) checksum = PlanChecksum(plan);
          }
          OPTRULES_CHECK(checksum == a8_c3_checksum);  // schedule == memory
          return best;
        };
    const double static_seconds =
        run_schedule(optrules::dist::ScanScheduling::kStatic);
    const double worksteal_seconds =
        run_schedule(optrules::dist::ScanScheduling::kWorkQueue);
    std::printf("static assignment:  %8.3f s\n", static_seconds);
    std::printf("work stealing:      %8.3f s (%.2fx, %.3f s recovered)\n",
                worksteal_seconds, static_seconds / worksteal_seconds,
                static_seconds - worksteal_seconds);
    json.Add("straggler_static_seconds", static_seconds);
    json.Add("straggler_worksteal_seconds", worksteal_seconds);
    json.Add("straggler_recovery_seconds",
             static_seconds - worksteal_seconds);
  }
  std::filesystem::remove_all(straggler_dir);
  std::remove(path.c_str());

  // Everything above reported into the process registry as a side effect;
  // emit it so the JSON trajectory carries the same instrument values a
  // serving daemon would ship in a kMetricsReply.
  json.AddRegistrySnapshot(
      optrules::obs::MetricsRegistry::Default().Snapshot());
  return 0;
}
