// Algorithm 3.1: almost equi-depth buckets via random sampling.
//
// 1. Draw an S-sized random sample (S = sample_per_bucket * M; the paper's
//    Figure 1 analysis picks 40 per bucket).
// 2. Sort the sample.
// 3. Take every (S/M)-th sample value as a cut point.
// The subsequent counting scan (step 4) lives in bucketing/counting.h.
//
// Both entry points draw the same sample: S row indices uniformly WITH
// replacement, exactly the sample Section 3.2 analyzes. The in-memory one
// reads the sampled values straight out of the column; the one over a
// storage::BatchSource sorts the indices and gathers their values in one
// sequential pass, so a disk-resident table costs sequential I/O and
// O(S) generator draws per column rather than random reads or one draw per
// row. Given the same generator seed and row count the two samples are
// the same multiset, and because the quantile step's sort is a total order
// (SortSample) the cut points are bit-identical whatever the gather order.

#ifndef OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_
#define OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bucketing/boundaries.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/columnar_batch.h"

namespace optrules::bucketing {

/// Sampling parameters for Algorithm 3.1.
struct SamplerOptions {
  int num_buckets = 1000;
  /// S/M: samples drawn per bucket. The paper uses 40 (Figure 1: the
  /// probability of a 50% depth deviation drops below 0.3 there).
  int64_t sample_per_bucket = 40;
};

/// Builds approximate equi-depth boundaries from an in-memory column using
/// with-replacement sampling, exactly as analyzed in Section 3.2.
BucketBoundaries BuildEquiDepthBoundaries(std::span<const double> values,
                                          const SamplerOptions& options,
                                          Rng& rng);

/// One column to bucket by SampleBoundaries.
struct SampledColumn {
  int column = 0;       ///< numeric attribute index in the source
  int num_buckets = 1;  ///< M
  /// Generator seed: the sample is the S indices Rng(seed) draws, the
  /// same sequence BuildEquiDepthBoundaries draws from that generator.
  uint64_t seed = 0;
};

/// Algorithm 3.1 for many columns of a batch source at once: draws every
/// column's S = sample_per_bucket * num_buckets row indices, then gathers
/// all samples in ONE sequential scan (one CreateReader) and derives each
/// column's boundaries. Element i of the result belongs to columns[i] and
/// is bit-identical to BuildEquiDepthBoundaries over that column held in
/// memory with Rng(columns[i].seed). An empty source yields single-bucket
/// boundaries. Returns Corruption when the reader's row count disagrees
/// with NumTuples() (sampled rows would go unread). Memory is the samples
/// themselves: 8 bytes per sampled value.
Result<std::vector<BucketBoundaries>> SampleBoundaries(
    storage::BatchSource& source, std::span<const SampledColumn> columns,
    int64_t sample_per_bucket);

/// The sample ordering contract of every quantile step (Algorithm 3.1's
/// step 2 here, ExactEquiDepthBoundaries' full sort too): NaN values are
/// dropped -- they belong to no bucket -- and the rest are sorted
/// ascending with -0.0 before +0.0, so the result is a function of the
/// input multiset alone, whatever its order. An LSD radix sort, one pass
/// per byte of an order-preserving 64-bit key (a byte every key shares
/// costs no pass): O(n) work and two n-element scratch arrays.
void SortSample(std::vector<double>& values);

/// Algorithm 3.1 steps 2-3 over a drawn sample (consumed): SortSample,
/// then every (S/M)-th value becomes a cut point. The result depends only
/// on the sample's multiset of values.
BucketBoundaries BoundariesFromSample(std::vector<double>& sample,
                                      int num_buckets);

}  // namespace optrules::bucketing

#endif  // OPTRULES_BUCKETING_EQUIDEPTH_SAMPLER_H_
