#include "bucketing/equidepth_sampler.h"

#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

namespace optrules::bucketing {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// A key whose unsigned order is the numeric order of non-NaN doubles,
/// with -0.0 below +0.0: negative values get every bit flipped (larger
/// magnitudes sort lower), the rest only the sign bit.
uint64_t OrderedKey(double value) {
  const auto bits = std::bit_cast<uint64_t>(value);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromOrderedKey(uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                     : ~key);
}

}  // namespace

void SortSample(std::vector<double>& values) {
  std::vector<uint64_t> keys;
  keys.reserve(values.size());
  for (const double value : values) {
    if (!std::isnan(value)) keys.push_back(OrderedKey(value));
  }
  const size_t n = keys.size();
  values.resize(n);
  if (n == 0) return;

  // One pass histograms all eight key bytes; each byte then costs one
  // stable scatter pass, least significant first.
  std::array<std::array<size_t, 256>, 8> offsets{};
  for (const uint64_t key : keys) {
    for (size_t d = 0; d < 8; ++d) ++offsets[d][(key >> (8 * d)) & 0xff];
  }
  std::vector<uint64_t> scratch(n);
  for (size_t d = 0; d < 8; ++d) {
    std::array<size_t, 256>& offset = offsets[d];
    const size_t shift = 8 * d;
    if (offset[(keys[0] >> shift) & 0xff] == n) continue;  // shared byte
    size_t begin = 0;
    for (size_t& slot : offset) {
      const size_t count = slot;
      slot = begin;
      begin += count;
    }
    for (const uint64_t key : keys) {
      scratch[offset[(key >> shift) & 0xff]++] = key;
    }
    keys.swap(scratch);
  }
  for (size_t i = 0; i < n; ++i) values[i] = FromOrderedKey(keys[i]);
}

BucketBoundaries BoundariesFromSample(std::vector<double>& sample,
                                      int num_buckets) {
  SortSample(sample);
  return BucketBoundaries::FromSortedValues(sample, num_buckets);
}

BucketBoundaries BuildEquiDepthBoundaries(std::span<const double> values,
                                          const SamplerOptions& options,
                                          Rng& rng) {
  OPTRULES_CHECK(options.num_buckets >= 1);
  OPTRULES_CHECK(options.sample_per_bucket >= 1);
  if (values.empty()) {
    return BucketBoundaries::FromCutPoints({});
  }
  const int64_t sample_size =
      options.sample_per_bucket * options.num_buckets;
  std::vector<double> sample;
  sample.reserve(static_cast<size_t>(sample_size));
  for (int64_t i = 0; i < sample_size; ++i) {
    const uint64_t index = rng.NextBounded(values.size());
    sample.push_back(values[static_cast<size_t>(index)]);
  }
  return BoundariesFromSample(sample, options.num_buckets);
}

Result<std::vector<BucketBoundaries>> SampleBoundaries(
    storage::BatchSource& source, std::span<const SampledColumn> columns,
    int64_t sample_per_bucket) {
  OPTRULES_CHECK(sample_per_bucket >= 1);
  const int64_t rows = source.NumTuples();
  if (columns.empty() || rows == 0) {
    return std::vector<BucketBoundaries>(columns.size(),
                                         BucketBoundaries::FromCutPoints({}));
  }
  // Sampled row indices ride in doubles, exact below 2^53.
  OPTRULES_CHECK(rows <= (int64_t{1} << 53));

  // Step 1, draw: each column's S row indices in its generator's order,
  // then sorted so one sequential scan can visit them. The gather below
  // overwrites each index in place with the value it names, so the sample
  // needs no memory beyond itself.
  std::vector<std::vector<double>> samples(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    OPTRULES_CHECK(columns[i].num_buckets >= 1);
    OPTRULES_CHECK(0 <= columns[i].column &&
                   columns[i].column < source.num_numeric());
    Rng rng(columns[i].seed);
    std::vector<double>& sample = samples[i];
    sample.resize(static_cast<size_t>(sample_per_bucket *
                                      columns[i].num_buckets));
    for (double& slot : sample) {
      slot = static_cast<double>(rng.NextBounded(static_cast<uint64_t>(rows)));
    }
    SortSample(sample);
  }

  // Step 1, gather: every column advances its own cursor through its
  // sorted indices as the shared scan passes them. Entries before a
  // cursor hold gathered values; entries from it on are still indices.
  std::vector<size_t> cursors(columns.size(), 0);
  int64_t batch_begin = 0;
  {
    std::unique_ptr<storage::BatchReader> reader = source.CreateReader();
    storage::ColumnarBatch batch;
    while (reader->Next(&batch)) {
      const int64_t batch_end = batch_begin + batch.num_rows();
      const auto end_index = static_cast<double>(batch_end);
      for (size_t i = 0; i < columns.size(); ++i) {
        std::vector<double>& sample = samples[i];
        size_t& k = cursors[i];
        const std::span<const double> values =
            batch.numeric(columns[i].column);
        for (; k < sample.size() && sample[k] < end_index; ++k) {
          sample[k] = values[static_cast<size_t>(
              static_cast<int64_t>(sample[k]) - batch_begin)];
        }
      }
      batch_begin = batch_end;
    }
  }
  if (batch_begin != rows) {
    return Status::Corruption(
        "boundary sampling scan read " + std::to_string(batch_begin) +
        " rows of a source reporting " + std::to_string(rows));
  }

  // Steps 2-3, one column at a time, releasing each sample once used.
  std::vector<BucketBoundaries> boundaries;
  boundaries.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    boundaries.push_back(
        BoundariesFromSample(samples[i], columns[i].num_buckets));
    std::vector<double>().swap(samples[i]);
  }
  return boundaries;
}

}  // namespace optrules::bucketing
