#include "bucketing/simd_kernels.h"

#include <atomic>
#include <cstdlib>
#include <vector>

#include "bucketing/simd_kernels_scalar.inl.h"
#include "common/env.h"

namespace optrules::bucketing::simd {

namespace {

int64_t LocateGuidedScalar(const double* values, size_t n,
                           const LocateGuide& guide, int32_t* out) {
  int64_t no_bucket = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t bucket = internal::GuidedLocateOne(guide, values[i]);
    out[i] = bucket;
    no_bucket += static_cast<int64_t>(bucket < 0);
  }
  return no_bucket;
}

void MaskAndScalar(uint8_t* mask, const uint8_t* condition, size_t n) {
  for (size_t i = 0; i < n; ++i) mask[i] &= condition[i];
}

void FoldCellsScalar(const int32_t* x, const int32_t* y, size_t n,
                     int32_t nx, int32_t* cells) {
  for (size_t i = 0; i < n; ++i) {
    // Axis indices are either -1 (NaN) or non-negative, so a negative
    // bitwise-or means "either axis missed".
    cells[i] = (x[i] | y[i]) < 0 ? -1 : y[i] * nx + x[i];
  }
}

void PackTargetsScalar(const uint8_t* const* columns, int count, size_t n,
                       uint8_t* plane) {
  for (size_t i = 0; i < n; ++i) {
    plane[i] = internal::PackTargetsOne(columns, count, i);
  }
}

void ScatterTargetsScalar(const int32_t* buckets, const int32_t* sel,
                          size_t m, const uint8_t* plane, int64_t* block,
                          bool guard) {
  internal::ForEachBucketedRow(
      buckets, sel, m, guard, [plane, block](size_t row, size_t bucket) {
        int64_t* lanes = block + 8 * bucket;
        const unsigned byte = plane[row];
        for (int t = 0; t < 8; ++t) lanes[t] += (byte >> t) & 1u;
      });
}

const Kernels kScalar = {"scalar",          LocateGuidedScalar,
                         MaskAndScalar,     FoldCellsScalar,
                         PackTargetsScalar, ScatterTargetsScalar};

bool ReadForceScalarEnv() {
  // Strict 0/1 flag: "1abc" used to silently pin scalar; now it warns and
  // leaves runtime dispatch on.
  return env::ReadEnvFlag("OPTRULES_FORCE_SCALAR", false);
}

std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{ReadForceScalarEnv()};
  return flag;
}

/// cpuid-gated arm list, widest first (resolved once).
const std::vector<const Kernels*>& RankedSimdArms() {
  static const std::vector<const Kernels*> arms = [] {
    std::vector<const Kernels*> ranked;
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl")) {
      if (const Kernels* k = Avx512KernelsOrNull()) ranked.push_back(k);
    }
    if (__builtin_cpu_supports("avx2")) {
      if (const Kernels* k = Avx2KernelsOrNull()) ranked.push_back(k);
    }
#endif
    return ranked;
  }();
  return arms;
}

}  // namespace

const Kernels& ScalarKernels() { return kScalar; }

const Kernels& Active() {
  if (ForceScalar()) return kScalar;
  const std::vector<const Kernels*>& arms = RankedSimdArms();
  return arms.empty() ? kScalar : *arms.front();
}

std::span<const Kernels* const> AvailableKernels() {
  static const std::vector<const Kernels*> all = [] {
    std::vector<const Kernels*> arms = {&kScalar};
    // Narrowest first after scalar, so test traces ramp up in lane width.
    const std::vector<const Kernels*>& ranked = RankedSimdArms();
    arms.insert(arms.end(), ranked.rbegin(), ranked.rend());
    return arms;
  }();
  return all;
}

bool ForceScalar() {
  return ForceScalarFlag().load(std::memory_order_relaxed);
}

void SetForceScalarForTest(bool force) {
  ForceScalarFlag().store(force, std::memory_order_relaxed);
}

size_t CompactMaskIndices(const uint8_t* mask, size_t n, int32_t* out) {
  // Unconditional store + masked advance: no data-dependent branch, so a
  // 50/50 condition costs no mispredicts (the guarded loop it replaces
  // paid one per flip).
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    out[count] = static_cast<int32_t>(i);
    count += static_cast<size_t>(mask[i] != 0);
  }
  return count;
}

}  // namespace optrules::bucketing::simd
