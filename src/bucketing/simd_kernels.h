// Runtime-dispatched SIMD counting kernels.
//
// The counting scan's per-row work -- point location, condition-mask
// conjunction, the 2-D cell fold, Boolean-target packing and the target
// scatter -- is data-parallel (the scatter's only cross-row dependency is
// two rows landing in one bucket), so it vectorizes. This header is the single
// dispatch point: one Kernels table per instruction-set arm (scalar
// reference, AVX2, AVX-512), resolved once at startup via cpuid, with the
// branchless scalar kernels as the bit-identical fallback on every
// machine. OPTRULES_FORCE_SCALAR=1 (read once at startup) pins the
// reference arm; SetForceScalarForTest flips the same pin in-process so
// differential tests can run both arms on identical inputs.
//
// Bit-identity contract: every kernel of every arm must produce EXACTLY
// the bytes the scalar reference produces -- locate results are the unique
// std::lower_bound index (NaN lanes -> kNoBucket, lane for lane); mask,
// fold, pack and scatter results are pure integer ops, and the scatter's
// int64 adds commute, so every arm's block holds the same counts whatever
// order its lanes were added in. Locate is exact by construction on
// every arm: each one evaluates the guide's slot function with the same
// IEEE operations the guide was built with, so the table's candidate
// range always contains the answer and the bounded search finds it --
// there is no per-lane validation and no scalar fallback.

#ifndef OPTRULES_BUCKETING_SIMD_KERNELS_H_
#define OPTRULES_BUCKETING_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace optrules::bucketing::simd {

/// Guide table over sorted cut points (built by BucketBoundaries), the
/// shared input of every arm's locate kernel. A value x maps to
///   slot(x) = clamp(floor((x - first) * scale), 0, last_slot)
/// evaluated as t = (x - first) * scale; t = t < last_slot ? t : last_slot;
/// t = t > 0 ? t : 0; then a truncating cast -- the operand order of
/// SSE/AVX min/max, so a NaN x lands on last_slot in every arm, and the
/// clamp before the cast makes truncation equal floor. slot_lo[s] is the
/// number of cuts c with slot(c) < s; because slot() is monotone,
/// lower_bound(x) lies in [slot_lo[slot(x)], slot_lo[slot(x)] + 2^steps
/// - 1], and `steps` gathered compare-and-add halvings find it.
struct LocateGuide {
  /// Sorted cuts followed by +inf padding up to num_cuts + 2^steps
  /// entries, so no probe needs a clamp or a bound mask.
  const double* cuts;
  const int32_t* slot_lo;  ///< last_slot + 1 entries
  double first;
  double scale;
  double last_slot;
  int steps;
};

/// One instruction-set arm of the counting kernels. All function pointers
/// are always non-null within a registered table.
struct Kernels {
  /// Human-readable arm name ("scalar", "avx2", "avx512").
  const char* name;

  /// Guided point location: out[i] = lower_bound(cuts, values[i]) for
  /// every value, except NaN values which map to -1 (kNoBucket). Returns
  /// the number of -1 entries written (the NaN lane count).
  int64_t (*locate_guided)(const double* values, size_t n,
                           const LocateGuide& guide, int32_t* out);

  /// In-place byte conjunction: mask[i] &= condition[i].
  void (*mask_and)(uint8_t* mask, const uint8_t* condition, size_t n);

  /// 2-D cell fold: cells[i] = y[i] * nx + x[i], or -1 when either axis
  /// index is -1 (the NaN policy applied per axis pair).
  void (*fold_cells)(const int32_t* x, const int32_t* y, size_t n,
                     int32_t nx, int32_t* cells);

  /// Boolean-target packing: plane[i] = sum over t < count of
  /// (columns[t][i] != 0) << t, for 1 <= count <= 8 (unused high bits are
  /// 0). The counting scan packs a batch's T targets once into
  /// ceil(T / 8) such planes, column 8g + t into bit t of plane g.
  void (*pack_targets)(const uint8_t* const* columns, int count, size_t n,
                       uint8_t* plane);

  /// Target scatter over one plane: for k < m, with row = sel[k] (or k when
  /// sel is null) and b = buckets[row], adds bit t of plane[row] into
  /// block[8 * b + t] for t = 0..7 -- all of a row's targets in one
  /// 64-byte lane group, so `block` must be 64-byte aligned. With `guard`,
  /// rows whose bucket is -1 (kNoBucket) are skipped; without it every
  /// bucket must be >= 0.
  void (*scatter_targets)(const int32_t* buckets, const int32_t* sel,
                          size_t m, const uint8_t* plane, int64_t* block,
                          bool guard);
};

/// The always-available scalar reference arm.
const Kernels& ScalarKernels();

/// AVX2 / AVX-512 arms, or nullptr when the translation unit was compiled
/// without the matching -m flags. Runtime cpuid gating happens in
/// Active()/AvailableKernels(), not here.
const Kernels* Avx2KernelsOrNull();
const Kernels* Avx512KernelsOrNull();

/// The arm the counting scan should use right now: the widest arm this
/// CPU supports, or the scalar reference when force-scalar is pinned.
const Kernels& Active();

/// Every arm usable on this machine (scalar first), independent of the
/// force-scalar pin -- the differential tests iterate this to prove the
/// arms bit-identical on shared inputs.
std::span<const Kernels* const> AvailableKernels();

/// True when OPTRULES_FORCE_SCALAR=1 was set at startup or a test pinned
/// the reference path via SetForceScalarForTest.
bool ForceScalar();

/// Test hook: pins (or unpins) the scalar reference arm in-process, so one
/// test binary can run both dispatch arms on the same inputs.
void SetForceScalarForTest(bool force);

/// Branchless mask compaction: writes the indices of the nonzero bytes of
/// `mask` to `out` (ascending) and returns how many were written. `out`
/// must have room for n entries. This is what lets conditional channels
/// iterate only their satisfying rows with no per-row branch at all.
size_t CompactMaskIndices(const uint8_t* mask, size_t n, int32_t* out);

}  // namespace optrules::bucketing::simd

#endif  // OPTRULES_BUCKETING_SIMD_KERNELS_H_
