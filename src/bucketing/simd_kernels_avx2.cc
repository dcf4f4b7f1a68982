// AVX2 arm of the counting kernels. This translation unit is compiled
// with -mavx2 (per-file flag set by CMake when the compiler supports it);
// when it is not, the registration function returns nullptr and dispatch
// stays on the scalar reference. Runtime cpuid gating lives in
// simd_kernels.cc -- nothing here executes unless the CPU reports AVX2.

#include "bucketing/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include "bucketing/simd_kernels_scalar.inl.h"

namespace optrules::bucketing::simd {

namespace {

/// Low 32 bits of each 64-bit lane, compacted into the low 128 bits.
inline __m128i PackQwordsToDwords(__m256i v) {
  const __m256i perm = _mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  return _mm256_castsi256_si128(perm);
}

/// Independent four-lane searches advanced together per step, so the
/// gathers of one chain execute under the latency of the others'.
constexpr int kChains = 4;

/// The guided search for 4 * kChains values: per chain one slot_lo gather,
/// then `steps` gathered compare-and-add halvings -- the scalar
/// GuidedLowerBound lane for lane. Indices ride in 64-bit lanes so no
/// step pays a pack; they stay below 2^31. A NaN lane lands on last_slot
/// and settles on an in-range index, then is blended to -1.
int64_t LocateGuidedAvx2(const double* values, size_t n,
                         const LocateGuide& guide, int32_t* out) {
  const __m256d first = _mm256_set1_pd(guide.first);
  const __m256d scale = _mm256_set1_pd(guide.scale);
  const __m256d last_slot = _mm256_set1_pd(guide.last_slot);
  const __m128i no_bucket_vec = _mm_set1_epi32(-1);
  int64_t no_bucket = 0;
  size_t i = 0;
  for (; i + 4 * kChains <= n; i += 4 * kChains) {
    __m256d x[kChains];
    __m256i base[kChains];
    for (int c = 0; c < kChains; ++c) {
      x[c] = _mm256_loadu_pd(values + i + 4 * c);
      __m256d t = _mm256_mul_pd(_mm256_sub_pd(x[c], first), scale);
      t = _mm256_min_pd(t, last_slot);
      t = _mm256_max_pd(t, _mm256_setzero_pd());
      base[c] = _mm256_cvtepi32_epi64(
          _mm_i32gather_epi32(guide.slot_lo, _mm256_cvttpd_epi32(t), 4));
    }
    for (int step = guide.steps - 1; step >= 0; --step) {
      const long long half = 1LL << step;
      const __m256i probe_offset = _mm256_set1_epi64x(half - 1);
      const __m256i advance = _mm256_set1_epi64x(half);
      for (int c = 0; c < kChains; ++c) {
        const __m256d probe = _mm256_i64gather_pd(
            guide.cuts, _mm256_add_epi64(base[c], probe_offset), 8);
        const __m256d lt = _mm256_cmp_pd(probe, x[c], _CMP_LT_OQ);
        base[c] = _mm256_add_epi64(
            base[c], _mm256_and_si256(_mm256_castpd_si256(lt), advance));
      }
    }
    unsigned nan_bits = 0;
    for (int c = 0; c < kChains; ++c) {
      const __m256d nan = _mm256_cmp_pd(x[c], x[c], _CMP_UNORD_Q);
      const __m128i idx =
          _mm_blendv_epi8(PackQwordsToDwords(base[c]), no_bucket_vec,
                          PackQwordsToDwords(_mm256_castpd_si256(nan)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + 4 * c), idx);
      nan_bits |= static_cast<unsigned>(_mm256_movemask_pd(nan)) << (4 * c);
    }
    no_bucket += __builtin_popcount(nan_bits);
  }
  for (; i < n; ++i) {
    const int32_t bucket = internal::GuidedLocateOne(guide, values[i]);
    out[i] = bucket;
    no_bucket += static_cast<int64_t>(bucket < 0);
  }
  return no_bucket;
}

void MaskAndAvx2(uint8_t* mask, const uint8_t* condition, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + i));
    const __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(condition + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i),
                        _mm256_and_si256(m, c));
  }
  for (; i < n; ++i) mask[i] &= condition[i];
}

void FoldCellsAvx2(const int32_t* x, const int32_t* y, size_t n, int32_t nx,
                   int32_t* cells) {
  const __m256i vnx = _mm256_set1_epi32(nx);
  const __m256i vall = _mm256_set1_epi32(-1);
  const __m256i vzero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i miss =
        _mm256_cmpgt_epi32(vzero, _mm256_or_si256(vx, vy));
    const __m256i cell =
        _mm256_add_epi32(_mm256_mullo_epi32(vy, vnx), vx);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cells + i),
                        _mm256_blendv_epi8(cell, vall, miss));
  }
  for (; i < n; ++i) {
    cells[i] = (x[i] | y[i]) < 0 ? -1 : y[i] * nx + x[i];
  }
}

/// 32 rows per step: per column one byte compare against zero, its
/// complement masked to the column's bit, OR-ed into the plane.
void PackTargetsAvx2(const uint8_t* const* columns, int count, size_t n,
                     uint8_t* plane) {
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i packed = zero;
    for (int t = 0; t < count; ++t) {
      const __m256i column =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(columns[t] + i));
      const __m256i is_zero = _mm256_cmpeq_epi8(column, zero);
      packed = _mm256_or_si256(
          packed, _mm256_andnot_si256(
                      is_zero, _mm256_set1_epi8(static_cast<char>(1 << t))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(plane + i), packed);
  }
  for (; i < n; ++i) plane[i] = internal::PackTargetsOne(columns, count, i);
}

/// Per row: the byte broadcast to 4 x int64, AND-ed with each half's
/// lane bits and compared back, gives -1 in every set lane; subtracting
/// that from the bucket's two lane quads adds the row's 8 target bits.
void ScatterTargetsAvx2(const int32_t* buckets, const int32_t* sel, size_t m,
                        const uint8_t* plane, int64_t* block, bool guard) {
  const __m256i bits_lo = _mm256_setr_epi64x(1, 2, 4, 8);
  const __m256i bits_hi = _mm256_setr_epi64x(16, 32, 64, 128);
  internal::ForEachBucketedRow(
      buckets, sel, m, guard, [&](size_t row, size_t bucket) {
        auto* lanes = reinterpret_cast<__m256i*>(block + 8 * bucket);
        const __m256i byte = _mm256_set1_epi64x(plane[row]);
        const __m256i lo = _mm256_cmpeq_epi64(
            _mm256_and_si256(byte, bits_lo), bits_lo);
        const __m256i hi = _mm256_cmpeq_epi64(
            _mm256_and_si256(byte, bits_hi), bits_hi);
        _mm256_store_si256(lanes,
                           _mm256_sub_epi64(_mm256_load_si256(lanes), lo));
        _mm256_store_si256(
            lanes + 1, _mm256_sub_epi64(_mm256_load_si256(lanes + 1), hi));
      });
}

const Kernels kAvx2 = {"avx2",          LocateGuidedAvx2,
                       MaskAndAvx2,     FoldCellsAvx2,
                       PackTargetsAvx2, ScatterTargetsAvx2};

}  // namespace

const Kernels* Avx2KernelsOrNull() { return &kAvx2; }

}  // namespace optrules::bucketing::simd

#else  // !defined(__AVX2__)

namespace optrules::bucketing::simd {

const Kernels* Avx2KernelsOrNull() { return nullptr; }

}  // namespace optrules::bucketing::simd

#endif  // defined(__AVX2__)
