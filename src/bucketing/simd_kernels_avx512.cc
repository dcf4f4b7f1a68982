// AVX-512 arm of the counting kernels: eight 64-bit lanes per step with
// k-mask blends instead of byte blends. Compiled with
// -mavx512f -mavx512dq -mavx512vl when the compiler supports them;
// runtime cpuid gating (f+dq+vl) lives in simd_kernels.cc.

#include "bucketing/simd_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

#include <immintrin.h>

#include "bucketing/simd_kernels_scalar.inl.h"

namespace optrules::bucketing::simd {

namespace {

/// Independent eight-lane searches advanced together per step, so the
/// gathers of one chain execute under the latency of the others'.
constexpr int kChains = 4;

/// The guided search for 8 * kChains values: per chain one slot_lo gather,
/// then `steps` gathered compare-and-add halvings over 32-bit indices --
/// the scalar GuidedLowerBound lane for lane. A NaN lane lands on
/// last_slot and settles on an in-range index, then is blended to -1.
int64_t LocateGuidedAvx512(const double* values, size_t n,
                           const LocateGuide& guide, int32_t* out) {
  const __m512d first = _mm512_set1_pd(guide.first);
  const __m512d scale = _mm512_set1_pd(guide.scale);
  const __m512d last_slot = _mm512_set1_pd(guide.last_slot);
  const __m256i no_bucket_vec = _mm256_set1_epi32(-1);
  int64_t no_bucket = 0;
  size_t i = 0;
  for (; i + 8 * kChains <= n; i += 8 * kChains) {
    __m512d x[kChains];
    __m256i base[kChains];
    for (int c = 0; c < kChains; ++c) {
      x[c] = _mm512_loadu_pd(values + i + 8 * c);
      __m512d t = _mm512_mul_pd(_mm512_sub_pd(x[c], first), scale);
      t = _mm512_min_pd(t, last_slot);
      t = _mm512_max_pd(t, _mm512_setzero_pd());
      base[c] =
          _mm256_i32gather_epi32(guide.slot_lo, _mm512_cvttpd_epi32(t), 4);
    }
    for (int step = guide.steps - 1; step >= 0; --step) {
      const int32_t half = int32_t{1} << step;
      const __m256i probe_offset = _mm256_set1_epi32(half - 1);
      const __m256i advance = _mm256_set1_epi32(half);
      for (int c = 0; c < kChains; ++c) {
        const __m512d probe = _mm512_i32gather_pd(
            _mm256_add_epi32(base[c], probe_offset), guide.cuts, 8);
        const __mmask8 lt = _mm512_cmp_pd_mask(probe, x[c], _CMP_LT_OQ);
        base[c] = _mm256_mask_add_epi32(base[c], lt, base[c], advance);
      }
    }
    unsigned nan_bits = 0;
    for (int c = 0; c < kChains; ++c) {
      const __mmask8 nan = _mm512_cmp_pd_mask(x[c], x[c], _CMP_UNORD_Q);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + i + 8 * c),
          _mm256_mask_blend_epi32(nan, base[c], no_bucket_vec));
      nan_bits |= static_cast<unsigned>(nan) << (8 * c);
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

void MaskAndAvx512(uint8_t* mask, const uint8_t* condition, size_t n) {
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i m = _mm512_loadu_si512(mask + i);
    const __m512i c = _mm512_loadu_si512(condition + i);
    _mm512_storeu_si512(mask + i, _mm512_and_si512(m, c));
  }
  for (; i < n; ++i) mask[i] &= condition[i];
}

void FoldCellsAvx512(const int32_t* x, const int32_t* y, size_t n, int32_t nx,
                     int32_t* cells) {
  const __m512i vnx = _mm512_set1_epi32(nx);
  const __m512i vall = _mm512_set1_epi32(-1);
  const __m512i vzero = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i vx = _mm512_loadu_si512(x + i);
    const __m512i vy = _mm512_loadu_si512(y + i);
    const __mmask16 miss =
        _mm512_cmpgt_epi32_mask(vzero, _mm512_or_si512(vx, vy));
    const __m512i cell =
        _mm512_add_epi32(_mm512_mullo_epi32(vy, vnx), vx);
    _mm512_storeu_si512(cells + i,
                        _mm512_mask_blend_epi32(miss, cell, vall));
  }
  for (; i < n; ++i) {
    cells[i] = (x[i] | y[i]) < 0 ? -1 : y[i] * nx + x[i];
  }
}

/// 32 rows per step over 256-bit byte vectors (the arm's f+dq+vl subset
/// has no 512-bit byte compare): the AVX2 arm's packing, VEX-encoded.
void PackTargetsAvx512(const uint8_t* const* columns, int count, size_t n,
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

/// One masked add per row: the row's packed byte IS the k-mask selecting
/// which of the bucket's 8 int64 lanes (one cache line) gain 1.
void ScatterTargetsAvx512(const int32_t* buckets, const int32_t* sel,
                          size_t m, const uint8_t* plane, int64_t* block,
                          bool guard) {
  const __m512i one = _mm512_set1_epi64(1);
  internal::ForEachBucketedRow(
      buckets, sel, m, guard, [&](size_t row, size_t bucket) {
        int64_t* lanes = block + 8 * bucket;
        const __m512i acc = _mm512_load_si512(lanes);
        _mm512_store_si512(
            lanes, _mm512_mask_add_epi64(acc, static_cast<__mmask8>(plane[row]),
                                         acc, one));
      });
}

const Kernels kAvx512 = {"avx512",          LocateGuidedAvx512,
                         MaskAndAvx512,     FoldCellsAvx512,
                         PackTargetsAvx512, ScatterTargetsAvx512};

}  // namespace

const Kernels* Avx512KernelsOrNull() { return &kAvx512; }

}  // namespace optrules::bucketing::simd

#else  // AVX-512 subset not compiled in

namespace optrules::bucketing::simd {

const Kernels* Avx512KernelsOrNull() { return nullptr; }

}  // namespace optrules::bucketing::simd

#endif
