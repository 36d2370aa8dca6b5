// AVX-512 kernel table: 8 points per 512-bit lane group.
//
// Compiled with -mavx512f -ffp-contract=off; only ever executed after
// __builtin_cpu_supports("avx512f") confirms the host. AVX-512F carries
// its own (EVEX) FMA forms, so -ffp-contract=off is load-bearing here:
// without it the compiler could legally fuse the accumulate chain and
// break bit-identity with the scalar reference.
#if defined(__AVX512F__)

#include <immintrin.h>

#include "geom/kernels_simd_impl.hpp"

namespace kc::simd {

namespace {

struct VecAvx512 {
  static constexpr std::size_t kWidth = 8;
  using reg = __m512d;

  static reg zero() { return _mm512_setzero_pd(); }
  static reg set1(double v) { return _mm512_set1_pd(v); }
  static reg loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  // Same tie/NaN semantics as vminpd/vmaxpd: second operand wins ties,
  // matching the scalar strict comparisons with the candidate first.
  static reg vmin(reg a, reg b) { return _mm512_min_pd(a, b); }
  static reg vmax(reg a, reg b) { return _mm512_max_pd(a, b); }
  static reg vabs(reg v) { return _mm512_abs_pd(v); }

  static reg load_strided(const double* p, std::size_t stride) {
    return _mm512_set_pd(p[7 * stride], p[6 * stride], p[5 * stride],
                         p[4 * stride], p[3 * stride], p[2 * stride],
                         p[stride], p[0]);
  }
  static reg load_rows(const double* const* rows, std::size_t d) {
    return _mm512_set_pd(rows[7][d], rows[6][d], rows[5][d], rows[4][d],
                         rows[3][d], rows[2][d], rows[1][d], rows[0][d]);
  }

  /// Splits 8 consecutive dim-2 rows into [x0..x7], [y0..y7] with two
  /// cross-register permutes (vpermt2pd).
  static void deinterleave2(const double* p, reg& x, reg& y) {
    const __m512d a = _mm512_loadu_pd(p);      // x0 y0 .. x3 y3
    const __m512d b = _mm512_loadu_pd(p + 8);  // x4 y4 .. x7 y7
    const __m512i ix = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i iy = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    x = _mm512_permutex2var_pd(a, ix, b);
    y = _mm512_permutex2var_pd(a, iy, b);
  }

  static unsigned cmpeq_mask(reg a, reg b) {
    return static_cast<unsigned>(_mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ));
  }

  // ---- Masked-tail hooks (kernels_simd_impl.hpp): the nearest-center
  // tails run under a lane mask instead of the scalar reference loop.
  // AVX-512 masked loads fault-suppress inactive lanes, so a tail never
  // reads past the end of the point rows or the best[] slice; inactive
  // lanes are zero-filled, computed on harmlessly, and never stored.

  using Mask = __mmask8;

  static Mask tail_mask(std::size_t r) {
    return static_cast<Mask>((1u << r) - 1u);
  }
  static reg maskz_loadu(Mask m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void mask_storeu(double* p, Mask m, reg v) {
    _mm512_mask_storeu_pd(p, m, v);
  }

  /// p[j * stride] for j < r, zero above. Assembled lane by lane (a
  /// masked gather would need index vectors; the tail runs once per
  /// scan, so the shuffle through memory is irrelevant).
  static reg maskz_load_strided(const double* p, std::size_t stride,
                                std::size_t r) {
    alignas(64) double lanes[kWidth] = {};
    for (std::size_t j = 0; j < r; ++j) lanes[j] = p[j * stride];
    return _mm512_load_pd(lanes);
  }
  static reg maskz_load_rows(const double* const* rows, std::size_t d,
                             std::size_t r) {
    alignas(64) double lanes[kWidth] = {};
    for (std::size_t j = 0; j < r; ++j) lanes[j] = rows[j][d];
    return _mm512_load_pd(lanes);
  }

  /// First r dim-2 rows (2r doubles) split into x/y lanes, zero above;
  /// the two masked halves cover exactly the valid doubles.
  static void maskz_deinterleave2(const double* p, std::size_t r, reg& x,
                                  reg& y) {
    const auto lo = static_cast<Mask>(
        r >= 4 ? 0xFFu : ((1u << (2 * r)) - 1u));
    const auto hi = static_cast<Mask>(
        r > 4 ? ((1u << (2 * r - 8)) - 1u) : 0u);
    const __m512d a = _mm512_maskz_loadu_pd(lo, p);
    const __m512d b = _mm512_maskz_loadu_pd(hi, p + 8);
    const __m512i ix = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i iy = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    x = _mm512_permutex2var_pd(a, ix, b);
    y = _mm512_permutex2var_pd(a, iy, b);
  }
};

constexpr KernelTable kAvx512Table = make_kernel_table<VecAvx512>("avx512");

}  // namespace

// Internal hook for kernels.cpp's dispatch.
const KernelTable& avx512_kernel_table() noexcept { return kAvx512Table; }

}  // namespace kc::simd

#endif  // __AVX512F__
