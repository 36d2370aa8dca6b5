// Scalar reference kernels, shared across the kernel translation units.
//
// These loops are the semantic ground truth for the whole kernel
// engine: the scalar table is built from them directly, and the SIMD
// translation units reuse them for ragged tails so every element of a
// vectorized scan still executes exactly this operation sequence. Keep
// them free of anything a compiler could legally reassociate — each
// accumulation is a strict left-to-right fold.
//
// Everything here lives in an anonymous namespace ON PURPOSE, even
// though this is a header: each including translation unit must get its
// *own* internal copy, compiled with that TU's ISA flags. With ordinary
// inline (vague) linkage the linker comdat-merges the copies and may
// keep the one compiled under -mavx2/-mavx512f — and then the scalar
// fallback table would execute AVX instructions on a host that has
// none. Internal linkage makes that impossible: the scalar TU's copy is
// baseline code, and the SIMD TUs' copies (used only for tails) only
// run after runtime dispatch has confirmed their ISA. Include this
// header only from the kernel TUs.
#pragma once

#include <cmath>
#include <cstddef>

#include "geom/kernels.hpp"
#include "geom/point_set.hpp"

namespace kc::simd {
namespace {

/// The blocked kernels' one runtime switch: calls
/// body.template operator()<NC>() with NC == ncenters, for ncenters in
/// [1, kCenterBlock] (anything else is a no-op), so each kernel body
/// sees its center count as a compile-time constant.
template <typename Body>
inline void with_center_count(std::size_t ncenters, Body&& body) {
  static_assert(kCenterBlock == 4, "one case per block size");
  switch (ncenters) {
    case 1: body.template operator()<1>(); break;
    case 2: body.template operator()<2>(); break;
    case 3: body.template operator()<3>(); break;
    case 4: body.template operator()<4>(); break;
    default: break;
  }
}

}  // namespace
}  // namespace kc::simd

namespace kc::simd::scalar {
namespace {

// Per-metric pair kernels. The dim-2/3 specializations matter: the
// paper's synthetic data is 2-3 dimensional and the generic loop costs
// roughly 2x on those shapes. (0 + d*d == d*d bitwise for the
// non-negative squares, so the specializations are bit-identical to the
// generic fold.)

[[nodiscard]] inline double l2sq(const double* a, const double* b,
                                 std::size_t dim) noexcept {
  if (dim == 2) {
    const double d0 = a[0] - b[0];
    const double d1 = a[1] - b[1];
    return d0 * d0 + d1 * d1;
  }
  if (dim == 3) {
    const double d0 = a[0] - b[0];
    const double d1 = a[1] - b[1];
    const double d2 = a[2] - b[2];
    return d0 * d0 + d1 * d1 + d2 * d2;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

[[nodiscard]] inline double l1(const double* a, const double* b,
                               std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

[[nodiscard]] inline double linf(const double* a, const double* b,
                                 std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (d > acc) acc = d;
  }
  return acc;
}

// Nearest-center folds. Per point, centers fold in order 0..NC-1 with
// the strict < of a sequential min, so one call is bit-identical to NC
// single-center passes. NC is a template parameter so the center loop
// unrolls; at NC == 1 this is the plain one-center scan.

template <std::size_t NC, auto Pair>
inline void blocked_gather(const double* coords, std::size_t dim,
                           const index_t* ids, std::size_t n,
                           const double* const* centers,
                           double* best) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = coords + static_cast<std::size_t>(ids[i]) * dim;
    double b = best[i];
    for (std::size_t c = 0; c < NC; ++c) {
      const double d = Pair(p, centers[c], dim);
      if (d < b) b = d;
    }
    best[i] = b;
  }
}

template <std::size_t NC, auto Pair>
inline void blocked_contig(const double* rows, std::size_t dim, std::size_t n,
                           const double* const* centers,
                           double* best) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = rows + i * dim;
    double b = best[i];
    for (std::size_t c = 0; c < NC; ++c) {
      const double d = Pair(p, centers[c], dim);
      if (d < b) b = d;
    }
    best[i] = b;
  }
}

/// Dense m x n distance tile: out[i * ldo + j] = pair(arows_i, brows_j).
/// Row-major over the a rows, columns in ascending b order — the exact
/// per-pair operation sequence the old per-pair matrix loop performed,
/// so the tiled engine's scalar reference is bit-identical to it.
template <typename Pair>
inline void pairwise_tile(const double* arows, const double* brows,
                          std::size_t dim, std::size_t m, std::size_t n,
                          double* out, std::size_t ldo, Pair&& pair) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a = arows + i * dim;
    double* row = out + i * ldo;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = pair(a, brows + j * dim, dim);
    }
  }
}

[[nodiscard]] inline std::size_t argmax(const double* values,
                                        std::size_t n) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

}  // namespace
}  // namespace kc::simd::scalar
