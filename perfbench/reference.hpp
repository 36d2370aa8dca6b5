// Independent reference checks for the benchmark's outputs.
//
// Nothing here goes through kc::DistanceOracle, the SIMD kernel tables
// or the program's evaluation code: distances are plain scalar loops
// over row-major coordinates, and the approximation factors are the
// paper's, not the report's `guarantee` string.
//
//   covering_radius  the k-center objective of a center set, recomputed
//   lower_bound      LB = max over seeded farthest-first traversals of
//                    r_k / 2, where r_k is the distance of the (k+1)-th
//                    pick to the first k: those k+1 points are pairwise
//                    >= r_k apart, so any k centers leave two of them in
//                    one cluster and OPT >= r_k / 2
//   paper_factor     GON 2, MRG 2 * rounds, EIM 10, CCM 2 + epsilon
//   check_solution   every condition a reported solution must meet
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace kcb::ref {

/// A read-only view of n row-major points in `dim` dimensions.
struct Points {
  const double* data = nullptr;
  std::size_t n = 0;
  std::size_t dim = 0;

  [[nodiscard]] const double* row(std::size_t i) const noexcept {
    return data + i * dim;
  }
};

[[nodiscard]] inline double squared_distance(const double* a, const double* b,
                                             std::size_t dim) noexcept {
  double sum = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double t = a[j] - b[j];
    sum += t * t;
  }
  return sum;
}

/// max over points of the Euclidean distance to the nearest center.
[[nodiscard]] inline double covering_radius(
    const Points& p, std::span<const std::uint32_t> centers) {
  double worst = 0.0;
  for (std::size_t i = 0; i < p.n; ++i) {
    double nearest = std::numeric_limits<double>::infinity();
    for (const std::uint32_t c : centers) {
      nearest = std::min(nearest, squared_distance(p.row(i), p.row(c), p.dim));
    }
    worst = std::max(worst, nearest);
  }
  return std::sqrt(worst);
}

/// Farthest-first traversal from `start`: returns r_k, the distance of
/// the point a (k+1)-th pick would take to the first k picks.
[[nodiscard]] inline double traversal_radius(const Points& p, std::size_t k,
                                             std::size_t start) {
  std::vector<double> nearest(p.n, std::numeric_limits<double>::infinity());
  std::size_t pick = start;
  double radius = 0.0;
  for (std::size_t step = 0; step < k; ++step) {
    radius = 0.0;
    std::size_t far = pick;
    for (std::size_t i = 0; i < p.n; ++i) {
      nearest[i] = std::min(nearest[i],
                            squared_distance(p.row(i), p.row(pick), p.dim));
      if (nearest[i] > radius) {
        radius = nearest[i];
        far = i;
      }
    }
    pick = far;
  }
  return std::sqrt(radius);
}

/// LB = max over `starts` of traversal_radius / 2; LB <= OPT <= 2 LB.
[[nodiscard]] inline double lower_bound(const Points& p, std::size_t k,
                                        std::span<const std::size_t> starts) {
  double lb = 0.0;
  for (const std::size_t s : starts) {
    lb = std::max(lb, traversal_radius(p, k, s) / 2.0);
  }
  return lb;
}

/// Deterministic 64-bit stream (splitmix64), independent of kc::Rng.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, side).
  double uniform(double side) noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 * side;
  }
};

/// Deterministic traversal starts drawn from `seed`.
[[nodiscard]] inline std::vector<std::size_t> traversal_starts(
    std::size_t n, std::size_t count, std::uint64_t seed) {
  SplitMix mix{seed};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < count; ++i) {
    starts.push_back(static_cast<std::size_t>(mix.next() % n));
  }
  return starts;
}

/// The paper's worst-case approximation factor of one run (0 when the
/// algorithm has none on record). MRG's factor grows by 2 per round
/// (Theorem 1: 4 for the usual two rounds); EIM's 10 holds with
/// sufficient probability; CCM is (2 + epsilon).
[[nodiscard]] inline double paper_factor(std::string_view algorithm,
                                         int rounds, double ccm_epsilon) {
  if (algorithm == "gon") return 2.0;
  if (algorithm == "mrg") return 2.0 * std::max(rounds, 1);
  if (algorithm == "eim") return 10.0;
  if (algorithm == "ccm") return 2.0 + ccm_epsilon;
  return 0.0;
}

/// Relative agreement used for every recomputed value.
inline constexpr double kValueTolerance = 1e-9;

/// Checks one reported solution; returns "" when it passes, otherwise
/// what failed. `lb` is lower_bound() of the same points and k.
[[nodiscard]] inline std::string check_solution(
    const Points& p, std::size_t k, std::span<const std::uint32_t> centers,
    double value, double lb, double factor) {
  if (centers.size() != k) {
    return "reported " + std::to_string(centers.size()) + " centers, want " +
           std::to_string(k);
  }
  std::vector<std::uint32_t> sorted(centers.begin(), centers.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate center index";
  }
  if (sorted.back() >= p.n) return "center index out of range";
  const double naive = covering_radius(p, centers);
  if (std::abs(value - naive) > kValueTolerance * std::max(naive, 1e-300)) {
    return "value " + std::to_string(value) + " != recomputed " +
           std::to_string(naive);
  }
  if (value < lb * (1.0 - kValueTolerance)) {
    return "value " + std::to_string(value) + " below lower bound " +
           std::to_string(lb);
  }
  if (factor <= 0.0) return "no paper factor for this algorithm";
  if (value > 2.0 * factor * lb * (1.0 + kValueTolerance)) {
    return "value " + std::to_string(value) + " above 2 * factor * LB = " +
           std::to_string(2.0 * factor * lb);
  }
  return "";
}

}  // namespace kcb::ref
