#include "algo/gonzalez.hpp"

#include <optional>
#include <stdexcept>

#include "geom/spatial_index.hpp"
#include "rng/rng.hpp"

namespace kc {

GonzalezResult gonzalez(const DistanceOracle& oracle,
                        std::span<const index_t> pts, std::size_t k,
                        const GonzalezOptions& options) {
  if (pts.empty()) throw std::invalid_argument("gonzalez: empty point subset");
  if (k == 0) throw std::invalid_argument("gonzalez: k must be at least 1");

  const std::size_t n = pts.size();
  const std::size_t centers_wanted = std::min(k, n);

  GonzalezResult result;
  result.centers.reserve(centers_wanted);
  result.greedy_radii_comparable.reserve(centers_wanted);

  std::size_t first_pos = 0;
  if (options.first == GonzalezOptions::FirstCenter::Random) {
    Rng rng(options.seed);
    first_pos = static_cast<std::size_t>(rng.uniform_int(n));
  }

  // best[i] = comparable distance from pts[i] to the nearest chosen
  // center so far. Each new center costs one nearest-center sweep (a
  // one-element center span through update_nearest_multi), for the
  // O(k*N) total the paper cites in §5.1. The sweep and the argmax
  // both run on the SIMD kernel engine; top-level callers pass
  // all_indices(), so the sweep takes the contiguous fast path and
  // streams PointSet rows without the ids gather.
  //
  // Gonzalez is exactly the shape PruneCache exists for: k sweeps over
  // one best[] array that only ever tightens, so per-cell bounds from
  // sweep t keep pruning sweep t+1 without an O(n) re-derivation. The
  // cache lives and dies with best[] right here, per its contract. When
  // the oracle's index covers the full subset we go one step further
  // and keep best[] in *cell order* (the oracle's ordered scans), so
  // pruned sweeps fold kernels into contiguous slices with no per-cell
  // gather/scatter. The values are bit-identical either way; only the
  // argmax needs care, because the unpruned argmax breaks value ties on
  // the smallest id and the permuted scan order would break them on
  // grid position instead.
  std::vector<double> best(n, kInfDist);
  const bool full_range =
      n == oracle.points().size() && pts.front() == 0 &&
      simd::is_contiguous_run(pts.data(), pts.size());
  const bool ordered = full_range && oracle.ordered_scans_available();
  std::optional<PruneCache> cache;
  if (oracle.pruning_enabled() && oracle.spatial_index() != nullptr) {
    cache.emplace(*oracle.spatial_index());
  }
  PruneCache* cptr = cache ? &*cache : nullptr;
  const std::span<const index_t> order =
      ordered ? oracle.spatial_index()->order() : std::span<const index_t>{};

  // The far point for the next center, given the first-of-ties argmax
  // position: in the ordered domain ties must still resolve to the
  // smallest point id, exactly like the id-order argmax. The tie sweep
  // is a vectorizable equality count first, so the common no-tie case
  // costs one extra streaming pass only.
  const auto far_point = [&](std::size_t pos) -> index_t {
    if (!ordered) return pts[pos];
    const double v = best[pos];
    index_t id = order[pos];
    std::size_t ties = 0;
    for (std::size_t j = pos + 1; j < n; ++j) {
      ties += best[j] == v ? 1 : 0;
    }
    if (ties > 0) {
      for (std::size_t j = pos + 1; j < n; ++j) {
        if (best[j] == v && order[j] < id) id = order[j];
      }
    }
    return id;
  };

  index_t current = pts[first_pos];
  result.centers.push_back(current);
  result.greedy_radii_comparable.push_back(0.0);

  for (std::size_t step = 1; step <= centers_wanted; ++step) {
    const std::span<const index_t> one{&current, 1};
    if (ordered) {
      oracle.update_nearest_multi_ordered(one, best, cptr);
    } else {
      oracle.update_nearest_multi(pts, one, best, cptr);
    }
    if (step == centers_wanted) break;
    const std::size_t far_pos = argmax(best);
    result.greedy_radii_comparable.push_back(best[far_pos]);
    current = far_point(far_pos);
    result.centers.push_back(current);
  }

  result.radius_comparable = best[argmax(std::span<const double>(best))];
  return result;
}

}  // namespace kc
