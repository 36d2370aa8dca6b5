// Memory contract of the exact k = 1 solver: the covering radii are
// streamed out of the tiled pairwise engine, so a 50k-point instance
// must complete in O(n) extra memory. The pre-tile implementation
// materialized the dense n^2 comparable matrix — 20 GB at this size —
// so this test both asserts the documented contract and guards against
// a regression that would re-introduce the allocation (the peak-RSS
// delta bound below would blow past by two orders of magnitude).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "algo/brute_force.hpp"
#include "data/generators.hpp"
#include "geom/distance.hpp"
#include "rng/rng.hpp"

namespace kc {
namespace {

/// Peak resident set (VmHWM) in KiB, or 0 when /proc is unavailable.
std::size_t peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kib = 0;
      fields >> kib;
      return kib;
    }
  }
  return 0;
}

TEST(BruteForceMemory, FiftyThousandPointsKOneStaysLinear) {
  constexpr std::size_t kPoints = 50'000;
  Rng rng(4242);
  const PointSet ps = data::generate_gau(kPoints, 4, 3, 100.0, 0.5, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();

  const std::size_t before = peak_rss_kib();
  const KCenterResult result = brute_force_opt(oracle, all, 1);
  const std::size_t after = peak_rss_kib();

  ASSERT_EQ(result.centers.size(), 1u);
  EXPECT_GT(result.radius_comparable, 0.0);

  // Sanity on the value: the chosen center's radius can be recomputed
  // with one linear scan.
  std::vector<double> best(all.size(), kInfDist);
  oracle.update_nearest_multi(all, {&result.centers[0], 1}, best);
  double radius = 0.0;
  for (const double d : best) {
    if (d > radius) radius = d;
  }
  EXPECT_EQ(radius, result.radius_comparable);

  if (before == 0) GTEST_SKIP() << "no /proc/self/status on this host";
  // O(n) working set: the radii array plus tile staging is ~1 MB; the
  // old dense matrix was ~20 GB. 200 MB of slack absorbs allocator and
  // test-harness noise while staying two orders of magnitude below the
  // quadratic footprint.
  EXPECT_LE(after - before, 200u * 1024u)
      << "peak RSS grew by " << (after - before) / 1024 << " MiB";
}

}  // namespace
}  // namespace kc
