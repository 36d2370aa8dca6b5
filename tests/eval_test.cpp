#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace kc::eval {
namespace {

TEST(CoveringRadius, MatchesHandComputation) {
  const PointSet ps{{0.0, 0.0}, {1.0, 0.0}, {4.0, 0.0}, {10.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 3};
  const auto result = covering_radius(oracle, all, centers);
  // Point 4.0 is 4 from center 0 and 6 from center 10: radius 4.
  EXPECT_DOUBLE_EQ(result.radius, 4.0);
  EXPECT_EQ(result.witness, 2u);
  EXPECT_DOUBLE_EQ(result.radius_comparable, 16.0);
}

TEST(CoveringRadius, ZeroWhenCentersCoverAll) {
  const PointSet ps{{0.0, 0.0}, {5.0, 5.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto result = covering_radius(oracle, all, all);
  EXPECT_DOUBLE_EQ(result.radius, 0.0);
}

/// A pool-bound oracle shards the scan (the low shard threshold forces
/// it on a small instance); the result must equal the unbound pass bit
/// for bit, evaluation counts included.
TEST(CoveringRadius, ParallelMatchesSequential) {
  const PointSet ps = test::small_gaussian_instance(6, 3000, 1);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 100, 700, 1500, 9000, 17000};
  const DistanceOracle unbound(ps);
  DistanceOracle bound(ps);
  exec::ThreadPoolBackend pool(4);
  bound.bind_executor(&pool, 256);

  const WorkScope seq_work;
  const auto seq = covering_radius(unbound, all, centers);
  const auto seq_evals = seq_work.elapsed().distance_evals;
  const WorkScope par_work;
  const auto par = covering_radius(bound, all, centers);
  EXPECT_EQ(par_work.elapsed().distance_evals, seq_evals);
  EXPECT_EQ(par.radius_comparable, seq.radius_comparable);
  EXPECT_EQ(par.radius, seq.radius);
  EXPECT_EQ(par.witness, seq.witness);
}

TEST(CoveringRadius, ValidatesInput) {
  const PointSet ps{{0.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  EXPECT_THROW((void)covering_radius(oracle, all, {}), std::invalid_argument);
  EXPECT_THROW((void)covering_radius(oracle, {}, all), std::invalid_argument);
}

TEST(AssignClusters, NearestCenterWins) {
  const PointSet ps{{0.0, 0.0}, {9.0, 0.0}, {1.0, 0.0}, {8.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 1};
  const auto assignment = assign_clusters(oracle, all, centers);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
  EXPECT_EQ(assignment[2], 0u);
  EXPECT_EQ(assignment[3], 1u);
}

/// Several 4096-point chunks spread across a bound pool must label
/// every point exactly as the unbound single stream does.
TEST(AssignClusters, ParallelMatchesSequential) {
  const PointSet ps = test::small_gaussian_instance(6, 3000, 4);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{3, 200, 4100, 8191, 12000, 17999};
  const DistanceOracle unbound(ps);
  DistanceOracle bound(ps);
  exec::ThreadPoolBackend pool(4);
  bound.bind_executor(&pool);
  EXPECT_EQ(assign_clusters(bound, all, centers),
            assign_clusters(unbound, all, centers));
}

TEST(ClusterStats, SizesAndRadii) {
  const PointSet ps{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0},
                    {50.0, 0.0}, {51.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 3};
  const auto stats = cluster_stats(oracle, all, centers);
  ASSERT_EQ(stats.sizes.size(), 2u);
  EXPECT_EQ(stats.sizes[0], 3u);
  EXPECT_EQ(stats.sizes[1], 2u);
  EXPECT_DOUBLE_EQ(stats.radii[0], 2.0);
  EXPECT_DOUBLE_EQ(stats.radii[1], 1.0);
  EXPECT_DOUBLE_EQ(stats.max_radius, 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_radius, 1.5);
  EXPECT_EQ(stats.largest_cluster, 3u);
  EXPECT_EQ(stats.smallest_cluster, 2u);
}

TEST(ClusterStats, MaxRadiusEqualsCoveringRadius) {
  const PointSet ps = test::small_gaussian_instance(5, 200, 2);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 5);
  const auto stats = cluster_stats(oracle, all, gon.centers);
  const auto cover = covering_radius(oracle, all, gon.centers);
  EXPECT_NEAR(stats.max_radius, cover.radius, 1e-9);
}

TEST(LowerBound, NeverExceedsExactOptimum) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    PointSet ps(14, 2);
    for (index_t i = 0; i < 14; ++i) {
      for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 10);
    }
    const DistanceOracle oracle(ps);
    const auto all = ps.all_indices();
    const auto opt = brute_force_opt(oracle, all, 3);
    const double lb = gonzalez_lower_bound(oracle, all, 3);
    EXPECT_LE(lb, oracle.to_reported(opt.radius_comparable) + 1e-9);
    // And it is not vacuous: at least OPT/2 by the GON guarantee.
    EXPECT_GE(lb, oracle.to_reported(opt.radius_comparable) / 2.0 - 1e-9);
  }
}

TEST(LowerBound, ExactOnPlantedInstances) {
  Rng rng(4);
  const auto inst = data::make_planted(4, 9, 1.0, 10.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const double lb = gonzalez_lower_bound(oracle, all, 4);
  EXPECT_LE(lb, inst.opt_radius + 1e-9);
  EXPECT_GE(lb, inst.opt_radius / 2.0 - 1e-9);
}

TEST(RatioUpperBound, BoundsGonzalezByTwo) {
  const PointSet ps = test::small_gaussian_instance(6, 300, 5);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 6);
  const double value = oracle.to_reported(gon.radius_comparable);
  // value / LB <= value / (value/2) = 2... but LB uses its own GON run;
  // both are within a factor 2 of OPT so the ratio is at most 4; for
  // the same run's radius the certified bound is exactly <= 2 when LB
  // derives from the same greedy sequence. Use the weaker sound bound.
  EXPECT_LE(ratio_upper_bound(oracle, all, 6, value), 4.0 + 1e-9);
}

TEST(RatioUpperBound, DegenerateZeroRadius) {
  const PointSet ps = test::all_duplicates(10);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  EXPECT_DOUBLE_EQ(ratio_upper_bound(oracle, all, 2, 0.0), 1.0);
}

}  // namespace
}  // namespace kc::eval
