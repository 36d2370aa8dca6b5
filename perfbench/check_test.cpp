// Self-test of the reference checker (reference.hpp) on tiny instances,
// against an exact optimum found by enumerating every k-subset of the
// points as centers. perfbench/run.py runs it before every benchmark
// run; a failure fails the run.
//
//   kc_perfbench_check_test   exit 0 = every check held
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "reference.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::fprintf(stderr, "check_test: FAILED %s\n", what.c_str());
    ++failures;
  }
}

/// Exact discrete k-center optimum: the best covering radius over all
/// k-subsets of the points (centers drawn from the input, as in the
/// paper), with the subset attaining it.
double exact_optimum(const kcb::ref::Points& p, std::size_t k,
                     std::vector<std::uint32_t>& best) {
  std::vector<std::uint32_t> pick(k);
  for (std::size_t i = 0; i < k; ++i) pick[i] = static_cast<std::uint32_t>(i);
  double opt = -1.0;
  for (;;) {
    const double r = kcb::ref::covering_radius(p, pick);
    if (opt < 0.0 || r < opt) {
      opt = r;
      best = pick;
    }
    std::size_t i = k;
    while (i > 0 && pick[i - 1] == p.n - k + i - 1) --i;
    if (i == 0) return opt;
    ++pick[i - 1];
    for (std::size_t j = i; j < k; ++j) pick[j] = pick[j - 1] + 1;
  }
}

}  // namespace

int main() {
  std::mt19937_64 gen(20160412);
  std::uniform_real_distribution<double> coord(0.0, 10.0);
  kc::api::Solver solver;

  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 6 + static_cast<std::size_t>(trial % 7);
    const std::size_t dim = 1 + static_cast<std::size_t>(trial % 3);
    const std::size_t k = 1 + static_cast<std::size_t>(trial % 4);
    std::vector<double> coords(n * dim);
    for (double& c : coords) c = coord(gen);
    const kcb::ref::Points p{coords.data(), n, dim};
    const std::string tag = "trial " + std::to_string(trial);

    std::vector<std::uint32_t> best;
    const double opt = exact_optimum(p, k, best);
    const auto starts = kcb::ref::traversal_starts(n, 3, 7 + trial);
    const double lb = kcb::ref::lower_bound(p, k, starts);

    // LB is a lower bound, and the traversal behind it is a
    // 2-approximation, so OPT lies in [LB, 2 LB].
    expect(lb <= opt * (1 + 1e-12), tag + ": LB <= OPT");
    expect(opt <= 2.0 * lb * (1 + 1e-12), tag + ": OPT <= 2 LB");
    for (const std::size_t s : starts) {
      expect(kcb::ref::traversal_radius(p, k, s) <= 2.0 * opt * (1 + 1e-12),
             tag + ": traversal radius <= 2 OPT");
    }

    // The checker accepts the optimum and rejects corrupted reports.
    expect(kcb::ref::check_solution(p, k, best, opt, lb, 2.0).empty(),
           tag + ": optimum accepted");
    expect(!kcb::ref::check_solution(p, k, best, opt * 1.01 + 1e-6, lb, 2.0)
                .empty(),
           tag + ": wrong value rejected");
    if (k >= 2) {
      std::vector<std::uint32_t> dup = best;
      dup[1] = dup[0];
      expect(!kcb::ref::check_solution(p, k, dup,
                                       kcb::ref::covering_radius(p, dup), lb,
                                       2.0)
                  .empty(),
             tag + ": duplicate center rejected");
    }
    std::vector<std::uint32_t> out_of_range = best;
    out_of_range.back() = static_cast<std::uint32_t>(n);
    expect(!kcb::ref::check_solution(p, k, out_of_range, opt, lb, 2.0).empty(),
           tag + ": out-of-range center rejected");
    expect(!kcb::ref::check_solution(p, k, best, opt, lb, 0.0).empty(),
           tag + ": unknown factor rejected");

    // The program's solvers meet the paper's factors against the exact
    // optimum, and the checker accepts what they report.
    kc::PointSet points(dim, coords);
    for (const char* algo : {"gon", "mrg", "eim", "ccm"}) {
      kc::api::SolveRequest request;
      request.points = &points;
      request.k = k;
      request.algorithm = algo;
      request.exec.machines = 2;
      request.seed = static_cast<std::uint64_t>(trial) + 1;
      const kc::api::SolveReport report = solver.solve(request);
      const double factor = kcb::ref::paper_factor(
          algo, report.rounds, kc::CcmOptions{}.epsilon);
      const std::string at = tag + " " + algo;
      expect(report.value <= factor * opt * (1 + 1e-9),
             at + ": value <= factor * OPT");
      expect(kcb::ref::check_solution(p, k, report.centers, report.value, lb,
                                      factor)
                 .empty(),
             at + ": report accepted");
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "check_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "check_test: ok\n");
  return 0;
}
