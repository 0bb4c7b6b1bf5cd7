#include "alloc/gpa.hpp"

#include <chrono>

namespace mfa::alloc {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

StatusOr<GpaResult> GpaSolver::solve(const core::Problem& problem) const {
  const Status valid = problem.validate();
  if (!valid.is_ok()) return valid;

  // ---- Step 1: continuous relaxation (paper §3.2.1) by bisection,
  // memoized when a shared cache is configured (portfolio lanes solve
  // identical roots), warm-started from options_.warm when set (the
  // bisection probes the seed ÎI once). Cache keys fold the seed in, so
  // warm and cold entries never alias.
  auto t0 = std::chrono::steady_clock::now();
  const double hint =
      options_.warm && options_.warm->ii > 0.0 ? options_.warm->ii : 0.0;
  core::RelaxationCache* relax_cache =
      options_.context != nullptr ? options_.context->relax_cache : nullptr;
  const core::CuBounds bounds = core::CuBounds::defaults(problem);
  auto solve_root = [&problem, &bounds, hint] {
    return core::solve_relaxation(problem, bounds, hint);
  };
  StatusOr<core::RelaxedSolution> relaxed =
      relax_cache == nullptr
          ? solve_root()
          : *relax_cache->get_or_solve(
                core::relaxation_cache_key(problem, bounds, hint),
                solve_root);
  const double seconds_relax = seconds_since(t0);
  if (!relaxed.is_ok()) return relaxed.status();

  // ---- Step 2: branch-and-bound discretization (§3.2.2, first half).
  t0 = std::chrono::steady_clock::now();
  solver::DiscretizeOptions discretize_options = options_.discretize;
  if (discretize_options.cache == nullptr) {
    discretize_options.cache = relax_cache;
  }
  solver::Discretizer discretizer(discretize_options);
  StatusOr<solver::DiscretizeResult> discrete =
      discretizer.run(problem, relaxed.value());
  const double seconds_discretize = seconds_since(t0);
  if (!discrete.is_ok()) return discrete.status();

  // ---- Step 3: greedy allocation (Algorithm 1).
  t0 = std::chrono::steady_clock::now();
  GreedyAllocator allocator(options_.greedy);
  StatusOr<GreedyResult> greedy =
      allocator.allocate(problem, discrete.value().totals);
  if (!greedy.is_ok()) return greedy.status();
  const double seconds_allocate = seconds_since(t0);

  GpaResult result{std::move(greedy.value().allocation),
                   relaxed.value().ii,
                   relaxed.value().n_hat,
                   discrete.value().ii,
                   discrete.value().totals,
                   greedy.value().used_fraction,
                   discrete.value().nodes,
                   seconds_relax,
                   seconds_discretize,
                   seconds_allocate};
  return result;
}

}  // namespace mfa::alloc
