#include "runtime/batch.hpp"

#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"

namespace mfa::runtime {

std::vector<SolveResult> BatchRunner::solve_all(
    const std::vector<SolveRequest>& requests) const {
  std::vector<SolveResult> results(requests.size());
  if (requests.empty()) return results;

  // One relaxation cache for the whole batch (see header); hits are
  // bit-identical to solving, so injecting them does not disturb
  // determinism. The portfolio's and each request's own context win
  // when they carry a cache.
  core::RelaxationCache batch_cache;
  core::SolverContext batch_context{&batch_cache};
  if (options_.context != nullptr &&
      options_.context->relax_cache != nullptr) {
    batch_context.relax_cache = options_.context->relax_cache;
  }
  auto wire = [&batch_context](PortfolioOptions& o) {
    if (o.context == nullptr || o.context->relax_cache == nullptr) {
      o.context = &batch_context;
    }
  };
  PortfolioOptions base = options_.portfolio;
  wire(base);
  // Per-request options are value copies, so injecting the cache never
  // mutates caller state.
  std::vector<SolveRequest> work = requests;
  for (SolveRequest& request : work) {
    if (request.options) wire(*request.options);
  }

  // Lanes sequential inside each instance (see header).
  Portfolio portfolio(base, /*num_threads=*/1);
  if (options_.num_threads == 1 || work.size() == 1) {
    for (std::size_t i = 0; i < work.size(); ++i) {
      results[i] = portfolio.solve(work[i]);
    }
    return results;
  }

  ThreadPool pool(options_.num_threads);
  pool.parallel_for(work.size(), [&](std::size_t i) {
    results[i] = portfolio.solve(work[i]);
  });
  return results;
}

std::vector<SolveResult> BatchRunner::solve_all(
    const std::vector<core::Problem>& problems) const {
  std::vector<SolveRequest> requests;
  requests.reserve(problems.size());
  for (const core::Problem& p : problems) {
    requests.push_back(SolveRequest::of(p));
  }
  return solve_all(requests);
}

}  // namespace mfa::runtime
