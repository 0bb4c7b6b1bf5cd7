#include "runtime/batch.hpp"

#include "runtime/portfolio.hpp"
#include "runtime/thread_pool.hpp"

namespace mfa::runtime {

std::vector<SolveResult> BatchRunner::solve_all(
    const std::vector<SolveRequest>& requests) const {
  std::vector<SolveResult> results(requests.size());
  if (requests.empty()) return results;

  // A caller's long-lived context reaches every request whose options
  // carry no cache of their own; without one, nothing is cached (each
  // solve already runs its GP+A stages once). Per-request options are
  // value copies, so wiring never mutates caller state.
  PortfolioOptions base = options_.portfolio;
  std::vector<SolveRequest> work = requests;
  if (options_.context != nullptr &&
      options_.context->relax_cache != nullptr) {
    auto wire = [this](PortfolioOptions& o) {
      if (o.context == nullptr || o.context->relax_cache == nullptr) {
        o.context = options_.context;
      }
    };
    wire(base);
    for (SolveRequest& request : work) {
      if (request.options) wire(*request.options);
    }
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
