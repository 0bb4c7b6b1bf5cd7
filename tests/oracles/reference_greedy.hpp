// Parity oracle for alloc::GreedyAllocator: Algorithm 1 without the
// work that cuts its per-placement cost.
//
// After every placement the FPGAs are re-sorted with std::stable_sort,
// whose comparator recomputes each FPGA's normalized slack key, and a
// kernel's placed count is the allocation's row sum. GreedyAllocator
// keeps each key current in place(), re-sorts with a stable insertion
// sort on the cached keys and derives the placed count from what is
// left, yet must return the same status, allocation, used fraction,
// iteration count and dropped CUs (differential_fuzz --greedy-parity
// checks it across seeds).
#pragma once

#include <vector>

#include "alloc/greedy.hpp"
#include "core/problem.hpp"
#include "support/status.hpp"

namespace mfa::oracles {

/// Places `totals` like GreedyAllocator(options).allocate(problem,
/// totals); options.cache is ignored.
[[nodiscard]] StatusOr<alloc::GreedyResult> reference_greedy(
    const core::Problem& problem, const std::vector<int>& totals,
    const alloc::GreedyOptions& options);

}  // namespace mfa::oracles
