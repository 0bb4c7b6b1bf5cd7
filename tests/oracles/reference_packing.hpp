// Parity oracle for solver::PackingSolver: the packing search without
// the work that cuts its per-node cost.
//
// Every node recomputes the fit of each remaining FPGA from the live
// slack, undoes its slack with `+=`, and ticks the Budget once; every
// kernel entry heap-allocates its symmetry scratch and recomputes the
// capacity-count bounds (rules A and B of solver/packing.hpp) from the
// slack, with no stamps and no running sums. PackingSolver keeps a fit
// table and the bounds' rooms per kernel entry, restores slack by
// value, reuses per-depth scratch and charges the Budget in batches,
// yet must visit the same nodes in the same order, charge the Budget
// the same count and keep the same incumbents (differential_fuzz
// --packing-parity checks it across seeds).
//
// CountBounds::kOff runs the search as it stood before the bounds. Its
// answers must equal the bounded search's wherever both finish, in no
// fewer nodes; --packing-parity checks that too.
#pragma once

#include <limits>
#include <vector>

#include "core/problem.hpp"
#include "solver/budget.hpp"
#include "solver/packing.hpp"

namespace mfa::oracles {

/// Whether reference_pack applies the capacity-count bounds.
enum class CountBounds { kOn, kOff };

/// Packs `totals` like PackingSolver(problem).pack(totals, mode, budget,
/// stability, bound), one Budget::tick() per node. `bounds` = kOff is
/// the search without rules A and B. `bound` is the min-spreading
/// search's initial objective bound, held as an incumbent's objective
/// until a placement beats it.
[[nodiscard]] solver::PackingResult reference_pack(
    const core::Problem& problem, const std::vector<int>& totals,
    solver::PackingMode mode, solver::Budget& budget,
    const solver::StabilityOptions* stability = nullptr,
    CountBounds bounds = CountBounds::kOn,
    double bound = std::numeric_limits<double>::infinity());

}  // namespace mfa::oracles
