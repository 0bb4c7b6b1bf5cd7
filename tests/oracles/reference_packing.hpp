// Parity oracle for solver::PackingSolver: the packing search as it
// stood before its per-node cost was cut.
//
// Every node recomputes the fit of each remaining FPGA from the live
// slack, undoes its slack with `+=`, and ticks the Budget once; every
// kernel entry heap-allocates its symmetry scratch. PackingSolver keeps
// a fit table per kernel entry, restores slack by value, reuses
// per-depth scratch and charges the Budget in batches, yet must visit
// the same nodes in the same order, charge the Budget the same count
// and keep the same incumbents (differential_fuzz --packing-parity
// checks it across seeds).
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "solver/budget.hpp"
#include "solver/packing.hpp"

namespace mfa::oracles {

/// Packs `totals` like PackingSolver(problem).pack(totals, mode, budget,
/// stability), one Budget::tick() per node.
[[nodiscard]] solver::PackingResult reference_pack(
    const core::Problem& problem, const std::vector<int>& totals,
    solver::PackingMode mode, solver::Budget& budget,
    const solver::StabilityOptions* stability = nullptr);

}  // namespace mfa::oracles
