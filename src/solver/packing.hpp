// Exact placement of integer CU counts onto the platform's FPGAs
// (identical or mixed-class).
//
// Given the totals N_k, this solves the inner problem of the MINLP: find
// n_{k,f} with Σ_f n_{k,f} = N_k respecting the per-FPGA resource and
// bandwidth caps (eqs. 9–10, per device class on heterogeneous
// platforms), either as a pure feasibility question (MINLP with β = 0 —
// the placement does not affect II) or minimizing the spreading
// objective φ = max_k φ_k (the β > 0 case).
//
// The search is depth-first branch-and-bound over per-kernel count
// vectors with five accelerations:
//  1. within-class symmetry breaking — FPGAs of the *same device class*
//     still empty when a kernel is placed are interchangeable, so counts
//     assigned to them are forced non-increasing (class by class; FPGAs
//     of different classes are never conflated);
//  2. capacity pruning — remaining CUs of the kernel must fit in the
//     remaining FPGAs' aggregate fit;
//  3. spreading pruning — a partial φ_k plus the concavity bound
//     rem/(1+rem) for the unplaced remainder cannot already exceed the
//     incumbent (before the first one, the caller's objective bound, if
//     it gave one), and the global optimum cannot beat the static
//     chunk-count lower bound (search stops once it is attained);
//  4. a fit table per kernel entry — the FPGAs a kernel has not reached
//     yet keep the slack they had when it was entered, so its fit on each
//     FPGA, and the suffix sums test 2 reads, are taken once per entry
//     instead of at every node, and kept across entries while an FPGA's
//     slack is unchanged. Slack is restored by value, never undone with
//     `+=`, so the table stays exact;
//  5. capacity-count bounds (dual-feasible functions, Fekete & Schepers
//     2001) — they cut off any partial placement that no completion can
//     fit, so an infeasible pack is proved infeasible instead of running
//     to its node cap. On each axis (BRAM, DSP, LUT, FF, bandwidth) a CU
//     of size s fills at least ⌊s/θ⌋ whole blocks of size θ, and slack
//     S holds at most room(S, θ) = ⌊S·(1 + 1e-6)/θ⌋ of them:
//       A. at every kernel entry, before any node is charged: for each
//          distinct size θ of an unplaced kernel, Σ_j N_j·⌊s_j/θ⌋ over
//          the unplaced kernels ≤ Σ_f room(slack_f, θ). The left side is
//          fixed per pack and kept as suffix sums over the kernel order;
//          the rooms are kept per depth under each FPGA's slack stamp,
//          like the fit table, with running sums;
//       B. once at the root, beside the pooled-capacity test: for
//          consecutive distinct sizes s < θ, the B CUs of size ≥ θ take
//          at most m_f = room(S_f, θ) on FPGA f, σ = Σ_f m_f − B ≥ 0 of
//          those go unused, and the n CUs of size s must satisfy
//          n ≤ Σ_f ⌊(S_f·(1 + 1e-6) − m_f·θ)/s⌋ + σ·(⌊θ/s⌋ + 1).
//     Neither rule prunes a placement fit() accepts: fit() allows 1e-12
//     relative and 1e-9 absolute per step, so everything placed from
//     slack S onwards sums to at most S·(1 + 1.1e-9), and the 1e-6
//     headroom in room() covers that and all rounding (see room() in
//     packing.cpp). A subtree the bounds cut holds no feasible leaf, so
//     the search visits a subsequence of the nodes it visits without
//     them, in the same order: a pack that finishes without the bounds
//     returns the same incumbents and the same first feasible leaf with
//     them, and a pack that hits its node cap without them now finishes
//     or gets at least as far.
//
// Nodes are charged to the Budget in 1,024-node batches through
// Budget::consume, not one tick() each: tick()'s two atomic adds cost
// more than half of a node. The search still stops on the node tick()
// would refuse (node N + 1 when N remain) and sees a passed deadline or
// an expire() within 1,024 nodes. A Budget that other threads charge
// at the same time may overrun its cap by up to one batch.
//
// tests/oracles/reference_packing.hpp holds the parity oracle: the same
// search without acceleration 4 or the batching, one tick() per node,
// every fit recomputed at every node and the bounds of acceleration 5
// recomputed at every kernel entry. Both must visit the same nodes and
// keep the same incumbents. The oracle also runs without acceleration 5,
// which must give the same answers in no fewer nodes.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "solver/budget.hpp"

namespace mfa::solver {

/// What the packing search optimizes.
enum class PackingMode {
  kFeasibility,    ///< stop at the first feasible placement
  kMinSpreading,   ///< minimize φ = max_k φ_k over feasible placements
};

/// Migration awareness for re-packs against an incumbent placement, as
/// AllocServer::apply_stability runs them: the online service must not
/// shuffle CUs across the whole fleet for a tiny goal gain. A kernel
/// *moves* a CU when its reference row had the CU on an FPGA where the
/// new placement does not (CUs torn down; newly added CUs are free). A
/// *group* — in the service, one pipeline — is disturbed when any of its
/// kernels' rows changed.
///
/// Kernels with an empty reference row (new arrivals) and kernels of
/// `exempt_group` (the event's own target) are never counted. With all
/// budgets < 0 and move_cost = 0 the search is bit-identical to the
/// unconstrained one.
struct StabilityOptions {
  /// Incumbent placement, aligned to the problem's kernel order:
  /// reference[k][f] = CUs of kernel k on FPGA f before the event. An
  /// empty row exempts the kernel (no incumbent placement). Rows may be
  /// shorter/longer than the current fleet (the pool was resized);
  /// missing entries read as 0, entries beyond the fleet count as torn.
  std::vector<std::vector<int>> reference;
  /// Kernel → group id (the service uses the pipeline index). Empty
  /// means every kernel forms group 0.
  std::vector<int> group_of;
  /// Group whose kernels are never counted (the event's target); -1
  /// disables the exemption.
  int exempt_group = -1;
  /// Hard cap on CUs torn down across all counted kernels (-1 = off).
  int max_moves = -1;
  /// Hard cap on disturbed groups (-1 = off).
  int max_disturbed = -1;
  /// Soft migration cost: kMinSpreading minimizes φ + move_cost · moves
  /// instead of φ alone (0 keeps the pure-φ objective).
  double move_cost = 0.0;

  /// True when any constraint or cost term is active.
  [[nodiscard]] bool constrained() const {
    return max_moves >= 0 || max_disturbed >= 0 || move_cost > 0.0;
  }
};

struct PackingResult {
  bool feasible = false;        ///< a placement satisfying eqs. 9–10 exists
  bool proved_optimal = false;  ///< search completed within budget
  double phi = 0.0;             ///< φ of the returned placement
  int cus_moved = 0;   ///< CUs torn down vs the stability reference
  int disturbed = 0;   ///< groups disturbed vs the stability reference
  std::optional<core::Allocation> allocation;
};

/// The min-spreading search prunes a partial placement once its lower
/// bound on the objective comes within this of the incumbent's.
inline constexpr double kPackingEps = 1e-9;

/// Necessary condition for any placement of `totals`, tested at the
/// packing search's root: their pooled demand on every resource and on
/// bandwidth fits the fleet's pooled capacity (1e-6 absolute headroom).
/// Demand only grows with the totals, so totals that fail it have no
/// placement, nor does any componentwise larger vector.
bool pooled_feasible(const core::Problem& problem,
                     const std::vector<int>& totals);

/// Smallest number of FPGAs kernel k alone must span to host `n` CUs
/// under the problem's effective caps (capacity-forced chunk count).
int min_chunks(const core::Problem& problem, std::size_t k, int n);

/// Lower bound on φ_k for placing n CUs of kernel k, from the
/// most-unequal split across min_chunks FPGAs (concavity of x/(1+x)).
double phi_lower_bound(const core::Problem& problem, std::size_t k, int n);

class PackingSolver {
 public:
  explicit PackingSolver(const core::Problem& problem) : problem_(&problem) {}

  /// Packs the given totals. `totals[k]` is N_k (must be ≥ 0; a zero
  /// total is allowed here so callers can probe partial configurations,
  /// though eq. 8 requires ≥ 1 for full solutions).
  ///
  /// A non-null `stability` makes the pack migration-aware: torn-CU and
  /// disturbed-group accounting against `stability->reference`, with its
  /// budgets enforced as hard constraints (see StabilityOptions).
  ///
  /// `bound` (kMinSpreading only) is an objective the caller already
  /// holds, φ or φ + move_cost·moves: the search starts as if it held an
  /// incumbent of that objective, prunes against it and keeps only a
  /// placement that beats it. It returns no allocation (feasible = false)
  /// when it finds none; proved_optimal then says that no placement's
  /// objective is below `bound` − kPackingEps. The default +∞ is the
  /// plain search.
  [[nodiscard]] PackingResult pack(
      const std::vector<int>& totals, PackingMode mode, Budget& budget,
      const StabilityOptions* stability = nullptr,
      double bound = std::numeric_limits<double>::infinity()) const;

 private:
  const core::Problem* problem_;
};

}  // namespace mfa::solver
