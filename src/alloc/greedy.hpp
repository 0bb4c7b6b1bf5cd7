// The paper's greedy CU allocator (Algorithm 1), device-aware.
//
// Given the discretized totals N_k, place CUs on FPGAs so that kernels
// consolidate (minimizing spreading) while respecting the per-FPGA caps.
// On heterogeneous platforms every FPGA carries its own device-class
// caps; placement prefers the tightest class first (roomy devices are
// held back for the kernels that need them) and the oversized-kernel
// pre-pass skips devices too small for even one CU instead of failing.
// The heuristic:
//   * allocates critical kernels first (a CU reduction on them hurts II
//     most), re-sorting after each placement;
//   * pre-splits kernels too large for a single FPGA across empty FPGAs
//     (lines 11–21);
//   * then places each kernel entirely on the most occupied FPGA that
//     still fits it (FPGAs sorted by increasing slack, lines 22–32),
//     falling back to a partial placement on the least occupied FPGA
//     (lines 33–36);
//   * on failure relaxes the resource constraint by Δ and retries, up to
//     a maximum deviation T (the Fig. 2 parameter).
//
// Interpretation choices left open by the pseudo-code are recorded in
// DESIGN.md §3.5:
//  * criticality = the II impact of removing one CU,
//    WCET_k/(CU_k−1) − WCET_k/CU_k, with CU_k = 1 infinitely critical
//    ("they should all be allocated");
//  * "resource" means every resource axis plus bandwidth;
//  * the pre-pass uses the current R_c; all state resets per iteration;
//  * the outer loop is do-while (T = 0 still runs one iteration, as the
//    paper's T=0 results imply);
//  * the partial fallback spills across FPGAs from the least occupied
//    onward ("as many CUs as possible starting from the least occupied
//    FPGA");
//  * Algorithm 1 has no failure exit: when CUs remain unplaced at
//    R_c = R+T they are *dropped* and II is computed from the CUs
//    actually placed. This is what makes GP+A sit slightly above MINLP
//    at tight constraints (Figs. 3–5) instead of failing. The only
//    failure mode is a kernel ending with zero CUs (eq. 8).
#pragma once

#include <vector>

#include "core/allocation.hpp"
#include "core/fingerprint.hpp"
#include "core/problem.hpp"
#include "core/sharded_cache.hpp"
#include "support/status.hpp"

namespace mfa::alloc {

/// Memoized outcome of one successful greedy run: the placement matrix
/// plus the scalar diagnostics, with no reference back to the Problem —
/// a hit rebuilds the Allocation against the *caller's* Problem object,
/// so entries can be shared across equal problem instances (portfolio
/// lanes, repeated batch requests) regardless of object identity.
struct GreedyMemo {
  std::vector<int> cu;  ///< n_{k,f}, row-major [kernel][fpga]
  double used_fraction = 0.0;
  int iterations = 0;
  int dropped_cus = 0;
};

/// Thread-safe memoization of greedy placements, keyed by
/// greedy_cache_key(). Same machinery (and determinism contract) as the
/// relaxation cache: a hit is exactly what the thread would have
/// computed itself. Only successes are stored — infeasibility depends on
/// nothing cacheable beyond the same key, but it is rare and cheap to
/// re-prove relative to the placement runs.
using GreedyCache = core::ShardedCache<GreedyMemo>;

struct GreedyOptions {
  /// T — maximum deviation above the initial resource constraint, as a
  /// fraction of platform capacity (Fig. 2 sweeps 0…0.30).
  double t_max = 0.0;
  /// Δ — constraint increment per retry (the paper uses 1 %).
  double delta = 0.01;
  /// Optional shared memoization of placements by (problem, totals,
  /// options) fingerprint. Not owned; may be shared across threads.
  GreedyCache* cache = nullptr;
};

/// Cache key for a greedy run: the relaxation fingerprint (kernels,
/// fleet, effective caps) plus the constraint fractions the allocator
/// reads directly, the requested totals, and the (T, Δ) escalation
/// schedule — every input the placement depends on — and an algorithm
/// tag so entries never alias other caches' keys.
core::Fingerprint greedy_cache_key(const core::Problem& problem,
                                   const std::vector<int>& totals,
                                   const GreedyOptions& options);

struct GreedyResult {
  core::Allocation allocation;
  /// Resource fraction actually used (= problem.resource_fraction when
  /// the first iteration succeeds; larger when T > 0 retries kicked in).
  double used_fraction = 0.0;
  int iterations = 0;    ///< outer-loop iterations executed
  int dropped_cus = 0;   ///< requested CUs that could not be placed
};

class GreedyAllocator {
 public:
  explicit GreedyAllocator(GreedyOptions options = {}) : options_(options) {}

  /// Places up to `totals[k]` CUs of each kernel (leftovers are dropped,
  /// see above). Returns kInfeasible only when some kernel cannot place
  /// a single CU even at R_c = R + T.
  /// Note: with T > 0 the result may exceed problem.cap() — by design;
  /// check against used_fraction. It never exceeds the platform capacity.
  [[nodiscard]] StatusOr<GreedyResult> allocate(
      const core::Problem& problem, const std::vector<int>& totals) const;

 private:
  GreedyOptions options_;
};

}  // namespace mfa::alloc
