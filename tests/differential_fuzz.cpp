// Differential fuzzing over the seeded scenario generator.
//
// For each seed a random pipeline × (possibly mixed-class) platform is
// generated and pushed through every solver path, cross-checking:
//
//  1. exact == naive — the structured exact solver (candidate-II
//     enumeration + within-class symmetry-broken packing) agrees with
//     the transformation-free naive branch-and-bound on the optimal
//     goal, and both agree on feasibility;
//  2. GP+A soundness — when the heuristic returns, its allocation is
//     feasible at the constraint it reports (used_fraction) and never
//     beats the proved exact optimum II (β = 0 lanes);
//  3. relaxation bound — the continuous relaxation never exceeds the
//     exact optimum II;
//  4. GP-step reference — the interior-point relaxation
//     (core::solve_relaxation_gp, the paper's GPkit step) and the exact
//     bisection every production path uses agree on feasibility and on
//     ÎI within 1e-6 relative. Runs on every seed, before the
//     exact/naive budget checks can skip it.
//
//  5. stability oracle — the migration-aware packing search against a
//     reference placement: zero budgets must reproduce the reference
//     bit-exactly, unlimited budgets must match the unconstrained
//     optimum φ, seeded hard budgets must be respected by the reported
//     counters (and those counters must match a recount from the
//     returned allocation), and a soft move cost must never do worse
//     than the free stay-put option.
//
//  6. patched-bounds parity — the discretizer's in-place bound-patching
//     branch-and-bound reproduces the explicit-stack oracle
//     (tests/oracles/stack_discretize.hpp) bit for bit: node counts,
//     incumbent, root relaxation, optimality provenance and (when
//     sharing a relaxation cache) the hit/miss trace, with and without
//     a cache and under node caps.
//
//  7. packing parity — solver::PackingSolver reproduces the reference
//     search (tests/oracles/reference_packing.hpp) node for node: both
//     modes, with and without a stability reference, uncapped and under
//     node caps that abort mid-search; every PackingResult field and the
//     Budget's node count must be identical.
//
// Usage: differential_fuzz [num_seeds] [--start S] [--out failure.json]
//                          [--stability] [--patched-bounds]
//                          [--packing-parity]
//
// --stability runs only check 5, --patched-bounds only check 6 and
// --packing-parity only check 7 (no exact/naive oracles); all three are
// cheap enough for wide ctest slices across heterogeneous platforms.
//
// On mismatch it prints the seed and the scenario JSON to stderr, writes
// the scenario to --out (CI uploads it as an artifact) and exits 1.
// Budget-capped (unproved) exact/naive results are skipped, not failed.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "alloc/gpa.hpp"
#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"
#include "io/serialize.hpp"
#include "oracles/reference_packing.hpp"
#include "oracles/stack_discretize.hpp"
#include "scenario/generate.hpp"
#include "solver/candidates.hpp"
#include "solver/discretize.hpp"
#include "solver/exact.hpp"
#include "solver/naive.hpp"
#include "solver/packing.hpp"

namespace {

struct Options {
  std::uint64_t start = 0;
  std::uint64_t count = 200;
  const char* out_path = nullptr;
  bool stability_only = false;
  bool patched_bounds_only = false;
  bool packing_parity_only = false;
};

/// Scenario shape small enough for the naive oracle to *prove* optima
/// within its node budget on every seed.
mfa::scenario::ScenarioSpec fuzz_spec() {
  mfa::scenario::ScenarioSpec spec;
  spec.min_kernels = 2;
  spec.max_kernels = 4;
  spec.min_fpgas = 2;
  spec.max_fpgas = 3;
  spec.max_classes = 2;
  spec.class_skew = 0.4;
  spec.tightness = 0.8;
  spec.max_cu_per_kernel = 3;
  return spec;
}

/// Check 7's scenarios: more kernels and FPGAs than fuzz_spec, so that
/// some searches run past the 1,024-node batches in which PackingSolver
/// charges its Budget.
mfa::scenario::ScenarioSpec packing_spec() {
  mfa::scenario::ScenarioSpec spec;
  spec.min_kernels = 3;
  spec.max_kernels = 6;
  spec.min_fpgas = 2;
  spec.max_fpgas = 5;
  spec.max_classes = 3;
  spec.class_skew = 0.4;
  spec.tightness = 0.8;
  spec.max_cu_per_kernel = 4;
  return spec;
}

void report_failure(std::uint64_t seed, const mfa::core::Problem& problem,
                    const Options& opt, const char* what) {
  const std::string json = mfa::io::to_json(problem).dump(2) + "\n";
  std::fprintf(stderr, "\nFAIL seed %" PRIu64 ": %s\n", seed, what);
  std::fprintf(stderr, "scenario:\n%s", json.c_str());
  if (opt.out_path != nullptr) {
    mfa::io::Json doc = mfa::io::Json::object();
    doc.set("seed", mfa::io::Json::number(static_cast<double>(seed)));
    doc.set("mismatch", mfa::io::Json::string(what));
    doc.set("problem", mfa::io::to_json(problem));
    const mfa::Status st =
        mfa::io::write_file(opt.out_path, doc.dump(2) + "\n");
    if (!st.is_ok()) {
      std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
    }
  }
}

/// Check 4: the interior-point GP reference against the bisection (see
/// file comment). Both must prove the same relaxation infeasible, or
/// land on the same ÎI within 1e-6 relative.
const char* check_gp_reference(const mfa::core::Problem& problem) {
  const auto gp = mfa::core::solve_relaxation_gp(problem);
  const auto exact = mfa::core::solve_relaxation(problem);
  if (!exact.is_ok()) {
    return gp.status().code() == exact.status().code()
               ? nullptr
               : "GP reference and bisection disagree on relaxation "
                 "feasibility";
  }
  if (!gp.is_ok()) {
    return "GP reference failed on a feasible relaxation";
  }
  const double rel =
      std::abs(gp.value().ii - exact.value().ii) / exact.value().ii;
  if (rel > 1e-6) {
    std::fprintf(stderr, "relaxed II: GP %.12g bisection %.12g (rel %.3g)\n",
                 gp.value().ii, exact.value().ii, rel);
    return "GP reference relaxed II differs from the bisection beyond 1e-6";
  }
  return nullptr;
}

/// Check 6: the discretizer's in-place bound-patching B&B vs the
/// explicit-stack oracle it replaced, both with the parent-ÎI node hints
/// Discretizer uses. The claim is *bit-for-bit* reproduction, not
/// tolerance-level: node count, incumbent totals/ÎI, the root relaxation
/// and the optimality provenance must all be identical, with and
/// without a shared relaxation cache — and when caches are used, both
/// must produce the same hit/miss trace. A tiny node cap on a third run
/// checks the abort path counts nodes identically too.
const char* check_patched_bounds(const mfa::core::Problem& problem,
                                 std::uint64_t seed) {
  using mfa::solver::DiscretizeResult;

  const auto compare =
      [](const mfa::StatusOr<DiscretizeResult>& stack,
         const mfa::StatusOr<DiscretizeResult>& patched) -> const char* {
    if (stack.is_ok() != patched.is_ok()) {
      return "patched-bounds search disagrees with the stack oracle on "
             "status";
    }
    if (!stack.is_ok()) {
      if (stack.status().code() != patched.status().code()) {
        return "patched-bounds search fails with a different status code";
      }
      return nullptr;
    }
    const DiscretizeResult& a = stack.value();
    const DiscretizeResult& b = patched.value();
    if (a.nodes != b.nodes) return "patched-bounds node count differs";
    if (a.totals != b.totals) return "patched-bounds incumbent differs";
    if (a.ii != b.ii || a.relaxed_ii != b.relaxed_ii) {
      return "patched-bounds II is not bit-identical";
    }
    if (a.proved_optimal != b.proved_optimal) {
      return "patched-bounds optimality provenance differs";
    }
    return nullptr;
  };
  const auto both = [&](const mfa::solver::DiscretizeOptions& stack_opts,
                        const mfa::solver::DiscretizeOptions& patched_opts) {
    return compare(mfa::oracles::stack_discretize(problem, stack_opts),
                   mfa::solver::Discretizer(patched_opts).run(problem));
  };

  // Cacheless runs.
  mfa::solver::DiscretizeOptions stack_opts;
  mfa::solver::DiscretizeOptions patched_opts;
  if (const char* mismatch = both(stack_opts, patched_opts)) return mismatch;

  // One private cache per search: results and the hit/miss trace must
  // both line up.
  mfa::core::RelaxationCache stack_cache;
  mfa::core::RelaxationCache patched_cache;
  stack_opts.cache = &stack_cache;
  patched_opts.cache = &patched_cache;
  if (const char* mismatch = both(stack_opts, patched_opts)) return mismatch;
  const auto stack_stats = stack_cache.stats();
  const auto patched_stats = patched_cache.stats();
  if (stack_stats.hits != patched_stats.hits ||
      stack_stats.misses != patched_stats.misses) {
    std::fprintf(stderr,
                 "cache trace: stack %llu/%llu patched %llu/%llu "
                 "(hits/misses)\n",
                 static_cast<unsigned long long>(stack_stats.hits),
                 static_cast<unsigned long long>(stack_stats.misses),
                 static_cast<unsigned long long>(patched_stats.hits),
                 static_cast<unsigned long long>(patched_stats.misses));
    return "patched-bounds cache hit/miss trace differs from the oracle";
  }

  // Abort parity under a tiny node cap (cacheless, so the cap binds).
  stack_opts.cache = nullptr;
  patched_opts.cache = nullptr;
  stack_opts.max_nodes = 1 + static_cast<std::int64_t>(seed % 7);
  patched_opts.max_nodes = stack_opts.max_nodes;
  return both(stack_opts, patched_opts);
}

/// Check 7: PackingSolver against the reference search it replaced.
/// At four candidate IIs (the first, the last and two between) both
/// searches pack the minimal totals in both modes, three ways: without
/// stability, under hard move/disturbance budgets against a seeded
/// reference, and with a soft move cost against it. Each runs uncapped,
/// then under two node caps that abort it mid-search: half its node
/// count and a seeded cap of 0-6. Results must agree field for field, φ
/// bit for bit, and both Budgets must report the same node count.
const char* check_packing_parity(const mfa::core::Problem& problem,
                                 std::uint64_t seed) {
  using mfa::solver::Budget;
  using mfa::solver::PackingMode;
  using mfa::solver::PackingResult;
  using mfa::solver::StabilityOptions;

  const std::size_t kernels = problem.num_kernels();
  const auto fpgas = static_cast<std::size_t>(problem.num_fpgas());
  // A seeded incumbent: rows of 0-2 CUs per FPGA, every third kernel a
  // new arrival (empty row), and on odd seeds one FPGA more than the
  // fleet (the pool shrank under the reference).
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> cus(0, 2);
  StabilityOptions budgets;
  budgets.reference.resize(kernels);
  budgets.group_of.resize(kernels);
  for (std::size_t k = 0; k < kernels; ++k) {
    budgets.group_of[k] = static_cast<int>(k % 3);
    if (k % 3 == 2) continue;
    for (std::size_t f = 0; f < fpgas + seed % 2; ++f) {
      budgets.reference[k].push_back(cus(rng));
    }
  }
  budgets.exempt_group = static_cast<int>(seed % 4) - 1;
  budgets.max_moves = static_cast<int>(seed % 5);
  budgets.max_disturbed = static_cast<int>(seed % 3);
  StabilityOptions soft = budgets;
  soft.max_moves = -1;
  soft.max_disturbed = -1;
  soft.move_cost = 0.25;

  const auto same = [](const PackingResult& a,
                       const PackingResult& b) -> const char* {
    if (a.feasible != b.feasible) return "packing feasibility differs";
    if (a.proved_optimal != b.proved_optimal) {
      return "packing optimality provenance differs";
    }
    if (std::memcmp(&a.phi, &b.phi, sizeof a.phi) != 0) {
      return "packing phi is not bit-identical";
    }
    if (a.cus_moved != b.cus_moved || a.disturbed != b.disturbed) {
      return "packing stability counters differ";
    }
    if (a.allocation.has_value() != b.allocation.has_value()) {
      return "packing allocation presence differs";
    }
    if (a.allocation) {
      for (std::size_t k = 0; k < a.allocation->num_kernels(); ++k) {
        for (int f = 0; f < a.allocation->num_fpgas(); ++f) {
          if (a.allocation->cu(k, f) != b.allocation->cu(k, f)) {
            return "packing allocation rows differ";
          }
        }
      }
    }
    return nullptr;
  };

  const StabilityOptions* const stabilities[] = {nullptr, &budgets, &soft};
  const mfa::solver::PackingSolver packer(problem);
  const std::vector<double> candidates = mfa::solver::candidate_iis(problem);
  const std::size_t last = candidates.size() - 1;
  for (const std::size_t idx :
       {std::size_t{0}, last / 3, 2 * last / 3, last}) {
    const std::vector<int> totals =
        mfa::solver::minimal_totals(problem, candidates[idx]);
    for (const PackingMode mode :
         {PackingMode::kFeasibility, PackingMode::kMinSpreading}) {
      for (const StabilityOptions* stab : stabilities) {
        // run() sets it to the node count the reference charged.
        std::int64_t nodes = 0;
        const auto run = [&](const Budget& start) -> const char* {
          Budget reference_budget = start;
          Budget budget = start;
          const PackingResult want = mfa::oracles::reference_pack(
              problem, totals, mode, reference_budget, stab);
          const PackingResult got = packer.pack(totals, mode, budget, stab);
          nodes = reference_budget.nodes_used();
          if (const char* mismatch = same(want, got)) return mismatch;
          if (nodes != budget.nodes_used()) {
            std::fprintf(stderr, "nodes: reference %lld packing %lld\n",
                         static_cast<long long>(nodes),
                         static_cast<long long>(budget.nodes_used()));
            return "packing charged its Budget a different node count";
          }
          return nullptr;
        };
        const char* mismatch = run(Budget());
        std::int64_t cap = -1;
        if (mismatch == nullptr) {
          cap = nodes / 2;
          mismatch = run(Budget::nodes_only(cap));
        }
        if (mismatch == nullptr) {
          cap = static_cast<std::int64_t>(seed % 7);
          mismatch = run(Budget::nodes_only(cap));
        }
        if (mismatch != nullptr) {
          std::fprintf(stderr,
                       "candidate II %.9g (index %zu), %s, stability %s, "
                       "node cap %lld\n",
                       candidates[idx], idx,
                       mode == PackingMode::kFeasibility ? "feasibility"
                                                         : "min-spreading",
                       stab == nullptr         ? "off"
                       : stab->move_cost > 0.0 ? "soft cost"
                                               : "hard budgets",
                       static_cast<long long>(cap));
          return mismatch;
        }
      }
    }
  }
  return nullptr;
}

/// Migration-aware packing oracle (see file comment, check 5). The
/// reference placement is GP+A's own allocation of the seed — a
/// realistic incumbent the budgets can always fall back to, which makes
/// every property below unconditional:
///  * zero budgets reproduce the reference bit-exactly (staying put is
///    the only in-budget placement, and it is feasible);
///  * budgeted packs are feasible whenever the zero-budget one is (the
///    reference itself fits any non-negative budget) and their reported
///    moved/disturbed counters respect the budgets *and* match a
///    recount from the returned allocation;
///  * unlimited budgets match the unconstrained optimum φ (the
///    constrained search machinery must not change what it finds, only
///    what it may visit — this also exercises the symmetry-breaking
///    handoff);
///  * a soft move cost never does worse than the free stay-put option:
///    φ(packed) + c·moves(packed) ≤ φ(reference).
const char* check_stability(const mfa::core::Problem& problem,
                            std::uint64_t seed) {
  mfa::alloc::GpaOptions gpa_options;
  gpa_options.greedy.t_max = 0.2;
  const auto gpa = mfa::alloc::GpaSolver(gpa_options).solve(problem);
  if (!gpa.is_ok()) return nullptr;  // nothing placed, nothing to keep
  mfa::core::Problem used = problem;
  used.resource_fraction = gpa.value().used_fraction;
  const mfa::core::Allocation& base = gpa.value().allocation;
  const std::size_t kernels = base.num_kernels();
  const int fpgas = base.num_fpgas();

  std::vector<int> totals(kernels, 0);
  mfa::solver::StabilityOptions stab;
  stab.reference.resize(kernels);
  stab.group_of.resize(kernels);
  for (std::size_t k = 0; k < kernels; ++k) {
    totals[k] = base.total_cu(k);
    stab.group_of[k] = static_cast<int>(k);
    for (int f = 0; f < fpgas; ++f) {
      stab.reference[k].push_back(base.cu(k, f));
    }
  }
  const double base_phi = base.phi();
  const mfa::solver::PackingSolver packer(used);
  const auto pack = [&](const mfa::solver::StabilityOptions* s) {
    mfa::solver::Budget budget = mfa::solver::Budget::nodes_only(2'000'000);
    return packer.pack(totals, mfa::solver::PackingMode::kMinSpreading,
                       budget, s);
  };

  const mfa::solver::PackingResult unconstrained = pack(nullptr);
  if (!unconstrained.feasible) {
    return "packing lost a placement the heuristic proved feasible";
  }

  // Zero budgets: the search may only return the reference itself.
  stab.max_moves = 0;
  stab.max_disturbed = 0;
  const mfa::solver::PackingResult frozen = pack(&stab);
  if (!frozen.feasible || !frozen.allocation) {
    return "zero-budget pack failed to reproduce the reference placement";
  }
  for (std::size_t k = 0; k < kernels; ++k) {
    for (int f = 0; f < fpgas; ++f) {
      if (frozen.allocation->cu(k, f) != base.cu(k, f)) {
        return "zero-budget pack moved a CU off the reference";
      }
    }
  }
  if (frozen.cus_moved != 0 || frozen.disturbed != 0 ||
      std::abs(frozen.phi - base_phi) > 1e-9) {
    return "zero-budget pack misreported its own diff";
  }

  // Unlimited budgets: same optimum as the unconstrained search.
  stab.max_moves = 1 << 29;
  stab.max_disturbed = 1 << 29;
  const mfa::solver::PackingResult roomy = pack(&stab);
  if (!roomy.feasible) {
    return "generous-budget pack lost a feasible placement";
  }
  if (roomy.proved_optimal && unconstrained.proved_optimal &&
      std::abs(roomy.phi - unconstrained.phi) >
          1e-9 * (1.0 + std::abs(unconstrained.phi))) {
    return "generous-budget pack found a different optimum phi";
  }

  // Seeded hard budgets: reported counters within budget and equal to a
  // recount from the returned allocation.
  stab.max_moves = static_cast<int>(seed % 3);
  stab.max_disturbed = static_cast<int>(seed % 2);
  const mfa::solver::PackingResult budgeted = pack(&stab);
  if (!budgeted.feasible || !budgeted.allocation) {
    return "budgeted pack infeasible though the reference is in budget";
  }
  int torn = 0;
  int disturbed = 0;
  for (std::size_t k = 0; k < kernels; ++k) {
    bool changed = false;
    for (int f = 0; f < fpgas; ++f) {
      const int old_n = base.cu(k, f);
      const int new_n = budgeted.allocation->cu(k, f);
      if (old_n != new_n) changed = true;
      if (old_n > new_n) torn += old_n - new_n;
    }
    if (changed) ++disturbed;
  }
  if (torn != budgeted.cus_moved || disturbed != budgeted.disturbed) {
    return "budgeted pack's reported diff disagrees with a recount";
  }
  if (budgeted.cus_moved > stab.max_moves ||
      budgeted.disturbed > stab.max_disturbed) {
    return "budgeted pack violated its own hard budgets";
  }

  // Soft move cost: staying put costs phi(reference), so the optimizer
  // can never return anything strictly worse than that.
  stab.max_moves = -1;
  stab.max_disturbed = -1;
  stab.move_cost = 0.25;
  const mfa::solver::PackingResult soft = pack(&stab);
  if (!soft.feasible) return "soft-cost pack lost a feasible placement";
  if (soft.proved_optimal &&
      soft.phi + stab.move_cost * soft.cus_moved >
          base_phi + 1e-9 * (1.0 + base_phi)) {
    return "soft-cost pack did worse than the free stay-put option";
  }

  return nullptr;
}

/// Runs all solvers on one scenario; returns nullptr on agreement, else
/// a static description of the first mismatch. Sets *feasible when the
/// instance's feasibility was decided.
const char* check_seed(const mfa::core::Problem& problem, bool* feasible) {
  // The GP-step reference runs first: the budget skips below must not
  // hide it.
  if (const char* mismatch = check_gp_reference(problem)) return mismatch;

  // Exact (structured) vs naive (oracle) on the full objective.
  mfa::solver::ExactOptions exact_options;
  exact_options.max_nodes = 20'000'000;
  exact_options.max_seconds = 60.0;
  auto exact = mfa::solver::ExactSolver(exact_options).solve(problem);
  mfa::solver::NaiveMinlp naive(mfa::solver::Budget::nodes_only(50'000'000));
  auto oracle = naive.solve(problem);

  const bool exact_capped =
      !exact.is_ok() && exact.status().code() == mfa::Code::kLimit;
  const bool oracle_capped =
      !oracle.is_ok() && oracle.status().code() == mfa::Code::kLimit;
  if (exact_capped || oracle_capped) return nullptr;  // skip, don't fail

  if (exact.is_ok() != oracle.is_ok()) {
    return "exact and naive disagree on feasibility";
  }
  *feasible = exact.is_ok();
  if (exact.is_ok()) {
    if (!exact.value().proved_optimal || !oracle.value().proved_optimal) {
      return nullptr;  // a budget-capped incumbent proves nothing
    }
    const double g_exact = exact.value().goal;
    const double g_naive = oracle.value().goal;
    if (std::abs(g_exact - g_naive) > 1e-6 * (1.0 + std::abs(g_naive))) {
      std::fprintf(stderr, "exact goal %.9f:\n%s", g_exact,
                   exact.value().allocation.to_string().c_str());
      std::fprintf(stderr, "naive goal %.9f:\n%s", g_naive,
                   oracle.value().allocation.to_string().c_str());
      return "exact and naive optima differ";
    }
    if (!exact.value().allocation.feasible()) {
      return "exact allocation violates its own constraints";
    }
  }

  // GP+A: must be sound whenever it returns.
  mfa::alloc::GpaOptions gpa_options;
  gpa_options.greedy.t_max = 0.2;  // allow the paper's constraint slack
  auto gpa = mfa::alloc::GpaSolver(gpa_options).solve(problem);
  if (gpa.is_ok()) {
    // Feasibility at the fraction the allocator actually used.
    mfa::core::Problem used = problem;
    used.resource_fraction = gpa.value().used_fraction;
    mfa::core::Allocation check(used);
    const mfa::core::Allocation& a = gpa.value().allocation;
    for (std::size_t k = 0; k < a.num_kernels(); ++k) {
      for (int f = 0; f < a.num_fpgas(); ++f) {
        check.set_cu(k, f, a.cu(k, f));
      }
    }
    if (!check.feasible()) {
      return "GP+A allocation infeasible at its reported used_fraction";
    }
    // When GP+A stayed within the original constraint, its allocation
    // is feasible for the exact model too, so it cannot beat a proved
    // optimum of the *full* goal α·II + β·φ (II alone would be the
    // wrong comparison for β > 0: the optimum trades II for φ).
    if (exact.is_ok() && exact.value().proved_optimal &&
        gpa.value().used_fraction <= problem.resource_fraction + 1e-12 &&
        a.goal() < exact.value().goal * (1.0 - 1e-9) - 1e-12) {
      return "GP+A beat the proved exact optimum goal without extra budget";
    }
  }

  // Relaxation lower bound.
  if (exact.is_ok() && exact.value().proved_optimal) {
    auto relax = mfa::core::solve_relaxation(problem);
    if (!relax.is_ok()) {
      return "integer-feasible instance with infeasible relaxation";
    }
    if (relax.value().ii > exact.value().ii * (1.0 + 1e-9)) {
      return "relaxation exceeds the exact optimum II";
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      opt.start = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--stability") == 0) {
      opt.stability_only = true;
    } else if (std::strcmp(argv[i], "--patched-bounds") == 0) {
      opt.patched_bounds_only = true;
    } else if (std::strcmp(argv[i], "--packing-parity") == 0) {
      opt.packing_parity_only = true;
    } else if (argv[i][0] != '-') {
      opt.count = std::strtoull(argv[i], nullptr, 10);
      if (opt.count == 0) {
        std::fprintf(stderr, "bad seed count '%s'\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [num_seeds] [--start S] [--out failure.json]"
                   " [--stability] [--patched-bounds]"
                   " [--packing-parity]\n",
                   argv[0]);
      return 2;
    }
  }

  const mfa::scenario::ScenarioSpec spec =
      opt.packing_parity_only ? packing_spec() : fuzz_spec();
  std::uint64_t checked = 0;
  std::uint64_t infeasible = 0;
  for (std::uint64_t seed = opt.start; seed < opt.start + opt.count; ++seed) {
    const mfa::core::Problem problem = mfa::scenario::generate(spec, seed);
    bool feasible = true;
    const char* mismatch = nullptr;
    if (opt.stability_only) {
      mismatch = check_stability(problem, seed);
    } else if (opt.patched_bounds_only) {
      mismatch = check_patched_bounds(problem, seed);
    } else if (opt.packing_parity_only) {
      mismatch = check_packing_parity(problem, seed);
    } else {
      mismatch = check_seed(problem, &feasible);
    }
    if (mismatch != nullptr) {
      report_failure(seed, problem, opt, mismatch);
      return 1;
    }
    ++checked;
    if (!feasible) ++infeasible;
    if (checked % 50 == 0) {
      std::printf("  %" PRIu64 "/%" PRIu64 " seeds ok\n", checked, opt.count);
      std::fflush(stdout);
    }
  }
  std::printf("differential fuzz%s: %" PRIu64 " seeds ok\n",
              opt.stability_only        ? " (stability)"
              : opt.patched_bounds_only ? " (patched bounds)"
              : opt.packing_parity_only ? " (packing parity)"
                                        : "",
              checked);
  if (!opt.stability_only && !opt.patched_bounds_only &&
      !opt.packing_parity_only) {
    std::printf("(%" PRIu64 " infeasible instances exercised)\n", infeasible);
  }
  return 0;
}
