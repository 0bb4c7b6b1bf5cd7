#include "alloc/greedy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

namespace mfa::alloc {
namespace {

using core::Allocation;
using core::Kernel;
using core::Problem;
using core::ResourceVec;

/// Mutable per-iteration allocator state over F (possibly mixed) FPGAs.
struct FpgaState {
  ResourceVec slack;
  double slack_bw = 0.0;
  bool touched = false;  ///< any CU placed (line 14's "S_f = R" test)
  int index = 0;         ///< original FPGA id
  ResourceVec cap;       ///< this FPGA's constraint-level resource cap
  double bw_cap = 0.0;   ///< this FPGA's bandwidth cap
};

/// Decreasing criticality: the II impact of removing one CU from the
/// kernel's *target* count (WCET/(N−1) − WCET/N); single-CU kernels are
/// infinitely critical because losing their CU breaks eq. 8. Kernels
/// with nothing left to allocate sort last.
std::vector<std::size_t> sort_kernels(const Problem& p,
                                      const std::vector<int>& targets,
                                      const std::vector<int>& remaining) {
  std::vector<std::size_t> order(remaining.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto criticality = [&](std::size_t k) {
    if (remaining[k] <= 0) return -1.0;
    const double wcet = p.app.kernels[k].wcet_ms;
    const int n = targets[k];
    if (n == 1) return std::numeric_limits<double>::infinity();
    return wcet / (n - 1) - wcet / n;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ca = criticality(a);
                     const double cb = criticality(b);
                     if (ca != cb) return ca > cb;
                     // Ties: bulkier kernels first (harder to place later).
                     return p.app.kernels[a].res.max_axis() >
                            p.app.kernels[b].res.max_axis();
                   });
  return order;
}

/// Scalar slack for "increasing order of resource slack" (line 22):
/// smallest remaining headroom across all axes incl. BW, normalized by
/// the FPGA's own caps so device classes compare fairly.
double slack_key(const FpgaState& s) {
  double key = std::numeric_limits<double>::infinity();
  for (std::size_t axis = 0; axis < core::kNumResources; ++axis) {
    if (s.cap.axis(axis) > 0.0) {
      key = std::min(key, s.slack.axis(axis) / s.cap.axis(axis));
    }
  }
  if (s.bw_cap > 0.0) key = std::min(key, s.slack_bw / s.bw_cap);
  return key;
}

/// Max CUs of kernel `kern` that fit in the given slack.
int fit(const Kernel& kern, const FpgaState& s, int limit) {
  int q = kern.res.max_multiples(s.slack, limit);
  if (kern.bw > 0.0) {
    q = std::min(q, static_cast<int>(std::floor(
                        s.slack_bw * (1.0 + 1e-12) / kern.bw + 1e-9)));
  }
  return std::max(q, 0);
}

bool fits_entirely(const Kernel& kern, int count, const FpgaState& s) {
  return fit(kern, s, count) >= count;
}

/// One allocation attempt at a fixed constraint R_c.
class Attempt {
 public:
  Attempt(const Problem& problem, const std::vector<int>& totals, double rc)
      : p_(problem),
        alloc_(problem),
        targets_(totals),
        remaining_(totals),
        fpgas_(static_cast<std::size_t>(problem.num_fpgas())) {
    for (int f = 0; f < problem.num_fpgas(); ++f) {
      const ResourceVec cap = problem.platform.fpga_capacity(f) * rc;
      const double bw_cap =
          problem.platform.fpga_bw_capacity(f) * problem.bw_fraction;
      fpgas_[static_cast<std::size_t>(f)] = {cap, bw_cap, false, f, cap,
                                             bw_cap};
    }
    // Tightest devices first so consolidation fills small FPGAs before
    // touching roomy ones; stable, so a homogeneous platform keeps its
    // seed index order exactly.
    std::stable_sort(fpgas_.begin(), fpgas_.end(),
                     [](const FpgaState& a, const FpgaState& b) {
                       if (a.cap.max_axis() != b.cap.max_axis()) {
                         return a.cap.max_axis() < b.cap.max_axis();
                       }
                       return a.bw_cap < b.bw_cap;
                     });
  }

  /// Lines 11–21: split kernels too large for one FPGA across untouched
  /// FPGAs, most critical first. Returns false if a single CU of some
  /// kernel fits nowhere (attempt hopeless at this R_c).
  bool prepass() {
    for (std::size_t k : sort_kernels(p_, targets_, remaining_)) {
      const Kernel& kern = p_.app.kernels[k];
      std::size_t f = 0;
      while (remaining_[k] > 0 && f < fpgas_.size()) {
        // "CU_k · R_k > R": the whole kernel does not fit on any one
        // (fresh) FPGA of the fleet.
        if (fits_on_one_fpga(kern, remaining_[k])) break;
        if (!fpgas_[f].touched) {
          const int chunk = fit(kern, fpgas_[f], remaining_[k]);
          if (chunk == 0) {
            // This device class cannot host even one CU; try the next
            // FPGA — only give up if no FPGA at all can host one.
            if (!any_fpga_fits_one(kern)) return false;
            ++f;
            continue;
          }
          place(k, fpgas_[f], chunk);
        } else {
          ++f;
        }
      }
    }
    return true;
  }

  /// Lines 22–37 with the paper's dynamic re-sorting ("after each
  /// allocation of a kernel, either full or partial, the kernels are
  /// sorted in decreasing criticality order"): repeatedly take the most
  /// critical unfinished kernel and place all its remaining CUs on the
  /// most occupied FPGA that fits them (consolidation); when no FPGA
  /// fits the whole kernel, place a single CU instead and re-evaluate.
  /// Criticality of the next CU is its marginal II impact,
  /// WCET/placed − WCET/(placed+1), infinite while placed = 0 — so when
  /// capacity runs out, the unplaced remainder is spread over the
  /// kernels whose II is hurt least.
  /// With `singles_first`, a preliminary round guarantees one CU per
  /// kernel before any full-kernel placement (the eq.-8 fallback).
  void main_pass(bool singles_first, bool consolidate = true) {
    sort_ascending_slack();
    if (singles_first) {
      for (std::size_t k : sort_kernels(p_, targets_, remaining_)) {
        if (remaining_[k] == 0 || alloc_.total_cu(k) > 0) continue;
        place_one(k);
      }
    }
    std::vector<bool> exhausted(p_.num_kernels(), false);
    for (;;) {
      const std::size_t k = most_critical(exhausted);
      if (k == kNone) break;
      if (consolidate && place_full(k)) continue;
      if (place_one(k)) continue;
      exhausted[k] = true;  // not even one CU fits anywhere
    }
  }

  [[nodiscard]] int leftover() const {
    int acc = 0;
    for (int r : remaining_) acc += r;
    return acc;
  }

  [[nodiscard]] bool every_kernel_placed() const {
    for (std::size_t k = 0; k < p_.num_kernels(); ++k) {
      if (alloc_.total_cu(k) == 0) return false;
    }
    return true;
  }

  [[nodiscard]] const Allocation& allocation() const { return alloc_; }
  Allocation take_allocation() { return std::move(alloc_); }

 private:
  void place(std::size_t k, FpgaState& s, int count) {
    MFA_ASSERT(count > 0 && count <= remaining_[k]);
    const Kernel& kern = p_.app.kernels[k];
    alloc_.add_cu(k, s.index, count);
    s.slack -= kern.res * static_cast<double>(count);
    s.slack_bw -= kern.bw * count;
    s.touched = true;
    remaining_[k] -= count;
  }

  void sort_ascending_slack() {
    // Normalized slack first (most occupied first); ties — notably all
    // FPGAs still empty — break toward the tightest device class, so
    // roomy devices are kept free for the kernels that need them.
    std::stable_sort(fpgas_.begin(), fpgas_.end(),
                     [&](const FpgaState& a, const FpgaState& b) {
                       const double ka = slack_key(a);
                       const double kb = slack_key(b);
                       if (ka != kb) return ka < kb;
                       return a.cap.max_axis() < b.cap.max_axis();
                     });
  }

  /// One CU of `kern` fits a fresh FPGA of at least one device class.
  [[nodiscard]] bool any_fpga_fits_one(const Kernel& kern) const {
    for (const FpgaState& s : fpgas_) {
      const FpgaState fresh{s.cap, s.bw_cap, false, 0, s.cap, s.bw_cap};
      if (fit(kern, fresh, 1) >= 1) return true;
    }
    return false;
  }

  /// All `count` CUs of `kern` fit one fresh FPGA of some class.
  [[nodiscard]] bool fits_on_one_fpga(const Kernel& kern, int count) const {
    for (const FpgaState& s : fpgas_) {
      const FpgaState fresh{s.cap, s.bw_cap, false, 0, s.cap, s.bw_cap};
      if (fits_entirely(kern, count, fresh)) return true;
    }
    return false;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// The unfinished, non-exhausted kernel whose next CU matters most.
  /// Kernels with no CU yet are infinitely critical (eq. 8); among them
  /// the target-impact order of sort_kernels decides (single-CU targets
  /// first, then largest WCET/(N−1)−WCET/N). Once placed, a kernel
  /// competes by the marginal impact of its next CU.
  [[nodiscard]] std::size_t most_critical(
      const std::vector<bool>& exhausted) const {
    auto keys = [&](std::size_t k) {
      const double wcet = p_.app.kernels[k].wcet_ms;
      const int placed = alloc_.total_cu(k);
      const double inf = std::numeric_limits<double>::infinity();
      if (placed == 0) {
        const int n = targets_[k];
        const double impact = n == 1 ? inf : wcet / (n - 1) - wcet / n;
        return std::array<double, 3>{inf, impact, wcet};
      }
      const double marginal = wcet / placed - wcet / (placed + 1);
      return std::array<double, 3>{marginal, wcet, 0.0};
    };
    std::size_t best = kNone;
    std::array<double, 3> best_keys{-1.0, -1.0, -1.0};
    for (std::size_t k = 0; k < p_.num_kernels(); ++k) {
      if (remaining_[k] == 0 || exhausted[k]) continue;
      const std::array<double, 3> cand = keys(k);
      if (best == kNone || cand > best_keys) {
        best = k;
        best_keys = cand;
      }
    }
    return best;
  }

  /// Places all remaining CUs of kernel k on the most occupied FPGA that
  /// fits them entirely. Re-sorts FPGAs on success (line 37).
  bool place_full(std::size_t k) {
    const Kernel& kern = p_.app.kernels[k];
    for (FpgaState& s : fpgas_) {
      if (fits_entirely(kern, remaining_[k], s)) {
        place(k, s, remaining_[k]);
        sort_ascending_slack();
        return true;
      }
    }
    return false;
  }

  /// Places one CU of kernel k on the most occupied FPGA with room.
  bool place_one(std::size_t k) {
    const Kernel& kern = p_.app.kernels[k];
    for (FpgaState& s : fpgas_) {
      if (fit(kern, s, 1) >= 1) {
        place(k, s, 1);
        sort_ascending_slack();
        return true;
      }
    }
    return false;
  }

  const Problem& p_;
  Allocation alloc_;
  std::vector<int> targets_;
  std::vector<int> remaining_;
  std::vector<FpgaState> fpgas_;
};

/// Flattens a finished attempt into the POD memo form.
GreedyMemo to_memo(const Allocation& alloc, double used_fraction,
                   int iterations, int dropped_cus) {
  GreedyMemo memo;
  memo.cu.resize(alloc.num_kernels() *
                 static_cast<std::size_t>(alloc.num_fpgas()));
  for (std::size_t k = 0; k < alloc.num_kernels(); ++k) {
    for (int f = 0; f < alloc.num_fpgas(); ++f) {
      memo.cu[k * static_cast<std::size_t>(alloc.num_fpgas()) +
              static_cast<std::size_t>(f)] = alloc.cu(k, f);
    }
  }
  memo.used_fraction = used_fraction;
  memo.iterations = iterations;
  memo.dropped_cus = dropped_cus;
  return memo;
}

/// Rebuilds a GreedyResult against the caller's Problem from a memo.
GreedyResult from_memo(const Problem& problem, const GreedyMemo& memo) {
  GreedyResult result{Allocation(problem), memo.used_fraction,
                      memo.iterations, memo.dropped_cus};
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    for (int f = 0; f < problem.num_fpgas(); ++f) {
      result.allocation.set_cu(
          k, f,
          memo.cu[k * static_cast<std::size_t>(problem.num_fpgas()) +
                  static_cast<std::size_t>(f)]);
    }
  }
  return result;
}

}  // namespace

core::Fingerprint greedy_cache_key(const core::Problem& problem,
                                   const std::vector<int>& totals,
                                   const GreedyOptions& options) {
  core::Fingerprint key = core::relaxation_fingerprint(problem);
  // The relaxation fingerprint hashes the *effective* caps; the greedy
  // escalation additionally reads the fractions themselves (R_c starts
  // at resource_fraction and climbs against the full platform caps).
  key.mix(problem.resource_fraction);
  key.mix(problem.bw_fraction);
  key.mix(static_cast<std::uint64_t>(totals.size()));
  for (int n : totals) key.mix(static_cast<std::uint64_t>(n));
  key.mix(options.t_max);
  key.mix(options.delta);
  key.mix(std::uint64_t{0x92eed1});  // algorithm tag: greedy placement
  return key;
}

StatusOr<GreedyResult> GreedyAllocator::allocate(
    const Problem& problem, const std::vector<int>& totals) const {
  MFA_ASSERT(totals.size() == problem.num_kernels());
  for (int n : totals) {
    MFA_ASSERT_MSG(n >= 1, "allocator needs at least one CU per kernel");
  }

  // Memoized replay: identical (problem, totals, options) runs repeat
  // constantly — every portfolio lane places the same discretized
  // totals — so a hit skips the whole escalation loop. The memo stores no Problem reference; the
  // allocation is rebuilt against *this* problem.
  core::Fingerprint memo_key;
  if (options_.cache != nullptr) {
    memo_key = greedy_cache_key(problem, totals, options_);
    if (auto hit = options_.cache->lookup(memo_key)) {
      return from_memo(problem, *hit);
    }
  }

  const double r0 = problem.resource_fraction;
  const double r_max = std::min(r0 + options_.t_max, 1.0);
  const double delta = options_.delta > 0.0 ? options_.delta : 1.0;

  double rc = std::min(r0, 1.0);
  int iterations = 0;
  for (;;) {
    ++iterations;

    // Faithful kernel-wise Algorithm 1 first (consolidating, with the
    // oversized-kernel pre-pass); if it leaves a kernel empty or drops
    // CUs, try the eq.-8 fallback (one CU per kernel first) and the pure
    // marginal CU-by-CU variant, and keep the best attempt of the
    // iteration: all kernels placed > nothing dropped > lowest II >
    // lowest spreading.
    std::vector<Attempt> attempts;
    attempts.reserve(3);
    {
      Attempt primary(problem, totals, rc);
      if (primary.prepass()) {
        primary.main_pass(/*singles_first=*/false);
        attempts.push_back(std::move(primary));
      }
    }
    if (attempts.empty() || attempts.front().leftover() > 0 ||
        !attempts.front().every_kernel_placed()) {
      Attempt fallback(problem, totals, rc);
      if (fallback.prepass()) {
        fallback.main_pass(/*singles_first=*/true);
        attempts.push_back(std::move(fallback));
      }
      Attempt marginal(problem, totals, rc);
      marginal.main_pass(/*singles_first=*/true, /*consolidate=*/false);
      attempts.push_back(std::move(marginal));
    }

    Attempt* best = nullptr;
    auto score = [](const Attempt& a) {
      return std::array<double, 4>{a.every_kernel_placed() ? 0.0 : 1.0,
                                   a.leftover() > 0 ? 1.0 : 0.0,
                                   a.allocation().ii(),
                                   a.allocation().phi()};
    };
    for (Attempt& a : attempts) {
      if (best == nullptr || score(a) < score(*best)) best = &a;
    }

    if (best != nullptr && best->leftover() == 0) {
      GreedyResult result{best->take_allocation(), rc, iterations, 0};
      if (options_.cache != nullptr) {
        options_.cache->insert(memo_key,
                               to_memo(result.allocation, rc, iterations, 0));
      }
      return result;
    }

    if (rc >= r_max - 1e-12) {
      // Budget exhausted: Algorithm 1 has no failure exit — the partial
      // allocation stands and unplaced CUs are dropped, unless a kernel
      // ended without any CU (eq. 8).
      if (best != nullptr && best->every_kernel_placed()) {
        const int dropped = best->leftover();
        GreedyResult result{best->take_allocation(), rc, iterations,
                            dropped};
        if (options_.cache != nullptr) {
          options_.cache->insert(
              memo_key, to_memo(result.allocation, rc, iterations, dropped));
        }
        return result;
      }
      return Status{Code::kInfeasible,
                    "a kernel cannot place a single CU for any R_c in "
                    "[R, R+T]"};
    }
    // Line 39: relax the constraint and retry.
    rc = std::min(rc + delta, r_max);
  }
}

}  // namespace mfa::alloc
