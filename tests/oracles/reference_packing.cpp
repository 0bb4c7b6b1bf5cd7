#include "oracles/reference_packing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

namespace mfa::oracles {
namespace {

using core::Allocation;
using core::Kernel;
using core::Problem;
using core::ResourceVec;
using solver::Budget;
using solver::PackingMode;
using solver::PackingResult;
using solver::phi_lower_bound;
using solver::StabilityOptions;

constexpr double kEps = 1e-9;

// The capacity-count bounds' constants, as in solver/packing.cpp.
constexpr std::size_t kAxes = core::kNumResources + 1;
constexpr double kRoomSlack = 1e-6;
constexpr double kMaxRoom = 1 << 30;

double phi_of(int n) { return static_cast<double>(n) / (1.0 + n); }

/// Whole blocks of size θ that `slack` can hold, rounded up generously:
/// ⌊slack·(1 + 1e-6)/θ⌋, and 0 for a negative slack.
int room(double slack, double theta) {
  return static_cast<int>(
      std::max(0.0, std::floor(slack * ((1.0 + kRoomSlack) / theta))));
}

/// Depth-first packing search over one problem instance.
class Search {
 public:
  Search(const Problem& problem, const std::vector<int>& totals,
         PackingMode mode, Budget& budget,
         const StabilityOptions* stability, CountBounds bounds, double bound)
      : p_(problem),
        totals_(totals),
        mode_(mode),
        budget_(budget),
        stab_(stability),
        bounds_(bounds == CountBounds::kOn),
        fpgas_(static_cast<std::size_t>(problem.num_fpgas())),
        counts_(totals.size(),
                std::vector<int>(fpgas_, 0)),
        fpga_class_(fpgas_, 0),
        fpga_load_(fpgas_, 0),
        best_obj_(bound) {
    if (stab_ != nullptr) {
      int groups = 1;
      for (const int g : stab_->group_of) groups = std::max(groups, g + 1);
      group_changed_.assign(static_cast<std::size_t>(groups), 0);
      // A positive move cost changes the objective away from pure φ, so
      // the static-φ early stop below no longer proves optimality.
      stop_on_static_lb_ = stab_->move_cost <= 0.0;
      // A reference placement makes otherwise-identical FPGAs
      // distinguishable (torn CUs depend on *which* device a CU leaves),
      // so the within-class symmetry clamp would wrongly prune e.g. the
      // reference itself when its rows are not in canonical order. Only
      // an active budget or move cost actually reads the reference.
      symmetric_ = stab_->max_moves < 0 && stab_->max_disturbed < 0 &&
                   stab_->move_cost <= 0.0;
    }
    slack_res_.reserve(fpgas_);
    slack_bw_.reserve(fpgas_);
    for (std::size_t f = 0; f < fpgas_; ++f) {
      const int fi = static_cast<int>(f);
      slack_res_.push_back(problem.cap(fi));
      slack_bw_.push_back(problem.bw_cap(fi));
      fpga_class_[f] = problem.platform.class_index(fi);
    }
    // Hardest kernels first: largest single-axis share of one FPGA.
    order_.resize(totals.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return demand_score(a) > demand_score(b);
    });
    // The optimum can never beat the capacity-forced spreading bound.
    for (std::size_t k = 0; k < totals.size(); ++k) {
      static_lb_ = std::max(static_lb_,
                            phi_lower_bound(problem, k, totals[k]));
    }
  }

  PackingResult run() {
    PackingResult result;
    if (!pooled_feasible() || (bounds_ && !pair_bound_holds())) {
      result.feasible = false;
      result.proved_optimal = true;
      return result;
    }
    assign_kernel(0, 0.0);
    result.feasible = found_;
    result.proved_optimal = !aborted_;
    if (found_) {
      result.phi = best_phi_;
      result.cus_moved = best_moves_;
      result.disturbed = best_disturbed_;
      Allocation alloc(p_);
      for (std::size_t k = 0; k < totals_.size(); ++k) {
        for (std::size_t f = 0; f < fpgas_; ++f) {
          alloc.set_cu(k, static_cast<int>(f), best_counts_[k][f]);
        }
      }
      result.allocation = std::move(alloc);
    }
    return result;
  }

 private:
  /// Branching-order heuristic: how much of the *friendliest* FPGA one
  /// CU consumes, times the CU count. On mixed fleets the friendliest
  /// device (smallest ratio) keeps the score a lower bound on pressure.
  [[nodiscard]] double demand_score(std::size_t k) const {
    const Kernel& kern = p_.app.kernels[k];
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < fpgas_; ++f) {
      const int fi = static_cast<int>(f);
      double score = kern.res.max_ratio(p_.cap(fi));
      const double bw_cap = p_.bw_cap(fi);
      if (bw_cap > 0.0) score = std::max(score, kern.bw / bw_cap);
      best = std::min(best, score);
    }
    return best * totals_[k];
  }

  /// Necessary condition: pooled demand fits pooled capacity.
  [[nodiscard]] bool pooled_feasible() const {
    ResourceVec demand;
    double bw = 0.0;
    for (std::size_t k = 0; k < totals_.size(); ++k) {
      demand += p_.app.kernels[k].res * static_cast<double>(totals_[k]);
      bw += p_.app.kernels[k].bw * totals_[k];
    }
    return demand.fits_within(p_.pooled_cap(), 1e-6) &&
           bw <= p_.pooled_bw_cap() + 1e-6;
  }

  [[nodiscard]] double size_on(std::size_t k, std::size_t a) const {
    const Kernel& kern = p_.app.kernels[k];
    return a < core::kNumResources ? kern.res.axis(a) : kern.bw;
  }

  [[nodiscard]] double slack_on(std::size_t f, std::size_t a) const {
    return a < core::kNumResources ? slack_res_[f].axis(a) : slack_bw_[f];
  }

  /// Whether θ may serve as a threshold: its room on the whole fleet's
  /// capacity is at most kMaxRoom.
  [[nodiscard]] bool countable(std::size_t a, double theta) const {
    double fleet = 0.0;
    for (int f = 0; f < p_.num_fpgas(); ++f) {
      fleet += a < core::kNumResources ? p_.cap(f).axis(a) : p_.bw_cap(f);
    }
    return theta > 0.0 && theta * kMaxRoom >= fleet * (1.0 + kRoomSlack);
  }

  /// Rule B at the root: for consecutive distinct sizes s < θ on an
  /// axis, the CUs of size ≥ θ and then those of size s must fit.
  [[nodiscard]] bool pair_bound_holds() const {
    for (std::size_t a = 0; a < kAxes; ++a) {
      std::vector<double> sizes;
      for (std::size_t k = 0; k < totals_.size(); ++k) {
        if (totals_[k] > 0 && countable(a, size_on(k, a))) {
          sizes.push_back(size_on(k, a));
        }
      }
      std::sort(sizes.begin(), sizes.end());
      sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
      for (std::size_t i = 1; i < sizes.size(); ++i) {
        const double s = sizes[i - 1];
        const double theta = sizes[i];
        std::int64_t big = 0;
        std::int64_t small = 0;
        for (std::size_t k = 0; k < totals_.size(); ++k) {
          if (size_on(k, a) >= theta) big += totals_[k];
          if (size_on(k, a) == s) small += totals_[k];
        }
        std::int64_t rooms = 0;
        std::int64_t small_room = 0;
        for (std::size_t f = 0; f < fpgas_; ++f) {
          const int m = room(slack_on(f, a), theta);
          rooms += m;
          const double left = slack_on(f, a) * (1.0 + kRoomSlack) - m * theta;
          small_room += static_cast<std::int64_t>(std::floor(left / s));
        }
        const std::int64_t spare = rooms - big;
        const auto per_spare =
            static_cast<std::int64_t>(std::floor(theta / s)) + 1;
        if (spare < 0 || small > small_room + spare * per_spare) return false;
      }
    }
    return true;
  }

  /// Rule A at depth d, recomputed from the slack: for every axis and
  /// every size θ of an unplaced kernel, Σ_j N_j·⌊s_j/θ⌋ over the
  /// unplaced kernels must not exceed Σ_f room(slack_f, θ).
  [[nodiscard]] bool block_bound_holds(std::size_t d) const {
    for (std::size_t a = 0; a < kAxes; ++a) {
      for (std::size_t i = d; i < order_.size(); ++i) {
        const double theta = size_on(order_[i], a);
        if (totals_[order_[i]] == 0 || !countable(a, theta)) continue;
        double need = 0.0;
        for (std::size_t j = d; j < order_.size(); ++j) {
          const std::size_t k = order_[j];
          if (totals_[k] == 0) continue;
          need += totals_[k] * std::floor(size_on(k, a) / theta);
        }
        double rooms = 0.0;
        for (std::size_t f = 0; f < fpgas_; ++f) {
          rooms += room(slack_on(f, a), theta);
        }
        if (need > rooms) return false;
      }
    }
    return true;
  }

  /// Max CUs of kernel k that fit in FPGA f's current slack.
  [[nodiscard]] int fit(std::size_t k, std::size_t f, int limit) const {
    const Kernel& kern = p_.app.kernels[k];
    int q = kern.res.max_multiples(slack_res_[f], limit);
    if (kern.bw > 0.0) {
      q = std::min(q, static_cast<int>(std::floor(
                          slack_bw_[f] * (1.0 + 1e-12) / kern.bw + 1e-9)));
    }
    return std::max(q, 0);
  }

  void assign_kernel(std::size_t order_idx, double phi_so_far) {
    if (done_ || aborted_) return;
    if (order_idx == order_.size()) {
      // With stability the incumbent comparison is on the composite
      // objective φ + move_cost·moves; unconstrained it degenerates to φ
      // (moves_ stays 0). A leaf that does not beat the caller's bound
      // is no incumbent.
      const double obj = phi_so_far + move_cost() * moves_;
      if (obj < best_obj_) {
        found_ = true;
        best_obj_ = obj;
        best_phi_ = phi_so_far;
        best_moves_ = moves_;
        best_disturbed_ = disturbed_;
        best_counts_ = counts_;
      }
      if (mode_ == PackingMode::kFeasibility ||
          (stop_on_static_lb_ && best_phi_ <= static_lb_ + kEps)) {
        done_ = true;
      }
      return;
    }
    const std::size_t k = order_[order_idx];
    if (totals_[k] == 0) {
      // A zero total still tears down whatever the reference had placed.
      StabStep step;
      if (stab_enter(k, step)) assign_kernel(order_idx + 1, phi_so_far);
      stab_exit(step);
      return;
    }
    if (bounds_ && !block_bound_holds(order_idx)) return;
    // Snapshot which FPGAs are empty now: empty FPGAs *of the same
    // device class* are interchangeable for this kernel, so counts
    // placed on them are forced non-increasing within each class.
    std::vector<bool> empty_at_start(fpgas_);
    for (std::size_t f = 0; f < fpgas_; ++f) {
      empty_at_start[f] = symmetric_ && fpga_load_[f] == 0;
    }
    // Per-class cap on the count the next empty-at-start FPGA of that
    // class may receive. Owned by this kernel's frame (not a member):
    // the recursion interleaves later kernels' assign_kernel calls,
    // which must not disturb this kernel's in-flight clamp state.
    std::vector<int> last_empty(p_.platform.num_classes(), totals_[k]);
    distribute(order_idx, k, totals_[k], 0, 0.0, phi_so_far, empty_at_start,
               last_empty);
  }

  // NOLINTNEXTLINE(misc-no-recursion)
  void distribute(std::size_t order_idx, std::size_t k, int rem,
                  std::size_t f, double partial_phi, double phi_so_far,
                  const std::vector<bool>& empty_at_start,
                  std::vector<int>& last_empty) {
    if (done_ || aborted_) return;
    if (!budget_.tick()) {
      aborted_ = true;
      return;
    }
    if (rem == 0) {
      // Kernel k is fully placed (trailing FPGAs hold 0): charge its
      // torn CUs / group disturbance before descending, undo after.
      StabStep step;
      if (stab_enter(k, step)) {
        assign_kernel(order_idx + 1, std::max(phi_so_far, partial_phi));
      }
      stab_exit(step);
      return;
    }
    if (f == fpgas_) return;  // CUs left but no FPGAs left
    if (mode_ == PackingMode::kMinSpreading) {
      // Concavity bound: the unplaced remainder adds at least rem/(1+rem),
      // and moves only ever grow, so moves-so-far lower-bounds the cost.
      const double lb = std::max(phi_so_far, partial_phi + phi_of(rem));
      if (lb + move_cost() * moves_ >= best_obj_ - kEps) return;
    }
    // Remaining CUs must fit in the remaining FPGAs' aggregate fit.
    int aggregate = 0;
    for (std::size_t g = f; g < fpgas_ && aggregate < rem; ++g) {
      aggregate += fit(k, g, rem);
    }
    if (aggregate < rem) return;

    const auto cls = static_cast<std::size_t>(fpga_class_[f]);
    int cmax = fit(k, f, rem);
    if (empty_at_start[f]) cmax = std::min(cmax, last_empty[cls]);
    const Kernel& kern = p_.app.kernels[k];
    // Larger counts first: consolidated placements make good incumbents.
    for (int c = cmax; c >= 0; --c) {
      if (c > 0) {
        slack_res_[f] -= kern.res * static_cast<double>(c);
        slack_bw_[f] -= kern.bw * c;
        fpga_load_[f] += c;
        counts_[k][f] = c;
      }
      const int saved_empty_cap = last_empty[cls];
      if (empty_at_start[f]) last_empty[cls] = c;
      distribute(order_idx, k, rem - c, f + 1, partial_phi + phi_of(c),
                 phi_so_far, empty_at_start, last_empty);
      last_empty[cls] = saved_empty_cap;
      if (c > 0) {
        slack_res_[f] += kern.res * static_cast<double>(c);
        slack_bw_[f] += kern.bw * c;
        fpga_load_[f] -= c;
        counts_[k][f] = 0;
      }
      if (done_ || aborted_) return;
    }
  }

  [[nodiscard]] double move_cost() const {
    return stab_ != nullptr ? stab_->move_cost : 0.0;
  }

  /// Undo record for one kernel's stability accounting.
  struct StabStep {
    int torn = 0;
    bool counted_group = false;
    std::size_t group = 0;
  };

  /// Charges kernel k's completed placement against the migration
  /// budgets. Returns false when a hard budget is exceeded — the caller
  /// must skip the subtree (and still call stab_exit to undo). No-op
  /// (always true) without stability, for an exempt kernel, or for a
  /// kernel with no reference row.
  bool stab_enter(std::size_t k, StabStep& step) {
    if (stab_ == nullptr) return true;
    const std::vector<int>& ref = stab_->reference[k];
    if (ref.empty()) return true;  // new arrival: nothing to preserve
    const std::size_t g =
        stab_->group_of.empty()
            ? 0
            : static_cast<std::size_t>(stab_->group_of[k]);
    if (stab_->exempt_group >= 0 &&
        g == static_cast<std::size_t>(stab_->exempt_group)) {
      return true;
    }
    int torn = 0;
    bool changed = false;
    for (std::size_t f = 0; f < fpgas_; ++f) {
      const int old_n = f < ref.size() ? ref[f] : 0;
      const int new_n = counts_[k][f];
      if (old_n != new_n) changed = true;
      if (old_n > new_n) torn += old_n - new_n;
    }
    for (std::size_t f = fpgas_; f < ref.size(); ++f) {
      // The pool shrank under the reference: those CUs are gone.
      if (ref[f] > 0) {
        changed = true;
        torn += ref[f];
      }
    }
    step.torn = torn;
    moves_ += torn;
    if (changed && group_changed_[g] == 0) {
      group_changed_[g] = 1;
      step.counted_group = true;
      step.group = g;
      ++disturbed_;
    }
    return (stab_->max_moves < 0 || moves_ <= stab_->max_moves) &&
           (stab_->max_disturbed < 0 || disturbed_ <= stab_->max_disturbed);
  }

  void stab_exit(const StabStep& step) {
    moves_ -= step.torn;
    if (step.counted_group) {
      group_changed_[step.group] = 0;
      --disturbed_;
    }
  }

  const Problem& p_;
  const std::vector<int>& totals_;
  PackingMode mode_;
  Budget& budget_;
  const StabilityOptions* stab_;
  bool bounds_;
  std::size_t fpgas_;

  std::vector<std::size_t> order_;
  std::vector<std::vector<int>> counts_;
  std::vector<int> fpga_class_;
  std::vector<ResourceVec> slack_res_;
  std::vector<double> slack_bw_;
  std::vector<int> fpga_load_;

  double static_lb_ = 0.0;
  bool stop_on_static_lb_ = true;
  bool symmetric_ = true;
  double best_phi_ = std::numeric_limits<double>::infinity();
  double best_obj_;  ///< the incumbent's objective, or the caller's bound
  int moves_ = 0;
  int disturbed_ = 0;
  int best_moves_ = 0;
  int best_disturbed_ = 0;
  std::vector<char> group_changed_;
  std::vector<std::vector<int>> best_counts_;
  bool found_ = false;
  bool done_ = false;
  bool aborted_ = false;
};

}  // namespace

PackingResult reference_pack(const Problem& problem,
                             const std::vector<int>& totals, PackingMode mode,
                             Budget& budget, const StabilityOptions* stability,
                             CountBounds bounds, double bound) {
  MFA_ASSERT(totals.size() == problem.num_kernels());
  MFA_ASSERT(mode == PackingMode::kMinSpreading ||
             bound == std::numeric_limits<double>::infinity());
  for (int n : totals) MFA_ASSERT_MSG(n >= 0, "negative CU total");
  if (stability != nullptr) {
    MFA_ASSERT_MSG(stability->reference.size() == totals.size(),
                   "stability reference not aligned to the kernel set");
    MFA_ASSERT_MSG(stability->group_of.empty() ||
                       stability->group_of.size() == totals.size(),
                   "stability group map not aligned to the kernel set");
  }
  Search search(problem, totals, mode, budget, stability, bounds, bound);
  return search.run();
}

}  // namespace mfa::oracles
