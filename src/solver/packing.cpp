#include "solver/packing.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

namespace mfa::solver {
namespace {

using core::Allocation;
using core::Kernel;
using core::Problem;
using core::ResourceVec;

/// Nodes a search counts between two settlements with its Budget.
constexpr std::int64_t kSettleEvery = 1024;

/// FitEntry::stamp of a fit never computed.
constexpr std::uint64_t kNoStamp = std::numeric_limits<std::uint64_t>::max();

/// Axes the capacity-count bounds count on: the four resources, then
/// DRAM bandwidth.
constexpr std::size_t kAxes = core::kNumResources + 1;

/// Relative headroom on every slack the bounds count (see room()).
constexpr double kRoomSlack = 1e-6;

/// A CU size θ whose room on the whole fleet exceeds this is not used
/// as a threshold, so every room and sum fits an int. Skipping a
/// threshold only weakens the bounds.
constexpr double kMaxRoom = 1 << 30;

double phi_of(int n) { return static_cast<double>(n) / (1.0 + n); }

/// Blocks of size θ per unit of slack, with the headroom room() needs.
double room_scale(double theta) { return (1.0 + kRoomSlack) / theta; }

/// Whole blocks of size θ that `slack` can hold, rounded up generously:
/// ⌊slack·(1 + 1e-6)/θ⌋ with scale = room_scale(θ), and 0 for a
/// (drifted) negative slack. Truncation is ⌊⌋ for a non-negative
/// product, and kMaxRoom keeps the product within an int.
///
/// Soundness: fit() lets one step place c CUs of size s in slack σ when
/// c·s ≤ σ·(1 + 1e-12) + 1e-9·s, and so s ≤ σ·(1 + 1.1e-9) when c ≥ 1.
/// A step can leave σ below zero by at most 1.1e-9·σ, and nothing of
/// positive size is placed on a negative slack. Slack only shrinks, so
/// everything fit() places from slack σ onwards sums to at most
/// σ·(1 + 1.1e-9) plus rounding of order 1e-16·σ per step. The 1e-6
/// headroom covers that with a wide margin, and also the rounding of
/// ⌊s/θ⌋ and of this product.
int room(double slack, double scale) {
  return std::max(0, static_cast<int>(slack * scale));
}

/// Needs are capped here, still above any room sum.
constexpr double kNeedCap = kMaxRoom + 1;

/// ⌊size/θ⌋, the θ-blocks one CU of `size` fills, capped at kNeedCap.
double blocks_per_cu(double size, double theta) {
  if (size < theta) return 0.0;
  const double blocks = size / theta;
  return blocks < kNeedCap ? static_cast<int>(blocks) : kNeedCap;
}

/// Depth-first packing search over one problem instance.
class Search {
 public:
  Search(const Problem& problem, const std::vector<int>& totals,
         PackingMode mode, Budget& budget,
         const StabilityOptions* stability, double bound)
      : p_(problem),
        totals_(totals),
        mode_(mode),
        budget_(budget),
        stab_(stability),
        fpgas_(static_cast<std::size_t>(problem.num_fpgas())),
        counts_(totals.size(),
                std::vector<int>(fpgas_, 0)),
        fpga_class_(fpgas_, 0),
        slack_stamp_(fpgas_, 0),
        fpga_load_(fpgas_, 0),
        classes_(problem.platform.num_classes()),
        table_(totals.size() * (fpgas_ + 1)),
        last_empty_(totals.size() * classes_),
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
    std::vector<double> score(totals.size());
    for (std::size_t k = 0; k < totals.size(); ++k) score[k] = demand_score(k);
    order_.resize(totals.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return score[a] > score[b];
    });
    // The optimum can never beat the capacity-forced spreading bound.
    for (std::size_t k = 0; k < totals.size(); ++k) {
      static_lb_ = std::max(static_lb_,
                            phi_lower_bound(problem, k, totals[k]));
    }
    collect_thresholds();
  }

  PackingResult run() {
    PackingResult result;
    if (!pooled_feasible(p_, totals_) || !pair_bound_holds()) {
      result.feasible = false;
      result.proved_optimal = true;
      return result;
    }
    settle_at_ = next_settle();
    assign_kernel(0, 0.0);
    if (unsettled_ > 0) budget_.consume(unsettled_);
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

  /// Kernel k's per-CU demand on bound axis a.
  [[nodiscard]] double size_on(std::size_t k, std::size_t a) const {
    const Kernel& kern = p_.app.kernels[k];
    return a < core::kNumResources ? kern.res[static_cast<core::Resource>(a)]
                                   : kern.bw;
  }

  /// FPGA f's slack on bound axis a.
  [[nodiscard]] double slack_on(std::size_t f, std::size_t a) const {
    return a < core::kNumResources
               ? slack_res_[f][static_cast<core::Resource>(a)]
               : slack_bw_[f];
  }

  /// True when size θ on axis a may serve as a threshold (see kMaxRoom).
  [[nodiscard]] bool countable(std::size_t a, double theta) const {
    return theta > 0.0 && theta * kMaxRoom >= fleet_room_[a];
  }

  /// Rule B (the pair bound, see packing.hpp), once at the root. On
  /// each axis, for consecutive distinct sizes s < θ: the B CUs of size
  /// ≥ θ take at most m_f = room(S_f, θ) on FPGA f and σ = Σ m_f − B ≥ 0
  /// of those go unused; FPGA f then holds at most ⌊(S_f − m_f·θ)/s⌋ of
  /// the CUs of size s, plus ⌊θ/s⌋ + 1 more for each unused θ-room.
  [[nodiscard]] bool pair_bound_holds() const {
    std::vector<double> sizes;
    for (std::size_t a = 0; a < kAxes; ++a) {
      sizes.clear();
      for (std::size_t k = 0; k < totals_.size(); ++k) {
        const double s = size_on(k, a);
        if (totals_[k] > 0 && countable(a, s)) sizes.push_back(s);
      }
      std::sort(sizes.begin(), sizes.end());
      sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
      for (std::size_t i = 1; i < sizes.size(); ++i) {
        const double s = sizes[i - 1];
        const double theta = sizes[i];
        std::int64_t big = 0;
        std::int64_t small = 0;
        for (std::size_t k = 0; k < totals_.size(); ++k) {
          const double size = size_on(k, a);
          if (size >= theta) big += totals_[k];
          if (size == s) small += totals_[k];
        }
        std::int64_t spare = -big;
        std::int64_t small_room = 0;
        for (std::size_t f = 0; f < fpgas_; ++f) {
          const int m = room(slack_on(f, a), room_scale(theta));
          spare += m;
          const double left = slack_on(f, a) * (1.0 + kRoomSlack) - m * theta;
          small_room += static_cast<std::int64_t>(std::floor(left / s));
        }
        if (spare < 0) return false;
        const auto per_spare =
            static_cast<std::int64_t>(std::floor(theta / s)) + 1;
        if (small > small_room + spare * per_spare) return false;
      }
    }
    return true;
  }

  /// Rule A's set-up, once per pack: every axis's distinct positive CU
  /// sizes θ, ordered so that depth d checks a prefix of them (the θ of
  /// the kernels order_[d..]), and the θ-blocks those kernels need as
  /// suffix sums over order_, all in flat buffers.
  void collect_thresholds() {
    const std::size_t depth = order_.size();
    thresholds_.reserve(kAxes * depth);
    for (std::size_t a = 0; a < kAxes; ++a) {
      double fleet = 0.0;
      for (std::size_t f = 0; f < fpgas_; ++f) fleet += slack_on(f, a);
      fleet_room_[a] = fleet * (1.0 + kRoomSlack);
      const std::size_t axis_begin = thresholds_.size();
      for (std::size_t d = 0; d < depth; ++d) {
        const double theta = size_on(order_[d], a);
        if (totals_[order_[d]] == 0 || !countable(a, theta)) continue;
        std::size_t t = axis_begin;
        while (t < thresholds_.size() && thresholds_[t].theta != theta) ++t;
        if (t == thresholds_.size()) {
          thresholds_.push_back({a, theta, room_scale(theta), d});
        } else {
          thresholds_[t].last = d;
        }
      }
    }
    std::sort(thresholds_.begin(), thresholds_.end(),
              [](const Threshold& x, const Threshold& y) {
                return x.last > y.last;
              });
    block_base_.assign(depth + 1, 0);
    for (std::size_t d = 0; d < depth; ++d) {
      std::size_t active = 0;
      while (active < thresholds_.size() && thresholds_[active].last >= d) {
        ++active;
      }
      block_base_[d + 1] = block_base_[d] + active;
    }
    blocks_.resize(block_base_[depth]);
    std::vector<double> need(thresholds_.size(), 0.0);
    for (std::size_t d = depth; d-- > 0;) {
      const std::size_t k = order_[d];
      if (totals_[k] > 0) {
        for (std::size_t t = 0; t < thresholds_.size(); ++t) {
          const Threshold& th = thresholds_[t];
          const double blocks = blocks_per_cu(size_on(k, th.axis), th.theta);
          need[t] = std::min(need[t] + totals_[k] * blocks, kNeedCap);
        }
      }
      for (std::size_t t = block_base_[d]; t < block_base_[d + 1]; ++t) {
        blocks_[t].need = static_cast<int>(need[t - block_base_[d]]);
      }
    }
    rooms_.assign(block_base_[depth] * fpgas_, 0);
    room_stamp_.assign(depth * fpgas_, kNoStamp);
    lead_.assign(depth, 0);
    stale_.resize(fpgas_);
  }

  /// Rule A (the block bound, see packing.hpp) at depth d: for every
  /// threshold θ of the unplaced kernels, the θ-blocks they need must
  /// not exceed Σ_f room(slack_f, θ). Each FPGA's rooms are kept per
  /// depth under its slack stamp, like the fit table, and their sums
  /// follow every room that changes. The threshold that failed last at
  /// this depth is checked first, and a failure returns at once: the
  /// FPGAs whose rooms were then only partly updated lose their stamp.
  bool block_bound_holds(std::size_t d) {
    const std::size_t active = block_base_[d + 1] - block_base_[d];
    if (active == 0) return true;
    std::uint64_t* stamps = &room_stamp_[d * fpgas_];
    std::size_t stale = 0;
    for (std::size_t f = 0; f < fpgas_; ++f) {
      if (stamps[f] != slack_stamp_[f]) stale_[stale++] = f;
    }
    BlockCount* blocks = &blocks_[block_base_[d]];
    int* rooms = &rooms_[block_base_[d] * fpgas_];
    std::size_t& lead = lead_[d];
    for (std::size_t i = 0; i < active; ++i) {
      // lead first, then the others in index order.
      const std::size_t t = i == 0 ? lead : (i - 1 < lead ? i - 1 : i);
      const Threshold& th = thresholds_[t];
      BlockCount& count = blocks[t];
      for (std::size_t j = 0; j < stale; ++j) {
        const int now = room(slack_on(stale_[j], th.axis), th.scale);
        int& was = rooms[stale_[j] * active + t];
        count.room += now - was;
        was = now;
      }
      if (count.need > count.room) {
        lead = t;
        for (std::size_t j = 0; j < stale; ++j) stamps[stale_[j]] = kNoStamp;
        return false;
      }
    }
    for (std::size_t j = 0; j < stale; ++j) {
      stamps[stale_[j]] = slack_stamp_[stale_[j]];
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
      // (moves_ stays 0), keeping this branch bit-identical to before.
      // A leaf that does not beat the caller's bound is no incumbent.
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
          (stop_on_static_lb_ && best_phi_ <= static_lb_ + kPackingEps)) {
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
    if (!block_bound_holds(order_idx)) return;
    // Kernel k's fit on each FPGA as of now, with suffix sums.
    // distribute() fills FPGAs in index order, so those from f on keep
    // this slack until k is fully placed, and fit(k, g, rem) ==
    // min(fit, rem) for every rem ≤ N_k. A fit is recomputed only when
    // its FPGA's slack stamp changed since this depth last saw it.
    // Also snapshot which FPGAs are empty now: empty FPGAs *of the same
    // device class* are interchangeable for this kernel, so counts
    // placed on them are forced non-increasing within each class.
    FitEntry* row = fit_row(order_idx);
    for (std::size_t f = fpgas_; f-- > 0;) {
      FitEntry& e = row[f];
      if (e.stamp != slack_stamp_[f]) {
        e.fit = fit(k, f, totals_[k]);
        e.stamp = slack_stamp_[f];
      }
      e.suffix = row[f + 1].suffix + e.fit;
      e.empty_at_start = symmetric_ && fpga_load_[f] == 0;
    }
    // Per-class cap on the count the next empty-at-start FPGA of that
    // class may receive.
    int* last_empty = last_empty_row(order_idx);
    std::fill(last_empty, last_empty + classes_, totals_[k]);
    distribute(order_idx, k, totals_[k], 0, 0.0, phi_so_far);
  }

  // NOLINTNEXTLINE(misc-no-recursion)
  void distribute(std::size_t order_idx, std::size_t k, int rem,
                  std::size_t f, double partial_phi, double phi_so_far) {
    if (done_ || aborted_) return;
    if (!charge_node()) {
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
      if (lb + move_cost() * moves_ >= best_obj_ - kPackingEps) return;
    }
    // Remaining CUs must fit in the remaining FPGAs' aggregate fit:
    // Σ_g min(fit[g], rem) ≥ rem exactly when Σ_g fit[g] ≥ rem.
    const FitEntry& entry = fit_row(order_idx)[f];
    if (entry.suffix < rem) return;

    int* last_empty = last_empty_row(order_idx);
    const auto cls = static_cast<std::size_t>(fpga_class_[f]);
    int cmax = std::min(entry.fit, rem);
    if (entry.empty_at_start) cmax = std::min(cmax, last_empty[cls]);
    const Kernel& kern = p_.app.kernels[k];
    // Restored by value, not by `+=`, so the slack of every FPGA stays
    // bit-identical to what the fit tables were computed from.
    const ResourceVec res_before = slack_res_[f];
    const double bw_before = slack_bw_[f];
    const std::uint64_t stamp_before = slack_stamp_[f];
    // Larger counts first: consolidated placements make good incumbents.
    for (int c = cmax; c >= 0; --c) {
      if (c > 0) {
        slack_res_[f] -= kern.res * static_cast<double>(c);
        slack_bw_[f] -= kern.bw * c;
        slack_stamp_[f] = ++last_stamp_;
        fpga_load_[f] += c;
        counts_[k][f] = c;
      }
      const int saved_empty_cap = last_empty[cls];
      if (entry.empty_at_start) last_empty[cls] = c;
      distribute(order_idx, k, rem - c, f + 1, partial_phi + phi_of(c),
                 phi_so_far);
      last_empty[cls] = saved_empty_cap;
      if (c > 0) {
        slack_res_[f] = res_before;
        slack_bw_[f] = bw_before;
        slack_stamp_[f] = stamp_before;
        fpga_load_[f] -= c;
        counts_[k][f] = 0;
      }
      if (done_ || aborted_) return;
    }
  }

  /// Counts one node; false once the budget refuses it. Nodes are
  /// counted here and charged to the Budget in batches: tick()'s two
  /// atomic adds per node made the VGG-16 sweep's nodes ~60% dearer.
  bool charge_node() {
    if (++unsettled_ < settle_at_) return true;
    budget_.consume(unsettled_);
    unsettled_ = 0;
    if (budget_.exhausted()) return false;
    settle_at_ = next_settle();
    return true;
  }

  /// The count at which charge_node() settles next: after kSettleEvery
  /// nodes (polling the deadline and expire()), or on the node that
  /// overruns the node cap, which is the node tick() would refuse.
  [[nodiscard]] std::int64_t next_settle() const {
    const std::int64_t left = budget_.remaining_nodes();
    return left < kSettleEvery ? left + 1 : kSettleEvery;
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
  std::size_t fpgas_;

  /// One FPGA's entry in the fit table of one depth of order_.
  struct FitEntry {
    int fit = 0;     ///< fit(k, f, N_k) for the slack stamped below
    int suffix = 0;  ///< Σ fit over this and every later FPGA
    std::uint64_t stamp = kNoStamp;  ///< slack_stamp_[f] fit was taken at
    bool empty_at_start = false;     ///< empty and symmetry-clamped
  };

  /// Depth d's fit table: fpgas_ entries and a sentinel (suffix 0). The
  /// recursion holds at most one live kernel entry per depth, so each
  /// depth's rows are its own scratch.
  FitEntry* fit_row(std::size_t d) { return &table_[d * (fpgas_ + 1)]; }
  /// Depth d's per-class symmetry clamp (see assign_kernel).
  int* last_empty_row(std::size_t d) { return &last_empty_[d * classes_]; }

  std::vector<std::size_t> order_;
  std::vector<std::vector<int>> counts_;
  std::vector<int> fpga_class_;
  std::vector<ResourceVec> slack_res_;
  std::vector<double> slack_bw_;
  /// Names FPGA f's slack bits: a fresh stamp on every change, the old
  /// one back on every restore, so equal stamps mean equal slack.
  std::vector<std::uint64_t> slack_stamp_;
  std::uint64_t last_stamp_ = 0;
  std::vector<int> fpga_load_;
  std::size_t classes_;
  std::vector<FitEntry> table_;
  std::vector<int> last_empty_;

  /// Each bound axis's capacity summed over the fleet, times 1 + 1e-6.
  std::array<double, kAxes> fleet_room_{};
  /// A CU size θ on one axis that rule A counts blocks of.
  struct Threshold {
    std::size_t axis = 0;
    double theta = 0.0;
    double scale = 0.0;    ///< room_scale(theta)
    std::size_t last = 0;  ///< deepest depth of order_ with a CU of size θ
  };
  /// One depth's count for one threshold.
  struct BlockCount {
    int need = 0;  ///< θ-blocks the kernels order_[d..] need
    int room = 0;  ///< Σ_f room(slack_f, θ) as of the rooms below
  };
  /// Deepest `last` first, so depth d checks a prefix of them: its
  /// block_base_[d + 1] − block_base_[d] active thresholds.
  std::vector<Threshold> thresholds_;
  /// Depth d's counts start at blocks_[block_base_[d]], its rooms at
  /// rooms_[block_base_[d] · fpgas_] (FPGA-major).
  std::vector<std::size_t> block_base_;
  std::vector<BlockCount> blocks_;
  std::vector<int> rooms_;
  /// slack_stamp_ each depth's rooms of each FPGA were taken at.
  std::vector<std::uint64_t> room_stamp_;
  /// Per depth, the threshold that failed there last.
  std::vector<std::size_t> lead_;
  /// block_bound_holds() scratch: the FPGAs with stale rooms.
  std::vector<std::size_t> stale_;

  /// Nodes counted but not yet charged to budget_, and the count at
  /// which charge_node() settles with it.
  std::int64_t unsettled_ = 0;
  std::int64_t settle_at_ = 0;

  double static_lb_ = 0.0;
  bool stop_on_static_lb_ = true;
  bool symmetric_ = true;
  double best_phi_ = std::numeric_limits<double>::infinity();
  /// The incumbent's objective, or the caller's bound before one.
  double best_obj_;
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

bool pooled_feasible(const Problem& problem, const std::vector<int>& totals) {
  MFA_ASSERT(totals.size() == problem.num_kernels());
  ResourceVec demand;
  double bw = 0.0;
  for (std::size_t k = 0; k < totals.size(); ++k) {
    demand += problem.app.kernels[k].res * static_cast<double>(totals[k]);
    bw += problem.app.kernels[k].bw * totals[k];
  }
  return demand.fits_within(problem.pooled_cap(), 1e-6) &&
         bw <= problem.pooled_bw_cap() + 1e-6;
}

int min_chunks(const Problem& problem, std::size_t k, int n) {
  MFA_ASSERT(k < problem.num_kernels());
  MFA_ASSERT(n >= 0);
  if (n == 0) return 0;
  // The roomiest device class bounds any chunk, so this stays a valid
  // (if looser) lower bound on mixed fleets.
  const int per_fpga = problem.max_cu_per_fpga(k);
  if (per_fpga <= 0) return problem.num_fpgas() + 1;  // unplaceable
  return (n + per_fpga - 1) / per_fpga;
}

double phi_lower_bound(const Problem& problem, std::size_t k, int n) {
  if (n <= 0) return 0.0;
  const int per_fpga = problem.max_cu_per_fpga(k);
  if (per_fpga <= 0) return std::numeric_limits<double>::infinity();
  // Most-unequal split: maxed-out chunks plus one remainder chunk is the
  // minimizer of the concave sum Σ n_i/(1+n_i) with parts ≤ per_fpga.
  // per_fpga is the roomiest class's fit, so every feasible chunk obeys
  // the part bound and the value remains a lower bound on mixed fleets.
  double phi = 0.0;
  int rem = n;
  while (rem >= per_fpga) {
    phi += phi_of(per_fpga);
    rem -= per_fpga;
  }
  if (rem > 0) phi += phi_of(rem);
  return phi;
}

PackingResult PackingSolver::pack(const std::vector<int>& totals,
                                  PackingMode mode, Budget& budget,
                                  const StabilityOptions* stability,
                                  double bound) const {
  MFA_ASSERT(totals.size() == problem_->num_kernels());
  MFA_ASSERT_MSG(mode == PackingMode::kMinSpreading ||
                     bound == std::numeric_limits<double>::infinity(),
                 "an objective bound needs the min-spreading search");
  for (int n : totals) MFA_ASSERT_MSG(n >= 0, "negative CU total");
  if (stability != nullptr) {
    MFA_ASSERT_MSG(stability->reference.size() == totals.size(),
                   "stability reference not aligned to the kernel set");
    MFA_ASSERT_MSG(stability->group_of.empty() ||
                       stability->group_of.size() == totals.size(),
                   "stability group map not aligned to the kernel set");
  }
  Search search(*problem_, totals, mode, budget, stability, bound);
  return search.run();
}

}  // namespace mfa::solver
