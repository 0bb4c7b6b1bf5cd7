#include "service/alloc_server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/alloc_count.hpp"
#include "support/assert.hpp"

namespace mfa::service {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deterministic node budget per stability repack (never wall clock —
/// the event log must stay timing-independent).
constexpr std::int64_t kStabilityNodes = 200'000;

}  // namespace

AllocServer::AllocServer(core::Platform platform, ServerOptions options,
                         DeferStart)
    : options_(std::move(options)),
      portfolio_(options_.portfolio, /*num_threads=*/1),
      composite_(std::move(platform), CompositeConfig{}) {}

AllocServer::AllocServer(core::Platform platform, ServerOptions options)
    : AllocServer(platform, std::move(options), DeferStart{}) {
  MFA_ASSERT_MSG(options_.wal_dir.empty(),
                 "WAL-enabled servers must be built via AllocServer::open() "
                 "or recover(), which can report I/O errors");
  MFA_ASSERT_MSG(platform.validate().is_ok(),
                 "invalid platform: AllocServer::open() reports it");
  start();
}

void AllocServer::start() {
  {
    LockGuard lock(stop_mutex_);
    MFA_ASSERT(!started_);
    started_ = true;
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

StatusOr<std::unique_ptr<AllocServer>> AllocServer::open(
    core::Platform platform, ServerOptions options) {
  if (Status valid = platform.validate(); !valid.is_ok()) return valid;
  std::unique_ptr<AllocServer> server(
      new AllocServer(platform, std::move(options), DeferStart{}));
  if (!server->options_.wal_dir.empty()) {
    StatusOr<Wal> wal =
        Wal::create(server->options_.wal_dir, platform,
                    Wal::Options{server->options_.wal_fsync});
    if (!wal.is_ok()) return wal.status();
    server->wal_.emplace(std::move(wal.value()));
  }
  server->start();
  return StatusOr<std::unique_ptr<AllocServer>>(std::move(server));
}

StatusOr<std::unique_ptr<AllocServer>> AllocServer::recover(
    ServerOptions options) {
  if (options.wal_dir.empty()) {
    return Status{Code::kInvalid, "recover: ServerOptions::wal_dir not set"};
  }
  StatusOr<WalRecovery> loaded = Wal::load(options.wal_dir);
  if (!loaded.is_ok()) return loaded.status();
  WalRecovery& recovery = loaded.value();
  if (Status valid = recovery.initial_platform.validate(); !valid.is_ok()) {
    return Status{Code::kInvalid, "wal header: " + valid.message()};
  }
  if (recovery.snapshot) {
    if (Status valid = recovery.snapshot->platform.validate();
        !valid.is_ok()) {
      return Status{Code::kInvalid, "wal snapshot: " + valid.message()};
    }
  }
  std::unique_ptr<AllocServer> server(new AllocServer(
      recovery.initial_platform, std::move(options), DeferStart{}));
  if (Status s = server->restore(recovery); !s.is_ok()) return s;
  StatusOr<Wal> wal = Wal::open(server->options_.wal_dir,
                                recovery.valid_bytes,
                                Wal::Options{server->options_.wal_fsync});
  if (!wal.is_ok()) return wal.status();
  server->wal_.emplace(std::move(wal.value()));
  server->start();
  return StatusOr<std::unique_ptr<AllocServer>>(std::move(server));
}

Status AllocServer::restore(const WalRecovery& recovery) {
  // restore() runs before start(), so no dispatcher or observer exists
  // yet — but every guarded member is still touched under state_mutex_
  // (the locks are uncontended and free; pre-start single-threadedness
  // is a convention the analysis cannot see, and unguarded access here
  // is exactly the kind of latent bug -Wthread-safety exists to stop).
  {
    LockGuard lock(state_mutex_);
    replaying_ = true;
  }
  if (recovery.snapshot) {
    // Splice the snapshotted workload in wholesale, then re-derive the
    // incumbent with one solve: the incumbent is a pure function of
    // (platform, live pipelines, options), so this lands on exactly the
    // allocation the uninterrupted run held at the snapshot point.
    LockGuard lock(state_mutex_);
    composite_.resize_platform(recovery.snapshot->platform);
    for (const PipelineSpec& pipe : recovery.snapshot->pipelines) {
      pipelines_.push_back(pipe);
      composite_.add_pipeline(pipelines_.back());
    }
    sequence_ = recovery.snapshot->sequence;
    if (!pipelines_.empty()) {
      EventOutcome scratch;  // re-derivation; not an event, not logged
      resolve_workload(scratch);
      // Under migration budgets the incumbent is path-dependent (a
      // repack's output depends on the placement the events before the
      // snapshot left behind), so the pure re-derivation above may
      // diverge from the crashed run. Every snapshot of a live workload
      // carries the full ledger: splice its exact rows back in. Without
      // budgets the rows match the re-derivation and this is a
      // byte-level no-op.
      if (Status s = restore_placements(recovery.snapshot->placements);
          !s.is_ok()) {
        replaying_ = false;
        return s;
      }
    }
  }
  for (const WalRecord& record : recovery.tail) {
    {
      LockGuard lock(state_mutex_);
      if (record.sequence < sequence_) {
        replaying_ = false;
        return Status{Code::kInvalid,
                      "wal replay: record sequence " +
                          std::to_string(record.sequence) +
                          " behind server sequence " +
                          std::to_string(sequence_)};
      }
      // Gaps are events that failed durability and were never applied.
      sequence_ = record.sequence;
    }
    process(Event(record.event), GroupCommit{});
  }
  {
    LockGuard lock(state_mutex_);
    sequence_ = std::max(sequence_, recovery.next_sequence);
    stats_.sequence = sequence_;
    replaying_ = false;
  }
  return Status::ok();
}

Status AllocServer::restore_placements(
    const std::vector<PipelinePlacement>& placements) {
  if (!incumbent_ || !incumbent_->allocation) {
    return Status{Code::kInvalid,
                  "wal snapshot: placements for an unsolvable workload"};
  }
  if (placements.size() != pipelines_.size()) {
    return Status{Code::kInvalid,
                  "wal snapshot: placement ledger covers " +
                      std::to_string(placements.size()) + " pipelines, " +
                      std::to_string(pipelines_.size()) + " are live"};
  }
  const core::Problem& problem = *incumbent_->problem;
  const std::size_t fpgas = static_cast<std::size_t>(problem.num_fpgas());
  core::Allocation exact(problem);
  std::size_t k = 0;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const PipelinePlacement& record = placements[i];
    const PipelineSpec& pipe = pipelines_[i];
    if (record.id != pipe.id ||
        record.rows.size() != pipe.app.kernels.size()) {
      return Status{Code::kInvalid,
                    "wal snapshot: placement ledger out of step with "
                    "pipeline '" +
                        pipe.id + "'"};
    }
    for (const std::vector<int>& row : record.rows) {
      if (row.size() != fpgas) {
        return Status{Code::kInvalid,
                      "wal snapshot: placement row width " +
                          std::to_string(row.size()) + " on a " +
                          std::to_string(fpgas) + "-FPGA pool"};
      }
      for (std::size_t f = 0; f < fpgas; ++f) {
        exact.set_cu(k, static_cast<int>(f), row[f]);
      }
      ++k;
    }
  }
  if (!exact.feasible()) {
    return Status{Code::kInvalid,
                  "wal snapshot: placement ledger is infeasible on the "
                  "snapshotted pool"};
  }
  incumbent_->allocation = std::move(exact);
  incumbent_->ii = incumbent_->allocation->ii();
  incumbent_->phi = incumbent_->allocation->phi();
  incumbent_->goal = incumbent_->allocation->goal();
  occupancy_.update(problem, pipelines_, *incumbent_->allocation);
  return Status::ok();
}

AllocServer::~AllocServer() { stop(); }

void AllocServer::stop() {
  LockGuard lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::future<EventOutcome> AllocServer::submit(Event event) {
  return queue_.push(std::move(event));
}

void AllocServer::dispatcher_loop() {
  std::vector<WalRecord> group;
  for (std::deque<EventQueue::Item> items = queue_.pop_all(); !items.empty();
       items = queue_.pop_all()) {
    // ---- Durability barrier: group commit, append-before-apply. The
    // whole drain goes down in one write and one fsync before any of it
    // mutates anything. A failed append fails every event of the group
    // (nothing mutates, nothing solves) — acknowledging an un-logged
    // mutation would break the recovery contract.
    const auto t0 = Clock::now();
    GroupCommit commit;
    {
      LockGuard lock(state_mutex_);
      if (wal_) {
        // process() numbers the events from sequence_ in this order.
        for (const EventQueue::Item& item : items) {
          group.push_back(WalRecord{sequence_ + group.size(), item.event});
        }
        commit.status = wal_->append(group);
        if (commit.status.is_ok()) ++stats_.wal_commits;
        group.clear();
      }
    }
    commit.seconds = seconds_since(t0);
    // Release each item once acknowledged: a backlog of queued events
    // is freed as it drains, not all at once at the end.
    for (; !items.empty(); items.pop_front()) {
      EventQueue::Item& item = items.front();
      item.reply.set_value(process(std::move(item.event), commit));
    }
  }
}

void AllocServer::retain_outcome(const EventOutcome& outcome) {
  log_.push_back(outcome);
  if (options_.log_capacity > 0) {
    while (log_.size() > options_.log_capacity) log_.pop_front();
  }
}

void AllocServer::resolve_workload(EventOutcome& outcome) {
  runtime::SolveRequest request;
  request.problem = composite_.snapshot();
  runtime::SolveResult result = portfolio_.solve(request);
  outcome.solve_status = result.status;
  outcome.solve.nodes = result.nodes;
  if (result.is_ok() && result.allocation) {
    // Diff the unconstrained optimum against the occupancy records
    // (recorded whether or not stability is configured — "stability
    // off" and "budgets too large to bind" produce identical logs);
    // when it busts a configured budget the ladder may swap in a
    // gentler allocation and re-stamp the diff.
    outcome.diff =
        occupancy_.diff_against(pipelines_, *result.allocation, outcome.id);
    apply_stability(result, outcome);
    incumbent_ = std::move(result);
    incumbent_current_ = true;
    // Occupancy moves in lock-step with the incumbent: the same update
    // happens inside recovery's re-derivation solve and tail replay, so
    // a recovered ledger is byte-identical to an uninterrupted run's.
    occupancy_.update(*request.problem, pipelines_,
                      *incumbent_->allocation);
  } else {
    // Keep serving the previous allocation (and its occupancy records).
    incumbent_current_ = false;
  }
}

void AllocServer::apply_stability(runtime::SolveResult& result,
                                  EventOutcome& outcome) {
  const bool budgeted =
      options_.max_moves >= 0 || options_.max_disturbed >= 0;
  if (!budgeted && options_.move_cost <= 0.0) return;  // stability off
  if (!outcome.diff.computed) return;  // no reference placement yet
  const bool over =
      (options_.max_moves >= 0 &&
       outcome.diff.cus_moved > options_.max_moves) ||
      (options_.max_disturbed >= 0 &&
       outcome.diff.pipelines_disturbed > options_.max_disturbed);
  // A pure soft cost re-packs whenever the optimum moves anything; hard
  // budgets only engage the ladder once busted (so generous budgets
  // leave the solve path — and the event log — untouched).
  if (!over && !(options_.move_cost > 0.0 && outcome.diff.cus_moved > 0)) {
    return;
  }

  const core::Problem& problem = *result.problem;
  const double unconstrained_goal = result.goal;
  solver::StabilityOptions stab =
      occupancy_.make_stability(pipelines_, outcome.id);
  stab.max_moves = options_.max_moves;
  stab.max_disturbed = options_.max_disturbed;
  stab.move_cost = options_.move_cost;

  std::vector<int> totals(problem.num_kernels(), 0);
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    totals[k] = result.allocation->total_cu(k);
  }

  const solver::PackingSolver packer(problem);
  const auto adopt = [&](const solver::PackingResult& packed) {
    result.allocation = *packed.allocation;
    result.ii = result.allocation->ii();
    result.phi = result.allocation->phi();
    result.goal = result.allocation->goal();
    outcome.diff =
        occupancy_.diff_against(pipelines_, *result.allocation, outcome.id);
    outcome.diff.goal_regret = std::max(0.0, result.goal - unconstrained_goal);
    outcome.diff.stability_applied = true;
  };

  // Rung 1: repack the optimum's own totals under the budgets. Same
  // totals ⇒ same II, so any regret is pure φ.
  {
    solver::Budget budget = solver::Budget::nodes_only(kStabilityNodes);
    const solver::PackingResult packed = packer.pack(
        totals, solver::PackingMode::kMinSpreading, budget, &stab);
    if (packed.feasible && packed.allocation) {
      adopt(packed);
      return;
    }
  }

  // Rung 2: pin every surviving pipeline exactly where it is (zero
  // budgets) and place only the event's target into the holes. Totals
  // change, so II may too — the regret covers both terms.
  if (stab.exempt_group >= 0) {
    std::vector<int> pinned = totals;
    for (std::size_t k = 0; k < stab.reference.size(); ++k) {
      if (!stab.group_of.empty() && stab.group_of[k] == stab.exempt_group) {
        continue;
      }
      if (stab.reference[k].empty()) continue;  // new arrival: keep A* total
      int held = 0;
      for (const int n : stab.reference[k]) held += n;
      pinned[k] = held;
    }
    solver::StabilityOptions frozen = stab;
    frozen.max_moves = 0;
    frozen.max_disturbed = 0;
    frozen.move_cost = 0.0;
    solver::Budget budget = solver::Budget::nodes_only(kStabilityNodes);
    const solver::PackingResult packed = packer.pack(
        pinned, solver::PackingMode::kMinSpreading, budget, &frozen);
    if (packed.feasible && packed.allocation) {
      adopt(packed);
      return;
    }
  }

  // Rung 3: no in-budget candidate — accept the unconstrained optimum
  // over budget rather than serve nothing.
  outcome.diff.budget_exceeded = true;
}

EventOutcome AllocServer::process(Event event, const GroupCommit& commit) {
  const auto t0 = Clock::now();
  // The dispatcher is the only mutator, but observers (active_pipelines,
  // incumbent, log) read concurrently: hold the state lock across the
  // mutation *and* the re-solve so they always see a consistent pair of
  // (workload, incumbent). Events are coarse; observer latency under a
  // solve is acceptable for a serving loop.
  LockGuard lock(state_mutex_);
  EventOutcome outcome;
  outcome.sequence = sequence_++;
  outcome.type = event.type;

  // ---- The event's group failed its WAL append (see dispatcher_loop):
  // fail the event unapplied.
  const bool apply = commit.status.is_ok();
  if (!apply) {
    outcome.status = commit.status;
    ++stats_.wal_errors;
  }

  // ---- Check the event's own payload, then apply it as a composite
  // delta. A failed check changes nothing.
  auto find_pipeline = [this](const std::string& id) {
    return std::find_if(pipelines_.begin(), pipelines_.end(),
                        [&id](const PipelineSpec& p) { return p.id == id; });
  };
  bool workload_changed = false;
  if (apply) {
    switch (event.type) {
      case Event::Type::kAddPipeline: {
        outcome.id = event.pipeline.id;
        if (event.pipeline.id.empty()) {
          outcome.status = Status{Code::kInvalid, "empty pipeline id"};
        } else if (event.pipeline.app.kernels.empty()) {
          outcome.status =
              Status{Code::kInvalid, "pipeline without kernels: '" +
                                         event.pipeline.id + "'"};
        } else if (event.pipeline.weight <= 0.0) {
          outcome.status = Status{Code::kInvalid, "non-positive weight"};
        } else if (find_pipeline(event.pipeline.id) != pipelines_.end()) {
          outcome.status =
              Status{Code::kInvalid,
                     "duplicate pipeline id: '" + event.pipeline.id + "'"};
        } else if (Status valid = CompositeBuilder::validate_pipeline(
                       event.pipeline, event.pipeline.weight);
                   !valid.is_ok()) {
          outcome.status = std::move(valid);
        } else {
          pipelines_.push_back(std::move(event.pipeline));
          composite_.add_pipeline(pipelines_.back());
          outcome.delta = CompositeDelta::kStructural;
          workload_changed = true;
        }
        break;
      }
      case Event::Type::kRemovePipeline: {
        outcome.id = event.id;
        auto it = find_pipeline(event.id);
        if (it == pipelines_.end()) {
          outcome.status = Status{
              Code::kInvalid, "unknown pipeline id: '" + event.id + "'"};
        } else {
          const auto index = static_cast<std::size_t>(it - pipelines_.begin());
          pipelines_.erase(it);
          composite_.remove_pipeline(index);
          outcome.delta = CompositeDelta::kStructural;
          workload_changed = true;
        }
        break;
      }
      case Event::Type::kReprioritize: {
        outcome.id = event.id;
        auto it = find_pipeline(event.id);
        if (it == pipelines_.end()) {
          outcome.status = Status{
              Code::kInvalid, "unknown pipeline id: '" + event.id + "'"};
        } else if (event.weight <= 0.0) {
          outcome.status = Status{Code::kInvalid, "non-positive weight"};
        } else if (Status valid =
                       CompositeBuilder::validate_pipeline(*it, event.weight);
                   !valid.is_ok()) {
          outcome.status = std::move(valid);
        } else {
          it->weight = event.weight;
          const auto index = static_cast<std::size_t>(it - pipelines_.begin());
          {
            // Runtime half of the zero-allocation gate: count every
            // heap allocation the warm delta performs (0 unless the
            // interposer TU is linked; see support/alloc_count.hpp).
            WarmAllocScope allocs;
            composite_.reprioritize(index, *it);
            outcome.warm_allocs = allocs.allocations();
          }
          outcome.delta = CompositeDelta::kCoefficients;
          workload_changed = true;
        }
        break;
      }
      case Event::Type::kResizePlatform: {
        if (Status valid = event.platform.validate(); !valid.is_ok()) {
          outcome.status = std::move(valid);
        } else {
          {
            WarmAllocScope allocs;
            composite_.resize_platform(std::move(event.platform));
            outcome.warm_allocs = allocs.allocations();
          }
          outcome.delta = CompositeDelta::kRhs;
          workload_changed = true;
        }
        break;
      }
    }
  }

  // ---- Incremental re-solve.
  if (workload_changed) {
    if (pipelines_.empty()) {
      incumbent_.reset();
      incumbent_current_ = true;
      occupancy_.clear();
    } else {
      resolve_workload(outcome);
    }
  }

  // ---- Periodic durable snapshot, skipped while replaying (the
  // snapshot that scheduled those events may already be newer) and while
  // the incumbent is stale: its ledger does not cover the live set, so
  // recovery could not splice it. Recovery then replays a longer tail
  // from the older snapshot, which rebuilds the stale incumbent exactly.
  if (wal_ && !replaying_ && incumbent_current_ &&
      options_.snapshot_every > 0 &&
      sequence_ % options_.snapshot_every == 0) {
    WalSnapshot snapshot;
    snapshot.sequence = sequence_;
    snapshot.platform = composite_.platform();
    snapshot.pipelines = pipelines_;
    // The ledger rides along so recovery can restore the incumbent's
    // exact rows — under migration budgets the incumbent depends on
    // placement history, not just the live set.
    snapshot.placements = occupancy_.placements();
    if (wal_->write_snapshot(snapshot).is_ok()) {
      ++stats_.snapshots;
    } else {
      // Recovery stays correct on the older snapshot (or a full
      // replay); surface the failure through stats only.
      ++stats_.wal_errors;
    }
  }

  outcome.active_pipelines = pipelines_.size();
  if (incumbent_) {
    outcome.solve.ii = incumbent_->ii;
    outcome.solve.phi = incumbent_->phi;
    outcome.solve.goal = incumbent_->goal;
    outcome.solve.totals.reserve(incumbent_->allocation->num_kernels());
    for (std::size_t k = 0; k < incumbent_->allocation->num_kernels();
         ++k) {
      outcome.solve.totals.push_back(incumbent_->allocation->total_cu(k));
    }
  }
  outcome.seconds = commit.seconds + seconds_since(t0);

  stats_.sequence = sequence_;
  stats_.active_pipelines = pipelines_.size();
  if (outcome.status.is_ok()) {
    ++stats_.events_ok;
  } else {
    ++stats_.events_failed;
  }
  // Broadcast events are counted by *every* shard; this counter lets a
  // router-level reader (the wire API) de-duplicate them.
  if (outcome.type == Event::Type::kResizePlatform) ++stats_.resizes;
  stats_.solve_nodes += outcome.solve.nodes;
  stats_.cus_moved += static_cast<std::uint64_t>(
      std::max(0, outcome.diff.cus_moved));
  stats_.pipelines_disturbed += static_cast<std::uint64_t>(
      std::max(0, outcome.diff.pipelines_disturbed));
  if (outcome.diff.stability_applied) ++stats_.stability_repacks;
  if (outcome.diff.budget_exceeded) ++stats_.budget_exceeded;
  stats_.warm_allocs += outcome.warm_allocs;
  retain_outcome(outcome);
  return outcome;
}

std::size_t AllocServer::active_pipelines() const {
  LockGuard lock(state_mutex_);
  return pipelines_.size();
}

std::optional<runtime::SolveResult> AllocServer::incumbent() const {
  LockGuard lock(state_mutex_);
  return incumbent_;
}

std::vector<EventOutcome> AllocServer::log() const {
  LockGuard lock(state_mutex_);
  return {log_.begin(), log_.end()};
}

OccupancyTracker AllocServer::occupancy() const {
  LockGuard lock(state_mutex_);
  return occupancy_;
}

ServiceStats AllocServer::stats() const {
  LockGuard lock(state_mutex_);
  ServiceStats stats = stats_;
  if (!log_.empty()) {
    std::vector<double> seconds;
    seconds.reserve(log_.size());
    for (const EventOutcome& o : log_) seconds.push_back(o.seconds);
    std::sort(seconds.begin(), seconds.end());
    const auto pct = [&seconds](double p) {
      const std::size_t i = static_cast<std::size_t>(
          p * static_cast<double>(seconds.size() - 1));
      return seconds[i] * 1e3;
    };
    stats.p50_ms = pct(0.50);
    stats.p95_ms = pct(0.95);
    stats.p99_ms = pct(0.99);
    stats.max_ms = seconds.back() * 1e3;
  }
  return stats;
}

}  // namespace mfa::service
