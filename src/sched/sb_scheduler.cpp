#include "sched/sb_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "analysis/pcc.hpp"
#include "sched/registry.hpp"

namespace ndf {

namespace {

constexpr int kRoot = -1;

/// Per-maximal-task anchoring state at one cache level. Readiness (the
/// external-dependence count) lives in the core.
struct Task {
  NodeId root = kNoNode;
  double size = 0.0;
  int parent = kRoot;      ///< task index at the level above (kRoot = memory)
  bool oversized = false;  ///< size > σM at this level (a big strand)
  bool anchored = false;
  bool in_pending = false;
  int anchor_cache = -1;           ///< cache index at this level
  std::vector<std::size_t> lease;  ///< leased child-cache indices
};

/// The "sb" policy: anchoring, boundedness and allocation over the core's
/// readiness/event machinery.
class SbScheduler final : public Scheduler {
 public:
  explicit SbScheduler(const SchedOptions& opts) : opts_(opts) {}

  const char* name() const override { return "sb"; }

  void init(SimCore& core) override {
    core_ = &core;
    const CondensedDag& dag = core.dag();
    const Pmh& m = core.machine();
    const std::size_t L = core.num_levels();

    task_.resize(L);
    kids_.assign(L, {});
    for (std::size_t l = 1; l <= L; ++l) {
      const Decomposition& d = core.decomposition(l);
      auto& tl = task_[l - 1];
      tl.resize(d.maximal.size());
      for (std::size_t i = 0; i < tl.size(); ++i) {
        Task& t = tl[i];
        t.root = d.maximal[i];
        t.size = dag.task_size(l, static_cast<int>(i));
        t.oversized = t.size > opts_.sigma * m.cache_size(l);
        t.parent =
            l < L ? core.decomposition(l + 1).owner[t.root] : kRoot;
      }
    }
    for (std::size_t l = 2; l <= L; ++l) {
      kids_[l - 1].resize(task_[l - 1].size());
      for (std::size_t i = 0; i < task_[l - 2].size(); ++i) {
        const int p = task_[l - 2][i].parent;
        NDF_CHECK(p >= 0);
        kids_[l - 1][p].push_back(static_cast<int>(i));
      }
    }

    unit_dur_ = &core.distributed_unit_durations();
    unit_dispatched_.assign(core.num_units(), false);

    used_.resize(L);
    leased_to_.resize(L);
    runq_.resize(L);
    pending_.assign(L, {});
    for (std::size_t l = 1; l <= L; ++l) {
      used_[l - 1].assign(m.num_caches(l), 0.0);
      leased_to_[l - 1].assign(m.num_caches(l), -1);
      runq_[l - 1].resize(m.num_caches(l));
    }
  }

  void on_start() override {
    // Seed anchoring with every dependency-free task, top level first.
    const std::size_t L = core_->num_levels();
    for (std::size_t l = L; l >= 1; --l) {
      for (std::size_t i = 0; i < task_[l - 1].size(); ++i)
        if (core_->task_ext(l, static_cast<int>(i)) == 0)
          to_try_.push_back({l, static_cast<int>(i)});
      if (l == 1) break;
    }
    drain_anchor_worklist();
  }

  void on_task_ready(std::size_t level, int t) override {
    if (!task_[level - 1][t].anchored) to_try_.push_back({level, t});
  }

  void on_exit_fired(NodeId n) override { release_if_task_done(n); }

  void on_unit_complete(std::size_t, int) override {
    drain_anchor_worklist();
  }

  /// A null pick only scans empty run queues, so skipped picks need no
  /// replay.
  bool skip_picks(std::size_t) override { return true; }

  Assignment pick(std::size_t proc, double) override {
    const Pmh& m = core_->machine();
    for (std::size_t l = 1; l <= core_->num_levels(); ++l) {
      auto& q = runq_[l - 1][m.cache_above(proc, l)];
      if (!q.empty()) {
        const int u = q.front();
        q.pop_front();
        return {u, (*unit_dur_)[u]};
      }
    }
    if (!runq_mem_.empty()) {
      const int u = runq_mem_.front();
      runq_mem_.pop_front();
      return {u, (*unit_dur_)[u]};
    }
    return {};
  }

 private:
  /// Releases capacity/leases of every anchored task rooted at node n (it
  /// can be maximal at several consecutive levels).
  void release_if_task_done(NodeId n) {
    for (std::size_t l = 1; l <= core_->num_levels(); ++l) {
      const int ti = core_->decomposition(l).owner[n];
      if (ti < 0) continue;  // glue at this level, maybe a task above
      Task& t = task_[l - 1][ti];
      if (t.root != n || !t.anchored || t.oversized) continue;
      used_[l - 1][t.anchor_cache] -= t.size;
      core_->unpin_footprint(l, std::size_t(t.anchor_cache), ti);
      if (l > 1)
        for (std::size_t c : t.lease) leased_to_[l - 2][c] = -1;
      retry_pending(l);
      if (l > 1) retry_pending(l - 1);  // freed leases unblock children
    }
  }

  void retry_pending(std::size_t l) {
    for (int ti : pending_[l - 1]) {
      task_[l - 1][ti].in_pending = false;
      to_try_.push_back({l, ti});
    }
    pending_[l - 1].clear();
  }

  bool parent_anchored(std::size_t l, const Task& t) const {
    if (l == core_->num_levels() || t.parent == kRoot) return true;
    return task_[l][t.parent].anchored;
  }

  /// gi(S): number of level-(l-1) subclusters for a size-S task at level l.
  std::size_t allocation(std::size_t l, double S) const {
    const Pmh& m = core_->machine();
    const double fi = double(m.fanout(l));
    const double frac = std::pow(3.0 * S / m.cache_size(l), opts_.alpha_prime);
    return static_cast<std::size_t>(
        std::min(fi, std::max(1.0, std::floor(fi * frac))));
  }

  void enqueue_unit(int u) {
    if (unit_dispatched_[u]) return;
    unit_dispatched_[u] = true;
    const NodeId n = task_[0][u].root;
    for (std::size_t l = 1; l <= core_->num_levels(); ++l) {
      const Task& t = task_[l - 1][core_->decomposition(l).owner[n]];
      if (!t.oversized) {
        NDF_CHECK(t.anchored && t.anchor_cache >= 0);
        runq_[l - 1][t.anchor_cache].push_back(u);
        return;
      }
    }
    runq_mem_.push_back(u);
  }

  void try_anchor(std::size_t l, int ti) {
    const Pmh& m = core_->machine();
    Task& t = task_[l - 1][ti];
    if (t.anchored || core_->task_ext(l, ti) != 0 || !parent_anchored(l, t))
      return;
    if (!t.oversized) {
      // Candidate anchors: parent's leased subclusters (all level-L caches
      // for top-level tasks).
      int chosen = -1;
      auto consider = [&](std::size_t c) {
        if (chosen >= 0) return;
        if (used_[l - 1][c] + t.size > opts_.sigma * m.cache_size(l)) return;
        if (l > 1) {
          const std::size_t f = m.fanout(l);
          bool any_free = false;
          for (std::size_t k = c * f; k < (c + 1) * f; ++k)
            if (leased_to_[l - 2][k] < 0) {
              any_free = true;
              break;
            }
          if (!any_free) return;
        }
        chosen = static_cast<int>(c);
      };
      if (l == core_->num_levels() || t.parent == kRoot) {
        for (std::size_t c = 0; c < m.num_caches(l); ++c) consider(c);
      } else {
        for (std::size_t c : task_[l][t.parent].lease) consider(c);
      }
      if (chosen < 0) {
        if (!t.in_pending) {
          t.in_pending = true;
          pending_[l - 1].push_back(ti);
        }
        return;
      }
      t.anchored = true;
      t.anchor_cache = chosen;
      used_[l - 1][chosen] += t.size;
      // Measured occupancy mirrors the capacity reservation: an anchored
      // footprint cannot be evicted until release, so it loads at most
      // once — the mechanism behind measured Q_i <= Q*(sigma*Mi).
      core_->pin_footprint(l, std::size_t(chosen), ti);
      if (l > 1) {
        const std::size_t want = allocation(l, t.size);
        const std::size_t f = m.fanout(l);
        for (std::size_t k = std::size_t(chosen) * f;
             k < (std::size_t(chosen) + 1) * f && t.lease.size() < want; ++k)
          if (leased_to_[l - 2][k] < 0) {
            leased_to_[l - 2][k] = ti;
            t.lease.push_back(k);
          }
      }
    } else {
      t.anchored = true;
    }
    core_->stats().misses[l - 1] += t.size;
    ++core_->stats().anchors;
    if (l == 1) {
      enqueue_unit(ti);
    } else {
      for (int c : kids_[l - 1][ti]) to_try_.push_back({l - 1, c});
    }
  }

  void drain_anchor_worklist() {
    while (!to_try_.empty()) {
      auto [l, ti] = to_try_.back();
      to_try_.pop_back();
      try_anchor(l, ti);
    }
  }

  const SchedOptions opts_;
  SimCore* core_ = nullptr;

  std::vector<std::vector<Task>> task_;             // task_[l-1]
  std::vector<std::vector<std::vector<int>>> kids_; // kids_[l-1][t] at l-1
  // The core's cached distributed-charge table (valid for this run's
  // (dag, machine, charge) binding — no per-run copy).
  const std::vector<double>* unit_dur_ = nullptr;
  std::vector<bool> unit_dispatched_;

  // Cache occupancy and child leases, per level.
  std::vector<std::vector<double>> used_;    // used_[l-1][cache]
  std::vector<std::vector<int>> leased_to_;  // leased_to_[l-1][cache]

  // Run queues: runq_[l-1][cache] plus the memory-level queue.
  std::vector<std::vector<std::deque<int>>> runq_;
  std::deque<int> runq_mem_;

  // Anchoring work-list and capacity-blocked tasks.
  std::vector<std::pair<std::size_t, int>> to_try_;  // (level, task)
  std::vector<std::vector<int>> pending_;            // pending_[l-1]
};

}  // namespace

namespace detail {
void register_sb_scheduler() {
  register_scheduler(
      "sb", "space-bounded: anchoring + boundedness + allocation (Sec. 4)",
      [](const SchedOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<SbScheduler>(opts);
      });
}
}  // namespace detail

SchedStats run_sb_scheduler(const StrandGraph& g, const Pmh& machine,
                            const SchedOptions& opts) {
  return run_scheduler("sb", g, machine, opts);
}

double sb_balanced_bound(const SpawnTree& tree, const Pmh& machine,
                         double sigma) {
  double cost = tree.work_of(tree.root());
  for (std::size_t l = 1; l <= machine.num_cache_levels(); ++l)
    cost += parallel_cache_complexity(tree, sigma * machine.cache_size(l)) *
            machine.miss_cost(l);
  return cost / double(machine.num_processors());
}

}  // namespace ndf
