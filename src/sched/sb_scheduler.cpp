#include "sched/sb_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "analysis/pcc.hpp"
#include "sched/registry.hpp"

namespace ndf {

namespace {

/// Per-run anchoring state of one maximal task, in a flat arena laid out
/// like the core's dependence counters (CondensedDag::ext_off(level) +
/// task). Size and parent are copied from the condensation at init, so a
/// retried task costs one random access (two with its parent); children
/// are read from the condensation's nesting tables, and readiness (the
/// external-dependence count) lives in the core.
struct Task {
  double size = 0.0;
  /// Leased level-(l-1) subclusters of the anchor: bit k is subcluster
  /// anchor_cache·f + k, f = fanout(l).
  std::uint64_t lease = 0;
  int parent = -1;        ///< task index one level up (-1: top level)
  int anchor_cache = -1;  ///< cache index at this level; -1 while
                          ///< unanchored and for a task larger than σM
  bool anchored = false;
  bool in_pending = false;
};

/// A run queue: FIFO of atomic units. Each unit is queued at most once per
/// run, so the vector stays within the unit count; it rewinds whenever it
/// drains.
class UnitQueue {
 public:
  bool empty() const { return head_ == units_.size(); }
  void push(int u) { units_.push_back(u); }
  int pop() {
    const int u = units_[head_++];
    if (empty()) {
      units_.clear();
      head_ = 0;
    }
    return u;
  }

 private:
  std::vector<int> units_;
  std::size_t head_ = 0;
};

/// The "sb" policy: anchoring, boundedness and allocation over the core's
/// readiness/event machinery.
class SbScheduler final : public Scheduler {
 public:
  explicit SbScheduler(const SchedOptions& opts)
      : sigma_(opts.sigma), alpha_prime_(opts.alpha_prime) {}

  const char* name() const override { return "sb"; }

  void init(SimCore& core) override {
    core_ = &core;
    dag_ = &core.dag();
    m_ = &core.machine();
    levels_ = core.num_levels();

    cap_.resize(levels_);
    fanout_.resize(levels_);
    cache_off_.resize(levels_ + 1);
    std::size_t caches = 0;
    for (std::size_t l = 1; l <= levels_; ++l) {
      cap_[l - 1] = sigma_ * m_->cache_size(l);
      fanout_[l - 1] = m_->fanout(l);
      NDF_CHECK_MSG(l == 1 || fanout_[l - 1] <= 64,
                    "sb leases subclusters through a 64-bit mask; level "
                        << l << " has fanout " << fanout_[l - 1]);
      cache_off_[l - 1] = caches;
      caches += m_->num_caches(l);
    }
    cache_off_[levels_] = caches;
    used_.assign(caches, 0.0);
    leased_.assign(caches, 0);
    runq_.assign(caches, UnitQueue{});
    const std::size_t p = m_->num_processors();
    proc_q_.resize(p * levels_);
    for (std::size_t proc = 0; proc < p; ++proc)
      for (std::size_t l = 1; l <= levels_; ++l)
        proc_q_[proc * levels_ + l - 1] =
            cache_off_[l - 1] + m_->cache_above(proc, l);
    reach_.assign(p, 0);
    top_dirty_ = true;

    task_.resize(dag_->ext_arena_size());
    for (std::size_t l = 1; l <= levels_; ++l) {
      const std::size_t n = dag_->decomposition(l).maximal.size();
      for (std::size_t i = 0; i < n; ++i)
        task_[dag_->ext_off(l) + i] =
            Task{.size = dag_->task_size(l, int(i)),
                 .parent = dag_->task_parent(l, int(i))};
    }
    pending_.assign(levels_, {});
    unit_dur_ = &core.distributed_unit_durations();
  }

  void on_start() override {
    // Seed anchoring with every dependency-free task, top level first.
    for (std::size_t l = levels_; l >= 1; --l) {
      const std::size_t n = dag_->decomposition(l).maximal.size();
      for (std::size_t i = 0; i < n; ++i)
        if (core_->task_ext(l, int(i)) == 0) to_try_.push_back({l, int(i)});
      if (l == 1) break;
    }
    drain_anchor_worklist();
  }

  void on_task_ready(std::size_t level, int t) override {
    if (!task(level, t).anchored) to_try_.push_back({level, t});
  }

  void on_exit_fired(NodeId n) override { release_if_task_done(n); }

  void on_unit_complete(std::size_t, int) override {
    drain_anchor_worklist();
  }

  /// A pick succeeds exactly when the memory-level queue or a run queue
  /// above the processor holds a unit, and a null pick only scans empty
  /// queues, so every other processor can be passed over.
  std::size_t next_pick(std::span<const std::size_t> idle,
                        std::size_t from) override {
    if (!runq_mem_.empty()) return from;
    std::size_t k = from;
    while (k < idle.size() && reach_[idle[k]] == 0) ++k;
    return k;
  }

  /// A null pick only scans empty run queues, so skipped picks need no
  /// replay.
  bool skip_picks(std::size_t) override { return true; }

  Assignment pick(std::size_t proc, double) override {
    for (std::size_t l = 1; l <= levels_; ++l) {
      const std::size_t c = proc_q_[proc * levels_ + l - 1];
      UnitQueue& q = runq_[c];
      if (!q.empty()) {
        const int u = q.pop();
        if (q.empty()) reach_by(l, c, -1);
        return {u, (*unit_dur_)[u]};
      }
    }
    if (!runq_mem_.empty()) {
      const int u = runq_mem_.pop();
      return {u, (*unit_dur_)[u]};
    }
    return {};
  }

 private:
  Task& task(std::size_t l, int t) { return task_[dag_->ext_off(l) + t]; }

  /// Adds `d` to reach_ of every processor below level-l cache `c` (flat
  /// index): its run queue just turned non-empty (+1) or empty (-1).
  void reach_by(std::size_t l, std::size_t c, int d) {
    const std::size_t per = m_->procs_per_cache(l);
    const std::size_t first = (c - cache_off_[l - 1]) * per;
    for (std::size_t proc = first; proc < first + per; ++proc)
      reach_[proc] += d;
  }

  /// Bits 0..f-1: every subcluster of a fanout-f cache.
  static std::uint64_t all_subclusters(std::size_t f) {
    return f >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << f) - 1;
  }

  /// Level-l cache `c` (flat index) is a candidate anchor: above level 1
  /// it needs a subcluster left to lease.
  bool can_lease(std::size_t l, std::size_t c) const {
    return l == 1 || leased_[c] != all_subclusters(fanout_[l - 1]);
  }

  /// Releases capacity/leases of every anchored task rooted at node n (it
  /// can be maximal at several consecutive levels).
  void release_if_task_done(NodeId n) {
    for (std::size_t l = 1; l <= levels_; ++l) {
      const Decomposition& d = dag_->decomposition(l);
      const int ti = d.owner[n];
      if (ti < 0 || d.maximal[ti] != n) continue;  // not a task root here
      Task& t = task(l, ti);
      if (!t.anchored || t.anchor_cache < 0) continue;  // larger than σM
      const std::size_t c = cache_off_[l - 1] + std::size_t(t.anchor_cache);
      used_[c] -= t.size;
      core_->unpin_footprint(l, std::size_t(t.anchor_cache), ti);
      leased_[c] &= ~t.lease;
      // The released cache is eligible again (its lease came back), so
      // it can only lower the top-level minimum.
      if (l == levels_ && !top_dirty_ && can_lease(l, c))
        top_min_used_ = std::min(top_min_used_, used_[c]);
      retry_pending(l);
      if (l > 1) retry_pending(l - 1);  // freed leases unblock children
    }
  }

  void retry_pending(std::size_t l) {
    for (int ti : pending_[l - 1]) {
      task(l, ti).in_pending = false;
      to_try_.push_back({l, ti});
    }
    pending_[l - 1].clear();
  }

  /// gi(S): number of level-(l-1) subclusters for a size-S task at level l.
  std::size_t allocation(std::size_t l, double S) const {
    const double fi = double(m_->fanout(l));
    const double frac = std::pow(3.0 * S / m_->cache_size(l), alpha_prime_);
    return static_cast<std::size_t>(
        std::min(fi, std::max(1.0, std::floor(fi * frac))));
  }

  /// A level-l cache (flat index c) the task fits in: room for `size` and,
  /// above level 1, a subcluster left to lease.
  bool fits(std::size_t l, std::size_t c, double size) const {
    return used_[c] + size <= cap_[l - 1] && can_lease(l, c);
  }

  /// First top-level cache a size-`size` task fits in, or -1. The exact
  /// fast reject: floating-point addition is monotone, so if the least
  /// used eligible cache overflows, every eligible cache does.
  int first_fit_top(double size) {
    const std::size_t l = levels_, off = cache_off_[l - 1];
    if (top_dirty_) {
      top_min_used_ = std::numeric_limits<double>::infinity();
      for (std::size_t c = off; c < cache_off_[l]; ++c)
        if (can_lease(l, c))
          top_min_used_ = std::min(top_min_used_, used_[c]);
      top_dirty_ = false;
    }
    if (top_min_used_ + size > cap_[l - 1]) return -1;
    for (std::size_t c = off; c < cache_off_[l]; ++c)
      if (fits(l, c, size)) return int(c - off);
    return -1;
  }

  /// First subcluster leased by the level-(l+1) parent that a size-`size`
  /// level-l task fits in, or -1 — in subcluster order.
  int first_fit_leased(std::size_t l, double size, const Task& parent) const {
    const std::size_t base =
        std::size_t(parent.anchor_cache) * fanout_[l];  // fanout(l + 1)
    for (std::uint64_t bits = parent.lease; bits != 0; bits &= bits - 1) {
      const std::size_t c = base + std::size_t(std::countr_zero(bits));
      if (fits(l, cache_off_[l - 1] + c, size)) return int(c);
    }
    return -1;
  }

  void enqueue_unit(int u) {
    for (std::size_t l = 1; l <= levels_; ++l) {
      const Task& t = task(l, dag_->unit_task(l, u));
      NDF_CHECK(t.anchored);
      if (t.anchor_cache >= 0) {
        const std::size_t c = cache_off_[l - 1] + std::size_t(t.anchor_cache);
        if (runq_[c].empty()) reach_by(l, c, +1);
        runq_[c].push(u);
        return;
      }
    }
    runq_mem_.push(u);
  }

  /// Anchors fully ready task `ti` of level l if it is not anchored yet,
  /// its parent is, and a candidate cache has room. Every task is pushed
  /// onto the worklist only once its external-dependence count is 0, and
  /// the count cannot change before the task is popped, so it is not
  /// re-read here.
  void try_anchor(std::size_t l, int ti) {
    Task& t = task(l, ti);
    NDF_DCHECK(core_->task_ext(l, ti) == 0);
    if (t.anchored) return;
    const Task* pt = t.parent < 0 ? nullptr : &task(l + 1, t.parent);
    if (pt != nullptr && !pt->anchored) return;
    const double size = t.size;
    if (size <= cap_[l - 1]) {
      // Candidate anchors: the parent's leased subclusters (every level-L
      // cache for a top-level task).
      const int chosen = pt == nullptr ? first_fit_top(size)
                                       : first_fit_leased(l, size, *pt);
      if (chosen < 0) {
        if (!t.in_pending) {
          t.in_pending = true;
          pending_[l - 1].push_back(ti);
        }
        return;
      }
      t.anchored = true;
      t.anchor_cache = chosen;
      const std::size_t c = cache_off_[l - 1] + std::size_t(chosen);
      // Only the least used cache can raise the top-level minimum (by
      // filling up or by leasing its last subcluster).
      if (l == levels_ && used_[c] == top_min_used_) top_dirty_ = true;
      used_[c] += size;
      // Measured occupancy mirrors the capacity reservation: an anchored
      // footprint cannot be evicted until release, so it loads at most
      // once — the mechanism behind measured Q_i <= Q*(sigma*Mi).
      core_->pin_footprint(l, std::size_t(chosen), ti);
      if (l > 1) {
        // Lease the first `want` free subclusters, in subcluster order.
        std::uint64_t free = ~leased_[c] & all_subclusters(fanout_[l - 1]);
        for (std::size_t want = allocation(l, size); want > 0 && free != 0;
             --want) {
          const std::uint64_t lowest = free & (~free + 1);
          t.lease |= lowest;
          free ^= lowest;
        }
        leased_[c] |= t.lease;
      }
    } else {
      t.anchored = true;  // a big strand: no cache can hold it
    }
    core_->stats().misses[l - 1] += size;
    ++core_->stats().anchors;
    if (l == 1) {
      enqueue_unit(ti);
    } else {
      // Only the children already fully ready: the others are pushed by
      // on_task_ready when they become so.
      const auto [first, last] = dag_->task_children(l, ti);
      for (int c = first; c < last; ++c)
        if (core_->task_ext(l - 1, c) == 0) to_try_.push_back({l - 1, c});
    }
  }

  void drain_anchor_worklist() {
    while (!to_try_.empty()) {
      auto [l, ti] = to_try_.back();
      to_try_.pop_back();
      try_anchor(l, ti);
    }
  }

  const double sigma_, alpha_prime_;
  SimCore* core_ = nullptr;
  const CondensedDag* dag_ = nullptr;
  const Pmh* m_ = nullptr;
  std::size_t levels_ = 0;

  std::vector<double> cap_;            // [l-1] = σM_l
  std::vector<std::size_t> fanout_;    // [l-1] = fanout(l)
  std::vector<std::size_t> cache_off_; // [l-1] = level l's first flat
                                       // cache; [L] = the cache count
  std::vector<Task> task_;             // flat (level, task) arena
  // The core's cached distributed-charge table (valid for this run's
  // (dag, machine, charge) binding — no per-run copy).
  const std::vector<double>* unit_dur_ = nullptr;

  // Per cache (flat index): reserved capacity, and which of its
  // subclusters are leased (bit k = subcluster k, levels >= 2).
  std::vector<double> used_;
  std::vector<std::uint64_t> leased_;
  // Least used_ over the top-level caches that still have a subcluster to
  // lease: lowered in place by a release, recomputed after an anchor on
  // the least used cache marks it dirty.
  double top_min_used_ = 0.0;
  bool top_dirty_ = true;

  // Run queues per cache (flat index) plus the memory-level queue;
  // proc_q_[proc·L + l-1] is the queue above `proc` at level l, and
  // reach_[proc] counts the non-empty queues above `proc`.
  std::vector<UnitQueue> runq_;
  UnitQueue runq_mem_;
  std::vector<std::size_t> proc_q_;
  std::vector<int> reach_;

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

double sb_balanced_bound(const SpawnTree& tree, const Pmh& machine,
                         double sigma) {
  double cost = tree.work_of(tree.root());
  for (std::size_t l = 1; l <= machine.num_cache_levels(); ++l)
    cost += parallel_cache_complexity(tree, sigma * machine.cache_size(l)) *
            machine.miss_cost(l);
  return cost / double(machine.num_processors());
}

}  // namespace ndf
